"""Complex bilinear scorer and embedding pretraining."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selprover import datasets, kb, pretrain
from selprover.config import RunConfig
from selprover.evaluate import compute_mrr_hits, evaluate_ranking

from oracles import (batch_loss_grad_reference, complex_score,
                     pretrain_reference)


def tiny_vocab(n_const=4, n_pred=2):
    vocab = kb.Vocabulary()
    for i in range(n_pred):
        vocab.intern_predicate(f"r{i}")
    for i in range(n_const):
        vocab.intern_constant(f"c{i}")
    return vocab


def set_embedding(store, name, idx, re, im):
    vec = np.concatenate([np.asarray(re, float), np.asarray(im, float)])
    store.params[name][idx] = vec


def corrupt(rng, pos, src, n_const):
    """Row j replaces the head or the tail of ``pos[src[j]]`` with another
    constant, each side with probability one half."""
    neg = pos[src]
    j = np.arange(len(src))
    side = rng.integers(1, 3, len(src))
    neg[j, side] = (neg[j, side] + rng.integers(1, n_const, len(src))) % n_const
    return neg


def random_batch(rng, n_const, n_pred, n_pos, n_neg):
    """(pos, neg, src) with ``neg[j]`` a corruption of ``pos[src[j]]``.

    ``pos`` and ``neg`` are (pred, subj, obj) rows, and the first row of
    each appears twice.
    """
    pos = np.stack([rng.integers(0, n_pred, n_pos),
                    rng.integers(0, n_const, n_pos),
                    rng.integers(0, n_const, n_pos)], axis=1)
    src = rng.integers(0, n_pos, n_neg)
    neg = corrupt(rng, pos, src, n_const)
    return (np.concatenate([pos[:1], pos]), np.concatenate([neg[:1], neg]),
            np.concatenate([src[:1], src]) + 1)


def oracle_loss(store, pos, neg, wd, dtype=np.float64):
    """Pretraining loss of one batch, from scalar ``complex_score`` calls.

    The embedding rows are read as ``dtype``. ``np.longdouble`` keeps the
    rounding error of the loss (~1e-16 relative in float64) below what a
    central difference at eps 1e-5 must resolve for gradients near 1e-7.
    """
    rows = {name: store[name].astype(dtype)
            for name in (pretrain.CONST_EMB, pretrain.PRED_EMB)}
    total = sum(np.logaddexp(0.0, -complex_score(s, p, o, rows))
                for p, s, o in pos)
    total += sum(np.logaddexp(0.0, complex_score(s, p, o, rows))
                 for p, s, o in neg)
    for p, s, o in pos:
        for row in (rows[pretrain.CONST_EMB][s], rows[pretrain.CONST_EMB][o],
                    rows[pretrain.PRED_EMB][p]):
            total += wd * (row @ row)
    return total / len(pos)


class TestComplexScore:
    def test_identity_relation_collapses_to_norm(self):
        store = pretrain.init_store(2, 1, 6, np.random.default_rng(0))
        re_h = np.array([0.5, -1.0, 2.0])
        set_embedding(store, pretrain.CONST_EMB, 0, re_h, [0, 0, 0])
        set_embedding(store, pretrain.PRED_EMB, 0, [1, 1, 1], [0, 0, 0])
        got = complex_score(0, 0, 0, store)
        assert got == pytest.approx(np.sum(re_h ** 2), rel=1e-12)

    def test_k1_imaginary_example(self):
        # e_h = 1+0i, w_r = 0+1i, e_t = 0+1i -> Re((1)(i)(conj(i))) = 1
        store = pretrain.init_store(2, 1, 2, np.random.default_rng(0))
        set_embedding(store, pretrain.CONST_EMB, 0, [1.0], [0.0])
        set_embedding(store, pretrain.CONST_EMB, 1, [0.0], [1.0])
        set_embedding(store, pretrain.PRED_EMB, 0, [0.0], [1.0])
        assert complex_score(0, 0, 1, store) == pytest.approx(1.0)

    def test_real_parts_only_is_trilinear(self):
        rng = np.random.default_rng(1)
        store = pretrain.init_store(2, 1, 8, rng)
        a, b, r = rng.normal(size=(3, 4))
        set_embedding(store, pretrain.CONST_EMB, 0, a, np.zeros(4))
        set_embedding(store, pretrain.CONST_EMB, 1, b, np.zeros(4))
        set_embedding(store, pretrain.PRED_EMB, 0, r, np.zeros(4))
        got = complex_score(0, 0, 1, store)
        assert got == pytest.approx(float(np.sum(a * r * b)), rel=1e-12)

    def test_antisymmetry_capable(self):
        # the k=1 construction above distinguishes direction
        store = pretrain.init_store(2, 1, 2, np.random.default_rng(0))
        set_embedding(store, pretrain.CONST_EMB, 0, [1.0], [0.0])
        set_embedding(store, pretrain.CONST_EMB, 1, [0.0], [1.0])
        set_embedding(store, pretrain.PRED_EMB, 0, [0.0], [1.0])
        fwd = complex_score(0, 0, 1, store)
        bwd = complex_score(1, 0, 0, store)
        assert fwd != bwd

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.3]))
    def test_batch_matches_scalar(self, seed, wd):
        rng = np.random.default_rng(seed)
        store = pretrain.init_store(5, 3, 10, rng)
        pos, neg, src = random_batch(rng, 5, 3, 3, 6)
        got, _, _ = pretrain.batch_loss_grad(store, pos, neg, src, wd)
        assert got == pytest.approx(oracle_loss(store, pos, neg, wd), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.3]))
    # a coordinate whose gradient is 1.0e-8; float64 differences miss by 2e-4
    @example(seed=350, wd=0.0)
    def test_gradient_matches_finite_differences(self, seed, wd):
        rng = np.random.default_rng(seed)
        store = pretrain.init_store(4, 2, 6, rng)
        pos, neg, src = random_batch(rng, 4, 2, 3, 5)
        _, g_const, g_pred = pretrain.batch_loss_grad(store, pos, neg, src, wd)
        grads = {pretrain.CONST_EMB: g_const, pretrain.PRED_EMB: g_pred}
        eps = 1e-5
        worst = 0.0
        for name, grad in grads.items():
            flat = store.params[name].reshape(-1)
            for c in range(flat.size):
                keep = flat[c]
                flat[c] = keep + eps
                up = oracle_loss(store, pos, neg, wd, np.longdouble)
                flat[c] = keep - eps
                dn = oracle_loss(store, pos, neg, wd, np.longdouble)
                flat[c] = keep
                fd = (up - dn) / (2 * eps)
                g = grad.reshape(-1)[c]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
        assert worst < 1e-4

    def test_candidate_scorers_match_scalar(self):
        rng = np.random.default_rng(3)
        store = pretrain.init_store(6, 2, 8, rng)
        scorer = pretrain.ComplExScorer(store)
        tails = scorer.score_tails(1, 2)
        heads = scorer.score_heads(1, 3)
        for c in range(6):
            assert tails[c] == pytest.approx(complex_score(2, 1, c, store),
                                             rel=1e-10, abs=1e-12)
            assert heads[c] == pytest.approx(complex_score(c, 1, 3, store),
                                             rel=1e-10, abs=1e-12)


def assert_close_to_reference(got, want):
    """Loss within 1e-12 relative; each gradient within 1e-12 of its own
    largest entry, since entries summed from several rows cancel."""
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max())


class TestBatchLossGrad:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(0, 4),
           st.integers(2, 6), st.floats(0.0, 1.0),
           st.sampled_from([0.0, 0.3]))
    @example(seed=0, n_pos=1, m=3, n_const=2, drop=0.0, wd=0.3)
    @example(seed=1, n_pos=1, m=2, n_const=3, drop=1.0, wd=0.0)
    @example(seed=2, n_pos=5, m=4, n_const=4, drop=0.5, wd=0.0)
    def test_matches_row_wise_reference(self, seed, n_pos, m, n_const, drop,
                                        wd):
        # positive 1 repeats positive 0 and the last positive loses all its
        # negatives; the first negative is repeated
        rng = np.random.default_rng(seed)
        store = pretrain.init_store(n_const, 2, 8, rng)
        pos = np.stack([rng.integers(0, 2, n_pos),
                        rng.integers(0, n_const, n_pos),
                        rng.integers(0, n_const, n_pos)], axis=1)
        pos[1:2] = pos[0]
        src = np.repeat(np.arange(n_pos), m)
        kept = rng.uniform(size=len(src)) >= drop
        if n_pos > 1:
            kept[src == n_pos - 1] = False
        src = src[kept]
        neg = corrupt(rng, pos, src, n_const)
        neg, src = np.concatenate([neg[:1], neg]), np.concatenate([src[:1], src])
        assert_close_to_reference(
            pretrain.batch_loss_grad(store, pos, neg, src, wd),
            batch_loss_grad_reference(store, pos, neg, wd))

    @pytest.mark.parametrize("src, row, match", [
        ([2], (1, 0, 1), "src"),    # src past the last positive
        ([-1], (1, 0, 1), "src"),   # negative; it would pick the last row
        ([0, 0], (0, 1, 0), "src"),  # src longer than neg
        ([0], (1, 1, 0), "one argument"),  # predicate changed
        ([0], (0, 1, 2), "one argument"),  # both arguments changed
        ([0], (0, 0, 0), "one argument"),  # no argument changed
    ])
    def test_rejects_rows_that_are_not_corruptions(self, src, row, match):
        store = pretrain.init_store(3, 2, 4, np.random.default_rng(0))
        pos = np.array([[0, 0, 0], [1, 2, 1]])
        with pytest.raises(ValueError, match=match):
            pretrain.batch_loss_grad(store, pos, np.array([row]),
                                     np.array(src), 0.0)

    def test_accepts_head_and_tail_corruptions(self):
        store = pretrain.init_store(3, 2, 4, np.random.default_rng(0))
        pos = np.array([[0, 0, 0], [1, 2, 1]])
        neg = np.array([[0, 1, 0], [0, 0, 2], [1, 0, 1], [1, 2, 2]])
        src = np.array([0, 0, 1, 1])
        assert_close_to_reference(
            pretrain.batch_loss_grad(store, pos, neg, src, 0.0),
            batch_loss_grad_reference(store, pos, neg, 0.0))


def assert_same_stream(rows, n_const, known, batch_rng, scalar_rng,
                       sample=pretrain._sample_negative):
    """``_sample_negatives`` on ``rows`` equals ``sample`` called row by row.

    The two generators start in the same state. Negatives, dropped rows and
    the generator state after must all match. Returns ``kept``.
    """
    neg, kept = pretrain._sample_negatives(
        batch_rng, np.array(rows, dtype=np.int64).reshape(-1, 3), n_const,
        known)
    expect = [sample(scalar_rng, t, n_const, known) for t in rows]
    assert kept.tolist() == [e is not None for e in expect]
    assert ([tuple(t) for t in neg[kept].tolist()]
            == [e for e in expect if e is not None])
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    return kept


class TestBatchSampler:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 40),
           st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    # known_frac 1.0 makes every corruption known, so every row is dropped
    @example(n_const=3, n_pred=1, m=5, known_frac=1.0, seed=0)
    # row 6 is dropped between accepted rows
    @example(n_const=3, n_pred=2, m=10, known_frac=0.9, seed=4)
    # rows 4 and 5 are dropped: their 200 tries outrun the first draw's
    # slack, so the walk draws more pairs from the stream
    @example(n_const=3, n_pred=1, m=8, known_frac=0.8, seed=0)
    def test_same_stream_as_scalar_loop(self, n_const, n_pred, m, known_frac,
                                        seed):
        rng = np.random.default_rng(seed)
        every = [(p, s, o) for p in range(n_pred) for s in range(n_const)
                 for o in range(n_const)]
        known = frozenset(t for t in every if rng.uniform() < known_frac)
        rows = [every[i] for i in rng.integers(0, len(every), m)]
        assert_same_stream(rows, n_const, known,
                           np.random.default_rng(seed + 1),
                           np.random.default_rng(seed + 1))

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_short_chunks_match_scalar_loop(self, chunk, seed, monkeypatch):
        # short walk chunks make the chunk boundaries many: a row's tries
        # must start again from one after any row is accepted, also when a
        # whole chunk is accepted at once
        monkeypatch.setattr(pretrain, "_WALK_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        every = [(p, s, o) for p in range(2) for s in range(3)
                 for o in range(3)]
        known = frozenset(t for t in every if rng.uniform() < 0.8)
        rows = [every[i] for i in rng.integers(0, len(every), 60)]
        assert_same_stream(rows, 3, known, np.random.default_rng(seed + 1),
                           np.random.default_rng(seed + 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_whole_chunk_accepted_resets_tries(self, seed):
        # row 0 is rejected nine times in ten, then accepted; the next
        # _WALK_CHUNK - 1 rows are almost never rejected, so the chunk from
        # row 0 is accepted whole; the row after it has every corruption
        # known and must take all MAX_TRIES tries, whatever row 0 took
        n = 1000
        chunk = pretrain._WALK_CHUNK
        known = ({(2, c, 1) for c in range(n - n // 10)}
                 | {(2, 0, c) for c in range(n - n // 10)}
                 | {(0, c, 1) for c in range(n)}
                 | {(0, 0, c) for c in range(n)})
        rows = ([(2, 0, 1)] + [(1, 2 + i, 3 + i) for i in range(chunk - 1)]
                + [(0, 0, 1)] + [(1, 3, 4)] * 5)
        kept = assert_same_stream(rows, n, frozenset(known),
                                  np.random.default_rng(seed),
                                  np.random.default_rng(seed))
        assert not kept[chunk] and kept.sum() == len(rows) - 1

    @pytest.mark.parametrize("seed", range(5))
    def test_family_large_batch_matches_scalar_loop(self, seed, tmp_path):
        # a pretraining batch at RunConfig defaults: every training triple,
        # ten corruptions each, against the training triples; three batches
        # in a row carry the generator state from one to the next
        splits = datasets.load_dataset("family-large", str(tmp_path), 7)
        assert (len(splits.train), splits.vocab.n_constants) == (129, 95)
        rows = [f.as_triple() for f in splits.train for _ in range(10)]
        known = frozenset(f.as_triple() for f in splits.train)
        batch_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        for _ in range(3):
            assert_same_stream(rows, 95, known, batch_rng, scalar_rng)

    def test_batch_sampler_never_calls_scalar_sampler(self, monkeypatch):
        # (0, 0, 0) has every corruption known, so it is dropped after
        # MAX_TRIES rejections; the other rows have one unknown corruption
        # each and are accepted after rejections of their own
        known = frozenset((0, s, o) for s in range(3) for o in range(3)) \
            - {(0, 2, 2)}
        rows = [(0, 2, 1), (0, 0, 0), (0, 1, 2)] * 4
        scalar = pretrain._sample_negative

        def refuse(*args):
            raise AssertionError("the batch sampler called the scalar one")

        monkeypatch.setattr(pretrain, "_sample_negative", refuse)
        kept = assert_same_stream(rows, 3, known, np.random.default_rng(11),
                                  np.random.default_rng(11), sample=scalar)
        assert kept.tolist() == [True, False, True] * 4

    def test_dropped_row_spends_max_tries_draws(self):
        # every corruption over two constants is known: the row takes
        # MAX_TRIES (constant, side) pairs from the stream, then gives up
        known = frozenset((0, s, o) for s in range(2) for o in range(2))
        rng = np.random.default_rng(5)
        _, kept = pretrain._sample_negatives(
            rng, np.array([[0, 0, 1]]), 2, known)
        after = np.random.default_rng(5)
        after.integers(0, 2, 2 * pretrain.MAX_TRIES)
        assert pretrain.MAX_TRIES == 100 and kept.tolist() == [False]
        assert rng.bit_generator.state == after.bit_generator.state


def small_cfg(**kw):
    base = dict(pretrain_epochs=30, pretrain_lr=0.05, pretrain_batch=16,
                pretrain_negatives=4, embedding_dim=8)
    base.update(kw)
    return RunConfig(**base).validate()


class TestPretraining:
    def test_zero_lr_leaves_embeddings_unchanged(self):
        facts, vocab, _ = kb.parse_triples("a\tr\tb\nb\tr\tc")
        cfg = small_cfg(pretrain_epochs=1, pretrain_lr=1e-300)
        rng = np.random.default_rng(0)
        store, _ = pretrain.pretrain_embeddings(facts, vocab, cfg, rng)
        rng2 = np.random.default_rng(0)
        fresh = pretrain.init_store(vocab.n_constants, vocab.n_predicates,
                                    cfg.embedding_dim, rng2)
        np.testing.assert_allclose(store[pretrain.CONST_EMB],
                                   fresh[pretrain.CONST_EMB], atol=1e-250)

    def test_overfit_single_fact_direction(self):
        facts, vocab, _ = kb.parse_triples("a\tr\tb")
        cfg = small_cfg(pretrain_epochs=200, pretrain_negatives=2)
        store, losses = pretrain.pretrain_embeddings(
            facts, vocab, cfg, np.random.default_rng(7))
        fwd = complex_score(vocab.intern_constant("a"), 0,
                            vocab.intern_constant("b"), store)
        bwd = complex_score(vocab.intern_constant("b"), 0,
                            vocab.intern_constant("a"), store)
        assert fwd > bwd
        assert losses[-1] < losses[0]

    def test_loss_decreases_on_average(self):
        lines = [f"a{i}\tr{i % 2}\tb{(i * 3) % 7}" for i in range(40)]
        facts, vocab, _ = kb.parse_triples("\n".join(lines))
        cfg = small_cfg(pretrain_epochs=20)
        _, losses = pretrain.pretrain_embeddings(
            facts, vocab, cfg, np.random.default_rng(1))
        first = np.mean(losses[:5])
        last = np.mean(losses[-5:])
        assert last < first

    def test_determinism(self):
        lines = [f"a{i}\tr\tb{i % 3}" for i in range(12)]
        facts, vocab, _ = kb.parse_triples("\n".join(lines))
        cfg = small_cfg(pretrain_epochs=5)
        s1, l1 = pretrain.pretrain_embeddings(facts, vocab, cfg,
                                              np.random.default_rng(9))
        s2, l2 = pretrain.pretrain_embeddings(facts, vocab, cfg,
                                              np.random.default_rng(9))
        assert l1 == l2
        np.testing.assert_array_equal(s1[pretrain.CONST_EMB], s2[pretrain.CONST_EMB])

    def test_quick_mrr_perfect_on_separable_toy(self):
        # strongly regular structure: relation maps c_i -> c_{i+1}
        lines = [f"c{i}\tnext\tc{i + 1}" for i in range(8)]
        facts, vocab, _ = kb.parse_triples("\n".join(lines))
        cfg = small_cfg(pretrain_epochs=300, embedding_dim=12)
        store, _ = pretrain.pretrain_embeddings(facts, vocab, cfg,
                                                np.random.default_rng(2))
        filt = frozenset(f.as_triple() for f in facts)
        records = evaluate_ranking(facts, pretrain.ComplExScorer(store), filt)
        assert compute_mrr_hits(records)["mrr"] > 0.6

    def test_matches_row_by_row_reference(self):
        # r holds every triple over a, b, c except c r c, so most draws are
        # rejected, and every corruption of the four r facts without c is
        # known, so their rows are dropped; 12 facts in batches of 5 leave a
        # short last batch
        lines = [f"{s}\tr\t{o}" for s in "abc" for o in "abc"
                 if (s, o) != ("c", "c")]
        lines += [f"{s}\tq\t{o}" for s, o in ("ab", "bc", "ca", "ba")]
        facts, vocab, _ = kb.parse_triples("\n".join(lines))
        assert (len(facts), vocab.n_constants) == (12, 3)
        cfg = small_cfg(pretrain_epochs=4, pretrain_batch=5,
                        pretrain_negatives=3)
        rng = np.random.default_rng(6)
        ref_rng = np.random.default_rng(6)
        store, losses = pretrain.pretrain_embeddings(facts, vocab, cfg, rng)
        ref_store, ref_losses = pretrain_reference(facts, vocab, cfg, ref_rng)
        assert losses == ref_losses
        for name in (pretrain.CONST_EMB, pretrain.PRED_EMB):
            np.testing.assert_array_equal(store[name], ref_store[name])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_whole_run_matches_row_wise_gradients(self):
        # the KB of the test above; the reference loop scores each triple
        # from its own gathered rows with batch_loss_grad_reference
        lines = [f"{s}\tr\t{o}" for s in "abc" for o in "abc"
                 if (s, o) != ("c", "c")]
        lines += [f"{s}\tq\t{o}" for s, o in ("ab", "bc", "ca", "ba")]
        facts, vocab, _ = kb.parse_triples("\n".join(lines))
        cfg = small_cfg(pretrain_epochs=4, pretrain_batch=5,
                        pretrain_negatives=3)
        rng = np.random.default_rng(6)
        ref_rng = np.random.default_rng(6)
        store, losses = pretrain.pretrain_embeddings(facts, vocab, cfg, rng)
        ref_store, ref_losses = pretrain_reference(facts, vocab, cfg, ref_rng,
                                                   row_wise=True)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12)
        for name in (pretrain.CONST_EMB, pretrain.PRED_EMB):
            np.testing.assert_allclose(store[name], ref_store[name],
                                       rtol=0, atol=1e-10)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_pretraining_drops_exhausted_draws(self):
        # every corruption of every fact is known, so no negative survives
        facts, vocab, _ = kb.parse_triples("a\tr\tb\nb\tr\ta\na\tr\ta\n"
                                           "b\tr\tb")
        cfg = small_cfg(pretrain_epochs=3, pretrain_lr=0.1)
        store, losses = pretrain.pretrain_embeddings(
            facts, vocab, cfg, np.random.default_rng(4))
        # positives only: every score is pushed up, none down
        assert all(np.isfinite(losses)) and losses[-1] < losses[0]
        for f in facts:
            assert complex_score(f.args[0], f.pred, f.args[1], store) > 0.0

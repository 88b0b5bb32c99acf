"""Complex bilinear scorer and embedding pretraining."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selprover import kb, pretrain
from selprover.config import RunConfig

from oracles import complex_score


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


def random_batch(rng, n_const, n_pred, n_pos, n_neg):
    """(pred, subj, obj) rows; the first row of each part appears twice."""
    def rows(n):
        r = np.stack([rng.integers(0, n_pred, n), rng.integers(0, n_const, n),
                      rng.integers(0, n_const, n)], axis=1)
        return np.concatenate([r[:1], r])
    return rows(n_pos), rows(n_neg)


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
        pos, neg = random_batch(rng, 5, 3, 3, 6)
        got, _, _ = pretrain.batch_loss_grad(store, pos, neg, wd)
        assert got == pytest.approx(oracle_loss(store, pos, neg, wd), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.3]))
    @example(seed=14526, wd=0.0)  # a coordinate whose gradient is 8.3e-8
    def test_gradient_matches_finite_differences(self, seed, wd):
        rng = np.random.default_rng(seed)
        store = pretrain.init_store(4, 2, 6, rng)
        pos, neg = random_batch(rng, 4, 2, 3, 5)
        _, g_const, g_pred = pretrain.batch_loss_grad(store, pos, neg, wd)
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
        tails = pretrain.score_tail_candidates(store, 2, 1)
        heads = pretrain.score_head_candidates(store, 1, 3)
        for c in range(6):
            assert tails[c] == pytest.approx(complex_score(2, 1, c, store),
                                             rel=1e-10, abs=1e-12)
            assert heads[c] == pytest.approx(complex_score(c, 1, 3, store),
                                             rel=1e-10, abs=1e-12)


class TestBatchSampler:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 40),
           st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    @example(n_const=3, n_pred=1, m=5, known_frac=1.0, seed=0)
    def test_same_stream_as_scalar_loop(self, n_const, n_pred, m, known_frac,
                                        seed):
        # known_frac 1.0 makes every corruption known, so every row is dropped
        rng = np.random.default_rng(seed)
        every = [(p, s, o) for p in range(n_pred) for s in range(n_const)
                 for o in range(n_const)]
        known = frozenset(t for t in every if rng.uniform() < known_frac)
        rows = [every[i] for i in rng.integers(0, len(every), m)]
        batch_rng = np.random.default_rng(seed + 1)
        scalar_rng = np.random.default_rng(seed + 1)
        neg, kept = pretrain._sample_negatives(
            batch_rng, np.array(rows, dtype=np.int64).reshape(-1, 3),
            n_const, known)
        expect = [pretrain._sample_negative(scalar_rng, t, n_const, known)
                  for t in rows]
        assert kept.tolist() == [e is not None for e in expect]
        assert ([tuple(t) for t in neg[kept].tolist()]
                == [e for e in expect if e is not None])
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


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
        fwd = complex_score(vocab.constant_id("a"), 0,
                            vocab.constant_id("b"), store)
        bwd = complex_score(vocab.constant_id("b"), 0,
                            vocab.constant_id("a"), store)
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
        mrr = pretrain.quick_filtered_mrr(store, facts, filt, vocab.n_constants)
        assert mrr > 0.6

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

import numpy as np
import pytest

from selprover import autodiff as ad
from selprover.autodiff import ParameterStore, Tape, adam_step, finite_difference_check
from selprover.generator import (RelationStorage, StorageEntry,
                                 generate_predicates, gru_step, init_generator,
                                 init_hidden, is_generator_param,
                                 item_embeddings, nearest_real_predicate,
                                 nns_complete, parse_storage_lines,
                                 train_generator_step,
                                 update_relation_storage)
from selprover.kb import Atom, KnowledgeBase, Rule, Vocabulary, mkvar
from selprover.pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from selprover.prover import HighQualityBuffer

from oracles import nns_oracle

X, Y = mkvar(0), mkvar(1)


def gen_store(n_preds, dim, seed=0, n_consts=3):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add(PRED_EMB, rng.normal(0.0, 0.5, size=(n_preds, dim)))
    store.add(CONST_EMB, rng.normal(0.0, 0.5, size=(n_consts, dim)))
    init_generator(store, n_preds, dim, rng)
    return store


def fact_kb(n_preds, n_consts, facts, rules=()):
    vocab = Vocabulary()
    for p in range(n_preds):
        vocab.intern_predicate(f"p{p}")
    for c in range(n_consts):
        vocab.intern_constant(f"c{c}")
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    return KnowledgeBase(vocab, atoms, list(rules))


# --- recurrent core --------------------------------------------------------


def test_initial_hidden_is_goal_embedding():
    store = gen_store(4, 6, seed=1)
    tape = Tape(store)
    h0 = init_hidden(tape, 2)
    assert h0.shape == (1, 6)
    # identity-initialized map with zero offset passes the row through
    np.testing.assert_allclose(h0.data[0], store[PRED_EMB][2], atol=0)


def test_step_distribution_contract():
    store = gen_store(5, 4, seed=2)
    tape = Tape(store)
    h, dist = gru_step(tape, init_hidden(tape, 0), 0, 3)
    assert h.shape == (1, 4)
    assert dist.shape == (1, 5)
    assert np.all(dist.data > 0)
    assert abs(dist.data.sum() - 1.0) < 1e-9


def test_saturated_update_gate_keeps_state():
    store = gen_store(4, 4, seed=3)
    store["gen.gru.bz"][:] = -60.0
    tape = Tape(store)
    h0 = init_hidden(tape, 1)
    h1, _ = gru_step(tape, h0, 1, 2)
    np.testing.assert_allclose(h1.data, h0.data, atol=1e-12)


def test_gru_step_finite_differences():
    store = gen_store(4, 4, seed=4)
    onehot = np.zeros((1, 4))
    onehot[0, 2] = 1.0

    def loss(st, tape):
        h, dist = gru_step(tape, init_hidden(tape, 0), 0, 1)
        return ad.mul(ad.log(ad.vsum(ad.mul(dist, onehot))), -1.0)

    err = finite_difference_check(loss, store, rng=np.random.default_rng(5))
    assert err < 1e-4


# --- beam generation -------------------------------------------------------


def test_width_covering_vocab_emits_everything():
    store = gen_store(4, 4, seed=6)
    out = generate_predicates(1, store, width=4, depth=2)
    assert set(out) == {0, 1, 2, 3}
    assert out[1] == 1.0  # the goal itself


def test_minimal_beam_is_goal_plus_argmax():
    store = gen_store(6, 4, seed=7)
    tape = Tape(store)
    _, dist = gru_step(tape, init_hidden(tape, 2), 2, 2)
    best = int(np.argmax(dist.data[0]))
    out = generate_predicates(2, store, width=1, depth=1)
    assert set(out) == {2, best}
    if best != 2:
        assert out[best] == pytest.approx(float(dist.data[0, best]), abs=0)


def test_emitted_set_size_bound():
    for seed in range(8):
        store = gen_store(12, 4, seed=seed)
        out = generate_predicates(0, store, width=3, depth=2)
        assert len(out) <= 1 + 3 + 9
        assert all(0.0 < s <= 1.0 for s in out.values())


def test_generation_is_deterministic():
    store = gen_store(9, 6, seed=8)
    a = generate_predicates(4, store, width=3, depth=2)
    b = generate_predicates(4, store, width=3, depth=2)
    assert list(a.items()) == list(b.items())


def test_generation_rejects_zero_width():
    store = gen_store(8, 4, seed=9)
    with pytest.raises(ValueError, match="width"):
        generate_predicates(0, store, width=0, depth=1)


# --- relation storage ------------------------------------------------------


def test_storage_capacity_evicts_lowest_score():
    st = RelationStorage((2,))
    st.add(1, StorageEntry(0, 0.5, 9, "unify"))
    st.add(1, StorageEntry(1, 0.9, 9, "unify"))
    st.add(1, StorageEntry(2, 0.7, 9, "unify"))
    assert [e.pred for e in st.layers[0]] == [1, 2]
    assert st.total() == 2


def test_storage_eviction_tie_drops_earliest():
    st = RelationStorage((2,))
    for pred in (0, 1, 2):
        st.add(1, StorageEntry(pred, 0.5, 3, "unify"))
    assert [e.pred for e in st.layers[0]] == [1, 2]


def test_storage_allows_duplicates():
    st = RelationStorage((4, 4))
    st.add(2, StorageEntry(1, 0.8, 0, "unify"))
    st.add(2, StorageEntry(1, 0.8, 0, "unify"))
    assert len(st.entries_for_goal(2, 0)) == 2


def test_storage_rejects_bad_levels_and_caps():
    with pytest.raises(ValueError, match="positive"):
        RelationStorage((4, 0))
    st = RelationStorage((2, 2))
    with pytest.raises(ValueError, match="level"):
        st.add(0, StorageEntry(0, 1.0, 0, "unify"))
    with pytest.raises(ValueError, match="level"):
        st.add(3, StorageEntry(0, 1.0, 0, "unify"))


def test_storage_dump_load_round_trip():
    kb = fact_kb(5, 2, [(0, 0, 1)])
    st = RelationStorage((4, 8, 16))
    st.add(1, StorageEntry(3, 0.75, 0, "unify"))
    st.add(2, StorageEntry(1, 0.5, 0, "nns"))
    st.add(3, StorageEntry(4, 0.25, 2, "unify"))
    text = st.dump(kb.vocab)
    back = RelationStorage.load(text, kb.vocab, (4, 8, 16))
    for orig, loaded in zip(st.layers, back.layers):
        assert [(e.pred, e.goal_rel, e.provenance) for e in orig] == \
               [(e.pred, e.goal_rel, e.provenance) for e in loaded]
        for a, b in zip(orig, loaded):
            assert b.score == pytest.approx(a.score, abs=1e-9)


def test_storage_text_is_editable():
    kb = fact_kb(4, 2, [(0, 0, 1)])
    st = RelationStorage((4,))
    st.add(1, StorageEntry(1, 0.9, 0, "unify"))
    text = st.dump(kb.vocab)
    assert "p1" in text
    edited = "# steering note\n\n" + text.replace("\tp1\t", "\tp3\t")
    back = RelationStorage.load(edited, kb.vocab, (4,))
    assert [e.pred for e in back.layers[0]] == [3]
    with pytest.raises(ValueError, match="fields"):
        RelationStorage.load("1\tp1\t0.5\n", kb.vocab, (4,))


def test_storage_parser_keeps_raw_fields():
    text = "# note\n\n2\t#0\t0.5\tchildOf\tnns\n"
    assert parse_storage_lines(text) == [["2", "#0", "0.5", "childOf", "nns"]]
    with pytest.raises(ValueError, match="line 2"):
        parse_storage_lines("# note\n1\tp1\t0.5\n")


def test_update_from_buffer_places_by_level():
    rule = Rule(head=Atom(3, (X, Y)), body=(Atom(0, (X, Y)),))
    kb = fact_kb(4, 3, [(0, 0, 1), (1, 1, 2)], [rule])
    hq = HighQualityBuffer()
    hq.add(0, 0.9, 1, goal_rel=2)                  # fact p0(c0,c1)
    hq.add(1, 0.6, 2, goal_rel=2)                  # fact p1(c1,c2)
    hq.add(kb.n_facts, 0.8, 3, goal_rel=1, origin="nns")  # the rule
    st = RelationStorage((4, 8, 16))
    update_relation_storage(st, hq, kb)
    assert [(e.pred, e.goal_rel, e.provenance) for e in st.layers[0]] == \
           [(0, 2, "unify")]
    assert [(e.pred, e.goal_rel) for e in st.layers[1]] == [(1, 2)]
    assert [(e.pred, e.score, e.provenance) for e in st.layers[2]] == \
           [(3, 0.8, "nns")]


def test_update_respects_capacity():
    kb = fact_kb(8, 8, [(p, p, p) for p in range(8)])
    hq = HighQualityBuffer()
    for i in range(6):
        hq.add(i, 0.1 * (i + 1), 1, goal_rel=0)
    st = RelationStorage((4, 8))
    update_relation_storage(st, hq, kb)
    assert len(st.layers[0]) == 4
    # the four best scores survive
    assert sorted(e.pred for e in st.layers[0]) == [2, 3, 4, 5]


# --- nearest-neighbor completion ------------------------------------------


def test_nns_adds_closest_first_and_inherits():
    # constants far apart so fact embeddings separate cleanly
    kb = fact_kb(2, 4, [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 3, 3)])
    store = ParameterStore()
    store.add(PRED_EMB, np.array([[0.0, 0.0], [9.0, 9.0]]))
    store.add(CONST_EMB, np.array([[0.0, 0.0], [0.3, 0.0],
                                   [3.0, 0.0], [9.0, 9.0]]))
    hq = HighQualityBuffer()
    hq.add(0, 0.9, 2, goal_rel=1)
    added = nns_complete(hq, kb, store, max_size=2)
    assert added == [1]  # fact over c1 sits nearest the anchor
    got = hq.items[1]
    assert (got.score, got.level, got.goal_rel) == (0.9, 2, 1)
    assert got.origin == "nns"
    assert hq.items[0].origin == "unify"


def test_nns_noop_cases():
    kb = fact_kb(2, 2, [(0, 0, 0), (1, 1, 1)])
    store = gen_store(2, 2, seed=12, n_consts=2)
    hq = HighQualityBuffer()
    assert nns_complete(hq, kb, store, max_size=4) == []   # nothing to anchor
    hq.add(0, 1.0, 1, goal_rel=0)
    assert nns_complete(hq, kb, store, max_size=1) == []   # already at target
    hq.add(1, 1.0, 1, goal_rel=0)
    assert nns_complete(hq, kb, store, max_size=9) == []   # nothing left
    assert len(hq) == 2


def test_nns_matches_sorting_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n_preds = int(rng.integers(2, 5))
        n_consts = int(rng.integers(3, 7))
        # distinct triples must exist for every requested item
        n_items = min(int(rng.integers(5, 21)), n_preds * n_consts * n_consts)
        facts = []
        seen = set()
        while len(facts) < n_items:
            f = (int(rng.integers(n_preds)), int(rng.integers(n_consts)),
                 int(rng.integers(n_consts)))
            if f not in seen:
                seen.add(f)
                facts.append(f)
        kb = fact_kb(n_preds, n_consts, facts)
        store = gen_store(n_preds, 4, seed=int(rng.integers(1 << 30)),
                          n_consts=n_consts)
        hq = HighQualityBuffer()
        n_anchor = int(rng.integers(1, 4))
        anchor_ids = rng.choice(n_items, size=n_anchor, replace=False)
        for a in anchor_ids:
            hq.add(int(a), float(rng.uniform(0.2, 1.0)),
                   int(rng.integers(1, 4)), goal_rel=int(rng.integers(n_preds)))
        grow = int(rng.integers(0, n_items))
        emb = item_embeddings(kb, store)
        anchors = emb[[int(a) for a in anchor_ids]]
        cand_ids = [i for i in range(n_items) if i not in hq]
        nearest = nns_oracle(anchors, emb[cand_ids])
        dist = [float(np.sqrt(np.sum((emb[c] - anchors[j]) ** 2)))
                for c, j in zip(cand_ids, nearest)]
        order = sorted(range(len(cand_ids)), key=lambda i: (dist[i], cand_ids[i]))
        want = [cand_ids[i] for i in order[:grow]]
        before = {i: hq.items[i] for i in hq.items}
        added = nns_complete(hq, kb, store, max_size=len(before) + grow)
        assert added == want
        for i, j in zip(order[:grow], range(grow)):
            src = before[int(anchor_ids[nearest[i]])]
            got = hq.items[added[j]]
            assert got.score == src.score
            assert got.level == src.level
            assert got.goal_rel == src.goal_rel
            assert got.origin == "nns"


def test_rule_embedding_averages_symbols():
    rule = Rule(head=Atom(1, (X, Y)), body=(Atom(0, (X, 0)),))
    kb = fact_kb(2, 2, [(0, 0, 1)], [rule])
    store = ParameterStore()
    store.add(PRED_EMB, np.array([[1.0, 0.0], [0.0, 2.0]]))
    store.add(CONST_EMB, np.array([[6.0, 6.0], [0.0, 0.0]]))
    emb = item_embeddings(kb, store)
    # fact p0(c0, c1): mean of pred 0, const 0, const 1
    np.testing.assert_allclose(emb[0], np.array([7.0, 6.0]) / 3.0, atol=1e-12)
    # rule p1(X,Y) :- p0(X,c0): mean of preds 1, 0 and const 0 (vars skipped)
    np.testing.assert_allclose(emb[1], np.array([7.0, 8.0]) / 3.0, atol=1e-12)


# --- generator training ----------------------------------------------------


def seeded_storage(goal, picks, caps=(4, 8, 16)):
    st = RelationStorage(caps)
    for level, pred in enumerate(picks, start=1):
        st.add(level, StorageEntry(pred, 0.9, goal, "unify"))
    return st


def test_zero_output_head_gives_uniform_loss():
    store = gen_store(7, 4, seed=14)
    store["gen.out.W"][:] = 0.0
    store["gen.out.b"][:] = 0.0
    st = seeded_storage(0, [1, 2, 3])
    tape, loss = train_generator_step(st, [0], store,
                                      np.random.default_rng(0), samples=2)
    assert loss.item() == pytest.approx(np.log(7.0), abs=1e-12)
    assert tape is not None


def test_training_matches_manual_teacher_forcing():
    store = gen_store(6, 4, seed=15)
    targets = [3, 1, 5]
    st = seeded_storage(2, targets)
    _, loss = train_generator_step(st, [2], store,
                                   np.random.default_rng(1), samples=1)
    tape = Tape(store)
    h = init_hidden(tape, 2)
    prev, cur = 2, 2
    steps = []
    for t in targets:
        h, dist = gru_step(tape, h, prev, cur)
        steps.append(-np.log(dist.data[0, t]))
        prev, cur = cur, t
    assert loss.item() == pytest.approx(np.mean(steps), abs=1e-12)


def test_training_stops_at_first_empty_layer():
    store = gen_store(6, 4, seed=16)
    st = seeded_storage(2, [3])
    st.add(3, StorageEntry(5, 0.9, 2, "unify"))  # layer 2 stays empty
    _, loss = train_generator_step(st, [2], store,
                                   np.random.default_rng(2), samples=1)
    tape = Tape(store)
    _, dist = gru_step(tape, init_hidden(tape, 2), 2, 2)
    assert loss.item() == pytest.approx(-np.log(dist.data[0, 3]), abs=1e-12)


def test_training_skips_goals_without_entries():
    store = gen_store(5, 4, seed=17)
    st = seeded_storage(1, [2, 3])
    tape, loss = train_generator_step(st, [0, 4], store,
                                      np.random.default_rng(3))
    assert tape is None and loss is None
    tape, loss = train_generator_step(RelationStorage((2, 2)), [1], store,
                                      np.random.default_rng(3))
    assert tape is None and loss is None


def test_slot_targets_train_toward_nearest_real():
    store = gen_store(4, 4, seed=18)
    slots = store[PRED_EMB][[2, 0]] + 1e-6
    store.add(SLOT_EMB, slots)
    mapping = nearest_real_predicate(store, 4)
    np.testing.assert_array_equal(mapping, [0, 1, 2, 3, 2, 0])
    slot_st = seeded_storage(1, [4, 5])   # slot ids 4 -> 2, 5 -> 0
    real_st = seeded_storage(1, [2, 0])
    _, a = train_generator_step(slot_st, [1], store,
                                np.random.default_rng(4), samples=1)
    _, b = train_generator_step(real_st, [1], store,
                                np.random.default_rng(4), samples=1)
    assert a.item() == b.item()


def test_train_step_finite_differences():
    store = gen_store(5, 4, seed=19)
    st = seeded_storage(0, [2, 4, 1])
    st.add(1, StorageEntry(3, 0.4, 0, "unify"))

    def evaluate():
        # fresh rng per call so every rebuild samples the same sequences
        _, loss = train_generator_step(st, [0], store,
                                       np.random.default_rng(21), samples=3)
        return loss.item()

    tape, loss = train_generator_step(st, [0], store,
                                      np.random.default_rng(21), samples=3)
    tape.backward(loss)
    assert loss.item() == evaluate()
    rng = np.random.default_rng(22)
    eps = 1e-5
    worst = 0.0
    for name, leaf in tape.leaves.items():
        flat = store.params[name].reshape(-1)
        grad = leaf.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            up = evaluate()
            flat[c] = keep - eps
            dn = evaluate()
            flat[c] = keep
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(grad[c]), 1e-8)
            worst = max(worst, abs(fd - grad[c]) / denom)
    assert worst < 1e-4


def test_optimizer_loop_reduces_loss_and_moves_only_generator():
    store = gen_store(6, 4, seed=20)
    st = seeded_storage(0, [1, 2, 3])
    st.add(1, StorageEntry(4, 0.8, 5, "unify"))
    st.add(2, StorageEntry(2, 0.8, 5, "unify"))
    emb_before = store[PRED_EMB].copy()
    rng = np.random.default_rng(23)
    losses = []
    for _ in range(50):
        tape, loss = train_generator_step(st, [0, 5], store, rng)
        tape.backward(loss)
        adam_step(store, tape.gradients(), lr=0.01,
                  param_filter=is_generator_param)
        losses.append(loss.item())
    assert losses[-1] < losses[0] * 0.8
    np.testing.assert_array_equal(store[PRED_EMB], emb_before)


def test_overfit_storage_recovers_sequence_in_beam():
    store = gen_store(5, 4, seed=24)
    targets = [1, 2, 3]
    st = seeded_storage(0, targets)
    rng = np.random.default_rng(25)
    for _ in range(300):
        tape, loss = train_generator_step(st, [0], store, rng, samples=1)
        tape.backward(loss)
        adam_step(store, tape.gradients(), lr=0.05,
                  param_filter=is_generator_param)
    out = generate_predicates(0, store, width=1, depth=3)
    assert set(out) == {0, 1, 2, 3}


def test_generator_param_filter_and_reinit():
    store = gen_store(3, 2, seed=26)
    assert is_generator_param("gen.gru.Wz")
    assert not is_generator_param(PRED_EMB)
    with pytest.raises(ValueError, match="exists"):
        init_generator(store, 3, 2, np.random.default_rng(0))

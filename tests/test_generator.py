import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover.autodiff import ParameterStore, adam_step
from selprover.generator import (RelationStorage, StorageEntry,
                                 generate_predicates, gru_step, init_generator,
                                 init_hidden, item_embeddings,
                                 nearest_real_predicate, nns_complete,
                                 parse_storage_lines, train_generator_step,
                                 update_relation_storage)
from selprover.kb import (SHAPE_CHAIN, SHAPE_IMPLIES, Atom, KnowledgeBase,
                          Rule, Vocabulary)
from selprover.pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from selprover.prover import HighQualityBuffer

from oracles import nns_oracle, tape_generate_predicates, tape_generator_step


# the order train_generator_step returns gradients in, which is the order
# clip_gradients sums the norm in
GEN_ORDER = ["gen.f.W", "gen.f.b", "gen.g.W", "gen.g.b",
             "gen.gru.Wz", "gen.gru.Uz", "gen.gru.bz",
             "gen.gru.Wr", "gen.gru.Ur", "gen.gru.br",
             "gen.gru.Wh", "gen.gru.Uh", "gen.gru.bh",
             "gen.out.W", "gen.out.b"]


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
    h0 = init_hidden(store, [2])
    assert h0.shape == (1, 6)
    # identity-initialized map with zero offset passes the row through
    np.testing.assert_allclose(h0[0], store[PRED_EMB][2], atol=0)


def test_step_distribution_contract():
    store = gen_store(5, 4, seed=2)
    h, dist = gru_step(store, init_hidden(store, [0]), [0], [3])
    assert h.shape == (1, 4)
    assert dist.shape == (1, 5)
    assert np.all(dist > 0)
    assert abs(dist.sum() - 1.0) < 1e-9


def test_saturated_update_gate_keeps_state():
    store = gen_store(4, 4, seed=3)
    store["gen.gru.bz"][:] = -60.0
    h0 = init_hidden(store, [1])
    h1, _ = gru_step(store, h0, [1], [2])
    np.testing.assert_allclose(h1, h0, atol=1e-12)


def fd_worst(store, evaluate, grads, rng, picks, eps=1e-5):
    """Largest relative gap between ``grads`` and central differences of
    ``evaluate()`` over ``picks`` sampled coordinates per parameter."""
    worst = 0.0
    for name, grad in grads.items():
        flat = store.params[name].reshape(-1)
        g = grad.reshape(-1)
        for c in rng.choice(flat.size, size=min(picks, flat.size),
                            replace=False):
            keep = flat[c]
            flat[c] = keep + eps
            up = evaluate()
            flat[c] = keep - eps
            dn = evaluate()
            flat[c] = keep
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(fd - g[c]) / max(abs(fd), abs(g[c]), 1e-8))
    return worst


def test_gru_step_finite_differences():
    # one teacher-forced step toward predicate 2: -log of its probability
    store = gen_store(4, 4, seed=4)
    st = seeded_storage(0, [2])

    def evaluate():
        return train_generator_step(st, [0], store, np.random.default_rng(0),
                                    samples=1)

    grads, loss = evaluate()
    _, dist = gru_step(store, init_hidden(store, [0]), [0], [0])
    assert loss == pytest.approx(-np.log(dist[0, 2]), abs=1e-12)
    assert list(grads) == GEN_ORDER
    err = fd_worst(store, lambda: evaluate()[1], grads,
                   np.random.default_rng(5), picks=3)
    assert err < 1e-4


# --- beam generation -------------------------------------------------------


def test_width_covering_vocab_emits_everything():
    store = gen_store(4, 4, seed=6)
    out = generate_predicates(1, store, width=4, depth=2)
    assert set(out) == {0, 1, 2, 3}
    assert out[1] == 1.0  # the goal itself


def test_minimal_beam_is_goal_plus_argmax():
    store = gen_store(6, 4, seed=7)
    _, dist = gru_step(store, init_hidden(store, [2]), [2], [2])
    best = int(np.argmax(dist[0]))
    out = generate_predicates(2, store, width=1, depth=1)
    assert set(out) == {2, best}
    if best != 2:
        assert out[best] == pytest.approx(float(dist[0, best]), abs=0)


def test_equal_probabilities_pick_lowest_ids():
    store = gen_store(7, 4, seed=10)
    store["gen.out.W"][:] = 0.0
    store["gen.out.b"][:] = 0.0
    out = generate_predicates(2, store, width=3, depth=2)
    # every step is uniform: each beam emits predicates 0, 1 and 2, and the
    # goal keeps its score of 1
    assert list(out.items()) == [(2, 1.0), (0, 1.0 / 7.0), (1, 1.0 / 7.0)]


def routing_store(successors: dict[int, tuple[int, int]], n: int = 24):
    """A generator whose next-step distribution depends on the current
    predicate alone: 1/2 on each of its two successors, exactly 0 elsewhere.

    The update gate is saturated open, so the hidden state is
    tanh(3 e_cur); the output layer routes that one-hot row to logits of
    +-1000 tanh(3).
    """
    store = ParameterStore()
    store.add(PRED_EMB, 3.0 * np.eye(n))
    init_generator(store, n, n, np.random.default_rng(0))
    for name in store.names():
        if name.startswith("gen.") and name != "gen.f.W":
            store[name][:] = 0.0
    store["gen.g.W"][n:] = np.eye(n)
    store["gen.gru.bz"][:] = 60.0
    store["gen.gru.Wh"][:] = np.eye(n)
    store["gen.out.W"][:] = -1000.0
    for cur, nxt in successors.items():
        store["gen.out.W"][cur, list(nxt)] = 1000.0
    return store


def test_equal_cumulative_probabilities_order_by_predicate():
    store = routing_store({0: (1, 2), 1: (5, 6), 2: (3, 4), 3: (7, 8),
                           4: (9, 10), 5: (7, 11), 6: (12, 13),
                           7: (14, 15), 8: (16, 17), 9: (18, 19),
                           10: (20, 21), 11: (22, 23), 12: (20, 22),
                           13: (21, 23)})
    out = generate_predicates(0, store, width=2, depth=4)
    # step 2 grows beams 1->5, 1->6, 2->3, 2->4 at 1/4 each; sorted by
    # predicate, step 3 walks 3, 4, 5, 6 in that order and inserts 7..13.
    # Its eight beams tie at 1/8: the cap of 4 keeps 3->7, 5->7, 3->8,
    # 4->9 (stable on equal predicates), so step 4 adds only 14..19.
    assert list(out) == [0, 1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 11, 12, 13,
                         14, 15, 16, 17, 18, 19]
    assert all(v == 0.5 for p, v in out.items() if p != 0)


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


def test_storage_evicts_nns_before_harvest():
    st = RelationStorage((2,))
    st.add(1, StorageEntry(0, 0.3, 9, "unify"))
    st.add(1, StorageEntry(1, 0.4, 9, "unify"))
    # a full layer of harvested entries keeps all of them
    st.add(1, StorageEntry(2, 0.9, 9, "nns"))
    assert [(e.pred, e.provenance) for e in st.layers[0]] == [
        (0, "unify"), (1, "unify")]
    st = RelationStorage((3,))
    for pred, score, prov in ((0, 0.6, "nns"), (1, 0.8, "nns"),
                              (2, 0.2, "unify")):
        st.add(1, StorageEntry(pred, score, 9, prov))
    # a harvested arrival evicts the lowest nns entry, not a lower harvest
    st.add(1, StorageEntry(3, 0.1, 9, "unify"))
    assert [e.pred for e in st.layers[0]] == [1, 2, 3]
    # within the nns group: lowest score, then earliest
    st = RelationStorage((2,))
    for pred in (0, 1, 2):
        st.add(1, StorageEntry(pred, 0.5, 9, "nns"))
    assert [e.pred for e in st.layers[0]] == [1, 2]


def test_storage_allows_duplicates():
    st = RelationStorage((4, 4))
    st.add(2, StorageEntry(1, 0.8, 0, "unify"))
    st.add(2, StorageEntry(1, 0.8, 0, "unify"))
    assert len(st.entries_by_goal(2)[0]) == 2


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
    rows = parse_storage_lines(st.dump(kb.vocab))
    assert [(int(r[0]), r[1], r[3], r[4]) for r in rows] == [
        (1, "p3", "p0", "unify"), (2, "p1", "p0", "nns"),
        (3, "p4", "p2", "unify")]
    assert [float(r[2]) for r in rows] == [0.75, 0.5, 0.25]


def test_storage_parser_keeps_raw_fields():
    text = "# note\n\n2\t#0\t0.5\tchildOf\tnns\n"
    assert parse_storage_lines(text) == [["2", "#0", "0.5", "childOf", "nns"]]
    with pytest.raises(ValueError, match="line 2"):
        parse_storage_lines("# note\n1\tp1\t0.5\n")
    for layer in ("x", "0", "-1", "1.5"):
        with pytest.raises(ValueError, match="line 2: layer"):
            parse_storage_lines(f"\n{layer}\tp1\t0.5\tp0\tnns\n")
    for score in ("abc", "nan", "inf", ""):
        with pytest.raises(ValueError, match="line 1: score"):
            parse_storage_lines(f"1\tp1\t{score}\tp0\tnns\n")


def test_update_from_buffer_places_by_level():
    rule = Rule(SHAPE_IMPLIES, 3, 0)
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
    implies = Rule(SHAPE_IMPLIES, 1, 0)
    chain = Rule(SHAPE_CHAIN, 2, 0, 1)
    kb = fact_kb(3, 2, [(0, 0, 1)], [implies, chain])
    store = ParameterStore()
    store.add(PRED_EMB, np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 4.0]]))
    store.add(CONST_EMB, np.array([[6.0, 6.0], [0.0, 0.0]]))
    emb = item_embeddings(kb, store)
    # fact p0(c0, c1): mean of pred 0, const 0, const 1
    np.testing.assert_allclose(emb[0], np.array([7.0, 6.0]) / 3.0, atol=1e-12)
    # p1(X,Y) :- p0(X,Y): mean of preds 1 and 0
    np.testing.assert_allclose(emb[1], np.array([1.0, 2.0]) / 2.0, atol=1e-12)
    # p2(X,Y) :- p0(X,Z), p1(Z,Y): mean of preds 2, 0 and 1
    np.testing.assert_allclose(emb[2], np.array([6.0, 6.0]) / 3.0, atol=1e-12)


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
    grads, loss = train_generator_step(st, [0], store,
                                       np.random.default_rng(0), samples=2)
    assert loss == pytest.approx(np.log(7.0), abs=1e-12)
    assert grads is not None


def test_training_matches_manual_teacher_forcing():
    store = gen_store(6, 4, seed=15)
    targets = [3, 1, 5]
    st = seeded_storage(2, targets)
    _, loss = train_generator_step(st, [2], store,
                                   np.random.default_rng(1), samples=1)
    h = init_hidden(store, [2])
    prev, cur = 2, 2
    steps = []
    for t in targets:
        h, dist = gru_step(store, h, [prev], [cur])
        steps.append(-np.log(dist[0, t]))
        prev, cur = cur, t
    assert loss == pytest.approx(np.mean(steps), abs=1e-12)


def test_training_stops_at_first_empty_layer():
    store = gen_store(6, 4, seed=16)
    st = seeded_storage(2, [3])
    st.add(3, StorageEntry(5, 0.9, 2, "unify"))  # layer 2 stays empty
    _, loss = train_generator_step(st, [2], store,
                                   np.random.default_rng(2), samples=1)
    _, dist = gru_step(store, init_hidden(store, [2]), [2], [2])
    assert loss == pytest.approx(-np.log(dist[0, 3]), abs=1e-12)


def test_training_skips_goals_without_entries():
    store = gen_store(5, 4, seed=17)
    st = seeded_storage(1, [2, 3])
    grads, loss = train_generator_step(st, [0, 4], store,
                                       np.random.default_rng(3))
    assert grads is None and loss is None
    grads, loss = train_generator_step(RelationStorage((2, 2)), [1], store,
                                       np.random.default_rng(3))
    assert grads is None and loss is None


def test_slot_targets_train_toward_nearest_real():
    store = gen_store(4, 4, seed=18)
    slots = store[PRED_EMB][[2, 0]] + 1e-6
    store.add(SLOT_EMB, slots)
    mapping = nearest_real_predicate(store)
    np.testing.assert_array_equal(mapping, [0, 1, 2, 3, 2, 0])
    slot_st = seeded_storage(1, [4, 5])   # slot ids 4 -> 2, 5 -> 0
    real_st = seeded_storage(1, [2, 0])
    _, a = train_generator_step(slot_st, [1], store,
                                np.random.default_rng(4), samples=1)
    _, b = train_generator_step(real_st, [1], store,
                                np.random.default_rng(4), samples=1)
    assert a == b


def test_train_step_finite_differences():
    store = gen_store(5, 4, seed=19)
    st = seeded_storage(0, [2, 4, 1])
    st.add(1, StorageEntry(3, 0.4, 0, "unify"))

    def evaluate():
        # fresh rng per call so every rebuild samples the same sequences
        _, loss = train_generator_step(st, [0], store,
                                       np.random.default_rng(21), samples=3)
        return loss

    grads, loss = train_generator_step(st, [0], store,
                                       np.random.default_rng(21), samples=3)
    assert loss == evaluate()
    assert list(grads) == GEN_ORDER
    worst = fd_worst(store, evaluate, grads, np.random.default_rng(22),
                     picks=6)
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
        grads, loss = train_generator_step(st, [0, 5], store, rng)
        adam_step(store, grads, lr=0.01)
        losses.append(loss)
    assert losses[-1] < losses[0] * 0.8
    np.testing.assert_array_equal(store[PRED_EMB], emb_before)


def test_overfit_storage_recovers_sequence_in_beam():
    store = gen_store(5, 4, seed=24)
    targets = [1, 2, 3]
    st = seeded_storage(0, targets)
    rng = np.random.default_rng(25)
    for _ in range(300):
        grads, _ = train_generator_step(st, [0], store, rng, samples=1)
        adam_step(store, grads, lr=0.05)
    out = generate_predicates(0, store, width=1, depth=3)
    assert set(out) == {0, 1, 2, 3}


def test_generator_param_filter_and_reinit():
    store = gen_store(3, 2, seed=26)
    grads, _ = train_generator_step(seeded_storage(1, [0, 2]), [1], store,
                                    np.random.default_rng(0))
    # the m-step differentiates the generator alone, never the predicate
    # rows it reads, and covers every generator parameter in the store
    assert list(grads) == GEN_ORDER
    assert sorted(GEN_ORDER) == sorted(n for n in store.names()
                                       if n.startswith("gen."))
    for name, g in grads.items():
        assert g.shape == store[name].shape
    with pytest.raises(ValueError, match="exists"):
        init_generator(store, 3, 2, np.random.default_rng(0))


# --- closed form against the tape reference --------------------------------


@st.composite
def generator_cases(draw):
    """A random generator store, possibly with template slots, and a
    storage of 1-3 layers whose goals may stop at any layer or hold no
    entry at all."""
    n_preds = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 4))
    n_slots = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    store = gen_store(n_preds, dim, seed=int(rng.integers(1 << 30)))
    if n_slots:
        store.add(SLOT_EMB, rng.normal(0.0, 0.5, size=(n_slots, dim)))
    # move every generator parameter off its initial identity/zero values
    for name in store.names():
        if name.startswith("gen."):
            store[name][...] += rng.normal(0.0, 0.3, size=store[name].shape)
    caps = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    storage = RelationStorage(caps)
    for level, pred, goal, score in draw(st.lists(st.tuples(
            st.integers(1, len(caps)), st.integers(0, n_preds + n_slots - 1),
            st.integers(0, n_preds - 1), st.floats(0.0, 1.0)),
            max_size=16)):
        storage.add(level, StorageEntry(pred, score, goal, "unify"))
    goals = draw(st.lists(st.integers(0, n_preds - 1), min_size=1,
                          max_size=n_preds, unique=True))
    return store, storage, goals, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(generator_cases(), st.integers(0, 2**31 - 1))
def test_mstep_matches_tape_reference(case, seed):
    store, storage, goals, samples = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    grads, loss = train_generator_step(storage, goals, store, rng, samples)
    every, want_loss = tape_generator_step(storage, goals, store, ref_rng,
                                           samples)
    # the same sequences, drawn with the same calls
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if every is None:
        assert grads is None and loss is None
        return
    assert list(every)[0] == PRED_EMB
    want = {k: g for k, g in every.items() if k.startswith("gen.")}
    assert list(grads) == list(want) == GEN_ORDER
    for name, g in want.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-10, atol=1e-12,
                                   err_msg=name)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-10, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(generator_cases(), st.integers(1, 4), st.integers(0, 3))
def test_beam_matches_tape_reference(case, width, depth):
    store, _, goals, _ = case
    for goal in goals:
        got = generate_predicates(goal, store, width, depth)
        want = tape_generate_predicates(goal, store, width, depth)
        assert list(got) == list(want)
        for p, score in want.items():
            assert abs(got[p] - score) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(generator_cases())
def test_mstep_finite_differences_every_parameter(case):
    """Every coordinate of every generator parameter, against central
    differences of the m-step's own loss run in long double."""
    store, storage, goals, samples = case
    # the best score in its layer, so no capacity evicts it
    storage.add(1, StorageEntry(0, 2.0, goals[0], "unify"))
    for name in store.names():
        store.params[name] = store[name].astype(np.longdouble)

    def run():
        return train_generator_step(storage, goals, store,
                                    np.random.default_rng(0), samples)

    grads, loss = run()
    assert loss.dtype == np.longdouble
    assert list(grads) == GEN_ORDER
    eps = 1e-6
    worst = 0.0
    for name, grad in grads.items():
        flat = store.params[name].reshape(-1)
        for i, g in enumerate(grad.reshape(-1)):
            keep = flat[i]
            flat[i] = keep + eps
            up = run()[1]
            flat[i] = keep - eps
            dn = run()[1]
            flat[i] = keep
            fd = float((up - dn) / (2 * eps))
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    assert worst < 1e-4

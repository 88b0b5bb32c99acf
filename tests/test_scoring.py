import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover.autodiff import ParameterStore
from selprover.kb import (SHAPE_CHAIN, SHAPE_IMPLIES, SHAPE_INVERSE, Atom,
                          KBView, KnowledgeBase, Rule, Vocabulary)
from selprover.pretrain import CONST_EMB, PRED_EMB
from selprover.prover import (ProverConfig, _entry_rows, build_templates,
                              prove_goal)
from selprover.config import RunConfig
from selprover import accel
from selprover.scoring import (ENTRY_CONST, ENTRY_PRED, BatchedEvaluator,
                              kernel_tables)

from oracles import ReferenceScorer


def build_kb(facts, rules, Ep, Ec):
    vocab = Vocabulary()
    for p in range(Ep.shape[0]):
        vocab.intern_predicate(f"p{p}")
    for c in range(Ec.shape[0]):
        vocab.intern_constant(f"c{c}")
    kb = KnowledgeBase(vocab, [Atom(p, (s, o)) for p, s, o in facts], rules)
    store = ParameterStore()
    store.add(PRED_EMB, Ep.copy())
    store.add(CONST_EMB, Ec.copy())
    return kb, store


def implies(h, b):
    return Rule(SHAPE_IMPLIES, h, b)


def inverse(h, b):
    return Rule(SHAPE_INVERSE, h, b)


def chain(h, b1, b2):
    return Rule(SHAPE_CHAIN, h, b1, b2)


def random_template_case(rng):
    n_fact_pred = int(rng.integers(2, 5))
    n_extra = int(rng.integers(0, 3))
    P = n_fact_pred + n_extra
    C = int(rng.integers(3, 7))
    dim = int(rng.integers(2, 4))
    Ep = rng.normal(0.0, 0.8, size=(P, dim))
    Ec = rng.normal(0.0, 0.8, size=(C, dim))
    facts = []
    seen = set()
    for _ in range(int(rng.integers(2, 11))):
        t = (int(rng.integers(n_fact_pred)), int(rng.integers(C)),
             int(rng.integers(C)))
        if t not in seen:
            seen.add(t)
            facts.append(t)
    rules = []
    for _ in range(int(rng.integers(0, 3))):
        rules.append(implies(int(rng.integers(P)), int(rng.integers(P))))
    for _ in range(int(rng.integers(0, 3))):
        rules.append(inverse(int(rng.integers(P)), int(rng.integers(P))))
    for _ in range(int(rng.integers(0, 3))):
        rules.append(chain(int(rng.integers(P)), int(rng.integers(P)),
                           int(rng.integers(P))))
    return facts, rules, Ep, Ec


def stream_scores(kb, store, rel, anchor, depth, threshold, side):
    cfg = ProverConfig(max_depth=depth, min_score=threshold)
    view = kb.full_view()
    out = []
    for c in range(kb.vocab.n_constants):
        goal = Atom(rel, (anchor, c)) if side == "tail" else Atom(rel, (c, anchor))
        out.append(prove_goal(goal, view, store, cfg).score)
    return np.array(out)


def assert_matches_stream(kb, store, depth, threshold, rng, n_queries=3):
    ev = BatchedEvaluator(kb.full_view(), store, max_depth=depth,
                          min_score=threshold)
    n_fact_pred = int(kb.fact_pred.max()) + 1 if kb.n_facts else 2
    for _ in range(n_queries):
        rel = int(rng.integers(n_fact_pred))
        a = int(rng.integers(kb.vocab.n_constants))
        got_t = ev.score_tails(rel, a)
        want_t = stream_scores(kb, store, rel, a, depth, threshold, "tail")
        np.testing.assert_array_equal(got_t, want_t)
        got_h = ev.score_heads(rel, a)
        want_h = stream_scores(kb, store, rel, a, depth, threshold, "head")
        np.testing.assert_array_equal(got_h, want_h)


def test_facts_only_matches_stream():
    rng = np.random.default_rng(1)
    Ep = rng.normal(0, 0.8, (3, 3))
    Ec = rng.normal(0, 0.8, (5, 3))
    kb, store = build_kb([(0, 0, 1), (1, 2, 3), (2, 4, 0), (0, 3, 3)], [],
                         Ep, Ec)
    for depth in (0, 1, 2):
        assert_matches_stream(kb, store, depth, 0.0, np.random.default_rng(2))


def test_single_implication_closed_form():
    # goal r via implies(r <- b): score is the better of the direct sweep
    # and the link kernel floored body sweep
    rng = np.random.default_rng(7)
    Ep = rng.normal(0, 0.7, (3, 3))
    Ec = rng.normal(0, 0.7, (4, 3))
    facts = [(1, 0, 2), (2, 1, 3), (1, 3, 0)]
    kb, store = build_kb(facts, [implies(0, 1)], Ep, Ec)
    ev = BatchedEvaluator(kb.full_view(), store, max_depth=1, min_score=0.0)
    got = ev.score_tails(0, 0)

    def k(u, v):
        return float(np.exp(-np.sum((u - v) ** 2)))

    link = k(Ep[0], Ep[0])  # head slot of the rule is predicate 0 itself
    for y in range(4):
        best = 0.0
        for p, s, o in facts:
            direct = min(k(Ep[0], Ep[p]), k(Ec[0], Ec[s]), k(Ec[y], Ec[o]))
            via = min(link, k(Ep[1], Ep[p]), k(Ec[0], Ec[s]), k(Ec[y], Ec[o]))
            best = max(best, direct, via)
        assert got[y] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("threshold", [0.0, 0.25])
def test_random_template_kbs_match_stream(depth, threshold):
    rng = np.random.default_rng(100 * depth + int(threshold * 100))
    for _ in range(8):
        facts, rules, Ep, Ec = random_template_case(rng)
        kb, store = build_kb(facts, rules, Ep, Ec)
        assert_matches_stream(kb, store, depth, threshold, rng, n_queries=2)


def test_learned_templates_match_stream():
    rng = np.random.default_rng(41)
    vocab = Vocabulary()
    for p in range(3):
        vocab.intern_predicate(f"r{p}")
    for c in range(5):
        vocab.intern_constant(f"c{c}")
    store = ParameterStore()
    store.add(PRED_EMB, rng.normal(0, 0.6, size=(3, 4)))
    store.add(CONST_EMB, rng.normal(0, 0.6, size=(5, 4)))
    cfg = RunConfig(embedding_dim=4, templates_implies=2, templates_inverse=2,
                    templates_chain=2)
    rules = build_templates(vocab, store, cfg, rng)
    facts = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 3, 4), (1, 4, 0)]
    kb = KnowledgeBase(vocab, [Atom(p, (s, o)) for p, s, o in facts], rules)
    for depth in (1, 2):
        assert_matches_stream(kb, store, depth, 0.1,
                              np.random.default_rng(depth))


def assert_cut_is_exact(kb, store, depth, threshold):
    """Scores at a threshold equal the threshold-free scores cut afterwards.

    Pruning inside the evaluator must change nothing at or above the
    threshold, bit for bit, on both sides and for every (rel, anchor).
    """
    free = BatchedEvaluator(kb.full_view(), store, depth, 0.0)
    cut = BatchedEvaluator(kb.full_view(), store, depth, threshold)
    for rel in range(kb.vocab.n_predicates):
        for a in range(kb.vocab.n_constants):
            for side in ("score_tails", "score_heads"):
                v0 = getattr(free, side)(rel, a)
                np.testing.assert_array_equal(
                    getattr(cut, side)(rel, a),
                    np.where(v0 >= threshold, v0, 0.0))
    return free, cut


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.3, 2.0),
       st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.9]), st.integers(0, 2))
def test_threshold_is_a_post_hoc_cut(seed, scale, threshold, depth):
    facts, rules, Ep, Ec = random_template_case(np.random.default_rng(seed))
    kb, store = build_kb(facts, rules, Ep * scale, Ec * scale)
    assert_cut_is_exact(kb, store, depth, threshold)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.3, 2.0), st.integers(0, 2),
       st.integers(0, 2**16))
def test_threshold_at_a_score_prunes_exactly(seed, scale, depth, pick):
    # every score is some kernel value, so a threshold equal to one of them
    # puts a factor exactly at the threshold somewhere in the tables
    facts, rules, Ep, Ec = random_template_case(np.random.default_rng(seed))
    kb, store = build_kb(facts, rules, Ep * scale, Ec * scale)
    free = BatchedEvaluator(kb.full_view(), store, depth, 0.0)
    scores = np.unique(np.concatenate(
        [free.score_tails(rel, a) for rel in range(kb.vocab.n_predicates)
         for a in range(kb.vocab.n_constants)]))
    assert_cut_is_exact(kb, store, depth, float(scores[pick % len(scores)]))


# the five predicates sit far apart, so only an exact predicate match
# scores; the four constants sit on a unit square scaled by 0.8
FAR_EP = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [-3.0, 0.0],
                   [0.0, -3.0]])
SQUARE_EC = 0.8 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
PATH_FACTS = [(1, 0, 1), (1, 1, 2)]


def live_tables(ev, kinds):
    """Cache keys of the evaluator's tables of these kinds with an entry
    that scores."""
    return sorted(k for k, T in ev._tables.items()
                  if k[0] in kinds and T.any())


GOAL_KINDS, CHAIN_PRODUCTS = ("G", "R", "L"), ("RG", "RR")


@pytest.mark.parametrize("depth", [1, 2])
def test_threshold_every_chain_dead(depth):
    kb, store = build_kb(PATH_FACTS, [implies(0, 1), chain(0, 3, 4)],
                         FAR_EP, SQUARE_EC)
    free, cut = assert_cut_is_exact(kb, store, depth, 0.1)
    assert live_tables(free, CHAIN_PRODUCTS)
    assert not live_tables(cut, CHAIN_PRODUCTS)


@pytest.mark.parametrize("depth", [1, 2])
def test_threshold_one_live_chain(depth):
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1), chain(0, 3, 4)],
                         FAR_EP, SQUARE_EC)
    _, cut = assert_cut_is_exact(kb, store, depth, 0.1)
    assert live_tables(cut, CHAIN_PRODUCTS) == [("RG", 0, depth - 1)]
    assert cut.score_tails(0, 0)[2] == 1.0
    assert cut.score_heads(0, 2)[0] == 1.0


def test_threshold_equal_to_a_score_keeps_it():
    # a threshold equal to a constant kernel value on the chain's path: a
    # score exactly at the threshold survives, so no mask may use ">"
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1)], FAR_EP, SQUARE_EC)
    free = BatchedEvaluator(kb.full_view(), store, 2, 0.0)
    threshold = float(free.Kc[3, 2])
    assert free.score_tails(0, 0)[3] == threshold
    _, cut = assert_cut_is_exact(kb, store, 2, threshold)
    assert cut.score_tails(0, 0)[3] == threshold


def test_rejects_depth_three():
    Ep = np.zeros((2, 2))
    Ec = np.zeros((2, 2))
    kb, store = build_kb([(0, 0, 1)], [], Ep, Ec)
    with pytest.raises(ValueError, match="depth"):
        BatchedEvaluator(kb.full_view(), store, max_depth=3, min_score=0.1)


def test_empty_fact_view_scores_zero():
    Ep = np.random.default_rng(0).normal(0, 1, (3, 2))
    Ec = np.random.default_rng(1).normal(0, 1, (4, 2))
    kb, store = build_kb([], [implies(0, 1), chain(0, 1, 2)], Ep, Ec)
    ev = BatchedEvaluator(kb.full_view(), store, max_depth=2, min_score=0.0)
    assert np.all(ev.score_tails(0, 0) == 0.0)
    assert np.all(ev.score_heads(0, 0) == 0.0)


def test_subset_view_scores_subset_facts_only():
    rng = np.random.default_rng(19)
    Ep = rng.normal(0, 0.8, (3, 3))
    Ec = rng.normal(0, 0.8, (4, 3))
    facts = [(0, 0, 1), (1, 1, 2), (2, 2, 3)]
    kb, store = build_kb(facts, [chain(0, 1, 2)], Ep, Ec)
    sub = KBView(kb, np.array([0, 1]), (0,))  # facts of predicates 0 and 1
    ev = BatchedEvaluator(sub, store, max_depth=2, min_score=0.0)
    cfg = ProverConfig(max_depth=2, min_score=0.0)
    for y in range(4):
        want = prove_goal(Atom(0, (0, y)), sub, store, cfg).score
        assert ev.score_tails(0, 0)[y] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("block", [accel._BLOCK, 1.0, 40.0])
def test_matrix_equals_per_anchor_reference(monkeypatch, block):
    # every row and column of each relation's matrix, bit for bit, against
    # the per-anchor closed form by proof families over forward and reversed
    # tables; a small block splits the max-min products into chunks of one
    # or a few rows
    monkeypatch.setattr(accel, "_BLOCK", block)
    # the tables each table or chain product reads, through the cache or not
    readers, stack = collections.defaultdict(set), []
    table = BatchedEvaluator._table

    def spy(ev, kind, q, d):
        if stack:
            readers[kind, q, d].add(stack[-1])
        stack.append((kind, q, d))
        try:
            return table(ev, kind, q, d)
        finally:
            stack.pop()

    monkeypatch.setattr(BatchedEvaluator, "_table", spy)
    live, chain_depths, shared, nested = set(), set(), 0, 0
    for seed in range(40):
        facts, rules, Ep, Ec = random_template_case(np.random.default_rng(seed))
        scale = (0.4, 0.7, 1.0, 1.5)[seed % 4]
        kb, store = build_kb(facts, rules, Ep * scale, Ec * scale)
        for depth in (0, 1, 2):
            for threshold in (0.0, 0.1, 0.3):
                ev = BatchedEvaluator(kb.full_view(), store, depth, threshold)
                ref = ReferenceScorer(kb.full_view(), store, depth, threshold)
                nested += bool(len(ref._fwd.H2) and len(ref._fwd.H2s))
                readers.clear()
                for rel in range(kb.vocab.n_predicates):
                    for a in range(kb.vocab.n_constants):
                        np.testing.assert_array_equal(
                            ev.score_tails(rel, a), ref.score_tails(rel, a))
                        np.testing.assert_array_equal(
                            ev.score_heads(rel, a), ref.score_heads(rel, a))
                live.update(k[0] for k in live_tables(ev, GOAL_KINDS))
                chain_depths.update(
                    k[2] for k in live_tables(ev, CHAIN_PRODUCTS))
                shared += any(len(by) > 1 and ev._tables[k].any()
                              for k, by in readers.items())
    assert live == {"G", "R", "L"}
    assert chain_depths == {0, 1}
    assert shared > 0 and nested > 0


def entry_gradient(store, entry):
    """Gradient of one kernel entry's value, as ``training_loss`` spreads it
    over both operands' rows: -2K(u - v) to u, its negation to v."""
    (nu, iu), (nv, iv) = _entry_rows(entry, store[PRED_EMB].shape[0])
    d = store[nu][iu] - store[nv][iv]
    row = -2.0 * (np.exp(-(d * d).sum()) * d)
    grads = {name: np.zeros_like(store[name]) for name in (nu, nv)}
    grads[nu][iu] += row
    grads[nv][iv] -= row
    return grads


def assert_proofs_match_stream(ev, view, store, cfg, rel):
    """Every (rel, x, y): ``proof`` against ``prove_goal``, bit for bit in
    the score; the entry is the stream's, or the same kernel entry with its
    operands swapped, whose gradient rows are the same. Returns the
    stream's score matrix."""
    C = ev.n_constants
    scores = np.zeros((C, C))
    for x in range(C):
        for y in range(C):
            res = prove_goal(Atom(rel, (x, y)), view, store, cfg,
                             tables=(ev.Kp, ev.Kc))
            want = res.state.entry if res.state is not None else None
            score, entry = ev.proof(rel, x, y)
            assert score == res.score
            if entry != want:
                assert (entry[0], entry[2], entry[1]) == want
                got_g, want_g = (entry_gradient(store, e)
                                 for e in (entry, want))
                assert set(got_g) == set(want_g)
                for name in want_g:
                    np.testing.assert_array_equal(got_g[name], want_g[name])
            scores[x, y] = res.score
    return scores


def test_every_triple_matches_prove_goal_bitwise():
    # the relation matrices and the walk-back against the stream prover, one
    # ground goal per (rel, x, y), on the full view and on a random sub-view
    rng = np.random.default_rng(23)
    for _ in range(12):
        facts, rules, Ep, Ec = random_template_case(rng)
        kb, store = build_kb(facts, rules, Ep, Ec)
        sub = KBView(kb, np.flatnonzero(rng.random(kb.n_facts) < 0.6),
                     tuple(np.flatnonzero(rng.random(kb.n_rules) < 0.6)
                           .tolist()))
        for view in (kb.full_view(), sub):
            for depth in (0, 1, 2):
                for threshold in (0.0, 0.1, 0.3):
                    ev = BatchedEvaluator(view, store, depth, threshold)
                    cfg = ProverConfig(max_depth=depth, min_score=threshold)
                    for rel in range(kb.vocab.n_predicates):
                        np.testing.assert_array_equal(
                            ev._matrix(rel),
                            assert_proofs_match_stream(ev, view, store, cfg,
                                                       rel))


def test_proof_with_threshold_at_a_cell():
    # a threshold equal to a cell's score keeps that cell, and the walk-back
    # must still reach it: every factor of its proof is at or above it
    rng = np.random.default_rng(29)
    for _ in range(6):
        facts, rules, Ep, Ec = random_template_case(rng)
        kb, store = build_kb(facts, rules, Ep, Ec)
        view = kb.full_view()
        free = BatchedEvaluator(view, store, 2, 0.0)
        rel = int(rng.integers(kb.vocab.n_predicates))
        cells = np.unique(free._matrix(rel))
        threshold = float(rng.choice(cells[cells > 0.0]))
        ev = BatchedEvaluator(view, store, 2, threshold,
                              tables=(free.Kp, free.Kc))
        cfg = ProverConfig(max_depth=2, min_score=threshold)
        assert threshold in assert_proofs_match_stream(ev, view, store, cfg,
                                                       rel)


def test_proof_of_a_chain_at_the_threshold():
    # the threshold is one square side's kernel. p0(c0, c3) binds Z = c1
    # through p1(c0, c1), and the second body p1(c1, c3) proves from that
    # same fact with both constants one side off: the first is the entry
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1)], FAR_EP, SQUARE_EC)
    free = BatchedEvaluator(kb.full_view(), store, 2, 0.0)
    threshold = float(free.Kc[3, 2])
    ev = BatchedEvaluator(kb.full_view(), store, 2, threshold)
    assert ev.proof(0, 0, 3) == (threshold, (ENTRY_CONST, 1, 0))
    res = prove_goal(Atom(0, (0, 3)), kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=threshold))
    assert (res.score, res.state.entry) == ev.proof(0, 0, 3)
    assert ev.proof(0, 0, 2) == (1.0, None)  # every factor exactly 1
    assert ev.proof(2, 0, 1) == (0.0, None)  # no fact or rule for p2


def test_proof_of_a_rule_link_keeps_the_stream_order():
    # p0(c0, c1) proves only by p2(X, Y) :- p1(X, Y), whose head sits 0.8
    # from p0: the link is the bottleneck, written (PRED, head, goal)
    Ep = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.8]])
    kb, store = build_kb([(1, 0, 1)], [implies(2, 1)], Ep, SQUARE_EC)
    view = kb.full_view()
    ev = BatchedEvaluator(view, store, 1, 0.1)
    assert ev.proof(0, 0, 1) == (float(ev.Kp[2, 0]), (ENTRY_PRED, 2, 0))
    res = prove_goal(Atom(0, (0, 1)), view, store,
                     ProverConfig(max_depth=1, min_score=0.1))
    assert (res.score, res.state.entry) == ev.proof(0, 0, 1)


def test_proof_through_an_inverse_under_a_chain():
    # p0(c3, c2) :- p1(c3, Z), p2(Z, c2) with p1(X, Y) :- p3(Y, X): the
    # inverse turns the first body's free object into p3's free subject,
    # which binds Z = c1 from p3(c1, c0); c0 against c3 is the bottleneck
    kb, store = build_kb([(3, 1, 0), (2, 1, 2)],
                         [chain(0, 1, 2), inverse(1, 3)], FAR_EP, SQUARE_EC)
    view = kb.full_view()
    ev = BatchedEvaluator(view, store, 2, 0.1)
    assert ev.proof(0, 3, 2) == (float(ev.Kc[3, 0]), (ENTRY_CONST, 3, 0))
    res = prove_goal(Atom(0, (3, 2)), view, store,
                     ProverConfig(max_depth=2, min_score=0.1))
    assert (res.score, res.state.entry) == ev.proof(0, 3, 2)


def test_caller_tables_are_used_as_given():
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1)], FAR_EP, SQUARE_EC)
    tables = kernel_tables(store)
    ev = BatchedEvaluator(kb.full_view(), store, 2, 0.1, tables=tables)
    assert ev.Kp is tables[0] and ev.Kc is tables[1]


@pytest.mark.parametrize("side, arg", [("score_tails", "subj"),
                                       ("score_heads", "obj")])
def test_out_of_range_index_raises(side, arg):
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1)], FAR_EP, SQUARE_EC)
    ev = BatchedEvaluator(kb.full_view(), store, 2, 0.1)
    score = getattr(ev, side)
    for rel in (-1, kb.vocab.n_predicates):
        with pytest.raises(IndexError, match=f"^rel {rel} "):
            score(rel, 0)
    for a in (-1, kb.vocab.n_constants):
        with pytest.raises(IndexError, match=f"^{arg} {a} "):
            score(0, a)
    assert ("G", 0, 2) in ev._tables
    assert not any(k[1] in (-1, kb.vocab.n_predicates)
                   for k in ev._tables if k[0] in GOAL_KINDS)
    assert score(4, 3).shape == (kb.vocab.n_constants,)


def test_returned_scores_are_read_only():
    kb, store = build_kb(PATH_FACTS, [chain(0, 1, 1)], FAR_EP, SQUARE_EC)
    ev = BatchedEvaluator(kb.full_view(), store, 2, 0.1)
    tails, heads = ev.score_tails(0, 0), ev.score_heads(0, 2)
    for row in (tails, heads):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.5
    assert tails[2] == heads[0] == ev.score_tails(0, 0)[2] == 1.0

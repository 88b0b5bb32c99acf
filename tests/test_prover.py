import dataclasses

import numpy as np
import pytest

from selprover.autodiff import ParameterStore
from selprover.config import RunConfig
from selprover.kb import Atom, KnowledgeBase, Rule, Vocabulary, mkvar
from selprover.pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from selprover.prover import (Counters, HighQualityBuffer, ProverConfig,
                              build_templates, classify_rule, pred_matrix,
                              prove_goal, training_loss)

from oracles import oracle_prove, random_proof_case

X, Y, Z = mkvar(0), mkvar(1), mkvar(2)


def make_package(facts, rules, Ep, Ec):
    vocab = Vocabulary()
    for p in range(Ep.shape[0]):
        vocab.intern_predicate(f"p{p}")
    for c in range(Ec.shape[0]):
        vocab.intern_constant(f"c{c}")
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    rl = [Rule(head=Atom(h[0], (h[1], h[2])),
               body=tuple(Atom(b[0], (b[1], b[2])) for b in body))
          for h, body in rules]
    kb = KnowledgeBase(vocab, atoms, rl)
    store = ParameterStore()
    store.add(PRED_EMB, Ep.copy())
    store.add(CONST_EMB, Ec.copy())
    return kb, store


def place(*rows):
    return np.array(rows, dtype=np.float64)


# --- basic scoring ---------------------------------------------------------


def test_exact_fact_match_scores_one():
    Ep = place([0.0, 0.0], [2.0, 0.0])
    Ec = place([0.0, 1.0], [1.5, -0.5], [3.0, 3.0])
    kb, store = make_package([(0, 0, 1)], [], Ep, Ec)
    res = prove_goal(Atom(0, (0, 1)), kb.full_view(), store,
                     ProverConfig(max_depth=1, min_score=0.0))
    assert res.score == pytest.approx(1.0, abs=1e-12)
    assert res.n_proofs == 1
    assert res.state.entry is None  # nothing ever dipped below 1


def test_soft_fact_match_known_kernel_value():
    # same predicate and subject, objects at squared distance 1
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [1.0, 0.0])
    kb, store = make_package([(0, 0, 0)], [], Ep, Ec)
    res = prove_goal(Atom(0, (0, 1)), kb.full_view(), store,
                     ProverConfig(max_depth=1, min_score=0.0))
    assert res.score == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert res.state.entry == (1, 1, 0)  # constant-kernel bottleneck


def test_chain_rule_completes_with_exact_embeddings():
    # gp(X,Y) :- f(X,Z), f(Z,Y) over f(a,m), f(m,b)
    Ep = place([0.0, 0.0], [4.0, 0.0])  # f, gp far apart
    Ec = place([0.0, 0.0], [0.0, 3.0], [3.0, 0.0])  # a, m, b
    facts = [(0, 0, 1), (0, 1, 2)]
    rules = [((1, X, Y), [(0, X, Z), (0, Z, Y)])]
    kb, store = make_package(facts, rules, Ep, Ec)
    res = prove_goal(Atom(1, (0, 2)), kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.1))
    assert res.score == pytest.approx(1.0, abs=1e-12)


def test_goal_must_be_ground():
    Ep = place([0.0])
    Ec = place([0.0])
    kb, store = make_package([(0, 0, 0)], [], Ep, Ec)
    with pytest.raises(ValueError):
        prove_goal(Atom(0, (X, 0)), kb.full_view(), store, ProverConfig())


# --- oracle equivalence ----------------------------------------------------


def run_both(facts, rules, Ep, Ec, goal, threshold, depth=2, exclude=-1):
    kb, store = make_package(facts, rules, Ep, Ec)
    counters = Counters()
    res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(), store,
                     ProverConfig(max_depth=depth, min_score=threshold),
                     hq=HighQualityBuffer(), counters=counters,
                     exclude_fact=exclude)
    best, stats = oracle_prove(goal, facts, rules, Ep, Ec, depth, threshold,
                               exclude_fact=exclude)
    return kb, res, counters, best, stats


def test_matches_enumeration_oracle_on_random_kbs():
    rng = np.random.default_rng(411)
    nonzero = 0
    for _ in range(60):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        kb, res, counters, best, stats = run_both(facts, rules, Ep, Ec, goal, thr)
        assert res.score == pytest.approx(best, abs=1e-9)
        assert res.n_proofs == len(stats.scores)
        # same enumeration order, proof by proof
        assert counters.established == stats.established
        assert counters.traversed == stats.or_calls * kb.n_items
        if best > 0:
            nonzero += 1
    assert nonzero >= 10  # the sample actually exercises proofs


def test_threshold_equals_post_hoc_cutoff():
    rng = np.random.default_rng(902)
    for _ in range(40):
        facts, rules, Ep, Ec, goal, _ = random_proof_case(rng)
        kb, store = make_package(facts, rules, Ep, Ec)
        goal_atom = Atom(goal[0], (goal[1], goal[2]))
        free = prove_goal(goal_atom, kb.full_view(), store,
                          ProverConfig(max_depth=2, min_score=0.0)).score
        for t in (0.05, 0.3, 0.7):
            cut = prove_goal(goal_atom, kb.full_view(), store,
                             ProverConfig(max_depth=2, min_score=t)).score
            expected = free if free >= t else 0.0
            assert cut == pytest.approx(expected, abs=1e-12)


def test_exclude_masks_the_fact_itself():
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [0.5, 0.0], [4.0, 4.0])
    # goal fact plus a nearby twin with a different subject
    kb, store = make_package([(0, 0, 2), (0, 1, 2)], [], Ep, Ec)
    cfg = ProverConfig(max_depth=1, min_score=0.0)
    goal = Atom(0, (0, 2))
    assert prove_goal(goal, kb.full_view(), store, cfg).score == pytest.approx(1.0)
    masked = prove_goal(goal, kb.full_view(), store, cfg, exclude_fact=0)
    assert masked.score == pytest.approx(np.exp(-0.25), abs=1e-12)
    alone = make_package([(0, 0, 2)], [], Ep, Ec)[0]
    only = prove_goal(goal, alone.full_view(), store, cfg, exclude_fact=0)
    assert only.score == 0.0
    assert only.state is None


def test_exclusion_matches_oracle():
    rng = np.random.default_rng(133)
    for _ in range(20):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        exclude = int(rng.integers(len(facts)))
        _, res, _, best, _ = run_both(facts, rules, Ep, Ec, goal, thr,
                                      exclude=exclude)
        assert res.score == pytest.approx(best, abs=1e-9)


def test_repeated_variable_body_only_matches_loops():
    # q(X,Y) :- p(Z,Z); only the loop fact p(a,a) can discharge the body
    Ep = place([0.0, 0.0], [0.3, 0.0])
    Ec = place([0.0, 0.0], [2.0, 0.0])
    rules = [((1, X, Y), [(0, Z, Z)])]
    goal = Atom(1, (0, 1))
    with_loop = [(0, 0, 0), (0, 0, 1)]
    kb, store = make_package(with_loop, rules, Ep, Ec)
    res = prove_goal(goal, kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.0))
    # rule head matches the goal predicate exactly and p(a,a) closes the body
    assert res.score == pytest.approx(1.0, abs=1e-12)
    assert res.score == pytest.approx(
        oracle_prove((1, 0, 1), with_loop, rules, Ep, Ec, 2, 0.0)[0], abs=1e-12)
    no_loop = [(0, 0, 1)]
    kb2, store2 = make_package(no_loop, rules, Ep, Ec)
    res2 = prove_goal(goal, kb2.full_view(), store2,
                      ProverConfig(max_depth=2, min_score=0.0))
    # body is undischargeable, so only the soft direct fact match remains
    assert res2.score == pytest.approx(np.exp(-0.09), abs=1e-12)
    assert res2.score == pytest.approx(
        oracle_prove((1, 0, 1), no_loop, rules, Ep, Ec, 2, 0.0)[0], abs=1e-12)


def test_depth_zero_kills_nonempty_bodies():
    Ep = place([0.0, 0.0], [0.0, 0.1])
    Ec = place([0.0, 0.0], [1.0, 0.0])
    facts = [(0, 0, 1)]
    rules = [((1, X, Y), [(0, X, Y)])]
    kb, store = make_package(facts, rules, Ep, Ec)
    goal = Atom(1, (0, 1))
    deep = prove_goal(goal, kb.full_view(), store,
                      ProverConfig(max_depth=1, min_score=0.0))
    shallow = prove_goal(goal, kb.full_view(), store,
                         ProverConfig(max_depth=0, min_score=0.0))
    assert deep.score > shallow.score  # rule path dead at depth 0
    assert shallow.score == pytest.approx(np.exp(-0.01), abs=1e-12)


# --- accounting ------------------------------------------------------------


def test_flat_counters_and_buffer_contents():
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    kb, store = make_package([(0, 0, 1), (0, 1, 2), (0, 2, 0)], [], Ep, Ec)
    hq = HighQualityBuffer()
    counters = Counters()
    prove_goal(Atom(0, (0, 1)), kb.full_view(), store,
               ProverConfig(max_depth=1, min_score=0.0), hq=hq,
               counters=counters)
    assert counters.traversed == 3
    assert counters.established == 3
    assert set(hq.items) == {0, 1, 2}
    assert all(e.level == 1 for e in hq.items.values())
    assert all(e.goal_rel == 0 for e in hq.items.values())
    assert hq.items[0].score == pytest.approx(1.0)


def test_buffer_levels_through_rule():
    # top-level fact sweep dies on the predicate kernel; the rule proof
    # contributes the rule at level 1 and the fact at level 2
    Ep = place([0.0, 0.0], [3.0, 0.0])
    Ec = place([0.0, 0.0], [1.0, 0.0])
    facts = [(0, 0, 1)]
    rules = [((1, X, Y), [(0, X, Y)])]
    kb, store = make_package(facts, rules, Ep, Ec)
    hq = HighQualityBuffer()
    res = prove_goal(Atom(1, (0, 1)), kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.5), hq=hq)
    assert res.score == pytest.approx(1.0)
    assert set(hq.items) == {1, 0}
    assert hq.items[1].level == 1  # the rule item
    assert hq.items[0].level == 2  # the fact, one level deeper


def test_buffer_dedup_keeps_max_score_min_level():
    hq = HighQualityBuffer()
    hq.add(7, 0.4, 2, goal_rel=1)
    hq.add(7, 0.9, 3, goal_rel=2)
    hq.add(7, 0.2, 1, goal_rel=3)
    e = hq.items[7]
    assert e.score == pytest.approx(0.9)
    assert e.level == 1
    assert e.goal_rel == 2  # follows the best score, not the last write


# --- beam ------------------------------------------------------------------


def test_wide_beam_changes_nothing():
    rng = np.random.default_rng(55)
    for _ in range(20):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        kb, store = make_package(facts, rules, Ep, Ec)
        goal_atom = Atom(goal[0], (goal[1], goal[2]))
        full = prove_goal(goal_atom, kb.full_view(), store,
                          ProverConfig(max_depth=2, min_score=thr, beam=0))
        wide = prove_goal(goal_atom, kb.full_view(), store,
                          ProverConfig(max_depth=2, min_score=thr, beam=10_000))
        assert wide.score == pytest.approx(full.score, abs=1e-12)
        assert wide.n_proofs == full.n_proofs


def test_narrow_beam_is_sound_and_deterministic():
    rng = np.random.default_rng(56)
    for _ in range(20):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        kb, store = make_package(facts, rules, Ep, Ec)
        goal_atom = Atom(goal[0], (goal[1], goal[2]))
        full = prove_goal(goal_atom, kb.full_view(), store,
                          ProverConfig(max_depth=2, min_score=thr, beam=0))
        one_a = prove_goal(goal_atom, kb.full_view(), store,
                           ProverConfig(max_depth=2, min_score=thr, beam=1))
        one_b = prove_goal(goal_atom, kb.full_view(), store,
                           ProverConfig(max_depth=2, min_score=thr, beam=1))
        assert one_a.score <= full.score + 1e-12
        assert one_a.score == one_b.score
        assert one_a.n_proofs == one_b.n_proofs


# --- templates -------------------------------------------------------------


def template_setup(dim=6, seed=3):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    for p in range(4):
        vocab.intern_predicate(f"r{p}")
    for c in range(5):
        vocab.intern_constant(f"c{c}")
    store = ParameterStore()
    store.add(PRED_EMB, rng.normal(0, 0.5, size=(4, dim)))
    store.add(CONST_EMB, rng.normal(0, 0.5, size=(5, dim)))
    cfg = RunConfig(embedding_dim=dim, templates_implies=3,
                    templates_inverse=2, templates_chain=4)
    rules = build_templates(vocab, store, cfg, rng)
    return vocab, store, cfg, rules


def test_template_shapes_and_slots():
    vocab, store, cfg, rules = template_setup()
    assert len(rules) == 9
    shapes = [r.shape for r in rules]
    assert shapes == ["implies"] * 3 + ["inverse"] * 2 + ["chain"] * 4
    n_slots = 3 * 2 + 2 * 2 + 4 * 3
    assert store[SLOT_EMB].shape == (n_slots, cfg.embedding_dim)
    assert vocab.n_predicates == 4 + n_slots
    # slot ids are dense, appended after the real predicates, and every
    # rule's declared slots match the predicates it actually uses
    seen = []
    for r in rules:
        assert classify_rule(r) == r.shape
        used = [r.head.pred] + [b.pred for b in r.body]
        assert tuple(used) == r.slots
        seen.extend(used)
    assert seen == list(range(4, 4 + n_slots))
    assert vocab.predicate_name(4) == "#0"


def test_template_slot_scale_tracks_pretrained_spread():
    vocab, store, cfg, rules = template_setup(seed=9)
    ratio = np.std(store[SLOT_EMB]) / np.std(store[PRED_EMB])
    assert 0.7 < ratio < 1.4


def test_templates_refuse_double_build():
    vocab, store, cfg, rules = template_setup()
    with pytest.raises(ValueError):
        build_templates(vocab, store, cfg, np.random.default_rng(0))


def test_failed_template_build_leaves_store_untouched():
    # the vocabulary already holds slots; a fresh store must stay slot-free
    vocab, _, cfg, _ = template_setup()
    store = ParameterStore()
    store.add(PRED_EMB, np.ones((4, cfg.embedding_dim)))
    with pytest.raises(ValueError, match="template slots"):
        build_templates(vocab, store, cfg, np.random.default_rng(0))
    assert SLOT_EMB not in store


def test_classify_rejects_non_template_shapes():
    assert classify_rule(Rule(head=Atom(0, (X, X)), body=(Atom(1, (X, Y)),))) is None
    assert classify_rule(Rule(head=Atom(0, (X, Y)),
                              body=(Atom(1, (X, Z)), Atom(2, (Y, Z))))) is None
    assert classify_rule(Rule(head=Atom(0, (X, Y)),
                              body=(Atom(1, (X, Y)), Atom(2, (X, Y)),
                                    Atom(3, (X, Y))))) is None
    assert classify_rule(Rule(head=Atom(0, (0, Y)), body=(Atom(1, (Y, Y)),))) is None


def test_prove_through_template_matches_oracle():
    vocab, store, cfg, rules = template_setup(seed=21)
    facts = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 3, 4)]
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    kb = KnowledgeBase(vocab, atoms, rules)
    Ep = pred_matrix(store)
    Ec = store[CONST_EMB]
    rl = [((r.head.pred, *r.head.args), [(b.pred, *b.args) for b in r.body])
          for r in rules]
    for goal in [(3, 0, 2), (2, 4, 0), (0, 0, 1)]:
        res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(),
                         store, ProverConfig(max_depth=2, min_score=0.0))
        best, _ = oracle_prove(goal, facts, rl, Ep, Ec, 2, 0.0)
        assert res.score == pytest.approx(best, abs=1e-9)


# --- gradients -------------------------------------------------------------


def chain_grad_setup():
    """One proof path with well-separated kernel contributions.

    The rule body names predicates 2 and 3; the facts use 0 and 1. Squared
    distances: body1-fact1 0.05, body2-fact2 0.4 (the bottleneck), goal
    predicate exactly matches the rule head. Direct fact sweeps die at the
    top because predicate 4 is far from 0 and 1.
    """
    Ep = np.zeros((5, 2))
    Ep[0] = (0.0, 0.0)
    Ep[1] = (5.0, 0.0)
    Ep[2] = (np.sqrt(0.05), 0.0)
    Ep[3] = (5.0 + np.sqrt(0.4), 0.0)
    Ep[4] = (-4.0, 3.0)
    Ec = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    facts = [(0, 0, 1), (1, 1, 2)]
    rules = [((4, X, Y), [(2, X, Z), (3, Z, Y)])]
    kb, store = make_package(facts, rules, Ep, Ec)
    return kb, store, Atom(4, (0, 2))


def loss_and_grads(kb, store, goal, cfg, known=None, seed=17):
    """training_loss of one goal with a fixed corruption stream."""
    loss, grads, _ = training_loss(
        [goal], kb.full_view(), store, cfg, HighQualityBuffer(), Counters(),
        kb.fact_set if known is None else known, np.random.default_rng(seed))
    return loss, grads


def worst_fd_error(store, evaluate, grads, names, picks=12, eps=1e-5):
    """Max relative error of ``grads`` (zero where absent) against central
    differences of ``evaluate()`` over sampled coordinates of ``names``."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for name in names:
        flat_param = store.params[name].reshape(-1)
        flat_grad = grads.get(name, np.zeros_like(store[name])).reshape(-1)
        coords = rng.choice(flat_param.size, size=min(picks, flat_param.size),
                            replace=False)
        for c in coords:
            old = flat_param[c]
            flat_param[c] = old + eps
            lp = evaluate()
            flat_param[c] = old - eps
            lm = evaluate()
            flat_param[c] = old
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - flat_grad[c]) / max(abs(fd), abs(flat_grad[c]), 1e-8)
            worst = max(worst, rel)
    return worst


def test_bottleneck_entry_and_recomputed_value():
    kb, store, goal = chain_grad_setup()
    res = prove_goal(goal, kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.3))
    assert res.score == pytest.approx(np.exp(-0.4), abs=1e-12)
    assert res.state.entry == (0, 3, 1)  # predicate pair (body2, fact2 pred)
    # the loss recomputes the entry from its rows: -log of the proof score
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=0,
                    embedding_dim=2)
    loss, grads = loss_and_grads(kb, store, goal, cfg)
    assert np.exp(-loss) == pytest.approx(res.score, abs=1e-12)
    assert list(grads) == [PRED_EMB]
    # only the two rows of the bottleneck entry receive gradient
    assert np.flatnonzero(np.any(grads[PRED_EMB], axis=1)).tolist() == [1, 3]


def test_finite_difference_prove_goal():
    # the returned gradient is the derivative of -log of the search's own
    # max-min score, re-proved at every perturbed point
    kb, store, goal = chain_grad_setup()
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=0,
                    embedding_dim=2)
    _, grads = loss_and_grads(kb, store, goal, cfg)

    def evaluate():
        res = prove_goal(goal, kb.full_view(), store,
                         ProverConfig(max_depth=2, min_score=0.3))
        assert res.state is not None and res.state.entry is not None
        return -np.log(res.score)

    assert worst_fd_error(store, evaluate, grads, [PRED_EMB, CONST_EMB]) < 1e-4


def test_finite_difference_training_loss():
    # the corruption rng is re-seeded per evaluation to keep the loss
    # deterministic
    kb, store, goal = chain_grad_setup()
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=2,
                    embedding_dim=2)
    _, grads = loss_and_grads(kb, store, goal, cfg)
    evaluate = lambda: loss_and_grads(kb, store, goal, cfg)[0]  # noqa: E731
    assert worst_fd_error(store, evaluate, grads, list(grads)) < 1e-4


def slot_grad_setup():
    """A proof whose bottleneck is a template slot against a real predicate.

    Real predicates p0, p1; slots #0 (id 2) and #1 (id 3) in a template
    #0(X,Y) :- #1(X,Y). The goal p1(c0,c1) is far from the fact p0(c0,c1),
    so only the rule proves it: head #0 vs p1 at squared distance 0.05,
    body #1 vs p0 at 0.3, the bottleneck.
    """
    vocab = Vocabulary()
    for name in ("p0", "p1", "#0", "#1"):
        vocab.intern_predicate(name)
    for name in ("c0", "c1"):
        vocab.intern_constant(name)
    rule = Rule(head=Atom(2, (X, Y)), body=(Atom(3, (X, Y)),))
    kb = KnowledgeBase(vocab, [Atom(0, (0, 1))], [rule])
    store = ParameterStore()
    store.add(CONST_EMB, place([0.0, 0.0], [0.0, 2.0]))
    store.add(PRED_EMB, place([0.0, 0.0], [5.0, 0.0]))
    store.add(SLOT_EMB, place([5.0 + np.sqrt(0.05), 0.0], [0.0, np.sqrt(0.3)]))
    return kb, store, Atom(1, (0, 1))


def test_template_slot_gradient_lands_in_slot_rows():
    kb, store, goal = slot_grad_setup()
    res = prove_goal(goal, kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.3))
    assert res.state.entry == (0, 3, 0)  # slot #1 against p0
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=0,
                    embedding_dim=2)
    loss, grads = loss_and_grads(kb, store, goal, cfg)
    assert loss == pytest.approx(0.3, abs=1e-12)
    assert list(grads) == [SLOT_EMB, PRED_EMB]
    # pid 3 is slot row 3 - n_real = 1; p0 takes the opposite gradient
    assert np.flatnonzero(np.any(grads[SLOT_EMB], axis=1)).tolist() == [1]
    assert np.flatnonzero(np.any(grads[PRED_EMB], axis=1)).tolist() == [0]
    np.testing.assert_array_equal(grads[SLOT_EMB][1], -grads[PRED_EMB][0])
    evaluate = lambda: loss_and_grads(kb, store, goal, cfg)[0]  # noqa: E731
    assert worst_fd_error(store, evaluate, grads,
                          [SLOT_EMB, PRED_EMB, CONST_EMB], picks=10) < 1e-4


def test_clamped_scores_pass_no_gradient():
    # positive p0(c0,c1) proves through p0(c0,c0) at K = exp(-0.09) >= 1 - c;
    # the only unknown corruptions, p0(c2,c1) and p0(c0,c2), prove at
    # K <= exp(-9) <= c; with c = 0.3 every clamp is active
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [0.3, 0.0], [3.0, 0.0])
    kb, store = make_package([(0, 0, 0)], [], Ep, Ec)
    known = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 1)})
    goal = Atom(0, (0, 1))
    clamped = RunConfig(max_depth=1, min_score=0.0, prover_negatives=2,
                        embedding_dim=2, score_clamp=0.3)
    loss, grads = loss_and_grads(kb, store, goal, clamped, known)
    assert loss == pytest.approx(-3.0 * np.log(0.7), abs=1e-12)
    assert list(grads) == [CONST_EMB]  # entries touched, gradient zero
    assert not np.any(grads[CONST_EMB])
    # at the default clamp the same proofs do pass gradient
    free = dataclasses.replace(clamped, score_clamp=1e-7)
    _, grads = loss_and_grads(kb, store, goal, free, known)
    assert np.any(grads[CONST_EMB])


def test_training_loss_value_and_masking():
    # single fact proves itself with score 1 unless masked out
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [3.0, 0.0], [0.0, 3.0])
    kb, store = make_package([(0, 0, 1)], [], Ep, Ec)
    cfg = RunConfig(max_depth=1, min_score=0.3, prover_negatives=1,
                    embedding_dim=2)
    hq = HighQualityBuffer()
    counters = Counters()
    goal = Atom(0, (0, 1))
    loss, grads, stats = training_loss([goal], kb.full_view(), store, cfg, hq,
                                       counters, kb.fact_set,
                                       np.random.default_rng(3))
    # the positive is masked: no other path, so its score clamps to eps
    assert stats["mean_pos"] == 0.0
    assert loss >= -np.log(cfg.score_clamp) - 1e-6
    assert 0 not in hq  # the masked fact never established for its own goal


def test_training_loss_drops_exhausted_corruptions():
    # over two constants every corruption of p0(c0, c1) is a known fact, so
    # no negative is proved and only the positive term remains
    Ep = place([0.0, 0.0])
    Ec = place([0.0, 0.0], [0.3, 0.0])
    kb, store = make_package([(0, 0, 1), (0, 1, 1), (0, 0, 0)], [], Ep, Ec)
    cfg = RunConfig(max_depth=1, min_score=0.0, prover_negatives=3,
                    embedding_dim=2)
    counters = Counters()
    loss, grads, stats = training_loss([Atom(0, (0, 1))], kb.full_view(),
                                       store, cfg, HighQualityBuffer(),
                                       counters, kb.fact_set,
                                       np.random.default_rng(3))
    assert stats["mean_neg"] == 0.0
    assert counters.traversed == kb.n_items  # the positive's proof alone
    assert loss == pytest.approx(-np.log(stats["mean_pos"]), abs=1e-9)


def test_training_loss_no_mask_when_goal_not_a_fact():
    Ep = place([0.0, 0.0], [0.2, 0.0])
    Ec = place([0.0, 0.0], [3.0, 0.0])
    kb, store = make_package([(0, 0, 1)], [], Ep, Ec)
    cfg = RunConfig(max_depth=1, min_score=0.0, prover_negatives=0,
                    embedding_dim=2)
    goal = Atom(1, (0, 1))  # derivable but not stored
    loss, grads, stats = training_loss([goal], kb.full_view(), store, cfg,
                                       HighQualityBuffer(), Counters(),
                                       kb.fact_set, np.random.default_rng(3))
    assert stats["mean_pos"] == pytest.approx(np.exp(-0.04), abs=1e-12)
    assert loss == pytest.approx(-np.log(np.exp(-0.04)), abs=1e-9)

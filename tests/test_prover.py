import dataclasses
import gc

import numpy as np
import pytest

from selprover.autodiff import ParameterStore
from selprover.config import RunConfig
from selprover.kb import (SHAPE_CHAIN, SHAPE_IMPLIES, SHAPE_INVERSE, Atom,
                          KnowledgeBase, Rule, Vocabulary)
from selprover import accel, prover
from selprover.pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from selprover.prover import (ENTRY_PRED, Counters, HighQualityBuffer,
                              ProverConfig, build_templates, kernel_tables,
                              pred_matrix, prove_goal, slot_count,
                              template_rules, training_loss)

from oracles import (known_triples, oracle_prove, random_proof_case,
                     rule_atoms, training_loss_reference)


def make_package(facts, rules, Ep, Ec):
    vocab = Vocabulary()
    for p in range(Ep.shape[0]):
        vocab.intern_predicate(f"p{p}")
    for c in range(Ec.shape[0]):
        vocab.intern_constant(f"c{c}")
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    kb = KnowledgeBase(vocab, atoms, rules)
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
    rules = [Rule(SHAPE_CHAIN, 1, 0, 0)]
    kb, store = make_package(facts, rules, Ep, Ec)
    res = prove_goal(Atom(1, (0, 2)), kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.1))
    assert res.score == pytest.approx(1.0, abs=1e-12)


def counting_sweeps(monkeypatch) -> list[int]:
    """Count ``accel.sweep_scores`` calls: one per or-step actually run."""
    calls = [0]
    sweep = accel.sweep_scores

    def counted(*args):
        calls[0] += 1
        return sweep(*args)

    monkeypatch.setattr(accel, "sweep_scores", counted)
    return calls


@pytest.mark.parametrize("beam", [0, 1, 2])
def test_proof_leaves_no_reference_cycle(monkeypatch, beam):
    # the search closures refer to each other; left as a cycle, they would
    # keep every view and kernel table alive until the next collection. The
    # rule is listed twice, so every beam reuses its sub-steps from the memo.
    Ep = place([0.0, 0.0], [4.0, 0.0])
    Ec = place([0.0, 0.0], [0.0, 3.0], [3.0, 0.0])
    kb, store = make_package([(0, 0, 1), (0, 1, 2)],
                             [Rule(SHAPE_CHAIN, 1, 0, 0)] * 2, Ep, Ec)
    view = kb.full_view()
    sweeps = counting_sweeps(monkeypatch)
    counters = Counters()
    gc.collect()
    gc.disable()
    try:
        res = prove_goal(Atom(1, (0, 2)), view, store,
                         ProverConfig(max_depth=2, beam=beam),
                         HighQualityBuffer(), counters)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.score == pytest.approx(1.0, abs=1e-12)
    or_steps = counters.traversed // kb.n_items
    assert sweeps[0] < or_steps


def test_goal_must_be_ground():
    Ep = place([0.0])
    Ec = place([0.0])
    kb, store = make_package([(0, 0, 0)], [], Ep, Ec)
    with pytest.raises(ValueError):
        prove_goal(Atom(0, (-1, 0)), kb.full_view(), store, ProverConfig())


# --- oracle equivalence ----------------------------------------------------


def run_both(facts, rules, Ep, Ec, goal, threshold, depth=2, exclude=-1):
    kb, store = make_package(facts, rules, Ep, Ec)
    counters = Counters()
    res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(), store,
                     ProverConfig(max_depth=depth, min_score=threshold),
                     hq=HighQualityBuffer(), counters=counters,
                     exclude_fact=exclude)
    best, stats = oracle_prove(goal, facts, [rule_atoms(r) for r in rules],
                               Ep, Ec, depth, threshold, exclude_fact=exclude)
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


def test_depth_zero_kills_nonempty_bodies():
    Ep = place([0.0, 0.0], [0.0, 0.1])
    Ec = place([0.0, 0.0], [1.0, 0.0])
    facts = [(0, 0, 1)]
    rules = [Rule(SHAPE_IMPLIES, 1, 0)]
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
    rules = [Rule(SHAPE_IMPLIES, 1, 0)]
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


def test_beam_matches_oracle_with_harvest():
    rng = np.random.default_rng(57)
    cut = 0
    for _ in range(40):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        kb, store = make_package(facts, rules, Ep, Ec)
        goal_atom = Atom(goal[0], (goal[1], goal[2]))
        searches = set()
        for beam in (0, 1, 2, 3):
            hq, counters = HighQualityBuffer(), Counters()
            res = prove_goal(goal_atom, kb.full_view(), store,
                             ProverConfig(max_depth=2, min_score=thr,
                                          beam=beam),
                             hq=hq, counters=counters)
            best, stats = oracle_prove(goal, facts,
                                       [rule_atoms(r) for r in rules], Ep, Ec,
                                       2, thr, beam=beam)
            assert res.score == pytest.approx(best, abs=1e-9)
            assert res.n_proofs == len(stats.scores)
            assert counters.established == stats.established
            assert counters.traversed == stats.or_calls * kb.n_items
            assert hq.items.keys() == stats.harvest.keys()
            for item, (score, level) in stats.harvest.items():
                assert hq.items[item].score == pytest.approx(score, abs=1e-9)
                assert hq.items[item].level == level
            # both sides finish an or-step before the steps past it
            assert list(hq.items) == list(stats.harvest)
            searches.add((len(stats.scores), stats.or_calls))
        cut += len(searches) > 1
    assert cut >= 10  # the sample has searches a narrow beam truncates


def repeated_rule_cases(rng, n):
    """Random template KBs with every rule listed twice, so that
    sub-steps repeat with equal incoming states. In every third case, when
    it has rules, the first rule gets a head predicate of its own whose
    kernel row is NaN; no fact or body reads that row."""
    for i in range(n):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        nan_head = bool(rules) and i % 3 == 0
        if nan_head:
            rules[0] = rules[0]._replace(head=len(Ep))
            Ep = np.vstack([Ep, rng.normal(0.0, 0.9, (1, Ep.shape[1]))])
        rules = rules * 2
        kb, store = make_package(facts, rules, Ep, Ec)
        Kp, Kc = kernel_tables(store)
        if nan_head:
            Kp[-1] = np.nan
        yield facts, rules, kb, store, (Kp, Kc), goal, thr


def prover_and_oracle(facts, rules, kb, store, tables, goal, thr, depth,
                      beam, exclude=-1):
    """One proof as the stream prover and the enumeration oracle report it:
    score, bottleneck entry, proof count, traversed, established, and the
    harvest as (item, score, level) in insertion order."""
    hq, counters = HighQualityBuffer(), Counters()
    res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(), store,
                     ProverConfig(max_depth=depth, min_score=thr, beam=beam),
                     hq=hq, counters=counters, tables=tables,
                     exclude_fact=exclude)
    best, stats = oracle_prove(goal, facts, [rule_atoms(r) for r in rules],
                               None, None, depth, thr, exclude_fact=exclude,
                               beam=beam, tables=tables)
    first = stats.scores.index(best) if best > 0 else None
    ours = (res.score, res.state.entry if res.state else None, res.n_proofs,
            counters.traversed, counters.established,
            [(i, e.score, e.level) for i, e in hq.items.items()])
    theirs = (best, None if first is None else stats.entries[first],
              len(stats.scores), stats.or_calls * kb.n_items,
              stats.established,
              [(i, *v) for i, v in stats.harvest.items()])
    return ours, theirs, stats.or_calls


def test_repeated_beamed_steps_match_oracle(monkeypatch):
    sweeps = counting_sweeps(monkeypatch)
    rng = np.random.default_rng(61)
    or_steps = 0
    for case in repeated_rule_cases(rng, 24):
        facts = case[0]
        for exclude in (-1, int(rng.integers(len(facts)))):
            for depth in (1, 2):
                for beam in (0, 1, 2, 3):
                    ours, theirs, calls = prover_and_oracle(
                        *case, depth, beam, exclude)
                    assert ours == theirs
                    or_steps += calls
    # the memo runs a repeated or-step once
    assert sweeps[0] < or_steps


def test_memo_keys_on_the_bottleneck_entry():
    # g(a,b) has two chains, through q1 and q2. Each reaches s(a, Z) at depth
    # 0 through a head at kernel 0.5, with equal scores and different
    # entries. Under q1, the fact q1(a,c) outranks s's state and beam 1 cuts
    # it (c leads nowhere); under q2 that state survives to prove the goal,
    # so its entry must be q2's head, not q1's.
    g, q1, q2, s_, t, ha, hb = range(7)
    a, b, c, d = range(4)
    facts = [(q1, a, c), (s_, a, d), (t, d, b)]
    rules = [Rule(SHAPE_CHAIN, g, q1, t), Rule(SHAPE_CHAIN, g, q2, t),
             Rule(SHAPE_IMPLIES, ha, s_), Rule(SHAPE_IMPLIES, hb, s_)]
    kb, store = make_package(facts, rules, np.zeros((7, 1)), np.zeros((4, 1)))
    Kp = np.eye(7)
    Kp[ha, q1] = Kp[hb, q2] = 0.5
    ours, theirs, _ = prover_and_oracle(facts, rules, kb, store,
                                        (Kp, np.eye(4)), (g, a, b), 0.1,
                                        depth=2, beam=1)
    assert ours == theirs
    assert ours[:2] == (0.5, (ENTRY_PRED, hb, q2))


def test_memo_lives_for_one_proof():
    # proofs of the same goal in a row, over other tables or with another
    # excluded fact, each match the oracle as if run alone
    rng = np.random.default_rng(62)
    for facts, rules, kb, store, tables, goal, thr in repeated_rule_cases(
            rng, 12):
        moved = ParameterStore()
        moved.add(PRED_EMB, store[PRED_EMB]
                  + rng.normal(0.0, 0.3, store[PRED_EMB].shape))
        moved.add(CONST_EMB, store[CONST_EMB])
        Kp, Kc = kernel_tables(moved)
        Kp[np.isnan(tables[0])] = np.nan
        for tabs, exclude in ((tables, -1), ((Kp, Kc), -1), (tables, 0),
                              (tables, -1)):
            ours, theirs, _ = prover_and_oracle(facts, rules, kb, store, tabs,
                                                goal, thr, 2, 2, exclude)
            assert ours == theirs


# --- rule-head screen ------------------------------------------------------


def test_screen_keeps_a_rule_exactly_at_min_score():
    # h(X,Y) :- p(X,Y) over p(a,b) for goal g(a,b); only Kp[h, g] < 1, and
    # p sits far from g, so the fact sweep of the goal itself finds nothing
    Ep = place([0.0, 0.0], [0.5, 0.0], [5.0, 0.0])  # g, h, p
    Ec = place([0.0, 0.0], [3.0, 0.0])  # a, b
    kb, store = make_package([(2, 0, 1)], [Rule(SHAPE_IMPLIES, 1, 2)], Ep, Ec)
    v = float(kernel_tables(store)[0][1, 0])
    assert 0.7 < v < 0.8
    goal = Atom(0, (0, 1))
    hq, counters = HighQualityBuffer(), Counters()
    res = prove_goal(goal, kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=v), hq=hq,
                     counters=counters)
    assert res.score == v
    assert res.n_proofs == 1
    assert counters.established == 2  # the rule head, then the body fact
    assert hq.items[kb.n_facts].level == 1
    hq, counters = HighQualityBuffer(), Counters()
    above = prove_goal(goal, kb.full_view(), store,
                       ProverConfig(max_depth=2,
                                    min_score=float(np.nextafter(v, 1.0))),
                       hq=hq, counters=counters)
    assert above.score == 0.0
    assert above.n_proofs == 0
    assert counters.established == 0
    assert len(hq) == 0


def test_screened_rules_are_never_unified():
    # six rules whose heads sit far from the goal predicate
    Ep = place([0.0, 0.0], [4.0, 0.0], [0.0, 4.0])
    Ec = place([0.0, 0.0], [1.0, 0.0])
    facts = [(0, 0, 1), (1, 1, 0)]
    rules = [Rule(SHAPE_IMPLIES, h, 0) for h in (1, 2)] * 3
    kb, store = make_package(facts, rules, Ep, Ec)
    hq, counters = HighQualityBuffer(), Counters()
    res = prove_goal(Atom(0, (1, 0)), kb.full_view(), store,
                     ProverConfig(max_depth=2, min_score=0.1), hq=hq,
                     counters=counters)
    assert counters.traversed == kb.n_items == 8  # one or-step, every item
    assert counters.established == 1  # the soft match of fact 0 alone
    assert list(hq.items) == [0]
    assert res.score == pytest.approx(np.exp(-1.0), abs=1e-12)
    # the near heads are established and harvested, the far ones are not
    hq = HighQualityBuffer()
    prove_goal(Atom(1, (1, 0)), kb.full_view(), store,
               ProverConfig(max_depth=2, min_score=0.1), hq=hq)
    rules_hit = [i - kb.n_facts for i in hq.items if i >= kb.n_facts]
    assert sorted(rules_hit) == [0, 2, 4]


def test_nan_head_kernel_acts_like_one():
    # heads get predicates of their own, so a head's Kp row is read only by
    # the rule-head gather, never by a fact sweep
    rng = np.random.default_rng(59)
    changed = 0
    for _ in range(30):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(rng)
        if not rules:
            continue
        n_pred = len(Ep)
        rules = [r._replace(head=n_pred + j) for j, r in enumerate(rules)]
        Ep = np.vstack([Ep, rng.normal(0.0, 0.9, (len(rules), Ep.shape[1]))])
        kb, store = make_package(facts, rules, Ep, Ec)
        Kp, Kc = kernel_tables(store)
        goal_atom = Atom(goal[0], (goal[1], goal[2]))
        for depth in (1, 2):
            for beam in (0, 2):
                runs = []
                for fill in (np.nan, 1.0, None):
                    K = Kp.copy()
                    if fill is not None:
                        K[n_pred] = fill
                    hq, counters = HighQualityBuffer(), Counters()
                    res = prove_goal(goal_atom, kb.full_view(), store,
                                     ProverConfig(max_depth=depth,
                                                  min_score=thr, beam=beam),
                                     hq=hq, counters=counters, tables=(K, Kc))
                    runs.append((res.score,
                                 res.state.entry if res.state else None,
                                 res.n_proofs, counters.traversed,
                                 counters.established,
                                 [(i, e.score, e.level, e.goal_rel)
                                  for i, e in hq.items.items()]))
                assert runs[0] == runs[1]
                changed += runs[0] != runs[2]
    assert changed >= 40  # searches the NaN head takes part in


def test_prove_goal_rejects_depth_three():
    kb, store = make_package([(0, 0, 1)], [], place([0.0]), place([0.0], [1.0]))
    with pytest.raises(ValueError, match="depth"):
        prove_goal(Atom(0, (0, 1)), kb.full_view(), store,
                   ProverConfig(max_depth=3))


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
    assert slot_count(rules) == n_slots
    assert store[SLOT_EMB].shape == (n_slots, cfg.embedding_dim)
    # the slots are ids past the real predicates, never interned
    assert vocab.n_predicates == 4
    # slot ids are dense, after the real predicates in rule order, head,
    # then body1, then body2
    seen = [p for r in rules for p in r[1:] if p >= 0]
    assert seen == list(range(4, 4 + n_slots))
    assert [vocab.predicate_name(p) for p in seen] == [
        f"#{k}" for k in range(n_slots)]
    assert vocab.predicate_name(3) == "r3"


def test_template_slot_scale_tracks_pretrained_spread():
    vocab, store, cfg, rules = template_setup(seed=9)
    ratio = np.std(store[SLOT_EMB]) / np.std(store[PRED_EMB])
    assert 0.7 < ratio < 1.4


def test_templates_refuse_double_build():
    vocab, store, cfg, rules = template_setup()
    with pytest.raises(ValueError):
        build_templates(vocab, store, cfg, np.random.default_rng(0))


def test_template_rules_leave_the_vocabulary_alone():
    vocab, _, cfg, rules = template_setup()
    assert template_rules(vocab, cfg) == rules
    assert template_rules(vocab, cfg) == rules
    assert vocab.n_predicates == 4


def test_template_builds_share_one_vocabulary():
    # each store gets the same rules and slot rows over one vocabulary, and
    # a refused build leaves its store's slots as they were
    vocab, store, cfg, rules = template_setup()
    other = ParameterStore()
    other.add(PRED_EMB, np.ones((4, cfg.embedding_dim)))
    assert build_templates(vocab, other, cfg,
                           np.random.default_rng(0)) == rules
    assert other[SLOT_EMB].shape == store[SLOT_EMB].shape
    before = other[SLOT_EMB].copy()
    with pytest.raises(ValueError, match="already built"):
        build_templates(vocab, other, cfg, np.random.default_rng(1))
    np.testing.assert_array_equal(other[SLOT_EMB], before)


def test_prove_through_template_matches_oracle():
    vocab, store, cfg, rules = template_setup(seed=21)
    facts = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 3, 4)]
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    kb = KnowledgeBase(vocab, atoms, rules)
    Ep = pred_matrix(store)
    Ec = store[CONST_EMB]
    rl = [rule_atoms(r) for r in rules]
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
    rules = [Rule(SHAPE_CHAIN, 4, 2, 3)]
    kb, store = make_package(facts, rules, Ep, Ec)
    return kb, store, Atom(4, (0, 2))


def loss_and_grads(kb, store, goal, cfg, known=None, seed=17):
    """training_loss of one goal with a fixed corruption stream."""
    loss, grads, _ = training_loss(
        [goal], kb.full_view(), store, cfg, HighQualityBuffer(), Counters(),
        known_triples(kb) if known is None else known,
        np.random.default_rng(seed))
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
    rule = Rule(SHAPE_IMPLIES, 2, 3)
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
                                       counters, known_triples(kb),
                                       np.random.default_rng(3))
    # the positive is masked: no other path, so its score clamps to eps
    assert stats["mean_pos"] == 0.0
    # one corruption, too far from the fact to clear the threshold
    assert [stats[k] for k in ("goals_pos", "proved_pos", "goals_neg",
                               "proved_neg")] == [1, 0, 1, 0]
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
                                       counters, known_triples(kb),
                                       np.random.default_rng(3))
    assert stats["mean_neg"] == 0.0
    assert [stats[k] for k in ("goals_pos", "proved_pos", "goals_neg",
                               "proved_neg")] == [1, 1, 0, 0]
    assert counters.traversed == kb.n_items  # the positive's proof alone
    assert loss == pytest.approx(-np.log(stats["mean_pos"]), abs=1e-9)


def test_training_loss_matches_goal_by_goal_sampling(monkeypatch):
    # p0 holds 8 of its 9 triples over three constants, so most draws are
    # rejected, and a p0 goal without constant 2 in it has every corruption
    # known, so its draws run out and are dropped
    rng = np.random.default_rng(8)
    Ep = rng.normal(0.0, 0.4, size=(3, 2))
    Ec = rng.normal(0.0, 0.4, size=(3, 2))
    facts = [(0, s, o) for s in range(3) for o in range(3) if (s, o) != (2, 2)]
    facts += [(1, 0, 1), (1, 2, 0), (2, 1, 2)]
    rules = [Rule(SHAPE_CHAIN, 2, 0, 1), Rule(SHAPE_INVERSE, 1, 0)]
    kb, store = make_package(facts, rules, Ep, Ec)
    positives = [Atom(p, (s, o)) for p, s, o in facts[::2]]
    cfg = RunConfig(max_depth=2, min_score=0.1, prover_negatives=3,
                    embedding_dim=2)
    proved = []
    prove = prover.prove_goal

    def spy(goal, *args, **kwargs):
        proved.append((goal, kwargs.get("exclude_fact", -1)))
        return prove(goal, *args, **kwargs)

    monkeypatch.setattr(prover, "prove_goal", spy)
    runs = []
    for loss_fn in (training_loss, training_loss_reference):
        proved = []
        hq, counters, draws = HighQualityBuffer(), Counters(), \
            np.random.default_rng(5)
        out = loss_fn(positives, kb.full_view(), store, cfg, hq, counters,
                      known_triples(kb), draws)
        runs.append((out, proved, hq.items, counters,
                     draws.bit_generator.state))
    (loss, grads, stats), proved, hq, counters, state = runs[0]
    (loss_r, grads_r, stats_r), proved_r, hq_r, counters_r, state_r = runs[1]
    assert 0 < stats["goals_neg"] < 3 * len(positives)  # some rows dropped
    assert stats["proved_neg"] > 0
    assert proved == proved_r
    assert loss == loss_r
    assert list(grads) == list(grads_r)
    for name in grads:
        np.testing.assert_array_equal(grads[name], grads_r[name])
    assert stats == stats_r
    assert (hq, counters, state) == (hq_r, counters_r, state_r)


def test_training_loss_no_mask_when_goal_not_a_fact():
    Ep = place([0.0, 0.0], [0.2, 0.0])
    Ec = place([0.0, 0.0], [3.0, 0.0])
    kb, store = make_package([(0, 0, 1)], [], Ep, Ec)
    cfg = RunConfig(max_depth=1, min_score=0.0, prover_negatives=0,
                    embedding_dim=2)
    goal = Atom(1, (0, 1))  # derivable but not stored
    loss, grads, stats = training_loss([goal], kb.full_view(), store, cfg,
                                       HighQualityBuffer(), Counters(),
                                       known_triples(kb),
                                       np.random.default_rng(3))
    assert stats["mean_pos"] == pytest.approx(np.exp(-0.04), abs=1e-12)
    assert (stats["goals_pos"], stats["proved_pos"]) == (1, 1)
    assert loss == pytest.approx(-np.log(np.exp(-0.04)), abs=1e-9)

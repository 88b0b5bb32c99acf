import numpy as np
import pytest

from selprover.evaluate import (EfficiencyRecord, RankRecord, compute_auc_pr,
                                compute_efficiency, compute_mrr_hits,
                                evaluate_ranking, pooled_region_auc_pr)
from selprover.kb import Atom

from oracles import auc_pr_bruteforce, rank_filtered


class FakeScorer:
    """Fixed score vectors per (relation, side, argument)."""

    def __init__(self, tails, heads):
        self._tails = tails
        self._heads = heads

    def score_tails(self, rel, subj):
        return np.asarray(self._tails[(rel, subj)], dtype=np.float64)

    def score_heads(self, rel, obj):
        return np.asarray(self._heads[(rel, obj)], dtype=np.float64)


def one_sided(fact, tail_scores, n_consts):
    """Scorer + filter set leaving only tail corruptions of the fact live."""
    rel, (subj, obj) = fact.pred, fact.args
    known = frozenset((rel, c, obj) for c in range(n_consts) if c != subj)
    scorer = FakeScorer({(rel, subj): tail_scores},
                        {(rel, obj): np.zeros(n_consts)})
    return scorer, known


def test_rank_strictly_highest_is_one():
    fact = Atom(0, (0, 1))
    scorer, known = one_sided(fact, [0.0, 0.9, 0.3, 0.2, 0.1], 5)
    rec = evaluate_ranking([fact], scorer, known)[0]
    assert rec.rank == 1
    assert rec.candidate_count == 4


def test_rank_tie_rule_rounds_down():
    fact = Atom(0, (0, 1))
    scorer, known = one_sided(fact, [0.5, 0.5, 0.1, 0.1, 0.1], 5)
    # tied with one corruption, none above: floor(1/2) adds nothing
    assert evaluate_ranking([fact], scorer, known)[0].rank == 1
    scorer, known = one_sided(fact, [0.5, 0.5, 0.5, 0.1, 0.1], 5)
    assert evaluate_ranking([fact], scorer, known)[0].rank == 2


def test_rank_counting_example():
    fact = Atom(0, (0, 1))
    scorer, known = one_sided(fact, [0.9, 0.5, 0.8, 0.3, 0.1], 5)
    rec = evaluate_ranking([fact], scorer, known)[0]
    assert rec.rank == 3
    assert rec.candidate_count == 4


def test_rank_uses_both_argument_slots():
    fact = Atom(0, (0, 1))
    tails = {(0, 0): [0.0, 0.5, 0.9, 0.1]}       # one tail corruption above
    heads = {(0, 1): [0.5, 0.0, 0.7, 0.2]}       # one head corruption above
    rec = evaluate_ranking([fact], FakeScorer(tails, heads), frozenset())[0]
    assert rec.candidate_count == 6
    assert rec.rank == 3


def test_rank_filters_known_facts():
    fact = Atom(0, (0, 1))
    known = frozenset({(0, 0, 2), (0, 3, 1)})    # both high scorers are real
    tails = {(0, 0): [0.0, 0.5, 0.9, 0.1]}
    heads = {(0, 1): [0.5, 0.0, 0.2, 0.7]}
    rec = evaluate_ranking([fact], FakeScorer(tails, heads), known)[0]
    assert rec.candidate_count == 4
    assert rec.rank == 1


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        tails = rng.uniform(0, 1, n)
        heads = rng.uniform(0, 1, n)
        fact = Atom(0, (int(rng.integers(n)), int(rng.integers(n))))
        heads[fact.args[0]] = tails[fact.args[1]]
        base = evaluate_ranking(
            [fact], FakeScorer({(0, fact.args[0]): tails},
                               {(0, fact.args[1]): heads}), frozenset())[0]
        warped = evaluate_ranking(
            [fact], FakeScorer({(0, fact.args[0]): 3.0 * tails + 1.0},
                               {(0, fact.args[1]): 3.0 * heads + 1.0}),
            frozenset())[0]
        assert warped.rank == base.rank
        assert warped.candidate_count == base.candidate_count


def test_mrr_hits_arithmetic():
    records = [RankRecord(Atom(0, (0, 0)), r, 10) for r in (1, 2, 4)]
    m = compute_mrr_hits(records)
    assert m["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
    assert m["hits@1"] == pytest.approx(1 / 3)
    assert m["hits@3"] == pytest.approx(2 / 3)
    assert m["hits@10"] == 1.0
    assert m["hits@1"] <= m["hits@3"] <= m["hits@10"]
    perfect = compute_mrr_hits([RankRecord(Atom(0, (0, 0)), 1, 5)] * 4)
    assert perfect["mrr"] == 1.0 and perfect["hits@10"] == 1.0
    with pytest.raises(ValueError, match="zero"):
        compute_mrr_hits([])


def test_auc_pr_separable_and_edge_cases():
    assert compute_auc_pr([0.9, 0.1], [1, 0]) == pytest.approx(1.0)
    assert compute_auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == \
        pytest.approx(1.0)
    # tied scores enter the sweep together
    assert compute_auc_pr([0.5, 0.5], [1, 0]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="positive"):
        compute_auc_pr([0.3, 0.2], [0, 0])
    with pytest.raises(ValueError, match="vectors"):
        compute_auc_pr([0.3, 0.2], [1])


def test_auc_pr_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 65))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # force tie groups
        got = compute_auc_pr(scores, labels)
        want = auc_pr_bruteforce(scores, labels)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= 1.0


def test_efficiency_ratio_and_utilization():
    model = [EfficiencyRecord(50, 20, 10.0), EfficiencyRecord(50, 5, 30.0)]
    base = [EfficiencyRecord(100, 25, 40.0), EfficiencyRecord(100, 0, 40.0)]
    out = compute_efficiency(model, base)
    assert out["attp_ratio"] == pytest.approx(0.5)
    assert out["utilization"] == pytest.approx(0.25)
    assert out["utilization_baseline"] == pytest.approx(0.125)
    same = compute_efficiency(base, base)
    assert same["attp_ratio"] == pytest.approx(1.0)


def test_efficiency_error_cases():
    rec = EfficiencyRecord(100, 25, 1.0)
    with pytest.raises(ValueError, match="records"):
        compute_efficiency([], [rec])
    with pytest.raises(ValueError, match="traversed"):
        compute_efficiency([EfficiencyRecord(0, 0, 1.0)], [rec])
    with pytest.raises(ValueError, match="exceed"):
        EfficiencyRecord(10, 11, 1.0)


def test_evaluate_ranking_runs_per_fact():
    facts = [Atom(0, (0, 1)), Atom(0, (1, 0))]
    tails = {(0, 0): [0.0, 0.9, 0.1], (0, 1): [0.8, 0.0, 0.1]}
    heads = {(0, 1): [0.9, 0.2, 0.1], (0, 0): [0.3, 0.8, 0.1]}
    records = evaluate_ranking(facts, FakeScorer(tails, heads), frozenset())
    assert [r.fact for r in records] == facts
    assert all(1 <= r.rank <= r.candidate_count + 1 for r in records)


def test_evaluate_ranking_matches_scalar_reference():
    # 2 * 2500 candidates a query puts 50 queries in a block, so 160 facts
    # span a one-fact first block, three full blocks and a short last one
    rng = np.random.default_rng(20)
    n, n_rel = 2500, 3
    facts = [Atom(int(rng.integers(n_rel)), (int(rng.integers(n)),
                                             int(rng.integers(n))))
             for _ in range(150)]
    facts += [Atom(int(rng.integers(n_rel)), (c, c))
              for c in rng.integers(n, size=10)]
    rng.shuffle(facts)
    # two decimals force ties with the fact's own score
    tails = {(f.pred, f.args[0]): np.round(rng.uniform(0, 1, n), 2)
             for f in facts}
    heads = {(f.pred, f.args[1]): np.round(rng.uniform(0, 1, n), 2)
             for f in facts}
    # half the facts are not known themselves, so only the c != obj and
    # c != subj rules keep the fact out of its own candidates
    known = {f.as_triple() for f in facts[::2]}
    for f in facts:
        p, (s, o) = f.pred, f.args
        known.update((p, s, int(c)) for c in rng.integers(n, size=40))
        known.update((p, int(c), o) for c in rng.integers(n, size=40))
    known = frozenset(known)
    scorer = FakeScorer(tails, heads)
    want = [rank_filtered(f, scorer, known) for f in facts]
    assert evaluate_ranking(facts, scorer, known) == want
    assert any(r.rank > 1 for r in want)


@pytest.mark.parametrize("side", ["tails", "heads"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_evaluate_ranking_rejects_non_finite_score(side, value):
    # nothing compares above or equal to a NaN true-triple score, so the
    # scalar loop ranks its fact first with full MRR credit
    facts = [Atom(0, (0, 1)), Atom(0, (2, 0))]
    rows = {"tails": {(0, 0): [0.0, 0.9, 0.1], (0, 2): [0.3, 0.5, 0.1]},
            "heads": {(0, 1): [0.9, 0.2, 0.1], (0, 0): [0.3, 0.5, 0.1]}}
    # either altered row belongs to the second fact alone
    rows[side][(0, 2) if side == "tails" else (0, 0)][0] = value
    with pytest.raises(ValueError, match=r"args=\(2, 0\)"):
        evaluate_ranking(facts, FakeScorer(rows["tails"], rows["heads"]),
                         frozenset())


def test_pooled_region_auc_matches_direct_computation():
    regions = [3, 4]
    tails = {(1, 0): [0, 0, 0, 0.9, 0.2], (1, 1): [0, 0, 0, 0.3, 0.6]}
    scorer = FakeScorer(tails, {})
    truth = frozenset({(1, 0, 3), (1, 1, 4)})
    got = pooled_region_auc_pr([(1, 0), (1, 1)], regions, scorer, truth)
    want = compute_auc_pr([0.9, 0.2, 0.3, 0.6], [1, 0, 0, 1])
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.0)  # every true region outscores the false

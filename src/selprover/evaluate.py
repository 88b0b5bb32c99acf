"""Ranking metrics, precision-recall area, and search-efficiency measures.

``evaluate_ranking`` ranks a block of facts in one vectorized pass: each
fact's tail and head score rows side by side, known candidates filtered by
one ``searchsorted`` against the sorted key array of ``kb.known_keys``, and
the counts above and tied with the fact's score taken by array comparison.
Mean tie handling is unchanged: ties count half, rounded down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kb import Atom, known_keys


@dataclass(frozen=True, slots=True)
class RankRecord:
    fact: Atom
    rank: int
    candidate_count: int


@dataclass(frozen=True, slots=True)
class EfficiencyRecord:
    traversed: int
    established: int
    wall_ms: float

    def __post_init__(self):
        if self.established > self.traversed:
            raise ValueError(f"established ({self.established}) cannot exceed "
                             f"traversed ({self.traversed})")


def compute_mrr_hits(records: list[RankRecord],
                     ms: tuple[int, ...] = (1, 3, 10)) -> dict[str, float]:
    if not records:
        raise ValueError("cannot compute metrics over zero rank records")
    ranks = np.array([r.rank for r in records], dtype=np.float64)
    out = {"mrr": float(np.mean(1.0 / ranks))}
    for m in ms:
        out[f"hits@{m}"] = float(np.mean(ranks <= m))
    return out


def compute_auc_pr(scores, labels) -> float:
    """Area under the precision-recall curve, step interpolation.

    Thresholds sweep the distinct scores in descending order; tied scores
    enter together. Each threshold contributes its precision times the
    recall gained there.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    npos = int(y.sum())
    if npos == 0:
        raise ValueError("precision-recall area needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    tp = np.cumsum(y)
    fp = np.cumsum(1 - y)
    # last index of each tie group is where the threshold actually cuts
    last = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    precision = tp[last] / (tp[last] + fp[last])
    recall = tp[last] / npos
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


def compute_efficiency(model_records: list[EfficiencyRecord],
                       baseline_records: list[EfficiencyRecord]) -> dict[str, float]:
    """Relative time per iteration and unification hit-rates.

    ``attp_ratio`` below 1 means the model iterates faster than the
    baseline; ``utilization`` is the fraction of traversed knowledge items
    whose unification survived (reported for both sides).
    """
    if not model_records or not baseline_records:
        raise ValueError("efficiency comparison needs records on both sides")

    def utilization(records):
        traversed = sum(r.traversed for r in records)
        if traversed == 0:
            raise ValueError("utilization undefined: nothing was traversed")
        return sum(r.established for r in records) / traversed

    return {
        "attp_ratio": (float(np.mean([r.wall_ms for r in model_records]))
                       / float(np.mean([r.wall_ms for r in baseline_records]))),
        "utilization": utilization(model_records),
        "utilization_baseline": utilization(baseline_records),
    }


def evaluate_ranking(facts: list[Atom], scorer, known: frozenset
                     ) -> list[RankRecord]:
    """Filtered rank of each fact against both argument corruptions.

    Corruptions replace either argument with every constant; candidates that
    are known facts are filtered out. Ties with the fact's own score count
    half (mean tie handling). A non-finite score raises ``ValueError``, since
    a NaN would rank its fact first.
    """
    records: list[RankRecord] = []
    step = 1
    while len(records) < len(facts):
        block = facts[len(records):len(records) + step]
        S = np.array([np.concatenate((scorer.score_tails(f.pred, f.args[0]),
                                      scorer.score_heads(f.pred, f.args[1])))
                      for f in block], dtype=np.float64)
        bad = ~np.isfinite(S).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite score in the rows of "
                             f"{block[int(bad.argmax())]}")
        n = S.shape[1] // 2
        c = np.arange(n)
        p, s, o = np.array([f.as_triple() for f in block], np.int64).T
        # tail corruption (p, s, c), then head corruption (p, c, o)
        cand = np.hstack((((p * n + s) * n)[:, None] + c,
                          (p * n * n + o)[:, None] + c * n))
        keys = known_keys(known, n)
        live = keys[np.searchsorted(keys, cand)] != cand
        live[:, :n] &= c != o[:, None]
        live[:, n:] &= c != s[:, None]
        pivot = S[np.arange(len(block)), o][:, None]
        above = ((S > pivot) & live).sum(axis=1)
        ties = ((S == pivot) & live).sum(axis=1)
        records += [RankRecord(f, int(1 + a + t // 2), int(k)) for f, a, t, k
                    in zip(block, above, ties, live.sum(axis=1))]
        # queries per block: each (queries, 2n) temporary stays near 2 MB
        step = max(1, int(2.5e5 // S.shape[1]))
    return records


def pooled_region_auc_pr(queries: list[tuple[int, int]], region_ids: list[int],
                         scorer, truth: frozenset) -> float:
    """AUC-PR for region-membership queries pooled over all query subjects.

    Each (relation, subject) query is scored against every candidate region;
    labels come from the ground-truth triple set.
    """
    scores: list[float] = []
    labels: list[int] = []
    for rel, subj in queries:
        tails = scorer.score_tails(rel, subj)
        for region in region_ids:
            scores.append(float(tails[region]))
            labels.append(1 if (rel, subj, region) in truth else 0)
    return compute_auc_pr(scores, labels)

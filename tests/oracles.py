"""Reference implementations used to check the fast engines.

Everything here trades speed for obviousness: explicit recursion returning
full result lists, kernels computed straight from embedding rows, no shared
code with the package internals. Knowledge is plain tuples: facts are
``(pred, subj, obj)`` ints, rules are ``(head, body)`` with variables as
negative ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def complex_score(h: int, r: int, t: int, store):
    """Re(<e_h, w_r, conj(e_t)>) for one triple of symbol ids.

    Scalar reference for the scores inside ``pretrain.batch_loss_grad``, read
    straight from the packed [re || im] rows of ``const_emb`` and ``pred_emb``.
    ``store`` may be any mapping of those two names; the score is a numpy
    scalar of the rows' dtype, so extended-precision rows stay extended.
    """
    eh = store["const_emb"][h]
    wr = store["pred_emb"][r]
    et = store["const_emb"][t]
    k = eh.shape[0] // 2
    re_h, im_h = eh[:k], eh[k:]
    re_r, im_r = wr[:k], wr[k:]
    re_t, im_t = et[:k], et[k:]
    return np.sum(re_h * re_r * re_t + im_h * re_r * im_t
                  + re_h * im_r * im_t - im_h * im_r * re_t)


def okernel(E: np.ndarray, i: int, j: int) -> float:
    d = E[i] - E[j]
    return float(np.exp(-np.dot(d, d)))


@dataclass
class OracleStats:
    or_calls: int = 0
    established: int = 0
    scores: list = field(default_factory=list)


def oracle_prove(goal, facts, rules, Ep, Ec, max_depth, threshold,
                 exclude_fact=-1):
    """All completed proof scores of a ground goal, by brute enumeration.

    Returns (best_score, stats); best is 0.0 when nothing completes. The
    semantics mirror the contract the engine must satisfy: min-of-kernels
    scoring, thresholded unification, depth-guarded bodies, hard failure on
    re-binding a locally bound variable to a different constant.
    """
    counter = [0]
    stats = OracleStats()

    def fresh():
        counter[0] += 1
        return -(10_000 + counter[0])

    def walk(t, env):
        while t < 0 and t in env:
            t = env[t]
        return t

    def unify(head, goal_atom, env, score):
        s = min(score, okernel(Ep, head[0], goal_atom[0]))
        local: dict = {}
        for ha_raw, ga_raw in ((head[1], goal_atom[1]), (head[2], goal_atom[2])):
            ha_e = walk(ha_raw, env)
            ga_e = walk(ga_raw, env)
            ha = walk(ha_e, local)
            ga = walk(ga_e, local)
            if ha < 0:
                if ha != ga:
                    local[ha] = ga
            elif ga < 0:
                local[ga] = ha
            elif ha == ga:
                continue
            else:
                if ha_e < 0 or ga_e < 0:
                    return None  # conflicting re-bind inside this unification
                s = min(s, okernel(Ec, ha, ga))
        if s < threshold:
            return None
        stats.established += 1
        return {**env, **local}, s

    def rename(atom, mapping):
        return (atom[0],
                mapping.get(atom[1], atom[1]),
                mapping.get(atom[2], atom[2]))

    def orx(goal_atom, d, env, score):
        stats.or_calls += 1
        out = []
        for i, f in enumerate(facts):
            if i == exclude_fact:
                continue
            r = unify(f, goal_atom, env, score)
            if r is not None:
                out.append(r)
        for head, body in rules:
            vars_here = sorted({t for a in (head, *body) for t in a[1:] if t < 0},
                               reverse=True)
            mapping = {v: fresh() for v in vars_here}
            r = unify(rename(head, mapping), goal_atom, env, score)
            if r is None:
                continue
            env2, s2 = r
            out.extend(andx([rename(b, mapping) for b in body], d, env2, s2))
        return out

    def andx(body, d, env, score):
        if not body:
            return [(env, score)]
        if d <= 0:
            return []
        first = (body[0][0], walk(body[0][1], env), walk(body[0][2], env))
        out = []
        for env2, s2 in orx(first, d - 1, env, score):
            out.extend(andx(body[1:], d, env2, s2))
        return out

    results = orx(goal, max_depth, {}, 1.0)
    stats.scores = [s for _, s in results]
    best = max(stats.scores, default=0.0)
    return best, stats


def random_proof_case(rng: np.random.Generator, max_facts=12, max_rules=3,
                      weird=True):
    """Random tiny knowledge base + goal for engine/oracle comparison.

    Rules are mostly the three template shapes over shared predicate space;
    with ``weird`` enabled a fraction get repeated variables, free body
    variables, or constants in heads, which stresses the hard-failure and
    binding paths.
    """
    n_pred = int(rng.integers(2, 5))
    n_const = int(rng.integers(2, 7))
    dim = int(rng.integers(2, 5))
    # spread out so kernel values vary across (0, 1]
    Ep = rng.normal(0.0, 0.9, size=(n_pred, dim))
    Ec = rng.normal(0.0, 0.9, size=(n_const, dim))
    n_facts = int(rng.integers(1, max_facts + 1))
    seen = set()
    facts = []
    for _ in range(n_facts):
        t = (int(rng.integers(n_pred)), int(rng.integers(n_const)),
             int(rng.integers(n_const)))
        if t not in seen:
            seen.add(t)
            facts.append(t)
    X, Y, Z = -1, -2, -3
    rules = []
    for _ in range(int(rng.integers(0, max_rules + 1))):
        h = int(rng.integers(n_pred))
        b = int(rng.integers(n_pred))
        shape = rng.integers(4 if weird else 3)
        if shape == 0:
            rules.append(((h, X, Y), [(b, X, Y)]))
        elif shape == 1:
            rules.append(((h, X, Y), [(b, Y, X)]))
        elif shape == 2:
            b2 = int(rng.integers(n_pred))
            rules.append(((h, X, Y), [(b, X, Z), (b2, Z, Y)]))
        else:
            kind = rng.integers(3)
            if kind == 0:
                rules.append(((h, X, Y), [(b, Z, Z)]))
            elif kind == 1:
                rules.append(((h, X, X), [(b, X, int(rng.integers(n_const)))]))
            else:
                rules.append(((h, int(rng.integers(n_const)), Y), [(b, Y, Y)]))
    goal = (int(rng.integers(n_pred)), int(rng.integers(n_const)),
            int(rng.integers(n_const)))
    threshold = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
    return facts, rules, Ep, Ec, goal, threshold


def auc_pr_bruteforce(scores, labels) -> float:
    """Area under precision-recall by direct threshold sweep.

    Thresholds are the distinct scores in descending order; each step keeps
    everything at or above it, ties enter together. Area is the step sum
    (R_i - R_{i-1}) * P_i starting from recall 0.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return 0.0
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= t
        tp = int(labels[kept].sum())
        precision = tp / int(kept.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def nns_oracle(anchors: np.ndarray, items: np.ndarray):
    """For each item row, index of the nearest anchor row (Euclidean).

    Quadratic all-pairs distances with a full sort; ties break toward the
    smaller anchor index.
    """
    out = []
    for x in items:
        d = [(float(np.sqrt(np.sum((x - a) ** 2))), i)
             for i, a in enumerate(anchors)]
        d.sort()
        out.append(d[0][1])
    return out

"""Batched exact scoring of ranking queries over template-shaped views.

Ranking wants, for a goal relation r, the best proof score of (r, x, y) for
every anchor x and candidate y. Running the stream prover per triple is
exact but repeats almost all of its work across triples; this module
computes the identical max-min scores as one (C, C) matrix per relation,
given that every rule in the view is one of the three template shapes
(same-direction implication, argument-swapped implication, two-hop chain)
and the proof depth is at most 2.

The matrix is ``prover.prove_goal``'s or-step written as tables. A rule
names only predicates and its head takes both goal arguments, so applying
it binds goal constants strictly and contributes one predicate-kernel
factor; constants meet constant kernels only where a branch unifies a fact.
Min distributes over finite max, so grouping fact sweeps by the stored
constant a free variable binds to turns the nested enumeration into max-min
products of tables indexed by real symbols. A goal on predicate q with
remaining depth d comes in three kinds, one table each:

* ``G``: the ground goal q(x, y), at [x, y];
* ``R``: the goal q(x, Z), at [x, z], where Z binds the stored object z;
* ``L``: the goal q(Z, y), at [z, y], where Z binds the stored subject z.

Facts give each table its base, and each rule whose head kernel against q
reaches the threshold adds its body's table floored by that kernel: an
implication the body's table of the same kind, an inverse its transposed
partner (``G`` for ``G``, ``L`` for ``R``), and a chain the max-min product
of its first body's ``R`` table with its second body's table of the goal's
kind. ``_body`` is the one place a rule body's table is read, by this
recursion and by the walk-back below alike. A chain's first body is the
only place an ``R`` goal starts, and an inverse under it the only place an
``L`` goal starts, so at depth <= 2 an ``L`` goal has depth 0 and runs no
rule; the depth guard keeps it there.

The unification threshold theta (``min_score``) prunes the tables as the
stream prover prunes branches. Scoring does no arithmetic after
``kernel_tables``, only min and max, so every intermediate need only be
theta-faithful: equal to its dense value wherever that value is >= theta,
and below theta everywhere else. Min and max of theta-faithful inputs are
theta-faithful, and so is a max that leaves out every term with a factor
below theta. The max-min products therefore run only over the rows and
inner indices that can reach theta, a rule whose head kernel is below it is
skipped, and each table is cut (entries below theta become 0), which is
the stream's result exactly. At theta = 0 nothing is cut.

Every table is computed once, when a query first needs it, and kept
read-only for the evaluator's lifetime, keyed by (kind, predicate, depth);
a chain's product does not depend on the goal and is keyed by the rule
instead. A tail query (r, a, ?) reads row a of r's ``G`` table at full
depth and a head query (r, ?, a) its column a.

``proof(r, x, y)`` also names the bottleneck kernel entry of [x, y], which
the training loss differentiates for a sampled corruption. With the score
s in hand, the best proofs are those whose factors all reach s, and a
table entry >= s says some proof of its goal is one. The walk-back visits
a goal's facts in view order, then its rules in view order, taking a
chain's inner constants lowest first, and descends into the first
candidate that reaches s: a fact whose factors all do, or a rule whose
head kernel and ``_body`` entry both do. On that proof it returns the first
factor, in path order, equal to s, written in ``prove_goal``'s operand
order, so the stream and the walk-back differentiate the same kernel
value. Where tied proofs exist the two can pick different ones; the stream
visits a chain's inner constants in its first body's proof order instead.
"""

from __future__ import annotations

import numpy as np

from . import accel
from .autodiff import ParameterStore
from .kb import SHAPE_CHAIN, SHAPE_IMPLIES, KBView
from .pretrain import CONST_EMB, PRED_EMB, SLOT_EMB

ENTRY_PRED = 0
ENTRY_CONST = 1
# the goal kind an inverse's body takes: swapping the arguments moves the
# free one to the other side
_SWAP = {"G": "G", "R": "L", "L": "R"}


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


def pred_matrix(store: ParameterStore) -> np.ndarray:
    """All predicate embeddings, trainable template slots appended."""
    if SLOT_EMB in store:
        return np.vstack([store[PRED_EMB], store[SLOT_EMB]])
    return store[PRED_EMB]


def kernel_tables(store: ParameterStore) -> tuple[np.ndarray, np.ndarray]:
    E = pred_matrix(store)
    return accel.kernel_matrix(E, E), accel.kernel_matrix(store[CONST_EMB],
                                                          store[CONST_EMB])


# ---------------------------------------------------------------------------
# theta-pruned kernels: each returns a theta-faithful result
# ---------------------------------------------------------------------------


def _matmat(A: np.ndarray, B: np.ndarray, th: float) -> np.ndarray:
    """Max-min product over the rows of A and the inner indices that reach th."""
    a = A >= th
    rows = a.any(axis=1)
    inner = a.any(axis=0) & (B >= th).any(axis=1)
    out = np.zeros((A.shape[0], B.shape[1]))
    if rows.any() and inner.any():
        out[rows] = accel.maxmin_matmat(A[np.ix_(rows, inner)], B[inner])
    return out


def _group(psim: np.ndarray, soft_idx: np.ndarray, grp_idx: np.ndarray,
           Kc: np.ndarray, th: float) -> np.ndarray:
    """accel.strict_group over the facts whose predicate factor reaches th."""
    keep = psim >= th
    return accel.strict_group(psim[keep], soft_idx[keep], grp_idx[keep], Kc)


def _index(name: str, value: int, size: int) -> int:
    if not 0 <= value < size:
        raise IndexError(f"{name} {value} outside [0, {size})")
    return value


class BatchedEvaluator:
    """Exact per-candidate proof scores for ranking, without the stream.

    Reads each ``kb.Rule``'s template shape and predicates, and requires a
    proof depth of at most 2; a deeper one raises, because a goal could then
    have two free arguments, which no table above holds. A relation's score
    matrix, and every table it is made of, is computed when first needed
    and kept, read-only, for the evaluator's lifetime: one validation in
    ``train``, or one ``eval``.
    """

    def __init__(self, view: KBView, store: ParameterStore, max_depth: int,
                 min_score: float, *,
                 tables: tuple[np.ndarray, np.ndarray] | None = None):
        if max_depth > 2:
            raise ValueError(
                f"batched scoring supports depth <= 2, got {max_depth}")
        self.Kp, self.Kc = kernel_tables(store) if tables is None else tables
        self.min_score = float(min_score)
        self.n_constants = self.Kc.shape[0]
        self._depth = max_depth
        self._facts = tuple(a.astype(np.int64)
                            for a in (view.pred, view.subj, view.obj))
        self._rules = [view.parent.rules[rid] for rid in view.rule_ids]
        self._tables: dict[tuple[str, int, int], np.ndarray] = {}

    def score_tails(self, rel: int, subj: int) -> np.ndarray:
        """Scores of (rel, subj, y) for every constant y."""
        return self._matrix(rel)[_index("subj", subj, self.n_constants)]

    def score_heads(self, rel: int, obj: int) -> np.ndarray:
        """Scores of (rel, x, obj) for every constant x."""
        return self._matrix(rel)[:, _index("obj", obj, self.n_constants)]

    def proof(self, rel: int, x: int, y: int
              ) -> tuple[float, tuple[int, int, int] | None]:
        """Score of (rel, x, y) and the bottleneck entry of its best proof.

        The score is the one ``prove_goal`` finds without a beam. The entry
        is the first factor at that score on the first proof that reaches
        it, or None when no proof scores or every factor is 1.0.
        """
        C = self.n_constants
        score = float(self._matrix(rel)[_index("subj", x, C),
                                        _index("obj", y, C)])
        if not 0.0 < score < 1.0:
            return score, None
        return score, self._walk("G", rel, x, y, self._depth, score)

    def _matrix(self, rel: int) -> np.ndarray:
        """Read-only scores of every (rel, x, y), anchors x by candidates y."""
        return self._table("G", _index("rel", rel, self.Kp.shape[0]),
                           self._depth)

    def _table(self, kind: str, q: int, d: int) -> np.ndarray:
        """The cut, read-only table of goal kind ``kind`` on predicate ``q``
        with remaining depth ``d``; for the kinds "RG" and "RR", chain rule
        ``q``'s product of its bodies' tables at depth ``d``."""
        key = (kind, q, d)
        if key in self._tables:
            return self._tables[key]
        Kc, th = self.Kc, self.min_score
        pred, subj, obj = self._facts
        if kind in ("RG", "RR"):
            _, _, b1, b2 = self._rules[q]
            T = _matmat(self._table("R", b1, d), self._table(kind[1], b2, d),
                        th)
        elif kind == "L":  # depth 0 only, where no rule runs
            T = _group(self.Kp[q][pred], obj, subj, Kc, th).T
        else:
            T = _group(self.Kp[q][pred], subj, obj, Kc, th)
            if kind == "G":
                T = _matmat(T, Kc, th)
            rules = self._rules if d > 0 else []
            for j, (_, head, _, _) in enumerate(rules):
                link = self.Kp[head, q]
                if link >= th:
                    np.maximum(T, np.minimum(link, self._body(kind, j, d - 1)),
                               out=T)
        T[T < th] = 0.0
        T.flags.writeable = False
        self._tables[key] = T
        return T

    def _body(self, kind: str, j: int, d: int) -> np.ndarray:
        """Rule ``j``'s body table for a goal of kind ``kind``, at the body's
        depth ``d``: the one place a rule body's table is read."""
        shape, _, b1, _ = self._rules[j]
        if shape == SHAPE_IMPLIES:
            return self._table(kind, b1, d)
        if shape == SHAPE_CHAIN:
            return self._table("R" + kind, j, d)
        return self._table(_SWAP[kind], b1, d).T

    def _walk(self, kind: str, q: int, a0: int, a1: int, d: int,
              t: float) -> tuple[int, int, int] | None:
        """The entry of the first factor at ``t`` on the first proof of goal
        q(a0, a1) of kind ``kind`` at remaining depth ``d`` whose factors
        all reach ``t``; None when no factor of that proof is at ``t``.

        An ``R`` goal holds in ``a1``, and an ``L`` goal in ``a0``, the
        constant its free variable binds; the goal's table must reach ``t``
        at [a0, a1]. Proofs are visited as facts in view order, then rules
        in view order, and a chain's inner constants lowest first. An entry
        keeps the stream's operand order: (PRED, goal, fact), (PRED, head,
        goal), (CONST, goal arg, fact arg).
        """
        Kp, Kc = self.Kp, self.Kc
        pred, subj, obj = self._facts
        factors = [(Kp[q][pred], ENTRY_PRED, q, pred)]
        ok = factors[0][0] >= t
        for free, a, ids in ((kind == "L", a0, subj), (kind == "R", a1, obj)):
            if free:
                ok &= ids == a
            else:
                factors.append((Kc[a][ids], ENTRY_CONST, a, ids))
                ok &= factors[-1][0] >= t
        hits = np.flatnonzero(ok)
        if hits.size:
            f = hits[0]
            return next(((e, i, int(ids[f]))
                         for sims, e, i, ids in factors if sims[f] <= t),
                        None)
        rules = self._rules if d > 0 else []  # an L goal has depth 0
        for j, (shape, head, b1, b2) in enumerate(rules):
            link = Kp[head, q]
            if link < t or self._body(kind, j, d - 1)[a0, a1] < t:
                continue
            if link <= t:
                return ENTRY_PRED, head, q
            if shape == SHAPE_IMPLIES:
                steps = ((kind, b1, a0, a1),)
            elif shape == SHAPE_CHAIN:
                z = int(np.flatnonzero(
                    (self._table("R", b1, d - 1)[a0] >= t)
                    & (self._table(kind, b2, d - 1)[:, a1] >= t))[0])
                steps = (("R", b1, a0, z), (kind, b2, z, a1))
            else:
                steps = ((_SWAP[kind], b1, a1, a0),)
            for step in steps:
                entry = self._walk(*step, d - 1, t)
                if entry is not None:
                    return entry
            return None
        raise RuntimeError(f"no proof of {kind} goal {q}({a0}, {a1}) "
                           f"at depth {d} reaches its table's {t}")

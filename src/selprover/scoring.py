"""Batched exact scoring of ranking queries over template-shaped views.

Ranking wants, for a goal relation r, the best proof score of (r, x, y) for
every anchor x and candidate y. Running the stream prover per triple is
exact but repeats almost all of its work across triples; this module
computes the identical max-min scores in closed form, as one (C, C) matrix
per relation, given that every rule in the view is one of the three
template shapes (same-direction implication, argument-swapped implication,
two-hop chain) and the proof depth is at most 2.

Exactness rests on two facts about the search. First, a rule names only
predicates and its head takes both goal arguments, so applying a rule binds
goal constants strictly and contributes exactly one predicate-kernel factor
per rule link; constants meet constant kernels only at the final fact
unifications of each branch. Second, min distributes over finite max, so
grouping fact sweeps by the actual stored constant that a variable binds to
(never by a kernel relay) turns nested enumeration into max-min matrix
products over tables indexed by real symbols.

Proof families at depth 2, each an exact closed form here:

* ``A``: zero, one, or two implication links ending in a fact. Effective
  predicate similarity matrices (SIM) fold the link kernels, tracking the
  argument-swap parity; the goal relation's SIM row makes the same pair
  table over (anchor, candidate) as a chain's second body does.
* ``B``: a top-level chain rule. Its first body resolves the middle
  constant strictly (through a fact, one implication link, or a nested
  chain); its second body is a pair table over (middle, candidate).
* ``C``: one implication link into a chain whose bodies are plain facts.

The unification threshold theta (``min_score``) prunes the closed forms as
the stream prover prunes branches. Scoring does no arithmetic after
``kernel_tables``, only min and max, so every table here need only be
theta-faithful: equal to its dense value wherever that value is >= theta,
and below theta everywhere else. Min and max of theta-faithful inputs are
theta-faithful, and so is a max that leaves out every term with a factor
below theta. The max-min products therefore run only over the rows and
inner indices that can reach theta, and the final cut (scores below theta
become 0) restores the dense result exactly. At theta = 0 nothing is cut.

Only live chains, those with a table entry that reaches theta, are kept,
and their tables stacked, so one max-min product scores every live chain of
a family at once and a dead chain costs nothing.

A relation's matrix holds the score of (r, x, y) at [x, y], computed for
all anchors at once in chunks of anchors that keep temporaries near 2 MB.
A tail query (r, a, ?) reads its row a and a head query (r, ?, a) its
column a, so one set of forward tables serves both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel
from .autodiff import ParameterStore
from .kb import SHAPE_CHAIN, SHAPE_IMPLIES, SHAPE_INVERSE, KBView
from .prover import kernel_tables


# ---------------------------------------------------------------------------
# theta-pruned kernels: each returns a theta-faithful result and makes the
# plain ``accel`` call when nothing can be left out
# ---------------------------------------------------------------------------


def _matmat(A: np.ndarray, B: np.ndarray, th: float) -> np.ndarray:
    """Max-min product over the rows of A and the inner indices that reach th."""
    a = A >= th
    rows = a.any(axis=1)
    inner = a.any(axis=0) & (B >= th).any(axis=1)
    if rows.all() and inner.all():
        return accel.maxmin_matmat(A, B)
    out = np.zeros((A.shape[0], B.shape[1]))
    if rows.any() and inner.any():
        out[rows] = accel.maxmin_matmat(A[np.ix_(rows, inner)], B[inner])
    return out


def _group(psim: np.ndarray, soft_idx: np.ndarray, grp_idx: np.ndarray,
           Kc: np.ndarray, th: float) -> np.ndarray:
    """accel.strict_group over the facts whose predicate factor reaches th."""
    keep = psim >= th
    if keep.all():
        return accel.strict_group(psim, soft_idx, grp_idx, Kc)
    return accel.strict_group(psim[keep], soft_idx[keep], grp_idx[keep], Kc)


def _live(T: np.ndarray, th: float) -> bool:
    return bool((T >= th).any())


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _compose(Kp: np.ndarray, heads: np.ndarray, bodies: np.ndarray,
             S: np.ndarray, th: float) -> np.ndarray:
    """One I-link step: out[q,p] = max_j min(Kp[q, h_j], S[b_j, p])."""
    return _matmat(Kp[:, heads], S[bodies], th)


def _sim_matrices(Kp: np.ndarray, imp_h, imp_b, inv_h, inv_b, depth: int,
                  th: float) -> np.ndarray:
    """Effective predicate similarity through <= depth I-links, as
    [forward | swapped]: column p is a same-direction fact of predicate p,
    column P + p one with its arguments swapped."""
    simF, simR = Kp, np.zeros_like(Kp)
    for _ in range(min(depth, 2)):
        simF, simR = (
            np.maximum(Kp, np.maximum(_compose(Kp, imp_h, imp_b, simF, th),
                                      _compose(Kp, inv_h, inv_b, simR, th))),
            np.maximum(_compose(Kp, imp_h, imp_b, simR, th),
                       _compose(Kp, inv_h, inv_b, simF, th)),
        )
    return np.hstack([simF, simR])


@dataclass(slots=True)
class _Pass:
    """The forward tables of a view.

    Fact arrays list every fact twice, as stored and with its arguments
    swapped: ``col`` indexes a [forward | swapped] similarity row, ``anchor``
    is the argument unified with the query's anchor constant, and ``key`` the
    one the free variable binds to. Chain arrays hold the chains whose first
    body is scored (``hd``); the stacked tables hold live chains only.
    """
    col: np.ndarray       # (2F,) fact column in a [forward | swapped] row
    anchor: np.ndarray    # (2F,)
    key: np.ndarray       # (2F,)
    sim: np.ndarray       # (P, 2P) goal-level predicate similarity
    hd: np.ndarray        # (N,) heads of the scored chains
    body1: np.ndarray     # (N, L) first-body similarity per kept fact
    b1_anchor: np.ndarray  # (L,) facts where some first body reaches theta
    b1_key: np.ndarray    # (L,)
    t_rows: np.ndarray    # (Lt,) rows of hd whose second-body table is live
    T: np.ndarray         # (Lt*C, C) stacked second-body pair tables
    W1: np.ndarray        # (N, Ls): Kp[b1_i, hd_j] for live H2strict chains j
    H2s: np.ndarray       # (Ls, C, C) nested chain, final object strict
    W2t: np.ndarray       # (Lh, N): Kp[b2_i, hd_j] for live H2 chains j
    H2: np.ndarray        # (Lh, C, C) nested chain, candidate side soft
    GI: np.ndarray        # (P, 2Lh): best implies | inverse link into chain j


def _build_pass(Kp: np.ndarray, Kc: np.ndarray, p_idx, s_idx, o_idx,
                imp_h, imp_b, inv_h, inv_b, chains, depth: int, th: float,
                sim: np.ndarray, body: np.ndarray) -> _Pass:
    """``sim`` is ``_sim_matrices`` at ``depth`` and ``body`` one I-link
    shallower (none below depth 2); neither depends on the direction."""
    P = Kp.shape[0]
    C = Kc.shape[0]
    col = np.concatenate([p_idx, p_idx + P])
    anchor = np.concatenate([s_idx, o_idx])
    key = np.concatenate([o_idx, s_idx])
    if depth == 0 or not len(p_idx):
        chains = []
    # second chain body through facts or one I-link, facts taken both ways
    t_live, T = [], []
    for j, (_, _, b2) in enumerate(chains):
        Tj = _matmat(_group(body[b2][col], anchor, key, Kc, th), Kc, th)
        if _live(Tj, th):
            t_live.append(j)
            T.append(Tj)
    # nested chain whose bodies are plain facts
    h2s_live, H2s, h2_live, H2 = [], [], [], []
    if depth >= 2:
        for j, (_, b1, b2) in enumerate(chains):
            Ms1 = _group(Kp[b1][p_idx], s_idx, o_idx, Kc, th)
            Ms2 = _group(Kp[b2][p_idx], s_idx, o_idx, Kc, th)
            H2j = _matmat(Ms1, _matmat(Ms2, Kc, th), th)
            if _live(H2j, th):
                h2_live.append(j)
                H2.append(H2j)
            H2sj = _matmat(Ms1, Ms2, th)
            if _live(H2sj, th):
                h2s_live.append(j)
                H2s.append(H2sj)
    # a live nested chain can sit under any chain's second body
    need = np.arange(len(chains)) if h2_live else np.array(t_live, np.int64)
    ch = np.array(chains, dtype=np.int64).reshape(-1, 3)
    hd, b1, b2 = ch[need, 0], ch[need, 1], ch[need, 2]
    body1 = body[b1][:, col]
    kept = (body1 >= th).any(axis=0)
    hd_h2 = ch[h2_live, 0]

    def stack(tables):
        return np.array(tables) if tables else np.zeros((0, C, C))

    return _Pass(
        col=col, anchor=anchor, key=key, sim=sim, hd=hd,
        body1=body1[:, kept], b1_anchor=anchor[kept], b1_key=key[kept],
        t_rows=np.searchsorted(need, t_live), T=stack(T).reshape(-1, C),
        W1=Kp[np.ix_(b1, ch[h2s_live, 0])], H2s=stack(H2s),
        W2t=Kp[np.ix_(b2, hd_h2)].T.copy(), H2=stack(H2),
        GI=np.hstack([_compose(Kp, imp_h, imp_b, Kp[:, hd_h2], th),
                      _compose(Kp, inv_h, inv_b, Kp[:, hd_h2], th)]))


_BLOCK = 2.5e5  # float64 elements in about 2 MB


def _index(name: str, value: int, size: int) -> int:
    if not 0 <= value < size:
        raise IndexError(f"{name} {value} outside [0, {size})")
    return value


class BatchedEvaluator:
    """Exact per-candidate proof scores for ranking, without the stream.

    Reads each ``kb.Rule``'s template shape and predicates, and requires a
    proof depth of at most 2; a deeper one raises, because only those search
    spaces have the closed forms above. A relation's score matrix is
    computed when it is first queried and kept, read-only, for the
    evaluator's lifetime: one validation in ``train``, or one ``eval``.
    """

    def __init__(self, view: KBView, store: ParameterStore,
                 max_depth: int = 2, min_score: float = 0.1):
        if max_depth > 2:
            raise ValueError(
                f"batched scoring supports depth <= 2, got {max_depth}")
        self.Kp, self.Kc = kernel_tables(store)
        self.min_score = float(min_score)
        self.n_constants = self.Kc.shape[0]
        rules = [view.parent.rules[rid] for rid in view.rule_ids]
        chains = [r[1:] for r in rules if r.shape == SHAPE_CHAIN]
        # implication heads and bodies: imp_h, imp_b, inv_h, inv_b
        links = tuple(np.array([r[k] for r in rules if r.shape == shape],
                               dtype=np.int64)
                      for shape in (SHAPE_IMPLIES, SHAPE_INVERSE)
                      for k in (1, 2))
        th = self.min_score
        sims = (_sim_matrices(self.Kp, *links, max_depth, th),
                _sim_matrices(self.Kp, *links, 1 if max_depth >= 2 else 0, th))
        self._pass = _build_pass(
            self.Kp, self.Kc, view.pred.astype(np.int64),
            view.subj.astype(np.int64), view.obj.astype(np.int64), *links,
            chains, max_depth, th, *sims)
        self._matrices: dict[int, np.ndarray] = {}

    def score_tails(self, rel: int, subj: int) -> np.ndarray:
        """Scores of (rel, subj, y) for every constant y."""
        return self._matrix(rel)[_index("subj", subj, self.n_constants)]

    def score_heads(self, rel: int, obj: int) -> np.ndarray:
        """Scores of (rel, x, obj) for every constant x."""
        return self._matrix(rel)[:, _index("obj", obj, self.n_constants)]

    def _matrix(self, rel: int) -> np.ndarray:
        """Read-only scores of every (rel, x, y), anchors x by candidates y."""
        if rel not in self._matrices:
            M = self._compute(_index("rel", rel, self.Kp.shape[0]))
            M.flags.writeable = False
            self._matrices[rel] = M
        return self._matrices[rel]

    def _compute(self, rel: int) -> np.ndarray:
        pa, Kc, th = self._pass, self.Kc, self.min_score
        C, N, Ls, Lh = self.n_constants, len(pa.hd), len(pa.H2s), len(pa.H2)
        psim = pa.sim[rel][pa.col]
        cap = self.Kp[rel][pa.hd]
        chained = _live(cap, th)
        # anchors per chunk: each (anchors, width) temporary stays near 2 MB
        width = max(len(pa.col), C * max(1, N, Ls, 2 * Lh))
        step = max(1, int(_BLOCK // width))
        M = np.empty((C, C))
        for x in range(0, C, step):
            X, n = slice(x, x + step), min(step, C - x)
            # family A: the relation's pair table, then one soft sweep
            V = _matmat(_group(psim, pa.anchor, pa.key, Kc[X], th), Kc, th)
            if chained:
                # family B: B1[i, x, m] is chain i's first body from anchor x
                # to middle m, capped by the link into the chain's head
                B1 = np.array([np.minimum(_group(b, pa.b1_anchor, pa.b1_key,
                                                 Kc[X], th), c)
                               for b, c in zip(pa.body1, cap)])
                if Ls:  # first body through a nested chain
                    B1C = _matmat(pa.W1, pa.H2s[:, X].reshape(Ls, -1), th)
                    np.maximum(B1, np.minimum(B1C.reshape(B1.shape),
                                              cap[:, None, None]), out=B1)
                if len(pa.T):  # second body through facts or one I-link
                    B1T = B1[pa.t_rows].transpose(1, 0, 2).reshape(n, -1)
                    np.maximum(V, _matmat(B1T, pa.T, th), out=V)
                if Lh:  # second body through a nested chain
                    Q = _matmat(pa.W2t, B1.reshape(N, -1), th)
                    Q = Q.reshape(Lh, n, C).transpose(1, 0, 2).reshape(n, -1)
                    np.maximum(V, _matmat(Q, pa.H2.reshape(-1, C), th), out=V)
            if Lh:
                # family C: one implication link into a plain-fact chain
                H2 = np.concatenate([pa.H2[:, X],
                                     pa.H2[:, :, X].transpose(0, 2, 1)])
                CV = _matmat(pa.GI[rel][None], H2.reshape(2 * Lh, -1), th)
                np.maximum(V, CV.reshape(n, C), out=V)
            M[X] = V
        M[M < th] = 0.0
        return M

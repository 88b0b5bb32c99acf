"""Hot numeric kernels, one vectorized numpy form each.

Everything the prover does at scale reduces to a small algebra over dense
float64 matrices: Gaussian kernel tables, fused min-score fact sweeps, and
max-min (tropical-like) products used to compose proof branches.  Every
kernel is a vectorized numpy function; ``kernel_matrix`` and
``maxmin_matmat`` chunk their cubic temporaries to about 2 MB.
``perfbench/run.py --trace 1`` times them as ``accel.micro.*``.

Score convention used throughout: proof scores live in (0, 1], and 0.0 means
"no path".  Max-reductions therefore initialize to 0.0, and fused sweeps mark
dead entries with -1.0 so callers can distinguish them at any threshold.
"""

from __future__ import annotations

import importlib.util

import numpy as np

HAVE_NUMBA = importlib.util.find_spec("numba") is not None  # perfbench reports it
_BLOCK = 2.5e5  # float64 elements in about 2 MB: the chunked temporaries' size


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


# ---------------------------------------------------------------------------
# pairwise Gaussian kernel table
# ---------------------------------------------------------------------------


def kernel_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """exp(-||a_i - b_j||^2) for every row pair. Shapes (n,d),(m,d) -> (n,m).

    With ``B is A`` only the columns ``j >= i0`` of each chunk are computed,
    then mirrored: (a-b)^2 equals (b-a)^2, so the table is bitwise the same.
    """
    sym = B is A
    A = _f64(np.atleast_2d(A))
    B = A if sym else _f64(np.atleast_2d(B))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dim mismatch: {A.shape} vs {B.shape}")
    n = A.shape[0]
    out = np.empty((n, B.shape[0]))
    # rows per chunk: the (step, m, d) temporary stays near 2 MB; each
    # entry reduces its own row pair, so the chunking never changes a result
    step = max(1, int(_BLOCK // max(1, B.size)))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        j0 = i0 if sym else 0
        diff = A[i0:i1, None, :] - B[None, j0:, :]
        out[i0:i1, j0:] = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
        if sym:
            out[i1:, i0:i1] = out[i0:i1, i1:].T
    return out


# ---------------------------------------------------------------------------
# fused fact sweep: min(prefix, pred-sim, arg sims) + threshold + bottleneck arg
# ---------------------------------------------------------------------------

def sweep_scores(prefix: float, psim: np.ndarray, a1sim, a2sim,
                 threshold: float, exclude: int = -1):
    """Score one goal against a fact block in a single fused pass.

    ``psim`` holds the predicate-kernel value per fact; ``a1sim``/``a2sim``
    hold argument-kernel values, or None for a free-variable position (free
    variables bind strictly and contribute no kernel factor).  Returns
    ``(scores, which)`` where dead entries (below ``threshold`` or at index
    ``exclude``) score -1.0, and ``which`` marks the bottleneck factor:
    0 carried prefix, 1 predicate, 2 first argument, 3 second argument,
    with ties resolved toward the earliest factor.
    """
    F = len(psim)
    scores = float(prefix)
    which = np.zeros(F, dtype=np.int8)
    for k, sim in enumerate((psim, a1sim, a2sim), start=1):
        if sim is None:
            continue
        sim = _f64(sim)
        # argmin's rule: a later factor takes over only when strictly lower,
        # or NaN where the minimum so far is a number
        which[~(sim >= scores) & (scores == scores)] = k
        scores = np.minimum(scores, sim)
    dead = scores < float(threshold)
    exclude = int(exclude)
    if 0 <= exclude < F:
        dead[exclude] = True
    scores[dead] = -1.0
    which[dead] = -1
    return scores, which


# ---------------------------------------------------------------------------
# grouped max reductions
# ---------------------------------------------------------------------------


def scatter_max(keys: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """out[k] = max of vals where keys == k, 0.0 where a key never occurs."""
    out = np.zeros(int(size))
    np.maximum.at(out, _i64(keys), _f64(vals))
    return out


def strict_group(psim: np.ndarray, soft_idx: np.ndarray, grp_idx: np.ndarray,
                 Kc: np.ndarray) -> np.ndarray:
    """Fact table keyed by a strictly bound argument.

    out[x, z] = max over facts f with grp_idx[f] == z of
    min(psim[f], Kc[x, soft_idx[f]]).  Rows x range over the rows of ``Kc``,
    candidate constants (all of them, or a block) put in the soft position;
    columns z over the constants a free variable binds to.  Missing groups
    stay at 0.0.
    """
    psim = _f64(psim)
    Kc = _f64(Kc)
    C = Kc.shape[0]
    F = psim.shape[0]
    out = np.zeros(Kc.shape)
    if F == 0:
        return out
    cand = np.minimum(psim[None, :], Kc[:, _i64(soft_idx)])  # (C, F)
    rows = np.broadcast_to(np.arange(C)[:, None], (C, F))
    cols = np.broadcast_to(_i64(grp_idx)[None, :], (C, F))
    np.maximum.at(out, (rows, cols), cand)
    return out


# ---------------------------------------------------------------------------
# max-min products
# ---------------------------------------------------------------------------


def maxmin_matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[i] = max_j min(M[i,j], v[j]), floored at the no-path score 0.0."""
    M = _f64(M)
    v = _f64(v)
    if M.shape[1] == 0:
        return np.zeros(M.shape[0])
    return np.maximum(np.minimum(M, v[None, :]).max(axis=1), 0.0)


def maxmin_vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """out[j] = max_i min(v[i], M[i,j]), floored at 0.0."""
    v = _f64(v)
    M = _f64(M)
    if M.shape[0] == 0:
        return np.zeros(M.shape[1])
    return np.maximum(np.minimum(v[:, None], M).max(axis=0), 0.0)


def maxmin_matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Max-min product: out[i,j] = max_k min(A[i,k], B[k,j]), floored at 0.0."""
    A = _f64(A)
    B = _f64(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dim mismatch: {A.shape} vs {B.shape}")
    n, kk = A.shape
    m = B.shape[1]
    out = np.zeros((n, m))
    if kk == 0:
        return out
    # rows per chunk: the (step, kk, m) temporary stays near 2 MB; min and
    # max are exact, so the chunking never changes a result
    step = max(1, int(_BLOCK // max(1, kk * m)))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        out[i0:i1] = np.minimum(A[i0:i1, :, None], B[None, :, :]).max(axis=1)
    return np.maximum(out, 0.0)

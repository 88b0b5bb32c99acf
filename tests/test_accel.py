"""Numeric kernels against naive-loop oracles.

``kernel_matrix`` and ``maxmin_matmat`` chunk their temporaries; the
chunking tests pin each to its one-shot numpy expression bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover import accel


@pytest.fixture(params=["numpy"])
def path(request):
    """The kernel implementation under test; numpy is the only one."""
    return request.param


def naive_kernel_matrix(A, B):
    out = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            out[i, j] = np.exp(-np.sum((a - b) ** 2))
    return out


class TestKernelMatrix:
    def test_known_value(self, path):
        # squared distance 1 -> exp(-1)
        A = np.array([[0.0, 0.0]])
        B = np.array([[1.0, 0.0]])
        got = accel.kernel_matrix(A, B)
        np.testing.assert_allclose(got, [[0.36787944117144233]], rtol=1e-12)

    def test_identical_rows_score_one(self, path):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 7))
        K = accel.kernel_matrix(A, A)
        np.testing.assert_allclose(np.diag(K), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(K, K.T)

    def test_matches_naive(self, path):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 4))
        B = rng.normal(size=(9, 4))
        np.testing.assert_allclose(accel.kernel_matrix(A, B),
                                   naive_kernel_matrix(A, B), rtol=1e-12)

    def test_range(self, path):
        rng = np.random.default_rng(2)
        K = accel.kernel_matrix(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
        assert np.all(K > 0.0) and np.all(K <= 1.0)

    def test_empty(self, path):
        assert accel.kernel_matrix(np.zeros((0, 3)), np.zeros((4, 3))).shape == (0, 4)

    def test_dim_mismatch_raises(self, path):
        with pytest.raises(ValueError):
            accel.kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("n,d", [
        (5, 7),       # one chunk
        (250, 500),   # two rows a chunk: several chunks
        (301, 400),   # two rows a chunk, the last one short
        (0, 3),
        (1, 3),
    ])
    def test_symmetric_path_is_bitwise(self, n, d):
        # B is A computes the upper triangle and mirrors it
        A = np.random.default_rng(n).normal(size=(n, d))
        if n > 2:
            A[2, 1] = np.nan
        K = accel.kernel_matrix(A, A)
        np.testing.assert_array_equal(K, accel.kernel_matrix(A, A.copy()))
        np.testing.assert_array_equal(K, K.T)

    def test_chunked_equals_single_chunk(self):
        # m * d = 1.25e5 puts two rows in each chunk: three chunks
        # for five rows, the last one short
        rng = np.random.default_rng(12)
        A = rng.normal(size=(5, 100))
        B = rng.normal(size=(1250, 100))
        diff = A[:, None, :] - B[None, :, :]
        whole = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
        np.testing.assert_array_equal(accel.kernel_matrix(A, B), whole)


def naive_sweep(prefix, psim, a1sim, a2sim, threshold, exclude):
    F = len(psim)
    scores = np.empty(F)
    which = np.empty(F, np.int8)
    for f in range(F):
        cands = [prefix, psim[f]]
        if a1sim is not None:
            cands.append(a1sim[f])
        else:
            cands.append(np.inf)
        if a2sim is not None:
            cands.append(a2sim[f])
        else:
            cands.append(np.inf)
        w = int(np.argmin(cands))  # first minimum
        s = cands[w]
        if f == exclude or s < threshold:
            scores[f], which[f] = -1.0, -1
        else:
            scores[f], which[f] = s, w
    return scores, which


class TestSweepScores:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 3),
           st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(-1, 35),
           st.integers(0, 2**31 - 1))
    def test_matches_naive(self, F, mask, threshold, exclude, seed):
        # factors from a small grid, so ties are common, and NaN among them
        rng = np.random.default_rng(seed)
        grid = np.array([0.2, 0.5, 0.5, 1.0, np.nan])
        psim = rng.choice(grid, F)
        a1 = rng.choice(grid, F) if mask & 1 else None
        a2 = rng.choice(grid, F) if mask & 2 else None
        prefix = float(rng.choice(grid))
        s, w = accel.sweep_scores(prefix, psim, a1, a2, threshold, exclude)
        es, ew = naive_sweep(prefix, psim, a1, a2, threshold, exclude)
        np.testing.assert_array_equal(s, es)
        np.testing.assert_array_equal(w, ew)

    def test_tie_prefers_earliest(self, path):
        s, w = accel.sweep_scores(0.5, np.array([0.5]), np.array([0.5]), np.array([0.5]), 0.0)
        assert w[0] == 0  # carried prefix wins the tie
        s, w = accel.sweep_scores(0.9, np.array([0.5]), np.array([0.5]), None, 0.0)
        assert w[0] == 1

    def test_exclude_marks_dead(self, path):
        s, w = accel.sweep_scores(1.0, np.array([0.9, 0.9]), None, None, 0.0, exclude=1)
        assert s[1] == -1.0 and w[1] == -1
        assert s[0] == 0.9


class TestScatterMax:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_matches_naive(self, n, size, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, size, n)
        vals = rng.uniform(0.0, 1.0, n)
        expect = np.zeros(size)
        for k, v in zip(keys, vals):
            expect[k] = max(expect[k], v)
        got = accel.scatter_max(keys, vals, size)
        np.testing.assert_allclose(got, expect, rtol=1e-15)


def naive_strict_group(psim, soft_idx, grp_idx, Kc):
    C = Kc.shape[0]
    out = np.zeros((C, C))
    for f in range(len(psim)):
        for x in range(C):
            v = min(psim[f], Kc[x, soft_idx[f]])
            out[x, grp_idx[f]] = max(out[x, grp_idx[f]], v)
    return out


class TestStrictGroup:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 25), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_matches_naive(self, F, C, seed):
        rng = np.random.default_rng(seed)
        psim = rng.uniform(0.0, 1.0, F)
        soft = rng.integers(0, C, F)
        grp = rng.integers(0, C, F)
        Kc = accel.kernel_matrix(rng.normal(size=(C, 3)), rng.normal(size=(C, 3)))
        expect = naive_strict_group(psim, soft, grp, Kc)
        got = accel.strict_group(psim, soft, grp, Kc)
        np.testing.assert_allclose(got, expect, rtol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 25), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_block_of_rows_is_those_rows(self, F, C, seed):
        rng = np.random.default_rng(seed)
        psim = rng.uniform(0.0, 1.0, F)
        soft = rng.integers(0, C, F)
        grp = rng.integers(0, C, F)
        Kc = accel.kernel_matrix(rng.normal(size=(C, 3)), rng.normal(size=(C, 3)))
        full = accel.strict_group(psim, soft, grp, Kc)
        lo = int(rng.integers(0, C))
        hi = int(rng.integers(lo + 1, C + 1))
        np.testing.assert_array_equal(
            accel.strict_group(psim, soft, grp, Kc[lo:hi]), full[lo:hi])


def naive_maxmin_mat(A, B):
    n, k = A.shape
    m = B.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            best = 0.0
            for kk in range(k):
                best = max(best, min(A[i, kk], B[kk, j]))
            out[i, j] = best
    return out


class TestMaxMinProducts:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
           st.integers(0, 2**31 - 1))
    def test_matmat_matches_naive(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.0, 1.0, (n, k))
        B = rng.uniform(0.0, 1.0, (k, m))
        expect = naive_maxmin_mat(A, B)
        got = accel.maxmin_matmat(A, B)
        np.testing.assert_allclose(got, expect, rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**31 - 1))
    def test_matvec_and_vecmat_match_matmat(self, n, m, seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.0, 1.0, (n, m))
        v = rng.uniform(0.0, 1.0, m)
        u = rng.uniform(0.0, 1.0, n)
        got_mv = accel.maxmin_matvec(M, v)
        got_vm = accel.maxmin_vecmat(u, M)
        ref_mv = accel.maxmin_matmat(M, v[:, None])[:, 0] if m else np.zeros(n)
        ref_vm = accel.maxmin_matmat(u[None, :], M)[0] if n else np.zeros(m)
        np.testing.assert_allclose(got_mv, ref_mv, rtol=1e-15)
        np.testing.assert_allclose(got_vm, ref_vm, rtol=1e-15)

    def test_matmat_chunked_equals_single_chunk(self):
        # k * m = 1e5 puts two rows in each chunk: three chunks
        # for five rows, the last one short
        rng = np.random.default_rng(11)
        A = rng.uniform(-0.2, 1.0, (5, 200))
        B = rng.uniform(-0.2, 1.0, (200, 500))
        whole = np.maximum(np.minimum(A[:, :, None], B[None]).max(axis=1), 0.0)
        np.testing.assert_array_equal(accel.maxmin_matmat(A, B), whole)

    def test_associativity_small(self, path):
        # max-min products associate; spot-check on one triple
        rng = np.random.default_rng(5)
        A, B, C = (rng.uniform(0, 1, (4, 4)) for _ in range(3))
        left = accel.maxmin_matmat(accel.maxmin_matmat(A, B), C)
        right = accel.maxmin_matmat(A, accel.maxmin_matmat(B, C))
        np.testing.assert_allclose(left, right, rtol=1e-15)


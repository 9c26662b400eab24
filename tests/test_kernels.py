import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlandscape.errors import InputContractError
from psdlandscape.kernels import procrustes_align, sym_eig, sym_eigvals, thin_svd, truncated_frob_norm


class TestThinSvd:
    @pytest.mark.parametrize("tie", [[[1.0, 0], [-1.0, 0], [0, 2.0], [0, -2.0]], [[3.0], [-3.0], [1.0]]])
    def test_stack_equals_each_matrix_bitwise_including_column_ties(self, tie):
        # the tie's first column has two largest-magnitude entries of
        # opposite signs; the first of them decides its sign
        rng = np.random.default_rng(30)
        stack = rng.standard_normal((5, *np.shape(tie)))
        stack[2] = tie
        U, s, V = thin_svd(stack)
        lead = np.abs(U[2][:, 0])
        assert np.sum(lead == lead.max()) == 2
        for k, A in enumerate(stack):
            one = thin_svd(A)
            assert all(np.array_equal(a, b[k]) for a, b in zip(one, (U, s, V)))
            for col in one.U.T:
                assert col[np.argmax(np.abs(col))] > 0

    def test_identity(self):
        res = thin_svd(np.eye(2))
        np.testing.assert_allclose(res.sigma, [1.0, 1.0])

    def test_diagonal_canonicalized(self):
        res = thin_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(res.U, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(res.V, np.eye(3), atol=1e-14)

    def test_reconstruction_seed42(self):
        A = np.random.default_rng(42).standard_normal((5, 3))
        U, s, V = thin_svd(A)
        rel = np.linalg.norm(U @ np.diag(s) @ V.T - A) / np.linalg.norm(A)
        assert rel < 1e-10

    def test_orthonormality_and_order(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 4))
        U, s, V = thin_svd(A)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-12)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 3))
        U, _, _ = thin_svd(A)
        for j in range(3):
            i = np.argmax(np.abs(U[:, j]))
            assert U[i, j] > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(InputContractError):
            thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_bulk_random_shapes(self):
        # reconstruction + orthonormality across a large sweep of shapes
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p1 = int(rng.integers(2, 51))
            p2 = int(rng.integers(1, 11))
            A = rng.standard_normal((p1, p2))
            U, s, V = thin_svd(A)
            k = min(p1, p2)
            assert np.linalg.norm(U.T @ U - np.eye(k)) < 1e-12 * k
            assert np.linalg.norm(V.T @ V - np.eye(k)) < 1e-12 * k
            rel = np.linalg.norm(U @ np.diag(s) @ V.T - A) / np.linalg.norm(A)
            assert rel < 1e-10


class TestSymEig:
    def test_zero(self):
        res = sym_eig(np.zeros((3, 3)))
        np.testing.assert_allclose(res.lam, [0.0, 0.0, 0.0])

    def test_diagonal(self):
        res = sym_eig(np.diag([5.0, -1.0]))
        np.testing.assert_allclose(res.lam, [5.0, -1.0])

    def test_rank_from_gram(self):
        Y = np.random.default_rng(7).standard_normal((6, 2))
        res = sym_eig(Y @ Y.T)
        assert np.sum(res.lam > 1e-10) == 2
        assert np.all(res.lam[2:] <= 1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 5))
        S = (A + A.T) / 2
        U, lam = sym_eig(S)
        rel = np.linalg.norm(U @ np.diag(lam) @ U.T - S) / np.linalg.norm(S)
        assert rel < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(InputContractError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_symmetry_check_is_free_of_scale(self):
        # the squares of entries above about 1e154 overflow a plain norm;
        # the check reads the same at every power-of-two scale
        np.testing.assert_array_equal(sym_eigvals(np.diag([3e160, 1e160])), [3e160, 1e160])
        S = np.array([[2.0, 1.0], [1.0, 3.0]])
        big = sym_eig(1e155 * S).lam
        np.testing.assert_allclose(big, 1e155 * sym_eig(S).lam, rtol=1e-15)
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        for scale in (2.0**-1000, 1.0, 2.0**1000):
            with pytest.raises(InputContractError, match="asymmetric"):
                sym_eigvals(scale * skew)

    def test_eigenvalues_alone_match_and_are_checked_alike(self):
        A = np.random.default_rng(10).standard_normal((7, 7))
        S = A + A.T + 1e-9 * A  # asymmetric within 1e-6, not within 1e-10
        lam = sym_eigvals(S, asym_tol=1e-6)
        np.testing.assert_allclose(lam, sym_eig(S, asym_tol=1e-6).lam, rtol=0, atol=1e-13 * np.abs(lam).max())
        assert np.all(np.diff(lam) <= 0)
        for bad in (S, np.full((2, 2), np.nan), np.ones((2, 3))):
            with pytest.raises(InputContractError):
                sym_eigvals(bad)


class TestTruncatedFrobNorm:
    def test_diagonal(self):
        assert truncated_frob_norm(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(np.sqrt(13))

    def test_low_rank_equals_full_norm(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        assert truncated_frob_norm(A, 2) == pytest.approx(np.linalg.norm(A), rel=1e-12)

    def test_sampling_oracle(self):
        # sampled unit-Frobenius rank-3 inner products lower-bound the value
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8))
        val = truncated_frob_norm(A, 3)
        best = -np.inf
        for _ in range(200):
            B = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
            B /= np.linalg.norm(B)
            best = max(best, float(np.vdot(B, A)))
        assert best <= val + 1e-6
        assert best > 0

    def test_full_rank_is_frobenius(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = rng.standard_normal((5, 7))
            assert truncated_frob_norm(A, 5) == pytest.approx(
                np.linalg.norm(A), rel=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(InputContractError):
            truncated_frob_norm(np.eye(3), 4)
        with pytest.raises(InputContractError):
            truncated_frob_norm(np.eye(3), 0)


class TestProcrustes:
    def test_identity_alignment(self):
        Y = np.random.default_rng(1).standard_normal((5, 2))
        Q, res = procrustes_align(Y, Y)
        np.testing.assert_allclose(Q, np.eye(2), atol=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_rank1(self):
        y1 = np.array([[1.0], [0.0]])
        y2 = np.array([[-1.0], [0.0]])
        Q, res = procrustes_align(y1, y2)
        assert Q[0, 0] == pytest.approx(-1.0)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_rank1(self):
        # brute force over the two elements of the rank-1 alignment group
        y1 = np.array([[1.0], [0.0]])
        y2 = np.array([[0.0], [1.0]])
        Q, res = procrustes_align(y1, y2)
        brute = min(np.linalg.norm(y2 - y1), np.linalg.norm(-y2 - y1))
        assert res == pytest.approx(brute)
        assert res == pytest.approx(np.sqrt(2))

    def test_minimality_over_sampled_rotations(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            Y1 = rng.standard_normal((6, 3))
            Y2 = rng.standard_normal((6, 3))
            Q, res = procrustes_align(Y1, Y2)
            np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
            for _ in range(500):
                O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                assert res <= np.linalg.norm(Y2 @ O - Y1) + 1e-12

    def test_singular_cross_gram_is_deterministic(self):
        y1 = np.array([[1.0], [0.0]])
        y2 = np.array([[0.0], [1.0]])  # y1.T y2 = 0, singular
        Q1, _ = procrustes_align(y1, y2)
        Q2, _ = procrustes_align(y1, y2)
        np.testing.assert_array_equal(Q1, Q2)


@settings(max_examples=50, deadline=None)
@given(
    p1=st.integers(min_value=2, max_value=12),
    p2=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_svd_reconstruction_property(p1, p2, seed):
    A = np.random.default_rng(seed).standard_normal((p1, p2))
    U, s, V = thin_svd(A)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - A) <= 1e-10 * max(np.linalg.norm(A), 1.0)

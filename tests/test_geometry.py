import numpy as np
import pytest

from psdlandscape.errors import (
    InputContractError,
    NonUniqueAlignmentError,
    RankCollapseError,
)
from psdlandscape.geometry import (
    FactorPoint,
    HorizontalTangent,
    convexity_radius,
    exp_map,
    horizontal_project,
    injectivity_radius,
    log_map,
    quotient_distance,
    vertical_project,
)
from psdlandscape.verify import brute_distance_rank1


def factor(rng, p, r):
    return FactorPoint(rng.standard_normal((p, r)))


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


class TestFactorPoint:
    def test_rejects_rank_deficient(self):
        Y = np.ones((4, 2))
        with pytest.raises(InputContractError):
            FactorPoint(Y)

    def test_caches_spectrum(self):
        Y = FactorPoint(np.vstack([np.diag([3.0, 2.0]), np.zeros((2, 2))]))
        assert Y.sigma_max == pytest.approx(3.0)
        assert Y.sigma_min == pytest.approx(2.0)

    def test_immutable(self):
        Y = FactorPoint(np.vstack([np.eye(2), np.zeros((2, 2))]))
        with pytest.raises(AttributeError):
            Y.sigma_min = 0.0
        with pytest.raises(ValueError):
            Y.Y[0, 0] = 5.0


class TestProjections:
    def test_vertical_input_fixed(self):
        rng = np.random.default_rng(3)
        Y = factor(rng, 6, 2)
        Om = rng.standard_normal((2, 2))
        Om = Om - Om.T
        Z = Y.Y @ Om
        np.testing.assert_allclose(vertical_project(Y, Z), Z, atol=1e-10)

    def test_horizontal_input_annihilated(self):
        rng = np.random.default_rng(4)
        Y = factor(rng, 6, 2)
        S = rng.standard_normal((2, 2))
        S = S + S.T
        # Z with Y.T Z symmetric: Z = Y (Y.T Y)^{-1} S
        Z = Y.Y @ np.linalg.solve(Y.Y.T @ Y.Y, S)
        assert np.linalg.norm(vertical_project(Y, Z)) < 1e-10

    def test_decomposition_oracle(self):
        rng = np.random.default_rng(3)
        Y = factor(rng, 6, 2)
        Z = rng.standard_normal((6, 2))
        V = vertical_project(Y, Z)
        # V = Y Omega with Omega exactly skew
        Om = np.linalg.solve(Y.Y.T @ Y.Y, Y.Y.T @ V)
        assert np.linalg.norm(Om + Om.T) < 1e-10
        # and the complement is horizontal
        H = Z - V
        M = Y.Y.T @ H
        assert np.linalg.norm(M - M.T) < 1e-10

    def test_vertical_is_least_squares_optimum(self):
        # brute-force the projection onto {Y Om : Om skew} through an
        # explicit skew basis and normal equations
        rng = np.random.default_rng(21)
        for _ in range(10):
            Y = factor(rng, 6, 3)
            Z = rng.standard_normal((6, 3))
            basis = []
            for i in range(3):
                for j in range(i + 1, 3):
                    Om = np.zeros((3, 3))
                    Om[i, j], Om[j, i] = 1.0, -1.0
                    basis.append((Y.Y @ Om).ravel())
            B = np.stack(basis, axis=1)
            coeffs, *_ = np.linalg.lstsq(B, Z.ravel(), rcond=None)
            brute = (B @ coeffs).reshape(6, 3)
            np.testing.assert_allclose(vertical_project(Y, Z), brute, atol=1e-10)

    def test_idempotent_and_pythagoras(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Y = factor(rng, 8, 3)
            Z = rng.standard_normal((8, 3))
            h = horizontal_project(Y, Z)
            h2 = horizontal_project(Y, h.theta)
            np.testing.assert_allclose(h2.theta, h.theta, atol=1e-12)
            v = vertical_project(Y, Z)
            assert abs(np.vdot(h.theta, v)) < 1e-10
            total = np.linalg.norm(Z) ** 2
            parts = h.norm**2 + np.linalg.norm(v) ** 2
            assert abs(total - parts) < 1e-9 * total


class TestDistance:
    def test_fiber_distance_zero(self):
        rng = np.random.default_rng(6)
        Y = factor(rng, 7, 3)
        O = haar(rng, 3)
        Y2 = FactorPoint(Y.Y @ O)
        assert quotient_distance(Y, Y2) < 1e-10
        np.testing.assert_allclose(Y.gram(), Y2.gram(), atol=1e-12)

    def test_rank1_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y1 = rng.standard_normal((5, 1))
            y2 = rng.standard_normal((5, 1))
            d = quotient_distance(FactorPoint(y1), FactorPoint(y2))
            assert d == pytest.approx(brute_distance_rank1(y1, y2), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        Y1, Y2 = factor(rng, 8, 3), factor(rng, 8, 3)
        assert quotient_distance(Y1, Y2) == pytest.approx(
            quotient_distance(Y2, Y1), abs=1e-10
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            A, B, C = (factor(rng, 8, 3) for _ in range(3))
            dab = quotient_distance(A, B)
            dbc = quotient_distance(B, C)
            dac = quotient_distance(A, C)
            assert dac <= dab + dbc + 1e-9


class TestLogExp:
    def test_log_at_base_and_fiber(self):
        rng = np.random.default_rng(10)
        Y = factor(rng, 6, 2)
        assert log_map(Y, Y).norm < 1e-12
        Y2 = FactorPoint(Y.Y @ haar(rng, 2))
        assert log_map(Y, Y2).norm < 1e-10

    def test_log_errors_on_singular_cross_gram(self):
        y1 = FactorPoint(np.array([[1.0], [0.0]]))
        y2 = FactorPoint(np.array([[0.0], [1.0]]))
        with pytest.raises(NonUniqueAlignmentError):
            log_map(y1, y2)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(50):
            Y1 = factor(rng, 7, 2)
            raw = horizontal_project(Y1, rng.standard_normal((7, 2)))
            scale = 0.9 * Y1.sigma_min * rng.uniform() / raw.norm
            Y2 = FactorPoint((Y1.Y + scale * raw.theta) @ haar(rng, 2))
            if quotient_distance(Y1, Y2) >= Y1.sigma_min:
                continue
            hits += 1
            back = exp_map(Y1, log_map(Y1, Y2), 1.0)
            assert quotient_distance(back, Y2) < 1e-8
        assert hits >= 45

    def test_exp_t0_identity(self):
        rng = np.random.default_rng(12)
        Y = factor(rng, 5, 2)
        th = horizontal_project(Y, rng.standard_normal((5, 2)))
        np.testing.assert_allclose(exp_map(Y, th, 0.0).Y, Y.Y)

    def test_rank_collapse_error(self):
        Y = FactorPoint(np.vstack([np.eye(2), np.zeros((2, 2))]))
        th = HorizontalTangent(-Y.Y, Y)
        with pytest.raises(RankCollapseError) as err:
            exp_map(Y, th, 1.0)
        assert err.value.t == 1.0

    def test_exp_map_is_one_svd(self, monkeypatch):
        # the FactorPoint's own SVD is the rank check
        rng = np.random.default_rng(14)
        Y = factor(rng, 5, 2)
        th = horizontal_project(Y, rng.standard_normal((5, 2)))
        svd, calls = np.linalg.svd, []

        def counted_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        Yt = exp_map(Y, th, 0.3)
        assert len(calls) == 1
        np.testing.assert_array_equal(Yt.Y, Y.Y + 0.3 * th.theta)
        with pytest.raises(InputContractError):
            exp_map(Y, th, float("nan"))

    def test_constant_speed(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 20:
            Y = factor(rng, 8, 2)
            raw = horizontal_project(Y, rng.standard_normal((8, 2)))
            scale = 0.9 * Y.sigma_min / raw.norm
            th = HorizontalTangent(raw.theta * scale, Y)
            done += 1
            for t in [*np.arange(0.1, 1.0, 0.1), 1.0]:
                d = quotient_distance(exp_map(Y, th, t), Y)
                assert d == pytest.approx(t * th.norm, rel=1e-8)


class TestRadii:
    def test_orthonormal_injectivity(self):
        Y = FactorPoint(np.vstack([np.eye(2), np.zeros((3, 2))]))
        assert injectivity_radius(Y) == pytest.approx(1.0)

    def test_diag_injectivity(self):
        Y = FactorPoint(np.vstack([np.diag([3.0, 2.0]), np.zeros((2, 2))]))
        assert injectivity_radius(Y) == pytest.approx(2.0)

    def test_weyl_after_step(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            Y = factor(rng, 7, 3)
            raw = horizontal_project(Y, rng.standard_normal((7, 3)))
            s = 0.5 * Y.sigma_min * rng.uniform()
            th = HorizontalTangent(raw.theta * (s / raw.norm), Y)
            Ynew = exp_map(Y, th, 1.0)
            assert injectivity_radius(Ynew) >= injectivity_radius(Y) - s - 1e-10

    def test_convexity_formula(self):
        Y = FactorPoint(np.vstack([np.diag([9.0, 3.0]), np.zeros((2, 2))]))
        assert convexity_radius(Y) == pytest.approx(1.0)
        rng = np.random.default_rng(15)
        for _ in range(10):
            Z = factor(rng, 6, 2)
            assert convexity_radius(Z) == pytest.approx(injectivity_radius(Z) / 3.0)

    def test_geodesic_ball_containment(self):
        # geodesics between points of the one-third ball stay in the ball
        rng = np.random.default_rng(16)
        Y = factor(rng, 20, 3)
        radius = convexity_radius(Y)
        from psdlandscape.landscape import random_ball_tangent

        for _ in range(50):
            a = random_ball_tangent(Y, radius, rng)
            b = random_ball_tangent(Y, radius, rng)
            Ya = FactorPoint(Y.Y + a.theta)
            Yb = FactorPoint(Y.Y + b.theta)
            lg = log_map(Ya, Yb)
            for t in np.arange(0.1, 1.0, 0.1):
                assert quotient_distance(exp_map(Ya, lg, t), Y) < radius + 1e-9


class TestHorizontalTangent:
    def test_rejects_non_horizontal(self):
        rng = np.random.default_rng(17)
        Y = factor(rng, 6, 3)
        Om = rng.standard_normal((3, 3))
        Om = Om - Om.T
        with pytest.raises(InputContractError):
            HorizontalTangent(Y.Y @ Om, Y)


class TestTangentBase:
    def test_requires_matching_base(self):
        from psdlandscape.objectives import make_instance, riemannian_hess_quadform

        rng = np.random.default_rng(19)
        Y1, Y2 = factor(rng, 6, 2), factor(rng, 6, 2)
        th = horizontal_project(Y2, rng.standard_normal((6, 2)))
        with pytest.raises(InputContractError, match="based at the given point"):
            exp_map(Y1, th, 0.5)
        inst = make_instance("denoising", 6, 2, seed=19)
        with pytest.raises(InputContractError, match="based at the given point"):
            riemannian_hess_quadform(inst.objective, Y1, th)

    def test_value_equal_base_accepted(self):
        # a distinct FactorPoint object holding the same factor works
        rng = np.random.default_rng(20)
        Y = factor(rng, 6, 2)
        Y_clone = FactorPoint(Y.Y.copy())
        th = horizontal_project(Y, rng.standard_normal((6, 2)))
        small = HorizontalTangent(th.theta * (0.1 * Y.sigma_min / th.norm), Y)
        moved = exp_map(Y_clone, small, 1.0)
        assert quotient_distance(moved, Y) > 0

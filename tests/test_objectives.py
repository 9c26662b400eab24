import json

import numpy as np
import pytest

from psdlandscape.errors import InputContractError
from psdlandscape.geometry import FactorPoint, HorizontalTangent, horizontal_project
from psdlandscape.objectives import (
    DenoisingObjective,
    GroundTruth,
    embedded_hess_quadform,
    instance_from_document,
    lifted_value,
    make_denoising,
    make_instance,
    make_trace_regression,
    restricted_strict_convexity_check,
    riemannian_grad_lift,
    riemannian_hess_quadform,
    rsc_rsm_estimate,
)
from psdlandscape.kernels import sym_eig


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


def random_horizontal(rng, Y):
    return horizontal_project(Y, rng.standard_normal(Y.Y.shape))


class TestDenoising:
    def test_value_at_target_is_zero(self):
        den, gt = make_denoising(6, 2, kappa_star=2.0, seed=1)
        assert lifted_value(den.handle(), gt.Y_star) == pytest.approx(0.0, abs=1e-20)

    def test_value_with_zero_target(self):
        rng = np.random.default_rng(2)
        Y = FactorPoint(rng.standard_normal((5, 2)))
        # target 0 is rank deficient, so construct the handle by hand
        obj = DenoisingObjective(np.eye(5) * 0.0 + Y.gram(), 2).handle()
        Z = FactorPoint(rng.standard_normal((5, 2)))
        expected = 0.5 * np.linalg.norm(Z.gram() - Y.gram()) ** 2
        assert lifted_value(obj, Z) == pytest.approx(expected)

    def test_grad_at_target_is_zero(self):
        den, gt = make_denoising(7, 3, kappa_star=3.0, seed=4)
        g = riemannian_grad_lift(den.handle(), gt.Y_star)
        assert g.norm < 1e-12

    def test_grad_plugin_zero_target_form(self):
        # with target X* the gradient lift is 2 (Y Y.T - X*) Y
        rng = np.random.default_rng(5)
        den, gt = make_denoising(6, 2, kappa_star=1.5, seed=6)
        obj = den.handle()
        Y = FactorPoint(rng.standard_normal((6, 2)))
        expected = 2.0 * (Y.gram() - gt.X_star) @ Y.Y
        np.testing.assert_allclose(riemannian_grad_lift(obj, Y).theta, expected, atol=1e-12)

    def test_hess_at_target_is_tangent_norm(self):
        den, gt = make_denoising(6, 2, kappa_star=2.0, seed=7)
        obj = den.handle()
        rng = np.random.default_rng(8)
        th = random_horizontal(rng, gt.Y_star)
        expected = np.linalg.norm(
            gt.Y_star.Y @ th.theta.T + th.theta @ gt.Y_star.Y.T
        ) ** 2
        assert riemannian_hess_quadform(obj, gt.Y_star, th) == pytest.approx(expected)

    def test_hess_plugin_theta_equals_Y(self):
        # with a zero target, theta = Y gives 6 ||Y Y.T||^2
        rng = np.random.default_rng(9)
        Y = FactorPoint(rng.standard_normal((5, 2)))
        # the zero matrix is rank deficient, so build the handle directly
        from psdlandscape.objectives import ObjectiveHandle

        zero = np.zeros((5, 5))
        handle = ObjectiveHandle(
            value=lambda X: 0.5 * float(np.linalg.norm(X - zero) ** 2),
            euclid_grad=lambda X: X - zero,
            euclid_hess_form=lambda X, G1, G2: float(np.vdot(G1, G2)),
            p=5,
            r=2,
            kind="denoising",
        )
        th = HorizontalTangent(Y.Y, Y)
        got = riemannian_hess_quadform(handle, Y, th)
        assert got == pytest.approx(6.0 * np.linalg.norm(Y.gram()) ** 2, rel=1e-12)

    def test_fiber_invariance(self):
        rng = np.random.default_rng(10)
        den, gt = make_denoising(7, 2, kappa_star=2.0, seed=11)
        obj = den.handle()
        Y = FactorPoint(rng.standard_normal((7, 2)))
        O = haar(rng, 2)
        YO = FactorPoint(Y.Y @ O)
        assert lifted_value(obj, Y) == pytest.approx(lifted_value(obj, YO), rel=1e-10)
        g1 = riemannian_grad_lift(obj, Y)
        g2 = riemannian_grad_lift(obj, YO)
        assert g1.norm == pytest.approx(g2.norm, rel=1e-9)
        th = random_horizontal(rng, Y)
        thO = HorizontalTangent(th.theta @ O, YO)
        q1 = riemannian_hess_quadform(obj, Y, th)
        q2 = riemannian_hess_quadform(obj, YO, thO)
        assert q1 == pytest.approx(q2, rel=1e-9)


class TestTraceRegression:
    def test_noiseless_exact_fit(self):
        reg, gt = make_trace_regression(6, 2, 50, noise_sigma=0.0, seed=3)
        assert lifted_value(reg.handle(), gt.Y_star) == pytest.approx(0.0, abs=1e-18)
        assert gt.grad_at_star_trunc == pytest.approx(0.0, abs=1e-10)

    def test_gradient_formula(self):
        reg, _ = make_trace_regression(5, 2, 40, noise_sigma=0.1, seed=4)
        obj = reg.handle()
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 5))
        X = X + X.T
        expected = reg.adjoint(reg.apply_map(X) - reg.y)
        np.testing.assert_allclose(obj.euclid_grad(X), expected)
        # gradient of a symmetric-sensing objective is symmetric
        G = obj.euclid_grad(X)
        np.testing.assert_allclose(G, G.T, atol=1e-12)

    def test_hessian_constant_in_x(self):
        reg, _ = make_trace_regression(5, 2, 30, seed=6)
        obj = reg.handle()
        rng = np.random.default_rng(7)
        G = rng.standard_normal((5, 5))
        G = G + G.T
        X1 = rng.standard_normal((5, 5))
        X2 = rng.standard_normal((5, 5))
        assert obj.euclid_hess_form(X1, G, G) == pytest.approx(
            obj.euclid_hess_form(X2, G, G)
        )

    def test_hess_form_symmetric_bilinear(self):
        reg, _ = make_trace_regression(5, 2, 30, seed=8)
        obj = reg.handle()
        rng = np.random.default_rng(9)
        X = np.zeros((5, 5))
        G1 = rng.standard_normal((5, 5))
        G2 = rng.standard_normal((5, 5))
        a = obj.euclid_hess_form(X, G1, G2)
        b = obj.euclid_hess_form(X, G2, G1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_seed_determinism(self):
        r1, _ = make_trace_regression(6, 2, 40, noise_sigma=0.3, seed=42)
        r2, _ = make_trace_regression(6, 2, 40, noise_sigma=0.3, seed=42)
        np.testing.assert_array_equal(r1.y, r2.y)
        np.testing.assert_array_equal(r1.sensing, r2.sensing)

    def test_sensing_symmetrized(self):
        reg, _ = make_trace_regression(5, 2, 20, seed=10)
        np.testing.assert_allclose(
            reg.sensing, np.transpose(reg.sensing, (0, 2, 1)), atol=1e-15
        )

    def test_chunked_sensing_equals_one_draw(self, monkeypatch):
        from psdlandscape import objectives

        p, n, seed = 4, 10, 11
        # three samples per chunk, so the last chunk holds one
        monkeypatch.setattr(objectives, "_CHUNK_ENTRIES", 3 * p * p + 1)
        assert len(objectives._sample_chunks(n, p)) == 4
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        G = rng.standard_normal((n, p, p))
        single = (G + np.transpose(G, (0, 2, 1))) / (2.0 * np.sqrt(n))
        sensing = objectives._sensing_from_seed(p, n, seed)
        np.testing.assert_array_equal(sensing, single)
        # the chunked symmetry check still sees the last, partial chunk
        sensing[-1, 0, 1] += 1.0
        with pytest.raises(InputContractError, match="symmetric"):
            objectives.TraceRegressionObjective(sensing, np.zeros(n), 2)


class TestGroundTruth:
    def test_kappa_and_spectrum(self):
        _, gt = make_denoising(9, 3, kappa_star=2.5, sigma_r_star=0.8, seed=12)
        assert gt.kappa_star == pytest.approx(2.5, rel=1e-10)
        assert gt.sigmar_star == pytest.approx(0.8, rel=1e-10)
        assert gt.sigma1_star == pytest.approx(2.0, rel=1e-10)

    def test_rank1_requires_unit_kappa(self):
        with pytest.raises(InputContractError):
            make_denoising(5, 1, kappa_star=2.0, seed=0)

    def test_noise_magnitude_via_adjoint(self):
        # grad f(X*) = -A.T(eps); its truncated norm must match a direct SVD
        reg, gt = make_trace_regression(6, 2, 40, noise_sigma=0.2, seed=13)
        G = reg.handle().euclid_grad(gt.X_star)
        s = np.linalg.svd(G, compute_uv=False)
        assert gt.grad_at_star_trunc == pytest.approx(np.sqrt(np.sum(s[:2] ** 2)))


class TestEmbeddedHessian:
    def test_at_target_is_tangent_norm(self):
        rng = np.random.default_rng(14)
        _, gt = make_denoising(6, 2, kappa_star=2.0, seed=15)
        S = rng.standard_normal((2, 2))
        S = S + S.T
        D = rng.standard_normal((4, 2))
        U, lam = sym_eig(gt.X_star)
        xi = (
            U[:, :2] @ S @ U[:, :2].T
            + U[:, 2:] @ D @ U[:, :2].T
            + U[:, :2] @ D.T @ U[:, 2:].T
        )
        got = embedded_hess_quadform(gt.X_star, gt.X_star, S, D)
        assert got == pytest.approx(np.linalg.norm(xi) ** 2, rel=1e-10)

    def test_d_zero_reduces_to_s_norm(self):
        rng = np.random.default_rng(16)
        _, gt = make_denoising(6, 2, kappa_star=1.5, seed=17)
        S = rng.standard_normal((2, 2))
        S = S + S.T
        D = np.zeros((4, 2))
        got = embedded_hess_quadform(gt.X_star, 2 * gt.X_star, S, D)
        assert got == pytest.approx(np.linalg.norm(S) ** 2, rel=1e-10)

    def test_lower_bound_at_prescribed_distance(self):
        # ||X - X*||_F = 0.2 sigma_r(X*): the form keeps half the tangent norm
        rng = np.random.default_rng(18)
        _, gt = make_denoising(8, 2, kappa_star=2.0, seed=19)
        sr_x = gt.sigmar_star**2
        target = 0.2 * sr_x
        raw = horizontal_project(gt.Y_star, rng.standard_normal((8, 2)))

        def gram_dist(t):
            Y = gt.Y_star.Y + t * raw.theta
            return np.linalg.norm(Y @ Y.T - gt.X_star) - target

        lo, hi = 0.0, 1.0
        while gram_dist(hi) < 0:
            hi *= 2.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if gram_dist(mid) < 0:
                lo = mid
            else:
                hi = mid
        Y = gt.Y_star.Y + hi * raw.theta
        X = Y @ Y.T
        assert np.linalg.norm(X - gt.X_star) == pytest.approx(target, rel=1e-8)
        for _ in range(200):
            S = rng.standard_normal((2, 2))
            S = S + S.T
            D = rng.standard_normal((6, 2))
            U, lam = sym_eig(X)
            xi = (
                U[:, :2] @ S @ U[:, :2].T
                + U[:, 2:] @ D @ U[:, :2].T
                + U[:, :2] @ D.T @ U[:, 2:].T
            )
            got = embedded_hess_quadform(X, gt.X_star, S, D)
            assert got >= 0.5 * np.linalg.norm(xi) ** 2 - 1e-8 * sr_x

    def test_rank_deficient_rejected(self):
        with pytest.raises(InputContractError):
            embedded_hess_quadform(
                np.zeros((4, 4)), np.eye(4), np.eye(2), np.zeros((2, 2))
            )


class TestRscDiagnostics:
    def test_denoising_delta_zero(self):
        den, _ = make_denoising(6, 2, kappa_star=2.0, seed=20)
        assert rsc_rsm_estimate(den.handle(), 2, 100, seed=0) == pytest.approx(0.0, abs=1e-10)

    def test_trace_regression_delta_small_with_many_measurements(self):
        reg, _ = make_trace_regression(6, 2, 36, seed=21)
        delta_hat = rsc_rsm_estimate(reg.handle(), 2, 100, seed=1)
        # statistical: logged, not asserted tightly
        print(f"sampled constant for n = p^2: {delta_hat:.4f}")
        assert delta_hat < 1.0

    def test_monotone_in_samples(self):
        reg, _ = make_trace_regression(6, 2, 30, seed=22)
        obj = reg.handle()
        values = [rsc_rsm_estimate(obj, 2, n, seed=5) for n in (10, 20, 40, 80)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_strict_convexity_probe(self):
        den, _ = make_denoising(6, 2, kappa_star=2.0, seed=23)
        assert restricted_strict_convexity_check(den.handle(), 2, 200, seed=2)

        from psdlandscape.objectives import ObjectiveHandle

        negated = ObjectiveHandle(
            value=lambda X: -0.5 * float(np.linalg.norm(X) ** 2),
            euclid_grad=lambda X: -X,
            euclid_hess_form=lambda X, G1, G2: -float(np.vdot(G1, G2)),
            p=6,
            r=2,
        )
        assert not restricted_strict_convexity_check(negated, 2, 50, seed=3)

    def test_trace_regression_strict_convexity_many_measurements(self):
        p, r = 6, 2
        reg, _ = make_trace_regression(p, r, 4 * p * r, seed=11)
        assert restricted_strict_convexity_check(reg.handle(), r, 1000, seed=11)


class TestSerialization:
    def test_roundtrip_trace_regression(self):
        inst = make_instance("trace_regression", 6, 2, n=30, kappa_star=2.0, noise_sigma=0.1, seed=5)
        doc = json.loads(inst.to_json())
        rebuilt = instance_from_document(doc)
        np.testing.assert_array_equal(rebuilt.trace_regression.y, inst.trace_regression.y)
        np.testing.assert_array_equal(
            rebuilt.trace_regression.sensing, inst.trace_regression.sensing
        )
        np.testing.assert_allclose(
            rebuilt.ground_truth.X_star, inst.ground_truth.X_star, atol=1e-15
        )

    def test_roundtrip_denoising(self):
        inst = make_instance("denoising", 5, 2, kappa_star=1.5, seed=6)
        rebuilt = instance_from_document(json.loads(inst.to_json()))
        np.testing.assert_allclose(
            rebuilt.ground_truth.X_star, inst.ground_truth.X_star, atol=1e-15
        )

    def test_document_is_deterministic(self):
        a = make_instance("trace_regression", 5, 2, n=20, seed=9).to_json()
        b = make_instance("trace_regression", 5, 2, n=20, seed=9).to_json()
        assert a == b

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputContractError):
            make_instance("completion", 5, 2)

    def test_trace_regression_needs_measurements(self):
        with pytest.raises(InputContractError):
            make_instance("trace_regression", 5, 2, n=0)

import json

import numpy as np
import pytest

from psdlandscape.errors import InputContractError, NumericalFailure
from psdlandscape.geometry import FactorPoint, HorizontalTangent, horizontal_project
from psdlandscape.objectives import (
    DenoisingObjective,
    GroundTruth,
    TraceRegressionObjective,
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
from psdlandscape.landscape import hess_extreme_eigs


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
        # the target of a bare factor, with no instance around it
        obj = DenoisingObjective(Y).handle()
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

    def test_target_is_the_factors_gram(self, monkeypatch):
        # the factor is the target's one check: no eigendecomposition, and
        # the objective and the ground truth share the factor's Gram
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=3)
        assert inst.denoising.X_star is inst.ground_truth.X_star
        residual = inst.objective.least_squares.residual(np.zeros((6, 6)))
        np.testing.assert_array_equal(residual, -inst.ground_truth.X_star)

    def test_ill_conditioned_target_builds(self):
        # sigma_r(X*) / sigma_1(X*) = 1e-12, yet the factor is full rank
        inst = make_instance("denoising", 6, 2, kappa_star=1e6)
        assert inst.ground_truth.kappa_star == pytest.approx(1e6)

    def test_target_must_be_a_factor(self):
        with pytest.raises(InputContractError, match="FactorPoint"):
            DenoisingObjective(np.eye(4))

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


@pytest.mark.parametrize("p, r, evaluate", [
    (6, 2, hess_extreme_eigs),  # dense spectrum
    (20, 3, hess_extreme_eigs),  # Lanczos spectrum
    (6, 2, riemannian_grad_lift),
])
def test_overflowing_evaluation_is_a_numerical_failure(p, r, evaluate):
    # a finite, full-rank point whose Gram overflows
    den, gt = make_denoising(p, r, kappa_star=2.0, seed=1)
    Y = FactorPoint(1e155 * gt.Y_star.Y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="non-finite"):
            evaluate(den.handle(), Y)


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
        single = _one_draw(p, n, seed)
        iu, ju = np.triu_indices(p)
        packed = objectives._sensing_from_seed(p, n, seed)
        np.testing.assert_array_equal(packed, single[:, iu, ju])
        # the chunked symmetry check of the constructor still sees the
        # last, partial chunk
        single[-1, 0, 1] += 1.0
        with pytest.raises(InputContractError, match="symmetric"):
            objectives.TraceRegressionObjective(single, np.zeros(n), 2)

    @pytest.mark.parametrize("field, bad", [("sensing", np.nan), ("sensing", np.inf), ("y", np.nan)])
    def test_non_finite_data_is_rejected(self, field, bad):
        # a NaN passes the symmetry test and an inf breaks it with a warning;
        # entry 5 of the sensing array is on a diagonal
        data = {"sensing": _one_draw(4, 10, 11), "y": np.zeros(10)}
        data[field].flat[5] = bad
        with pytest.raises(InputContractError, match=f"^{field} contains non-finite"):
            TraceRegressionObjective(data["sensing"], data["y"], 2)

    def test_sensing_is_read_only_and_equals_one_draw(self):
        p, n, seed = 5, 37, 3
        reg, _ = make_trace_regression(p, 2, n, seed=seed)
        assert reg.packed.shape == (n, p * (p + 1) // 2)
        np.testing.assert_array_equal(reg.sensing, _one_draw(p, n, seed))
        assert reg.sensing is reg.sensing
        with pytest.raises(ValueError):
            reg.sensing[0, 0, 0] = 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_packed_map_matches_full_array(self, symmetric):
        p, n = 7, 53
        reg, _ = make_trace_regression(p, 2, n, noise_sigma=0.1, seed=14)
        full = _one_draw(p, n, 14)
        rng = np.random.default_rng(15)
        X = rng.standard_normal((p, p))
        if symmetric:
            X = X + X.T
        expected = np.tensordot(full, X, axes=([1, 2], [0, 1]))
        tol = 1e-13 * np.abs(expected).max()
        np.testing.assert_allclose(reg.apply_map(X), expected, rtol=0, atol=tol)
        v = rng.standard_normal(n)
        expected = np.tensordot(v, full, axes=(0, 0))
        tol = 1e-13 * np.abs(expected).max()
        np.testing.assert_allclose(reg.adjoint(v), expected, rtol=0, atol=tol)

    def test_full_array_constructor_packs_the_upper_triangle(self):
        reg, _ = make_trace_regression(5, 2, 20, noise_sigma=0.1, seed=16)
        rebuilt = TraceRegressionObjective(np.array(reg.sensing), reg.y, 2, 0.1)
        np.testing.assert_array_equal(rebuilt.packed, reg.packed)

    def test_make_instance_holds_no_full_array(self):
        import tracemalloc

        tracemalloc.start()
        try:
            inst = make_instance("trace_regression", 60, 2, n=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = inst.trace_regression.packed
        assert packed.nbytes == 2000 * 60 * 61 // 2 * 8
        # one full (n, p, p) array alone would be about twice the packed one
        assert peak < 1.25 * packed.nbytes
        assert "sensing" not in vars(inst.trace_regression)

    def test_handle_keeps_no_state_between_calls(self):
        # a gradient after a value at the same X makes its own forward pass
        reg, _ = make_trace_regression(6, 2, 40, noise_sigma=0.1, seed=17)
        passes = _count_passes(reg)
        obj = reg.handle()
        X = np.random.default_rng(18).standard_normal((6, 6))
        value = obj.value(X)
        grad = obj.euclid_grad(X)
        assert passes == {"apply_map": 2, "adjoint": 1}
        res = reg.apply_map(X) - reg.y
        assert value == 0.5 * float(res @ res)
        np.testing.assert_array_equal(grad, reg.adjoint(res))

    def test_residual_recomputed_after_in_place_edit(self):
        # each value reads the X it is given, also one edited in place
        reg, _ = make_trace_regression(6, 2, 40, noise_sigma=0.1, seed=19)
        passes = _count_passes(reg)
        obj = reg.handle()
        X = np.random.default_rng(20).standard_normal((6, 6))
        before = obj.value(X)
        X[0, 1] += 1.0
        after = obj.value(X)
        assert passes["apply_map"] == 2
        res = reg.apply_map(X) - reg.y
        assert after == 0.5 * float(res @ res) and after != before

    @pytest.mark.parametrize("p, k", [(7, 2), (7, 1), (1, 2), (1, 1)])
    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_images_match_the_forward_and_normal_maps(self, monkeypatch, p, k, block_rows):
        # one sweep gives A(G_j) and A.T(A(G_j)); 53 samples are not a
        # multiple of a 3-row block, and the default block holds them all
        from psdlandscape import objectives

        n = 53
        reg, _ = make_trace_regression(p, 1, n, noise_sigma=0.1, seed=23)
        if block_rows is not None:
            monkeypatch.setattr(objectives, "_SWEEP_BYTES", block_rows * 8 * reg.packed.shape[1])
        Gs = np.random.default_rng(24).standard_normal((k, p, p))
        Gs = Gs + np.transpose(Gs, (0, 2, 1))
        forward, normal = reg.images(Gs)
        assert forward.shape == (k, n) and normal.shape == (k, p, p)
        for j in range(k):
            image = reg.apply_map(Gs[j])
            tol = 1e-13 * np.abs(image).max()
            np.testing.assert_allclose(forward[j], image, rtol=0, atol=tol)
            expected = reg.adjoint(image)
            tol = 1e-13 * np.abs(expected).max()
            np.testing.assert_allclose(normal[j], expected, rtol=0, atol=tol)
        np.testing.assert_array_equal(normal, np.transpose(normal, (0, 2, 1)))

    def test_least_squares_structure_of_the_handles(self):
        # f = 0.5 ||r||^2, A.T A(X) = grad f(X) - grad f(0) and the Hessian
        # form is ||A(G)||^2, on both problem families
        reg, _ = make_trace_regression(6, 2, 40, noise_sigma=0.1, seed=25)
        den, _ = make_denoising(6, 2, kappa_star=2.0, seed=25)
        X = np.random.default_rng(26).standard_normal((6, 6))
        X = X + X.T
        for obj in (reg.handle(), den.handle()):
            res = obj.least_squares.residual(X)
            assert obj.value(X) == pytest.approx(0.5 * float(np.vdot(res, res)), rel=1e-14)
            forward, normal = obj.least_squares.images(X[None])
            np.testing.assert_allclose(
                normal[0], obj.euclid_grad(X) - obj.euclid_grad(np.zeros((6, 6))), atol=1e-12
            )
            assert obj.euclid_hess_form(X, X, X) == pytest.approx(
                float(np.vdot(forward[0], forward[0])), rel=1e-12
            )

    def test_gradient_is_a_fresh_array(self):
        # an in-place edit of a returned gradient leaves the handle's data,
        # the target of denoising included, intact
        reg, _ = make_trace_regression(6, 2, 40, noise_sigma=0.1, seed=27)
        den, _ = make_denoising(6, 2, kappa_star=2.0, seed=27)
        X = np.random.default_rng(28).standard_normal((6, 6))
        for obj in (reg.handle(), den.handle()):
            before = obj.value(X)
            grad = obj.euclid_grad(X)
            grad += 1.0
            assert obj.value(X) == before

    def test_shared_residual_under_thread_switches(self):
        # threads sharing one handle each get their own point's value and
        # gradient under frequent switches
        import sys
        import threading

        reg, _ = make_trace_regression(5, 2, 30, noise_sigma=0.1, seed=21)
        obj = reg.handle()
        rng = np.random.default_rng(22)
        points = [rng.standard_normal((5, 5)) for _ in range(6)]
        residuals = [reg.apply_map(X) - reg.y for X in points]
        expected = [(0.5 * float(r @ r), reg.adjoint(r)) for r in residuals]
        wrong = []

        def work(k):
            X = points[k]
            for _ in range(200):
                value, grad = obj.value(X), obj.euclid_grad(X)
                if value != expected[k][0] or not np.array_equal(grad, expected[k][1]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def _one_draw(p, n, seed):
    """The sensing map as one Gaussian draw, symmetrized in one step."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    G = rng.standard_normal((n, p, p))
    return (G + np.transpose(G, (0, 2, 1))) / (2.0 * np.sqrt(n))


def _count_passes(reg):
    """Count the calls of ``reg``'s forward and adjoint maps from now on."""
    passes = {"apply_map": 0, "adjoint": 0}
    for name in passes:
        method = getattr(reg, name)

        def counted(arg, name=name, method=method):
            passes[name] += 1
            return method(arg)

        setattr(reg, name, counted)
    return passes


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

    def test_hess_form_applies_the_map_once_on_one_argument(self):
        reg, _ = make_trace_regression(6, 2, 30, seed=22)
        passes = _count_passes(reg)
        obj = reg.handle()
        rsc_rsm_estimate(obj, 2, 10, seed=5)
        assert passes["apply_map"] == 10
        # the same array twice gives the bits of two equal arrays
        rng = np.random.default_rng(6)
        X, G = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
        assert obj.euclid_hess_form(X, G, G) == obj.euclid_hess_form(X, G, G.copy())

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

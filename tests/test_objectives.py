import dataclasses
import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlandscape import objectives
from psdlandscape.errors import InputContractError, NumericalFailure
from psdlandscape.geometry import FactorPoint, HorizontalTangent, horizontal_project
from psdlandscape.objectives import (
    DenoisingObjective,
    GroundTruth,
    TraceRegressionObjective,
    embedded_hess_quadform,
    instance_from_document,
    lifted_value,
    make_instance,
    random_symmetric_low_rank,
    restricted_strict_convexity_check,
    riemannian_grad_lift,
    riemannian_hess_quadform,
    rsc_rsm_estimate,
)
from psdlandscape.kernels import _PROBES, _stream, sym_eig
from psdlandscape.landscape import hess_extreme_eigs


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


def random_horizontal(rng, Y):
    return horizontal_project(Y, rng.standard_normal(Y.Y.shape))


class TestDenoising:
    def test_value_at_target_is_zero(self):
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
        gt = inst.ground_truth
        assert lifted_value(inst.objective, gt.Y_star) == pytest.approx(0.0, abs=1e-20)

    def test_value_with_zero_target(self):
        rng = np.random.default_rng(2)
        Y = FactorPoint(rng.standard_normal((5, 2)))
        # the target of a bare factor, with no instance around it
        obj = DenoisingObjective(Y).handle()
        Z = FactorPoint(rng.standard_normal((5, 2)))
        expected = 0.5 * np.linalg.norm(Z.gram() - Y.gram()) ** 2
        assert lifted_value(obj, Z) == pytest.approx(expected)

    def test_grad_at_target_is_zero(self):
        inst = make_instance("denoising", 7, 3, kappa_star=3.0, seed=4)
        gt = inst.ground_truth
        g = riemannian_grad_lift(inst.objective, gt.Y_star)
        assert g.norm < 1e-12

    def test_grad_plugin_zero_target_form(self):
        # with target X* the gradient lift is 2 (Y Y.T - X*) Y
        rng = np.random.default_rng(5)
        inst = make_instance("denoising", 6, 2, kappa_star=1.5, seed=6)
        obj, gt = inst.objective, inst.ground_truth
        Y = FactorPoint(rng.standard_normal((6, 2)))
        expected = 2.0 * (Y.gram() - gt.X_star) @ Y.Y
        np.testing.assert_allclose(riemannian_grad_lift(obj, Y).theta, expected, atol=1e-12)

    def test_hess_at_target_is_tangent_norm(self):
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=7)
        obj, gt = inst.objective, inst.ground_truth
        rng = np.random.default_rng(8)
        th = random_horizontal(rng, gt.Y_star)
        expected = np.linalg.norm(
            gt.Y_star.Y @ th.theta.T + th.theta @ gt.Y_star.Y.T
        ) ** 2
        assert riemannian_hess_quadform(obj, gt.Y_star, th) == pytest.approx(expected)

    def test_target_is_the_factors_gram(self, monkeypatch):
        # the factor is the target's one check: no eigendecomposition; the
        # ground truth holds the factor's Gram, where the objective is 0
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=3)
        gt = inst.ground_truth
        assert gt.X_star is gt.Y_star.gram()
        assert inst.objective.value(gt.X_star) == 0.0
        # the residual is a flat row, as on trace regression
        residual = inst.objective.least_squares.residual(np.zeros((6, 6)))
        np.testing.assert_array_equal(residual, -gt.X_star.ravel())

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
        )
        th = HorizontalTangent(Y.Y, Y)
        got = riemannian_hess_quadform(handle, Y, th)
        assert got == pytest.approx(6.0 * np.linalg.norm(Y.gram()) ** 2, rel=1e-12)

    def test_fiber_invariance(self):
        rng = np.random.default_rng(10)
        inst = make_instance("denoising", 7, 2, kappa_star=2.0, seed=11)
        obj, gt = inst.objective, inst.ground_truth
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
    (20, 3, hess_extreme_eigs),  # dense spectrum from one map sweep
    (6, 2, riemannian_grad_lift),
])
def test_overflowing_evaluation_is_a_numerical_failure(p, r, evaluate):
    # a finite, full-rank point whose Gram overflows
    inst = make_instance("denoising", p, r, kappa_star=2.0, seed=1)
    gt = inst.ground_truth
    Y = FactorPoint(1e155 * gt.Y_star.Y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="non-finite"):
            evaluate(inst.objective, Y)


class TestTraceRegression:
    def test_noiseless_exact_fit(self):
        inst = make_instance("trace_regression", 6, 2, n=50, noise_sigma=0.0, seed=3)
        gt = inst.ground_truth
        assert lifted_value(inst.objective, gt.Y_star) == pytest.approx(0.0, abs=1e-18)
        assert gt.grad_at_star_trunc == pytest.approx(0.0, abs=1e-10)

    def test_gradient_formula(self):
        inst = make_instance("trace_regression", 5, 2, n=40, noise_sigma=0.1, seed=4)
        reg = inst.trace_regression
        obj = inst.objective
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 5))
        X = X + X.T
        expected = reg.adjoint(reg.apply_map(X) - reg.y)
        np.testing.assert_allclose(obj.euclid_grad(X), expected)
        # gradient of a symmetric-sensing objective is symmetric
        G = obj.euclid_grad(X)
        np.testing.assert_allclose(G, G.T, atol=1e-12)

    def test_hessian_constant_in_x(self):
        obj = make_instance("trace_regression", 5, 2, n=30, seed=6).objective
        rng = np.random.default_rng(7)
        G = rng.standard_normal((5, 5))
        G = G + G.T
        X1 = rng.standard_normal((5, 5))
        X2 = rng.standard_normal((5, 5))
        assert obj.euclid_hess_form(X1, G, G) == pytest.approx(
            obj.euclid_hess_form(X2, G, G)
        )

    def test_hess_form_symmetric_bilinear(self):
        obj = make_instance("trace_regression", 5, 2, n=30, seed=8).objective
        rng = np.random.default_rng(9)
        X = np.zeros((5, 5))
        G1 = rng.standard_normal((5, 5))
        G2 = rng.standard_normal((5, 5))
        a = obj.euclid_hess_form(X, G1, G2)
        b = obj.euclid_hess_form(X, G2, G1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_seed_determinism(self):
        r1, r2 = (
            make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.3, seed=42).trace_regression
            for _ in range(2)
        )
        np.testing.assert_array_equal(r1.y, r2.y)
        np.testing.assert_array_equal(r1.sensing, r2.sensing)

    def test_sensing_symmetrized(self):
        reg = make_instance("trace_regression", 5, 2, n=20, seed=10).trace_regression
        np.testing.assert_allclose(
            reg.sensing, np.transpose(reg.sensing, (0, 2, 1)), atol=1e-15
        )

    def test_chunked_symmetry_check_sees_the_last_chunk(self, monkeypatch):
        p, n = 4, 10
        # three samples per chunk, so the last chunk holds one
        monkeypatch.setattr(objectives, "_CHUNK_ENTRIES", 3 * p * p + 1)
        assert len(objectives._sample_chunks(n, p)) == 4
        sensing = _one_draw(p, n, 11)
        objectives.TraceRegressionObjective(sensing, np.zeros(n))
        sensing[-1, 0, 1] += 1.0
        with pytest.raises(InputContractError, match="symmetric"):
            objectives.TraceRegressionObjective(sensing, np.zeros(n))

    def test_sensing_entries_have_the_law_of_the_symmetrized_gaussian(self):
        # (G + G.T) / (2 sqrt(n)) for a standard Gaussian G has N(0, 1/n)
        # diagonal and N(0, 1/(2n)) off-diagonal entries; each standardized
        # class has mean 0 and variance 1 within 5 standard errors
        p, n = 6, 20000
        packed = objectives._sensing_from_seed(p, n, 17)
        iu, ju = np.triu_indices(p)
        for on_diagonal, variance in ((True, 1.0 / n), (False, 1.0 / (2 * n))):
            z = packed[:, (iu == ju) == on_diagonal].ravel() / np.sqrt(variance)
            assert abs(z.mean()) <= 5.0 / np.sqrt(z.size)
            assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / z.size)

    def test_dropped_instance_frees_its_map_at_once(self):
        # the map's pages go back when the last reference goes, so nothing
        # may hold the objective in a reference cycle
        inst = make_instance("trace_regression", 5, 2, n=60, seed=3)
        ref = weakref.ref(inst.trace_regression)
        del inst
        assert ref() is None

    def test_sensing_draw_is_pinned(self):
        # every stored trace-regression document pairs its y with this draw:
        # a change to these bytes must come with a new INSTANCE_FORMAT
        packed = objectives._sensing_from_seed(4, 5, 0)
        digest = hashlib.sha256(packed.tobytes()).hexdigest()
        assert digest == "57460daacace4845385fb3f39d40c57ef9e1a42c34d9186de67244243f4fa0b9", (
            f"the sensing draw changed (numpy {np.__version__})"
        )

    @pytest.mark.parametrize("field, bad", [("sensing", np.nan), ("sensing", np.inf), ("y", np.nan)])
    def test_non_finite_data_is_rejected(self, field, bad):
        # a NaN passes the symmetry test and an inf breaks it with a warning;
        # entry 5 of the sensing array is on a diagonal
        data = {"sensing": _one_draw(4, 10, 11), "y": np.zeros(10)}
        data[field].flat[5] = bad
        with pytest.raises(InputContractError, match=f"^{field} contains non-finite"):
            TraceRegressionObjective(data["sensing"], data["y"])

    def test_drawn_observations_that_overflow_are_rejected(self):
        # r sigma_1^2 is finite, but A(X*) overflows for this seed; the
        # message names the target, and numpy warns of nothing
        with pytest.raises(InputContractError, match=r"^kappa_star \* sigma_r_star = 1.3e\+154 is"):
            make_instance("trace_regression", 2, 1, n=3, sigma_r_star=1.3e154, seed=2)

    def test_stored_target_whose_gradient_overflows_is_rejected(self):
        # finite stored observations, but A(X*) and so grad f(X*) overflow
        doc = {"format": 2, "kind": "trace_regression", "p": 2, "r": 1, "n": 3, "seed": 0,
               "noise_sigma": 0.0, "spectrum": [1.3e154], "y": [0.0, 0.0, 0.0]}
        with pytest.raises(InputContractError, match=r"^max\(spectrum\) = 1.3e\+154 or the stored y is"):
            instance_from_document(doc)

    @pytest.mark.parametrize("seed", [1, 3, 4, 6, 7])
    def test_stored_target_whose_gradient_norms_overflow_is_rejected(self, seed):
        # at these seeds grad f(X*) is finite, but its truncated norm and
        # ||grad f(X*) Y*||_F overflow; pytest turns a numpy warning into an error
        doc = {"format": 2, "kind": "trace_regression", "p": 2, "r": 1, "n": 3, "seed": seed,
               "noise_sigma": 0.0, "spectrum": [1.3e154], "y": [0.0, 0.0, 0.0]}
        with pytest.raises(InputContractError, match=r"the norms of the gradient at X\* overflow$"):
            instance_from_document(doc)

    def test_sensing_is_read_only_and_equals_one_draw(self):
        p, n, seed = 5, 37, 3
        reg = make_instance("trace_regression", p, 2, n=n, seed=seed).trace_regression
        assert reg.packed.shape == (n, p * (p + 1) // 2)
        np.testing.assert_array_equal(reg.sensing, _one_draw(p, n, seed))
        assert reg.sensing is reg.sensing
        with pytest.raises(ValueError):
            reg.sensing[0, 0, 0] = 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_packed_map_matches_full_array(self, symmetric):
        p, n = 7, 53
        inst = make_instance("trace_regression", p, 2, n=n, noise_sigma=0.1, seed=14)
        reg = inst.trace_regression
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
        inst = make_instance("trace_regression", 5, 2, n=20, noise_sigma=0.1, seed=16)
        reg = inst.trace_regression
        rebuilt = TraceRegressionObjective(np.array(reg.sensing), reg.y)
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
        inst = make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.1, seed=17)
        reg = inst.trace_regression
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
        inst = make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.1, seed=19)
        reg = inst.trace_regression
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
        n = 53
        inst = make_instance("trace_regression", p, 1, n=n, noise_sigma=0.1, seed=23)
        reg = inst.trace_regression
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

    @pytest.mark.parametrize("p, k", [(12, 9), (20, 9), (1, 2)])
    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_images_of_a_stack_equal_those_packed_matrix_by_matrix(self, monkeypatch, p, k, block_rows):
        # the stack is packed and unpacked with one indexing operation each;
        # its images equal, bit for bit, those from coefficients packed and
        # normal images unpacked one matrix at a time
        reg = make_instance("trace_regression", p, 1, n=53, noise_sigma=0.1, seed=27).trace_regression
        if block_rows is not None:
            monkeypatch.setattr(objectives, "_SWEEP_BYTES", block_rows * 8 * reg.packed.shape[1])
        Gs = np.random.default_rng(28).standard_normal((k, p, p))
        forward, normal = reg.images(Gs)
        pack, unpack = objectives._packed_coefficients, objectives._unpacked
        monkeypatch.setattr(objectives, "_packed_coefficients", lambda X: np.stack([pack(G) for G in X]))
        monkeypatch.setattr(objectives, "_unpacked", lambda U, p: np.stack([unpack(u, p) for u in U]))
        expected = reg.images(Gs)
        np.testing.assert_array_equal(forward, expected[0])
        np.testing.assert_array_equal(normal, expected[1])

    def test_least_squares_structure_of_the_handles(self):
        # f = 0.5 ||r||^2, A.T A(X) = grad f(X) - grad f(0) and the Hessian
        # form is ||A(G)||^2, on both problem families
        reg = make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.1, seed=25)
        den = make_instance("denoising", 6, 2, kappa_star=2.0, seed=25)
        X = np.random.default_rng(26).standard_normal((6, 6))
        X = X + X.T
        for obj in (reg.objective, den.objective):
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
        reg = make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.1, seed=27)
        den = make_instance("denoising", 6, 2, kappa_star=2.0, seed=27)
        X = np.random.default_rng(28).standard_normal((6, 6))
        for obj in (reg.objective, den.objective):
            before = obj.value(X)
            grad = obj.euclid_grad(X)
            grad += 1.0
            assert obj.value(X) == before

    def test_shared_residual_under_thread_switches(self):
        # threads sharing one handle each get their own point's value and
        # gradient under frequent switches
        import sys
        import threading

        inst = make_instance("trace_regression", 5, 2, n=30, noise_sigma=0.1, seed=21)
        reg = inst.trace_regression
        obj = inst.objective
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


def _relative_gap(a, b):
    """``max |a - b|`` over ``max |b|`` (0 when both are 0)."""
    scale = np.abs(b).max()
    return np.abs(a - b).max() / scale if scale else float(np.abs(a).max())


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=60),
    block_rows=st.sampled_from([None, 1, 2, 3, 7]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_forward_equals_the_images_and_the_map_on_trace_regression(p, k, n, block_rows, seed):
    # blocks of 1, 2, 3 or 7 rows put the sweep of images across block
    # edges; forward is one product with the whole map
    reg = make_instance("trace_regression", p, 1, n=n, seed=seed % 1000).trace_regression
    Gs = np.random.default_rng(seed).standard_normal((k, p, p))
    with pytest.MonkeyPatch.context() as patched:
        if block_rows is not None:
            patched.setattr(objectives, "_SWEEP_BYTES", block_rows * 8 * reg.packed.shape[1])
        images = reg.images(Gs)[0]
    F = reg.handle().least_squares.forward(Gs)
    assert F.shape == (k, n)
    assert _relative_gap(F, images) <= 1e-12
    assert _relative_gap(F, np.stack([reg.apply_map(G) for G in Gs])) <= 1e-12


@pytest.mark.parametrize("k", [1, 5])
def test_forward_of_denoising_is_the_flattened_stack(k):
    ls = make_instance("denoising", 7, 2, kappa_star=2.0, seed=29).objective.least_squares
    Gs = np.random.default_rng(30).standard_normal((k, 7, 7))
    F = ls.forward(Gs)
    # the identity map: one matrix is one flat row, and so are the images
    np.testing.assert_array_equal(F, Gs.reshape(k, -1))
    np.testing.assert_array_equal(ls.forward(Gs[0]), Gs[0].ravel())
    np.testing.assert_array_equal(F, ls.images(Gs)[0])


def _per_probe_forms(obj, rank, n_samples, seed):
    """The probe forms one ``euclid_hess_form`` call at a time from the probe
    stream: each probe a unit ``G``, drawn after an ``X`` only on a handle
    without a map (a least-squares form does not read ``X``)."""
    rng = _stream(seed, _PROBES)
    forms = []
    for _ in range(n_samples):
        X = np.zeros((obj.p, obj.p))
        if obj.least_squares is None:
            X = random_symmetric_low_rank(obj.p, rank, rng)
        G = random_symmetric_low_rank(obj.p, 2 * rank, rng, unit=True)
        forms.append(obj.euclid_hess_form(X, G, G))
    return np.array(forms)


@pytest.mark.parametrize("n_samples", [1, 31, 32, 33, 200])
@pytest.mark.parametrize("kind", ["trace_regression", "denoising", "custom"])
def test_blocked_probes_match_the_per_probe_forms(kind, n_samples):
    # the blocks of forward sweeps keep the probe stream of one probe at a
    # time; a custom handle (the denoising form without its map) still
    # draws an X before each G
    r, seed = 2, 31
    base = "denoising" if kind == "custom" else kind
    obj = make_instance(base, 6, r, n=30, kappa_star=2.0, seed=seed).objective
    if kind == "custom":
        obj = dataclasses.replace(obj, least_squares=None)
    ref = _per_probe_forms(obj, 2 * r, n_samples, seed)
    forms = np.array(list(objectives._probe_forms(obj, 2 * r, n_samples, seed)))
    assert _relative_gap(forms, ref) <= 1e-13
    delta = rsc_rsm_estimate(obj, r, n_samples, seed)
    assert abs(delta - max(0.0, *np.abs(ref - 1.0))) <= 1e-13 * ref.max()
    strict = _per_probe_forms(obj, r, n_samples, seed)
    assert restricted_strict_convexity_check(obj, r, n_samples, seed) == bool(np.all(strict > 0.0))


def test_blocked_probes_keep_memory_to_a_block():
    # 5000 probes of 10 x 10 directions would take 4 MB as one stack; the
    # estimate holds a block of 32 at a time (25.6 kB of directions)
    obj = make_instance("trace_regression", 10, 2, n=100, seed=32).objective
    block = 32 * 10 * 10 * 8
    rsc_rsm_estimate(obj, 2, 40, seed=33)  # caches and first-call buffers
    tracemalloc.start()
    try:
        rsc_rsm_estimate(obj, 2, 5000, seed=33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * block


def _one_draw(p, n, seed):
    """The sensing map as full ``(n, p, p)`` matrices, from one draw of their
    upper triangles divided by ``sqrt(n)`` on the diagonal and by
    ``sqrt(2n)`` off it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    iu, ju = np.triu_indices(p)
    upper = rng.standard_normal((n, len(iu))) / np.sqrt(np.where(iu == ju, n, 2 * n))
    A = np.empty((n, p, p))
    A[:, iu, ju] = upper
    A[:, ju, iu] = upper
    return A



def _count_passes(reg, names=("apply_map", "adjoint")):
    """Count the calls of the named maps of ``reg`` from now on."""
    passes = dict.fromkeys(names, 0)
    for name in passes:
        method = getattr(reg, name)

        def counted(arg, name=name, method=method):
            passes[name] += 1
            return method(arg)

        setattr(reg, name, counted)
    return passes


class TestGroundTruth:
    def test_kappa_and_spectrum(self):
        inst = make_instance("denoising", 9, 3, kappa_star=2.5, sigma_r_star=0.8, seed=12)
        gt = inst.ground_truth
        assert gt.kappa_star == pytest.approx(2.5, rel=1e-10)
        assert gt.sigmar_star == pytest.approx(0.8, rel=1e-10)
        assert gt.sigma1_star == pytest.approx(2.0, rel=1e-10)

    def test_rank1_requires_unit_kappa(self):
        with pytest.raises(InputContractError):
            make_instance("denoising", 5, 1, kappa_star=2.0, seed=0)

    def test_noise_magnitude_via_adjoint(self):
        # grad f(X*) = -A.T(eps); its truncated norm must match a direct SVD
        inst = make_instance("trace_regression", 6, 2, n=40, noise_sigma=0.2, seed=13)
        gt = inst.ground_truth
        G = inst.objective.euclid_grad(gt.X_star)
        s = np.linalg.svd(G, compute_uv=False)
        assert gt.grad_at_star_trunc == pytest.approx(np.sqrt(np.sum(s[:2] ** 2)))
        assert gt.grad_at_star_along_factor == float(np.linalg.norm(G @ gt.Y_star.Y))

    @pytest.mark.parametrize("kind, n", [("denoising", 0), ("trace_regression", 40)])
    def test_noiseless_build_makes_only_the_factor_svd(self, kind, n, monkeypatch):
        # the gradient at X* is exactly zero, so its noise term needs no SVD
        svd, shapes = np.linalg.svd, []

        def counted_svd(A, *args, **kwargs):
            shapes.append(A.shape)
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        gt = make_instance(kind, 8, 2, n=n, kappa_star=2.0, seed=3).ground_truth
        assert shapes == [(8, 2)]
        assert gt.grad_at_star_trunc == gt.grad_at_star_along_factor == 0.0

    def test_target_norm(self):
        gt = make_instance("denoising", 7, 3, kappa_star=2.0, seed=4).ground_truth
        assert gt.X_star_norm == float(np.linalg.norm(gt.X_star))
        # the squared entries overflow; ||X*||_F = sqrt(sigma_1^4 + sigma_2^4) does not
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, sigma_r_star=1e150, seed=4)
        assert inst.ground_truth.X_star_norm == pytest.approx(np.sqrt(17.0) * 1e300, rel=1e-12)


class TestEmbeddedHessian:
    def test_at_target_is_tangent_norm(self):
        rng = np.random.default_rng(14)
        gt = make_instance("denoising", 6, 2, kappa_star=2.0, seed=15).ground_truth
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
        gt = make_instance("denoising", 6, 2, kappa_star=1.5, seed=17).ground_truth
        S = rng.standard_normal((2, 2))
        S = S + S.T
        D = np.zeros((4, 2))
        got = embedded_hess_quadform(gt.X_star, 2 * gt.X_star, S, D)
        assert got == pytest.approx(np.linalg.norm(S) ** 2, rel=1e-10)

    def test_lower_bound_at_prescribed_distance(self):
        # ||X - X*||_F = 0.2 sigma_r(X*): the form keeps half the tangent norm
        rng = np.random.default_rng(18)
        gt = make_instance("denoising", 8, 2, kappa_star=2.0, seed=19).ground_truth
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
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=20)
        assert rsc_rsm_estimate(inst.objective, 2, 100, seed=0) == pytest.approx(0.0, abs=1e-10)

    def test_trace_regression_delta_small_with_many_measurements(self):
        inst = make_instance("trace_regression", 6, 2, n=36, seed=21)
        delta_hat = rsc_rsm_estimate(inst.objective, 2, 100, seed=1)
        # statistical: logged, not asserted tightly
        print(f"sampled constant for n = p^2: {delta_hat:.4f}")
        assert delta_hat < 1.0

    def test_monotone_in_samples(self):
        obj = make_instance("trace_regression", 6, 2, n=30, seed=22).objective
        values = [rsc_rsm_estimate(obj, 2, n, seed=5) for n in (10, 20, 40, 80)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_hess_form_applies_the_map_once_on_one_argument(self):
        # the probes of the estimate take one forward sweep together
        reg = make_instance("trace_regression", 6, 2, n=30, seed=22).trace_regression
        passes = _count_passes(reg, ("apply_map", "adjoint"))
        obj = reg.handle()
        rsc_rsm_estimate(obj, 2, 10, seed=5)
        assert passes == {"apply_map": 1, "adjoint": 0}
        # the same array twice is one pass and gives the bits of two equal arrays
        rng = np.random.default_rng(6)
        X, G = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
        same = obj.euclid_hess_form(X, G, G)
        assert passes["apply_map"] == 2
        assert same == obj.euclid_hess_form(X, G, G.copy())
        assert passes["apply_map"] == 4

    def test_strict_convexity_probe(self):
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=23)
        assert restricted_strict_convexity_check(inst.objective, 2, 200, seed=2)

        from psdlandscape.objectives import ObjectiveHandle

        negated = ObjectiveHandle(
            value=lambda X: -0.5 * float(np.linalg.norm(X) ** 2),
            euclid_grad=lambda X: -X,
            euclid_hess_form=lambda X, G1, G2: -float(np.vdot(G1, G2)),
            p=6,
        )
        assert not restricted_strict_convexity_check(negated, 2, 50, seed=3)

    def test_trace_regression_strict_convexity_many_measurements(self):
        p, r = 6, 2
        inst = make_instance("trace_regression", p, r, n=4 * p * r, seed=11)
        assert restricted_strict_convexity_check(inst.objective, r, 1000, seed=11)


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

    @pytest.mark.parametrize("fmt", [None, 1, 3, "2", True])
    def test_trace_document_of_another_format_is_refused(self, fmt):
        # its y was observed through another draw of the sensing map
        doc = make_instance("trace_regression", 4, 1, n=10, seed=3).to_document()
        assert doc["format"] == objectives.INSTANCE_FORMAT == 2
        if fmt is None:
            del doc["format"]
        else:
            doc["format"] = fmt
        with pytest.raises(InputContractError, match=r"^a trace-regression .* format 2,.* generate$"):
            instance_from_document(doc)

    def test_denoising_document_needs_no_format(self):
        inst = make_instance("denoising", 5, 2, kappa_star=1.5, seed=6)
        doc = inst.to_document()
        assert doc.pop("format") == 2
        rebuilt = instance_from_document(doc)
        np.testing.assert_array_equal(rebuilt.ground_truth.X_star, inst.ground_truth.X_star)

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

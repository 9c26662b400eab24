import numpy as np
import pytest

from psdlandscape.errors import (
    HypothesisViolationError,
    InitializationFailure,
    InputContractError,
    NotAFOSPError,
    NumericalFailure,
    RankCollapseError,
)
from psdlandscape.geometry import FactorPoint, quotient_distance
from psdlandscape.landscape import (
    RegionLabel,
    RegionParams,
    certify_landscape,
    classify_region,
    compute_thresholds,
    error_bound_check,
    random_ball_tangent,
    strict_convexity_fosp_check,
)
from psdlandscape.objectives import (
    TraceRegressionObjective,
    lifted_value,
    make_instance,
    restricted_strict_convexity_check,
    riemannian_grad_lift,
    rsc_rsm_estimate,
)
from psdlandscape.optimizers import (
    GDConfig,
    PerturbationSpec,
    riemannian_gd,
    spectral_init,
)
from psdlandscape.verify import run_suite

PARAMS = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)


def _error_bound_at_target(mu):
    inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
    gt = inst.ground_truth
    return error_bound_check(gt.Y_star, gt, mu, inst.objective)


def _thresholds(delta):
    gt = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1).ground_truth
    return compute_thresholds(gt, PARAMS, 2, delta=delta)


def _denoising_problem():
    inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
    return inst.objective, inst.ground_truth


def _certify(n_points=4, seed=0):
    obj, gt = _denoising_problem()
    return certify_landscape(obj, gt, PARAMS, ["ball"], n_points, seed)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GDConfig(grad_tol=np.nan),
        lambda: GDConfig(step_size=np.nan),
        lambda: GDConfig(max_iters=np.nan),
        lambda: PerturbationSpec(radius=0.1, trigger_tol=1e-3, cooldown_iters=np.nan),
        lambda: _error_bound_at_target(np.nan),
        lambda: _thresholds(np.nan),
        lambda: _thresholds(-0.1),
        lambda: _thresholds(np.inf),
        lambda: GDConfig(max_iters=2.5),
        lambda: GDConfig(max_iters=True),
        lambda: GDConfig(seed=1.5),
        lambda: PerturbationSpec(radius=0.1, trigger_tol=1e-3, cooldown_iters=2.5),
        lambda: _certify(n_points=2.5),
        lambda: _certify(seed=1.5),
        lambda: run_suite("norm-sandwich", instances=2.5),
        lambda: run_suite("norm-sandwich", seed=1.5),
        lambda: rsc_rsm_estimate(_denoising_problem()[0], 2, 2.5, seed=0),
        lambda: restricted_strict_convexity_check(_denoising_problem()[0], 2, 2.5, seed=0),
        lambda: make_instance("denoising", 2.5, 1),
        lambda: make_instance("denoising", 4, 1, seed=1.5),
        lambda: random_ball_tangent(_denoising_problem()[1].Y_star, -1.0, np.random.default_rng(0)),
        lambda: spectral_init(_denoising_problem()[0], 2.5),
        lambda: spectral_init(_denoising_problem()[0], True),
    ],
    ids=[
        "grad-tol-nan", "step-size-nan", "max-iters-nan", "cooldown-nan",
        "error-bound-mu-nan", "thresholds-delta-nan", "thresholds-delta-negative",
        "thresholds-delta-infinite", "max-iters-fractional", "max-iters-boolean",
        "gd-seed-fractional", "cooldown-fractional", "n-points-fractional",
        "scan-seed-fractional", "instances-fractional", "suite-seed-fractional",
        "rsc-samples-fractional", "convexity-check-samples-fractional", "p-fractional",
        "instance-seed-fractional", "tangent-radius-negative",
        "spectral-rank-fractional", "spectral-rank-boolean",
    ],
)
def test_out_of_range_inputs_are_rejected(build):
    # every range check must also reject NaN, which compares false with
    # anything, and a count or seed must be an integer, not a boolean
    with pytest.raises(InputContractError):
        build()


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


def _saddle_problem():
    """Rank-1 denoising target ``4 e1 e1.T`` and the start ``1e-4 e2`` near
    the strict saddle at the origin."""
    from psdlandscape.objectives import DenoisingObjective

    Y_star = FactorPoint(2.0 * np.eye(6)[:, :1])
    y0 = np.zeros((6, 1))
    y0[1, 0] = 1e-4
    return DenoisingObjective(Y_star).handle(), FactorPoint(y0), Y_star.gram()


class TestGD:
    def test_immediate_convergence_at_target(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=1)
        gt = inst.ground_truth
        rec = riemannian_gd(inst.objective, gt.Y_star, GDConfig(grad_tol=1e-12))
        assert rec.converged
        assert rec.iterations == 0

    def test_contraction_in_r1_with_fixed_step(self):
        inst = make_instance("denoising", 12, 3, kappa_star=2.0, seed=2)
        obj, gt = inst.objective, inst.ground_truth
        thresholds = compute_thresholds(gt, PARAMS, 3)
        eta = 1.0 / thresholds.r1_hess_upper
        rng = np.random.default_rng(3)
        from psdlandscape.landscape import random_ball_tangent

        radius = PARAMS.mu * gt.sigmar_star / gt.kappa_star
        th = random_ball_tangent(gt.Y_star, radius, rng)
        Y0 = FactorPoint(gt.Y_star.Y + th.theta)
        cfg = GDConfig(step_size=eta, max_iters=2000, grad_tol=1e-14)
        rec = riemannian_gd(obj, Y0, cfg, gt=gt, params=PARAMS)
        assert rec.dists[-1] < 1e-8 * gt.sigmar_star
        # geometric contraction: every 50-iterate block at least halves the
        # distance until the floating-point floor
        d = np.array(rec.dists)
        for k in range(0, len(d) - 50, 50):
            if d[k] < 1e-12 * gt.sigmar_star:
                break
            assert d[k + 50] <= 0.5 * d[k]

    def test_r1_trapping_with_safe_step(self):
        inst = make_instance("denoising", 10, 2, kappa_star=2.0, seed=4)
        gt = inst.ground_truth
        thresholds = compute_thresholds(gt, PARAMS, 2)
        eta = 1.0 / thresholds.r1_hess_upper
        rng = np.random.default_rng(5)
        from psdlandscape.landscape import random_ball_tangent

        radius = PARAMS.mu * gt.sigmar_star / gt.kappa_star
        for _ in range(5):
            th = random_ball_tangent(gt.Y_star, radius, rng)
            Y0 = FactorPoint(gt.Y_star.Y + th.theta)
            cfg = GDConfig(step_size=eta, max_iters=300, grad_tol=1e-13)
            rec = riemannian_gd(inst.objective, Y0, cfg, gt=gt, params=PARAMS)
            assert all(RegionLabel.R1 in set(labels) for labels in rec.regions)

    def test_multistart_reaches_global_target(self):
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=6)
        obj, gt = inst.objective, inst.ground_truth
        rng = np.random.default_rng(7)
        cfg = GDConfig(max_iters=20000, grad_tol=1e-10 * gt.sigmar_star**3)
        for _ in range(10):
            Y0 = FactorPoint(rng.standard_normal((20, 3)) * gt.sigma1_star / np.sqrt(20))
            rec = riemannian_gd(obj, Y0, cfg)
            assert rec.converged
            err = np.linalg.norm(rec.final.gram() - gt.X_star)
            assert err < 1e-6 * np.linalg.norm(gt.X_star)

    def test_monotone_descent_backtracking(self):
        inst = make_instance("denoising", 10, 2, kappa_star=3.0, seed=8)
        gt = inst.ground_truth
        rng = np.random.default_rng(9)
        Y0 = FactorPoint(rng.standard_normal((10, 2)))
        rec = riemannian_gd(inst.objective, Y0, GDConfig(max_iters=500, grad_tol=1e-9))
        vals = np.array(rec.values)
        assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_armijo_decrement(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=10)
        gt = inst.ground_truth
        rng = np.random.default_rng(11)
        Y0 = FactorPoint(rng.standard_normal((8, 2)))
        rec = riemannian_gd(inst.objective, Y0, GDConfig(max_iters=100, grad_tol=1e-12))
        c1 = 1e-4
        for k, eta in enumerate(rec.steps):
            if rec.perturbed[k]:
                continue
            assert (
                rec.values[k + 1]
                <= rec.values[k] - c1 * eta * rec.grad_norms[k] ** 2 + 1e-12
            )

    def test_fiber_equivariance(self):
        inst = make_instance("denoising", 9, 3, kappa_star=2.0, seed=12)
        obj, gt = inst.objective, inst.ground_truth
        rng = np.random.default_rng(13)
        Y0 = FactorPoint(rng.standard_normal((9, 3)))
        O = haar(rng, 3)
        Y0O = FactorPoint(Y0.Y @ O)
        cfg = GDConfig(step_size=0.02, max_iters=60, grad_tol=1e-15)
        rec_a = riemannian_gd(obj, Y0, cfg)
        rec_b = riemannian_gd(obj, Y0O, cfg)
        # the rotated run tracks the original run's fiber at every iterate
        assert rec_a.iterations == rec_b.iterations
        assert quotient_distance(rec_a.final, rec_b.final) < 1e-8

    def test_rank_collapse_reported(self):
        # rank-1 target along e1, start at 2 e1: the fixed step 1/6 maps the
        # iterate exactly onto the zero matrix
        from psdlandscape.objectives import DenoisingObjective

        obj = DenoisingObjective(FactorPoint(np.eye(4)[:, :1])).handle()
        y0 = np.zeros((4, 1))
        y0[0, 0] = 2.0
        with pytest.raises(RankCollapseError) as err:
            riemannian_gd(
                obj, FactorPoint(y0), GDConfig(step_size=1.0 / 6.0, max_iters=10, grad_tol=1e-16)
            )
        assert err.value.iteration == 1

    @pytest.mark.parametrize("step_size", [None, 0.05])
    def test_perturbation_escapes_near_saddle(self, step_size):
        # rank-1 target along e1; a point near the orthogonal saddle has a
        # tiny gradient, so plain GD stalls long while perturbed GD escapes
        obj, Y0, X_star = _saddle_problem()
        pert = PerturbationSpec(radius=0.05, trigger_tol=1e-2, cooldown_iters=20)
        cfg = GDConfig(step_size=step_size, max_iters=4000, grad_tol=1e-10, perturbation=pert, seed=3)
        rec = riemannian_gd(obj, Y0, cfg)
        assert any(rec.perturbed)
        assert rec.converged
        assert np.linalg.norm(rec.final.gram() - X_star) < 1e-4

    def test_trajectory_csv(self):
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=15)
        gt = inst.ground_truth
        rng = np.random.default_rng(16)
        Y0 = FactorPoint(rng.standard_normal((6, 2)))
        rec = riemannian_gd(inst.objective, Y0, GDConfig(max_iters=20, grad_tol=1e-14), gt=gt, params=PARAMS)
        csv = rec.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "iter,obj,grad_norm,dist_to_star,step,regions,perturbed_flag"
        assert len(lines) == len(rec.values) + 1


class TestEvaluatedOnce:
    @pytest.mark.parametrize("step_size", [None, 0.01])
    def test_value_once_per_trial_step(self, monkeypatch, step_size):
        # on a handle without least-squares structure the accepted trial's
        # value is the next iterate's: obj.value runs at iterate 0 and once
        # per full-rank trial, never again per iterate. A fixed step is one
        # trial per iteration; backtracking rejects some trials
        import dataclasses

        from psdlandscape import optimizers

        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=17)
        gt = inst.ground_truth
        handle, full_rank = inst.objective, optimizers._full_rank
        calls = {"value": 0, "trial": 0}

        def counted_value(X):
            calls["value"] += 1
            return handle.value(X)

        def counted_full_rank(Y):
            calls["trial"] += 1
            return full_rank(Y)

        monkeypatch.setattr(optimizers, "_full_rank", counted_full_rank)
        obj = dataclasses.replace(handle, value=counted_value, least_squares=None)
        Y0 = FactorPoint(np.random.default_rng(18).standard_normal((8, 2)))
        cfg = GDConfig(step_size=step_size, max_iters=40, grad_tol=1e-14)
        rec = riemannian_gd(obj, Y0, cfg, gt=gt, params=PARAMS)
        assert rec.iterations == 40
        if step_size is None:
            assert calls["trial"] > rec.iterations
        else:
            assert calls["trial"] == rec.iterations
        assert calls["value"] == 1 + calls["trial"]

    @pytest.mark.parametrize("least_squares", [True, False])
    def test_gd_builds_no_tangent(self, monkeypatch, least_squares):
        # the step 2 R Y and the saddle kick are horizontal by construction,
        # so a run validates no HorizontalTangent, on either handle kind
        import dataclasses

        from psdlandscape.geometry import HorizontalTangent

        post_init, built = HorizontalTangent.__post_init__, []

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(HorizontalTangent, "__post_init__", counted_post_init)
        obj, Y0, _ = _saddle_problem()
        if not least_squares:
            obj = dataclasses.replace(obj, least_squares=None)
        pert = PerturbationSpec(radius=0.05, trigger_tol=1e-2, cooldown_iters=20)
        rec = riemannian_gd(obj, Y0, GDConfig(max_iters=4000, grad_tol=1e-10, perturbation=pert, seed=3))
        assert rec.converged and any(rec.perturbed)
        assert built == []

    def test_gram_formed_once_per_iterate(self, monkeypatch):
        # the direct evaluation of the last tracked iterate reads the one
        # Gram its point keeps; its region labels are taken in factor form
        # and trial values from the carried residual, and neither reads it
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=17)
        gt = inst.ground_truth
        gram, grams = FactorPoint.gram, {}

        def recorded_gram(self):
            X = gram(self)
            grams.setdefault(id(self), (self, []))[1].append(X)
            return X

        monkeypatch.setattr(FactorPoint, "gram", recorded_gram)
        Y0 = FactorPoint(np.random.default_rng(18).standard_normal((8, 2)))
        rec = riemannian_gd(inst.objective, Y0, GDConfig(max_iters=10, grad_tol=1e-14), gt=gt, params=PARAMS)
        assert rec.iterations == 10
        assert len(grams[id(rec.final)][1]) == 1
        for _, formed in grams.values():
            assert all(X is formed[0] for X in formed)
        assert not rec.final.gram().flags.writeable

    def test_one_spectrum_per_iterate_at_a_saddle(self, monkeypatch):
        # rank-1 target along e1; at 0.3 e2 the gradient (0.054) is below
        # grad_tol and the Hessian has a negative eigenvalue, so iterate 0 is
        # a strict saddle read by both the convergence and the escape test
        from psdlandscape import optimizers
        from psdlandscape.objectives import DenoisingObjective

        obj = DenoisingObjective(FactorPoint(np.eye(4)[:, :1])).handle()
        y0 = np.zeros((4, 1))
        y0[1, 0] = 0.3
        spectrum, spectra = optimizers.hess_extreme_eigs, []

        def counted_spectrum(obj, Y, **kw):
            spectra.append(Y)
            return spectrum(obj, Y, **kw)

        monkeypatch.setattr(optimizers, "hess_extreme_eigs", counted_spectrum)
        pert = PerturbationSpec(radius=0.01, trigger_tol=0.1)
        rec = riemannian_gd(
            obj, FactorPoint(y0), GDConfig(max_iters=1, grad_tol=0.06, perturbation=pert)
        )
        assert rec.perturbed == [True, False]
        assert len(spectra) == 2


def _least_squares_problem(kind):
    """A handle with least-squares structure and a start away from the target."""
    if kind == "trace_regression":
        inst = make_instance("trace_regression", 8, 2, n=120, noise_sigma=0.0, seed=30)
        return inst.objective, spectral_init(inst.objective, 2)
    inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=31)
    return inst.objective, FactorPoint(np.random.default_rng(32).standard_normal((8, 2)))


class TestLeastSquaresCarry:
    @pytest.mark.parametrize("kind", ["trace_regression", "denoising"])
    @pytest.mark.parametrize("fixed_step", [False, True])
    def test_carried_path_matches_direct_evaluation(self, kind, fixed_step):
        # the residual and gradient carried along the step reproduce the run
        # that evaluates the objective at every trial and iterate
        import dataclasses

        obj, Y0 = _least_squares_problem(kind)
        step = 0.5 / (4.0 * Y0.sigma_max**2) if fixed_step else None
        cfg = GDConfig(step_size=step, max_iters=3000, grad_tol=1e-8)
        carried = riemannian_gd(obj, Y0, cfg)
        direct = riemannian_gd(dataclasses.replace(obj, least_squares=None), Y0, cfg)
        assert carried.converged and direct.converged
        assert carried.iterations == direct.iterations > 10
        assert carried.steps == direct.steps
        np.testing.assert_allclose(carried.values, direct.values, rtol=1e-5, atol=0)
        np.testing.assert_allclose(carried.grad_norms, direct.grad_norms, rtol=1e-5, atol=0)

    @pytest.mark.parametrize("kind", ["trace_regression", "denoising"])
    def test_images_once_per_iteration(self, kind):
        import dataclasses

        obj, Y0 = _least_squares_problem(kind)
        ls, calls = obj.least_squares, []

        def counted_images(Gs):
            calls.append(Gs.shape)
            return ls.images(Gs)

        obj = dataclasses.replace(obj, least_squares=dataclasses.replace(ls, images=counted_images))
        rec = riemannian_gd(obj, Y0, GDConfig(max_iters=3000, grad_tol=1e-10))
        assert rec.converged
        assert len(calls) == rec.iterations > 10
        assert set(calls) == {(2, 8, 8)}

    def test_direct_evaluation_reads_the_map_once_each_way(self, monkeypatch):
        # each direct evaluation takes the gradient as the adjoint of the
        # residual it already holds: one forward and one adjoint pass, and
        # no call of the handle's own gradient
        import dataclasses

        from psdlandscape import optimizers

        inst = make_instance("trace_regression", 8, 2, n=120, noise_sigma=0.0, seed=30)
        reg = inst.trace_regression
        Y0 = spectral_init(reg.handle(), 2)
        calls = {"apply_map": 0, "adjoint": 0, "euclid_grad": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("apply_map", "adjoint"):
            monkeypatch.setattr(reg, name, counted(name, getattr(reg, name)))
        monkeypatch.setattr(optimizers, "_evaluate", counted("evaluate", optimizers._evaluate))
        obj = reg.handle()
        obj = dataclasses.replace(obj, euclid_grad=counted("euclid_grad", obj.euclid_grad))
        riemannian_gd(obj, Y0, GDConfig(max_iters=5, grad_tol=1e-14))
        assert calls == {"apply_map": 2, "adjoint": 2, "euclid_grad": 0, "evaluate": 2}

    @pytest.mark.parametrize("kind", ["trace_regression", "denoising"])
    @pytest.mark.parametrize("max_iters", [5, 3000])
    def test_run_ends_on_a_directly_evaluated_iterate(self, kind, max_iters):
        # stopped by max_iters or converged, the last row is the objective's
        # own value and gradient at the final factor
        obj, Y0 = _least_squares_problem(kind)
        rec = riemannian_gd(obj, Y0, GDConfig(max_iters=max_iters, grad_tol=1e-10))
        assert rec.converged == (max_iters > 5)
        assert rec.grad_norms[-1] == riemannian_grad_lift(obj, rec.final).norm
        res = obj.least_squares.residual(rec.final.gram())
        assert rec.values[-1] == 0.5 * float(np.vdot(res, res))
        assert rec.values[-1] == pytest.approx(lifted_value(obj, rec.final), rel=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_is_a_numerical_failure(self):
        # a huge fixed step makes the carried residual and gradient overflow;
        # the run must end as a numerical failure, not as bad input
        inst = make_instance("trace_regression", 6, 2, n=72, noise_sigma=0.0, seed=33)
        with pytest.raises((NumericalFailure, RankCollapseError)):
            riemannian_gd(
                inst.objective,
                spectral_init(inst.objective, 2),
                GDConfig(step_size=1e9, max_iters=50, grad_tol=1e-16),
            )


class TestStepSearch:
    def test_exhaustion_raises(self):
        # a wrong-sign gradient points uphill, so every trial step increases
        # the objective and the line search must give up
        from psdlandscape.errors import StepSearchError
        from psdlandscape.objectives import ObjectiveHandle

        uphill = ObjectiveHandle(
            value=lambda X: 0.5 * float(np.linalg.norm(X) ** 2),
            euclid_grad=lambda X: -X,
            euclid_hess_form=lambda X, G1, G2: -float(np.vdot(G1, G2)),
            p=5,
        )
        rng = np.random.default_rng(26)
        Y0 = FactorPoint(rng.standard_normal((5, 2)))
        with pytest.raises(StepSearchError):
            riemannian_gd(uphill, Y0, GDConfig(max_iters=5, grad_tol=1e-16))


class TestUniqueStationaryPointAcrossInstances:
    def test_fifty_instances(self):
        # every sufficiently stationary limit point recovers the target Gram
        # matrix, across independently drawn problems
        for seed in range(50):
            inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=seed)
            obj, gt = inst.objective, inst.ground_truth
            rng = np.random.default_rng(1000 + seed)
            Y0 = FactorPoint(rng.standard_normal((8, 2)) * gt.sigma1_star / np.sqrt(8))
            grad_tol = 1e-10 * gt.sigmar_star**3
            rec = riemannian_gd(obj, Y0, GDConfig(max_iters=30_000, grad_tol=grad_tol))
            if rec.grad_norms[-1] < grad_tol:
                err = np.linalg.norm(rec.final.gram() - gt.X_star)
                assert err < 1e-6 * np.linalg.norm(gt.X_star)


class TestSpectralInit:
    def test_noiseless_concentration(self):
        p, r, n = 12, 2, 8 * 12 * 2
        inst = make_instance("trace_regression", p, r, n=n, noise_sigma=0.0, seed=17)
        gt = inst.ground_truth
        Y0 = spectral_init(inst.objective, r)
        rel = np.linalg.norm(Y0.gram() - gt.X_star) / np.linalg.norm(gt.X_star)
        print(f"spectral init relative error: {rel:.3f}")
        assert rel < 0.5

    def test_zero_observations_fail(self):
        rng = np.random.default_rng(18)
        G = rng.standard_normal((10, 4, 4))
        sensing = (G + np.transpose(G, (0, 2, 1))) / 2
        reg = TraceRegressionObjective(sensing, np.zeros(10))
        with pytest.raises(InitializationFailure):
            spectral_init(reg.handle(), 2)

    def test_deterministic(self):
        inst = make_instance("trace_regression", 8, 2, n=60, noise_sigma=0.1, seed=19)
        reg = inst.trace_regression
        a = spectral_init(reg.handle(), 2)
        b = spectral_init(reg.handle(), 2)
        np.testing.assert_array_equal(a.Y, b.Y)


class TestErrorBound:
    def test_noiseless_trace_regression(self):
        p, r, n = 10, 2, 10 * 10 * 2
        inst = make_instance("trace_regression", p, r, n=n, noise_sigma=0.0, seed=20)
        obj, gt = inst.objective, inst.ground_truth
        Y0 = spectral_init(inst.objective, r)
        cfg = GDConfig(max_iters=20000, grad_tol=1e-9 * gt.sigmar_star**3)
        rec = riemannian_gd(obj, Y0, cfg, gt=gt)
        assert rec.converged
        res = error_bound_check(rec.final, gt, PARAMS.mu, obj, fosp_tol=1e-6)
        assert res.rhs == pytest.approx(0.0, abs=1e-12)
        assert res.lhs <= 1e-7 * gt.sigmar_star
        assert res.holds

    def test_denoising_at_target(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=21)
        gt = inst.ground_truth
        res = error_bound_check(gt.Y_star, gt, PARAMS.mu, inst.objective)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(0.0, abs=1e-15)
        assert res.holds and res.holds_mid

    def test_gradient_at_the_target_is_read_from_the_ground_truth(self):
        # the one gradient evaluation is the stationarity test at Y_hat
        import dataclasses

        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=21)
        gt, obj, points = inst.ground_truth, inst.objective, []

        def counted_grad(X):
            points.append(X)
            return obj.euclid_grad(X)

        Y_hat = FactorPoint(gt.Y_star.Y[:, ::-1])
        error_bound_check(Y_hat, gt, PARAMS.mu, dataclasses.replace(obj, euclid_grad=counted_grad))
        assert len(points) == 1
        np.testing.assert_array_equal(points[0], Y_hat.gram())

    def test_hypothesis_violation(self):
        inst = make_instance("denoising", 8, 2, kappa_star=1.0, seed=22)
        gt = inst.ground_truth
        with pytest.raises(HypothesisViolationError):
            error_bound_check(gt.Y_star, gt, 1.0 / 3.0, inst.objective)

    @pytest.mark.parametrize(
        "mu, fosp_tol, message",
        [
            (-1.0, None, "mu must lie in"),
            (5.0, None, "mu must lie in"),
            (PARAMS.mu, np.nan, "fosp_tol must be >= 0"),
            (PARAMS.mu, -1.0, "fosp_tol must be >= 0"),
        ],
        ids=["mu-negative", "mu-above-a-third", "fosp-tol-nan", "fosp-tol-negative"],
    )
    def test_out_of_range_mu_and_fosp_tol_are_refused(self, mu, fosp_tol, message):
        # the range of mu is that of RegionParams; a NaN tolerance would
        # pass any point as stationary
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
        gt = inst.ground_truth
        with pytest.raises(InputContractError, match=message) as refused:
            error_bound_check(gt.Y_star, gt, mu, inst.objective, fosp_tol=fosp_tol)
        assert type(refused.value) is InputContractError

    def test_rejects_non_stationary(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=23)
        gt = inst.ground_truth
        rng = np.random.default_rng(24)
        Y = FactorPoint(gt.Y_star.Y + 0.05 * rng.standard_normal((8, 2)))
        with pytest.raises(NotAFOSPError):
            error_bound_check(Y, gt, PARAMS.mu, inst.objective)


class TestConvergedFospSpectrum:
    def test_noiseless_regression_minimizer_is_convex_point(self):
        p, r, n = 8, 2, 8 * 8 * 2
        inst = make_instance("trace_regression", p, r, n=n, noise_sigma=0.0, seed=25)
        obj, gt = inst.objective, inst.ground_truth
        Y0 = spectral_init(inst.objective, r)
        cfg = GDConfig(max_iters=20000, grad_tol=1e-11)
        rec = riemannian_gd(obj, Y0, cfg)
        assert rec.converged
        est = strict_convexity_fosp_check(obj, rec.final, fosp_tol=1e-8)
        assert est.lambda_min > 0

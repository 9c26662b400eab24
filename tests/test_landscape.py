import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlandscape.errors import (
    HypothesisViolationError,
    InputContractError,
    NotAFOSPError,
    ResourceLimitError,
)
from psdlandscape import landscape
from psdlandscape.geometry import FactorPoint, HorizontalTangent, horizontal_project, quotient_distance
from psdlandscape.kernels import _SCAN_POINT, _stream
from psdlandscape.landscape import (
    SQRT2M1_TIMES_2,
    RegionLabel,
    RegionParams,
    certify_landscape,
    classify_region,
    compute_thresholds,
    escape_direction,
    hess_extreme_eigs,
    horizontal_basis,
    horizontal_dim,
    reports_to_csv,
    strict_convexity_fosp_check,
)
from psdlandscape.objectives import (
    GroundTruth,
    ObjectiveHandle,
    _form_matrix,
    _lift,
    _sym_grad,
    make_instance,
    riemannian_hess_quadform,
    rsc_rsm_estimate,
)
from psdlandscape.optimizers import GDConfig, riemannian_gd, spectral_init

PARAMS = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


def r2_point(gt, rng, params):
    """A verified member of R2: drop one target direction, complete the rank
    with a tiny orthogonal column so the gradient is small but the distance
    to the target is order sigma_r."""
    Ys = gt.Y_star
    p, r = Ys.p, Ys.r
    U, sigma, _ = Ys.svd
    j = int(rng.integers(0, r))
    keep = [i for i in range(r) if i != j]
    # unit vector orthogonal to the whole target column space
    raw = rng.standard_normal(p)
    raw -= U @ (U.T @ raw)
    q = raw / np.linalg.norm(raw)
    grad_cap = params.alpha * params.mu * gt.sigmar_star**3 / (4.0 * gt.kappa_star)
    eps = 0.9 * (grad_cap / 2.0) ** (1.0 / 3.0)
    cols = [U[:, i] * sigma[i] for i in keep] + [eps * q]
    Y = np.stack(cols, axis=1) @ haar(rng, r)
    return FactorPoint(Y)


class TestRegionParams:
    def test_alpha_cap(self):
        with pytest.raises(InputContractError):
            RegionParams(mu=0.2, alpha=1.0, beta=1.5, gamma=1.5)

    def test_mu_cap(self):
        with pytest.raises(InputContractError):
            RegionParams(mu=0.4, alpha=0.5, beta=1.5, gamma=1.5)

    def test_beta_gamma(self):
        with pytest.raises(InputContractError):
            RegionParams(mu=0.2, alpha=0.5, beta=1.0, gamma=1.5)
        with pytest.raises(InputContractError):
            RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=0.9)
        with pytest.raises(InputContractError):
            RegionParams(mu=0.2, alpha=0.5, beta=float("nan"), gamma=1.5)
        with pytest.raises(InputContractError):
            RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=float("nan"))


class TestClassifyRegion:
    def test_target_is_r1(self):
        gt = make_instance("denoising", 8, 2, kappa_star=2.0, seed=1).ground_truth
        assert RegionLabel.R1 in classify_region(gt.Y_star, gt, PARAMS)

    def test_scaled_target_is_r3_triple(self):
        gt = make_instance("denoising", 8, 2, kappa_star=2.0, seed=2).ground_truth
        Y = FactorPoint(3.0 * gt.Y_star.Y)
        labels = classify_region(Y, gt, PARAMS)
        assert RegionLabel.R3_TRIPLE_PRIME in labels

    def test_coverage_fuzz(self):
        gt = make_instance("denoising", 6, 2, kappa_star=2.0, seed=3).ground_truth
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            scale = 10.0 ** rng.uniform(-3, 3)
            try:
                Y = FactorPoint(scale * rng.standard_normal((6, 2)))
            except InputContractError:
                continue
            assert classify_region(Y, gt, PARAMS)

    def test_fiber_invariance(self):
        gt = make_instance("denoising", 7, 3, kappa_star=2.0, seed=5).ground_truth
        rng = np.random.default_rng(6)
        for _ in range(50):
            Y = FactorPoint(rng.standard_normal((7, 3)) * 10.0 ** rng.uniform(-1, 1))
            O = haar(rng, 3)
            YO = FactorPoint(Y.Y @ O)
            assert classify_region(Y, gt, PARAMS) == classify_region(YO, gt, PARAMS)

    def test_r2_construction(self):
        gt = make_instance("denoising", 10, 3, kappa_star=2.0, seed=7).ground_truth
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(20):
            Y = r2_point(gt, rng, PARAMS)
            if RegionLabel.R2 in classify_region(Y, gt, PARAMS):
                found += 1
        assert found == 20


class TestHorizontalBasis:
    def test_dimension_rank1(self):
        Y = FactorPoint(np.array([[1.0], [0.5], [0.2]]))
        assert len(horizontal_basis(Y)) == 3

    def test_dimension_p6_r2(self):
        rng = np.random.default_rng(9)
        Y = FactorPoint(rng.standard_normal((6, 2)))
        assert len(horizontal_basis(Y)) == 11
        assert horizontal_dim(6, 2) == 11

    def test_orthonormal_and_horizontal(self):
        rng = np.random.default_rng(10)
        Y = FactorPoint(rng.standard_normal((7, 3)))
        basis = horizontal_basis(Y)
        assert basis.shape == (horizontal_dim(7, 3), 7, 3) and not basis.flags.writeable
        for i, bi in enumerate(basis):
            M = Y.Y.T @ bi
            assert np.linalg.norm(M - M.T) < 1e-10
            for j, bj in enumerate(basis):
                ip = float(np.vdot(bi, bj))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10

    def test_cap(self):
        # dimension 1000 * 5 - 10 = 4990 lies above the fixed basis cap
        rng = np.random.default_rng(11)
        Y = FactorPoint(rng.standard_normal((1000, 5)))
        with pytest.raises(ResourceLimitError, match="4990"):
            horizontal_basis(Y)


class TestRandomBallTangent:
    def test_one_tangent_per_call_with_the_projected_draw(self, monkeypatch):
        # the scaled projection is built and checked once, and equals the
        # tangent of horizontal_project scaled to the drawn radius bit for bit
        Y = FactorPoint(np.random.default_rng(12).standard_normal((7, 3)))
        expected = []
        rng = np.random.default_rng(13)
        for _ in range(5):
            theta = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
            scale = 0.3 * rng.uniform() ** (1.0 / horizontal_dim(7, 3))
            expected.append(theta.theta * (scale / theta.norm))
        post_init, built = HorizontalTangent.__post_init__, []

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(HorizontalTangent, "__post_init__", counted)
        rng = np.random.default_rng(13)
        for want in expected:
            got = landscape.random_ball_tangent(Y, 0.3, rng)
            np.testing.assert_array_equal(got.theta, want)
        assert len(built) == len(expected)


class TestHessExtremes:
    def test_denoising_at_target_sandwich(self):
        inst = make_instance("denoising", 9, 2, kappa_star=2.0, seed=12)
        gt = inst.ground_truth
        est = hess_extreme_eigs(inst.objective, gt.Y_star)
        assert est.lambda_min >= 2 * gt.sigmar_star**2 - 1e-9
        assert est.lambda_max <= 4 * gt.sigma1_star**2 + 1e-9

    def test_dense_vs_iterative(self, monkeypatch):
        # named for the Lanczos path it once compared against; the reduction
        # stands in for it, and a handle without a map is refused wherever
        # the 8 m p^2 bytes of lifted basis matrices (m = 19) exceed the budget
        inst = make_instance("denoising", 10, 2, kappa_star=2.0, seed=13)
        obj, gt = inst.objective, inst.ground_truth
        rng = np.random.default_rng(14)
        Y = FactorPoint(gt.Y_star.Y + 0.05 * rng.standard_normal((10, 2)))
        dense = hess_extreme_eigs(obj, Y)
        reduced = _forced_spectrum(obj, Y, "reduced")
        assert dense.method == "dense"
        assert reduced.lambda_min == pytest.approx(dense.lambda_min, rel=1e-12)
        assert reduced.lambda_max == pytest.approx(dense.lambda_max, rel=1e-12)
        no_map = dataclasses.replace(obj, least_squares=None)
        assert hess_extreme_eigs(no_map, Y) == dense
        monkeypatch.setattr(landscape, "MAX_INSTANCE_BYTES", 8 * 19 * 10**2 - 1)
        with pytest.raises(ResourceLimitError, match="15200 bytes"):
            hess_extreme_eigs(no_map, Y)

    @pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
    def test_polarization_matches_direct_bilinear_form(self, kind):
        # the form matrix over the lifted basis plus the gradient term must
        # equal the closed-form bilinear expression
        # <A(C_a), A(C_b)> + <A.T(A(X) - y), a b.T + b a.T> (A the identity
        # and y = X* for denoising), and the dense spectrum must be that
        # matrix's spectrum
        if kind == "denoising":
            inst = make_instance("denoising", 7, 2, kappa_star=2.0, seed=32)
            gt = inst.ground_truth
            obj, forward = inst.objective, np.ravel
        else:
            inst = make_instance("trace_regression", 6, 2, n=72, seed=32)
            gt, reg = inst.ground_truth, inst.trace_regression
            obj, forward = inst.objective, reg.apply_map
        rng = np.random.default_rng(33)
        Y = FactorPoint(gt.Y_star.Y + 0.3 * rng.standard_normal(gt.Y_star.Y.shape))
        X = Y.gram()
        R = X - gt.X_star if kind == "denoising" else reg.adjoint(reg.apply_map(X) - reg.y)
        basis = horizontal_basis(Y)
        form = _form_matrix(obj, X, _lift(Y, basis))
        M = np.empty_like(form)
        for a, ba in enumerate(basis):
            Ca = Y.Y @ ba.T + ba @ Y.Y.T
            for b, bb in enumerate(basis):
                Cb = Y.Y @ bb.T + bb @ Y.Y.T
                M[a, b] = float(forward(Ca) @ forward(Cb)) + float(np.vdot(R, ba @ bb.T + bb @ ba.T))
                got = form[a, b] + 2.0 * float(np.vdot(R @ ba, bb))
                assert got == pytest.approx(M[a, b], abs=1e-9)
        lam = np.linalg.eigvalsh(M)
        est = hess_extreme_eigs(obj, Y)
        assert est.lambda_min == pytest.approx(lam[0], abs=1e-9)
        assert est.lambda_max == pytest.approx(lam[-1], abs=1e-9)

    def test_orthogonal_point_has_negative_curvature(self):
        # rank-1 target along e1, point along e2: a near-saddle with an
        # escape direction, so the least eigenvalue is negative
        from psdlandscape.objectives import DenoisingObjective

        obj = DenoisingObjective(FactorPoint(np.eye(4)[:, :1])).handle()
        Y = FactorPoint(np.array([[0.0], [0.9], [0.0], [0.0]]))
        est = hess_extreme_eigs(obj, Y)
        assert est.lambda_min < 0

    def test_dense_builds_no_tangent(self, monkeypatch):
        # the basis is one array; no per-column tangent is built or validated
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=12)
        gt = inst.ground_truth
        built = []
        post_init = HorizontalTangent.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(HorizontalTangent, "__post_init__", counted)
        Y = FactorPoint(gt.Y_star.Y + 0.01 * np.random.default_rng(3).standard_normal((8, 2)))
        assert hess_extreme_eigs(inst.objective, Y).method == "dense"
        assert built == []


def _spectrum_points():
    from psdlandscape.landscape import random_ball_tangent
    from psdlandscape.objectives import DenoisingObjective

    points = []
    # a generic R1 point on which shifted power iteration ran out of budget
    inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=5)
    gt = inst.ground_truth
    th = random_ball_tangent(gt.Y_star, 0.2 * gt.sigmar_star / gt.kappa_star, np.random.default_rng(7))
    Y = FactorPoint(gt.Y_star.Y + th.theta)
    points.append(pytest.param(inst.objective, Y, id="denoising-8-2-r1"))
    # ball points whose target and tangent both come from the first normal
    # draw of one seed, so that [Y, Y*] is rank deficient
    for p, r, seed in [(10, 2, 0), (20, 3, 0x4C414E43)]:
        inst = make_instance("denoising", p, r, kappa_star=2.0, seed=seed)
        gt = inst.ground_truth
        th = random_ball_tangent(gt.Y_star, 0.2 * gt.sigmar_star / gt.kappa_star, np.random.default_rng(seed))
        Y = FactorPoint(gt.Y_star.Y + th.theta)
        points.append(pytest.param(inst.objective, Y, id=f"denoising-{p}-{r}-seed{seed}"))
    inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=904)
    gt = inst.ground_truth
    points.append(pytest.param(inst.objective, gt.Y_star, id="denoising-20-3-target"))
    rng = np.random.default_rng(905)
    for k in range(3):
        th = random_ball_tangent(gt.Y_star, 0.2 * gt.sigmar_star / gt.kappa_star, rng)
        Y = FactorPoint(gt.Y_star.Y + th.theta)
        points.append(pytest.param(inst.objective, Y, id=f"denoising-20-3-ball{k}"))
    e1 = DenoisingObjective(FactorPoint(np.eye(4)[:, :1])).handle()
    saddle = FactorPoint(np.array([[0.0], [0.9], [0.0], [0.0]]))
    points.append(pytest.param(e1, saddle, id="rank1-near-saddle"))
    inst = make_instance("trace_regression", 6, 2, n=72, noise_sigma=0.05, seed=902)
    Y = FactorPoint(np.random.default_rng(906).standard_normal((6, 2)))
    points.append(pytest.param(inst.objective, Y, id="trace-6-2-72"))
    return points


def _forced_spectrum(obj, Y, path):
    """The estimate of :func:`hess_extreme_eigs` with its matrix built one
    way at any size: ``"form"`` from one form call per pair (the reference),
    ``"mapped"`` from ``forward`` sweeps (the handle loses its target) or
    ``"reduced"`` by the denoising reduction."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(landscape, "_FORM_MATRIX_CAP", horizontal_dim(Y.p, Y.r) if path == "form" else 0)
        if path == "mapped":
            obj = dataclasses.replace(obj, least_squares=dataclasses.replace(obj.least_squares, target=None))
        est = hess_extreme_eigs(obj, Y)
    assert est.method == ("reduced" if path == "reduced" else "dense")
    return est


def _assert_same_extremes(est, ref, rel=1e-12):
    scale = max(abs(ref.lambda_min), abs(ref.lambda_max))
    assert abs(est.lambda_min - ref.lambda_min) <= rel * scale
    assert abs(est.lambda_max - ref.lambda_max) <= rel * scale


@pytest.mark.parametrize("obj, Y", _spectrum_points())
def test_lanczos_matches_dense(obj, Y):
    # named for the Lanczos path these points once exercised; the
    # reduction or the forward sweeps now meet the form-per-pair reference
    path = "mapped" if obj.least_squares.target is None else "reduced"
    _assert_same_extremes(_forced_spectrum(obj, Y, path), _forced_spectrum(obj, Y, "form"))


def _hand_written_denoising():
    # ObjectiveHandle(value, euclid_grad, euclid_hess_form, p): the
    # denoising objective written out by hand, with no least-squares map
    Y_star = FactorPoint(np.random.default_rng(907).standard_normal((7, 2)))
    X_star = Y_star.gram()
    obj = ObjectiveHandle(
        lambda X: 0.5 * float(np.linalg.norm(X - X_star) ** 2),
        lambda X: X - X_star,
        lambda X, G1, G2: float(np.vdot(G1, G2)),
        7,
    )
    return obj, Y_star


def test_a_custom_handle_needs_no_rank():
    from psdlandscape.objectives import DenoisingObjective

    obj, Y_star = _hand_written_denoising()
    gt = GroundTruth.from_factor(Y_star, obj)
    Y = FactorPoint(Y_star.Y + 0.1 * np.random.default_rng(908).standard_normal((7, 2)))
    dense = hess_extreme_eigs(obj, Y)
    assert dense.method == "dense"
    _assert_same_extremes(_forced_spectrum(DenoisingObjective(Y_star).handle(), Y, "reduced"), dense)
    rec = riemannian_gd(obj, Y, GDConfig(max_iters=5000, grad_tol=1e-10), gt=gt)
    assert rec.converged and quotient_distance(rec.final, Y_star) < 1e-8
    assert rsc_rsm_estimate(obj, 2, 20, seed=909) < 1e-12
    reports = certify_landscape(obj, gt, PARAMS, ["ball", "scaled", "gaussian"], 6, seed=910)
    assert all(rep.passed for rep in reports)


def test_spectral_init_of_a_custom_handle_is_the_target():
    # -grad f(0) = X* for the hand-written denoising objective
    obj, Y_star = _hand_written_denoising()
    assert quotient_distance(spectral_init(obj, 2), Y_star) < 1e-8


def _sized_instance(kind, p, r, seed):
    kappa = 2.0 if r > 1 else 1.0
    if kind == "denoising":
        return make_instance("denoising", p, r, kappa_star=kappa, seed=seed)
    return make_instance(
        "trace_regression", p, r, n=200, kappa_star=kappa, noise_sigma=0.05, seed=seed
    )


@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(["denoising", "trace_regression"]),
    keep_map=st.booleans(),
    r=st.integers(min_value=1, max_value=3),
    above_cap=st.booleans(),
    extra=st.integers(min_value=0, max_value=3),
    point=st.sampled_from(["ball", "random", "near-saddle"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lanczos_and_dense_extremes_agree(kind, keep_map, r, above_cap, extra, point, seed):
    # named for the Lanczos path it once checked. Around the form cap, the
    # path each handle takes meets the form-per-pair reference: a
    # least-squares handle's own form, or with keep_map false the form of
    # the same objective as a custom handle. The least p whose dimension is
    # above the cap, plus extra; or the greatest p at or under it, minus extra
    p = next(q for q in range(r, 10**4) if horizontal_dim(q, r) > landscape._FORM_MATRIX_CAP)
    p = p + extra if above_cap else max(r, p - 1 - extra)
    inst = _sized_instance(kind, p, r, seed)
    gt = inst.ground_truth
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    if point == "ball":
        th = landscape.random_ball_tangent(gt.Y_star, 0.2 * gt.sigmar_star / gt.kappa_star, rng)
        Y = FactorPoint(gt.Y_star.Y + th.theta)
    elif point == "random":
        Y = FactorPoint(gt.sigma1_star / np.sqrt(p) * rng.standard_normal((p, r)))
    else:
        # the target with its last column (orthogonal to the others) shrunk:
        # near the saddle where that column vanishes
        Y = FactorPoint(gt.Y_star.Y * np.r_[np.ones(r - 1), 0.05])
    obj = inst.objective
    if keep_map:
        ref = _forced_spectrum(obj, Y, "form")
    else:
        ref = hess_extreme_eigs(dataclasses.replace(obj, least_squares=None), Y)
    est = hess_extreme_eigs(obj, Y)
    assert est.method == ("dense" if not above_cap or kind != "denoising" else "reduced")
    _assert_same_extremes(est, ref)


def _lift_block(p, k):
    """A byte budget of ``k`` lifts of size ``p x p`` per ``forward`` call."""
    return 8 * p * p * k


@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(["denoising", "trace_regression"]),
    r=st.integers(min_value=1, max_value=4),
    offset=st.integers(min_value=0, max_value=20),
    per_block=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_forward_only_dense_extremes_agree_with_lanczos(kind, r, offset, per_block, seed):
    # named for the Lanczos path it once checked. Over the form cap, the
    # matrix assembled from forward calls on blocks of per_block lifts
    # agrees with the one from a single block (denoising without its target)
    sizes = [q for q in range(r, 70) if landscape._FORM_MATRIX_CAP < horizontal_dim(q, r) <= 100]
    p = sizes[offset % len(sizes)]
    inst = _sized_instance(kind, p, r, seed)
    gt = inst.ground_truth
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    Y = FactorPoint(gt.sigma1_star / np.sqrt(p) * rng.standard_normal((p, r)))
    single = _forced_spectrum(inst.objective, Y, "mapped")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(landscape, "_BLOCK_BYTES", _lift_block(p, per_block))
        blocked = _forced_spectrum(inst.objective, Y, "mapped")
    _assert_same_extremes(blocked, single)


def _reduction_sizes(narrow):
    """Every ``(p, r)`` with ``44 < m <= 300`` and lifts of at most 16 MiB,
    with ``p <= 2 r`` if ``narrow`` and ``p > 2 r`` otherwise."""
    return [
        (p, r)
        for r in range(1, 13)
        for p in range(r, 400)
        if landscape._FORM_MATRIX_CAP < horizontal_dim(p, r) <= 300
        and 8 * horizontal_dim(p, r) * p * p <= 1 << 24
        and (p <= 2 * r) == narrow
    ]


@settings(max_examples=30, deadline=None)
@given(
    narrow=st.booleans(),
    size=st.integers(min_value=0, max_value=10**6),
    point=st.sampled_from(["ball", "gaussian", "fiber", "own-stream ball"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reduced_extremes_agree_with_the_forward_sweeps(narrow, size, point, seed):
    # the same handle with and without its target; a point drawn from the
    # target's own stream SeedSequence([s, 0]) lies in span Y*, where
    # [Y, Y*] is rank deficient; at p <= 2 r the handle takes the sweeps
    sizes = _reduction_sizes(narrow)
    p, r = sizes[size % len(sizes)]
    inst = _sized_instance("denoising", p, r, seed)
    gt = inst.ground_truth
    own = point == "own-stream ball"
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0 if own else 99]))
    Y = landscape._sample_point(point.split()[-1], gt, PARAMS, rng, landscape._r1_radius(gt, PARAMS.mu))
    est = hess_extreme_eigs(inst.objective, Y)
    assert est.method == ("dense" if narrow else "reduced")
    _assert_same_extremes(est, _forced_spectrum(inst.objective, Y, "mapped"))


@pytest.mark.parametrize("seed", [0, 1, 0x4C414E43])
def test_r1_spectrum_of_a_scan_point_drawn_from_the_instance_seed(seed):
    # a ball point drawn from SeedSequence([s, 0]), the generator of
    # default_rng(s) and of the target of an instance with seed s, comes
    # from the target's own draw, so [Y, Y*] has rank r; at dimension 87
    # the reduction must still span the whole of it
    inst = make_instance("denoising", 30, 3, kappa_star=2.0, seed=seed)
    gt = inst.ground_truth
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    Y = landscape._sample_point("ball", gt, PARAMS, rng, landscape._r1_radius(gt, PARAMS.mu))
    assert RegionLabel.R1 in classify_region(Y, gt, PARAMS)
    assert np.linalg.matrix_rank(np.hstack([Y.Y, gt.Y_star.Y])) == 3
    est = hess_extreme_eigs(inst.objective, Y)
    assert est.method == "reduced"
    _assert_same_extremes(est, _forced_spectrum(inst.objective, Y, "mapped"))


def test_lanczos_at_the_target_of_a_large_denoising_problem():
    # named for the Lanczos path that took seconds here. Horizontal
    # dimension 9990: at Y* the extremes are 2 sigma_r^2 and 4 sigma_1^2,
    # and the reduction reads no p x p array
    inst = make_instance("denoising", 2000, 5, kappa_star=2.0, seed=40)
    gt = inst.ground_truth
    tracemalloc.start()
    try:
        est = hess_extreme_eigs(inst.objective, gt.Y_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.method == "reduced"
    assert est.lambda_min == pytest.approx(2.0 * gt.sigmar_star**2, rel=1e-10)
    assert est.lambda_max == pytest.approx(4.0 * gt.sigma1_star**2, rel=1e-10)
    assert peak < 4e6


class TestResourceLimits:
    def test_trace_regression_above_the_basis_cap_is_refused(self, monkeypatch):
        inst = _sized_instance("trace_regression", 30, 2, 48)
        monkeypatch.setattr(landscape, "_BASIS_CAP", horizontal_dim(30, 2) - 1)
        with pytest.raises(ResourceLimitError, match="basis cap"):
            hess_extreme_eigs(inst.objective, inst.ground_truth.Y_star)

    def test_custom_handle_whose_lifts_do_not_fit_is_refused(self, monkeypatch):
        obj, Y_star = _hand_written_denoising()
        monkeypatch.setattr(landscape, "MAX_INSTANCE_BYTES", 8 * horizontal_dim(7, 2) * 7**2 - 1)
        with pytest.raises(ResourceLimitError, match="lifted basis matrices"):
            hess_extreme_eigs(obj, Y_star)


class TestWorkPerSpectrum:
    @staticmethod
    def counted_spectrum(obj, Y):
        """The estimate with its map sweeps (the stacks passed to ``images``
        and to ``forward``, by name) and its form calls."""
        sweeps, forms = {"images": [], "forward": []}, []

        def count(log, f):
            def counted(*args):
                log.append(args[0])
                return f(*args)

            return counted

        ls = obj.least_squares
        obj = dataclasses.replace(
            obj,
            euclid_hess_form=count(forms, obj.euclid_hess_form),
            least_squares=ls and dataclasses.replace(
                ls,
                images=count(sweeps["images"], ls.images),
                forward=count(sweeps["forward"], ls.forward),
            ),
        )
        return hess_extreme_eigs(obj, Y), sweeps, len(forms)

    def test_handle_without_a_map_is_dense_under_the_basis_cap(self):
        inst = make_instance("denoising", 30, 3, kappa_star=2.0, seed=41)
        gt = inst.ground_truth
        obj = dataclasses.replace(inst.objective, least_squares=None)
        m = horizontal_dim(30, 3)
        assert landscape._FORM_MATRIX_CAP < m <= landscape._BASIS_CAP
        est, _, forms = self.counted_spectrum(obj, gt.Y_star)
        assert est.method == "dense"
        assert forms == m * (m + 1) // 2

    @pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
    def test_dense_path_makes_one_form_per_pair(self, kind):
        p = 44  # r = 1: the dimension is p, at the cap
        assert p <= landscape._FORM_MATRIX_CAP
        inst = _sized_instance(kind, p, 1, 43)
        est, sweeps, forms = self.counted_spectrum(inst.objective, inst.ground_truth.Y_star)
        assert est.method == "dense"
        assert forms == p * (p + 1) // 2 and sweeps == {"images": [], "forward": []}

    @staticmethod
    def over_form_cap(kind):
        """A least-squares instance of dimension over the form cap (57 on
        denoising, whose handle loses its target, and 59 on trace
        regression) and a point near its target."""
        p, r = (20, 3) if kind == "denoising" else (30, 2)
        assert landscape._FORM_MATRIX_CAP < horizontal_dim(p, r)
        inst = _sized_instance(kind, p, r, 46)
        Y = FactorPoint(inst.ground_truth.Y_star.Y + 0.05 * np.random.default_rng(47).standard_normal((p, r)))
        ls = dataclasses.replace(inst.objective.least_squares, target=None)
        return dataclasses.replace(inst.objective, least_squares=ls), Y

    @pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
    def test_dense_path_over_the_form_cap_makes_one_map_sweep(self, kind):
        obj, Y = self.over_form_cap(kind)
        est, sweeps, forms = self.counted_spectrum(obj, Y)
        assert est.method == "dense" and forms == 0 and sweeps["images"] == []
        (lifts,) = sweeps["forward"]
        np.testing.assert_array_equal(lifts, _lift(Y, horizontal_basis(Y)))

    @pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
    @pytest.mark.parametrize("per_block", [1, 7, 58, 59])
    def test_blocks_of_lifts_make_one_forward_call_each(self, kind, per_block, monkeypatch):
        obj, Y = self.over_form_cap(kind)
        monkeypatch.setattr(landscape, "_BLOCK_BYTES", _lift_block(Y.p, per_block))
        est, sweeps, forms = self.counted_spectrum(obj, Y)
        m = horizontal_dim(Y.p, Y.r)
        assert est.method == "dense" and forms == 0 and sweeps["images"] == []
        assert len(sweeps["forward"]) == -(-m // per_block)
        np.testing.assert_array_equal(np.concatenate(sweeps["forward"]), _lift(Y, horizontal_basis(Y)))

    def test_reduction_makes_no_form_call_and_no_map_sweep(self, monkeypatch):
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=46)
        Y = FactorPoint(inst.ground_truth.Y_star.Y + 0.05 * np.random.default_rng(47).standard_normal((20, 3)))
        grads = []
        obj = dataclasses.replace(inst.objective, euclid_grad=lambda X: grads.append(X) or X)
        est, sweeps, forms = self.counted_spectrum(obj, Y)
        assert est.method == "reduced"
        assert forms == 0 and sweeps == {"images": [], "forward": []} and grads == []

    @pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
    def test_dense_matrix_over_the_form_cap_is_the_form_matrix(self, kind, monkeypatch):
        # F F.T from the forward sweep, plus the gradient term, equals the
        # matrix of the form over the lifts plus the gradient term
        obj, Y = self.over_form_cap(kind)
        factorized = []
        eigvals = landscape.sym_eigvals
        monkeypatch.setattr(
            landscape, "sym_eigvals", lambda M, **kw: factorized.append(M) or eigvals(M, **kw)
        )
        assert hess_extreme_eigs(obj, Y).method == "dense"
        basis = horizontal_basis(Y)
        B = basis.reshape(len(basis), -1)
        R = _sym_grad(obj, Y.gram())
        expected = _form_matrix(obj, Y.gram(), _lift(Y, basis)) + 2.0 * (B @ (R @ basis).reshape(len(B), -1).T)
        (M,) = factorized
        assert np.abs(M - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize(
    "problem, method",
    [
        ({"kind": "denoising", "p": 20, "r": 3, "kappa_star": 2.0}, "reduced"),
        ({"kind": "trace_regression", "p": 30, "r": 2, "n": 600}, "dense"),
    ],
    ids=["denoising-20-3", "trace-30-2-600"],
)
def test_r1_spectra_at_the_scan_benchmark_sizes_are_dense(problem, method, monkeypatch):
    # the two problems the benchmark scans; the ball and fiber samplers land
    # in R1. Trace regression maps its lifts in one forward call. The scan
    # takes the four spectra in one call, as a list
    inst = make_instance(seed=1, **problem)
    calls = []
    spectrum = landscape.hess_extreme_eigs
    monkeypatch.setattr(
        landscape, "hess_extreme_eigs", lambda obj, Y, **kw: calls.append(spectrum(obj, Y, **kw)) or calls[-1]
    )
    reports = certify_landscape(inst.objective, inst.ground_truth, PARAMS, ["ball", "fiber"], 4, seed=2)
    assert all(RegionLabel.R1 in rep.region_labels and rep.passed for rep in reports)
    (estimates,) = calls
    assert [est.method for est in estimates] == [method] * 4


class TestGradientOncePerRow:
    @pytest.mark.parametrize(
        "problem",
        [{"kind": "trace_regression", "p": 8, "r": 2, "n": 80}, {"kind": "trace_regression", "p": 30, "r": 2, "n": 600}],
        ids=["form-matrix", "mapped"],
    )
    def test_an_r1_row_reads_the_handle_gradient_once(self, problem):
        inst = make_instance(kappa_star=2.0, seed=3, **problem)
        grads, grad = [], inst.objective.euclid_grad
        obj = dataclasses.replace(inst.objective, euclid_grad=lambda X: grads.append(X) or grad(X))
        reports = certify_landscape(obj, inst.ground_truth, PARAMS, ["ball"], 3, seed=1)
        assert all(RegionLabel.R1 in rep.region_labels for rep in reports)
        assert len(grads) == 3

    @pytest.mark.parametrize(
        "problem",
        [{"kind": "trace_regression", "p": 8, "r": 2, "n": 80}, {"kind": "trace_regression", "p": 30, "r": 2, "n": 600}],
        ids=["form-matrix", "mapped"],
    )
    def test_a_passed_gradient_gives_the_same_spectrum(self, problem):
        inst = make_instance(kappa_star=2.0, seed=3, **problem)
        obj, Y = inst.objective, FactorPoint(inst.ground_truth.Y_star.Y + 0.01)
        R = _sym_grad(obj, Y.gram())
        assert hess_extreme_eigs(obj, Y, grad=R) == hess_extreme_eigs(obj, Y)


class TestEscapeDirection:
    def test_zero_at_target(self):
        gt = make_instance("denoising", 6, 2, kappa_star=2.0, seed=15).ground_truth
        assert escape_direction(gt.Y_star, gt).norm < 1e-12

    def test_norm_equals_distance(self):
        gt = make_instance("denoising", 7, 2, kappa_star=2.0, seed=16).ground_truth
        rng = np.random.default_rng(17)
        for _ in range(20):
            Y = FactorPoint(rng.standard_normal((7, 2)))
            th = escape_direction(Y, gt)
            assert th.norm == pytest.approx(quotient_distance(Y, gt.Y_star), abs=1e-10)

    def test_non_unique_alignment_warns_here_and_raises_in_log(self):
        # columns of Y orthogonal to those of Y*: the cross-Gram is zero
        from psdlandscape.errors import NonUniqueAlignmentError
        from psdlandscape.geometry import log_map
        from psdlandscape.objectives import DenoisingObjective, GroundTruth

        Y_star = FactorPoint(np.eye(5)[:, :2] * [2.0, 1.0])
        gt = GroundTruth.from_factor(Y_star, DenoisingObjective(Y_star).handle())
        Y = FactorPoint(np.eye(5)[:, 2:4] * 0.5)
        with pytest.warns(RuntimeWarning, match="not unique"):
            th = escape_direction(Y, gt)
        assert th.norm == pytest.approx(quotient_distance(Y, Y_star), abs=1e-12)
        with pytest.raises(NonUniqueAlignmentError):
            log_map(Y, Y_star)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_r2_curvature_bound(self):
        inst = make_instance("denoising", 10, 3, kappa_star=2.0, seed=18)
        obj, gt = inst.objective, inst.ground_truth
        rng = np.random.default_rng(19)
        bound = (PARAMS.alpha - SQRT2M1_TIMES_2) * gt.sigmar_star**2
        for _ in range(20):
            Y = r2_point(gt, rng, PARAMS)
            assert RegionLabel.R2 in classify_region(Y, gt, PARAMS)
            th = escape_direction(Y, gt)
            quad = riemannian_hess_quadform(obj, Y, th)
            assert quad <= bound * th.norm**2 + 1e-8 * gt.sigmar_star**2
            assert quad < 0


class TestThresholds:
    def test_dual_evaluation(self):
        # independent re-implementation of the threshold formulas
        inst = make_instance("denoising", 8, 3, kappa_star=1.0, sigma_r_star=1.0, seed=20)
        gt = inst.ground_truth
        params = RegionParams(mu=0.1, alpha=0.5, beta=1.5, gamma=1.5)
        rep = compute_thresholds(gt, params, 3)
        xnorm = np.linalg.norm(gt.X_star)
        mu, alpha, beta, gamma, kap = 0.1, 0.5, 1.5, 1.5, 1.0
        sr = s1 = 1.0
        psi = min(
            alpha * mu * sr**2 / (32 * kap**2 * beta),
            (beta**2 - 1) / 4 * s1**2,
            (gamma - 1) / 4 * xnorm,
        )
        dmin = min(
            alpha * mu / (32 * kap**2 * beta * (1 + gamma)) * sr**2 / xnorm,
            (beta**2 - 1) / (4 * (1 + gamma)) * s1**2 / xnorm,
            (gamma - 1) / (4 * (gamma + 1)),
        )
        assert rep.psi == pytest.approx(psi, rel=1e-12)
        assert rep.delta_min == pytest.approx(dmin, rel=1e-12)

    def test_r3_double_prime_floor_value(self):
        inst = make_instance("denoising", 8, 3, kappa_star=1.0, sigma_r_star=1.0, seed=21)
        gt = inst.ground_truth
        rep = compute_thresholds(gt, RegionParams(0.1, 0.5, 1.5, 1.5), 3)
        assert rep.r3_grad_lowers[1] == pytest.approx(
            (1.5**3 - 1.5) * gt.sigma1_star**3, rel=1e-12
        )

    def test_mu_zero_lower_bound(self):
        inst = make_instance("denoising", 8, 3, kappa_star=2.0, sigma_r_star=1.3, seed=22)
        gt = inst.ground_truth
        rep = compute_thresholds(gt, RegionParams(0.0, 0.5, 1.5, 1.5), 3)
        assert rep.r1_hess_lower == pytest.approx(2 * gt.sigmar_star**2, rel=1e-12)

    def test_rank_other_than_the_target_is_refused(self):
        gt = make_instance("denoising", 8, 3, kappa_star=1.0, seed=23).ground_truth
        for r in (1, 2, 4):
            with pytest.raises(InputContractError, match="rank of the target"):
                compute_thresholds(gt, PARAMS, r)

    def test_hypothesis_violation(self):
        gt = make_instance("denoising", 8, 3, kappa_star=1.0, seed=23).ground_truth
        # mu = 1/3 with kappa = 1: (1 - 1/3)^2 - 7/9 = 4/9 - 7/9 < 0
        with pytest.raises(HypothesisViolationError):
            compute_thresholds(gt, RegionParams(1.0 / 3.0, 0.5, 1.5, 1.5), 3)


class TestCertify:
    def test_denoising_scan_passes(self):
        inst = make_instance("denoising", 12, 2, kappa_star=2.0, seed=24)
        gt = inst.ground_truth
        reports = certify_landscape(
            inst.objective, gt, PARAMS, ["ball", "fiber", "scaled", "gaussian"], 24, seed=7
        )
        assert len(reports) == 24
        assert all(rep.passed for rep in reports)
        assert all(rep.region_labels for rep in reports)

    def test_longer_scan_extends_a_shorter_one(self):
        # point i draws from its own stream whatever n_points is
        inst = make_instance("denoising", 10, 2, kappa_star=2.0, seed=25)
        gt = inst.ground_truth
        short = certify_landscape(inst.objective, gt, PARAMS, ["ball", "gaussian"], 3, seed=3)
        long = certify_landscape(inst.objective, gt, PARAMS, ["ball", "gaussian"], 8, seed=3)
        assert reports_to_csv(long).startswith(reports_to_csv(short))

    def test_point_zero_is_not_drawn_from_the_target_stream(self, monkeypatch):
        # one seed for the problem and the scan: point 0 once drew from
        # SeedSequence([s, 0]), the target's stream, and its ball tangent lay
        # in span(Y*) to 1.0000 of its norm
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=5)
        gt = inst.ground_truth
        points, certify = [], landscape._certify_point
        monkeypatch.setattr(
            landscape, "_certify_point", lambda i, Y, *args: points.append(Y) or certify(i, Y, *args)
        )
        certify_landscape(inst.objective, gt, PARAMS, ["ball"], 1, seed=5)
        (Y,) = points
        theta, U = Y.Y - gt.Y_star.Y, gt.Y_star.svd.U
        assert np.linalg.norm(U.T @ theta) < 0.9 * np.linalg.norm(theta)

    def test_unknown_sampler_is_refused_before_any_point(self):
        # "bogus" would be drawn only from the second point on
        inst = make_instance("denoising", 10, 2, kappa_star=2.0, seed=25)
        gt = inst.ground_truth
        with pytest.raises(InputContractError, match="bogus"):
            certify_landscape(inst.objective, gt, PARAMS, ["ball", "bogus"], 1, seed=3)

    def test_one_distance_per_certified_point(self, monkeypatch):
        # one alignment call takes the stack of every point of the scan
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=28)
        gt = inst.ground_truth
        align, calls = landscape._align, []

        def counted_align(Y1, Y2):
            calls.append(Y1)
            return align(Y1, Y2)

        monkeypatch.setattr(landscape, "_align", counted_align)
        reports = certify_landscape(inst.objective, gt, PARAMS, ["ball"], 3, seed=2)
        assert all(RegionLabel.R1 in rep.region_labels and rep.passed for rep in reports)
        assert len(calls) == 1 and calls[0].shape == (3, 20, 3)
        for rep, Y in zip(reports, calls[0]):
            assert rep.dist_to_star == quotient_distance(FactorPoint(Y), gt.Y_star)

    def test_one_cross_gram_svd_per_r2_point(self, monkeypatch):
        # the distance and the escape direction share one alignment: the
        # only r x r SVD of an R2 point is that of the cross-Gram Y.T Y*
        inst = make_instance("denoising", 10, 3, kappa_star=2.0, seed=18)
        gt = inst.ground_truth
        Y = r2_point(gt, np.random.default_rng(19), PARAMS)
        thresholds = compute_thresholds(gt, PARAMS, 3)
        svd, square = np.linalg.svd, []

        def counted_svd(A, *args, **kwargs):
            if A.shape[-2:] == (3, 3):
                square.extend(A.reshape(-1, 3, 3))
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        # this R2 point drops a target direction, so its alignment is not unique
        with pytest.warns(RuntimeWarning, match="not unique"):
            rep = landscape._certify_point(0, Y, inst.objective, gt, PARAMS, thresholds)
        assert RegionLabel.R2 in rep.region_labels and rep.passed
        assert len(square) == 1
        np.testing.assert_array_equal(square[0], Y.Y.T @ gt.Y_star.Y)

    def test_csv_shape(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=26)
        gt = inst.ground_truth
        reports = certify_landscape(inst.objective, gt, PARAMS, ["ball"], 5, seed=1)
        csv = reports_to_csv(reports)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("point_id,region_labels,dist_to_star")
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])

    def test_mu_zero_warns(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=27)
        gt = inst.ground_truth
        params = RegionParams(mu=0.0, alpha=0.5, beta=1.5, gamma=1.5)
        with pytest.warns(RuntimeWarning):
            certify_landscape(inst.objective, gt, params, ["ball"], 3, seed=1)

    def test_pointwise_floor_reported_for_inflated_points(self):
        # scaled points land in the outermost region; the reported bound is
        # the pointwise floor 2 (1 - 1/gamma) ||Y Y.T||_F^{3/2} / sqrt(r)
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=31)
        gt = inst.ground_truth
        reports = certify_landscape(inst.objective, gt, PARAMS, ["scaled"], 4, seed=5)
        for rep in reports:
            assert rep.region_labels == (RegionLabel.R3_TRIPLE_PRIME,)
            gram_norm = None
            # recover the sampled point deterministically from the seed
            rng = _stream(5, _SCAN_POINT, rep.point_id)
            c = np.sqrt(PARAMS.gamma) * (1.1 + 1.4 * rng.uniform())
            gram_norm = np.linalg.norm((c * gt.Y_star.Y) @ (c * gt.Y_star.Y).T)
            expected = 2.0 * (1.0 - 1.0 / PARAMS.gamma) * gram_norm**1.5 / np.sqrt(2)
            assert rep.bound_value == pytest.approx(expected, rel=1e-12)
            assert rep.grad_h_norm > expected
            assert rep.passed


class TestFospCheck:
    def test_target_is_strongly_convex_point(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=28)
        gt = inst.ground_truth
        est = strict_convexity_fosp_check(inst.objective, gt.Y_star)
        assert est.lambda_min >= 2 * gt.sigmar_star**2 - 1e-9

    def test_rejects_non_stationary(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=29)
        gt = inst.ground_truth
        rng = np.random.default_rng(30)
        Y = FactorPoint(gt.Y_star.Y + 0.3 * rng.standard_normal((8, 2)))
        with pytest.raises(NotAFOSPError):
            strict_convexity_fosp_check(inst.objective, Y)

    def test_negated_objective_flagged(self):
        rng = np.random.default_rng(31)
        Y = FactorPoint(rng.standard_normal((6, 2)))
        negated = ObjectiveHandle(
            value=lambda X: -0.25 * float(np.linalg.norm(X) ** 2),
            euclid_grad=lambda X: -0.5 * X,
            euclid_hess_form=lambda X, G1, G2: -0.5 * float(np.vdot(G1, G2)),
            p=6,
        )
        # the gradient of the negated objective never vanishes off zero
        with pytest.raises(NotAFOSPError):
            strict_convexity_fosp_check(negated, Y)

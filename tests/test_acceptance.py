"""Acceptance suite: one test per certified claim, run at desk scale.

Each test prints a single PASS line (with its wall time) after all of its
assertions go through, so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist. Stated runtimes are targets, not assertions.
"""

import time

import numpy as np
import pytest

from psdlandscape import landscape
from psdlandscape.geometry import (
    FactorPoint,
    HorizontalTangent,
    convexity_radius,
    exp_map,
    horizontal_project,
    log_map,
    quotient_distance,
)
from psdlandscape.kernels import sym_eig
from psdlandscape.landscape import (
    SQRT2M1_TIMES_2,
    RegionLabel,
    RegionParams,
    classify_region,
    compute_thresholds,
    escape_direction,
    hess_extreme_eigs,
    horizontal_dim,
    random_ball_tangent,
)
from psdlandscape.objectives import (
    embedded_hess_quadform,
    make_denoising,
    make_trace_regression,
    riemannian_grad_lift,
    riemannian_hess_quadform,
    rsc_rsm_estimate,
)
from psdlandscape.optimizers import GDConfig, error_bound_check, riemannian_gd, spectral_init
from psdlandscape.verify import fd_gradient_check, fd_hessian_check, run_suite


def _report(criterion: str, detail: str, t0: float) -> None:
    print(f"PASS {criterion}: {detail} [{time.time() - t0:.1f}s]")


def haar(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))[None, :]


def unit_horizontal(rng, Y):
    th = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
    return HorizontalTangent(th.theta / th.norm, Y)


def test_01_convexity_radius_ball():
    t0 = time.time()
    rng = np.random.default_rng(101)
    Y = FactorPoint(rng.standard_normal((20, 3)))
    radius = convexity_radius(Y)
    worst = -np.inf
    for _ in range(200):
        a = random_ball_tangent(Y, radius, rng)
        b = random_ball_tangent(Y, radius, rng)
        Ya = FactorPoint(Y.Y + a.theta)
        Yb = FactorPoint(Y.Y + b.theta)
        lg = log_map(Ya, Yb)
        for t in np.arange(0.1, 1.0, 0.1):
            d = quotient_distance(exp_map(Ya, lg, t), Y)
            worst = max(worst, d - radius)
            assert d < radius + 1e-9
        dmid = quotient_distance(exp_map(Ya, lg, 0.5), Y)
        cap = max(quotient_distance(Ya, Y), quotient_distance(Yb, Y))
        assert dmid <= cap + 1e-9
    _report(
        "convexity radius",
        f"200 geodesics stay in the one-third ball (worst overshoot {worst:.2e})",
        t0,
    )


def test_02_local_strong_convexity_brackets():
    t0 = time.time()
    mu = 0.2
    params = RegionParams(mu=mu, alpha=0.5, beta=1.5, gamma=1.5)
    for kappa in (1.0, 2.0, 5.0):
        den, gt = make_denoising(20, 3, kappa_star=kappa, seed=200 + int(kappa))
        obj = den.handle()
        rep = compute_thresholds(gt, params, 3)
        tol = 1e-8 * gt.sigmar_star**2
        rng = np.random.default_rng(300 + int(kappa))
        radius = mu * gt.sigmar_star / gt.kappa_star
        for _ in range(100):
            th = random_ball_tangent(gt.Y_star, radius, rng)
            Y = FactorPoint(gt.Y_star.Y + th.theta)
            assert RegionLabel.R1 in classify_region(Y, gt, params)
            est = hess_extreme_eigs(obj, Y)
            assert est.lambda_min >= rep.r1_hess_lower - tol
            assert est.lambda_max <= rep.r1_hess_upper + tol
    _report(
        "local strong convexity",
        "Hessian brackets hold on 100 ball points per condition number "
        "kappa in {1, 2, 5}",
        t0,
    )


def _r2_point(gt, rng, params):
    """Verified R2 member: drop one target direction, complete the rank with
    a small orthogonal column (small gradient, order-sigma_r distance)."""
    Ys = gt.Y_star
    p, r = Ys.p, Ys.r
    U, sigma, _ = Ys.svd
    j = int(rng.integers(0, r))
    keep = [i for i in range(r) if i != j]
    raw = rng.standard_normal(p)
    raw -= U @ (U.T @ raw)
    q = raw / np.linalg.norm(raw)
    grad_cap = params.alpha * params.mu * gt.sigmar_star**3 / (4.0 * gt.kappa_star)
    eps = (0.2 + 0.7 * rng.uniform()) * (grad_cap / 2.0) ** (1.0 / 3.0)
    cols = [U[:, i] * sigma[i] for i in keep] + [eps * q]
    return FactorPoint(np.stack(cols, axis=1) @ haar(rng, r))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_03_escape_direction_negative_curvature():
    t0 = time.time()
    params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
    den, gt = make_denoising(20, 3, kappa_star=2.0, seed=400)
    obj = den.handle()
    rng = np.random.default_rng(401)
    bound = (params.alpha - SQRT2M1_TIMES_2) * gt.sigmar_star**2
    tol = 1e-8 * gt.sigmar_star**2
    worst = -np.inf
    for _ in range(100):
        Y = _r2_point(gt, rng, params)
        assert RegionLabel.R2 in classify_region(Y, gt, params)
        th = escape_direction(Y, gt)
        quad = riemannian_hess_quadform(obj, Y, th) / th.norm**2
        worst = max(worst, quad)
        assert quad <= bound + tol
        assert quad < 0.0
    _report(
        "escape direction",
        f"100 constructed points have curvature <= {bound:.4f} along the "
        f"alignment-residual direction (worst {worst:.4f})",
        t0,
    )


def test_04_gradient_floors_in_outer_regions():
    t0 = time.time()
    params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
    # kappa* = 1 keeps the middle region nonempty:
    # membership needs beta^2 ||Y*||^2 <= gamma ||X*||_F
    den, gt = make_denoising(20, 3, kappa_star=1.0, seed=500)
    obj = den.handle()
    rng = np.random.default_rng(501)
    rep = compute_thresholds(gt, params, 3)
    tol = 1e-8 * gt.sigmar_star**3
    kap, sr, s1 = gt.kappa_star, gt.sigmar_star, gt.sigma1_star
    xnorm = np.linalg.norm(gt.X_star)
    U, sigma, _ = gt.Y_star.svd

    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(40):
        # large-gradient zone inside the norm box
        th = random_ball_tangent(gt.Y_star, 0.5 * sr, rng)
        Y = FactorPoint(gt.Y_star.Y + th.theta)
        labels = classify_region(Y, gt, params)
        if RegionLabel.R3_PRIME in labels:
            counts[1] += 1
            gnorm = riemannian_grad_lift(obj, Y).norm
            assert gnorm > params.alpha * params.mu * sr**3 / (4.0 * kap) - tol
            assert gnorm > rep.r3_grad_lowers[0] - tol
        # boosted spectral norm, Gram norm still inside the box
        s_top = s1 * (1.51 + 0.06 * rng.uniform())
        s_rest = 0.75 + 0.1 * rng.uniform(size=2)
        Y2 = FactorPoint((U * np.array([s_top, *s_rest])[None, :]) @ haar(rng, 3))
        labels2 = classify_region(Y2, gt, params)
        if RegionLabel.R3_DOUBLE_PRIME in labels2:
            counts[2] += 1
            gnorm = riemannian_grad_lift(obj, Y2).norm
            assert gnorm > 2.0 * (params.beta**3 - params.beta) * s1**3 - tol
            assert gnorm > rep.r3_grad_lowers[1] - tol
        # inflated Gram norm
        c = np.sqrt(params.gamma) * (1.05 + rng.uniform())
        Y3 = FactorPoint(c * gt.Y_star.Y)
        labels3 = classify_region(Y3, gt, params)
        assert RegionLabel.R3_TRIPLE_PRIME in labels3
        counts[3] += 1
        gnorm = riemannian_grad_lift(obj, Y3).norm
        assert gnorm > 2.0 * (params.gamma - 1.0) * np.sqrt(params.gamma) * xnorm**1.5 / np.sqrt(3) - tol
        assert gnorm > rep.r3_grad_lowers[2] - tol
    assert counts[1] >= 30 and counts[2] >= 30 and counts[3] == 40
    _report(
        "gradient floors",
        f"floors hold on constructed members of all three outer regions "
        f"({counts[1]}/{counts[2]}/{counts[3]} points)",
        t0,
    )


def test_05_unique_stationary_point_multistart():
    t0 = time.time()
    den, gt = make_denoising(20, 3, kappa_star=2.0, seed=600)
    obj = den.handle()
    rng = np.random.default_rng(601)
    grad_tol = 1e-10 * gt.sigmar_star**3
    cfg = GDConfig(max_iters=50_000, grad_tol=grad_tol)
    xnorm = np.linalg.norm(gt.X_star)
    reached = 0
    for _ in range(50):
        Y0 = FactorPoint(rng.standard_normal((20, 3)) * gt.sigma1_star / np.sqrt(20))
        rec = riemannian_gd(obj, Y0, cfg)
        assert rec.converged
        reached += 1
        assert np.linalg.norm(rec.final.gram() - gt.X_star) < 1e-6 * xnorm
    _report(
        "unique stationary point",
        f"{reached}/50 random starts converged and all recovered the target "
        "Gram matrix to 1e-6 relative",
        t0,
    )


def test_06_general_objective_landscape_and_recovery():
    t0 = time.time()
    p, r = 30, 2
    n = 10 * p * r
    reg, gt = make_trace_regression(p, r, n, noise_sigma=0.0, seed=700, kappa_star=1.5)
    obj = reg.handle()
    params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)

    delta_hat = rsc_rsm_estimate(obj, r, 200, seed=701)
    rep = compute_thresholds(gt, params, r, delta=delta_hat)
    gate = delta_hat <= rep.delta_composite_bound
    print(
        f"  sampled restricted-isometry deviation: {delta_hat:.4f} "
        f"(composite bound {rep.delta_composite_bound:.2e}; "
        f"{'within' if gate else 'exceeds - substituted-formula checks only'})"
    )

    tol = 1e-8 * gt.sigmar_star**2
    rng = np.random.default_rng(702)
    radius = params.mu * gt.sigmar_star / gt.kappa_star
    worst = np.inf
    for _ in range(50):
        th = random_ball_tangent(gt.Y_star, radius, rng)
        Y = FactorPoint(gt.Y_star.Y + th.theta)
        assert RegionLabel.R1 in classify_region(Y, gt, params)
        est = hess_extreme_eigs(obj, Y)
        worst = min(worst, est.lambda_min - rep.r1_hess_lower)
        assert est.lambda_min >= rep.r1_hess_lower - tol

    Y0 = spectral_init(reg, r)
    cfg = GDConfig(max_iters=50_000, grad_tol=1e-10 * gt.sigmar_star**3)
    rec = riemannian_gd(obj, Y0, cfg, gt=gt)
    assert rec.converged
    d_final = quotient_distance(rec.final, gt.Y_star)
    assert d_final < 1e-6 * gt.sigmar_star
    res = error_bound_check(rec.final, gt, params.mu, obj, fosp_tol=1e-8)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    assert res.holds
    _report(
        "well-conditioned objective",
        f"50 substituted curvature bounds hold (min margin {worst:.3f}) and "
        f"spectral-init descent recovers the target to {d_final:.1e}",
        t0,
    )


def test_07_noisy_error_bound():
    t0 = time.time()
    p, r, n = 12, 2, 12 * 12 * 2
    params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
    holds = 0
    for k in range(20):
        seed = 800 + k
        # calibrate the noise to sit safely inside the admissible band
        probe, gt_probe = make_trace_regression(p, r, n, 0.0, seed=seed, kappa_star=1.5)
        psi = compute_thresholds(gt_probe, params, r).psi
        noise_sigma = psi / (4.0 * np.sqrt(p))
        reg, gt = make_trace_regression(p, r, n, noise_sigma, seed=seed, kappa_star=1.5)
        obj = reg.handle()
        assert gt.grad_at_star_trunc <= psi, "noise premise violated"

        Y0 = spectral_init(reg, r)
        cfg = GDConfig(max_iters=50_000, grad_tol=1e-9 * gt.sigmar_star**3)
        rec = riemannian_gd(obj, Y0, cfg, gt=gt)
        assert rec.converged
        res = error_bound_check(rec.final, gt, params.mu, obj, fosp_tol=1e-8)
        print(
            f"  instance {k}: distance {res.lhs:.3e} <= bound {res.rhs:.3e} "
            f"(mid {res.rhs_mid:.3e})"
        )
        assert res.holds
        holds += 1
    _report("noisy error bound", f"bound holds on {holds}/20 seeded instances", t0)


def test_08_derivative_correctness_and_spectrum_agreement(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(900)

    den, gt_d = make_denoising(6, 2, kappa_star=2.0, seed=901)
    reg, _ = make_trace_regression(6, 2, 72, noise_sigma=0.05, seed=902)
    for obj in (den.handle(), reg.handle()):
        for _ in range(100):
            Y = FactorPoint(rng.standard_normal((6, 2)))
            th = unit_horizontal(rng, Y)
            g = fd_gradient_check(obj, Y, th)
            assert g.rel_err < 1e-5
            h = fd_hessian_check(obj, Y, th)
            assert h.rel_err < 1e-5

    # dense and iterative (Lanczos) spectrum ends agree at two sizes (dim 19 and 57)
    def spectrum(obj, Y, cap, method):
        with monkeypatch.context() as m:
            m.setattr(landscape, "DENSE_HESSIAN_CAP", cap)
            est = hess_extreme_eigs(obj, Y)
        assert est.method == method
        return est

    def dense_and_iterative(obj, Y):
        return spectrum(obj, Y, horizontal_dim(Y.p, Y.r), "dense"), spectrum(obj, Y, 0, "lanczos")

    den10, gt10 = make_denoising(10, 2, kappa_star=2.0, seed=903)
    Yp = FactorPoint(gt10.Y_star.Y + 0.05 * rng.standard_normal((10, 2)))
    dense, it = dense_and_iterative(den10.handle(), Yp)
    assert it.lambda_min == pytest.approx(dense.lambda_min, rel=1e-7)
    assert it.lambda_max == pytest.approx(dense.lambda_max, rel=1e-7)

    den20, gt20 = make_denoising(20, 3, kappa_star=2.0, seed=904)
    dense2, it2 = dense_and_iterative(den20.handle(), gt20.Y_star)
    assert it2.lambda_min == pytest.approx(dense2.lambda_min, rel=1e-7)
    assert it2.lambda_max == pytest.approx(dense2.lambda_max, rel=1e-7)
    _report(
        "derivative correctness",
        "400 finite-difference probes under 1e-5 and dense/iterative spectrum "
        "ends agree to 1e-7 at horizontal dimensions 19 and 57",
        t0,
    )


def test_09_oracle_suites_green():
    t0 = time.time()
    suites = (
        "distance-transfer",
        "norm-sandwich",
        "geodesic-determinant",
        "injectivity-radius",
        "singular-value-derivatives",
        "procrustes-perturbation",
        "truncated-norm-duality",
        "normal-neighborhood",
    )
    for name in suites:
        summary = run_suite(name, seed=0, instances=100)
        assert summary.green, f"suite {name} failed: {summary}"
    _report("oracle suites", f"{len(suites)} suites green on 100 instances each", t0)


def test_10_embedded_geometry_comparison():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    _, gt = make_denoising(12, 3, kappa_star=2.0, seed=1001)
    mu_prime = 0.2
    target = mu_prime * gt.sigmar_star**2  # sigma_r of the Gram target
    raw = horizontal_project(gt.Y_star, rng.standard_normal((12, 3)))

    def gram_dist(tt):
        Y = gt.Y_star.Y + tt * raw.theta
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

    U, lam = sym_eig(X)
    scale = np.linalg.norm(X)
    floor_coeff = 1.0 - 2.0 * mu_prime / (1.0 - mu_prime)
    assert floor_coeff == pytest.approx(0.5)
    for _ in range(200):
        S = rng.standard_normal((3, 3))
        S = S + S.T
        D = rng.standard_normal((9, 3))
        xi = (
            U[:, :3] @ S @ U[:, :3].T
            + U[:, 3:] @ D @ U[:, :3].T
            + U[:, :3] @ D.T @ U[:, 3:].T
        )
        got = embedded_hess_quadform(X, gt.X_star, S, D)
        assert got >= floor_coeff * np.linalg.norm(xi) ** 2 - 1e-8 * scale
    _report(
        "embedded-geometry comparison",
        "200 tangent probes keep at least half their norm at Gram distance "
        "0.2 sigma_r",
        t0,
    )

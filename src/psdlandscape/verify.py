"""Independent oracles and finite-difference machinery.

Everything here deliberately avoids the analytic code paths it checks:
distances are brute-forced or sampled over the orthogonal group,
derivatives come from central differences, and the restricted
convexity/smoothness constant is extremized densely at small sizes.
The property suites bundle these oracles into named, seeded runs that the
CLI exposes and the tests assert on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputContractError
from .geometry import (
    FactorPoint,
    HorizontalTangent,
    convexity_radius,
    exp_map,
    horizontal_project,
    injectivity_radius,
    log_map,
    quotient_distance,
)
from .kernels import _check_int, check_matrix, procrustes_align, sym_eig, truncated_frob_norm
from .landscape import random_ball_tangent
from .objectives import (
    ObjectiveHandle,
    lifted_value,
    make_instance,
    random_orthonormal,
    random_symmetric_low_rank,
    riemannian_grad_lift,
    riemannian_hess_quadform,
)

__all__ = [
    "FDCheckResult",
    "fd_gradient_check",
    "fd_hessian_check",
    "brute_distance_rank1",
    "sampled_distance_upper_bound",
    "dense_delta_certificate",
    "SuiteSummary",
    "run_suite",
    "suite_names",
]


class FDCheckResult(NamedTuple):
    analytic: float
    numeric: float
    rel_err: float


def _rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0.0 else abs(a - b) / denom


def fd_gradient_check(
    obj: ObjectiveHandle,
    Y: FactorPoint,
    theta: HorizontalTangent,
) -> FDCheckResult:
    """Directional derivative of the lifted objective, by a central
    difference at step ``1e-5``, vs the gradient lift."""
    analytic = float(np.vdot(riemannian_grad_lift(obj, Y).theta, theta.theta))
    t = 1e-5
    fp = float(obj.value((Y.Y + t * theta.theta) @ (Y.Y + t * theta.theta).T))
    fm = float(obj.value((Y.Y - t * theta.theta) @ (Y.Y - t * theta.theta).T))
    numeric = (fp - fm) / (2.0 * t)
    return FDCheckResult(analytic, numeric, _rel_err(analytic, numeric))


def fd_hessian_check(
    obj: ObjectiveHandle,
    Y: FactorPoint,
    theta: HorizontalTangent,
) -> FDCheckResult:
    """Second difference of the lifted objective vs the Hessian quadratic form.

    Valid as stated because geodesics lift to straight horizontal lines, so
    the second difference along ``Y + t theta`` is exactly the Riemannian
    second derivative. For both objective families
    ``g(t) = f((Y + t theta)(Y + t theta).T)`` is a quartic in ``t``, so the
    central second difference is ``D(t) = g2 + t^2 g4 / 12`` (``g2``, ``g4``
    the second and fourth derivatives at 0) and the Richardson combination
    ``(4 D(t) - D(2t)) / 3`` equals ``g2`` up to roundoff. That lets the step
    be large enough for the cancellation in ``D`` to stay small: ``t = 1e-2``.
    """
    analytic = riemannian_hess_quadform(obj, Y, theta)
    f0 = lifted_value(obj, Y)

    def second_difference(t: float) -> float:
        fp = float(obj.value((Y.Y + t * theta.theta) @ (Y.Y + t * theta.theta).T))
        fm = float(obj.value((Y.Y - t * theta.theta) @ (Y.Y - t * theta.theta).T))
        return (fp - 2.0 * f0 + fm) / (t * t)

    t = 1e-2
    numeric = (4.0 * second_difference(t) - second_difference(2.0 * t)) / 3.0
    return FDCheckResult(analytic, numeric, _rel_err(analytic, numeric))


def brute_distance_rank1(y1: np.ndarray, y2: np.ndarray) -> float:
    """Exact rank-1 quotient distance: the alignment group is just {+1, -1}."""
    y1 = np.asarray(y1, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    if np.linalg.norm(y1) == 0.0 or np.linalg.norm(y2) == 0.0:
        raise InputContractError("rank-1 factors must be nonzero")
    return float(min(np.linalg.norm(y1 - y2), np.linalg.norm(y1 + y2)))


def _cayley(K: np.ndarray) -> np.ndarray:
    r = K.shape[0]
    eye = np.eye(r)
    return np.linalg.solve(eye + K, eye - K)


def sampled_distance_upper_bound(
    Y1: np.ndarray, Y2: np.ndarray, n_samples: int, seed: int
) -> float:
    """Upper bound on the quotient distance by sampling alignments.

    A quarter of the budget goes to global Haar draws (covering both
    connected components of the orthogonal group); the rest refines around
    the incumbent with geometrically shrinking Cayley perturbations, so the
    bound approaches the true distance as the budget grows.
    """
    Y1, Y2 = check_matrix(Y1, "Y1"), check_matrix(Y2, "Y2")
    if Y1.shape != Y2.shape:
        raise InputContractError(f"shape mismatch: {Y1.shape} vs {Y2.shape}")
    _check_int(n_samples, "n_samples", 1)
    _check_int(seed, "seed", 0)
    r = Y1.shape[1]
    rng = np.random.default_rng(seed)
    best_O = np.eye(r)
    best = float(np.linalg.norm(Y2 @ best_O - Y1))

    n_global = max(1, n_samples // 4)
    for _ in range(n_global):
        O = random_orthonormal(r, r, rng)
        val = float(np.linalg.norm(Y2 @ O - Y1))
        if val < best:
            best, best_O = val, O

    n_local = n_samples - n_global
    if n_local > 0 and r > 1:
        n_stages = 24
        per_stage = max(1, n_local // n_stages)
        scale = 1.0
        for _ in range(n_stages):
            for _ in range(per_stage):
                K = rng.standard_normal((r, r))
                K = scale * (K - K.T) / 2.0
                O = best_O @ _cayley(K)
                val = float(np.linalg.norm(Y2 @ O - Y1))
                if val < best:
                    best, best_O = val, O
            scale *= 0.45
    elif r == 1:
        best = min(best, float(np.linalg.norm(Y2 + Y1)), float(np.linalg.norm(Y2 - Y1)))
    return best


# ---------------------------------------------------------------------------
# Dense restricted convexity/smoothness certificate (small sizes)
# ---------------------------------------------------------------------------


def _symmetric_basis(p: int) -> np.ndarray:
    """Orthonormal basis of the symmetric ``p x p`` matrices as a ``(q, p, p)``
    array: the ``p`` diagonal units, then ``(E_ij + E_ji) / sqrt 2`` for
    ``i < j`` row by row."""
    i, j = np.triu_indices(p, 1)
    d, k = np.arange(p), np.arange(p, p + len(i))
    basis = np.zeros((p + len(i), p, p))
    basis[d, d, d] = 1.0
    basis[k, i, j] = basis[k, j, i] = 1.0 / np.sqrt(2.0)
    return basis


def _least_squares_gram(obj: ObjectiveHandle) -> tuple[np.ndarray, np.ndarray]:
    """The basis of :func:`_symmetric_basis` as ``(q, p * p)`` rows ``B_k``,
    and ``M = F F.T`` with ``F[k] = A(B_k)`` from one sweep over the map of a
    least-squares handle, whose Hessian ``A.T A`` is the same at every ``X``:
    ``M[a, b] = <hess f[B_a], B_b>``. Small sizes only (``p <= 8``)."""
    p = obj.p
    if p > 8:
        raise InputContractError(f"dense delta oracles require p <= 8, got p={p}")
    if obj.least_squares is None:
        raise InputContractError("dense delta oracles need a least-squares handle")
    basis = _symmetric_basis(p)
    F = obj.least_squares.forward(basis)
    return basis.reshape(len(basis), -1), F @ F.T


def dense_delta_certificate(
    obj: ObjectiveHandle, r: int, restarts: int = 8, seed: int = 0
) -> float:
    """Lower bound for the restricted convexity/smoothness constant by
    multi-restart projected ascent, 60 steps per restart, at small sizes
    (``p <= 8``) on a least-squares handle.

    Maximizes ``|hess_form[G, G] - 1| = |c . M c - 1|`` over unit-norm
    symmetric ``G = sum_k c_k B_k`` of rank at most ``4r`` (see
    :func:`_least_squares_gram`). Two restarts start from the extremal
    eigenvectors of ``M``, which makes the certificate exact whenever
    ``4r >= p``.
    """
    _check_int(r, "r", 1)
    _check_int(restarts, "restarts", 2)
    _check_int(seed, "seed", 0)
    flat, M = _least_squares_gram(obj)
    p = obj.p

    def project(c: np.ndarray) -> np.ndarray:
        """Coordinates of the unit-norm rank-``4r`` truncation of ``sum_k c_k B_k``."""
        U, lam = sym_eig((c @ flat).reshape(p, p), asym_tol=1e-6)
        top = np.argsort(-np.abs(lam))[: 4 * r]
        c = flat @ ((U[:, top] * lam[top]) @ U[:, top].T).ravel()
        return c / (np.linalg.norm(c) or 1.0)

    rng = np.random.default_rng(seed)
    U, _ = sym_eig(M, asym_tol=1e-6)
    starts = [project(U[:, 0]), project(U[:, -1])]
    starts += [project(flat @ random_symmetric_low_rank(p, 4 * r, rng).ravel())
               for _ in range(restarts - len(starts))]

    best = 0.0
    for c in starts:
        step = 0.5
        val = float(c @ M @ c) - 1.0
        best = max(best, abs(val))
        for _ in range(60):
            c_new = project(c + np.copysign(step, val) * (M @ c))
            val_new = float(c_new @ M @ c_new) - 1.0
            if abs(val_new) >= abs(val):
                c, val = c_new, val_new
                best = max(best, abs(val))
            else:
                step *= 0.5
                if step < 1e-8:
                    break
    return best


def symmetric_delta_upper(obj: ObjectiveHandle) -> float:
    """Exact extremum of ``|hess_form[G, G] - 1|`` over all unit symmetric
    ``G`` (no rank restriction), from the eigenvalues of ``M`` of
    :func:`_least_squares_gram`: an upper bound for every rank-restricted
    constant, for the favorable side of comparison inequalities."""
    _, lam = sym_eig(_least_squares_gram(obj)[1], asym_tol=1e-6)
    return float(max(abs(lam[0] - 1.0), abs(lam[-1] - 1.0)))


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSummary:
    suite: str
    instances: int
    passes: int
    worst_rel_err: float
    seed: int

    @property
    def green(self) -> bool:
        return self.passes == self.instances

    def to_dict(self) -> dict:
        return asdict(self)


def _random_factor(rng: np.random.Generator, p: int | None = None, r: int | None = None) -> FactorPoint:
    if p is None:
        p = int(rng.integers(3, 13))
    if r is None:
        r = int(rng.integers(1, min(4, p) + 1))
    while True:
        Y = rng.standard_normal((p, r))
        try:
            return FactorPoint(Y)
        except InputContractError:  # pragma: no cover - essentially never
            continue


def _suite_norm_sandwich(rng: np.random.Generator) -> float:
    """Violation of ``2 s_r^2 ||th||^2 <= ||Y th' + th Y'||^2 <= 4 s_1^2 ||th||^2``."""
    Y = _random_factor(rng)
    worst = 0.0
    for _ in range(5):
        th = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
        lhs = np.linalg.norm(Y.Y @ th.theta.T + th.theta @ Y.Y.T) ** 2
        lo = 2.0 * Y.sigma_min**2 * th.norm**2
        hi = 4.0 * Y.sigma_max**2 * th.norm**2
        worst = max(worst, (lo - lhs) / max(hi, 1e-300), (lhs - hi) / max(hi, 1e-300))
    return worst


def _suite_distance_transfer(rng: np.random.Generator) -> float:
    Y2 = _random_factor(rng)
    worst = 0.0
    # generic pair: squared-distance bound and the Gram-difference bound
    Y1 = _random_factor(rng, Y2.p, Y2.r)
    d2 = quotient_distance(Y1, Y2) ** 2
    dX = np.linalg.norm(Y1.gram() - Y2.gram())
    cap = dX**2 / (2.0 * (np.sqrt(2.0) - 1.0) * Y2.sigma_min**2)
    worst = max(worst, (d2 - cap) / max(cap, 1e-300))
    Q, _ = procrustes_align(Y1.Y, Y2.Y)
    th = Y1.Y - Y2.Y @ Q
    lhs2 = np.linalg.norm(th @ th.T) ** 2
    worst = max(worst, (lhs2 - 2.0 * dX**2) / max(2.0 * dX**2, 1e-300))
    # close pair: Gram difference controlled linearly by the distance
    t = random_ball_tangent(Y2, Y2.sigma_min / 3.0, rng)
    Y1c = FactorPoint(Y2.Y + t.theta)
    d = quotient_distance(Y1c, Y2)
    if d <= Y2.sigma_min / 3.0:
        dXc = np.linalg.norm(Y1c.gram() - Y2.gram())
        cap = (7.0 / 3.0) * Y2.sigma_max * d
        worst = max(worst, (dXc - cap) / max(cap, 1e-300))
    return worst


def _suite_geodesic_determinant(rng: np.random.Generator) -> float:
    """det(Y.T geodesic(t)) must stay positive when d < sigma_r(Y)."""
    Y = _random_factor(rng)
    t = random_ball_tangent(Y, 0.9 * Y.sigma_min, rng)
    Y2 = FactorPoint(Y.Y + t.theta)
    if quotient_distance(Y, Y2) >= Y.sigma_min:
        return 0.0
    Q, _ = procrustes_align(Y.Y, Y2.Y)
    direction = Y2.Y @ Q - Y.Y
    worst = 0.0
    for tt in np.linspace(0.0, 1.0, 11):
        det = np.linalg.det(Y.Y.T @ (Y.Y + tt * direction))
        worst = max(worst, -det)
    return worst


def _suite_injectivity_radius(rng: np.random.Generator) -> float:
    Y = _random_factor(rng)
    worst = 0.0
    # Weyl: one geodesic step of norm s shrinks sigma_r by at most s
    s = 0.8 * injectivity_radius(Y) * rng.uniform()
    th = random_ball_tangent(Y, s, rng)
    Ynew = exp_map(Y, th, 1.0)
    gap = (Y.sigma_min - th.norm) - Ynew.sigma_min
    worst = max(worst, gap / Y.sigma_min)
    # exp/log round trip inside the radius
    th2 = random_ball_tangent(Y, 0.9 * Y.sigma_min, rng)
    Y2 = FactorPoint(Y.Y + th2.theta)
    if quotient_distance(Y, Y2) < Y.sigma_min:
        back = exp_map(Y, log_map(Y, Y2), 1.0)
        worst = max(worst, quotient_distance(back, Y2) / max(Y.sigma_max, 1.0))
        # constant speed along the geodesic
        lg = log_map(Y, Y2)
        for tt in (0.3, 0.7):
            err = abs(quotient_distance(exp_map(Y, lg, tt), Y) - tt * lg.norm)
            worst = max(worst, err / max(lg.norm, 1e-300))
    return worst


def _suite_singular_value_derivatives(rng: np.random.Generator) -> float:
    """First and second t-derivatives of singular values of ``A0 + t B``."""
    p1 = int(rng.integers(3, 7))
    p2 = int(rng.integers(2, p1 + 1))
    A0 = rng.standard_normal((p1, p2))
    B = rng.standard_normal((p1, p2))
    s0 = np.linalg.svd(A0, compute_uv=False)
    # second-derivative truncation error scales like 1/gap^3, so keep the
    # spectrum well separated (the formulas assume distinct singular values)
    if np.min(np.abs(np.diff(s0))) < 0.2 or s0[-1] < 0.1:
        return 0.0

    def svd_at(t: float):
        U, s, Vt = np.linalg.svd(A0 + t * B, full_matrices=False)
        # align vector signs with the center factorization for continuity
        for i in range(len(s)):
            if np.vdot(U[:, i], U0[:, i]) < 0:
                U[:, i] *= -1.0
                Vt[i, :] *= -1.0
        return U, s, Vt.T

    U0, _, Vt0 = np.linalg.svd(A0, full_matrices=False)
    V0 = Vt0.T
    worst = 0.0
    h2 = 1e-4  # second-order step: the coarser default beats roundoff
    Up, s_p2, Vp = svd_at(h2)
    Um, s_m2, Vm = svd_at(-h2)
    # first order: the central difference is D(h) = s1 + h^2 s3 / 6 + O(h^4)
    # (s1, s3 the first and third derivatives), so the Richardson
    # combination (4 D(h) - D(2h)) / 3 with 2h = h2 cancels the h^2 term
    # that dominates the relative error of a near-zero derivative
    h1 = h2 / 2.0
    _, s_p1, _ = svd_at(h1)
    _, s_m1, _ = svd_at(-h1)
    for i in range(len(s0)):
        fd1 = (4.0 * (s_p1[i] - s_m1[i]) / (2.0 * h1) - (s_p2[i] - s_m2[i]) / (2.0 * h2)) / 3.0
        an1 = float(U0[:, i] @ B @ V0[:, i])
        worst = max(worst, _rel_err(fd1, an1))
        fd2 = (s_p2[i] - 2.0 * s0[i] + s_m2[i]) / (h2 * h2)
        duv = (np.outer(Up[:, i], Vp[:, i]) - np.outer(Um[:, i], Vm[:, i])) / (2.0 * h2)
        an2 = float(np.vdot(B, duv))
        scale = max(abs(fd2), abs(an2), 1.0)
        worst = max(worst, abs(fd2 - an2) / scale)
    return worst


def _suite_procrustes_perturbation(rng: np.random.Generator) -> float:
    """Finite-difference derivative of the optimal alignment vs its bound."""
    p = int(rng.integers(4, 9))
    r = int(rng.integers(2, min(4, p) + 1))
    Y = _random_factor(rng, p, r)
    th = random_ball_tangent(Y, 0.4 * Y.sigma_min * rng.uniform(), rng)
    Yp = FactorPoint(Y.Y + th.theta)
    d = quotient_distance(Yp, Y)
    if d >= Y.sigma_min / 2.0:
        return 0.0
    dY = rng.standard_normal((p, r))
    dYp = rng.standard_normal((p, r))
    h = 1e-5

    def align(t: float) -> np.ndarray:
        Q, _ = procrustes_align(Y.Y + t * dY, Yp.Y + t * dYp)
        return Q

    dO = (align(h) - align(-h)) / (2.0 * h)
    s = np.linalg.svd(Y.Y, compute_uv=False)
    denom = np.sqrt(s[-1] ** 2 + s[-2] ** 2)
    bound = np.sqrt(2.0) * (
        np.linalg.norm(dYp) / denom + np.linalg.norm(dY) / (denom - d)
    )
    return max(0.0, (np.linalg.norm(dO) - bound - 1e-6) / max(bound, 1e-300))


def _suite_truncated_norm_duality(rng: np.random.Generator) -> float:
    """Sampled low-rank inner products never exceed the truncated norm."""
    p1 = int(rng.integers(3, 9))
    p2 = int(rng.integers(3, 9))
    A = rng.standard_normal((p1, p2))
    k = int(rng.integers(1, min(p1, p2) + 1))
    tn = truncated_frob_norm(A, k)
    worst = 0.0
    for _ in range(50):
        B = rng.standard_normal((p1, k)) @ rng.standard_normal((k, p2))
        B /= np.linalg.norm(B)
        worst = max(worst, (float(np.vdot(B, A)) - tn) / max(tn, 1e-300))
    # a rank-k matrix has truncated norm equal to its full norm
    C = rng.standard_normal((p1, k)) @ rng.standard_normal((k, p2))
    worst = max(worst, _rel_err(truncated_frob_norm(C, k), float(np.linalg.norm(C))))
    return worst


def _suite_normal_neighborhood(rng: np.random.Generator) -> float:
    """Points of the one-third ball keep a large least singular value and
    see the whole ball within their own injectivity radius."""
    Y = _random_factor(rng)
    x = convexity_radius(Y)
    th = random_ball_tangent(Y, x, rng)
    Yp = FactorPoint(Y.Y + th.theta)
    worst = max(0.0, ((Y.sigma_min - x) - Yp.sigma_min) / Y.sigma_min)
    th2 = random_ball_tangent(Y, x, rng)
    Ypp = FactorPoint(Y.Y + th2.theta)
    d = quotient_distance(Ypp, Yp)
    worst = max(worst, (d - (Y.sigma_min - x)) / Y.sigma_min)
    return worst


def _suite_convexity_ball(rng: np.random.Generator) -> float:
    """Geodesics between ball points stay inside the ball."""
    Y = _random_factor(rng, int(rng.integers(6, 13)), int(rng.integers(1, 4)))
    radius = convexity_radius(Y)
    tha = random_ball_tangent(Y, radius, rng)
    thb = random_ball_tangent(Y, radius, rng)
    Ya = FactorPoint(Y.Y + tha.theta)
    Yb = FactorPoint(Y.Y + thb.theta)
    lg = log_map(Ya, Yb)
    worst = 0.0
    for tt in np.linspace(0.1, 0.9, 9):
        d = quotient_distance(exp_map(Ya, lg, tt), Y)
        worst = max(worst, (d - radius - 1e-9) / radius)
    mid = exp_map(Ya, lg, 0.5)
    dmid = quotient_distance(mid, Y)
    cap = max(quotient_distance(Ya, Y), quotient_distance(Yb, Y))
    worst = max(worst, (dmid - cap - 1e-9) / radius)
    return worst


def _fd_suite(order: int) -> Callable[[np.random.Generator], float]:
    def inner(rng: np.random.Generator) -> float:
        seed = int(rng.integers(0, 2**31))
        if rng.uniform() < 0.5:
            inst = make_instance("denoising", 5, 2, kappa_star=2.0, seed=seed)
        else:
            inst = make_instance("trace_regression", 5, 2, n=60, noise_sigma=0.1, seed=seed)
        obj = inst.objective
        Y = _random_factor(rng, 5, 2)
        th = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
        th = HorizontalTangent(th.theta / th.norm, Y)
        if order == 1:
            res = fd_gradient_check(obj, Y, th)
        else:
            res = fd_hessian_check(obj, Y, th)
        return res.rel_err

    return inner


def _suite_restricted_gradient_bound(rng: np.random.Generator) -> float:
    """|<grad f(C) - grad f(D) - (C - D), H>| <= delta ||C-D||_F ||H||_F
    on symmetric low-rank triples, with the densely certified constant."""
    p, r = 6, 3
    seed = int(rng.integers(0, 2**31))
    n = int(rng.integers(20, 80))
    obj = make_instance("trace_regression", p, r, n=n, seed=seed).objective
    delta = symmetric_delta_upper(obj)
    worst = 0.0
    for _ in range(5):
        C = random_symmetric_low_rank(p, r, rng)
        D = random_symmetric_low_rank(p, r, rng)
        H = random_symmetric_low_rank(p, 2 * r, rng)
        lhs = abs(float(np.vdot(obj.euclid_grad(C) - obj.euclid_grad(D) - (C - D), H)))
        cap = delta * np.linalg.norm(C - D) * np.linalg.norm(H)
        worst = max(worst, (lhs - cap) / max(cap, 1e-300))
    return worst


def _suite_objective_comparison(rng: np.random.Generator) -> float:
    """Gradient and Hessian of a well-conditioned objective track the
    exact-factorization ones up to the certified constant."""
    p, r = 6, 3
    seed = int(rng.integers(0, 2**31))
    noise_sigma = float(rng.choice([0.0, 0.02]))
    n = int(rng.integers(30, 90))
    inst = make_instance("trace_regression", p, r, n=n, noise_sigma=noise_sigma, seed=seed)
    obj, gt = inst.objective, inst.ground_truth
    delta = symmetric_delta_upper(obj)
    noise = gt.grad_at_star_trunc
    worst = 0.0
    for _ in range(4):
        Y = _random_factor(rng, p, r)
        dX = np.linalg.norm(Y.gram() - gt.X_star)
        grad_h = riemannian_grad_lift(obj, Y).theta
        grad_H = 2.0 * ((Y.gram() - gt.X_star) @ Y.Y)
        cap = 2.0 * delta * Y.sigma_max * dX + 2.0 * Y.sigma_max * noise
        diff = np.linalg.norm(grad_H - grad_h)
        worst = max(worst, (diff - cap) / max(cap, 1e-300))
        th = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
        C = Y.Y @ th.theta.T + th.theta @ Y.Y.T
        quad_h = riemannian_hess_quadform(obj, Y, th)
        quad_H = float(np.linalg.norm(C) ** 2) + 2.0 * float(
            np.vdot(Y.gram() - gt.X_star, th.theta @ th.theta.T)
        )
        tt_norm = np.linalg.norm(th.theta @ th.theta.T)
        cap2 = (
            delta * np.linalg.norm(C) ** 2
            + 2.0 * delta * dX * tt_norm
            + 2.0 * noise * tt_norm
        )
        worst = max(worst, (abs(quad_H - quad_h) - cap2) / max(cap2, 1e-300))
    return worst


_SUITES: dict[str, tuple[Callable[[np.random.Generator], float], float]] = {
    # name -> (per-instance worst violation / rel err, tolerance)
    "norm-sandwich": (_suite_norm_sandwich, 1e-10),
    "distance-transfer": (_suite_distance_transfer, 1e-9),
    "geodesic-determinant": (_suite_geodesic_determinant, 0.0),
    "injectivity-radius": (_suite_injectivity_radius, 1e-7),
    "singular-value-derivatives": (_suite_singular_value_derivatives, 1e-5),
    "procrustes-perturbation": (_suite_procrustes_perturbation, 0.0),
    "truncated-norm-duality": (_suite_truncated_norm_duality, 1e-9),
    "normal-neighborhood": (_suite_normal_neighborhood, 1e-9),
    "convexity-ball": (_suite_convexity_ball, 0.0),
    "fd-gradient": (_fd_suite(1), 1e-5),
    "fd-hessian": (_fd_suite(2), 1e-5),
    "restricted-gradient-bound": (_suite_restricted_gradient_bound, 1e-9),
    "objective-comparison": (_suite_objective_comparison, 1e-9),
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(name: str, seed: int = 0, instances: int = 100) -> SuiteSummary:
    """Run a named property suite on seeded instances.

    Instance ``i`` draws from ``SeedSequence([seed, i])``, so a larger run
    extends a smaller one instance for instance.
    """
    if name not in _SUITES:
        raise InputContractError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        )
    _check_int(seed, "seed", 0)
    _check_int(instances, "instances", 1)
    fn, tol = _SUITES[name]

    errs = [
        float(fn(np.random.default_rng(np.random.SeedSequence([int(seed), i]))))
        for i in range(instances)
    ]
    passes = sum(1 for err in errs if err <= tol)
    worst = max(errs, default=0.0)
    return SuiteSummary(name, instances, passes, worst, seed)

"""Region classification and numerical certification of landscape bounds.

The factor space splits into five (possibly overlapping) regions around a
rank-r target ``[Y*]``, driven by four parameters ``mu, alpha, beta, gamma``:

* R1     -- distance to the target at most ``mu sigma_r(Y*) / kappa*``,
* R2     -- outside R1, small exact-factorization gradient, bounded norms,
* R3'    -- large exact-factorization gradient, bounded norms,
* R3''   -- ``||Y|| > beta ||Y*||`` with bounded Gram norm,
* R3'''  -- ``||Y Y.T||_F > gamma ||Y* Y*.T||_F``.

In R1 the lifted objective is geodesically strongly convex and smooth; in
R2 the quadratic form along the explicit direction ``Y - Y* Q`` is provably
negative; in the R3 regions the Riemannian gradient norm has explicit
positive floors. :func:`certify_landscape` samples points, classifies them
and checks every applicable bound, reporting margins per point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    HypothesisViolationError,
    InputContractError,
    NotAFOSPError,
    NumericalFailure,
    ResourceLimitError,
)
from .geometry import FactorPoint, HorizontalTangent, quotient_distance, vertical_project
from .kernels import _SCAN_POINT, _align, _check_int, _stream, sym_eigvals
from .objectives import (
    MAX_INSTANCE_BYTES,
    GroundTruth,
    ObjectiveHandle,
    _form_matrix,
    _hess_quad,
    _lift,
    _sym_grad,
    random_orthonormal,
)

__all__ = [
    "RegionParams",
    "RegionLabel",
    "HessianSpectrumEstimate",
    "ThresholdReport",
    "RegionReport",
    "SQRT2M1_TIMES_2",
    "classify_region",
    "horizontal_basis",
    "horizontal_dim",
    "hess_extreme_eigs",
    "escape_direction",
    "compute_thresholds",
    "certify_landscape",
    "strict_convexity_fosp_check",
    "ErrorBoundResult",
    "error_bound_check",
    "reports_to_csv",
    "random_ball_tangent",
]

#: the curvature margin constant 2 (sqrt(2) - 1) ~ 0.8284
SQRT2M1_TIMES_2 = 2.0 * (np.sqrt(2.0) - 1.0)


@dataclass(frozen=True)
class RegionParams:
    """Region parameters; validated against the certified-bound hypotheses."""

    mu: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0 / 3.0:
            raise InputContractError(f"mu must lie in [0, 1/3], got {self.mu}")
        if not 0.0 <= self.alpha < SQRT2M1_TIMES_2:
            raise InputContractError(
                f"alpha must lie in [0, 2(sqrt(2)-1)) = [0, {SQRT2M1_TIMES_2:.6f}), "
                f"got {self.alpha}"
            )
        if not self.beta > 1.0:
            raise InputContractError(f"beta must exceed 1, got {self.beta}")
        if not self.gamma > 1.0:
            raise InputContractError(f"gamma must exceed 1, got {self.gamma}")


class RegionLabel(str, Enum):
    R1 = "R1"
    R2 = "R2"
    R3_PRIME = "R3'"
    R3_DOUBLE_PRIME = "R3''"
    R3_TRIPLE_PRIME = "R3'''"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class HessianSpectrumEstimate:
    """Extreme eigenvalues of the Hessian restricted to the horizontal space,
    exact to rounding; ``method`` is ``"dense"`` or ``"reduced"`` (see
    :func:`hess_extreme_eigs`)."""

    lambda_min: float
    lambda_max: float
    method: str


@dataclass(frozen=True)
class ThresholdReport:
    """All certified-bound quantities for one (target, params) pair."""

    delta_min: float
    psi: float
    r1_hess_lower: float
    r1_hess_upper: float
    r2_curvature_upper: float
    r3_grad_lowers: tuple[float, float, float]
    delta_composite_bound: float
    noise_composite_bound: float
    delta_used: float
    noise_at_target: float

    def to_dict(self) -> dict:
        return {**asdict(self), "r3_grad_lowers": list(self.r3_grad_lowers)}


@dataclass(frozen=True)
class RegionReport:
    """Per-point certification outcome."""

    point_id: int
    region_labels: tuple[RegionLabel, ...]
    dist_to_star: float
    grad_H_norm: float
    grad_h_norm: float
    lambda_min: float
    lambda_max: float
    bound_value: float
    margin: float
    passed: bool


def _r1_radius(gt: GroundTruth, mu: float) -> float:
    """The radius ``mu sigma_r(Y*) / kappa*`` of R1."""
    return mu * gt.sigmar_star / gt.kappa_star


def _grad_threshold(gt: GroundTruth, params: RegionParams) -> float:
    """The gradient norm ``alpha mu sigma_r(Y*)^3 / (4 kappa*)`` splitting R2 from R3'."""
    return params.alpha * params.mu * gt.sigmar_star**3 / (4.0 * gt.kappa_star)


def _margin(gt: GroundTruth, mu: float) -> float:
    """``(1 - mu/kappa*)^2 - 7 mu/3``; a margin <= 0 voids the local
    strong-convexity bracket and raises :class:`HypothesisViolationError`."""
    margin = (1.0 - mu / gt.kappa_star) ** 2 - 7.0 * mu / 3.0
    if not margin > 0.0:
        raise HypothesisViolationError(
            f"(1 - mu/kappa*)^2 - 7 mu/3 = {margin:.6g} <= 0; "
            "the local strong-convexity bracket is void for these parameters"
        )
    return margin


def _check_stationary(obj: ObjectiveHandle, Y: FactorPoint, fosp_tol: float) -> None:
    """Raise :class:`NotAFOSPError` if the gradient norm ``||2 R Y||_F`` at
    ``Y`` exceeds ``fosp_tol``."""
    gnorm = float(np.linalg.norm(2.0 * (_sym_grad(obj, Y.gram()) @ Y.Y)))
    if gnorm > fosp_tol:
        raise NotAFOSPError(gnorm, fosp_tol)


def _classify(
    Y: FactorPoint, gt: GroundTruth, params: RegionParams
) -> tuple[set[RegionLabel], tuple[float, float, float, float], tuple[np.ndarray, bool]]:
    """The labels of :func:`classify_region` and what they were read from:
    the quotient distance to the target, the norm of the exact-factorization
    gradient, the spectral norm and the Gram norm; and the aligned difference
    ``Y - Y* Q``, whose norm is that distance, with whether the alignment
    ``Q`` of the target onto ``Y`` is unique."""
    Q, _, unique = _align(Y.Y, gt.Y_star.Y)
    aligned = Y.Y - gt.Y_star.Y @ Q
    dist = float(np.linalg.norm(aligned))
    d = 0.0 if dist <= 1e-12 * gt.sigmar_star else dist
    X = Y.gram()
    with np.errstate(over="ignore"):  # an overflowing norm fails its row
        grad_norm = float(np.linalg.norm(2.0 * ((X - gt.X_star) @ Y.Y)))
        gram_norm = float(np.linalg.norm(X))
    spec_norm = Y.sigma_max

    r1_radius = _r1_radius(gt, params.mu)
    grad_thresh = _grad_threshold(gt, params)
    spec_cap = params.beta * gt.sigma1_star
    gram_cap = params.gamma * gt.X_star_norm

    labels: set[RegionLabel] = set()
    in_box = spec_norm <= spec_cap and gram_norm <= gram_cap
    if d <= r1_radius:
        labels.add(RegionLabel.R1)
    if d > r1_radius and grad_norm <= grad_thresh and in_box:
        labels.add(RegionLabel.R2)
    if grad_norm > grad_thresh and in_box:
        labels.add(RegionLabel.R3_PRIME)
    if spec_norm > spec_cap and gram_norm <= gram_cap:
        labels.add(RegionLabel.R3_DOUBLE_PRIME)
    if gram_norm > gram_cap:
        labels.add(RegionLabel.R3_TRIPLE_PRIME)
    return labels, (dist, grad_norm, spec_norm, gram_norm), (aligned, unique)


def classify_region(
    Y: FactorPoint, gt: GroundTruth, params: RegionParams
) -> set[RegionLabel]:
    """Return every region label whose defining predicate holds at ``Y``.

    The predicates depend on ``Y`` only through the quotient distance to
    the target, the norm of the exact-factorization gradient, the spectral
    norm and the Gram Frobenius norm, so the result is fiber-invariant.
    The returned set is never empty (the five regions cover the manifold).
    Distances below ``1e-12 sigma_r(Y*)`` are treated as exact zeros so that
    fiber points classify into R1 even when ``mu = 0``.
    """
    return _classify(Y, gt, params)[0]


def horizontal_dim(p: int, r: int) -> int:
    """Dimension of the horizontal space: ``p r - r (r - 1) / 2``."""
    return p * r - (r * r - r) // 2


#: largest horizontal dimension at which a dense matrix is still taken from
#: one form call per pair. The benchmark's own tests pin that form count at
#: small sizes; ROADMAP.md item 1 (benchmark upkeep) unpins it, and this cap
#: goes with it
_FORM_MATRIX_CAP = 44

#: largest horizontal dimension for which :func:`horizontal_basis` builds a
#: basis, and so the largest dense Hessian outside the denoising reduction
_BASIS_CAP = 4000

#: bytes of basis lifts ``C(B_k)`` that one ``forward`` call maps while a
#: least-squares Hessian matrix is assembled
_LIFT_BLOCK_BYTES = 32 << 20


def horizontal_basis(Y: FactorPoint) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product) of the horizontal space,
    as a read-only ``(m, p, r)`` array of its ``m = horizontal_dim(p, r)``
    lifts.

    Written down from the SVD ``Y = U diag(sigma) V.T``: the normalized
    ``U diag(1/sigma) (E_ij + E_ji) V.T`` for ``i <= j``, then ``U_perp E``
    over the matrix units ``E``. ``Y.T`` times either is symmetric, and the
    two parts are orthogonal, each within itself and to each other.

    Raises
    ------
    ResourceLimitError
        If the dimension exceeds 4000.
    """
    p, r = Y.p, Y.r
    dim = horizontal_dim(p, r)
    if dim > _BASIS_CAP:
        raise ResourceLimitError(f"horizontal dimension {dim} exceeds the basis cap {_BASIS_CAP}")
    U, sigma, V = Y.svd
    i, j = np.triu_indices(r)
    k = np.arange(len(i))
    # diag(1/sigma) (E_ij + E_ji) over its norm: sigma_j / hypot(sigma_i, sigma_j)
    # at (i, j), sigma_i / hypot(sigma_i, sigma_j) at (j, i), and 1 if i = j
    norm = np.where(i == j, sigma[i], np.hypot(sigma[i], sigma[j]))
    S = np.zeros((len(k), r, r))
    S[k, i, j] = sigma[j] / norm
    S[k, j, i] = sigma[i] / norm
    U_perp = np.linalg.qr(U, mode="complete")[0][:, r:]
    basis = np.zeros((dim, p, r))
    basis[: len(k)] = U @ S @ V.T
    # element (a, b) of the second part is U_perp[:, a] in column b
    b = np.arange(r)
    basis[len(k) :].reshape(p - r, r, p, r)[:, b, :, b] = U_perp.T
    basis.flags.writeable = False
    return basis


def _mapped_gram(Y: FactorPoint, basis: np.ndarray, forward: Callable) -> np.ndarray:
    """``F F.T`` with ``F[k] = forward(C(B_k))`` over the ``(m, p, r)``
    basis ``B``: the matrix of a least-squares Hessian form over the lifts,
    mapped in blocks of at most ``_LIFT_BLOCK_BYTES`` of lifts."""
    m = len(basis)
    step = max(1, _LIFT_BLOCK_BYTES // (8 * Y.p**2))
    F = None
    for i in range(0, m, step):
        block = forward(_lift(Y, basis[i : i + step]))
        if F is None:
            F = np.empty((m, block.shape[-1]))
        F[i : i + step] = block
    return F @ F.T


def _hess_eigvals(basis: np.ndarray, M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The eigenvalues, descending, of ``M + 2 B (R B).T``, the Riemannian
    Hessian over the basis ``B`` when ``M`` is the matrix of the Euclidean
    Hessian form over its lifts and ``R`` the symmetrized gradient."""
    B = basis.reshape(len(basis), -1)
    M += 2.0 * (B @ (R @ basis).reshape(len(basis), -1).T)
    return sym_eigvals(M, asym_tol=1e-6)


def _reduced_extremes(Y: FactorPoint, target: FactorPoint) -> HessianSpectrumEstimate:
    """The spectrum of the denoising objective of ``target`` at ``Y``, with
    ``p > 2 r``, from a problem of size ``2 r``.

    ``R = Y Y.T - Y* Y*.T`` has its range in ``span Q``, ``Q`` the
    ``p x 2r`` Householder factor of ``[Y, Y*]`` (orthonormal even when the
    block is rank deficient). Horizontal vectors whose columns lie in
    ``span Q`` are ``Q a`` with ``a`` horizontal at ``Q.T Y``, and there the
    Hessian is that of the same objective at ``(Q.T Y, Q.T Y*)``; those
    orthogonal to ``span Q`` form an invariant subspace on which it is
    ``theta -> 2 theta Y.T Y``, with eigenvalues ``2 sigma_j(Y)^2``.
    """
    Q = np.linalg.qr(np.hstack([Y.Y, target.Y]))[0]
    Yq = FactorPoint(Q.T @ Y.Y)
    Tq = Q.T @ target.Y
    R = Yq.gram() - Tq @ Tq.T
    if not np.all(np.isfinite(R)):
        raise NumericalFailure("the Euclidean gradient has non-finite entries")
    basis = horizontal_basis(Yq)
    lam = _hess_eigvals(basis, _mapped_gram(Yq, basis, lambda Gs: Gs.reshape(len(Gs), -1)), R)
    lo, hi = 2.0 * Y.sigma_min**2, 2.0 * Y.sigma_max**2
    return HessianSpectrumEstimate(float(min(lam[-1], lo)), float(max(lam[0], hi)), "reduced")


def hess_extreme_eigs(obj: ObjectiveHandle, Y: FactorPoint) -> HessianSpectrumEstimate:
    """Extreme eigenvalues of the Riemannian Hessian on the horizontal space.

    Every path takes the eigenvalues, with no eigenvectors, of a dense
    matrix of the one bilinear form
    ``b(theta1, theta2) = hess f(X)[C(theta1), C(theta2)] + 2 <R theta1, theta2>``
    (``C(theta) = Y theta.T + theta Y.T``, ``R`` the symmetrized gradient)
    over the basis ``B`` of :func:`horizontal_basis`. How that matrix is
    built depends on the handle and on the horizontal dimension
    ``m = horizontal_dim(p, r)``:

    =============  ============================  =======  ==========================================
    handle         dimension                     method   the matrix
    =============  ============================  =======  ==========================================
    any            ``m <= 44``                   dense    ``m (m + 1) / 2`` form calls over ``C(B)``
    denoising      ``m > 44`` and ``p > 2 r``    reduced  the dense matrix at ``(Q.T Y, Q.T Y*)``
    least squares  ``44 < m <= 4000``            dense    ``F F.T``, ``F = forward(C(B))`` in blocks
    custom         ``44 < m <= 4000``, lifts fit dense    ``m (m + 1) / 2`` form calls over ``C(B)``
    =============  ============================  =======  ==========================================

    44 is ``_FORM_MATRIX_CAP`` and 4000 is ``_BASIS_CAP``. Denoising is a
    handle whose :class:`~psdlandscape.objectives.LeastSquaresMap` carries a
    ``target``. Its reduction (:func:`_reduced_extremes`) makes one QR of
    the ``p x 2r`` block ``[Y, Y*]``, no form call and no map sweep, and
    joins the extremes of a matrix of dimension ``2 r^2 - r (r - 1) / 2``
    with ``{2 sigma_j(Y)^2}``; when ``p <= 2 r`` the handle takes the row
    below it. The blocks of ``forward`` hold at most 32 MiB of lifts each,
    so ``k`` lifts per call make ``ceil(m / k)`` calls and no ``images``
    call; the gradient term ``2 B (R B).T`` is added on every dense path.
    The form rows build all ``m`` lifts at once; they fit when their
    ``8 m p^2`` bytes are at most
    :data:`~psdlandscape.objectives.MAX_INSTANCE_BYTES`.

    Raises
    ------
    ResourceLimitError
        Outside the table: above dimension 4000 on every row but the
        reduction, and on the form rows when the lifts do not fit.
    """
    p, r = Y.p, Y.r
    m = horizontal_dim(p, r)
    ls = obj.least_squares
    if ls is not None and m > _FORM_MATRIX_CAP:
        if ls.target is not None and p > 2 * r:
            return _reduced_extremes(Y, ls.target)
        basis = horizontal_basis(Y)
        M = _mapped_gram(Y, basis, ls.forward)
        R = _sym_grad(obj, Y.gram())
    else:
        if 8 * m * p**2 > MAX_INSTANCE_BYTES:
            raise ResourceLimitError(
                f"the {m} lifted basis matrices need {8 * m * p**2} bytes, "
                f"more than {MAX_INSTANCE_BYTES}"
            )
        X = Y.gram()
        R = _sym_grad(obj, X)
        basis = horizontal_basis(Y)
        M = _form_matrix(obj, X, _lift(Y, basis))
    lam = _hess_eigvals(basis, M, R)
    return HessianSpectrumEstimate(float(lam[-1]), float(lam[0]), "dense")


def escape_direction(Y: FactorPoint, gt: GroundTruth) -> HorizontalTangent:
    """The provably descending direction ``Y - Y* Q`` at points of R2.

    ``Q`` is the best orthogonal alignment of the target onto ``Y``; the
    norm of the returned tangent equals the quotient distance to the
    target. When the alignment is not unique the deterministic minimizer
    of the canonicalized SVD is used and a warning is emitted.
    """
    Q, _, unique = _align(Y.Y, gt.Y_star.Y)
    return _escape_tangent(Y, Y.Y - gt.Y_star.Y @ Q, unique)


def _escape_tangent(Y: FactorPoint, aligned: np.ndarray, unique: bool) -> HorizontalTangent:
    """The escape direction from the aligned difference of :func:`_classify`."""
    if not unique:
        warnings.warn(
            "alignment of the target onto Y is not unique; using the "
            "deterministic canonicalized minimizer",
            RuntimeWarning,
            stacklevel=3,
        )
    return HorizontalTangent(aligned, Y)


def compute_thresholds(
    gt: GroundTruth, params: RegionParams, r: int, delta: float = 0.0
) -> ThresholdReport:
    """Evaluate every certified-bound quantity for the given target.

    ``r`` must be the target's rank ``gt.Y_star.r``. ``delta >= 0`` is the
    restricted convexity/smoothness constant substituted into the
    general-objective bounds; zero reproduces the exact-factorization forms.

    Raises
    ------
    HypothesisViolationError
        If ``(1 - mu/kappa*)^2 - 7 mu / 3 <= 0``, which voids the local
        strong-convexity bracket, or if a formula overflows or divides by zero.
    """
    if r != gt.Y_star.r:
        raise InputContractError(f"r must be the rank of the target, {gt.Y_star.r}, got {r}")
    if not 0.0 <= delta < np.inf:
        raise InputContractError(f"delta must be finite and >= 0, got {delta}")
    mu, alpha, beta, gamma = params.mu, params.alpha, params.beta, params.gamma
    kap = gt.kappa_star
    s1, sr = gt.sigma1_star, gt.sigmar_star
    xnorm = gt.X_star_norm
    noise = gt.grad_at_star_trunc

    margin = _margin(gt, mu)

    try:
        top = s1 + _r1_radius(gt, mu)
        correction = 4.0 * delta * top**2 + 14.0 * delta * mu * sr**2 / 3.0 + 2.0 * noise
        r1_lower = 2.0 * margin * sr**2 - correction
        r1_upper = 4.0 * top**2 + 14.0 * mu * sr**2 / 3.0 + correction

        r2_upper = (
            (alpha - SQRT2M1_TIMES_2) * sr**2
            + 2.0 * delta * (2.0 * beta**2 * s1**2 + (1.0 + gamma) * xnorm)
            + 2.0 * noise
        )

        r3_lowers = (
            alpha * mu * sr**3 / (8.0 * kap),
            (beta**3 - beta) * s1**3,
            (gamma - 1.0) * np.sqrt(gamma) * xnorm**1.5 / np.sqrt(r),
        )

        delta_min = min(
            alpha * mu * sr**2 / (32.0 * kap**2 * beta * (1.0 + gamma) * xnorm),
            (beta**2 - 1.0) * s1**2 / (4.0 * (1.0 + gamma) * xnorm),
            (gamma - 1.0) / (4.0 * (gamma + 1.0)),
        )
        psi = min(
            alpha * mu * sr**2 / (32.0 * kap**2 * beta),
            (beta**2 - 1.0) * s1**2 / 4.0,
            (gamma - 1.0) * xnorm / 4.0,
        )

        delta_composite = min(
            margin / (4.0 * (2.0 * (kap + mu / kap) ** 2 + 7.0 * mu / 3.0)),
            (SQRT2M1_TIMES_2 - alpha) * sr**2
            / (8.0 * (2.0 * beta**2 * s1**2 + (1.0 + gamma) * xnorm)),
            delta_min,
        )
        noise_composite = min(
            margin * sr**2 / 4.0,
            (SQRT2M1_TIMES_2 - alpha) * sr**2 / 8.0,
            psi,
        )
    except (OverflowError, ZeroDivisionError):
        raise HypothesisViolationError(
            f"the threshold formulas leave the floating-point range for {params}, "
            f"sigma_1* = {s1:.6g} and sigma_r* = {sr:.6g}"
        ) from None

    return ThresholdReport(
        delta_min=float(delta_min),
        psi=float(psi),
        r1_hess_lower=float(r1_lower),
        r1_hess_upper=float(r1_upper),
        r2_curvature_upper=float(r2_upper),
        r3_grad_lowers=tuple(float(v) for v in r3_lowers),
        delta_composite_bound=float(delta_composite),
        noise_composite_bound=float(noise_composite),
        delta_used=float(delta),
        noise_at_target=float(noise),
    )


# ---------------------------------------------------------------------------
# Point samplers
# ---------------------------------------------------------------------------

SAMPLERS = ("ball", "fiber", "scaled", "gaussian")


def random_ball_tangent(
    base: FactorPoint, radius: float, rng: np.random.Generator
) -> HorizontalTangent:
    """Horizontal direction with norm distributed as uniform-in-ball."""
    if not 0.0 <= radius < np.inf:
        raise InputContractError(f"radius must be finite and >= 0, got {radius}")
    dim = horizontal_dim(base.p, base.r)
    Z = rng.standard_normal(base.Y.shape)
    theta = Z - vertical_project(base, Z)
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:  # pragma: no cover - measure zero
        theta, norm = base.Y, float(np.linalg.norm(base.Y))
    scale = radius * rng.uniform() ** (1.0 / dim)
    return HorizontalTangent(theta * (scale / norm), base)


def _sample_point(
    name: str,
    gt: GroundTruth,
    params: RegionParams,
    rng: np.random.Generator,
    ball_radius: float,
) -> FactorPoint:
    Ys = gt.Y_star
    if name == "ball":
        theta = random_ball_tangent(Ys, ball_radius, rng)
        return FactorPoint(Ys.Y + theta.theta)
    if name == "fiber":
        theta = random_ball_tangent(Ys, ball_radius, rng)
        O = random_orthonormal(Ys.r, Ys.r, rng)
        return FactorPoint((Ys.Y + theta.theta) @ O)
    if name == "scaled":
        c = np.sqrt(params.gamma) * (1.1 + 1.4 * rng.uniform())
        return FactorPoint(c * Ys.Y)
    if name == "gaussian":
        scale = gt.sigma1_star / np.sqrt(Ys.p)
        for _ in range(100):
            cand = scale * rng.standard_normal(Ys.Y.shape)
            try:
                return FactorPoint(cand)
            except InputContractError:
                continue
        raise NumericalFailure("could not draw a full-rank Gaussian factor")
    raise InputContractError(f"unknown sampler {name!r}")


# ---------------------------------------------------------------------------
# Certification driver
# ---------------------------------------------------------------------------


def _certify_point(
    point_id: int,
    Y: FactorPoint,
    obj: ObjectiveHandle,
    gt: GroundTruth,
    params: RegionParams,
    thresholds: ThresholdReport,
) -> RegionReport:
    labels, (d, grad_H, spec_norm, gram_norm), escape = _classify(Y, gt, params)
    R = _sym_grad(obj, Y.gram())
    with np.errstate(over="ignore"):  # an overflowing norm fails the row
        grad_h = float(np.linalg.norm(2.0 * (R @ Y.Y)))

    tol_curv = 1e-8 * gt.sigmar_star**2
    tol_grad = 1e-8 * gt.sigmar_star**3

    checks: list[tuple[float, float, bool]] = []  # (bound, margin, ok)
    lam_min = np.nan
    lam_max = np.nan

    if RegionLabel.R1 in labels:
        est = hess_extreme_eigs(obj, Y)
        lam_min, lam_max = est.lambda_min, est.lambda_max
        m_lo = lam_min - (thresholds.r1_hess_lower - tol_curv)
        m_hi = (thresholds.r1_hess_upper + tol_curv) - lam_max
        checks.append((thresholds.r1_hess_lower, m_lo, m_lo >= 0.0))
        checks.append((thresholds.r1_hess_upper, m_hi, m_hi >= 0.0))

    if RegionLabel.R2 in labels:
        theta = _escape_tangent(Y, *escape)
        quad = _hess_quad(obj, Y, R, theta.theta) / theta.norm**2
        m = (thresholds.r2_curvature_upper + tol_curv) - quad
        checks.append((thresholds.r2_curvature_upper, m, m >= 0.0))

    # gradient floors in their pointwise form, corrected by the restricted
    # convexity constant and the noise at the target; with both zero these
    # are the sharp exact-factorization floors
    delta = thresholds.delta_used
    noise = thresholds.noise_at_target
    beta, gamma = params.beta, params.gamma
    s1, xnorm = gt.sigma1_star, gt.X_star_norm
    rr = Y.r
    floors = {
        RegionLabel.R3_PRIME: _grad_threshold(gt, params)
        - 2.0 * delta * beta * (1.0 + gamma) * s1 * xnorm
        - 2.0 * beta * s1 * noise,
        RegionLabel.R3_DOUBLE_PRIME: 2.0 * (spec_norm**3 - spec_norm * s1**2)
        - 2.0 * delta * (1.0 + gamma) * spec_norm * xnorm
        - 2.0 * spec_norm * noise,
        RegionLabel.R3_TRIPLE_PRIME: (
            2.0 * (1.0 - 1.0 / gamma) - 2.0 * delta * (1.0 + 1.0 / gamma)
        )
        * gram_norm**1.5
        / np.sqrt(rr)
        - 2.0 * gram_norm**0.5 * noise / np.sqrt(rr),
    }
    for label, floor in floors.items():
        if label in labels:
            m = grad_h - (floor - tol_grad)
            checks.append((floor, m, m >= 0.0))

    if not checks:  # pragma: no cover - labels are never empty
        raise NumericalFailure("point received no region label")

    worst = min(range(len(checks)), key=lambda i: checks[i][1])
    bound_value, margin, _ = checks[worst]
    passed = all(ok for _, _, ok in checks)
    spectrum = (lam_min, lam_max) if RegionLabel.R1 in labels else ()
    if not all(map(math.isfinite, (d, grad_H, grad_h, bound_value, *spectrum))):
        # a quantity that overflowed certifies nothing
        margin, passed = np.nan, False
    return RegionReport(
        point_id=point_id,
        region_labels=tuple(sorted(labels, key=lambda lb: lb.value)),
        dist_to_star=float(d),
        grad_H_norm=grad_H,
        grad_h_norm=float(grad_h),
        lambda_min=float(lam_min),
        lambda_max=float(lam_max),
        bound_value=float(bound_value),
        margin=float(margin),
        passed=bool(passed),
    )


def certify_landscape(
    obj: ObjectiveHandle,
    gt: GroundTruth,
    params: RegionParams,
    samplers: Sequence[str],
    n_points: int,
    seed: int,
    thresholds: ThresholdReport | None = None,
    ball_radius: float | None = None,
) -> list[RegionReport]:
    """Sample points, classify them and check every applicable bound.

    Points are drawn by cycling through ``samplers``, names from
    :data:`SAMPLERS`; the ball radius, at least 0, defaults to the R1
    radius ``mu sigma_r(Y*) / kappa*``. The bounds are those of ``thresholds``,
    by default :func:`compute_thresholds` of ``(gt, params)`` at
    ``delta = 0``. Point ``i`` draws from ``SeedSequence(seed, spawn_key=(0,
    i))``, a stream of its own (see :func:`~psdlandscape.kernels._stream`),
    so a longer scan extends a shorter one row for row, and no point reuses
    the draw of a target built from the same seed.
    """
    _check_int(n_points, "n_points", 1)
    _check_int(seed, "seed", 0)
    if not samplers or not set(samplers) <= set(SAMPLERS):
        raise InputContractError(f"samplers must be names from {SAMPLERS}, got {list(samplers)}")
    if thresholds is None:
        thresholds = compute_thresholds(gt, params, gt.Y_star.r)
    if ball_radius is None:
        ball_radius = _r1_radius(gt, params.mu)
    elif not ball_radius >= 0.0:
        raise InputContractError(f"ball_radius must be >= 0, got {ball_radius}")
    if ball_radius == 0.0 and any(s in ("ball", "fiber") for s in samplers):
        warnings.warn(
            "ball radius is zero (mu = 0): ball/fiber samples collapse onto "
            "the target fiber and the scan degenerates",
            RuntimeWarning,
            stacklevel=2,
        )

    reports = []
    for i in range(n_points):
        rng = _stream(seed, _SCAN_POINT, i)
        Y = _sample_point(samplers[i % len(samplers)], gt, params, rng, ball_radius)
        reports.append(_certify_point(i, Y, obj, gt, params, thresholds))
    return reports


def strict_convexity_fosp_check(
    obj: ObjectiveHandle,
    Y_hat: FactorPoint,
    fosp_tol: float | None = None,
) -> HessianSpectrumEstimate:
    """Horizontal Hessian spectrum at a first-order stationary point.

    The testable consequence of restricted strict convexity is that the
    spectrum is positive semidefinite at the stationary point (strictly
    positive when the strict-convexity probe passes).

    Raises
    ------
    NotAFOSPError
        If the gradient norm exceeds ``fosp_tol``
        (default ``1e-8 * sigma_r(Y_hat)^3``).
    """
    _check_stationary(obj, Y_hat, 1e-8 * Y_hat.sigma_min**3 if fosp_tol is None else fosp_tol)
    return hess_extreme_eigs(obj, Y_hat)


@dataclass(frozen=True)
class ErrorBoundResult:
    """Outcome of the stationary-point distance bound check."""

    lhs: float
    rhs: float
    rhs_mid: float
    holds: bool
    holds_mid: bool


def error_bound_check(
    Y_hat: FactorPoint,
    gt: GroundTruth,
    mu: float,
    obj: ObjectiveHandle,
    fosp_tol: float | None = None,
) -> ErrorBoundResult:
    """Check the certified distance bound at a stationary point in R1.

    ``lhs`` is the quotient distance from the stationary point to the
    target; ``rhs`` is
    ``2 ||Y*|| ||(grad f(X*))_max(r)||_F / (((1-mu/k)^2 - 7mu/3) sigma_r^2)``
    and ``rhs_mid`` the tighter intermediate bound with
    ``||grad f(X*) Y*||_F`` in the numerator; both read the gradient at
    ``X*`` from ``gt``, and ``obj`` only tests that ``Y_hat`` is
    stationary. ``holds`` compares with an absolute slack of
    ``1e-7 sigma_r(Y*)`` because the noiseless rhs is exactly zero while a
    numerically converged point sits at a tiny positive distance.
    """
    sr = gt.sigmar_star
    denom = _margin(gt, mu) * sr**2
    _check_stationary(obj, Y_hat, 1e-6 * sr**3 if fosp_tol is None else fosp_tol)
    lhs = quotient_distance(Y_hat, gt.Y_star)
    r1_radius = _r1_radius(gt, mu)
    if lhs > r1_radius * (1.0 + 1e-9):
        raise InputContractError(
            f"stationary point lies outside R1: distance {lhs:.3e} > {r1_radius:.3e}"
        )
    rhs = 2.0 * gt.sigma1_star * gt.grad_at_star_trunc / denom
    rhs_mid = 2.0 * gt.grad_at_star_along_factor / denom
    slack = 1e-7 * sr
    return ErrorBoundResult(
        lhs=float(lhs),
        rhs=float(rhs),
        rhs_mid=float(rhs_mid),
        holds=bool(lhs <= rhs + slack),
        holds_mid=bool(lhs <= rhs_mid + slack),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = (
    "point_id,region_labels,dist_to_star,grad_H_norm,grad_h_norm,"
    "lambda_min,lambda_max,bound_value,margin,pass"
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def reports_to_csv(reports: Iterable[RegionReport]) -> str:
    """Render reports as CSV with the fixed header; floats round-trip exactly."""
    lines = [CSV_HEADER]
    for rep in reports:
        labels = ";".join(lb.value for lb in rep.region_labels)
        status = "true" if rep.passed else "false"
        lines.append(
            ",".join(
                [
                    str(rep.point_id),
                    labels,
                    _fmt(rep.dist_to_star),
                    _fmt(rep.grad_H_norm),
                    _fmt(rep.grad_h_norm),
                    _fmt(rep.lambda_min),
                    _fmt(rep.lambda_max),
                    _fmt(rep.bound_value),
                    _fmt(rep.margin),
                    status,
                ]
            )
        )
    return "\n".join(lines) + "\n"

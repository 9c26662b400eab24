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

import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    HypothesisViolationError,
    InputContractError,
    LandscapeError,
    NotAFOSPError,
    NumericalFailure,
    ResourceLimitError,
)
from .geometry import (
    FactorPoint,
    HorizontalTangent,
    _check_horizontal,
    _check_rank,
    _factor_points,
    quotient_distance,
    vertical_project,
)
from .kernels import (
    _SCAN_POINT,
    SvdResult,
    _align,
    _check_int,
    _frob_norms,
    _scaled,
    _stream,
    _thin_svd,
    check_matrix,
    sym_eigvals,
)
from .objectives import (
    MAX_INSTANCE_BYTES,
    GroundTruth,
    ObjectiveHandle,
    _form_matrix,
    _hess_quad,
    _lift,
    _orthonormal,
    _sym_grad,
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


def _check_stationary(
    obj: ObjectiveHandle, Y: FactorPoint, fosp_tol: float, grad: np.ndarray | None = None
) -> np.ndarray:
    """The symmetrized gradient ``R`` at ``Y`` (``grad`` when given);
    raise :class:`NotAFOSPError` if the gradient norm ``||2 R Y||_F``
    exceeds ``fosp_tol``, which must be at least 0."""
    if not fosp_tol >= 0.0:
        raise InputContractError(f"fosp_tol must be >= 0, got {fosp_tol}")
    R = _sym_grad(obj, Y.gram()) if grad is None else grad
    gnorm = float(np.linalg.norm(2.0 * (R @ Y.Y)))
    if gnorm > fosp_tol:
        raise NotAFOSPError(gnorm, fosp_tol)
    return R


class _Classes(NamedTuple):
    """The labels of :func:`classify_region` at each point of a stack of
    ``k``, as the ``(k, 5)`` mask ``member`` over :class:`RegionLabel` in its
    order, and what they were read from: the quotient distance to the
    target, the norm of the exact-factorization gradient, the spectral norm
    and the Gram norm; and the aligned difference ``Y - Y* Q``, whose norm is
    that distance, with whether the alignment ``Q`` of the target onto ``Y``
    is unique."""

    member: np.ndarray
    dist: np.ndarray
    grad_norm: np.ndarray
    spec_norm: np.ndarray
    gram_norm: np.ndarray
    aligned: np.ndarray
    unique: np.ndarray

    def labels(self) -> list[tuple[RegionLabel, ...]]:
        """The labels of each point, in the order of their values."""
        return [_LABEL_SETS[code] for code in (self.member @ (1 << np.arange(5))).tolist()]


#: the labels of each of the 32 masks over :class:`RegionLabel`, by the
#: mask's bits, ``R1`` the lowest
_LABEL_SETS = [tuple(label for b, label in enumerate(RegionLabel) if code >> b & 1) for code in range(32)]


def _factor_grads(Ys: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``R Y = Y (Y.T Y) - T (T.T Y)`` for each factor ``Y`` of the stack
    ``Ys``, with ``R = Y Y.T - T T.T`` the gradient of ``0.5 ||Y Y.T - T
    T.T||_F^2``, in ``p x r`` arrays only."""
    return Ys @ (Ys.swapaxes(-1, -2) @ Ys) - T @ (T.T @ Ys)


def _classify(points: Sequence[FactorPoint], gt: GroundTruth, params: RegionParams) -> _Classes:
    """The labels of :func:`classify_region` at each of ``points`` and what
    they were read from (see :class:`_Classes`), over the stack of all
    points at once and with no ``p x p`` array: the exact-factorization
    gradient is ``2 R Y`` in the factor form of :func:`_factor_grads` and
    ``||Y Y.T||_F = ||Y.T Y||_F``. Every norm is taken in units of a power
    of two near the largest entry of its array
    (:func:`~psdlandscape.kernels._frob_norms`), so a norm is finite
    wherever its value is, and one that overflows fails its row."""
    Ys, T = np.stack([Y.Y for Y in points]), gt.Y_star.Y
    Q, _, unique = _align(Ys, T)
    aligned = Ys - T @ Q
    with np.errstate(over="ignore", invalid="ignore"):
        dist = _frob_norms(aligned)
        grad_norm = 2.0 * _frob_norms(_factor_grads(Ys, T))
        gram_norm = _frob_norms(Ys.swapaxes(-1, -2) @ Ys)
    spec_norm = np.array([Y.sigma_max for Y in points])

    d = np.where(dist <= 1e-12 * gt.sigmar_star, 0.0, dist)
    r1_radius = _r1_radius(gt, params.mu)
    grad_thresh = _grad_threshold(gt, params)
    spec_cap = params.beta * gt.sigma1_star
    gram_cap = params.gamma * gt.X_star_norm
    in_box = (spec_norm <= spec_cap) & (gram_norm <= gram_cap)
    member = np.stack(
        [
            d <= r1_radius,
            (d > r1_radius) & (grad_norm <= grad_thresh) & in_box,
            (grad_norm > grad_thresh) & in_box,
            (spec_norm > spec_cap) & (gram_norm <= gram_cap),
            gram_norm > gram_cap,
        ],
        axis=-1,
    )
    return _Classes(member, dist, grad_norm, spec_norm, gram_norm, aligned, unique)


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
    return set(_classify([Y], gt, params).labels()[0])


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

#: bytes of one stack: the ``p x p`` lifts that one ``forward`` call maps,
#: the bases, gradients and matrices of the Hessian spectra taken together,
#: and the Gram matrices of the points a scan certifies together
_BLOCK_BYTES = 32 << 20


def _point_list(Y: FactorPoint | Sequence[FactorPoint]) -> list[FactorPoint]:
    """``[Y]`` for one point, else the list ``Y`` of points of one shape."""
    points = [Y] if isinstance(Y, FactorPoint) else list(Y)
    shapes = {Z.Y.shape if isinstance(Z, FactorPoint) else None for Z in points}
    if len(shapes) != 1 or None in shapes:
        raise InputContractError(f"need one or more FactorPoints of one shape, got {sorted(map(str, shapes))}")
    return points


@lru_cache(maxsize=64)
def _pairs(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``i <= j`` of ``range(r)``, row by row, and their count's range."""
    i, j = np.triu_indices(r)
    pairs = (i, j, np.arange(len(i)))
    for a in pairs:
        a.flags.writeable = False  # shared by every caller of the cache
    return pairs


def horizontal_basis(Y: FactorPoint | Sequence[FactorPoint]) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product) of the horizontal space,
    as a read-only ``(m, p, r)`` array of its ``m = horizontal_dim(p, r)``
    lifts; for a list of ``k`` points of one shape, the ``(k, m, p, r)``
    stack of their bases, from stacked calls whose row ``j`` equals, bit for
    bit, the basis of point ``j`` on its own.

    Written down from the SVD ``Y = U diag(sigma) V.T``: the normalized
    ``U diag(1/sigma) (E_ij + E_ji) V.T`` for ``i <= j``, then ``U_perp E``
    over the matrix units ``E``. ``Y.T`` times either is symmetric, and the
    two parts are orthogonal, each within itself and to each other.

    Raises
    ------
    InputContractError
        If the list is empty or its points are not all of one shape.
    ResourceLimitError
        If the dimension exceeds 4000.
    """
    points = _point_list(Y)
    basis = _bases(*(_stack_of(part) for part in zip(*(point.svd for point in points))))
    basis.flags.writeable = False
    return basis if isinstance(Y, FactorPoint) else basis.reshape(len(points), *basis.shape[-3:])


def _stack_of(values: Sequence[np.ndarray]) -> np.ndarray:
    """The stack of ``values``, one per point; a lone point's value as it
    is, with no leading axis, so that a lone point pays for no stack."""
    return values[0] if len(values) == 1 else np.stack(values)


def _bases(U: np.ndarray, sigma: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The bases of :func:`horizontal_basis` from the thin SVDs ``U diag(sigma)
    V.T`` of points of one shape, with any leading axes; a stack's rows equal,
    bit for bit, those of each point's SVD on its own."""
    *lead, p, r = U.shape
    dim = horizontal_dim(p, r)
    if dim > _BASIS_CAP:
        raise ResourceLimitError(f"horizontal dimension {dim} exceeds the basis cap {_BASIS_CAP}")
    i, j, k = _pairs(r)
    # diag(1/sigma) (E_ij + E_ji) over its norm: sigma_j / hypot(sigma_i, sigma_j)
    # at (i, j), sigma_i / hypot(sigma_i, sigma_j) at (j, i), and 1 if i = j
    norm = np.where(i == j, sigma[..., i], np.hypot(sigma[..., i], sigma[..., j]))
    S = np.zeros((*lead, len(k), r, r))
    S[..., k, i, j] = sigma[..., j] / norm
    S[..., k, j, i] = sigma[..., i] / norm
    U_perp = np.linalg.qr(U, mode="complete")[0][..., r:]
    basis = np.zeros((*lead, dim, p, r))
    basis[..., : len(k), :, :] = U[..., None, :, :] @ S @ V[..., None, :, :].swapaxes(-1, -2)
    # element (a, b) of the second part is U_perp[:, a] in column b
    b = np.arange(r)
    basis[..., len(k) :, :, :].reshape(*lead, p - r, r, p, r)[..., b, :, b] = U_perp.swapaxes(-1, -2)
    return basis


def _hess_extremes(
    svd: SvdResult,
    gradients: Callable[[int | slice], np.ndarray],
    matrices: Callable[[int | slice, np.ndarray], np.ndarray],
    lifted: int = 0,
) -> list[tuple[float, float]]:
    """The least and greatest eigenvalues of ``M + 2 B (R B).T`` at each of
    ``k`` factors of shape ``p x r``, with ``B`` the basis of
    :func:`horizontal_basis` from their stacked thin SVDs ``svd`` (``svd.U``
    of shape ``(k, p, r)``), ``R = gradients(part)`` the symmetrized gradient and ``M =
    matrices(part, B)`` the Euclidean form's matrix over the lifts ``C(B)``,
    for each ``part`` of the factors: a slice, or the index of a lone
    factor, whose arrays then have no leading axis, so that it pays for no
    stack. A part holds its bases, gradients and matrices, and the
    ``lifted`` entries per factor that ``matrices`` holds at once, at most
    ``_BLOCK_BYTES`` and one factor at least."""
    k, p, r = svd.U.shape
    m = horizontal_dim(p, r)
    step = max(1, _BLOCK_BYTES // (8 * (m * (p * r + m) + p * p + lifted)))
    extremes = []
    for start in range(0, k, step):
        part = start if min(step, k - start) == 1 else slice(start, start + step)
        basis = _bases(svd.U[part], svd.sigma[part], svd.V[part])
        R = gradients(part)
        M = matrices(part, basis)
        B = basis.reshape(*basis.shape[:-2], -1)
        M += 2.0 * (B @ (R[..., None, :, :] @ basis).reshape(B.shape).swapaxes(-1, -2))
        lam = sym_eigvals(M, asym_tol=1e-6)
        extremes.extend(zip(lam[..., -1].ravel().tolist(), lam[..., 0].ravel().tolist()))
    return extremes


def _flat_matrices(Ys: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``F F.T`` with ``F`` the flattened lifts ``C(B)`` of each factor of
    ``Ys`` over its basis ``B``, the form matrices of ``0.5 ||X - T||_F^2``,
    in one product."""
    F = _lift(Ys[..., None, :, :], bases).reshape(*bases.shape[:-2], -1)
    return F @ F.swapaxes(-1, -2)


def _map_matrix(forward: Callable[[np.ndarray], np.ndarray], Y: FactorPoint, basis: np.ndarray) -> np.ndarray:
    """``F F.T`` with ``F[a] = forward(C(B_a))``, the form matrix of
    ``0.5 ||A(X) - y||^2`` over the lifts for the map ``forward``, which
    maps at most ``_BLOCK_BYTES`` of lifts per call."""
    block = max(1, _BLOCK_BYTES // (8 * Y.p**2))
    F = None
    for i in range(0, len(basis), block):
        rows = forward(_lift(Y, basis[i : i + block]))
        if F is None:
            F = np.empty((len(basis), rows.shape[-1]))
        F[i : i + block] = rows
    return F @ F.T


def _builder(obj: ObjectiveHandle, p: int, r: int) -> str:
    """The builder of the Hessian matrix of spectra at ``p x r`` points (see
    :func:`hess_extreme_eigs`): ``"form"``, ``"mapped"`` or ``"reduced"``."""
    ls = obj.least_squares
    if ls is None or horizontal_dim(p, r) <= _FORM_MATRIX_CAP:
        return "form"
    return "mapped" if ls.target is None or p <= 2 * r else "reduced"


def hess_extreme_eigs(
    obj: ObjectiveHandle,
    Y: FactorPoint | Sequence[FactorPoint],
    grad: np.ndarray | Sequence[np.ndarray | None] | None = None,
) -> HessianSpectrumEstimate | list[HessianSpectrumEstimate]:
    """Extreme eigenvalues of the Riemannian Hessian on the horizontal space.

    They are those of the dense matrix ``M + 2 B (R B).T`` over the basis
    ``B`` of :func:`horizontal_basis`, with ``R`` the symmetrized gradient and
    ``M`` the Euclidean Hessian form's matrix over the lifts
    ``C(B) = Y B.T + B Y.T``, taken with no eigenvectors. Only the builder of
    ``M`` depends on the handle and on ``m = horizontal_dim(p, r)``:

    ==================  =======  ===============================================
    builder of ``M``    method   taken by
    ==================  =======  ===============================================
    form pairs          dense    every handle at ``m <= 44``; custom ones above
    the map's rows      dense    any other least-squares handle
    flat reduced lifts  reduced  denoising at ``m > 44`` and ``p > 2 r``
    ==================  =======  ===============================================

    Form pairs make ``m (m + 1) / 2`` form calls over all ``m`` lifts, whose
    ``8 m p^2`` bytes must fit in ``MAX_INSTANCE_BYTES``. The map's rows are
    ``F = forward(C(B))``, in blocks of 32 MiB of lifts, and ``M = F F.T``.
    Denoising (a :class:`~psdlandscape.objectives.LeastSquaresMap` with a
    ``target``) is reduced by one QR of ``[Y, Y*]`` to points ``Q.T Y`` of
    dimension ``2 r^2 - r (r - 1) / 2``, whose extremes are joined with
    ``{2 sigma_j(Y)^2}``; it makes no form call and no map sweep.

    ``grad``, the handle's ``R`` at ``Y`` as ``_sym_grad`` returns it, spares
    its evaluation. ``Y`` may be a list of points of one shape, ``grad`` then
    ``None`` or one ``None`` or ``R`` per point, for the list of their
    estimates, each equal bit for bit to that of its point alone.

    Raises
    ------
    InputContractError
        If the points are not ``p x r`` points of one shape with ``p`` the
        handle's, or ``grad`` is not ``None`` or ``p x p`` per point.
    ResourceLimitError
        Above dimension 4000 on every builder but the reduction, and on form
        pairs whose lifts do not fit.
    """
    single = isinstance(Y, FactorPoint)
    points = _point_list(Y)
    p, r = points[0].p, points[0].r
    grads = [grad] if single else [None] * len(points) if grad is None else list(grad)
    if p != obj.p:
        raise InputContractError(f"the handle is on {obj.p} x {obj.p} matrices, but the points are {p} x {r}")
    if len(grads) != len(points) or any(R is not None and np.shape(R) != (p, p) for R in grads):
        raise InputContractError(f"grad must hold None or a {p} x {p} array for each of {len(points)} points")

    ls, m, builder = obj.least_squares, horizontal_dim(p, r), _builder(obj, p, r)
    if builder != "reduced":
        if builder == "form" and 8 * m * p**2 > MAX_INSTANCE_BYTES:
            raise ResourceLimitError(
                f"the {m} lifted basis matrices need {8 * m * p**2} bytes, "
                f"more than {MAX_INSTANCE_BYTES}"
            )

        def indices(part: int | slice) -> list[int]:
            picked = range(len(points))[part]
            return [picked] if isinstance(picked, int) else list(picked)

        def gradients(part: int | slice) -> np.ndarray:
            given = [(points[j], grads[j]) for j in indices(part)]
            return _stack_of([_sym_grad(obj, Y.gram()) if G is None else G for Y, G in given])

        def matrices(part: int | slice, bases: np.ndarray) -> np.ndarray:
            # each point's matrix on its own, so that its lifts and the rows
            # of the map live only while it is built
            if builder == "form":
                build = lambda Y, B: _form_matrix(obj, Y.gram(), _lift(Y, B))  # noqa: E731
            else:
                build = lambda Y, B: _map_matrix(ls.forward, Y, B)  # noqa: E731
            return _stack_of([build(points[j], B) for j, B in zip(indices(part), bases.reshape(-1, m, p, r))])

        svd = SvdResult(*(np.stack(a) for a in zip(*(Z.svd for Z in points))))
        extremes = _hess_extremes(svd, gradients, matrices)
    else:
        # R = Y Y.T - Y* Y*.T has its range in span Q, Q the Householder factor
        # of [Y, Y*] (orthonormal even if that is rank deficient). The Hessian
        # on Q a, a horizontal at Q.T Y, is that at (Q.T Y, Q.T Y*); on the
        # invariant complement its eigenvalues are 2 sigma_j(Y)^2
        Ys, q = _stack_of([Z.Y for Z in points]), 2 * r
        Qt = np.linalg.qr(np.concatenate([Ys, np.broadcast_to(ls.target.Y, Ys.shape)], axis=-1))[0].swapaxes(-1, -2)
        Yq = check_matrix((Qt @ Ys).reshape(-1, q, r), "factor", stack=True)
        Tq = (Qt @ ls.target.Y).reshape(Yq.shape)
        svd = _thin_svd(Yq)
        for sigma_max, sigma_min in svd.sigma[:, [0, -1]].tolist():
            _check_rank(sigma_max, sigma_min)
        R = Yq @ Yq.swapaxes(-1, -2) - Tq @ Tq.swapaxes(-1, -2)
        if not np.isfinite(R).all():
            raise NumericalFailure("the Euclidean gradient has non-finite entries")
        flat = lambda part, bases: _flat_matrices(Yq[part], bases)  # noqa: E731
        reduced = _hess_extremes(svd, R.__getitem__, flat, horizontal_dim(q, r) * q * q)
        extremes = [
            (min(lo, 2.0 * Z.sigma_min**2), max(hi, 2.0 * Z.sigma_max**2)) for (lo, hi), Z in zip(reduced, points)
        ]
    method = "reduced" if builder == "reduced" else "dense"
    estimates = [HessianSpectrumEstimate(lo, hi, method) for lo, hi in extremes]
    return estimates[0] if single else estimates


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
    Z = rng.standard_normal(base.Y.shape)
    return HorizontalTangent(_ball_tangents(base, radius, Z, rng.uniform()), base)


def _ball_tangents(base: FactorPoint, radius: float, Z: np.ndarray, u) -> np.ndarray:
    """The tangents of :func:`random_ball_tangent` at ``base`` from their
    draws, not yet checked horizontal: ``Z`` is one ``p x r`` normal draw,
    or a ``(k, p, r)`` stack of them, and ``u`` the uniform draw of each (a
    float, or a list of ``k``). Each is the horizontal part of its ``Z``
    scaled to the norm ``radius u^(1 / dim)``."""
    if not 0.0 <= radius < np.inf:
        raise InputContractError(f"radius must be finite and >= 0, got {radius}")
    power = 1.0 / horizontal_dim(base.p, base.r)
    theta = Z - vertical_project(base, Z)
    scales = []
    for t, ui in zip(theta.reshape(-1, *base.Y.shape), u if theta.ndim == 3 else [u]):
        norm = float(np.linalg.norm(t))
        if norm == 0.0:  # pragma: no cover - measure zero
            t[...], norm = base.Y, float(np.linalg.norm(base.Y))
        scales.append(radius * ui**power / norm)
    return theta * (np.array(scales)[:, None, None] if theta.ndim == 3 else scales[0])


def _sampled_factors(
    name: str,
    gt: GroundTruth,
    params: RegionParams,
    rngs: Sequence[np.random.Generator],
    ball_radius: float,
) -> np.ndarray:
    """The ``(k, p, r)`` stack of the factors that sampler ``name`` draws, one
    from each of ``rngs``; a Gaussian factor is its first candidate."""
    Ys = gt.Y_star
    if name in ("ball", "fiber"):
        draws = [(rng.standard_normal(Ys.Y.shape), rng.uniform()) for rng in rngs]
        Z, u = np.stack([Z for Z, _ in draws]), [u for _, u in draws]
        theta = _ball_tangents(Ys, ball_radius, Z, u)
        _check_horizontal(Ys, theta)
        if name == "ball":
            return Ys.Y + theta
        O = _orthonormal(np.stack([rng.standard_normal((Ys.r, Ys.r)) for rng in rngs]))
        return (Ys.Y + theta) @ O
    if name == "scaled":
        c = [np.sqrt(params.gamma) * (1.1 + 1.4 * rng.uniform()) for rng in rngs]
        return np.array(c)[:, None, None] * Ys.Y
    if name == "gaussian":
        scale = gt.sigma1_star / np.sqrt(Ys.p)
        return scale * np.stack([rng.standard_normal(Ys.Y.shape) for rng in rngs])
    raise InputContractError(f"unknown sampler {name!r}")


def _sample_points(
    names: Sequence[str],
    gt: GroundTruth,
    params: RegionParams,
    rngs: Sequence[np.random.Generator],
    ball_radius: float,
) -> list:
    """Point ``i`` drawn by sampler ``names[i]`` from ``rngs[i]``, each
    sampler's points at once and every point from one stacked SVD (see
    :func:`~psdlandscape.geometry._factor_points`). A Gaussian candidate
    that is not a full-rank factor is redrawn from its own stream, up to
    100 draws in all. A point that cannot be drawn is, in its place, the
    :class:`~psdlandscape.errors.LandscapeError` that says why; an error of
    a whole sampler's stack is raised."""
    Ys = np.empty((len(names), *gt.Y_star.Y.shape))
    for name in dict.fromkeys(names):
        idx = [i for i, n in enumerate(names) if n == name]
        Ys[idx] = _sampled_factors(name, gt, params, [rngs[i] for i in idx], ball_radius)
    points = _factor_points(Ys)
    for i in [i for i, name in enumerate(names) if name == "gaussian"]:
        for _ in range(99):  # the stack took the first of 100 draws
            if isinstance(points[i], FactorPoint):
                break
            redraw = _sampled_factors("gaussian", gt, params, [rngs[i]], ball_radius)
            (points[i],) = _factor_points(redraw)
        if not isinstance(points[i], FactorPoint):
            points[i] = NumericalFailure("could not draw a full-rank Gaussian factor")
    return points


def _sample_point(
    name: str,
    gt: GroundTruth,
    params: RegionParams,
    rng: np.random.Generator,
    ball_radius: float,
) -> FactorPoint:
    """One point of sampler ``name`` drawn from ``rng`` (see :func:`_sample_points`)."""
    (point,) = _sample_points([name], gt, params, [rng], ball_radius)
    if not isinstance(point, FactorPoint):
        raise point
    return point


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
    """The row of point ``point_id`` at ``Y``: :func:`_certify_rows` of the
    one point, whose error it raises."""
    (row,) = _certify_rows([point_id], [Y], obj, gt, params, thresholds)
    if isinstance(row, LandscapeError):
        raise row
    return row


def _escape_curvature(
    obj: ObjectiveHandle, Y: FactorPoint, R: np.ndarray, aligned: np.ndarray, unique: bool
) -> float:
    """The Riemannian Hessian form along the escape direction ``aligned`` at
    ``Y`` over its squared norm, both taken with the direction in units of a
    power of two near its largest entry. The form is quadratic in the
    direction and the scaling is exact, so the ratio keeps its bits and is
    finite wherever it is in range."""
    theta = _scaled(_escape_tangent(Y, aligned, unique).theta)[0]
    return _hess_quad(obj, Y, R, theta) / float(np.linalg.norm(theta)) ** 2


def _row_floors(
    gt: GroundTruth, params: RegionParams, thresholds: ThresholdReport, spec_norm: np.ndarray, gram_norm: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The gradient floors of R3' (one for every row), R3'' and R3''' at
    rows of spectral norms ``spec_norm`` and Gram norms ``gram_norm``, in
    their pointwise form, corrected by the restricted convexity constant
    and the noise at the target; with both zero these are the sharp
    exact-factorization floors. The powers are numpy's scalar ones, which a
    vectorized power does not round alike, so that a floor that overflows
    is inf or NaN (and fails its row), not an ``OverflowError``."""
    delta, noise = thresholds.delta_used, thresholds.noise_at_target
    beta, gamma = params.beta, params.gamma
    s1, xnorm, root_r = gt.sigma1_star, gt.X_star_norm, np.sqrt(gt.Y_star.r)
    cube = np.array([s**3 for s in spec_norm])
    gram_root, gram_pow = (np.array([g**e for g in gram_norm]) for e in (0.5, 1.5))
    return (
        _grad_threshold(gt, params)
        - 2.0 * delta * beta * (1.0 + gamma) * s1 * xnorm
        - 2.0 * beta * s1 * noise,
        2.0 * (cube - spec_norm * s1**2)
        - 2.0 * delta * (1.0 + gamma) * spec_norm * xnorm
        - 2.0 * spec_norm * noise,
        (2.0 * (1.0 - 1.0 / gamma) - 2.0 * delta * (1.0 + 1.0 / gamma)) * gram_pow / root_r
        - 2.0 * gram_root * noise / root_r,
    )


def _worst_checks(applies: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """The column of each row's worst check: the first of least margin among
    the columns where ``applies`` holds, as ``min`` over them in order finds
    it (a later check replaces the one found only if its margin compares
    smaller, so a NaN margin is found only when it comes first); -1 where
    no check applies."""
    at, worst = np.arange(len(margins)), np.full(len(margins), -1)
    for col in range(margins.shape[1]):
        worst[applies[:, col] & ((worst < 0) | (margins[:, col] < margins[at, worst]))] = col
    return worst


def _certify_rows(
    ids: Sequence[int],
    points: Sequence[FactorPoint],
    obj: ObjectiveHandle,
    gt: GroundTruth,
    params: RegionParams,
    thresholds: ThresholdReport,
) -> list:
    """The row of each of ``points`` as the point of its id in ``ids``, or
    the :class:`~psdlandscape.errors.LandscapeError` at which it stopped:
    its classification, the handle's gradient, its R1 spectrum or its R2
    escape form. Row ``j`` equals, bit for bit, that of ``points[j]``
    certified on its own.

    The points are classified as one stack (:func:`_classify`). On a handle
    whose map has a ``target`` (denoising) the handle's gradient norm
    ``||2 R Y||_F`` is the factor form of :func:`_factor_grads` on that
    target, and a ``p x p`` ``R`` is formed only where a row reads it: the
    R1 spectra that the reduction does not take and the escape form of an
    R2 row. Any other handle gives each point its symmetrized gradient
    ``R``, read once. The R1 spectra are one stacked
    :func:`hess_extreme_eigs` call, but those built from form pairs are one
    call per point (the benchmark's tests pin their count). The distances,
    gradient norms, floors, margins and pass flags are arrays over the rows.
    """
    rows: list = [None] * len(points)
    if not points:
        return rows
    try:
        classes, live = _classify(points, gt, params), list(range(len(points)))
    except LandscapeError:
        rows = [_attempt(lambda: _classify([Y], gt, params)) for Y in points]
        live = [j for j, c in enumerate(rows) if not isinstance(c, LandscapeError)]
        if not live:
            return rows
        classes = _Classes(*map(np.concatenate, zip(*(rows[j] for j in live))))
        for j in live:
            rows[j] = None
    pts = [points[j] for j in live]
    n, (p, r) = len(pts), pts[0].Y.shape

    def kept(i: int, outcome):
        """``outcome`` of row ``i``, or ``None`` once an error stops the row."""
        if isinstance(outcome, LandscapeError):
            rows[live[i]] = outcome
            return None
        return outcome

    def running(rows_of: Iterable[int]) -> list[int]:
        return [i for i in rows_of if rows[live[i]] is None]

    in_r1, in_r2 = classes.member[:, 0], classes.member[:, 1]
    builder = _builder(obj, p, r)
    target = None if obj.least_squares is None else obj.least_squares.target
    needs = np.ones(n, bool) if target is None else in_r2 | (in_r1 & (builder != "reduced"))
    grads = [kept(i, _attempt(lambda: _sym_grad(obj, pts[i].gram()))) if needs[i] else None for i in range(n)]

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm fails its row
        if target is None:
            grad_h, ok = np.full(n, np.nan), running(range(n))
            if ok:
                grad_h[ok] = 2.0 * _frob_norms(np.stack([grads[i] @ pts[i].Y for i in ok]))
        elif target.Y is gt.Y_star.Y:
            grad_h = classes.grad_norm
        else:
            grad_h = 2.0 * _frob_norms(_factor_grads(np.stack([Y.Y for Y in pts]), target.Y))

    spectra = np.full((n, 2), np.nan)
    r1 = running(np.flatnonzero(in_r1))
    if builder == "form":
        estimates = [_attempt(lambda: hess_extreme_eigs(obj, pts[i], grad=grads[i])) for i in r1]
    else:
        estimates = _per_item(
            lambda part: hess_extreme_eigs(obj, [pts[i] for i in part], grad=[grads[i] for i in part]), r1
        )
    for i, est in zip(r1, estimates):
        if kept(i, est) is not None:
            spectra[i] = est.lambda_min, est.lambda_max

    curvature = np.full(n, np.nan)
    for i in running(np.flatnonzero(in_r2)):
        quad = kept(i, _attempt(
            lambda: _escape_curvature(obj, pts[i], grads[i], classes.aligned[i], classes.unique[i])
        ))
        curvature[i] = np.nan if quad is None else quad

    tol_curv = 1e-8 * gt.sigmar_star**2
    tol_grad = 1e-8 * gt.sigmar_star**3
    lower, upper, r2_upper = thresholds.r1_hess_lower, thresholds.r1_hess_upper, thresholds.r2_curvature_upper
    # the checks of a row, in this order, are those of its labels
    applies = classes.member[:, [0, 0, 1, 2, 3, 4]]
    bounds, margins = np.empty((n, 6)), np.empty((n, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        bounds[:, :3] = lower, upper, r2_upper
        bounds[:, 3], bounds[:, 4], bounds[:, 5] = _row_floors(
            gt, params, thresholds, classes.spec_norm, classes.gram_norm
        )
        margins[:, 0] = spectra[:, 0] - (lower - tol_curv)
        margins[:, 1] = (upper + tol_curv) - spectra[:, 1]
        margins[:, 2] = (r2_upper + tol_curv) - curvature
        margins[:, 3:] = grad_h[:, None] - (bounds[:, 3:] - tol_grad)
    at, worst = np.arange(n), _worst_checks(applies, margins)
    bound_value, margin = bounds[at, worst], margins[at, worst]
    passed = (~applies | (margins >= 0.0)).all(axis=1)
    finite = (
        np.isfinite(classes.dist) & np.isfinite(classes.grad_norm) & np.isfinite(grad_h)
        & np.isfinite(bound_value) & (~in_r1 | np.isfinite(spectra).all(axis=1))
    )
    # a quantity that overflowed certifies nothing
    margin, passed = np.where(finite, margin, np.nan), passed & finite

    reports = zip(
        classes.labels(), classes.dist.tolist(), classes.grad_norm.tolist(), grad_h.tolist(),
        spectra.tolist(), bound_value.tolist(), margin.tolist(), passed.tolist(), worst.tolist(),
    )
    for i, (labels, dist, grad_H, grad_h_i, (lam_min, lam_max), bound, slack, ok, check) in enumerate(reports):
        j = live[i]
        if rows[j] is not None:
            continue
        if check < 0:  # pragma: no cover - labels are never empty
            rows[j] = NumericalFailure("point received no region label")
            continue
        rows[j] = RegionReport(ids[j], labels, dist, grad_H, grad_h_i, lam_min, lam_max, bound, slack, ok)
    return rows


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

    The points are certified in chunks whose widest stack takes at most
    32 MiB (``_BLOCK_BYTES``): ``p x r`` factors where the R1 spectra take
    the denoising reduction, so ``floor(2^22 / (p r))`` points, else each
    point's ``p x p`` gradient, so ``floor(2^22 / p^2)`` points and one from
    ``p = 2048`` on. A chunk draws each sampler's points as one stack and
    builds its rows as one stack (:func:`_certify_rows`): one factorization,
    alignment and classification per stack, the R1 rows' Hessian spectra
    stacked too, and every norm and margin an array over the rows. Each row
    equals, bit for bit, the row of its point certified on its own
    (:func:`_certify_point`, the same builder on one point). A point that
    fails at any stage keeps its error at its index: the scan raises the
    error of its lowest-index failing point, after every earlier row.
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

    names = [samplers[i % len(samplers)] for i in range(n_points)]

    def chunk(ids: list[int]) -> list[RegionReport]:
        points = _per_item(
            lambda part: _sample_points(
                [names[i] for i in part], gt, params,
                [_stream(seed, _SCAN_POINT, i) for i in part], ball_radius,
            ),
            ids,
        )
        # the points after one that could not be drawn make no row
        drawn = next((k for k, Y in enumerate(points) if not isinstance(Y, FactorPoint)), len(points))
        rows = _certify_rows(ids[:drawn], points[:drawn], obj, gt, params, thresholds)
        for row in rows + points[drawn : drawn + 1]:
            if isinstance(row, LandscapeError):
                raise row
        return rows

    step = max(1, _BLOCK_BYTES // _point_bytes(obj, gt.Y_star.p, gt.Y_star.r))
    return [
        row for start in range(0, n_points, step)
        for row in chunk(list(range(start, min(start + step, n_points))))
    ]


def _point_bytes(obj: ObjectiveHandle, p: int, r: int) -> int:
    """Bytes per point of the widest stack a scan chunk forms: a ``p x r``
    factor where the R1 spectra take the denoising reduction, else the
    handle's ``p x p`` gradient, which the rows or their spectra read."""
    return 8 * p * (r if _builder(obj, p, r) == "reduced" else p)


def _per_item(fn: Callable[[list], list], items: list) -> list:
    """``fn(items)``, a list with one entry per item. If that raises a
    :class:`~psdlandscape.errors.LandscapeError`, ``fn`` is taken again on
    each item alone, and an item that raises has its error as its entry, so
    that a scan raises the error of its lowest-index failing point."""
    if not items:
        return []
    try:
        return fn(items)
    except LandscapeError:
        return [_attempt(lambda: fn([item])[0]) for item in items]


def _attempt(fn: Callable[[], object]):
    """``fn()``, or the :class:`~psdlandscape.errors.LandscapeError` it raises."""
    try:
        return fn()
    except LandscapeError as exc:
        return exc


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
    R = _check_stationary(obj, Y_hat, 1e-8 * Y_hat.sigma_min**3 if fosp_tol is None else fosp_tol)
    return hess_extreme_eigs(obj, Y_hat, grad=R)


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
    grad: np.ndarray | None = None,
) -> ErrorBoundResult:
    """Check the certified distance bound at a stationary point in R1.

    ``lhs`` is the quotient distance from the stationary point to the
    target; ``rhs`` is
    ``2 ||Y*|| ||(grad f(X*))_max(r)||_F / (((1-mu/k)^2 - 7mu/3) sigma_r^2)``
    and ``rhs_mid`` the tighter intermediate bound with
    ``||grad f(X*) Y*||_F`` in the numerator; both read the gradient at
    ``X*`` from ``gt``, and ``obj`` only tests that ``Y_hat`` is
    stationary; a caller that holds the symmetrized gradient at ``Y_hat``
    (as ``_sym_grad`` returns it) passes it as ``grad``, and ``obj`` is
    then not evaluated. ``holds`` compares with an absolute slack of
    ``1e-7 sigma_r(Y*)`` because the noiseless rhs is exactly zero while a
    numerically converged point sits at a tiny positive distance.

    Raises
    ------
    InputContractError
        If ``mu`` is outside ``[0, 1/3]`` or ``fosp_tol`` is below 0 or NaN.
    """
    if not 0.0 <= mu <= 1.0 / 3.0:
        raise InputContractError(f"mu must lie in [0, 1/3], got {mu}")
    sr = gt.sigmar_star
    denom = _margin(gt, mu) * sr**2
    _check_stationary(obj, Y_hat, 1e-6 * sr**3 if fosp_tol is None else fosp_tol, grad)
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
        # each float as _fmt writes it
        lines.append(
            f"{rep.point_id},{labels},{float(rep.dist_to_star):.17g},{float(rep.grad_H_norm):.17g},"
            f"{float(rep.grad_h_norm):.17g},{float(rep.lambda_min):.17g},{float(rep.lambda_max):.17g},"
            f"{float(rep.bound_value):.17g},{float(rep.margin):.17g},{status}"
        )
    return "\n".join(lines) + "\n"

"""Riemannian quotient geometry of full-column-rank factors modulo rotation.

A point of the quotient manifold is the class ``[Y] = {Y @ O : O orthogonal}``
of a full-column-rank ``p x r`` factor ``Y``; each class corresponds to one
rank-``r`` PSD matrix ``Y @ Y.T``. The total space carries the Euclidean
metric, which makes everything here closed-form:

* vertical directions are ``Y @ Omega`` with ``Omega`` skew-symmetric,
* horizontal directions are the ``theta`` with ``Y.T @ theta`` symmetric,
* the minimizing geodesic between nearby classes is the straight line
  ``Y1 + t (Y2 @ Q - Y1)`` in the total space, with ``Q`` the orthogonal
  Procrustes alignment,
* the injectivity radius at ``[Y]`` is ``sigma_r(Y)`` and the geodesic ball
  of radius ``sigma_r(Y) / 3`` is geodesically convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, NonUniqueAlignmentError, RankCollapseError
from .kernels import SvdResult, _align, _thin_svd, check_matrix

__all__ = [
    "FactorPoint",
    "HorizontalTangent",
    "same_base",
    "vertical_project",
    "horizontal_project",
    "quotient_distance",
    "log_map",
    "exp_map",
    "injectivity_radius",
    "convexity_radius",
]

#: relative threshold below which the smallest singular value counts as zero
RANK_TOL_REL = 1e-10
RANK_TOL_FLOOR = 1e-300


class FactorPoint:
    """A full-column-rank ``p x r`` factor representing the class ``[Y]``.

    The thin SVD of ``Y`` is computed once at construction and the Gram
    matrix once on first use; both are cached read-only, and instances are
    immutable and safe to share across threads.

    Raises
    ------
    InputContractError
        If ``Y`` is not effectively full column rank, i.e. if
        ``sigma_r(Y) <= max(1e-10 * sigma_1(Y), 1e-300)``.
    """

    __slots__ = ("Y", "svd", "sigma_max", "sigma_min", "_gram")

    def __init__(self, Y: np.ndarray):
        Y = check_matrix(Y, "factor")
        if Y.shape[0] < Y.shape[1]:
            raise InputContractError(f"factor must be tall, got shape {Y.shape}")
        self._set(Y.copy(), _thin_svd(Y))

    @classmethod
    def _from_svd(cls, Y: np.ndarray, svd: SvdResult) -> "FactorPoint":
        """The point of a finite tall ``Y``, kept without a copy, from its
        thin SVD ``svd`` (a row of a stacked
        :func:`~psdlandscape.kernels.thin_svd`), after the
        rank check of the constructor."""
        point = cls.__new__(cls)
        point._set(Y, svd)
        return point

    def _set(self, Y: np.ndarray, svd: SvdResult) -> None:
        sigma_max = float(svd.sigma[0])
        sigma_min = float(svd.sigma[-1])
        _check_rank(sigma_max, sigma_min)
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "svd", svd)
        object.__setattr__(self, "sigma_max", sigma_max)
        object.__setattr__(self, "sigma_min", sigma_min)
        object.__setattr__(self, "_gram", None)

    def __setattr__(self, name, value):
        raise AttributeError("FactorPoint is immutable")

    @property
    def p(self) -> int:
        return self.Y.shape[0]

    @property
    def r(self) -> int:
        return self.Y.shape[1]

    def gram(self) -> np.ndarray:
        """The represented PSD matrix ``Y @ Y.T`` (read-only, formed once)."""
        if self._gram is None:
            X = self.Y @ self.Y.T
            X.setflags(write=False)
            object.__setattr__(self, "_gram", X)
        return self._gram

    def __repr__(self) -> str:
        return f"FactorPoint(p={self.p}, r={self.r}, sigma_min={self.sigma_min:.3g})"


def _check_rank(sigma_max: float, sigma_min: float) -> None:
    """Raise :class:`InputContractError` unless a factor of extreme singular
    values ``sigma_max`` and ``sigma_min`` is effectively full column rank
    (see :class:`FactorPoint`)."""
    if sigma_min <= max(RANK_TOL_REL * sigma_max, RANK_TOL_FLOOR):
        raise InputContractError(
            f"factor is rank deficient: sigma_min = {sigma_min:.3e}, "
            f"sigma_max = {sigma_max:.3e}"
        )


def _factor_points(Ys: np.ndarray) -> list:
    """``FactorPoint(Y)`` of each ``Y`` of the ``(k, p, r)`` stack ``Ys``,
    all from one stacked :func:`~psdlandscape.kernels.thin_svd`; in the
    place of a point that the constructor refuses, the
    :class:`InputContractError` it raises."""
    if Ys.shape[-2] < Ys.shape[-1]:
        raise InputContractError(f"factor must be tall, got shape {Ys.shape[-2:]}")
    finite = np.isfinite(Ys).all(axis=(-2, -1))
    svd = _thin_svd(Ys[finite]) if finite.any() else None
    points: list = []
    j = 0
    for Y, ok in zip(Ys, finite):
        try:
            if not ok:
                check_matrix(Y, "factor")  # raises: the factor is not finite
            row = SvdResult(svd.U[j], svd.sigma[j], svd.V[j])
            points.append(FactorPoint._from_svd(Y.copy(), row))
        except InputContractError as exc:
            points.append(exc)
        j += bool(ok)
    return points


HORIZONTAL_TOL = 1e-8

#: a tangent shorter than this times ``sigma_max(Y)`` is held to the
#: horizontality tolerance of one of that length, so that a tangent that is
#: zero up to the rounding of its base (the log map inside one fiber) passes
HORIZONTAL_FLOOR = 1e-4

#: a tolerance below this may rest on squares that underflowed
_TINY = 2.0**-400


def _check_horizontal(base: FactorPoint, thetas: np.ndarray) -> None:
    """Raise :class:`InputContractError` unless ``theta`` is horizontal at
    ``base``, for ``thetas`` one ``p x r`` matrix or a ``(k, p, r)`` stack:
    ``||Y.T theta - theta.T Y||_F <= 1e-8 sigma_max(Y) L`` with the length
    ``L = max(||theta||_F, 1e-4 sigma_max(Y))``.

    Both sides scale alike in ``(Y, theta)``, so the test is free of scale.
    The norms are first taken from sums of squares (``np.vdot``, which
    returns ``inf`` on overflow and does not warn). Where a sum overflowed,
    or the tolerance is so small that squares may have underflowed, they
    are taken again by ``math.hypot``, which scales its arguments."""
    M = base.Y.T @ thetas
    D = M - M.swapaxes(-1, -2)
    sigma = base.sigma_max
    for theta, d in zip(thetas, D) if thetas.ndim == 3 else [(thetas, D)]:
        asym, nrm = math.sqrt(np.vdot(d, d)), math.sqrt(np.vdot(theta, theta))
        tol = HORIZONTAL_TOL * sigma * max(nrm, HORIZONTAL_FLOOR * sigma)
        if not (asym < math.inf and _TINY <= tol < math.inf):
            asym = math.hypot(*d.ravel().tolist())
            nrm = math.hypot(*theta.ravel().tolist())
            tol = HORIZONTAL_TOL * sigma * max(nrm, HORIZONTAL_FLOOR * sigma)
        if not asym <= tol:
            raise InputContractError(
                "tangent is not horizontal: ||Y.T theta - theta.T Y||_F / "
                f"(sigma_max(Y) ||theta||_F) = {asym / (sigma * nrm):.3e}"
            )


@dataclass(frozen=True)
class HorizontalTangent:
    """A horizontal lift at ``base``: a ``p x r`` matrix with ``Y.T @ theta`` symmetric."""

    theta: np.ndarray
    base: FactorPoint

    def __post_init__(self):
        theta = check_matrix(self.theta, "tangent")
        if theta.shape != self.base.Y.shape:
            raise InputContractError(
                f"tangent shape {theta.shape} does not match base {self.base.Y.shape}"
            )
        _check_horizontal(self.base, theta)
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.theta))


def same_base(tangent: HorizontalTangent, base: FactorPoint) -> bool:
    """Whether a tangent is anchored at ``base`` (by identity or by value)."""
    return tangent.base is base or np.array_equal(tangent.base.Y, base.Y)


def vertical_project(base: FactorPoint, Z: np.ndarray) -> np.ndarray:
    """Project ``Z`` onto the vertical space ``{Y @ Omega : Omega skew}``.

    The skew factor solves the r x r Sylvester equation
    ``(Y.T Y) Omega + Omega (Y.T Y) = Y.T Z - Z.T Y``, which is done exactly
    through the eigendecomposition of the SPD Gram matrix ``Y.T Y``. ``Z``
    may be a ``(k, p, r)`` stack, projected matrix by matrix.
    """
    Z = check_matrix(Z, "Z", stack=True)
    Y = base.Y
    if Z.shape[-2:] != Y.shape:
        raise InputContractError(f"shape mismatch: {Z.shape} vs {Y.shape}")
    # Gram eigenpairs from the cached SVD: Y.T Y = V diag(sigma^2) V.T
    V = base.svd.V
    lam = base.svd.sigma**2
    C = Y.T @ Z
    C = C - C.swapaxes(-1, -2)
    Ct = V.T @ C @ V
    Omega = V @ (Ct / (lam[:, None] + lam[None, :])) @ V.T
    return Y @ Omega


def horizontal_project(base: FactorPoint, Z: np.ndarray) -> HorizontalTangent:
    """Project ``Z`` onto the horizontal space at ``base``.

    The result is ``Z`` minus its vertical part; it is orthogonal to every
    vertical direction and the projection is idempotent.
    """
    return HorizontalTangent(Z - vertical_project(base, Z), base)


def quotient_distance(Y1: FactorPoint, Y2: FactorPoint) -> float:
    """Geodesic distance ``min_O ||Y2 @ O - Y1||_F`` between the classes."""
    if Y1.Y.shape != Y2.Y.shape:
        raise InputContractError(f"shape mismatch: {Y1.Y.shape} vs {Y2.Y.shape}")
    Q, _, _ = _align(Y1.Y, Y2.Y)
    return float(np.linalg.norm(Y2.Y @ Q - Y1.Y))


def log_map(Y1: FactorPoint, Y2: FactorPoint) -> HorizontalTangent:
    """Horizontal lift at ``Y1`` of the logarithm of ``[Y2]``.

    Requires ``Y1.T @ Y2`` nonsingular, which makes the optimal alignment
    ``Q`` unique; the lift is then ``Y2 @ Q - Y1`` and its norm equals the
    quotient distance.

    Raises
    ------
    NonUniqueAlignmentError
        If the cross-Gram matrix is singular (the logarithm is not unique).
    """
    if Y1.Y.shape != Y2.Y.shape:
        raise InputContractError(f"shape mismatch: {Y1.Y.shape} vs {Y2.Y.shape}")
    Q, s, unique = _align(Y1.Y, Y2.Y)
    if not unique:
        raise NonUniqueAlignmentError(float(s[-1]))
    return HorizontalTangent(Y2.Y @ Q - Y1.Y, Y1)


def exp_map(base: FactorPoint, theta: HorizontalTangent, t: float = 1.0) -> FactorPoint:
    """Exponential map: the point ``[Y + t * theta]``.

    For ``theta = log_map(Y1, Y2)`` this traces the unique minimizing
    geodesic from ``[Y1]`` to ``[Y2]`` as ``t`` runs over [0, 1].

    Raises
    ------
    RankCollapseError
        If ``Y + t * theta`` leaves the full-column-rank set.
    """
    if not same_base(theta, base):
        raise InputContractError("tangent must be based at the given point")
    if not np.isfinite(t):
        raise InputContractError(f"t must be finite, got {t}")
    try:
        return FactorPoint(base.Y + t * theta.theta)
    except InputContractError as exc:
        raise RankCollapseError(f"rank collapse along geodesic at t={t:.6g}: {exc}", t=t) from None


def injectivity_radius(Y: FactorPoint) -> float:
    """Injectivity radius at ``[Y]``: the smallest singular value of ``Y``."""
    return Y.sigma_min


def convexity_radius(Y: FactorPoint) -> float:
    """Radius of a certified geodesically convex ball: ``sigma_r(Y) / 3``."""
    return Y.sigma_min / 3.0

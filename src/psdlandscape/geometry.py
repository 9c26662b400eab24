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

from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError, NonUniqueAlignmentError, RankCollapseError
from .kernels import check_matrix, procrustes_align, thin_svd

__all__ = [
    "FactorPoint",
    "HorizontalTangent",
    "GeodesicSegment",
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

    The thin SVD of ``Y`` is computed once at construction and cached;
    instances are immutable and safe to share across threads.

    Raises
    ------
    InputContractError
        If ``Y`` is not effectively full column rank, i.e. if
        ``sigma_r(Y) <= max(1e-10 * sigma_1(Y), 1e-300)``.
    """

    __slots__ = ("Y", "svd", "sigma_max", "sigma_min")

    def __init__(self, Y: np.ndarray):
        Y = check_matrix(Y, "factor").copy()
        if Y.shape[0] < Y.shape[1]:
            raise InputContractError(f"factor must be tall, got shape {Y.shape}")
        Y.setflags(write=False)
        svd = thin_svd(Y)
        sigma_max = float(svd.sigma[0])
        sigma_min = float(svd.sigma[-1])
        if sigma_min <= max(RANK_TOL_REL * sigma_max, RANK_TOL_FLOOR):
            raise InputContractError(
                f"factor is rank deficient: sigma_min = {sigma_min:.3e}, "
                f"sigma_max = {sigma_max:.3e}"
            )
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "svd", svd)
        object.__setattr__(self, "sigma_max", sigma_max)
        object.__setattr__(self, "sigma_min", sigma_min)

    def __setattr__(self, name, value):
        raise AttributeError("FactorPoint is immutable")

    @property
    def p(self) -> int:
        return self.Y.shape[0]

    @property
    def r(self) -> int:
        return self.Y.shape[1]

    def gram(self) -> np.ndarray:
        """The represented PSD matrix ``Y @ Y.T``."""
        return self.Y @ self.Y.T

    def __repr__(self) -> str:
        return f"FactorPoint(p={self.p}, r={self.r}, sigma_min={self.sigma_min:.3g})"


HORIZONTAL_TOL = 1e-8


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
        M = self.base.Y.T @ theta
        asym = np.linalg.norm(M - M.T)
        scale = max(1.0, self.base.sigma_max * float(np.linalg.norm(theta)))
        if asym > HORIZONTAL_TOL * scale:
            raise InputContractError(
                f"tangent is not horizontal: ||Y.T theta - theta.T Y||_F = {asym:.3e}"
            )
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.theta))


def same_base(tangent: HorizontalTangent, base: FactorPoint) -> bool:
    """Whether a tangent is anchored at ``base`` (by identity or by value)."""
    return tangent.base is base or np.array_equal(tangent.base.Y, base.Y)


@dataclass(frozen=True)
class GeodesicSegment:
    """The geodesic ``t -> [start.Y + t * direction.theta]`` for ``t`` in [0, 1]."""

    start: FactorPoint
    direction: HorizontalTangent
    length: float = field(init=False)

    def __post_init__(self):
        if not same_base(self.direction, self.start):
            raise InputContractError("direction must be based at the start point")
        object.__setattr__(self, "length", self.direction.norm)

    def point(self, t: float) -> FactorPoint:
        return exp_map(self.start, self.direction, t)


def vertical_project(base: FactorPoint, Z: np.ndarray) -> np.ndarray:
    """Project ``Z`` onto the vertical space ``{Y @ Omega : Omega skew}``.

    The skew factor solves the r x r Sylvester equation
    ``(Y.T Y) Omega + Omega (Y.T Y) = Y.T Z - Z.T Y``, which is done exactly
    through the eigendecomposition of the SPD Gram matrix ``Y.T Y``.
    """
    Z = check_matrix(Z, "Z")
    Y = base.Y
    if Z.shape != Y.shape:
        raise InputContractError(f"shape mismatch: {Z.shape} vs {Y.shape}")
    # Gram eigenpairs from the cached SVD: Y.T Y = V diag(sigma^2) V.T
    V = base.svd.V
    lam = base.svd.sigma**2
    C = Y.T @ Z
    C = C - C.T
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
    _, residual = procrustes_align(Y1.Y, Y2.Y)
    return residual


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
    cross = Y1.Y.T @ Y2.Y
    QU, s, QV = thin_svd(cross)
    smin = float(s[-1])
    if smin <= max(RANK_TOL_REL * float(s[0]), RANK_TOL_FLOOR):
        raise NonUniqueAlignmentError(smin)
    Q = QV @ QU.T
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

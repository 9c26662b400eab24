"""Objectives on PSD matrices and their lifts to the factor space.

Two concrete problem families are provided:

* the exact-factorization least-squares objective
  ``0.5 * ||Y Y.T - X*||_F^2`` (referred to as the *denoising* objective),
* symmetric matrix trace regression ``0.5 * ||A(X) - y||_2^2`` with a
  Gaussian sensing map normalized so that the Hessian form is a
  near-isometry on low-rank matrices.

Everything downstream consumes an :class:`ObjectiveHandle`, which exposes
the value, the (symmetric) Euclidean gradient and the Euclidean Hessian
bilinear form, and, for the two least-squares families, the residual, the
adjoint and the forward and normal images of its linear map
(:class:`LeastSquaresMap`).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputContractError, NumericalFailure
from .geometry import FactorPoint, HorizontalTangent, same_base
from .kernels import _PROBES, _check_int, _json_number, _json_numbers, _stream, check_matrix
from .kernels import sym_eig, truncated_frob_norm

__all__ = [
    "ObjectiveHandle",
    "LeastSquaresMap",
    "DenoisingObjective",
    "TraceRegressionObjective",
    "GroundTruth",
    "ProblemInstance",
    "lifted_value",
    "riemannian_grad_lift",
    "riemannian_hess_quadform",
    "embedded_hess_quadform",
    "random_orthonormal",
    "make_instance",
    "instance_from_document",
    "rsc_rsm_estimate",
    "restricted_strict_convexity_check",
    "random_symmetric_low_rank",
]


@dataclass(frozen=True)
class LeastSquaresMap:
    """The linear structure of ``f(X) = 0.5 ||A(X) - y||^2``.

    Because ``A`` is linear, the residual and the gradient of ``f`` along
    ``X + sum_j t_j G_j`` follow from their values at ``X`` and the images
    of the ``G_j``, with no further evaluation of ``f``.

    Attributes
    ----------
    residual : callable
        ``X -> A(X) - y``, a ``(d,)`` array; ``f(X)`` is half its squared norm.
    adjoint : callable
        ``v -> A.T(v)``, a fresh ``p x p`` array; ``grad f(X)`` is the
        adjoint of the residual.
    forward : callable
        ``G -> A(G)``, a ``(d,)`` array for one ``p x p`` matrix and the
        ``(k, d)`` array of rows ``A(Gs[j])`` for a ``(k, p, p)`` stack, from
        one pass over the map and no adjoint. The residual reads it, and
        the Hessian form is ``<F[a], F[b]>``, so whatever reads only the
        form (the delta probes, the dense Hessian spectra, the delta
        oracles) reads this.
    images : callable
        ``Gs -> (F, N)`` for a ``(k, p, p)`` stack ``Gs``: ``F = forward(Gs)``
        and ``N[j] = A.T(A(Gs[j]))``, a symmetric ``p x p`` matrix, for the
        consumer that needs the normal images (gradient descent).
    target : FactorPoint or None
        ``Y*`` when ``A`` is the identity (flattening) and ``y`` is the
        flattened ``Y* Y*.T``, so that ``f`` is the denoising objective and
        its Hessian spectrum reduces to a problem of size ``2 r``
        (:func:`~psdlandscape.landscape.hess_extreme_eigs`); ``None`` for
        any other map or observations.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    forward: Callable[[np.ndarray], np.ndarray]
    images: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    target: FactorPoint | None = None


@dataclass(frozen=True)
class ObjectiveHandle:
    """Black-box objective ``f`` on symmetric ``p x p`` matrices.

    Attributes
    ----------
    value : callable
        ``X -> f(X)``.
    euclid_grad : callable
        ``X -> grad f(X)``, always a symmetric matrix.
    euclid_hess_form : callable
        ``(X, G1, G2) -> <hess f(X)[G1], G2>``, bilinear and symmetric in
        ``(G1, G2)``.
    p : int
        Ambient dimension of the problem.
    least_squares : LeastSquaresMap or None
        The least-squares structure of the same ``f``, for objectives that
        have one; ``None`` for custom handles.
    """

    value: Callable[[np.ndarray], float]
    euclid_grad: Callable[[np.ndarray], np.ndarray]
    euclid_hess_form: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    p: int
    least_squares: LeastSquaresMap | None = None


def _least_squares_handle(
    p: int,
    y: np.ndarray,
    adjoint: Callable,
    forward: Callable,
    images: Callable,
    target: FactorPoint | None = None,
) -> ObjectiveHandle:
    """The handle of ``f(X) = 0.5 ||A(X) - y||^2`` from ``adjoint`` (``A.T``,
    returning a fresh array), ``forward`` (``A``), ``images`` and ``target``
    (see :class:`LeastSquaresMap`)."""

    def residual(X: np.ndarray) -> np.ndarray:
        return forward(X) - y

    def value(X: np.ndarray) -> float:
        res = residual(X)
        return 0.5 * float(np.vdot(res, res))

    def grad(X: np.ndarray) -> np.ndarray:
        return adjoint(residual(X))

    def hess_form(X: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> float:
        image = forward(G1)
        return float(np.vdot(image, image if G2 is G1 else forward(G2)))

    ls = LeastSquaresMap(residual, adjoint, forward, images, target)
    return ObjectiveHandle(value, grad, hess_form, p, ls)


class DenoisingObjective:
    """``f(X) = 0.5 * ||X - X*||_F^2`` for the target ``X* = Y* Y*.T`` of a
    full-rank factor ``Y*``, whose cached Gram is the target itself."""

    def __init__(self, Y_star: FactorPoint):
        if not isinstance(Y_star, FactorPoint):
            raise InputContractError(f"Y_star must be a FactorPoint, got {type(Y_star).__name__}")
        self.Y_star = Y_star

    def handle(self) -> ObjectiveHandle:
        # A flattens one matrix, or each matrix of a stack into a row, and
        # its adjoint reshapes a copy back to p x p, so a gradient never
        # aliases the residual
        p = self.Y_star.p

        def forward(G: np.ndarray) -> np.ndarray:
            return G.reshape(*G.shape[:-2], p * p)

        return _least_squares_handle(
            p, forward(self.Y_star.gram()), lambda v: v.reshape(p, p).copy(),
            forward, lambda Gs: (forward(Gs), Gs), self.Y_star,
        )


#: entries of ``n x p x p`` sample arrays that one chunk of samples may hold
_CHUNK_ENTRIES = 1 << 18


def _sample_chunks(n: int, p: int) -> list[slice]:
    """Slices of the ``n`` samples of ``p x p`` matrices, each at most
    :data:`_CHUNK_ENTRIES` entries (one sample at least)."""
    step = max(1, _CHUNK_ENTRIES // max(p * p, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@functools.lru_cache(maxsize=16)
def _triu(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in a ``p x p`` matrix of its upper triangle (row by
    row, the packed order) and of the mirrored entries, and the packed
    positions of the diagonal."""
    iu, ju = np.triu_indices(p)
    index = (iu * p + ju, ju * p + iu, np.flatnonzero(iu == ju))
    for a in index:
        a.flags.writeable = False  # shared by every caller of the cache
    return index


def _packed_coefficients(X: np.ndarray) -> np.ndarray:
    """``c(X)``, the upper triangle of ``X + X.T`` with the diagonal halved:
    ``<A_i, X> = packed_i @ c(X)`` for symmetric ``A_i``, exact for any
    square ``X``; a ``(k, p, p)`` stack gives the ``(k, q)`` stack of them."""
    X = np.asarray(X, dtype=float)
    upper, lower, diag = _triu(X.shape[-1])
    flat = X.reshape(*X.shape[:-2], -1)
    c = flat[..., upper] + flat[..., lower]
    c[..., diag] = flat[..., upper[diag]]
    return c


def _unpacked(u: np.ndarray, p: int) -> np.ndarray:
    """The symmetric ``p x p`` matrix whose upper triangle is ``u``; a
    ``(k, q)`` stack gives the ``(k, p, p)`` stack of them."""
    upper, lower, _ = _triu(p)
    M = np.empty((*u.shape[:-1], p * p))
    M[..., upper] = u
    M[..., lower] = u
    return M.reshape(*u.shape[:-1], p, p)


#: bytes of the packed map that :meth:`TraceRegressionObjective.images`
#: reads per block; each block is read twice while it is still in cache
_SWEEP_BYTES = 1 << 20


class TraceRegressionObjective:
    """``f(X) = 0.5 * ||A(X) - y||_2^2`` with symmetric sensing matrices.

    The map is stored once, as the ``(n, p(p+1)/2)`` array :attr:`packed`
    whose row ``i`` is the upper triangle of ``A_i`` (row by row): ``n
    p(p+1)/2`` doubles. The full ``(n, p, p)`` array :attr:`sensing` is
    built from it on first access and then kept.
    """

    def __init__(self, sensing: np.ndarray, y: np.ndarray):
        sensing = np.asarray(sensing, dtype=float)
        if sensing.ndim != 3 or sensing.shape[1] != sensing.shape[2]:
            raise InputContractError(f"sensing must be (n, p, p), got {sensing.shape}")
        n, p = sensing.shape[:2]
        upper = _triu(p)[0]
        packed = np.empty((n, len(upper)))
        asym = 0.0
        for c in _sample_chunks(n, p):
            S = sensing[c]
            if not np.all(np.isfinite(S)):
                raise InputContractError("sensing contains non-finite entries")
            asym += np.linalg.norm(S - np.transpose(S, (0, 2, 1))) ** 2
            packed[c] = S.reshape(len(S), p * p)[:, upper]
        if np.sqrt(asym) > 1e-12 * max(np.linalg.norm(sensing), 1e-300):
            raise InputContractError("sensing matrices must be symmetric")
        y = np.asarray(y, dtype=float)
        if y.shape != (n,):
            raise InputContractError(f"y must have shape ({n},)")
        if not np.all(np.isfinite(y)):
            raise InputContractError("y contains non-finite entries")
        self.packed = packed
        self.y = y

    @classmethod
    def _from_packed(cls, packed: np.ndarray, y: np.ndarray) -> "TraceRegressionObjective":
        """The objective of a packed map and observations, unchecked."""
        obj = cls.__new__(cls)
        obj.packed, obj.y = packed, y
        return obj

    @property
    def p(self) -> int:
        return (math.isqrt(8 * self.packed.shape[1] + 1) - 1) // 2

    @functools.cached_property
    def sensing(self) -> np.ndarray:
        """The sensing matrices as a read-only ``(n, p, p)`` array."""
        full = _unpacked(self.packed, self.p)
        full.flags.writeable = False
        return full

    def apply_map(self, X: np.ndarray) -> np.ndarray:
        """Forward map ``A(X)_i = <A_i, X>``; a ``(k, p, p)`` stack gives the
        ``(k, n)`` array of its images, from one product with the map."""
        return _packed_coefficients(X) @ self.packed.T

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint map ``A.T(v) = sum_i v_i A_i``."""
        return _unpacked(np.asarray(v, dtype=float) @ self.packed, self.p)

    def images(self, Gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A(G_j))_j`` as a ``(k, n)`` array and ``(A.T(A(G_j)))_j`` as a
        ``(k, p, p)`` array, for a ``(k, p, p)`` stack ``Gs``, from one sweep
        over the map: each row block gives its forward images ``x = blk @ c``
        and adds ``x.T @ blk`` to the normal images before the next block is
        read."""
        c = np.ascontiguousarray(_packed_coefficients(Gs).T)
        n, q = self.packed.shape
        forward = np.empty((c.shape[1], n))
        normal = np.zeros((c.shape[1], q))
        rows = max(1, _SWEEP_BYTES // (8 * q))
        for i in range(0, n, rows):
            blk = self.packed[i : i + rows]
            x = blk @ c
            forward[:, i : i + rows] = x.T
            normal += x.T @ blk
        return forward, _unpacked(normal, self.p)

    def handle(self) -> ObjectiveHandle:
        return _least_squares_handle(self.p, self.y, self.adjoint, self.apply_map, self.images)


@dataclass(frozen=True)
class GroundTruth:
    """The rank-``r`` target factor with its cached spectral quantities."""

    Y_star: FactorPoint
    X_star: np.ndarray
    sigma1_star: float
    sigmar_star: float
    kappa_star: float
    grad_at_star_trunc: float
    grad_at_star_along_factor: float
    X_star_norm: float

    @classmethod
    def from_factor(cls, Y_star: FactorPoint, obj: ObjectiveHandle) -> "GroundTruth":
        """The target of ``obj`` at ``Y_star``, from one evaluation of
        ``grad f(X*)``: ``grad_at_star_trunc`` is ``||(grad f(X*))_max(r)||_F``
        and ``grad_at_star_along_factor`` is ``||grad f(X*) Y*||_F``. Both are
        0 with no evaluation when the handle's map has ``Y_star`` as its
        ``target`` (denoising at its own target)."""
        X_star = Y_star.gram()
        target = None if obj.least_squares is None else obj.least_squares.target
        if target is not None and np.array_equal(target.Y, Y_star.Y):
            # the gradient X* - Y* Y*.T of denoising at its own target is
            # structurally zero, so no p x p array of it is formed
            noise = along = 0.0
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                G = obj.euclid_grad(X_star)
            if not np.all(np.isfinite(G)):
                raise InputContractError("the gradient at X* has non-finite entries")
            with np.errstate(over="ignore"):
                # the gradient at X* is exactly zero on a noiseless instance
                noise = truncated_frob_norm(G, Y_star.r) if G.any() else 0.0
                along = float(np.linalg.norm(G @ Y_star.Y))
        with np.errstate(over="ignore"):
            xnorm = float(np.linalg.norm(X_star))
        if not (math.isfinite(noise) and math.isfinite(along)):
            raise InputContractError("the norms of the gradient at X* overflow")
        if xnorm == math.inf:  # the sum of squares overflowed; ||X*||_F <= r sigma_1^2 is finite
            top = float(np.abs(X_star).max())
            xnorm = top * float(np.linalg.norm(X_star / top))
        return cls(
            Y_star=Y_star,
            X_star=X_star,
            sigma1_star=Y_star.sigma_max,
            sigmar_star=Y_star.sigma_min,
            kappa_star=Y_star.sigma_max / Y_star.sigma_min,
            grad_at_star_trunc=noise,
            grad_at_star_along_factor=along,
            X_star_norm=xnorm,
        )


# ---------------------------------------------------------------------------
# Lifted objective: value, Riemannian gradient and Hessian quadratic form
# ---------------------------------------------------------------------------


def lifted_value(obj: ObjectiveHandle, Y: FactorPoint) -> float:
    """Value of the factorized objective ``f(Y Y.T)``; constant on fibers."""
    return float(obj.value(Y.gram()))


def _sym_grad(obj: ObjectiveHandle, X: np.ndarray) -> np.ndarray:
    """``R``, the symmetrized Euclidean gradient at ``X``; an entry that
    overflowed raises :class:`NumericalFailure`."""
    G = obj.euclid_grad(X)
    R = (G + G.T) / 2.0
    if not np.all(np.isfinite(R)):
        raise NumericalFailure("the Euclidean gradient has non-finite entries")
    return R


def _lift(Y: FactorPoint | np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``C(theta) = Y theta.T + theta Y.T`` for one ``(p, r)`` array, or the
    ``(m, p, p)`` stack of them for an ``(m, p, r)`` stack. ``Y`` is a
    point, or an array of factors that broadcasts against ``theta``."""
    T = (Y.Y if isinstance(Y, FactorPoint) else Y) @ np.swapaxes(theta, -1, -2)
    return T + np.swapaxes(T, -1, -2)


def _form_matrix(obj: ObjectiveHandle, X: np.ndarray, Gs: np.ndarray) -> np.ndarray:
    """The matrix ``<hess f(X)[G_a], G_b>`` of the Euclidean Hessian form at
    ``X`` over the stack ``Gs``, from one form call per pair ``a <= b``."""
    Gs = list(Gs)  # a diagonal call passes one object twice
    q = len(Gs)
    M = np.empty((q, q))
    for a in range(q):
        for b in range(a, q):
            M[a, b] = M[b, a] = float(obj.euclid_hess_form(X, Gs[a], Gs[b]))
    return M


def riemannian_grad_lift(obj: ObjectiveHandle, Y: FactorPoint) -> HorizontalTangent:
    """Horizontal lift of the Riemannian gradient: ``2 grad f(Y Y.T) @ Y``.

    Because the horizontal space is the orthogonal complement of the fiber
    directions, this coincides with the Euclidean gradient of the lifted
    objective, so factor-space gradient descent is simultaneously Euclidean
    and Riemannian.
    """
    return HorizontalTangent(2.0 * (_sym_grad(obj, Y.gram()) @ Y.Y), Y)


def riemannian_hess_quadform(
    obj: ObjectiveHandle, Y: FactorPoint, theta: HorizontalTangent | np.ndarray
) -> float:
    """Riemannian Hessian quadratic form along a horizontal direction.

    Evaluates ``hess f(Y Y.T)[C, C] + 2 <grad f(Y Y.T), theta theta.T>``
    with ``C = Y theta.T + theta Y.T``.
    """
    if not isinstance(theta, HorizontalTangent):
        theta = HorizontalTangent(np.asarray(theta, dtype=float), Y)
    elif not same_base(theta, Y):
        raise InputContractError("tangent must be based at the given point")
    return _hess_quad(obj, Y, _sym_grad(obj, Y.gram()), theta.theta)


def _hess_quad(obj: ObjectiveHandle, Y: FactorPoint, R: np.ndarray, theta: np.ndarray) -> float:
    """``hess f(X)[C, C] + 2 <R theta, theta>`` at ``X = Y Y.T``, with ``C =
    Y theta.T + theta Y.T`` and ``R`` the symmetrized gradient at ``X``."""
    C = _lift(Y, theta)
    return float(obj.euclid_hess_form(Y.gram(), C, C)) + 2.0 * float(np.vdot(R @ theta, theta))


def embedded_hess_quadform(
    X: np.ndarray, X_star: np.ndarray, S: np.ndarray, D: np.ndarray
) -> float:
    """Hessian quadratic form of ``0.5 ||X - X*||_F^2`` on the embedded
    manifold of rank-``r`` PSD matrices.

    The tangent vector is assembled as
    ``xi = U S U.T + U_perp D U.T + U D.T U_perp.T`` from the top-``r``
    eigenbasis ``U`` of ``X``, and the returned value is
    ``||xi||_F^2 + 2 <X - X*, U_perp D Sigma^{-1} D.T U_perp.T>``.
    """
    X = check_matrix(X, "X")
    X_star = check_matrix(X_star, "X_star")
    S = check_matrix(S, "S")
    D = check_matrix(D, "D")
    p = X.shape[0]
    r = S.shape[0]
    if S.shape != (r, r) or np.linalg.norm(S - S.T) > 1e-10 * max(np.linalg.norm(S), 1e-300):
        raise InputContractError("S must be symmetric r x r")
    if D.shape != (p - r, r):
        raise InputContractError(f"D must have shape ({p - r}, {r}), got {D.shape}")
    U_full, lam = sym_eig(X)
    tol = 1e-10 * max(float(lam[0]), 1e-300)
    if int(np.sum(lam > tol)) != r:
        raise InputContractError(
            f"X must have rank exactly {r}, found {int(np.sum(lam > tol))} "
            f"eigenvalues above tolerance"
        )
    U = U_full[:, :r]
    U_perp = U_full[:, r:]
    xi = U @ S @ U.T + U_perp @ D @ U.T + U @ D.T @ U_perp.T
    correction = U_perp @ (D / lam[:r][None, :]) @ D.T @ U_perp.T
    return float(np.linalg.norm(xi) ** 2) + 2.0 * float(np.vdot(X - X_star, correction))


# ---------------------------------------------------------------------------
# Problem generation and serialization
# ---------------------------------------------------------------------------


def random_orthonormal(p: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random ``p x r`` orthonormal frame (QR of a Gaussian matrix)."""
    return _orthonormal(rng.standard_normal((p, r)))


def _orthonormal(G: np.ndarray) -> np.ndarray:
    """The Q factor of the QR of ``G``, or of each matrix of a ``(k, p, r)``
    stack, with each column's sign set so that the diagonal of R is
    nonnegative."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * np.sign(np.where(d == 0, 1.0, d))[..., None, :]


@dataclass(frozen=True)
class ProblemInstance:
    """A fully realized problem: objective handle, ground truth, raw data."""

    kind: str
    p: int
    r: int
    n: int
    seed: int
    noise_sigma: float
    spectrum: np.ndarray
    objective: ObjectiveHandle
    ground_truth: GroundTruth
    trace_regression: TraceRegressionObjective | None = None

    def to_document(self) -> dict:
        """Portable JSON document of format :data:`INSTANCE_FORMAT`. The
        sensing map is regenerated from the seed on load by the draw of that
        format (same seed, bit-identical operator on the same NumPy), so only
        the observations need to be stored."""
        y = [] if self.trace_regression is None else [float(v) for v in self.trace_regression.y]
        return {
            "format": INSTANCE_FORMAT,
            "kind": self.kind,
            "p": self.p,
            "r": self.r,
            "n": self.n,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "spectrum": [float(s) for s in self.spectrum],
            "y": y,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_document(), sort_keys=True, **kwargs)


def _truth_from_seed(p: int, r: int, seed: int, spectrum: np.ndarray) -> FactorPoint:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    return FactorPoint(random_orthonormal(p, r, rng) * np.asarray(spectrum)[None, :])


def _sensing_from_seed(p: int, n: int, seed: int) -> np.ndarray:
    """The packed sensing map of ``(p, n, seed)`` (see
    :class:`TraceRegressionObjective`), drawn as one ``(n, p(p+1)/2)``
    standard normal array from ``SeedSequence([seed, 1])`` and divided in
    place by ``sqrt(n)`` at the diagonal positions and by ``sqrt(2n)``
    elsewhere. The entries of each ``A_i`` are then independent, ``N(0,
    1/n)`` on the diagonal and ``N(0, 1/(2n))`` off it: the law of ``(G +
    G.T) / (2 sqrt(n))`` for a standard Gaussian ``p x p`` matrix ``G``.
    This is the draw of instance document format :data:`INSTANCE_FORMAT`.

    The map is the one large array of an instance and has its own anonymous
    memory mapping, so the pages of a dropped instance go back to the system
    at once: glibc's malloc keeps a freed block of up to 32 MiB on its heap
    once its dynamic mmap threshold has risen to that size."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    q = p * (p + 1) // 2
    root = np.full(q, math.sqrt(2 * n))
    root[_triu(p)[2]] = math.sqrt(n)
    pages = mmap.mmap(-1, 8 * n * q, access=mmap.ACCESS_COPY)  # private, not shared
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as NumPy asks for its own large arrays
        with contextlib.suppress(OSError):  # refused by a kernel without huge pages
            pages.madvise(mmap.MADV_HUGEPAGE)
    packed = np.frombuffer(pages, dtype=float).reshape(n, q)
    rng.standard_normal(out=packed)
    packed /= root
    return packed


#: version of the sensing draw that an instance document's ``y`` was
#: observed through; a trace-regression document of another format is refused
INSTANCE_FORMAT = 2


#: bytes of the target matrix and the packed sensing map above which no
#: instance is built
MAX_INSTANCE_BYTES = 1 << 32


def _check_problem(kind: str, p: int, r: int, n: int, seed: int, noise_sigma: float) -> None:
    """Reject a problem before anything of its size is allocated."""
    if kind not in ("denoising", "trace_regression"):
        raise InputContractError(f"unknown problem kind {kind!r}")
    p, r = _check_int(p, "p", 1), _check_int(r, "r", 1)
    if r > p:
        raise InputContractError(f"invalid dimensions p={p}, r={r}")
    _check_int(seed, "seed", 0)
    if not noise_sigma >= 0.0:
        raise InputContractError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if kind == "denoising" and noise_sigma != 0.0:
        raise InputContractError(f"noise_sigma must be 0 for denoising, got {noise_sigma}")
    n = 0 if kind == "denoising" else _check_int(n, "trace regression n", 1)
    size = 8 * (p * p + n * p * (p + 1) // 2)
    if size > MAX_INSTANCE_BYTES:
        raise InputContractError(
            f"problem p={p}, n={n} needs {size} bytes, more than {MAX_INSTANCE_BYTES}"
        )


def _check_target(r: int, sigma1: float, name: str) -> None:
    """Reject a target whose Gram may overflow: ``r sigma_1^2`` must be finite."""
    if not math.isfinite(r * sigma1 * sigma1):
        raise InputContractError(f"{name} = {sigma1:.6g} is too large: r * ({name})^2 overflows")


def make_instance(
    kind: str,
    p: int,
    r: int,
    n: int = 0,
    kappa_star: float = 1.0,
    sigma_r_star: float = 1.0,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> ProblemInstance:
    """Generate a problem instance deterministically from its parameters.

    Independent sub-streams of the seed drive the ground truth, the sensing
    map and the noise, so the sensing operator depends only on
    ``(p, n, seed)``. Each trace-regression sensing matrix is symmetric with
    independent entries, ``N(0, 1/n)`` on the diagonal and ``N(0, 1/(2n))``
    off it, drawn as its upper triangle (:func:`_sensing_from_seed`).
    """
    _check_problem(kind, p, r, n, seed, noise_sigma)
    if not kappa_star >= 1.0:
        raise InputContractError(f"kappa_star must be >= 1, got {kappa_star}")
    if not sigma_r_star > 0.0:
        raise InputContractError(f"sigma_r_star must be > 0, got {sigma_r_star}")
    if r == 1 and kappa_star != 1.0:
        raise InputContractError("a rank-1 factor always has kappa_star = 1")
    name = "kappa_star * sigma_r_star"
    _check_target(r, kappa_star * sigma_r_star, name)
    spectrum = np.linspace(kappa_star * sigma_r_star, sigma_r_star, r)
    return _build_instance(kind, p, r, n, seed, noise_sigma, spectrum, None, name)


def instance_from_document(doc: dict) -> ProblemInstance:
    """Rebuild an instance from its JSON document.

    The ground truth and sensing map are regenerated from the stored seed;
    stored observations are used verbatim (the noise realization is data,
    not re-drawn). A trace-regression document must have ``format`` equal
    to :data:`INSTANCE_FORMAT`, since its ``y`` belongs to the map of that
    draw; a denoising document reads no map and needs no ``format``.
    """
    try:
        kind = doc["kind"]
        p, r, n, seed = (_json_number(doc[k], k, integer=True) for k in ("p", "r", "n", "seed"))
        noise_sigma = _json_number(doc["noise_sigma"], "noise_sigma")
        spectrum = _json_numbers(doc["spectrum"], "spectrum")
        y = _json_numbers(doc["y"], "y") if kind == "trace_regression" else None
    except KeyError as exc:
        raise InputContractError(f"instance document lacks {exc.args[0]!r}") from None
    _check_problem(kind, p, r, n, seed, noise_sigma)
    if kind == "trace_regression" and doc.get("format") != INSTANCE_FORMAT:
        raise InputContractError(
            f"a trace-regression instance document must have format {INSTANCE_FORMAT}, the sensing "
            "draw its y is observed through; regenerate the document with psdlandscape generate"
        )
    if spectrum.shape != (r,):
        raise InputContractError(f"spectrum must have length r={r}")
    if not np.all(spectrum > 0.0):
        raise InputContractError(f"spectrum entries must be > 0, got {spectrum.tolist()}")
    _check_target(r, float(spectrum.max()), "max(spectrum)")
    if kind == "trace_regression" and y.shape != (n,):
        raise InputContractError(f"y must have length n={n}")
    if kind == "denoising" and doc.get("y", []) != []:
        raise InputContractError("y must be empty or absent for denoising")
    return _build_instance(kind, p, r, n, seed, noise_sigma, spectrum, y, "max(spectrum)")


def _build_instance(
    kind: str,
    p: int,
    r: int,
    n: int,
    seed: int,
    noise_sigma: float,
    spectrum: np.ndarray,
    y: np.ndarray | None,
    name: str,
) -> ProblemInstance:
    """The instance of checked parameters. Trace-regression observations
    ``y`` are drawn from the seed when ``None``, else used verbatim. ``name``
    is the caller's field for the target's largest singular value."""
    Y_star = _truth_from_seed(p, r, seed, spectrum)
    if kind == "denoising":
        obj = DenoisingObjective(Y_star).handle()
        gt = GroundTruth.from_factor(Y_star, obj)
        return ProblemInstance(kind, p, r, 0, seed, 0.0, spectrum, obj, gt)
    culprit = f"{name} = {spectrum.max():.6g}" + ("" if y is None else " or the stored y")
    reg = TraceRegressionObjective._from_packed(_sensing_from_seed(p, n, seed), y)
    if y is None:
        rng_noise = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
        eps = rng_noise.standard_normal(n) * noise_sigma if noise_sigma > 0 else np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused with the gradient below
            reg.y = reg.apply_map(Y_star.gram()) + eps
    obj = reg.handle()
    try:
        gt = GroundTruth.from_factor(Y_star, obj)
    except InputContractError as exc:  # A(X*), y or the gradient at X* overflowed
        raise InputContractError(f"{culprit} is too large: {exc}") from None
    return ProblemInstance(
        kind, p, r, n, seed, noise_sigma, spectrum, obj, gt, trace_regression=reg
    )


# ---------------------------------------------------------------------------
# Restricted convexity / smoothness diagnostics
# ---------------------------------------------------------------------------


def random_symmetric_low_rank(
    p: int, max_rank: int, rng: np.random.Generator, unit: bool = False
) -> np.ndarray:
    """Random symmetric matrix of rank at most ``max_rank``."""
    k = min(max_rank, p)
    B = rng.standard_normal((p, k))
    C = rng.standard_normal((k, k))
    G = B @ ((C + C.T) / 2.0) @ B.T
    if unit:
        G = G / np.linalg.norm(G)
    return G


def rsc_rsm_estimate(obj: ObjectiveHandle, r: int, n_samples: int, seed: int) -> float:
    """Sampled lower bound for the restricted convexity/smoothness constant.

    Draws symmetric probes (rank <= 2r evaluation points, unit-norm rank
    <= 4r directions) and returns the largest observed deviation
    ``|hess_form(X)[G, G] - 1|``. This under-estimates the true constant;
    objectives on a different scale must be pre-normalized by the caller.
    On a least-squares handle the form is ``||A(G)||^2``, read in blocks of
    :data:`_PROBE_BLOCK` directions, one ``forward`` sweep each, and no
    evaluation point is drawn (see :func:`_probe_forms`).
    """
    _check_int(r, "r", 1)
    _check_int(n_samples, "n_samples", 1)
    _check_int(seed, "seed", 0)
    deviations = (abs(q - 1.0) for q in _probe_forms(obj, 2 * r, n_samples, seed))
    return functools.reduce(max, deviations, 0.0)


#: probes whose directions :func:`_probe_forms` maps in one ``forward`` sweep
_PROBE_BLOCK = 32


def _probe_forms(obj: ObjectiveHandle, rank: int, n_samples: int, seed: int):
    """``hess_form(X)[G, G]`` at ``n_samples`` seeded probes. On a custom
    handle each probe draws in turn a symmetric ``X`` of rank <= ``rank``
    and a unit-norm symmetric ``G`` of rank <= ``2 rank``, from the probe
    stream of ``seed`` (see :func:`~psdlandscape.kernels._stream`). A
    least-squares form does not read ``X``, so there only the ``G`` are
    drawn, and the probe draws depend on whether the handle has a map; the
    form is ``||A(G)||^2`` from one ``forward`` sweep per block of
    :data:`_PROBE_BLOCK` directions."""
    rng = _stream(seed, _PROBES)
    ls = obj.least_squares
    if ls is None:
        for _ in range(n_samples):
            X = random_symmetric_low_rank(obj.p, rank, rng)
            G = random_symmetric_low_rank(obj.p, 2 * rank, rng, unit=True)
            yield float(obj.euclid_hess_form(X, G, G))
        return
    for start in range(0, n_samples, _PROBE_BLOCK):
        Gs = np.empty((min(_PROBE_BLOCK, n_samples - start), obj.p, obj.p))
        for G in Gs:
            G[...] = random_symmetric_low_rank(obj.p, 2 * rank, rng, unit=True)
        yield from (float(np.vdot(f, f)) for f in ls.forward(Gs))


def restricted_strict_convexity_check(
    obj: ObjectiveHandle, r: int, n_samples: int, seed: int
) -> bool:
    """Probe whether the Hessian form is positive on low-rank directions.

    Samples symmetric ``X`` of rank <= r and nonzero symmetric ``G`` of
    rank <= 2r; returns ``True`` iff the form was strictly positive on
    every sample (a necessary-condition probe, not a proof).
    """
    _check_int(r, "r", 1)
    _check_int(n_samples, "n_samples", 1)
    _check_int(seed, "seed", 0)
    return not any(q <= 0.0 for q in _probe_forms(obj, r, n_samples, seed))

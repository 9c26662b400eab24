"""Objectives on PSD matrices and their lifts to the factor space.

Two concrete problem families are provided:

* the exact-factorization least-squares objective
  ``0.5 * ||Y Y.T - X*||_F^2`` (referred to as the *denoising* objective),
* symmetric matrix trace regression ``0.5 * ||A(X) - y||_2^2`` with a
  Gaussian sensing map normalized so that the Hessian form is a
  near-isometry on low-rank matrices.

Everything downstream consumes an :class:`ObjectiveHandle`, which exposes
the value, the (symmetric) Euclidean gradient and the Euclidean Hessian
bilinear form, and, for the two least-squares families, the residual and
the adjoint and images of its linear map (:class:`LeastSquaresMap`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputContractError, NumericalFailure
from .geometry import FactorPoint, HorizontalTangent, same_base
from .kernels import _check_int, _json_number, _json_numbers, check_matrix, sym_eig
from .kernels import truncated_frob_norm

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
    "make_denoising",
    "make_trace_regression",
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
        ``X -> A(X) - y``, an array of any shape; ``f(X)`` is half its
        squared norm.
    adjoint : callable
        ``v -> A.T(v)``, a fresh ``p x p`` array; ``grad f(X)`` is the
        adjoint of the residual.
    images : callable
        ``Gs -> (F, N)`` for a ``(k, p, p)`` stack ``Gs``: ``F[j] = A(Gs[j])``
        and ``N[j] = A.T(A(Gs[j]))``, a symmetric ``p x p`` matrix.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    images: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


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
    p, r : int
        Ambient dimension and target rank of the problem.
    least_squares : LeastSquaresMap or None
        The least-squares structure of the same ``f``, for objectives that
        have one; ``None`` for custom handles.
    """

    value: Callable[[np.ndarray], float]
    euclid_grad: Callable[[np.ndarray], np.ndarray]
    euclid_hess_form: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    p: int
    r: int
    least_squares: LeastSquaresMap | None = None


def _least_squares_handle(
    p: int, r: int, y: np.ndarray, forward: Callable, adjoint: Callable, images: Callable
) -> ObjectiveHandle:
    """The handle of ``f(X) = 0.5 ||A(X) - y||^2`` from ``forward`` (``A``),
    ``adjoint`` (``A.T``, returning a fresh array) and ``images`` (see
    :class:`LeastSquaresMap`)."""

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

    return ObjectiveHandle(value, grad, hess_form, p, r, LeastSquaresMap(residual, adjoint, images))


class DenoisingObjective:
    """``f(X) = 0.5 * ||X - X*||_F^2`` for the target ``X* = Y* Y*.T`` of a
    full-rank factor ``Y*``, whose cached Gram is the target itself."""

    def __init__(self, Y_star: FactorPoint):
        if not isinstance(Y_star, FactorPoint):
            raise InputContractError(f"Y_star must be a FactorPoint, got {type(Y_star).__name__}")
        self.Y_star = Y_star

    @property
    def X_star(self) -> np.ndarray:
        return self.Y_star.gram()

    def handle(self) -> ObjectiveHandle:
        # A is the identity; its adjoint copies, so a gradient never aliases the residual
        p, r = self.Y_star.p, self.Y_star.r
        return _least_squares_handle(p, r, self.X_star, np.asarray, np.copy, lambda Gs: (Gs, Gs))


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
    square ``X``."""
    X = np.asarray(X, dtype=float)
    upper, lower, diag = _triu(X.shape[0])
    flat = X.reshape(-1)
    c = flat[upper] + flat[lower]
    c[diag] = flat[upper[diag]]
    return c


def _unpacked(u: np.ndarray, p: int) -> np.ndarray:
    """The symmetric ``p x p`` matrix whose upper triangle is ``u``."""
    upper, lower, _ = _triu(p)
    M = np.empty(p * p)
    M[upper] = u
    M[lower] = u
    return M.reshape(p, p)


def _apply_packed(packed: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A(X)_i = <A_i, X>`` for symmetric ``A_i`` stored as packed upper
    triangles."""
    return packed @ _packed_coefficients(X)


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

    def __init__(self, sensing: np.ndarray, y: np.ndarray, r: int, noise_sigma: float = 0.0):
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
        self._adopt(packed, y, r, noise_sigma)

    @classmethod
    def _from_packed(
        cls, packed: np.ndarray, y: np.ndarray, r: int, noise_sigma: float
    ) -> "TraceRegressionObjective":
        obj = cls.__new__(cls)
        obj._adopt(packed, y, r, noise_sigma)
        return obj

    def _adopt(self, packed: np.ndarray, y: np.ndarray, r: int, noise_sigma: float) -> None:
        y = np.asarray(y, dtype=float)
        if y.shape != (packed.shape[0],):
            raise InputContractError(f"y must have shape ({packed.shape[0]},)")
        if not np.all(np.isfinite(y)):
            raise InputContractError("y contains non-finite entries")
        self.packed = packed
        self.y = y
        self.r = r
        self.noise_sigma = float(noise_sigma)

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    @property
    def p(self) -> int:
        return (math.isqrt(8 * self.packed.shape[1] + 1) - 1) // 2

    @functools.cached_property
    def sensing(self) -> np.ndarray:
        """The sensing matrices as a read-only ``(n, p, p)`` array."""
        upper, lower, _ = _triu(self.p)
        full = np.empty((self.n, self.p * self.p))
        full[:, upper] = self.packed
        full[:, lower] = self.packed
        full = full.reshape(self.n, self.p, self.p)
        full.flags.writeable = False
        return full

    def apply_map(self, X: np.ndarray) -> np.ndarray:
        """Forward map ``A(X)_i = <A_i, X>``."""
        return _apply_packed(self.packed, X)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint map ``A.T(v) = sum_i v_i A_i``."""
        return _unpacked(np.asarray(v, dtype=float) @ self.packed, self.p)

    def images(self, Gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A(G_j))_j`` as a ``(k, n)`` array and ``(A.T(A(G_j)))_j`` as a
        ``(k, p, p)`` array, for a ``(k, p, p)`` stack ``Gs``, from one sweep
        over the map: each row block gives its forward images ``x = blk @ c``
        and adds ``x.T @ blk`` to the normal images before the next block is
        read."""
        c = np.stack([_packed_coefficients(G) for G in Gs], axis=1)
        n, q = self.packed.shape
        forward = np.empty((c.shape[1], n))
        normal = np.zeros((c.shape[1], q))
        rows = max(1, _SWEEP_BYTES // (8 * q))
        for i in range(0, n, rows):
            blk = self.packed[i : i + rows]
            x = blk @ c
            forward[:, i : i + rows] = x.T
            normal += x.T @ blk
        return forward, np.stack([_unpacked(u, self.p) for u in normal])

    def handle(self) -> ObjectiveHandle:
        return _least_squares_handle(
            self.p, self.r, self.y, self.apply_map, self.adjoint, self.images
        )


@dataclass(frozen=True)
class GroundTruth:
    """The rank-``r`` target factor with its cached spectral quantities."""

    Y_star: FactorPoint
    X_star: np.ndarray
    sigma1_star: float
    sigmar_star: float
    kappa_star: float
    grad_at_star_trunc: float

    @classmethod
    def from_factor(cls, Y_star: FactorPoint, obj: ObjectiveHandle) -> "GroundTruth":
        X_star = Y_star.gram()
        noise = truncated_frob_norm(obj.euclid_grad(X_star), Y_star.r)
        return cls(
            Y_star=Y_star,
            X_star=X_star,
            sigma1_star=Y_star.sigma_max,
            sigmar_star=Y_star.sigma_min,
            kappa_star=Y_star.sigma_max / Y_star.sigma_min,
            grad_at_star_trunc=noise,
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


def _lift(Y: FactorPoint, theta: np.ndarray) -> np.ndarray:
    """``C(theta) = Y theta.T + theta Y.T`` for one ``(p, r)`` array, or the
    ``(m, p, p)`` stack of them for an ``(m, p, r)`` stack."""
    T = Y.Y @ np.swapaxes(theta, -1, -2)
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
    th = theta.theta
    X = Y.gram()
    C = _lift(Y, th)
    return float(obj.euclid_hess_form(X, C, C)) + 2.0 * float(np.vdot(_sym_grad(obj, X) @ th, th))


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
    Q, R = np.linalg.qr(rng.standard_normal((p, r)))
    return Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))[None, :]


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
    denoising: DenoisingObjective | None = None

    def to_document(self) -> dict:
        """Portable JSON document. Sensing matrices are regenerated from the
        seed on load (same seed, bit-identical operator), so only the
        observations need to be stored."""
        y = [] if self.trace_regression is None else [float(v) for v in self.trace_regression.y]
        return {
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
    :class:`TraceRegressionObjective`). Each ``(n, p, p)`` Gaussian chunk
    keeps only the upper triangle of its symmetrization: consecutive draws
    of a generator equal one draw of their total size, so the entries are
    those of one full draw, and no ``(n, p, p)`` array is built."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    upper, lower, _ = _triu(p)
    packed = np.empty((n, len(upper)))
    chunks = _sample_chunks(n, p)
    draw = np.empty((chunks[0].stop, p * p))
    for c in chunks:
        G = rng.standard_normal(out=draw[: c.stop - c.start])
        packed[c] = G[:, upper]
        packed[c] += G[:, lower]
        packed[c] /= 2.0 * np.sqrt(n)
    return packed


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
    ``(p, n, seed)``.
    """
    _check_problem(kind, p, r, n, seed, noise_sigma)
    if not kappa_star >= 1.0:
        raise InputContractError(f"kappa_star must be >= 1, got {kappa_star}")
    if not sigma_r_star > 0.0:
        raise InputContractError(f"sigma_r_star must be > 0, got {sigma_r_star}")
    if r == 1 and kappa_star != 1.0:
        raise InputContractError("a rank-1 factor always has kappa_star = 1")
    _check_target(r, kappa_star * sigma_r_star, "kappa_star * sigma_r_star")
    spectrum = np.linspace(kappa_star * sigma_r_star, sigma_r_star, r)
    return _build_instance(kind, p, r, n, seed, noise_sigma, spectrum, None)


def instance_from_document(doc: dict) -> ProblemInstance:
    """Rebuild an instance from its JSON document.

    The ground truth and sensing map are regenerated from the stored seed;
    stored observations are used verbatim (the noise realization is data,
    not re-drawn).
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
    if spectrum.shape != (r,):
        raise InputContractError(f"spectrum must have length r={r}")
    if not np.all(spectrum > 0.0):
        raise InputContractError(f"spectrum entries must be > 0, got {spectrum.tolist()}")
    _check_target(r, float(spectrum.max()), "max(spectrum)")
    if kind == "trace_regression" and y.shape != (n,):
        raise InputContractError(f"y must have length n={n}")
    return _build_instance(kind, p, r, n, seed, noise_sigma, spectrum, y)


def _build_instance(
    kind: str,
    p: int,
    r: int,
    n: int,
    seed: int,
    noise_sigma: float,
    spectrum: np.ndarray,
    y: np.ndarray | None,
) -> ProblemInstance:
    """The instance of checked parameters. Trace-regression observations
    ``y`` are drawn from the seed when ``None``, else used verbatim."""
    Y_star = _truth_from_seed(p, r, seed, spectrum)
    if kind == "denoising":
        den = DenoisingObjective(Y_star)
        obj = den.handle()
        gt = GroundTruth.from_factor(Y_star, obj)
        return ProblemInstance(kind, p, r, 0, seed, 0.0, spectrum, obj, gt, denoising=den)
    packed = _sensing_from_seed(p, n, seed)
    if y is None:
        rng_noise = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
        eps = rng_noise.standard_normal(n) * noise_sigma if noise_sigma > 0 else np.zeros(n)
        y = _apply_packed(packed, Y_star.gram()) + eps
    reg = TraceRegressionObjective._from_packed(packed, y, r, noise_sigma)
    obj = reg.handle()
    gt = GroundTruth.from_factor(Y_star, obj)
    return ProblemInstance(
        kind, p, r, n, seed, noise_sigma, spectrum, obj, gt, trace_regression=reg
    )


def make_denoising(
    p: int,
    r: int,
    kappa_star: float = 1.0,
    sigma_r_star: float = 1.0,
    seed: int = 0,
) -> tuple[DenoisingObjective, GroundTruth]:
    inst = make_instance("denoising", p, r, 0, kappa_star, sigma_r_star, 0.0, seed)
    return inst.denoising, inst.ground_truth


def make_trace_regression(
    p: int,
    r: int,
    n: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    kappa_star: float = 1.0,
    sigma_r_star: float = 1.0,
) -> tuple[TraceRegressionObjective, GroundTruth]:
    """Draw a trace-regression instance; see :func:`make_instance`."""
    inst = make_instance(
        "trace_regression", p, r, n, kappa_star, sigma_r_star, noise_sigma, seed
    )
    return inst.trace_regression, inst.ground_truth


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
    """
    _check_int(r, "r", 1)
    _check_int(n_samples, "n_samples", 1)
    _check_int(seed, "seed", 0)
    return max(0.0, *(abs(q - 1.0) for q in _probe_forms(obj, 2 * r, n_samples, seed)))


def _probe_forms(obj: ObjectiveHandle, rank: int, n_samples: int, seed: int):
    """``hess_form(X)[G, G]`` at ``n_samples`` seeded probes, drawn in turn:
    a symmetric ``X`` of rank <= ``rank`` and a unit-norm symmetric ``G`` of
    rank <= ``2 rank``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        X = random_symmetric_low_rank(obj.p, rank, rng)
        G = random_symmetric_low_rank(obj.p, 2 * rank, rng, unit=True)
        yield float(obj.euclid_hess_form(X, G, G))


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

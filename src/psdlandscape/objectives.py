"""Objectives on PSD matrices and their lifts to the factor space.

Two concrete problem families are provided:

* the exact-factorization least-squares objective
  ``0.5 * ||Y Y.T - X*||_F^2`` (referred to as the *denoising* objective),
* symmetric matrix trace regression ``0.5 * ||A(X) - y||_2^2`` with a
  Gaussian sensing map normalized so that the Hessian form is a
  near-isometry on low-rank matrices.

Everything downstream consumes an :class:`ObjectiveHandle`, which exposes
the value, the (symmetric) Euclidean gradient and the Euclidean Hessian
bilinear form, nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputContractError
from .geometry import FactorPoint, HorizontalTangent, same_base
from .kernels import check_matrix, sym_eig, truncated_frob_norm

__all__ = [
    "ObjectiveHandle",
    "DenoisingObjective",
    "TraceRegressionObjective",
    "GroundTruth",
    "ProblemInstance",
    "lifted_value",
    "riemannian_grad_lift",
    "riemannian_hess_quadform",
    "embedded_hess_quadform",
    "random_orthonormal",
    "ground_truth_factor",
    "make_denoising",
    "make_trace_regression",
    "make_instance",
    "instance_from_document",
    "rsc_rsm_estimate",
    "restricted_strict_convexity_check",
    "random_symmetric_low_rank",
]


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
    kind : str
        Problem family tag ("denoising", "trace_regression", or custom).
    """

    value: Callable[[np.ndarray], float]
    euclid_grad: Callable[[np.ndarray], np.ndarray]
    euclid_hess_form: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    p: int
    r: int
    kind: str = "custom"


class DenoisingObjective:
    """``f(X) = 0.5 * ||X - X*||_F^2`` for a PSD rank-``r`` target ``X*``."""

    def __init__(self, X_star: np.ndarray, r: int):
        X_star = check_matrix(X_star, "X_star")
        _, lam = sym_eig(X_star)
        lam_max = float(lam[0]) if lam[0] > 0 else 0.0
        tol = 1e-10 * max(lam_max, 1e-300)
        if lam_max <= 0 or float(lam[-1]) < -tol:
            raise InputContractError("X_star must be positive semidefinite")
        if int(np.sum(lam > tol)) != r:
            raise InputContractError(
                f"X_star must have rank exactly {r}, found {int(np.sum(lam > tol))}"
            )
        self.X_star = (X_star + X_star.T) / 2.0
        self.r = r

    def handle(self) -> ObjectiveHandle:
        X_star = self.X_star

        def value(X: np.ndarray) -> float:
            return 0.5 * float(np.linalg.norm(X - X_star) ** 2)

        def grad(X: np.ndarray) -> np.ndarray:
            return X - X_star

        def hess_form(X: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> float:
            return float(np.vdot(G1, G2))

        return ObjectiveHandle(value, grad, hess_form, X_star.shape[0], self.r, "denoising")


#: entries of ``n x p x p`` sample arrays that one chunk of samples may hold
_CHUNK_ENTRIES = 1 << 18


def _sample_chunks(n: int, p: int) -> list[slice]:
    """Slices of the ``n`` samples of ``p x p`` matrices, each at most
    :data:`_CHUNK_ENTRIES` entries (one sample at least)."""
    step = max(1, _CHUNK_ENTRIES // max(p * p, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class TraceRegressionObjective:
    """``f(X) = 0.5 * ||A(X) - y||_2^2`` with symmetric sensing matrices."""

    def __init__(self, sensing: np.ndarray, y: np.ndarray, r: int, noise_sigma: float = 0.0):
        sensing = np.asarray(sensing, dtype=float)
        if sensing.ndim != 3 or sensing.shape[1] != sensing.shape[2]:
            raise InputContractError(f"sensing must be (n, p, p), got {sensing.shape}")
        asym = np.sqrt(
            sum(
                np.linalg.norm(sensing[c] - np.transpose(sensing[c], (0, 2, 1))) ** 2
                for c in _sample_chunks(*sensing.shape[:2])
            )
        )
        if asym > 1e-12 * max(np.linalg.norm(sensing), 1e-300):
            raise InputContractError("sensing matrices must be symmetric")
        y = np.asarray(y, dtype=float)
        if y.shape != (sensing.shape[0],):
            raise InputContractError(f"y must have shape ({sensing.shape[0]},)")
        self.sensing = sensing
        self.y = y
        self.r = r
        self.noise_sigma = float(noise_sigma)

    @property
    def n(self) -> int:
        return self.sensing.shape[0]

    @property
    def p(self) -> int:
        return self.sensing.shape[1]

    def apply_map(self, X: np.ndarray) -> np.ndarray:
        """Forward map ``A(X)_i = <A_i, X>``."""
        return np.tensordot(self.sensing, X, axes=([1, 2], [0, 1]))

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint map ``A.T(v) = sum_i v_i A_i``."""
        return np.tensordot(v, self.sensing, axes=(0, 0))

    def handle(self) -> ObjectiveHandle:
        def value(X: np.ndarray) -> float:
            res = self.apply_map(X) - self.y
            return 0.5 * float(res @ res)

        def grad(X: np.ndarray) -> np.ndarray:
            return self.adjoint(self.apply_map(X) - self.y)

        def hess_form(X: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> float:
            return float(self.apply_map(G1) @ self.apply_map(G2))

        return ObjectiveHandle(value, grad, hess_form, self.p, self.r, "trace_regression")


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


def riemannian_grad_lift(obj: ObjectiveHandle, Y: FactorPoint) -> HorizontalTangent:
    """Horizontal lift of the Riemannian gradient: ``2 grad f(Y Y.T) @ Y``.

    Because the horizontal space is the orthogonal complement of the fiber
    directions, this coincides with the Euclidean gradient of the lifted
    objective, so factor-space gradient descent is simultaneously Euclidean
    and Riemannian.
    """
    G = obj.euclid_grad(Y.gram())
    G = (G + G.T) / 2.0
    return HorizontalTangent(2.0 * (G @ Y.Y), Y)


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
    hess = _HessianForm(obj, Y)
    lift = hess.lift(theta.theta)
    return hess(lift, lift)


class _HessianForm:
    """The Riemannian Hessian at ``Y`` as a bilinear form on lifts.

    ``b(theta1, theta2) = hess f(X)[C(theta1), C(theta2)] + 2 <R theta1, theta2>``
    with ``X = Y Y.T``, ``C(theta) = Y theta.T + theta Y.T`` and ``R`` the
    symmetrized Euclidean gradient at ``X``. On horizontal directions this
    is the Riemannian Hessian of the quotient; on all of ``R^{p x r}`` it is
    the Euclidean Hessian of ``Y -> f(Y Y.T)``. Arguments are not validated:
    callers pass arrays of the factor's shape.
    """

    def __init__(self, obj: ObjectiveHandle, Y: FactorPoint):
        self.obj = obj
        self.Y = Y.Y
        self.X = Y.gram()
        R = obj.euclid_grad(self.X)
        self.R = (R + R.T) / 2.0

    def lift(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(theta, C(theta))``: what :meth:`__call__` needs of one argument."""
        return theta, self.Y @ theta.T + theta @ self.Y.T

    def __call__(self, lift1: tuple[np.ndarray, np.ndarray], lift2: tuple[np.ndarray, np.ndarray]) -> float:
        (theta1, C1), (theta2, C2) = lift1, lift2
        return float(self.obj.euclid_hess_form(self.X, C1, C2)) + 2.0 * float(
            np.vdot(self.R @ theta1, theta2)
        )


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


def ground_truth_factor(
    p: int, r: int, kappa_star: float, sigma_r_star: float, rng: np.random.Generator
) -> FactorPoint:
    """Draw a target factor with the prescribed extreme singular values.

    The interior spectrum interpolates linearly between
    ``kappa_star * sigma_r_star`` and ``sigma_r_star``.
    """
    if kappa_star < 1.0:
        raise InputContractError(f"kappa_star must be >= 1, got {kappa_star}")
    if sigma_r_star <= 0.0:
        raise InputContractError(f"sigma_r_star must be > 0, got {sigma_r_star}")
    if r == 1 and kappa_star != 1.0:
        raise InputContractError("a rank-1 factor always has kappa_star = 1")
    spectrum = np.linspace(kappa_star * sigma_r_star, sigma_r_star, r)
    return FactorPoint(random_orthonormal(p, r, rng) * spectrum[None, :])


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
    # drawn chunk by chunk into one array: consecutive draws of a generator
    # equal one draw of their total size, and no second full-size copy exists
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    sensing = np.empty((n, p, p))
    for c in _sample_chunks(n, p):
        G = rng.standard_normal((c.stop - c.start, p, p))
        np.add(G, np.transpose(G, (0, 2, 1)), out=sensing[c])
        sensing[c] /= 2.0 * np.sqrt(n)
    return sensing


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
    if kind not in ("denoising", "trace_regression"):
        raise InputContractError(f"unknown problem kind {kind!r}")
    if p < 1 or r < 1 or r > p:
        raise InputContractError(f"invalid dimensions p={p}, r={r}")
    if r == 1 and kappa_star != 1.0:
        raise InputContractError("a rank-1 factor always has kappa_star = 1")
    spectrum = np.linspace(kappa_star * sigma_r_star, sigma_r_star, r)
    Y_star = _truth_from_seed(p, r, seed, spectrum)
    X_star = Y_star.gram()

    if kind == "denoising":
        den = DenoisingObjective(X_star, r)
        obj = den.handle()
        gt = GroundTruth.from_factor(Y_star, obj)
        return ProblemInstance(
            kind, p, r, 0, seed, 0.0, spectrum, obj, gt, denoising=den
        )

    if n < 1:
        raise InputContractError(f"trace regression needs n >= 1, got n={n}")
    sensing = _sensing_from_seed(p, n, seed)
    rng_noise = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    eps = rng_noise.standard_normal(n) * noise_sigma if noise_sigma > 0 else np.zeros(n)
    y = np.tensordot(sensing, X_star, axes=([1, 2], [0, 1])) + eps
    reg = TraceRegressionObjective(sensing, y, r, noise_sigma)
    obj = reg.handle()
    gt = GroundTruth.from_factor(Y_star, obj)
    return ProblemInstance(
        kind, p, r, n, seed, noise_sigma, spectrum, obj, gt, trace_regression=reg
    )


def instance_from_document(doc: dict) -> ProblemInstance:
    """Rebuild an instance from its JSON document.

    The ground truth and sensing map are regenerated from the stored seed;
    stored observations are used verbatim (the noise realization is data,
    not re-drawn).
    """
    try:
        kind = doc["kind"]
        p, r, n, seed = int(doc["p"]), int(doc["r"]), int(doc["n"]), int(doc["seed"])
        noise_sigma = float(doc["noise_sigma"])
        spectrum = np.asarray(doc["spectrum"], dtype=float)
        y = np.asarray(doc["y"], dtype=float) if kind == "trace_regression" else None
    except KeyError as exc:
        raise InputContractError(f"instance document lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InputContractError(f"malformed instance document: {exc}") from None
    if spectrum.shape != (r,):
        raise InputContractError(f"spectrum must have length r={r}")
    Y_star = _truth_from_seed(p, r, seed, spectrum)
    X_star = Y_star.gram()
    if kind == "denoising":
        den = DenoisingObjective(X_star, r)
        obj = den.handle()
        gt = GroundTruth.from_factor(Y_star, obj)
        return ProblemInstance(kind, p, r, 0, seed, 0.0, spectrum, obj, gt, denoising=den)
    if kind == "trace_regression":
        sensing = _sensing_from_seed(p, n, seed)
        if y.shape != (n,):
            raise InputContractError(f"y must have length n={n}")
        reg = TraceRegressionObjective(sensing, y, r, noise_sigma)
        obj = reg.handle()
        gt = GroundTruth.from_factor(Y_star, obj)
        return ProblemInstance(
            kind, p, r, n, seed, noise_sigma, spectrum, obj, gt, trace_regression=reg
        )
    raise InputContractError(f"unknown problem kind {kind!r}")


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
    if n_samples < 1:
        raise InputContractError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    p = obj.p
    worst = 0.0
    for _ in range(n_samples):
        X = random_symmetric_low_rank(p, 2 * r, rng)
        G = random_symmetric_low_rank(p, 4 * r, rng, unit=True)
        worst = max(worst, abs(float(obj.euclid_hess_form(X, G, G)) - 1.0))
    return worst


def restricted_strict_convexity_check(
    obj: ObjectiveHandle, r: int, n_samples: int, seed: int
) -> bool:
    """Probe whether the Hessian form is positive on low-rank directions.

    Samples symmetric ``X`` of rank <= r and nonzero symmetric ``G`` of
    rank <= 2r; returns ``True`` iff the form was strictly positive on
    every sample (a necessary-condition probe, not a proof).
    """
    rng = np.random.default_rng(seed)
    p = obj.p
    for _ in range(max(1, n_samples)):
        X = random_symmetric_low_rank(p, r, rng)
        G = random_symmetric_low_rank(p, 2 * r, rng, unit=True)
        if float(obj.euclid_hess_form(X, G, G)) <= 0.0:
            return False
    return True

"""Gradient descent on the factor, spectral initialization, error bounds.

Because the horizontal lift of the Riemannian gradient equals the Euclidean
gradient of the lifted objective, plain gradient descent on the factor is
simultaneously the Riemannian method for the quotient geometry; no
retraction machinery is needed beyond staying full rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HypothesisViolationError,
    InitializationFailure,
    InputContractError,
    NotAFOSPError,
    NumericalFailure,
    RankCollapseError,
    StepSearchError,
)
from .geometry import FactorPoint, quotient_distance, vertical_project
from .kernels import sym_eig
from .landscape import (
    RegionLabel,
    RegionParams,
    _classify,
    hess_extreme_eigs,
)
from .objectives import (
    GroundTruth,
    ObjectiveHandle,
    TraceRegressionObjective,
    _lift,
    _sym_grad,
    lifted_value,
    riemannian_grad_lift,
)

__all__ = [
    "PerturbationSpec",
    "GDConfig",
    "TrajectoryRecord",
    "ErrorBoundResult",
    "riemannian_gd",
    "spectral_init",
    "error_bound_check",
]


#: Armijo sufficient-decrease constant, step shrink factor and trial cap of
#: the backtracking search
_ARMIJO_C1 = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class PerturbationSpec:
    """Saddle-escape settings: perturb when the gradient is small but the
    Hessian has certified negative curvature."""

    radius: float
    trigger_tol: float
    cooldown_iters: int = 10


@dataclass(frozen=True)
class GDConfig:
    """Gradient-descent configuration.

    ``step_size=None`` selects backtracking line search; a positive float
    selects that fixed step.
    """

    step_size: float | None = None
    max_iters: int = 1000
    grad_tol: float = 1e-8
    perturbation: PerturbationSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputContractError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise InputContractError("grad_tol must be > 0")
        if self.step_size is not None and self.step_size <= 0:
            raise InputContractError("step_size must be > 0")


@dataclass
class TrajectoryRecord:
    """Per-iterate diagnostics of one optimization run."""

    values: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    dists: list[float] = field(default_factory=list)
    regions: list[tuple[RegionLabel, ...]] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    perturbed: list[bool] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    final: FactorPoint | None = None

    def to_csv(self) -> str:
        def fmt(x: float) -> str:
            return format(float(x), ".17g")

        lines = ["iter,obj,grad_norm,dist_to_star,step,regions,perturbed_flag"]
        for k in range(len(self.values)):
            dist = fmt(self.dists[k]) if self.dists else ""
            regions = ";".join(lb.value for lb in self.regions[k]) if self.regions else ""
            step = fmt(self.steps[k]) if k < len(self.steps) else ""
            pert = "true" if (self.perturbed and self.perturbed[k]) else "false"
            lines.append(
                ",".join(
                    [str(k), fmt(self.values[k]), fmt(self.grad_norms[k]), dist, step, regions, pert]
                )
            )
        return "\n".join(lines) + "\n"


def _full_rank(Y: np.ndarray) -> FactorPoint | None:
    """The step's factor as a point, or ``None`` if it is not a finite full-rank factor."""
    try:
        return FactorPoint(Y)
    except InputContractError:
        return None


def _evaluate(
    obj: ObjectiveHandle, Y: FactorPoint, k: int, val: float | None
) -> tuple[float, np.ndarray | None, np.ndarray]:
    """The value, the residual (``None`` without least-squares structure) and
    the symmetrized Euclidean gradient at iterate ``k``, evaluated directly;
    without least-squares structure a known value ``val`` is kept."""
    X = Y.gram()
    try:
        if obj.least_squares is None:
            R = _sym_grad(obj, X)
            return (lifted_value(obj, Y) if val is None else val), None, R
        res = obj.least_squares.residual(X)
        return 0.5 * float(np.vdot(res, res)), res, _sym_grad(obj, X)
    except InputContractError as exc:
        # non-finite intermediates mid-run mean the iterates diverged
        raise NumericalFailure(f"gradient evaluation failed at iterate {k}: {exc}") from exc


def _trials(
    obj: ObjectiveHandle, Y: FactorPoint, G: np.ndarray, res: np.ndarray | None, R: np.ndarray
):
    """``(eta, cand) -> (value, carried)`` for the trial ``cand = Y - eta G``.

    On a least-squares handle the step moves ``X = Y Y.T`` to
    ``X - eta C + eta^2 D`` with ``C = Y G.T + G Y.T`` and ``D = G G.T``, so
    the one ``images`` call on ``[C, D]`` gives the value from the residual
    ``res`` at every trial, and the trial's residual and gradient are carried.
    Any other handle evaluates the value and carries nothing.
    """
    ls = obj.least_squares
    if ls is None:
        return lambda eta, cand: (lifted_value(obj, cand), None)
    (fC, fD), (nC, nD) = ls.images(np.stack([_lift(Y, G), G @ G.T]))

    def trial(eta: float, cand: FactorPoint) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        r = res - eta * fC + eta**2 * fD
        return 0.5 * float(np.vdot(r, r)), (r, R - eta * nC + eta**2 * nD)

    return trial


def riemannian_gd(
    obj: ObjectiveHandle,
    Y0: FactorPoint,
    cfg: GDConfig,
    gt: GroundTruth | None = None,
    params: RegionParams | None = None,
) -> TrajectoryRecord:
    """Gradient descent ``Y <- Y - eta * grad`` on the factor.

    Terminates when the gradient norm drops below ``cfg.grad_tol`` or after
    ``cfg.max_iters`` iterations. With ``cfg.perturbation`` set, a random
    horizontal kick of the configured radius is injected whenever the
    gradient is small but the horizontal Hessian has an eigenvalue below
    ``-trigger_tol`` (a strict saddle).

    Each iteration runs one trial loop: a fixed step is a single trial that
    is always accepted, and backtracking halves a warm-started Armijo step.
    The accepted trial's value is the next iterate's; on a least-squares
    objective (``obj.least_squares`` set) its residual and gradient are
    carried as well (see :func:`_trials`). They are evaluated directly at
    iterate 0, after a perturbation, at the last iterate and wherever the
    carried gradient is within ``cfg.grad_tol``, so a run ends on a directly
    evaluated iterate. Other handles evaluate the gradient at each iterate.

    Raises
    ------
    RankCollapseError
        If an accepted iterate leaves the full-rank set (fixed-step mode;
        backtracking treats rank-collapsing trials as failed steps).
    StepSearchError
        If backtracking cannot find an acceptable step.
    NumericalFailure
        If the iterates diverge.
    """
    rec = TrajectoryRecord()
    track = gt is not None
    pert = cfg.perturbation
    fixed = cfg.step_size is not None
    rng = np.random.default_rng(cfg.seed)
    Y = Y0
    val = None  # an accepted trial's value is the next iterate's
    carried = None  # least squares: the accepted trial's residual and gradient
    warm = None  # warm-started backtracking step
    cooldown = 0

    for k in range(cfg.max_iters + 1):
        G = None if carried is None else 2.0 * (carried[1] @ Y.Y)
        if G is None or np.linalg.norm(G) <= cfg.grad_tol or k == cfg.max_iters:
            # a run ends only on a directly evaluated iterate
            val, res, R = _evaluate(obj, Y, k, val)
            G = 2.0 * (R @ Y.Y)
        else:
            res, R = carried
        carried = None
        gnorm = float(np.linalg.norm(G))
        if not np.isfinite(val) or not np.isfinite(gnorm):
            raise NumericalFailure(f"iterates diverged at iterate {k}")
        rec.values.append(val)
        rec.grad_norms.append(gnorm)
        if track and params is None:
            rec.dists.append(quotient_distance(Y, gt.Y_star))
        elif track:
            labels, (dist, *_), _ = _classify(Y, gt, params)
            rec.dists.append(dist)
            rec.regions.append(tuple(sorted(labels, key=lambda lb: lb.value)))
        rec.perturbed.append(False)

        # a strict saddle is not convergence when escape is enabled; at most
        # one spectrum, computed only when convergence or escape reads it
        small = gnorm <= cfg.grad_tol
        saddle = (
            pert is not None
            and (small or (k < cfg.max_iters and gnorm < pert.trigger_tol and cooldown == 0))
            and hess_extreme_eigs(obj, Y).lambda_min < -pert.trigger_tol
        )
        if small and not saddle:
            rec.converged = True
            break
        if k == cfg.max_iters:
            break

        if saddle and gnorm < pert.trigger_tol:
            Z = rng.standard_normal(Y.Y.shape)
            kick = Z - vertical_project(Y, Z)
            Y = _full_rank(Y.Y + kick * (pert.radius / np.linalg.norm(kick)))
            if Y is None:
                raise RankCollapseError(
                    f"saddle-escape perturbation collapsed the rank at iterate {k}",
                    iteration=k,
                )
            val = None
            cooldown = pert.cooldown_iters
            rec.perturbed[-1] = True
            rec.steps.append(0.0)
            continue
        if cooldown > 0:
            cooldown -= 1

        # rank-collapsing trials count as rejected steps when backtracking
        trial = _trials(obj, Y, G, res, R)
        if fixed:
            eta = cfg.step_size
        else:
            eta = warm if warm is not None else 1.0 / (4.0 * Y.sigma_max**2)
        for _ in range(1 if fixed else _MAX_BACKTRACKS):
            cand = _full_rank(Y.Y - eta * G)
            if cand is not None:
                cand_val, cand_carried = trial(eta, cand)
                if fixed or cand_val <= val - _ARMIJO_C1 * eta * gnorm**2:
                    break
            elif fixed:
                raise RankCollapseError(
                    f"iterate {k + 1} left the full-rank set (step {eta:.3g})",
                    iteration=k + 1,
                )
            eta *= _SHRINK
        else:
            raise StepSearchError(
                f"backtracking exhausted {_MAX_BACKTRACKS} trials at iterate {k} "
                f"(gradient norm {gnorm:.3e})"
            )
        Y, val, carried = cand, cand_val, cand_carried
        rec.steps.append(eta)
        warm = eta * 2.0

    rec.iterations = len(rec.values) - 1
    rec.final = Y
    return rec


def spectral_init(obj: TraceRegressionObjective, r: int) -> FactorPoint:
    """Spectral initialization from the back-projected observations.

    Forms ``M = sum_i y_i A_i``, takes its top-``r`` eigenpairs with
    eigenvalues clipped below at ``1e-8 * lambda_1`` and returns
    ``U_r diag(lambda_r)^{1/2}``.

    Raises
    ------
    InitializationFailure
        If fewer than ``r`` eigenvalues exceed the floor.
    """
    M = obj.adjoint(obj.y)
    U, lam = sym_eig(M)
    if lam[0] <= 0.0:
        raise InitializationFailure("back-projected observations have no positive spectrum")
    floor = 1e-8 * float(lam[0])
    if int(np.sum(lam > floor)) < r:
        raise InitializationFailure(
            f"only {int(np.sum(lam > floor))} eigenvalues exceed the floor, need {r}"
        )
    lam_r = np.clip(lam[:r], floor, None)
    return FactorPoint(U[:, :r] * np.sqrt(lam_r)[None, :])


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
    ``||grad f(X*) Y*||_F`` in the numerator. ``holds`` compares with an
    absolute slack of ``1e-7 sigma_r(Y*)`` because the noiseless rhs
    is exactly zero while a numerically converged point sits at a tiny
    positive distance.
    """
    kap, sr = gt.kappa_star, gt.sigmar_star
    denom_margin = (1.0 - mu / kap) ** 2 - 7.0 * mu / 3.0
    if denom_margin <= 0.0:
        raise HypothesisViolationError(
            f"(1 - mu/kappa*)^2 - 7 mu/3 = {denom_margin:.6g} <= 0"
        )
    if fosp_tol is None:
        fosp_tol = 1e-6 * sr**3
    gnorm = riemannian_grad_lift(obj, Y_hat).norm
    if gnorm > fosp_tol:
        raise NotAFOSPError(gnorm, fosp_tol)
    lhs = quotient_distance(Y_hat, gt.Y_star)
    r1_radius = mu * sr / kap
    if lhs > r1_radius * (1.0 + 1e-9):
        raise InputContractError(
            f"stationary point lies outside R1: distance {lhs:.3e} > {r1_radius:.3e}"
        )
    denom = denom_margin * sr**2
    rhs = 2.0 * gt.sigma1_star * gt.grad_at_star_trunc / denom
    grad_star = obj.euclid_grad(gt.X_star)
    rhs_mid = 2.0 * float(np.linalg.norm(grad_star @ gt.Y_star.Y)) / denom
    slack = 1e-7 * sr
    return ErrorBoundResult(
        lhs=float(lhs),
        rhs=float(rhs),
        rhs_mid=float(rhs_mid),
        holds=bool(lhs <= rhs + slack),
        holds_mid=bool(lhs <= rhs_mid + slack),
    )


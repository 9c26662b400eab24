"""Gradient descent on the factor and spectral initialization.

Because the horizontal lift of the Riemannian gradient equals the Euclidean
gradient of the lifted objective, plain gradient descent on the factor is
simultaneously the Riemannian method for the quotient geometry; no
retraction machinery is needed beyond staying full rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InitializationFailure,
    InputContractError,
    NumericalFailure,
    RankCollapseError,
    StepSearchError,
)
from .geometry import FactorPoint, quotient_distance, vertical_project
from .kernels import _KICKS, _check_int, _stream, sym_eig
from .landscape import RegionLabel, RegionParams, _classify, _fmt, hess_extreme_eigs
from .objectives import GroundTruth, ObjectiveHandle, _lift, _sym_grad, lifted_value

__all__ = [
    "PerturbationSpec",
    "GDConfig",
    "TrajectoryRecord",
    "riemannian_gd",
    "spectral_init",
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

    def __post_init__(self):
        if not self.radius > 0:
            raise InputContractError(f"perturbation radius must be > 0, got {self.radius}")
        if not self.trigger_tol > 0:
            raise InputContractError(f"trigger_tol must be > 0, got {self.trigger_tol}")
        _check_int(self.cooldown_iters, "cooldown_iters", 0)


@dataclass(frozen=True)
class GDConfig:
    """Gradient-descent configuration.

    ``step_size=None`` selects backtracking line search; a positive float
    selects that fixed step. ``seed`` draws the saddle-escape kicks, from a
    stream of their own (see :func:`~psdlandscape.kernels._stream`).
    """

    step_size: float | None = None
    max_iters: int = 1000
    grad_tol: float = 1e-8
    perturbation: PerturbationSpec | None = None
    seed: int = 0

    def __post_init__(self):
        _check_int(self.max_iters, "max_iters", 1)
        _check_int(self.seed, "seed", 0)
        if not self.grad_tol > 0:
            raise InputContractError("grad_tol must be > 0")
        if self.step_size is not None and not self.step_size > 0:
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
    #: the symmetrized gradient at ``final``, evaluated directly
    _final_grad: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_csv(self) -> str:
        lines = ["iter,obj,grad_norm,dist_to_star,step,regions,perturbed_flag"]
        for k in range(len(self.values)):
            dist = _fmt(self.dists[k]) if self.dists else ""
            regions = ";".join(lb.value for lb in self.regions[k]) if self.regions else ""
            step = _fmt(self.steps[k]) if k < len(self.steps) else ""
            pert = "true" if (self.perturbed and self.perturbed[k]) else "false"
            lines.append(
                ",".join(
                    [str(k), _fmt(self.values[k]), _fmt(self.grad_norms[k]), dist, step, regions, pert]
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
    a least-squares gradient is the adjoint of the residual, and without
    least-squares structure a known value ``val`` is kept."""
    X = Y.gram()
    try:
        if obj.least_squares is None:
            R = _sym_grad(obj, X)
            return (lifted_value(obj, Y) if val is None else val), None, R
        res = obj.least_squares.residual(X)
        G = obj.least_squares.adjoint(res)
        return 0.5 * float(np.vdot(res, res)), res, (G + G.T) / 2.0
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
    rng = _stream(cfg.seed, _KICKS)
    Y = Y0
    val = None  # an accepted trial's value is the next iterate's
    carried = None  # least squares: the accepted trial's residual and gradient
    warm = None  # warm-started backtracking step
    cooldown = 0

    for k in range(cfg.max_iters + 1):
        G = None if carried is None else 2.0 * (carried[1] @ Y.Y)
        direct = G is None or np.linalg.norm(G) <= cfg.grad_tol or k == cfg.max_iters
        if direct:
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
            ((labels, (dist, *_), _),) = _classify([Y], gt, params)
            rec.dists.append(dist)
            rec.regions.append(tuple(sorted(labels, key=lambda lb: lb.value)))
        rec.perturbed.append(False)

        # a strict saddle is not convergence when escape is enabled; at most
        # one spectrum, computed only when convergence or escape reads it,
        # and reading a directly evaluated gradient (a carried one differs
        # from it in the last bits)
        small = gnorm <= cfg.grad_tol
        saddle = (
            pert is not None
            and (small or (k < cfg.max_iters and gnorm < pert.trigger_tol and cooldown == 0))
            and hess_extreme_eigs(obj, Y, grad=R if direct else None).lambda_min
            < -pert.trigger_tol
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
    rec._final_grad = R  # a run ends on a directly evaluated iterate
    return rec


def spectral_init(obj: ObjectiveHandle, r: int) -> FactorPoint:
    """Spectral initialization from ``M = -grad f(0)``.

    On least squares ``M`` is the back-projection ``A.T(y)`` of the
    observations. Takes the top-``r`` eigenpairs of ``M`` with eigenvalues
    clipped below at ``1e-8 * lambda_1`` and returns
    ``U_r diag(lambda_r)^{1/2}``.

    Raises
    ------
    InitializationFailure
        If fewer than ``r`` eigenvalues exceed the floor.
    """
    _check_int(r, "r", 1)
    M = -_sym_grad(obj, np.zeros((obj.p, obj.p)))
    U, lam = sym_eig(M)
    if lam[0] <= 0.0:
        raise InitializationFailure("-grad f(0) has no positive spectrum")
    floor = 1e-8 * float(lam[0])
    if int(np.sum(lam > floor)) < r:
        raise InitializationFailure(
            f"only {int(np.sum(lam > floor))} eigenvalues exceed the floor, need {r}"
        )
    lam_r = np.clip(lam[:r], floor, None)
    return FactorPoint(U[:, :r] * np.sqrt(lam_r)[None, :])

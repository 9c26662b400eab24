"""Output checks for the benchmark, computed independently of psdlandscape.

Every check compares a CLI output file with a computation made here from
the problem's definition, or with a property the method must have. None of
them compares with a stored copy of earlier output, and none calls the code
path it checks:

* the Hessian spectrum is compared with a dense Euclidean Hessian of
  ``g(Y) = f(Y Y.T)`` built in closed form and restricted to a horizontal
  basis taken from the null space of ``theta -> Y.T theta - theta.T Y``;
* ``thresholds.json`` is recomputed from the paper's formulas, using the
  known target spectrum and the file's own ``delta_used``;
* scan rows are checked against the region predicates and bounds;
* trajectories are checked for the Armijo decrease at every step;
* suite summaries must report every instance as passed.

Each check raises :class:`CheckFailed` with a message naming what differs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

#: the curvature margin constant 2 (sqrt(2) - 1) of the R2 bound
SQRT2M1_TIMES_2 = 2.0 * (math.sqrt(2.0) - 1.0)

#: Armijo constant of the CLI's backtracking search (it sets no other)
ARMIJO_C1 = 1e-4

SCAN_HEADER = [
    "point_id", "region_labels", "dist_to_star", "grad_H_norm", "grad_h_norm",
    "lambda_min", "lambda_max", "bound_value", "margin", "pass",
]
LABELS = {"R1", "R2", "R3'", "R3''", "R3'''"}


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# Dense Hessian oracle
# ---------------------------------------------------------------------------
# Factors are vectorized row-major: entry (a, b) of a p x r matrix sits at
# index a * r + b, which is numpy's ravel order.


def sensing_matrix(sensing: np.ndarray) -> np.ndarray:
    """The sensing map as an ``n x p^2`` matrix acting on ``vec(X)``."""
    n, p, _ = sensing.shape
    return sensing.reshape(n, p * p)


def euclid_grad(X: np.ndarray, X_star: np.ndarray, sensing: np.ndarray | None) -> np.ndarray:
    """Gradient of ``f`` at ``X``: ``X - X*`` for denoising,
    ``A^T (A(X) - A(X*))`` for noiseless trace regression."""
    if sensing is None:
        return X - X_star
    A = sensing_matrix(sensing)
    p = X.shape[0]
    return (A.T @ (A @ (X - X_star).ravel())).reshape(p, p)


def lifted_value(Y: np.ndarray, X_star: np.ndarray, sensing: np.ndarray | None) -> float:
    """``g(Y) = f(Y Y.T)`` for the same two objectives."""
    D = Y @ Y.T - X_star
    if sensing is None:
        return 0.5 * float(np.sum(D * D))
    res = sensing_matrix(sensing) @ D.ravel()
    return 0.5 * float(res @ res)


def dense_euclid_hessian(
    Y: np.ndarray, X_star: np.ndarray, sensing: np.ndarray | None
) -> np.ndarray:
    """The ``pr x pr`` Hessian of ``g(Y) = f(Y Y.T)``.

    ``d^2 g[D, D] = d^2 f(X)[Y D.T + D Y.T, Y D.T + D Y.T] + 2 <grad f(X), D D.T>``.
    With ``J`` the matrix of ``D -> Y D.T + D Y.T`` the first term is
    ``J.T J`` for denoising and ``(A J).T (A J)`` for trace regression; the
    second is ``2 kron(grad f(X), I_r)``.
    """
    p, r = Y.shape
    eye = np.eye(p)
    J = (np.einsum("ib,ja->ijab", Y, eye) + np.einsum("ia,jb->ijab", eye, Y)).reshape(
        p * p, p * r
    )
    if sensing is not None:
        J = sensing_matrix(sensing) @ J
    R = euclid_grad(Y @ Y.T, X_star, sensing)
    R = (R + R.T) / 2.0
    return J.T @ J + 2.0 * np.kron(R, np.eye(r))


def horizontal_null_basis(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of ``{theta : Y.T theta symmetric}``."""
    p, r = Y.shape
    eye = np.eye(r)
    L = (np.einsum("ai,jb->ijab", Y, eye) - np.einsum("aj,ib->ijab", Y, eye)).reshape(
        r * r, p * r
    )
    _, s, Vt = np.linalg.svd(L)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    require(
        rank == r * (r - 1) // 2,
        f"skew map has rank {rank}, expected {r * (r - 1) // 2}",
    )
    return Vt[rank:].T


def horizontal_extremes(
    Y: np.ndarray, X_star: np.ndarray, sensing: np.ndarray | None
) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the Hessian on the horizontal space."""
    N = horizontal_null_basis(Y)
    H = dense_euclid_hessian(Y, X_star, sensing)
    lam = np.linalg.eigvalsh(N.T @ H @ N)
    return float(lam[0]), float(lam[-1])


def draw_r1_points(
    Y_star: np.ndarray, radius: float, count: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Points ``(Y* + theta) O`` with ``theta`` horizontal at ``Y*``,
    ``||theta|| < radius`` and ``O`` a random orthogonal matrix, so each lies
    inside the R1 ball of that radius."""
    N = horizontal_null_basis(Y_star)
    r = Y_star.shape[1]
    points = []
    for _ in range(count):
        theta = (N @ rng.standard_normal(N.shape[1])).reshape(Y_star.shape)
        theta *= radius * rng.uniform(0.2, 0.95) / np.linalg.norm(theta)
        Q, R = np.linalg.qr(rng.standard_normal((r, r)))
        points.append((Y_star + theta) @ (Q * np.sign(np.diag(R))[None, :]))
    return points


def check_spectrum(
    reported: tuple[float, float],
    oracle: tuple[float, float],
    rel_tol: float = 1e-8,
) -> None:
    """Reported ``(lambda_min, lambda_max)`` must match the oracle's to
    ``rel_tol`` times the spectral scale."""
    scale = max(abs(oracle[0]), abs(oracle[1]))
    for name, got, want in zip(("lambda_min", "lambda_max"), reported, oracle):
        require(
            abs(got - want) <= rel_tol * scale,
            f"{name} = {got:.17g}, dense oracle gives {want:.17g}",
        )


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


def expected_thresholds(
    spectrum: np.ndarray, params: dict, delta: float, noise: float = 0.0
) -> dict:
    """Every certified-bound quantity, from the paper's formulas.

    ``spectrum`` holds the singular values of the target factor, largest
    first; ``||X*||_F`` is the root of the sum of their fourth powers.
    """
    mu, alpha, beta, gamma = (params[k] for k in ("mu", "alpha", "beta", "gamma"))
    s1, sr = float(spectrum[0]), float(spectrum[-1])
    r = len(spectrum)
    kap = s1 / sr
    xnorm = math.sqrt(float(np.sum(np.asarray(spectrum, dtype=float) ** 4)))
    margin = (1.0 - mu / kap) ** 2 - 7.0 * mu / 3.0
    top = s1 + mu * sr / kap
    corr = 4.0 * delta * top**2 + 14.0 * delta * mu * sr**2 / 3.0 + 2.0 * noise
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
    return {
        "delta_min": delta_min,
        "psi": psi,
        "r1_hess_lower": (2.0 * (1.0 - mu / kap) ** 2 - 14.0 * mu / 3.0) * sr**2 - corr,
        "r1_hess_upper": 4.0 * top**2 + 14.0 * mu * sr**2 / 3.0 + corr,
        "r2_curvature_upper": (alpha - SQRT2M1_TIMES_2) * sr**2
        + 2.0 * delta * (2.0 * beta**2 * s1**2 + (1.0 + gamma) * xnorm)
        + 2.0 * noise,
        "r3_grad_lowers": [
            alpha * mu * sr**3 / (8.0 * kap),
            (beta**3 - beta) * s1**3,
            (gamma - 1.0) * math.sqrt(gamma) * xnorm**1.5 / math.sqrt(r),
        ],
        "delta_composite_bound": min(
            margin / (4.0 * (2.0 * (kap + mu / kap) ** 2 + 7.0 * mu / 3.0)),
            (SQRT2M1_TIMES_2 - alpha) * sr**2
            / (8.0 * (2.0 * beta**2 * s1**2 + (1.0 + gamma) * xnorm)),
            delta_min,
        ),
        "noise_composite_bound": min(
            margin * sr**2 / 4.0, (SQRT2M1_TIMES_2 - alpha) * sr**2 / 8.0, psi
        ),
        "delta_used": delta,
        "noise_at_target": noise,
    }


def check_thresholds(doc: dict, spectrum: np.ndarray, params: dict, sampled_delta: bool) -> dict:
    """Compare ``thresholds.json`` with :func:`expected_thresholds`.

    Noiseless problems have zero gradient at the target, so the noise term
    must vanish. Denoising uses ``delta = 0``; trace regression uses the
    file's sampled constant, which must be positive. The gate must say
    "certified" exactly when both composite bounds hold. Returns the
    expected values.
    """
    delta = float(doc["delta_used"])
    if sampled_delta:
        require(0.0 < delta < 1.0, f"sampled delta_used = {delta} is not in (0, 1)")
    else:
        require(delta == 0.0, f"denoising delta_used = {delta}, expected 0")
    xnorm = math.sqrt(float(np.sum(np.asarray(spectrum) ** 4)))
    require(
        abs(float(doc["noise_at_target"])) <= 1e-12 * xnorm,
        f"noise_at_target = {doc['noise_at_target']} on a noiseless problem",
    )
    want = expected_thresholds(spectrum, params, delta)
    for key, value in want.items():
        got = doc[key]
        pairs = zip(got, value) if isinstance(value, list) else [(got, value)]
        for g, w in pairs:
            require(close(float(g), w, 1e-9, 1e-12), f"thresholds.{key} = {g}, formula gives {w}")
    certified = (
        delta <= want["delta_composite_bound"] and 0.0 <= want["noise_composite_bound"]
    )
    require(
        doc["gate"]["certified"] is certified,
        f"gate.certified = {doc['gate']['certified']}, expected {certified}",
    )
    return want


# ---------------------------------------------------------------------------
# Scan rows
# ---------------------------------------------------------------------------


def parse_scan(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == SCAN_HEADER, f"scan header is {rows[0] if rows else None}")
    out = []
    for raw in rows[1:]:
        require(len(raw) == len(SCAN_HEADER), f"scan row has {len(raw)} fields: {raw}")
        row = dict(zip(SCAN_HEADER, raw))
        for key in SCAN_HEADER[2:9]:
            row[key] = float(row[key])
        row["point_id"] = int(row["point_id"])
        row["labels"] = set(row.pop("region_labels").split(";"))
        require(row["pass"] in ("true", "false"), f"pass column reads {row['pass']!r}")
        row["pass"] = row["pass"] == "true"
        out.append(row)
    return out


def count_failed_points(text: str) -> int:
    """Points whose row says ``pass=false``."""
    return sum(1 for row in parse_scan(text) if not row["pass"])


def check_scan_rows(
    text: str,
    expected: dict,
    spectrum: np.ndarray,
    params: dict,
    samplers: list[str],
    n_points: int,
    denoising: bool,
) -> None:
    """Check every row against the region predicates and the bounds.

    * one row per point, in order;
    * R1 holds exactly when the distance is within the R1 radius; R2 and
      R3' agree with the gradient threshold; a point in the norm box is in
      neither R3'' nor R3''', and one outside it is in one of them;
    * ball and fiber rows are R1, scaled rows are R3''';
    * R1 rows have ``lambda_min <= lambda_max``, both inside the R1 bracket,
      and a margin no larger than either bracket margin; other rows carry no
      spectrum;
    * R3' rows have a margin no larger than their gradient-floor margin;
    * on denoising both gradient norms are equal;
    * ``pass`` is true exactly when the margin is nonnegative.
    """
    mu, alpha, beta, gamma = (params[k] for k in ("mu", "alpha", "beta", "gamma"))
    s1, sr = float(spectrum[0]), float(spectrum[-1])
    kap = s1 / sr
    xnorm = math.sqrt(float(np.sum(np.asarray(spectrum) ** 4)))
    delta = expected["delta_used"]
    r1_radius = mu * sr / kap
    grad_thresh = alpha * mu * sr**3 / (4.0 * kap)
    tol_curv = 1e-8 * sr**2
    tol_grad = 1e-8 * sr**3
    lo = expected["r1_hess_lower"] - tol_curv
    hi = expected["r1_hess_upper"] + tol_curv
    floor_r3p = (
        alpha * mu * sr**3 / (4.0 * kap) - 2.0 * delta * beta * (1.0 + gamma) * s1 * xnorm
    )

    rows = parse_scan(text)
    require(len(rows) == n_points, f"scan has {len(rows)} rows, expected {n_points}")
    for i, row in enumerate(rows):
        where = f"scan row {i}"
        labels = row["labels"]
        d, gH = row["dist_to_star"], row["grad_H_norm"]
        require(row["point_id"] == i, f"{where}: point_id {row['point_id']}")
        require(labels and labels <= LABELS, f"{where}: labels {sorted(labels)}")
        if not close(d, r1_radius, 1e-9):
            require(("R1" in labels) == (d <= r1_radius), f"{where}: R1 label vs d = {d}")
        if not close(gH, grad_thresh, 1e-9):
            small = gH <= grad_thresh
            require(not ("R2" in labels and not small), f"{where}: R2 with gradient {gH}")
            require(not ("R3'" in labels and small), f"{where}: R3' with gradient {gH}")
        if "R2" in labels:
            require(d > r1_radius, f"{where}: R2 inside the R1 radius")
        in_box = "R2" in labels or "R3'" in labels
        outside = "R3''" in labels or "R3'''" in labels
        if in_box:
            require(not outside, f"{where}: in the norm box and labelled {sorted(labels)}")
        elif d > r1_radius:
            require(outside, f"{where}: no region label applies")
        sampler = samplers[i % len(samplers)]
        if sampler in ("ball", "fiber"):
            require("R1" in labels, f"{where}: {sampler} point not in R1")
        if sampler == "scaled":
            require("R3'''" in labels, f"{where}: scaled point not in R3'''")
        lmin, lmax, margin = row["lambda_min"], row["lambda_max"], row["margin"]
        if "R1" in labels:
            require(lmin <= lmax, f"{where}: lambda_min {lmin} > lambda_max {lmax}")
            require(lo <= lmin and lmax <= hi, f"{where}: spectrum [{lmin}, {lmax}] outside [{lo}, {hi}]")
            slack = 1e-9 * max(abs(lo), abs(hi))
            require(margin <= min(lmin - lo, hi - lmax) + slack, f"{where}: margin {margin}")
        else:
            require(math.isnan(lmin) and math.isnan(lmax), f"{where}: spectrum on a non-R1 row")
        if "R3'" in labels:
            m = row["grad_h_norm"] - (floor_r3p - tol_grad)
            slack = 1e-9 * max(abs(floor_r3p), row["grad_h_norm"])
            require(margin <= m + slack, f"{where}: margin {margin} > R3' margin {m}")
        if denoising:
            require(gH == row["grad_h_norm"], f"{where}: grad_H_norm {gH} != grad_h_norm {row['grad_h_norm']}")
        require(row["pass"] == (margin >= 0.0), f"{where}: pass={row['pass']} with margin {margin}")


# ---------------------------------------------------------------------------
# Trajectory and final report
# ---------------------------------------------------------------------------


def parse_trajectory(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows, "trajectory.csv has no rows")
    return rows


def check_trajectory(text: str, report: dict, grad_tol: float) -> None:
    """Every accepted step satisfies the Armijo decrease
    ``f_{k+1} <= f_k - c1 * step_k * ||grad_k||^2``; the run converged with a
    final gradient within the tolerance; the final value of the noiseless
    problem is near 0 relative to the start; the error bound holds."""
    rows = parse_trajectory(text)
    obj = [float(r["obj"]) for r in rows]
    grad = [float(r["grad_norm"]) for r in rows]
    for k in range(len(rows) - 1):
        step = float(rows[k]["step"])
        require(step > 0.0, f"trajectory step {k} is {step}")
        bound = obj[k] - ARMIJO_C1 * step * grad[k] ** 2
        require(obj[k + 1] <= bound, f"step {k}: f = {obj[k + 1]!r} above Armijo bound {bound!r}")
    require(report["converged"] is True, "final_report: converged is not true")
    require(report["iterations"] == len(rows) - 1, "final_report: iteration count differs from trajectory")
    require(report["final_grad_norm"] == grad[-1] <= grad_tol, f"final gradient {grad[-1]} above {grad_tol}")
    require(report["final_value"] == obj[-1], "final_report: final value differs from trajectory")
    require(0.0 <= obj[-1] <= 1e-12 * obj[0], f"final value {obj[-1]} not near 0 (start {obj[0]})")
    require((report.get("error_bound") or {}).get("holds") is True, "final_report: error bound does not hold")


def gd_failed(report: dict | None) -> bool:
    """A GD run fails when it raised (no report) or did not converge."""
    return report is None or report.get("converged") is not True


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def check_suite(doc: dict, suite: str, instances: int, seed: int) -> None:
    require(doc["suite"] == suite, f"suite file names {doc['suite']!r}, expected {suite!r}")
    require(doc["instances"] == instances, f"{suite}: {doc['instances']} instances, expected {instances}")
    require(doc["seed"] == seed, f"{suite}: seed {doc['seed']}, expected {seed}")
    require(doc["passes"] == doc["instances"], f"{suite}: {doc['passes']}/{doc['instances']} passed")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())

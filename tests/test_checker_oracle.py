"""The benchmark's independent checker (``perfbench/checks.py``) as a
property oracle for ``scan`` and ``optimize`` at drawn configurations.

The checker recomputes the thresholds from the paper's formulas, checks
every scan row against the region predicates and bounds, compares R1
spectra with a closed-form dense Hessian, and checks each GD step for the
Armijo decrease. Configurations are drawn only where its premises hold:
noiseless problems, the default ball radius (so ball and fiber rows are
R1), trace-regression sizes whose sampled constant lies in ``(0, 1)``, and
starts away from the target.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from psdlandscape import landscape
from psdlandscape.cli import main
from psdlandscape.landscape import SAMPLERS, RegionLabel, horizontal_dim
from psdlandscape.objectives import make_instance

from perfbench import checks

# derandomized so that every run of the suite draws the same configurations
ORACLE = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_runs = itertools.count()


@st.composite
def problems(draw):
    """A noiseless problem with horizontal dimension at most 60; trace
    regression gets ``n >= 100`` samples, at least ``p(p+1)/2``."""
    kind = draw(st.sampled_from(["denoising", "trace_regression"]))
    p = draw(st.integers(2, 10 if kind == "denoising" else 7))
    r = draw(st.integers(1, min(p, 4)))
    assume(horizontal_dim(p, r) <= 60)
    problem = {
        "kind": kind, "p": p, "r": r,
        "kappa_star": 1.0 if r == 1 else draw(st.floats(1.0, 3.0)),
        "sigma_r_star": 10.0 ** draw(st.floats(-1.0, 1.0)),
        "seed": draw(st.integers(0, 2**16)),
    }
    if kind == "trace_regression":
        problem["n"] = draw(st.integers(100, 300))
    return problem


@st.composite
def region_params(draw, kappa_star: float) -> dict:
    """Parameters inside the hypotheses, with a positive strong-convexity margin."""
    mu = draw(st.floats(0.02, 1.0 / 3.0))
    assume((1.0 - mu / kappa_star) ** 2 - 7.0 * mu / 3.0 > 0.01)
    return {
        "mu": mu,
        "alpha": draw(st.floats(0.05, 0.8)),
        "beta": draw(st.floats(1.1, 3.0)),
        "gamma": draw(st.floats(1.1, 3.0)),
    }


def _run(tmp_path, command: str, cfg: dict):
    out = tmp_path / f"run{next(_runs)}"
    out.mkdir()
    path = out / "config.json"
    path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
    return main([command, "--config", str(path)]), out


@ORACLE
@given(data=st.data())
def test_scan_agrees_with_the_checker(tmp_path, data):
    problem = data.draw(problems())
    params = data.draw(region_params(problem["kappa_star"]))
    order = data.draw(st.permutations(SAMPLERS))
    samplers = order[: data.draw(st.integers(1, len(SAMPLERS)))]
    n_points = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**16))
    points, certify = [], landscape._certify_rows
    scan = {"n_points": n_points, "samplers": samplers, "seed": seed}
    with pytest.MonkeyPatch.context() as patched:  # the certified points, for the spectra
        patched.setattr(
            landscape, "_certify_rows", lambda ids, pts, *args: points.extend(pts) or certify(ids, pts, *args)
        )
        code, out = _run(tmp_path, "scan", {"problem": problem, "region_params": params, "scan": scan})
    assert code in (0, 1)

    denoising = problem["kind"] == "denoising"
    sr = problem["sigma_r_star"]
    spectrum = np.linspace(problem["kappa_star"] * sr, sr, problem["r"])
    expected = checks.check_thresholds(
        checks.read_json(out / "thresholds.json"), spectrum, params, sampled_delta=not denoising
    )
    text = (out / "scan_report.csv").read_text()
    checks.check_scan_rows(text, expected, spectrum, params, samplers, n_points, denoising)
    assert checks.count_failed_points(text) == 0

    inst = make_instance(**problem)
    sensing = None if denoising else inst.trace_regression.sensing
    X_star = inst.ground_truth.X_star
    assert len(points) == n_points
    for row, Y in zip(checks.parse_scan(text), points):
        if RegionLabel.R1.value in row["labels"]:
            oracle = checks.horizontal_extremes(Y.Y, X_star, sensing)
            checks.check_spectrum((row["lambda_min"], row["lambda_max"]), oracle)


@ORACLE
@given(data=st.data())
def test_optimize_agrees_with_the_checker(tmp_path, data):
    problem = data.draw(problems())
    params = data.draw(region_params(problem["kappa_star"]))
    # gaussian starts only: a ball or spectral start has sigma_1(Y0) near
    # sigma_1*, so the backtracking steps 2^k / (4 sigma_1(Y0)^2) can settle
    # just under 2 / L, where GD oscillates and may not converge in max_iters
    # (denoising (3, 3), kappa* 3, seed 0, ball start at optimizer seed 334);
    # a denoising spectral start is the target itself, where the checker's
    # relative decrease cannot hold. The gradient scales as sigma_r^3, and so
    # does the tolerance
    grad_tol = 1e-9 * problem["sigma_r_star"] ** 3
    optimizer = {
        "init": "gaussian", "max_iters": 5000, "grad_tol": grad_tol,
        "seed": data.draw(st.integers(0, 2**16)),
    }
    code, out = _run(
        tmp_path, "optimize", {"problem": problem, "region_params": params, "optimizer": optimizer}
    )
    assert code == 0
    checks.check_trajectory(
        (out / "trajectory.csv").read_text(), checks.read_json(out / "final_report.json"), grad_tol
    )

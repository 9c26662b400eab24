"""Tests of the benchmark's own checks and tracer.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from psdlandscape import (
    FactorPoint,
    GDConfig,
    RegionParams,
    certify_landscape,
    compute_thresholds,
    hess_extreme_eigs,
    make_instance,
    riemannian_gd,
)
from psdlandscape.landscape import reports_to_csv

from perfbench import checks, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent
PARAMS = workloads.PARAMS


def small_problem(kind: str):
    if kind == "denoising":
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=3)
        return inst, None
    inst = make_instance("trace_regression", 5, 2, n=60, seed=3)
    return inst, inst.trace_regression.sensing


@pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
def test_oracle_hessian_matches_second_differences_of_g(kind):
    inst, sensing = small_problem(kind)
    X_star = inst.ground_truth.X_star
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((inst.p, inst.r))
    H = checks.dense_euclid_hessian(Y, X_star, sensing)
    N = checks.horizontal_null_basis(Y)
    t = 1e-4
    for direction in (rng.standard_normal(Y.shape), (N @ rng.standard_normal(N.shape[1])).reshape(Y.shape)):
        D = direction / np.linalg.norm(direction)
        quad = float(D.ravel() @ H @ D.ravel())
        g = [checks.lifted_value(Y + s * t * D, X_star, sensing) for s in (-1, 0, 1)]
        fd = (g[0] - 2.0 * g[1] + g[2]) / t**2
        assert abs(quad - fd) <= 1e-5 * max(abs(quad), 1.0)


def test_null_basis_is_horizontal_and_orthonormal():
    Y = np.random.default_rng(1).standard_normal((7, 3))
    N = checks.horizontal_null_basis(Y)
    assert N.shape == (21, 21 - 3)
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
    for k in range(N.shape[1]):
        M = Y.T @ N[:, k].reshape(7, 3)
        assert np.linalg.norm(M - M.T) <= 1e-12


@pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
def test_oracle_agrees_with_program_spectrum_and_catches_perturbation(kind):
    inst, sensing = small_problem(kind)
    Y_star = inst.ground_truth.Y_star.Y
    rng = np.random.default_rng(2)
    for Y in checks.draw_r1_points(Y_star, 0.05, 2, rng):
        est = hess_extreme_eigs(inst.objective, FactorPoint(Y))
        oracle = checks.horizontal_extremes(Y, Y_star @ Y_star.T, sensing)
        checks.check_spectrum((est.lambda_min, est.lambda_max), oracle)
        with pytest.raises(checks.CheckFailed, match="lambda_min"):
            checks.check_spectrum((est.lambda_min * (1 + 1e-6), est.lambda_max), oracle)
        with pytest.raises(checks.CheckFailed, match="lambda_max"):
            checks.check_spectrum((est.lambda_min, est.lambda_max * (1 - 1e-6)), oracle)


def test_r1_points_lie_in_the_ball():
    inst, _ = small_problem("denoising")
    gt = inst.ground_truth
    from psdlandscape import quotient_distance

    for Y in checks.draw_r1_points(gt.Y_star.Y, 0.07, 5, np.random.default_rng(4)):
        assert quotient_distance(FactorPoint(Y), gt.Y_star) < 0.07


def scan_outputs(n_points=16):
    inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=5)
    params = RegionParams(**PARAMS)
    reports = certify_landscape(inst.objective, inst.ground_truth, params, workloads.SAMPLERS, n_points, 9)
    doc = compute_thresholds(inst.ground_truth, params, 2).to_dict()
    doc["gate"] = {"certified": True}
    spectrum = np.linspace(2.0, 1.0, 2)
    return reports_to_csv(reports), doc, spectrum


def test_thresholds_match_the_program_and_catch_a_changed_field():
    _, doc, spectrum = scan_outputs(4)
    checks.check_thresholds(doc, spectrum, PARAMS, sampled_delta=False)
    bad = dict(doc, r1_hess_lower=doc["r1_hess_lower"] * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="r1_hess_lower"):
        checks.check_thresholds(bad, spectrum, PARAMS, sampled_delta=False)
    with pytest.raises(checks.CheckFailed, match="gate"):
        checks.check_thresholds(dict(doc, gate={"certified": False}), spectrum, PARAMS, False)


def edit_row(text: str, index: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[index + 1].split(",")
    fields[header.index(column)] = value
    lines[index + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_scan_rows_pass_and_each_corruption_is_caught():
    text, doc, spectrum = scan_outputs()
    expected = checks.check_thresholds(doc, spectrum, PARAMS, sampled_delta=False)

    def run(t):
        checks.check_scan_rows(t, expected, spectrum, PARAMS, workloads.SAMPLERS, 16, True)

    run(text)
    rows = checks.parse_scan(text)
    assert all("R1" in rows[i]["labels"] for i in (0, 1)) and "R3'''" in rows[2]["labels"]
    corrupt = [
        edit_row(text, 0, "region_labels", "R3'"),                      # ball point without R1
        edit_row(text, 2, "region_labels", "R3''"),                     # scaled point without R3'''
        edit_row(text, 0, "lambda_min", repr(expected["r1_hess_upper"] * 2)),  # min above max
        edit_row(text, 1, "lambda_max", repr(expected["r1_hess_upper"] * 2)),  # outside bracket
        edit_row(text, 0, "pass", "false"),                             # pass flag vs margin
        edit_row(text, 3, "grad_h_norm", repr(rows[3]["grad_h_norm"] * (1 + 1e-12))),
        edit_row(text, 2, "lambda_min", "0.5"),                         # spectrum on a non-R1 row
    ]
    for t in corrupt:
        with pytest.raises(checks.CheckFailed):
            run(t)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_scan_rows(text, expected, spectrum, PARAMS, workloads.SAMPLERS, 20, True)


def gd_outputs():
    inst = make_instance("denoising", 6, 2, kappa_star=1.5, seed=2)
    Y0 = FactorPoint(np.random.default_rng(0).standard_normal((6, 2)))
    rec = riemannian_gd(inst.objective, Y0, GDConfig(max_iters=5000, grad_tol=1e-10), gt=inst.ground_truth)
    report = {
        "converged": rec.converged, "iterations": rec.iterations,
        "final_grad_norm": rec.grad_norms[-1], "final_value": rec.values[-1],
        "error_bound": {"holds": True},
    }
    return rec.to_csv(), report


def test_trajectory_passes_and_a_raised_value_is_caught():
    text, report = gd_outputs()
    checks.check_trajectory(text, report, 1e-10)
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[1] = lines[4].split(",")[1]  # no decrease at all from the step before
    bad = "\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n"
    with pytest.raises(checks.CheckFailed, match="Armijo"):
        checks.check_trajectory(bad, report, 1e-10)
    with pytest.raises(checks.CheckFailed, match="converged"):
        checks.check_trajectory(text, dict(report, converged=False), 1e-10)
    with pytest.raises(checks.CheckFailed, match="error bound"):
        checks.check_trajectory(text, dict(report, error_bound={"holds": False}), 1e-10)
    assert checks.gd_failed(None) and checks.gd_failed({"converged": False})


def test_suite_check():
    doc = {"suite": "norm-sandwich", "instances": 10, "passes": 10, "seed": 4, "worst_rel_err": 0.0}
    checks.check_suite(doc, "norm-sandwich", 10, 4)
    with pytest.raises(checks.CheckFailed, match="9/10"):
        checks.check_suite(dict(doc, passes=9), "norm-sandwich", 10, 4)


def traced_scan():
    t = tracer.Tracer()
    inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
    with tracer.install(t):
        inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=1)
        certify_landscape(inst.objective, inst.ground_truth, RegionParams(**PARAMS), workloads.SAMPLERS, 8, 2)
    return t


def test_tracer_counts_repeat_and_originals_are_restored():
    import psdlandscape.landscape as landscape

    before = (landscape.hess_extreme_eigs, np.linalg.svd, FactorPoint.__init__)
    a = tracer.per_layer_metrics(traced_scan(), workloads.SUITES)
    b = tracer.per_layer_metrics(traced_scan(), workloads.SUITES)
    assert (landscape.hess_extreme_eigs, np.linalg.svd, FactorPoint.__init__) == before
    counts = [k for k, (_, unit) in a.items() if unit == "count"]
    assert {k: a[k][0] for k in counts} == {k: b[k][0] for k in counts}
    assert a["landscape.spectra"][0] == 4
    m = 6 * 2 - 1  # horizontal dimension
    assert a["landscape.hess_forms_per_spectrum"][0] == m + m * (m - 1) // 2
    assert a["geometry.factor_points"][0] > 0 and a["kernels.factorizations"][0] > 0


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    s = t.summary()
    assert s["inner"]["count"] == 3
    assert math.isclose(s["outer"]["self"] + s["inner"]["incl"], s["outer"]["incl"], rel_tol=1e-9)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.all_workloads())
    layer = tracer.per_layer_metrics(tracer.Tracer(), workloads.SUITES)
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}

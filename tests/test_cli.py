import json
import math
import subprocess
import sys

import numpy as np
import pytest

from psdlandscape.cli import main
from psdlandscape.landscape import SAMPLERS


def write_config(path, **overrides):
    cfg = {
        "problem": {
            "kind": "denoising",
            "p": 10,
            "r": 2,
            "kappa_star": 2.0,
            "sigma_r_star": 1.0,
            "seed": 7,
        },
        "region_params": {"mu": 0.2, "alpha": 0.5, "beta": 1.5, "gamma": 1.5},
        "scan": {"n_points": 8, "samplers": ["ball", "scaled", "gaussian"], "seed": 1},
        "optimizer": {"max_iters": 5000, "grad_tol": 1e-11, "seed": 3, "init": "gaussian"},
        "output_dir": str(path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    cfile = path / "config.json"
    cfile.write_text(json.dumps(cfg))
    return cfile


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "instance.json").read_text())
        assert doc["p"] == 10 and doc["r"] == 2
        assert len(doc["spectrum"]) == 2
        assert "provenance" in doc

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", "--config", str(cfg)])
        a = json.loads((tmp_path / "out" / "instance.json").read_text())
        main(["generate", "--config", str(cfg)])
        b = json.loads((tmp_path / "out" / "instance.json").read_text())
        a["provenance"].pop("timestamp")
        b["provenance"].pop("timestamp")
        assert a == b

    def test_instance_reads_an_integral_float_as_an_int(self, tmp_path):
        written = []
        for p in (4, 4.0):
            assert main(["generate", "--config", str(_instance(tmp_path, p=p))]) == 0
            text = (tmp_path / "out" / "instance.json").read_text()
            written.append([line for line in text.splitlines() if '"timestamp"' not in line])
        assert written[0] == written[1]

    def test_rank1_unit_spectrum(self, tmp_path):
        cfg = write_config(
            tmp_path, problem={"kind": "denoising", "p": 4, "r": 1, "kappa_star": 1.0}
        )
        assert main(["generate", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "instance.json").read_text())
        assert doc["spectrum"] == [1.0]

    def test_trace_regression_needs_n(self, tmp_path):
        cfg = write_config(
            tmp_path, problem={"kind": "trace_regression", "n": 0, "noise_sigma": 0.0}
        )
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = write_config(tmp_path, output_dir=str(blocker / "out"))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_null_output_dir_is_the_default(self, tmp_path, monkeypatch):
        # like instance_file, a JSON null stands for an absent key
        cfg = write_config(tmp_path, output_dir=None)
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "instance.json").exists()


class TestScan:
    def test_denoising_scan_green(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["scan", "--config", str(cfg)]) == 0
        csv = (tmp_path / "out" / "scan_report.csv").read_text()
        lines = csv.strip().split("\n")
        assert len(lines) == 9  # header + n_points
        thresholds = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert thresholds["gate"]["certified"] is True
        assert thresholds["r1_hess_lower"] > 0

    def test_alpha_out_of_range_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, region_params={"alpha": 1.0})
        assert main(["scan", "--config", str(cfg)]) == 2

    def test_mu_zero_warns_and_runs(self, tmp_path):
        cfg = write_config(tmp_path, region_params={"mu": 0.0}, scan={"n_points": 3})
        with pytest.warns(RuntimeWarning, match="mu = 0"):
            code = main(["scan", "--config", str(cfg)])
        assert code == 0

    def test_mu_zero_with_a_ball_radius_does_not_warn(self, tmp_path, capsys):
        # the ball has the configured radius, so its samples do not collapse
        cfg = write_config(
            tmp_path, region_params={"mu": 0.0}, scan={"n_points": 3, "ball_radius": 0.1}
        )
        code = main(["scan", "--config", str(cfg)])
        assert "mu = 0" not in capsys.readouterr().err
        assert code == 0

    @pytest.mark.parametrize("sigma_r_star", [1e45, 1e50, 1e52, 1e55, 1e76, 1e100])
    def test_scan_at_a_large_scale_certifies(self, tmp_path, sigma_r_star):
        # every norm a row reads is taken in units of a power of two near its
        # array's largest entry, so it is finite wherever its value is: the
        # gradient norms (sigma^3) and Gram norms (sigma^2) stay finite up to
        # 1e100, though their sums of squares overflow from 1e52 and 1e77;
        # no warning leaks
        problem = {"p": 8, "r": 2, "kappa_star": 1.0, "sigma_r_star": sigma_r_star, "seed": 1}
        cfg = write_config(tmp_path, problem=problem, scan={"samplers": SAMPLERS})
        assert main(["scan", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "scan_report.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert all(row.endswith(",true") for row in rows)

    def test_scan_from_instance_file(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", "--config", str(cfg)])
        cfg2 = write_config(
            tmp_path, instance_file=str(tmp_path / "out" / "instance.json")
        )
        assert main(["scan", "--config", str(cfg2)]) == 0

    def test_noiseless_trace_regression_scan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            problem={
                "kind": "trace_regression",
                "p": 10,
                "r": 2,
                "n": 10 * 10 * 2,
                "noise_sigma": 0.0,
                "seed": 5,
            },
            scan={"n_points": 6, "samplers": ["ball", "scaled"], "seed": 2},
        )
        assert main(["scan", "--config", str(cfg)]) == 0
        thresholds = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert thresholds["delta_used"] > 0
        csv = (tmp_path / "out" / "scan_report.csv").read_text()
        assert all(line.endswith(",true") for line in csv.strip().split("\n")[1:])

    def test_thresholds_are_computed_once(self, tmp_path, monkeypatch):
        # the gate, thresholds.json and the certified bounds share one report
        import psdlandscape.cli as cli_mod
        import psdlandscape.landscape as landscape_mod

        calls = []
        original = landscape_mod.compute_thresholds

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "compute_thresholds", counted)
        monkeypatch.setattr(landscape_mod, "compute_thresholds", counted)
        cfg = write_config(tmp_path, scan={"n_points": 4})
        assert main(["scan", "--config", str(cfg)]) == 0
        assert len(calls) == 1

    def test_finite_sample_gate_downgrades_to_statistical(self, tmp_path, capsys):
        # the sampled constant exceeds the composite bound at desk scale, so
        # the run is flagged statistical-only while the substituted checks run
        cfg = write_config(
            tmp_path,
            problem={
                "kind": "trace_regression",
                "p": 10,
                "r": 2,
                "n": 10 * 10 * 2,
                "noise_sigma": 0.0,
                "seed": 5,
            },
            scan={"n_points": 4, "samplers": ["ball"], "seed": 2},
        )
        code = main(["scan", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "statistical" in captured.err
        thresholds = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert thresholds["gate"]["certified"] is False
        assert "reason" in thresholds["gate"]


class TestOptimize:
    def test_denoising_run(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["optimize", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "out" / "final_report.json").read_text())
        assert final["converged"] is True
        assert final["final_dist_to_star"] < 1e-6
        assert final["error_bound"]["holds"] is True
        traj = (tmp_path / "out" / "trajectory.csv").read_text()
        assert traj.startswith("iter,obj,grad_norm,dist_to_star,step,regions,perturbed_flag")

    def test_the_error_bound_reads_the_final_gradient_of_the_run(self, tmp_path, monkeypatch):
        # GD's last iterate is evaluated directly, so the error-bound check
        # takes its gradient from the run: one forward and one adjoint sweep
        # fewer than a check that evaluates it again, and the same report
        from psdlandscape import cli
        from psdlandscape.objectives import TraceRegressionObjective

        sweeps = []
        for name in ("apply_map", "adjoint"):
            method = getattr(TraceRegressionObjective, name)
            monkeypatch.setattr(
                TraceRegressionObjective, name, lambda self, X, f=method: sweeps.append(X) or f(self, X)
            )
        problem = {"kind": "trace_regression", "p": 8, "r": 2, "n": 120, "noise_sigma": 0.0}
        reports = []
        for out in ("run", "evaluated"):
            cfg = write_config(tmp_path, problem=problem, optimizer={"init": "spectral"}, output_dir=str(tmp_path / out))
            if out == "evaluated":
                check = cli.error_bound_check
                monkeypatch.setattr(cli, "error_bound_check", lambda *args, grad=None, **kw: check(*args, **kw))
            sweeps.clear()
            assert main(["optimize", "--config", str(cfg)]) == 0
            reports.append(((tmp_path / out / "final_report.json").read_bytes(), len(sweeps)))
        (run, run_sweeps), (evaluated, evaluated_sweeps) = reports
        assert json.loads(run)["error_bound"]["holds"] is True
        assert run == evaluated and run_sweeps == evaluated_sweeps - 2

    def test_null_init_is_the_default_start(self, tmp_path):
        # a null init reads as absent: the gaussian start on denoising
        paths = []
        for i, init in enumerate([None, "gaussian"]):
            cfg = write_config(tmp_path, optimizer={"max_iters": 50, "init": init},
                               output_dir=str(tmp_path / f"out{i}"))
            assert main(["optimize", "--config", str(cfg)]) == 0
            paths.append(tmp_path / f"out{i}" / "trajectory.csv")
        assert paths[0].read_text() == paths[1].read_text()

    def test_start_and_first_kick_are_different_draws(self, tmp_path, monkeypatch):
        # the gaussian start and the first saddle-escape kick of one
        # optimizer.seed once drew the same normals from default_rng(seed)
        from psdlandscape import cli, optimizers
        from psdlandscape.geometry import FactorPoint
        from psdlandscape.objectives import make_instance

        starts, kicks = [], []
        gd = cli.riemannian_gd
        monkeypatch.setattr(
            cli, "riemannian_gd", lambda obj, Y0, *a, **k: starts.append(Y0) or gd(obj, Y0, *a, **k)
        )
        cfg = write_config(tmp_path, optimizer={"max_iters": 1, "step_size": 0.01})
        assert main(["optimize", "--config", str(cfg)]) == 0
        inst = make_instance("denoising", 10, 2, kappa_star=2.0, seed=7)
        gt = inst.ground_truth
        # near the saddle that drops the target's second direction: a tiny
        # gradient and an eigenvalue near -2 sigma_r^2, so iterate 0 kicks
        U = gt.Y_star.svd.U
        q = np.linalg.qr(np.column_stack([U, np.ones(10)]))[0][:, 2]
        Y0 = FactorPoint(np.column_stack([U[:, 0] * gt.sigma1_star, 0.01 * q]))
        project = optimizers.vertical_project
        monkeypatch.setattr(
            optimizers, "vertical_project", lambda Y, Z: kicks.append(Z) or project(Y, Z)
        )
        pert = optimizers.PerturbationSpec(radius=0.1, trigger_tol=0.1)
        cfg = optimizers.GDConfig(step_size=0.01, max_iters=1, perturbation=pert, seed=3)
        rec = optimizers.riemannian_gd(inst.objective, Y0, cfg)
        assert rec.perturbed[0]
        # the start is sigma_1 / sqrt(p) times a standard normal draw
        (start,) = starts
        normals = start.Y / (gt.sigma1_star / np.sqrt(10))
        assert normals.shape == kicks[0].shape
        assert not np.allclose(normals, kicks[0])

    def test_target_init_converges_immediately(self, tmp_path):
        cfg = write_config(tmp_path, optimizer={"init": "target"})
        assert main(["optimize", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "out" / "final_report.json").read_text())
        assert final["iterations"] == 0

    def test_spectral_init_on_denoising_starts_at_the_target(self, tmp_path):
        # -grad f(0) = X*, so the start is the target's class
        cfg = write_config(tmp_path, optimizer={"init": "spectral"})
        assert main(["optimize", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "out" / "final_report.json").read_text())
        assert final["converged"] is True and final["iterations"] == 0

    def test_spectral_init_for_regression(self, tmp_path):
        cfg = write_config(
            tmp_path,
            problem={
                "kind": "trace_regression",
                "p": 8,
                "r": 2,
                "n": 8 * 8 * 2,
                "noise_sigma": 0.0,
                "seed": 4,
            },
        )
        assert main(["optimize", "--config", str(cfg)]) == 0
        final = json.loads((tmp_path / "out" / "final_report.json").read_text())
        assert final["converged"] is True
        assert final["final_dist_to_star"] < 1e-6


class TestVerify:
    def test_known_suite_green(self, tmp_path):
        code = main(
            [
                "verify",
                "--suite",
                "norm-sandwich",
                "--instances",
                "10",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "verify_norm-sandwich.json").read_text())
        assert doc["passes"] == doc["instances"] == 10

    def test_singular_value_derivatives_seed_nine(self, tmp_path):
        # seed 9 holds an instance with a near-zero first derivative
        argv = ["verify", "--suite", "singular-value-derivatives", "--seed", "9"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 0

    def test_negative_seed_is_usage_error(self, tmp_path):
        argv = ["verify", "--suite", "norm-sandwich", "--seed", "-1"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("instances", ["-3", "0"])
    def test_instances_below_one_is_usage_error(self, tmp_path, instances):
        argv = ["verify", "--suite", "norm-sandwich", "--instances", instances]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "verify_norm-sandwich.json").exists()

    def test_unknown_suite_lists_options(self, tmp_path, capsys):
        code = main(["verify", "--suite", "nope", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "norm-sandwich" in captured.err

    def test_seed_reproducibility(self, tmp_path):
        for sub in ("a", "b"):
            main(
                [
                    "verify",
                    "--suite",
                    "distance-transfer",
                    "--seed",
                    "42",
                    "--instances",
                    "10",
                    "--output-dir",
                    str(tmp_path / sub),
                ]
            )
        a = (tmp_path / "a" / "verify_distance-transfer.json").read_text()
        b = (tmp_path / "b" / "verify_distance-transfer.json").read_text()
        assert a == b


class TestExitCodes:
    def test_certification_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        # force a failing report row to exercise the exit-code contract
        import psdlandscape.cli as cli_mod
        from psdlandscape.landscape import RegionLabel, RegionReport

        def fake_certify(*args, **kwargs):
            return [
                RegionReport(
                    point_id=0,
                    region_labels=(RegionLabel.R1,),
                    dist_to_star=0.0,
                    grad_H_norm=0.0,
                    grad_h_norm=0.0,
                    lambda_min=0.0,
                    lambda_max=0.0,
                    bound_value=1.0,
                    margin=-1.0,
                    passed=False,
                )
            ]

        monkeypatch.setattr(cli_mod, "certify_landscape", fake_certify)
        cfg = write_config(tmp_path)
        assert main(["scan", "--config", str(cfg)]) == 1
        assert "failing points" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exits_three(self, tmp_path):
        # a huge fixed step throws the iterate across the rank boundary
        cfg = write_config(
            tmp_path,
            optimizer={"step_size": 1e9, "max_iters": 50, "grad_tol": 1e-16, "init": "gaussian"},
        )
        assert main(["optimize", "--config", str(cfg)]) == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numerical_failure_exits_three_on_trace_regression(self, tmp_path):
        # the carried residual and gradient of a least-squares run overflow
        cfg = write_config(
            tmp_path,
            problem={"kind": "trace_regression", "p": 6, "r": 2, "n": 72, "noise_sigma": 0.0},
            optimizer={"step_size": 1e9, "max_iters": 50, "grad_tol": 1e-16, "init": "spectral"},
        )
        assert main(["optimize", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("limit", ["basis cap", "lifted basis matrices"])
    def test_spectrum_beyond_its_limits_exits_three(self, tmp_path, monkeypatch, capsys, limit):
        # trace regression of horizontal dimension 79 over a basis cap of 78,
        # and a denoising handle stripped of its map whose 19 lifts of 10 x 10
        # do not fit the byte budget
        import dataclasses

        from psdlandscape import landscape, objectives

        if limit == "basis cap":
            cfg = write_config(tmp_path, problem={"kind": "trace_regression", "p": 40, "n": 600})
            monkeypatch.setattr(landscape, "_BASIS_CAP", 78)
        else:
            cfg = write_config(tmp_path)
            handle = objectives.DenoisingObjective.handle
            monkeypatch.setattr(
                objectives.DenoisingObjective, "handle",
                lambda self: dataclasses.replace(handle(self), least_squares=None),
            )
            monkeypatch.setattr(landscape, "MAX_INSTANCE_BYTES", 8 * 19 * 10**2 - 1)
        assert main(["scan", "--config", str(cfg)]) == 3
        assert limit in capsys.readouterr().err

    def test_two_threads_match_the_default(self, tmp_path):
        # scan and verify run on one thread: "--threads 1" still parses and
        # changes no byte of the output, any other count is a usage error
        cfg = write_config(tmp_path, scan={"n_points": 4})
        verify = ["verify", "--suite", "norm-sandwich", "--instances", "3"]
        for argv, out in (
            (["scan", "--config", str(cfg)], tmp_path / "out" / "scan_report.csv"),
            (verify + ["--output-dir", str(tmp_path / "v")], tmp_path / "v" / "verify_norm-sandwich.json"),
        ):
            assert main(argv) == 0
            default = out.read_bytes()
            out.unlink()
            assert main(argv + ["--threads", "1"]) == 0
            assert out.read_bytes() == default
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "2"])
            assert exc.value.code == 2


def _instance_without_seed(tmp_path):
    doc = {"kind": "denoising", "p": 4, "r": 1, "n": 0, "noise_sigma": 0.0, "spectrum": [1.0], "y": []}
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    return write_config(tmp_path, instance_file=str(tmp_path / "instance.json"))


def _instance_not_json(tmp_path):
    (tmp_path / "instance.json").write_text("{not json")
    return write_config(tmp_path, instance_file=str(tmp_path / "instance.json"))


def _config_list(tmp_path):
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps([{"problem": {"p": 4}}]))
    return cfile


def _p_overflows(tmp_path):
    # the JSON number 1e400 parses as an infinite float
    cfile = write_config(tmp_path, problem={"p": "P"})
    cfile.write_text(cfile.read_text().replace('"P"', "1e400"))
    return cfile


def _instance(tmp_path, **fields):
    doc = {"kind": "denoising", "p": 4, "r": 2, "n": 0, "seed": 0, "noise_sigma": 0.0,
           "spectrum": [1.0, 0.5], "y": [], **fields}
    if doc["kind"] == "trace_regression":
        doc.setdefault("format", 2)
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    return write_config(tmp_path, instance_file=str(tmp_path / "instance.json"))


def _instance_y_nan(tmp_path):
    return _instance(tmp_path, kind="trace_regression", n=3, y=[0.0, math.nan, 0.0])


def _config_not_utf8(tmp_path):
    cfile = write_config(tmp_path)
    cfile.write_bytes(b"\xff\xfe" + cfile.read_bytes())
    return cfile


def _config_nested_deeply(tmp_path):
    cfile = tmp_path / "config.json"
    cfile.write_text("[" * 100_000)
    return cfile


def _instance_not_utf8(tmp_path):
    cfile = _instance(tmp_path)
    with open(tmp_path / "instance.json", "ab") as fh:
        fh.write(b"\xff")
    return cfile


def _perturbation(tmp_path, **spec):
    spec = {"radius": 0.1, "trigger_tol": 1e-3, **spec}
    return write_config(tmp_path, optimizer={"max_iters": 20, "perturbation": spec})


def _unknown_key(command, key, **overrides):
    """A case of ``command`` on a config whose misspelled ``key`` the config
    does not define; the error must name it."""
    def make_config(tmp_path):
        return write_config(tmp_path, **overrides)

    make_config.unknown_key = key
    return [command], make_config


def _target_underflows(tmp_path):
    # ||X*||_F underflows to 0, so the threshold formulas divide by zero
    problem = {"kind": "trace_regression", "n": 200, "sigma_r_star": 3e-161}
    return write_config(tmp_path, problem=problem, scan={"delta_samples": 5})


@pytest.mark.parametrize(
    "command, make_config",
    [
        (["generate"], _instance_without_seed),
        (["generate"], _instance_not_json),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"p": "twenty"})),
        (["generate"], _config_list),
        (["scan"], lambda tmp_path: write_config(tmp_path, region_params={"mu": "x"})),
        (["scan", "--seed", "3"], lambda tmp_path: write_config(tmp_path, scan=[1])),
        (["optimize"], lambda tmp_path: write_config(tmp_path, optimizer={"max_iters": math.inf})),
        (["generate"], _p_overflows),
        (["optimize"], lambda tmp_path: write_config(tmp_path, optimizer={"step_size": math.nan})),
        (["scan"], lambda tmp_path: write_config(tmp_path, region_params={"beta": math.inf})),
        (["optimize"], lambda tmp_path: write_config(tmp_path, optimizer={"grad_tol": math.nan})),
        (["generate"], lambda tmp_path: write_config(tmp_path, instance_file=True)),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"samplers": None})),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"seed": -1})),
        (["scan"], lambda tmp_path: write_config(tmp_path, region_params={"beta": 1e308})),
        (["scan"], _target_underflows),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"p": 10**9})),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"p": 4.7})),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"r": True, "kappa_star": 1.0})),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"n_points": 2.5})),
        (["optimize"], lambda tmp_path: write_config(tmp_path, optimizer={"max_iters": True})),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"kappa_star": -2, "r": 3})),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"kappa_star": 0.5})),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"sigma_r_star": -1.0})),
        (["generate"], lambda tmp_path: write_config(
            tmp_path, problem={"kind": "trace_regression", "n": 200, "noise_sigma": -0.5})),
        (["generate"], lambda tmp_path: _instance(tmp_path, spectrum=[1.0, -0.5])),
        (["generate"], lambda tmp_path: _instance(tmp_path, p=4.7)),
        (["generate"], lambda tmp_path: _instance(tmp_path, r=1.9, spectrum=[1.0])),
        (["generate"], lambda tmp_path: _instance(tmp_path, seed=2.5)),
        (["generate"], lambda tmp_path: _instance(
            tmp_path, kind="trace_regression", n=3.5, y=[0.0, 0.0, 0.0])),
        (["generate"], _instance_y_nan),
        (["optimize"], lambda tmp_path: _perturbation(tmp_path, radius=0)),
        (["optimize"], lambda tmp_path: _perturbation(tmp_path, trigger_tol=-1)),
        (["optimize"], lambda tmp_path: _perturbation(tmp_path, cooldown_iters=-3)),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"ball_radius": -0.3})),
        (["generate"], lambda tmp_path: write_config(tmp_path, output_dir=5)),
        (["generate"], lambda tmp_path: write_config(tmp_path, output_dir=True)),
        (["generate"], lambda tmp_path: write_config(tmp_path, output_dir=["a"])),
        (["optimize"], lambda tmp_path: write_config(tmp_path, optimizer={"perturbation": {}})),
        (["scan"], lambda tmp_path: write_config(
            tmp_path, scan={"n_points": 1, "samplers": ["ball", "bogus"]})),
        (["generate"], lambda tmp_path: _instance(tmp_path, noise_sigma=True)),
        (["generate"], lambda tmp_path: _instance(tmp_path, r=1, spectrum=[True])),
        (["generate"], lambda tmp_path: _instance(
            tmp_path, kind="trace_regression", n=3, y=[0.0, True, 0.0])),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"p": "8"})),
        (["scan"], lambda tmp_path: write_config(tmp_path, region_params={"mu": "0.2"})),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"n_points": "4"})),
        (["generate"], lambda tmp_path: _instance(tmp_path, spectrum=["2", "1"])),
        (["generate"], lambda tmp_path: _instance(tmp_path, noise_sigma="0.1")),
        (["generate"], lambda tmp_path: _instance(
            tmp_path, kind="trace_regression", n=3, y=[0.0, "1", 0.0])),
        (["generate"], lambda tmp_path: write_config(tmp_path, problem={"sigma_r_star": 1e155})),
        (["generate"], lambda tmp_path: _instance(tmp_path, spectrum=[1e155, 5e154])),
        (["generate"], _config_not_utf8),
        (["scan"], _config_nested_deeply),
        (["generate"], _instance_not_utf8),
        (["scan"], lambda tmp_path: write_config(tmp_path, problem={"noise_sigma": 0.05})),
        (["generate"], lambda tmp_path: _instance(tmp_path, noise_sigma=0.3)),
        (["scan"], lambda tmp_path: _instance(tmp_path, y=[1, 2])),
        (["scan"], lambda tmp_path: write_config(tmp_path, scan={"delta_samples": "x"})),
        _unknown_key("scan", "region_param", region_param={"mu": 0.1}),
        _unknown_key("scan", "n_point", scan={"n_point": 3}),
        _unknown_key("scan", "sampler", scan={"sampler": ["ball"]}),
        _unknown_key("generate", "kappa", problem={"kappa": 3.0}),
        _unknown_key("optimize", "cooldown_iter", optimizer={"max_iters": 20, "perturbation": {
            "radius": 0.1, "trigger_tol": 1e-3, "cooldown_iter": 5}}),
    ],
    ids=[
        "instance-without-seed", "instance-not-json", "p-not-a-number", "config-is-a-list",
        "mu-not-a-number", "overridden-section-is-a-list", "max-iters-infinite", "p-overflows",
        "step-size-nan", "beta-infinite", "grad-tol-nan", "instance-file-not-a-path",
        "samplers-null", "scan-seed-negative", "beta-overflows", "target-underflows",
        "p-too-large", "p-fractional", "r-boolean", "n-points-fractional",
        "max-iters-boolean", "kappa-negative", "kappa-below-one", "sigma-r-negative",
        "noise-negative", "instance-spectrum-negative", "instance-p-fractional",
        "instance-r-fractional", "instance-seed-fractional", "instance-n-fractional",
        "instance-y-nan", "perturbation-radius-zero", "trigger-tol-negative", "cooldown-negative",
        "ball-radius-negative",
        "output-dir-number", "output-dir-boolean", "output-dir-list", "perturbation-empty",
        "scan-sampler-unknown", "instance-noise-boolean", "instance-spectrum-boolean",
        "instance-y-boolean", "p-numeric-string", "mu-numeric-string",
        "n-points-numeric-string", "instance-spectrum-strings", "instance-noise-string",
        "instance-y-string", "target-overflows", "instance-target-overflows",
        "config-not-utf8", "config-nested-deeply", "instance-not-utf8",
        "denoising-noise", "instance-denoising-noise", "instance-denoising-y",
        "denoising-delta-samples-string", "unknown-top-level-key", "unknown-scan-key",
        "unknown-scan-list-key", "unknown-problem-key", "unknown-perturbation-key",
    ],
)
def test_malformed_input_exits_two(tmp_path, command, make_config):
    cfg = make_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "psdlandscape.cli", *command, "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
    if make_config is _instance_y_nan:
        assert proc.stderr == "error: y contains non-finite entries\n"
    if hasattr(make_config, "unknown_key"):
        assert repr(make_config.unknown_key) in proc.stderr


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("scan", {"scan": {"n_points": 0}}),
        ("scan", {"scan": {"seed": -1}}),
        ("optimize", {"optimizer": {"init": "bogus"}}),
    ],
    ids=["scan-no-points", "scan-seed-negative", "init-unknown"],
)
def test_refused_input_leaves_no_output_dir(tmp_path, capsys, command, overrides):
    # these inputs are checked by the library after the config is read
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, make_config, culprit",
    [
        ("generate", lambda tmp_path: write_config(tmp_path, problem={
            "kind": "trace_regression", "p": 2, "r": 1, "n": 3, "kappa_star": 1.0,
            "sigma_r_star": 1.3e154, "seed": 2}), "kappa_star * sigma_r_star = 1.3e+154"),
        ("scan", lambda tmp_path: _instance(
            tmp_path, kind="trace_regression", p=2, r=1, n=3, spectrum=[1.3e154],
            y=[0.0, 0.0, 0.0]), "max(spectrum) = 1.3e+154 or the stored y"),
    ],
    ids=["drawn", "stored"],
)
def test_target_whose_observations_overflow_is_one_error_line(tmp_path, command, make_config, culprit):
    # r sigma_1*^2 is finite, but A(X*) overflows for this seed
    proc = subprocess.run(
        [sys.executable, "-m", "psdlandscape.cli", command, "--config", str(make_config(tmp_path))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {culprit} is too large: the gradient at X* has non-finite entries\n"
    )


@pytest.mark.parametrize("seed", [1, 3, 4, 6, 7])
@pytest.mark.parametrize("command", ["scan", "optimize"])
def test_target_whose_gradient_norms_overflow_is_one_error_line(tmp_path, capsys, command, seed):
    # at these seeds the gradient at X* is finite, but its truncated norm and
    # ||grad f(X*) Y*||_F overflow; a numpy warning would fail the test
    cfg = _instance(tmp_path, kind="trace_regression", p=2, r=1, n=3, seed=seed,
                    spectrum=[1.3e154], y=[0.0, 0.0, 0.0])
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: max(spectrum) = 1.3e+154 or the stored y is too large: "
        "the norms of the gradient at X* overflow\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", [1e90, 1e100])
def test_scan_at_a_huge_scale_is_not_refused_as_malformed(tmp_path, capsys, sigma):
    # the ball tangents' Y.T theta is near sigma^2 / 5, whose squares
    # overflow; the horizontality check takes them in scaled units, and
    # no numpy warning may leak (the test suite turns warnings into errors)
    cfg = write_config(
        tmp_path,
        problem={"p": 8, "r": 2, "kappa_star": 1.0, "sigma_r_star": sigma, "seed": 1},
        scan={"n_points": 8, "samplers": SAMPLERS, "seed": 1},
    )
    assert main(["scan", "--config", str(cfg)]) in (0, 1)
    assert "not horizontal" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "scan_report.csv").read_text().splitlines()
    assert len(rows) == 9


@pytest.mark.parametrize("sigma", [3e102, 1e105])
def test_scan_whose_floors_overflow_fails_its_rows_or_is_refused(tmp_path, capsys, sigma):
    # at 3e102 the R3 floors (sigma^3 and ||X||^1.5 terms) overflow: their
    # rows fail with margin NaN, with no traceback and no numpy warning,
    # and the rows that read only finite quantities certify; at 1e105 the
    # threshold formulas already leave the range (exit 2)
    cfg = write_config(
        tmp_path,
        problem={"p": 8, "r": 2, "kappa_star": 1.0, "sigma_r_star": sigma, "seed": 1},
        scan={"n_points": 8, "samplers": SAMPLERS, "seed": 1},
    )
    code = main(["scan", "--config", str(cfg)])
    err = capsys.readouterr().err
    if sigma == 1e105:
        assert code == 2 and err.startswith("error: the threshold formulas leave the floating-point range")
        return
    assert code == 1
    rows = [row.split(",") for row in (tmp_path / "out" / "scan_report.csv").read_text().splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        overflowed = "inf" in row[2:8]
        assert row[9] == ("false" if overflowed else "true")
        assert (row[8] == "nan") == overflowed
    assert any(row[8] == "nan" for row in rows)


def test_trace_document_of_the_previous_format_is_one_error_line(tmp_path):
    # written before the sensing map was drawn as upper triangles: no format
    # field, so its y would meet another operator
    doc = {"kind": "trace_regression", "p": 4, "r": 1, "n": 12, "seed": 0, "noise_sigma": 0.0,
           "spectrum": [1.0], "y": [0.0] * 12}
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path, instance_file=str(tmp_path / "instance.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "psdlandscape.cli", "scan", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: a trace-regression instance document must have format 2, the sensing draw its y "
        "is observed through; regenerate the document with psdlandscape generate\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
def test_target_whose_squared_entries_overflow_is_one_error_line(tmp_path, capsys, kind):
    # r sigma_1*^2 = 8e300 is finite, but the sum of the squared entries of
    # X* is not; ||X*||_F is, and the threshold formulas then leave the range
    problem = {"kind": kind, "p": 6, "r": 2, "n": 72, "kappa_star": 2.0, "sigma_r_star": 1e150}
    cfg = write_config(tmp_path, problem=problem, scan={"delta_samples": 5})
    assert main(["scan", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the threshold formulas") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()

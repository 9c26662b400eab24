"""The benchmark's four workloads.

Each workload makes its inputs from the seed, builds its problem instance
in set-up, names the CLI commands of one round, counts the operations a
round attempts and the ones that failed, and checks the outputs of the last
round with :mod:`perfbench.checks`. Only the CLI commands are timed.

An operation is a scan point, a GD run or a verify instance. A point fails
when its row says ``pass=false``, a GD run when it did not converge or
raised, an instance when it is not counted in the suite's ``passes``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import psdlandscape
from psdlandscape import FactorPoint, hess_extreme_eigs, make_instance

from . import checks

PARAMS = {"mu": 0.2, "alpha": 0.5, "beta": 1.5, "gamma": 1.5}
SAMPLERS = ["ball", "fiber", "scaled", "gaussian"]
# Every suite but two. "fd-hessian" and "singular-value-derivatives" fail
# one instance in a hundred on some seeds (of the seeds 0-119: fd-hessian
# on 30, 49, 95, 97 and 107, singular-value-derivatives on 9), which would
# make the share of failed operations depend on the seed.
SUITES = [
    "convexity-ball", "distance-transfer", "fd-gradient",
    "geodesic-determinant", "injectivity-radius", "norm-sandwich",
    "normal-neighborhood", "objective-comparison", "procrustes-perturbation",
    "restricted-gradient-bound", "truncated-norm-duality",
]


class Workload:
    """One workload; subclasses fill in the CLI commands and the checks."""

    name = ""

    def setup(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, workdir: Path) -> None:
        """Write the input files into ``workdir``."""
        self.workdir = workdir

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def operations(self) -> int:
        raise NotImplementedError

    def failed(self, exit_codes: list[int]) -> int:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def output_digest(self) -> str:
        """Digest of the round's output files, for comparing rounds."""
        h = hashlib.sha256()
        for path in self.outputs():
            if path.exists():
                h.update(path.read_bytes())
        return h.hexdigest()

    def _write_config(self, cfg: dict) -> Path:
        path = self.workdir / f"{self.name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        return path


class ScanWorkload(Workload):
    """``scan`` with all four samplers; the ball and fiber halves land in R1."""

    oracle_points = 2

    def __init__(self, name: str, problem: dict, n_points: int):
        self.name, self.problem, self.n_points = name, problem, n_points

    @property
    def spectrum(self) -> np.ndarray:
        sr = self.problem.get("sigma_r_star", 1.0)
        return np.linspace(self.problem.get("kappa_star", 1.0) * sr, sr, self.problem["r"])

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.instance = make_instance(seed=seed, **self.problem)

    def prepare(self, workdir: Path) -> None:
        super().prepare(workdir)
        self.out = workdir / self.name
        self.config = self._write_config({
            "problem": {**self.problem, "seed": self.seed},
            "region_params": PARAMS,
            "scan": {"n_points": self.n_points, "samplers": SAMPLERS, "seed": self.seed + 1},
            "output_dir": str(self.out),
        })

    def commands(self) -> list[list[str]]:
        return [["scan", "--config", str(self.config), "--threads", "1"]]

    def outputs(self) -> list[Path]:
        return [self.out / "scan_report.csv", self.out / "thresholds.json"]

    def operations(self) -> int:
        return self.n_points

    def failed(self, exit_codes: list[int]) -> int:
        csv_path = self.outputs()[0]
        if exit_codes[0] not in (0, 1) or not csv_path.exists():
            return self.n_points  # the scan aborted: no point was certified
        return checks.count_failed_points(csv_path.read_text())

    def check(self) -> None:
        denoising = self.problem["kind"] == "denoising"
        expected = checks.check_thresholds(
            checks.read_json(self.out / "thresholds.json"), self.spectrum, PARAMS,
            sampled_delta=not denoising,
        )
        checks.check_scan_rows(
            (self.out / "scan_report.csv").read_text(), expected, self.spectrum, PARAMS,
            SAMPLERS, self.n_points, denoising,
        )
        inst = self.instance
        sensing = None if denoising else inst.trace_regression.sensing
        Y_star = inst.ground_truth.Y_star.Y
        radius = PARAMS["mu"] * self.spectrum[-1] / (self.spectrum[0] / self.spectrum[-1])
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        for Y in checks.draw_r1_points(Y_star, radius, self.oracle_points, rng):
            est = hess_extreme_eigs(inst.objective, FactorPoint(Y))
            oracle = checks.horizontal_extremes(Y, Y_star @ Y_star.T, sensing)
            checks.check_spectrum((est.lambda_min, est.lambda_max), oracle)


class OptimizeWorkload(Workload):
    """``optimize`` from spectral init with backtracking GD."""

    grad_tol = 1e-10

    def __init__(self, name: str, problem: dict):
        self.name, self.problem = name, problem

    def setup(self, seed: int) -> None:
        # Built as every ``optimize`` command builds it; the checks need
        # nothing from it, so it is not kept past set-up.
        super().setup(seed)
        make_instance(seed=seed, **self.problem)

    def prepare(self, workdir: Path) -> None:
        super().prepare(workdir)
        self.out = workdir / self.name
        self.config = self._write_config({
            "problem": {**self.problem, "seed": self.seed},
            "region_params": PARAMS,
            "optimizer": {
                "init": "spectral", "max_iters": 2000, "grad_tol": self.grad_tol, "seed": self.seed,
            },
            "output_dir": str(self.out),
        })

    def commands(self) -> list[list[str]]:
        return [["optimize", "--config", str(self.config)]]

    def outputs(self) -> list[Path]:
        return [self.out / "trajectory.csv", self.out / "final_report.json"]

    def operations(self) -> int:
        return 1

    def failed(self, exit_codes: list[int]) -> int:
        path = self.outputs()[1]
        report = checks.read_json(path) if exit_codes[0] == 0 and path.exists() else None
        return int(checks.gd_failed(report))

    def check(self) -> None:
        checks.check_trajectory(
            self.outputs()[0].read_text(), checks.read_json(self.outputs()[1]), self.grad_tol
        )


class VerifyWorkload(Workload):
    """``verify`` for every suite at a fixed instance count."""

    def __init__(self, name: str, instances: int):
        self.name, self.instances = name, instances

    def setup(self, seed: int) -> None:
        super().setup(seed)
        missing = set(SUITES) - set(psdlandscape.suite_names())
        checks.require(not missing, f"suites missing from the program: {sorted(missing)}")

    def prepare(self, workdir: Path) -> None:
        super().prepare(workdir)
        self.out = workdir / self.name

    def commands(self) -> list[list[str]]:
        return [
            ["verify", "--suite", s, "--seed", str(self.seed), "--instances", str(self.instances),
             "--threads", "1", "--output-dir", str(self.out)]
            for s in SUITES
        ]

    def outputs(self) -> list[Path]:
        return [self.out / f"verify_{s}.json" for s in SUITES]

    def operations(self) -> int:
        return self.instances * len(SUITES)

    def failed(self, exit_codes: list[int]) -> int:
        failed = 0
        for code, path in zip(exit_codes, self.outputs()):
            if code in (0, 1) and path.exists():
                doc = checks.read_json(path)
                failed += doc["instances"] - doc["passes"]
            else:
                failed += self.instances
        return failed

    def check(self) -> None:
        for suite, path in zip(SUITES, self.outputs()):
            checks.check_suite(checks.read_json(path), suite, self.instances, self.seed)


def all_workloads() -> dict[str, Workload]:
    """Fresh workload objects, by name, in the order BENCHMARK.json lists
    them; README.md says why each was chosen."""
    wls = [
        ScanWorkload(
            "scan-denoising",
            {"kind": "denoising", "p": 20, "r": 3, "kappa_star": 2.0, "sigma_r_star": 1.0},
            n_points=100,
        ),
        ScanWorkload(
            "scan-trace",
            {"kind": "trace_regression", "p": 30, "r": 2, "n": 600, "noise_sigma": 0.0},
            n_points=8,
        ),
        OptimizeWorkload(
            "optimize-trace",
            {"kind": "trace_regression", "p": 100, "r": 5, "n": 5000, "noise_sigma": 0.0},
        ),
        VerifyWorkload(
            "verify-suites",
            instances=100,
        ),
    ]
    return {wl.name: wl for wl in wls}

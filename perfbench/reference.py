"""Reference figures that are not workloads; README.md records their output.

    python3 perfbench/reference.py drift      # ambient drift of the machine
    python3 perfbench/reference.py threads    # scan-denoising: workers, BLAS threads
    python3 perfbench/reference.py gd-iter    # one GD iteration on denoising (20, 3)

``threads`` starts one child process per configuration, alternating the
configurations, because the BLAS thread count is fixed when numpy loads.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  (q3-q1)/median {(q3 - q1) / med:.1%}  n={len(values)}"


def drift(total_s: float = 40.0, stretch_s: float = 2.0) -> None:
    """Time a fixed piece of numpy work (200 x 200 matrix products) in
    stretches and report each stretch's rate relative to the median."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    A = np.random.default_rng(0).standard_normal((200, 200))
    rates = []
    end = time.perf_counter() + total_s
    while time.perf_counter() < end:
        t0, done = time.perf_counter(), 0
        while time.perf_counter() - t0 < stretch_s:
            A @ A
            done += 1
        rates.append(done / (time.perf_counter() - t0))
    med = statistics.median(rates)
    rel = [r / med - 1.0 for r in rates]
    print(f"drift: {len(rates)} stretches of {stretch_s:.0f} s; rate vs median: "
          f"min {min(rel):+.1%}, max {max(rel):+.1%}; " + quartiles(rates))


def scan_round_times(seconds: float, workers: int) -> list[float]:
    """Rounds of the scan-denoising workload's command with ``workers``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import contextlib
    import io

    from psdlandscape import cli
    from perfbench import workloads

    wl = workloads.all_workloads()["scan-denoising"]
    wl.setup(1)
    rounds = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        wl.prepare(Path(tmp))
        argv = wl.commands()[0][:-1] + [str(workers)]
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(argv)
                rounds.append(time.perf_counter() - t0)
    return rounds


def threads(runs: int = 8, seconds: float = 10.0) -> None:
    configs = {
        "1 worker, 1 BLAS thread": ("1", "1"),
        "2 workers, 1 BLAS thread": ("2", "1"),
        "1 worker, OpenBLAS default threads": ("1", None),
    }
    results = {name: [] for name in configs}
    for _ in range(runs):
        for name, (workers, blas) in configs.items():
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            out = subprocess.run(
                [sys.executable, __file__, "_scan", workers, str(seconds)],
                env=env, capture_output=True, text=True, check=True, cwd=ROOT,
            )
            results[name].append(statistics.median(json.loads(out.stdout.splitlines()[-1])))
    for name, values in results.items():
        print(f"scan-denoising run_s, {name}: " + quartiles(values))


def gd_iteration(iters: int = 400, repeats: int = 7) -> None:
    """Seconds per iteration of fixed-step GD on denoising (20, 3), with
    and without distance and region tracking."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from psdlandscape import FactorPoint, GDConfig, RegionParams, make_instance, riemannian_gd

    inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=1)
    gt = inst.ground_truth
    Y0 = FactorPoint(gt.Y_star.Y + 0.05 * np.random.default_rng(0).standard_normal((20, 3)))
    cfg = GDConfig(step_size=0.02, max_iters=iters, grad_tol=1e-300)
    for label, kwargs in (("untracked", {}), ("tracked", {"gt": gt, "params": RegionParams(0.2, 0.5, 1.5, 1.5)})):
        per_iter = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            rec = riemannian_gd(inst.objective, Y0, cfg, **kwargs)
            per_iter.append((time.perf_counter() - t0) / rec.iterations)
        print(f"GD iteration on denoising (20, 3), {label}: "
              f"median {statistics.median(per_iter) * 1e6:.0f} us over {repeats} runs of {iters} iterations")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "drift":
        drift()
    elif what == "threads":
        threads()
    elif what == "gd-iter":
        gd_iteration()
    elif what == "_scan":
        print(json.dumps(scan_round_times(float(sys.argv[3]), int(sys.argv[2]))))
    else:
        sys.exit(__doc__)

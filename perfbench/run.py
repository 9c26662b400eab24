"""Benchmark of the psdlandscape CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; the command fails
with exit code 2 when that is missing. Every process runs with one BLAS
thread and the CLI's ``--threads 1``.

With ``--trace 0`` the command

1. starts ``SETUP_SAMPLES - 1`` set-up processes, each of which imports
   ``psdlandscape``, builds the workload's problem instance and exits;
2. starts one worker process that does the same set-up, then runs whole
   rounds of the workload's CLI commands (in-process, through
   ``psdlandscape.cli.main``) until ``S`` seconds have passed, and checks
   the outputs;
3. prints ``run_s`` (median round time), ``setup_s`` (median, over all
   processes, of the time from process start to the end of set-up) and
   ``peak_rss_mb`` (the worker's ``ru_maxrss``).

With ``--trace 1`` one worker runs, for every workload in turn, one
untraced round and then one traced round (see ``tracer.py``), checks the
outputs and prints the per-layer metrics of the traced rounds together.
``trace.overhead_s`` is the sum over workloads of the traced round's time
minus the untraced round's. Each workload's spans are written to
``.bench_out/trace-<workload>-seed<N>/<each workload>.csv.gz`` and its own
per-layer metrics to ``layers.json`` beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is imported anywhere: one BLAS thread, one scan worker.
os.environ.update(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", LANDSCAPE_THREADS="1"
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-denoising", "scan-trace", "optimize-trace", "verify-suites")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def import_package():
    """Import psdlandscape from the checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import psdlandscape

    if Path(psdlandscape.__file__).resolve().parent != (SRC / "psdlandscape").resolve():
        raise SystemExit(f"psdlandscape was imported from {psdlandscape.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def run_round(wl, log) -> tuple[float, list[int]]:
    """Run one round of the workload's CLI commands; return its wall time
    and the exit codes. Only the commands are timed."""
    from psdlandscape import cli

    wl.clear_outputs()
    commands = wl.commands()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in commands]
        elapsed = time.perf_counter() - t0
    return elapsed, codes


def setup_role(args) -> None:
    wl = import_package().all_workloads()[args.workload]
    wl.setup(args.seed)
    print(json.dumps({"setup_end": time.monotonic()}))


def worker_role(args) -> None:
    workloads = import_package()
    from perfbench.checks import CheckFailed

    wl = workloads.all_workloads()[args.workload]
    wl.setup(args.seed)
    setup_end = time.monotonic()
    workdir = Path(args.workdir)
    wl.prepare(workdir)
    rounds: list[float] = []
    attempted = failed = 0
    digests = set()
    with open(workdir / "cli.log", "w") as log:
        start = time.perf_counter()
        while True:
            elapsed, codes = run_round(wl, log)
            rounds.append(elapsed)
            attempted += wl.operations()
            failed += wl.failed(codes)
            digests.add(wl.output_digest())
            if time.perf_counter() - start >= args.seconds:
                break
    correct = True
    try:
        if len(digests) != 1:
            raise CheckFailed(f"rounds with the same inputs wrote {len(digests)} different outputs")
        wl.check()
    except CheckFailed as exc:
        print(f"check failed on {wl.name}: {exc}", file=sys.stderr)
        correct = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_end": setup_end, "rounds": rounds, "attempted": attempted, "failed": failed,
        "correct": correct, "peak_rss_mb": peak_kib / 1024.0,
    }))


def traced_worker_role(args) -> None:
    workloads = import_package()
    from perfbench import tracer as tracing
    from perfbench.checks import CheckFailed

    total = tracing.Tracer()
    per_workload = {}
    attempted = failed = 0
    overhead = 0.0
    correct = True
    workdir = Path(args.workdir)
    out_dir = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}"
    with open(workdir / "cli.log", "w") as log:
        for wl in workloads.all_workloads().values():
            wl.setup(args.seed)
            wl.prepare(workdir)
            plain, codes = run_round(wl, log)
            failed += wl.failed(codes)
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced, codes = run_round(wl, log)
            failed += wl.failed(codes)
            attempted += 2 * wl.operations()
            overhead += traced - plain
            try:
                wl.check()
            except CheckFailed as exc:
                print(f"check failed on {wl.name}: {exc}", file=sys.stderr)
                correct = False
            layers = tracing.per_layer_metrics(tracer, workloads.SUITES)
            layers["trace.overhead_s"] = (traced - plain, "s")
            per_workload[wl.name] = {k: v for k, (v, _) in layers.items()}
            tracer.dump(out_dir / f"{wl.name}.csv.gz")
            total.extend(tracer)
    metrics = tracing.per_layer_metrics(total, workloads.SUITES)
    metrics["trace.overhead_s"] = (overhead, "s")
    (out_dir / "layers.json").write_text(json.dumps(per_workload, indent=1) + "\n")
    print(json.dumps({
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Main process
# ---------------------------------------------------------------------------


def spawn(args, role: str, deadline: float, workdir: Path | None = None) -> tuple[float, dict]:
    """Start this script in ``role``; return its start time (monotonic) and
    the JSON of its last output line. Exits on failure or timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if workdir is not None:
        cmd += ["--workdir", str(workdir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} process for {args.workload} ran past {TIME_LIMIT_S:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"{role} process for {args.workload} exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    args = parse_args()
    if args.role == "setup":
        return setup_role(args)
    if args.role == "worker":
        return traced_worker_role(args) if args.trace else worker_role(args)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "psdlandscape" / "__init__.py").is_file():
        sys.stderr.write(f"no psdlandscape sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            _, result = spawn(args, "worker", deadline, workdir)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                start, probe = spawn(args, "setup", deadline)
                setups.append(probe["setup_end"] - start)
            start, result = spawn(args, "worker", deadline, workdir)
            setups.append(result.pop("setup_end") - start)
            result["metrics"] = {
                "run_s": {"value": statistics.median(result.pop("rounds")), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": result.pop("peak_rss_mb"), "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()

"""Command-line interface: generate / scan / optimize / verify.

Exit codes: 0 all checks pass, 1 certification or verification failure,
2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputContractError, LandscapeError, NumericalFailure
from .landscape import (
    RegionParams,
    _sample_point,
    certify_landscape,
    compute_thresholds,
    reports_to_csv,
)
from .objectives import (
    ProblemInstance,
    instance_from_document,
    make_instance,
    rsc_rsm_estimate,
)
from .optimizers import (
    GDConfig,
    PerturbationSpec,
    error_bound_check,
    riemannian_gd,
    spectral_init,
)
from .verify import run_suite, suite_names

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _load_json(path: str, what: str = "config file") -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputContractError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputContractError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputContractError(f"{what} {path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _section(parent: dict, name: str) -> dict:
    section = parent.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise InputContractError(f"{name} must be a JSON object, not {type(section).__name__}")
    return section


def _number(section: dict, name: str, key: str, default, kind=float):
    """``kind(section[key])`` (or of ``default``); a value that is not a
    finite number, a boolean, or for ``kind=int`` a non-integral number, is a
    usage error."""
    value = section.get(key, default)
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        number = kind(value)
        if math.isfinite(number) and not isinstance(value, bool) and not fractional:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise InputContractError(f"{name}.{key} must be {what}, got {value!r}")


def _seed(section: dict, name: str) -> int:
    seed = _number(section, name, "seed", 0, int)
    if seed < 0:
        raise InputContractError(f"{name}.seed must be >= 0, got {seed}")
    return seed


def _problem_instance(cfg: dict) -> ProblemInstance:
    source = cfg.get("instance_file")
    if source is not None and not isinstance(source, str):
        raise InputContractError(f"instance_file must be a path, got {source!r}")
    if source:
        return instance_from_document(_load_json(source, "instance file"))
    prob = cfg.get("problem")
    if not isinstance(prob, dict):
        raise InputContractError("config must contain a 'problem' object (or 'instance_file')")
    return make_instance(
        kind=prob.get("kind", "denoising"),
        p=_number(prob, "problem", "p", 0, int),
        r=_number(prob, "problem", "r", 0, int),
        n=_number(prob, "problem", "n", 0, int),
        kappa_star=_number(prob, "problem", "kappa_star", 1.0),
        sigma_r_star=_number(prob, "problem", "sigma_r_star", 1.0),
        noise_sigma=_number(prob, "problem", "noise_sigma", 0.0),
        seed=_number(prob, "problem", "seed", 0, int),
    )


def _region_params(cfg: dict) -> RegionParams:
    rp = _section(cfg, "region_params")
    return RegionParams(
        mu=_number(rp, "region_params", "mu", 0.2),
        alpha=_number(rp, "region_params", "alpha", 0.5),
        beta=_number(rp, "region_params", "beta", 1.5),
        gamma=_number(rp, "region_params", "gamma", 1.5),
    )


def _out_dir(cfg: dict, args) -> Path:
    out = args.output_dir or cfg.get("output_dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(cfg: dict, args) -> dict:
    def override(name: str, key: str, value) -> None:
        cfg[name] = {**_section(cfg, name), key: value}

    if getattr(args, "seed", None) is not None:
        for name in ("problem", "scan", "optimizer"):
            override(name, "seed", args.seed)
    if getattr(args, "n_points", None) is not None:
        override("scan", "n_points", args.n_points)
    return cfg


def cmd_generate(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    inst = _problem_instance(cfg)
    out = _out_dir(cfg, args)
    doc = inst.to_document()
    doc["provenance"] = {
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
    }
    path = out / "instance.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    inst = _problem_instance(cfg)
    params = _region_params(cfg)
    scan = _section(cfg, "scan")
    n_points = _number(scan, "scan", "n_points", 100, int)
    samplers = scan.get("samplers", ["ball", "fiber", "scaled", "gaussian"])
    if not isinstance(samplers, list) or not all(isinstance(s, str) for s in samplers):
        raise InputContractError(f"scan.samplers must be a list of names, got {samplers!r}")
    seed = _seed(scan, "scan")
    ball_radius = scan.get("ball_radius")
    if ball_radius is not None:
        ball_radius = _number(scan, "scan", "ball_radius", None)
    out = _out_dir(cfg, args)

    if params.mu == 0.0:
        print(
            "warning: mu = 0 makes the R1 ball a single fiber; "
            "ball/fiber samples all coincide with the target",
            file=sys.stderr,
        )

    sampled = inst.kind != "denoising"
    delta = 0.0
    if sampled:
        delta = rsc_rsm_estimate(
            inst.objective, inst.r, _number(scan, "scan", "delta_samples", 200, int), seed
        )
    thresholds = compute_thresholds(inst.ground_truth, params, inst.r, delta=delta)
    gate_reason = None
    if sampled and delta > thresholds.delta_composite_bound:
        gate_reason = (
            f"sampled constant delta-hat = {delta:.4g} exceeds the composite "
            f"bound {thresholds.delta_composite_bound:.4g}; checks use "
            "the substituted formulas and count as statistical evidence only"
        )
    elif sampled and inst.ground_truth.grad_at_star_trunc > thresholds.noise_composite_bound:
        gate_reason = (
            f"noise level {inst.ground_truth.grad_at_star_trunc:.4g} exceeds the "
            f"composite bound {thresholds.noise_composite_bound:.4g}; "
            "checks count as statistical evidence only"
        )
    reports = certify_landscape(
        inst.objective,
        inst.ground_truth,
        params,
        samplers,
        n_points,
        seed,
        thresholds=thresholds,
        ball_radius=ball_radius,
        threads=args.threads,
    )

    (out / "scan_report.csv").write_text(reports_to_csv(reports))
    tdoc = thresholds.to_dict()
    if gate_reason is not None:
        tdoc["gate"] = {"certified": False, "reason": gate_reason}
        print(f"warning: {gate_reason}", file=sys.stderr)
    else:
        tdoc["gate"] = {"certified": True}
    (out / "thresholds.json").write_text(json.dumps(tdoc, sort_keys=True, indent=2) + "\n")

    failures = [rep for rep in reports if not rep.passed]
    print(
        f"certified {len(reports) - len(failures)}/{len(reports)} points; "
        f"wrote {out / 'scan_report.csv'}"
    )
    if failures:
        print("failing points:", file=sys.stderr)
        for rep in failures:
            labels = ";".join(lb.value for lb in rep.region_labels)
            print(
                f"  point {rep.point_id} [{labels}] bound {rep.bound_value:.6g} "
                f"margin {rep.margin:.6g}",
                file=sys.stderr,
            )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    inst = _problem_instance(cfg)
    params = _region_params(cfg)
    opt = _section(cfg, "optimizer")
    pert = _section(opt, "perturbation")
    pert_spec = (
        PerturbationSpec(
            radius=_number(pert, "perturbation", "radius", None),
            trigger_tol=_number(pert, "perturbation", "trigger_tol", None),
            cooldown_iters=_number(pert, "perturbation", "cooldown_iters", 10, int),
        )
        if pert
        else None
    )
    step_size = opt.get("step_size")
    gd_cfg = GDConfig(
        step_size=None if step_size is None else _number(opt, "optimizer", "step_size", None),
        max_iters=_number(opt, "optimizer", "max_iters", 5000, int),
        grad_tol=_number(opt, "optimizer", "grad_tol", 1e-10),
        perturbation=pert_spec,
        seed=_seed(opt, "optimizer"),
    )
    out = _out_dir(cfg, args)

    init_kind = opt.get("init", "spectral" if inst.kind == "trace_regression" else "gaussian")
    rng = np.random.default_rng(gd_cfg.seed)
    gt = inst.ground_truth
    if init_kind == "spectral":
        if inst.trace_regression is None:
            raise InputContractError("spectral initialization needs a trace-regression instance")
        Y0 = spectral_init(inst.trace_regression, inst.r)
    elif init_kind in ("gaussian", "ball"):
        Y0 = _sample_point(init_kind, gt, params, rng, params.mu * gt.sigmar_star / gt.kappa_star)
    elif init_kind == "target":
        Y0 = gt.Y_star
    else:
        raise InputContractError(f"unknown init {init_kind!r}")

    rec = riemannian_gd(inst.objective, Y0, gd_cfg, gt=gt, params=params)
    (out / "trajectory.csv").write_text(rec.to_csv())

    final = {
        "converged": rec.converged,
        "iterations": rec.iterations,
        "final_grad_norm": rec.grad_norms[-1],
        "final_value": rec.values[-1],
        "final_dist_to_star": rec.dists[-1] if rec.dists else None,
    }
    try:
        eb = error_bound_check(rec.final, gt, params.mu, inst.objective)
        final["error_bound"] = asdict(eb)
    except LandscapeError as exc:
        final["error_bound"] = None
        final["error_bound_skipped"] = str(exc)
    (out / "final_report.json").write_text(json.dumps(final, sort_keys=True, indent=2) + "\n")
    print(
        f"converged={rec.converged} iterations={rec.iterations} "
        f"grad_norm={rec.grad_norms[-1]:.3e}; wrote {out / 'trajectory.csv'}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in suite_names():
        print(
            f"unknown suite {args.suite!r}; available suites:\n  "
            + "\n  ".join(suite_names()),
            file=sys.stderr,
        )
        return EXIT_USAGE
    summary = run_suite(
        args.suite, seed=args.seed or 0, instances=args.instances, threads=args.threads
    )
    out = Path(args.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"verify_{args.suite}.json"
    path.write_text(json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n")
    status = "green" if summary.green else "RED"
    print(
        f"suite {summary.suite}: {summary.passes}/{summary.instances} instances, "
        f"worst_rel_err={summary.worst_rel_err:.3e} [{status}]; wrote {path}"
    )
    return EXIT_OK if summary.green else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdlandscape",
        description=(
            "Quotient-geometry landscape toolkit for fixed-rank PSD matrix "
            "optimization: generate problem instances, certify landscape "
            "bounds on sampled points, run factor gradient descent, and "
            "execute verification suites."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--output-dir", default=None, help="override output directory")

    g = sub.add_parser("generate", help="write a problem-instance JSON document")
    common(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("scan", help="certify landscape bounds on sampled points")
    common(s)
    s.add_argument("--n-points", type=int, default=None, help="override scan.n_points")
    s.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    s.set_defaults(func=cmd_scan)

    o = sub.add_parser("optimize", help="run factor gradient descent")
    common(o)
    o.set_defaults(func=cmd_optimize)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, help="suite name (see --suite list)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=100)
    v.add_argument("--output-dir", default=None)
    v.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailure, LandscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

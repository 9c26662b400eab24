"""Command-line interface: generate / scan / optimize / verify.

Exit codes: 0 all checks pass, 1 certification or verification failure,
2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputContractError, LandscapeError, NumericalFailure
from .kernels import _json_number
from .landscape import (
    SAMPLERS,
    RegionParams,
    _r1_radius,
    _sample_point,
    certify_landscape,
    compute_thresholds,
    error_bound_check,
    reports_to_csv,
)
from .objectives import (
    ProblemInstance,
    instance_from_document,
    make_instance,
    rsc_rsm_estimate,
)
from .optimizers import GDConfig, PerturbationSpec, riemannian_gd, spectral_init
from .verify import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _load_json(path: str, what: str = "config file") -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputContractError(f"{what} not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputContractError(f"{what} {path} is not valid JSON: {exc}")
    except RecursionError:
        raise InputContractError(f"{what} {path} is nested too deeply to parse")
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
        p=_json_number(prob.get("p", 0), "problem.p", integer=True),
        r=_json_number(prob.get("r", 0), "problem.r", integer=True),
        n=_json_number(prob.get("n", 0), "problem.n", integer=True),
        kappa_star=_json_number(prob.get("kappa_star", 1.0), "problem.kappa_star"),
        sigma_r_star=_json_number(prob.get("sigma_r_star", 1.0), "problem.sigma_r_star"),
        noise_sigma=_json_number(prob.get("noise_sigma", 0.0), "problem.noise_sigma"),
        seed=_json_number(prob.get("seed", 0), "problem.seed", integer=True),
    )


def _region_params(cfg: dict) -> RegionParams:
    rp = _section(cfg, "region_params")
    return RegionParams(
        mu=_json_number(rp.get("mu", 0.2), "region_params.mu"),
        alpha=_json_number(rp.get("alpha", 0.5), "region_params.alpha"),
        beta=_json_number(rp.get("beta", 1.5), "region_params.beta"),
        gamma=_json_number(rp.get("gamma", 1.5), "region_params.gamma"),
    )


def _out_dir(cfg: dict, args) -> Path:
    """The output directory; the first write creates it, so a command that
    refuses an input leaves none behind."""
    out = args.output_dir or cfg.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise InputContractError(f"output_dir must be a path, got {out!r}")
    return Path(out or ".")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


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
    _write_json(path, doc)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args)
    inst = _problem_instance(cfg)
    params = _region_params(cfg)
    scan = _section(cfg, "scan")
    n_points = _json_number(scan.get("n_points", 100), "scan.n_points", integer=True)
    samplers = scan.get("samplers", list(SAMPLERS))
    if not isinstance(samplers, list) or not all(isinstance(s, str) for s in samplers):
        raise InputContractError(f"scan.samplers must be a list of names, got {samplers!r}")
    seed = _json_number(scan.get("seed", 0), "scan.seed", integer=True)
    ball_radius = scan.get("ball_radius")
    if ball_radius is not None:
        ball_radius = _json_number(ball_radius, "scan.ball_radius")
    out = _out_dir(cfg, args)

    sampled = inst.kind != "denoising"
    delta = 0.0
    if sampled:
        samples = _json_number(scan.get("delta_samples", 200), "scan.delta_samples", integer=True)
        delta = rsc_rsm_estimate(inst.objective, inst.r, samples, seed)
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
    )

    _write(out / "scan_report.csv", reports_to_csv(reports))
    tdoc = thresholds.to_dict()
    if gate_reason is not None:
        tdoc["gate"] = {"certified": False, "reason": gate_reason}
        print(f"warning: {gate_reason}", file=sys.stderr)
    else:
        tdoc["gate"] = {"certified": True}
    _write_json(out / "thresholds.json", tdoc)

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
            radius=_json_number(pert.get("radius"), "perturbation.radius"),
            trigger_tol=_json_number(pert.get("trigger_tol"), "perturbation.trigger_tol"),
            cooldown_iters=_json_number(
                pert.get("cooldown_iters", 10), "perturbation.cooldown_iters", integer=True
            ),
        )
        if opt.get("perturbation") is not None
        else None
    )
    step_size = opt.get("step_size")
    gd_cfg = GDConfig(
        step_size=None if step_size is None else _json_number(step_size, "optimizer.step_size"),
        max_iters=_json_number(opt.get("max_iters", 5000), "optimizer.max_iters", integer=True),
        grad_tol=_json_number(opt.get("grad_tol", 1e-10), "optimizer.grad_tol"),
        perturbation=pert_spec,
        seed=_json_number(opt.get("seed", 0), "optimizer.seed", integer=True),
    )
    out = _out_dir(cfg, args)

    init_kind = opt.get("init", "spectral" if inst.kind == "trace_regression" else "gaussian")
    rng = np.random.default_rng(gd_cfg.seed)
    gt = inst.ground_truth
    if init_kind == "spectral":
        Y0 = spectral_init(inst.objective, inst.r)
    elif init_kind in ("gaussian", "ball"):
        Y0 = _sample_point(init_kind, gt, params, rng, _r1_radius(gt, params.mu))
    elif init_kind == "target":
        Y0 = gt.Y_star
    else:
        raise InputContractError(f"unknown init {init_kind!r}")

    rec = riemannian_gd(inst.objective, Y0, gd_cfg, gt=gt, params=params)
    _write(out / "trajectory.csv", rec.to_csv())

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
    _write_json(out / "final_report.json", final)
    print(
        f"converged={rec.converged} iterations={rec.iterations} "
        f"grad_norm={rec.grad_norms[-1]:.3e}; wrote {out / 'trajectory.csv'}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_suite(args.suite, seed=args.seed, instances=args.instances)
    path = _out_dir({}, args) / f"verify_{args.suite}.json"
    _write_json(path, summary.to_dict())
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
    # scan and verify run on one thread; "--threads 1" still parses and is read by nothing
    s.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
    s.set_defaults(func=cmd_scan)

    o = sub.add_parser("optimize", help="run factor gradient descent")
    common(o)
    o.set_defaults(func=cmd_optimize)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, help="suite name (an unknown name prints the suites)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=100)
    v.add_argument("--output-dir", default=None)
    v.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
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

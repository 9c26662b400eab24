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

from . import __version__
from .errors import InputContractError, LandscapeError, NumericalFailure
from .kernels import _OPTIMIZE_START, _json_number, _stream
from .landscape import (
    SAMPLERS, RegionParams, _r1_radius, _sample_point, certify_landscape, compute_thresholds,
    error_bound_check, reports_to_csv,
)
from .objectives import ProblemInstance, instance_from_document, make_instance, rsc_rsm_estimate
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


def _section(value, name: str) -> dict:
    """A config section: a JSON object, or ``null`` read as an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InputContractError(f"{name} must be a JSON object, not {type(value).__name__}")
    return value


#: the default of a field that must be given
REQUIRED = object()

#: Every field of every config section as ``key: (default, kind)``. ``int``
#: and ``float`` read a JSON number (:func:`kernels._json_number`), ``str`` a
#: string, ``list`` a list of names and ``dict`` a section of this table. A
#: default of ``None`` means absent, and there ``null`` reads as absent too;
#: anywhere else ``null`` is malformed. The library keeps its own defaults.
CONFIG_FIELDS = {
    "problem": {"kind": ("denoising", str), "p": (0, int), "r": (0, int), "n": (0, int),
                "kappa_star": (1.0, float), "sigma_r_star": (1.0, float),
                "noise_sigma": (0.0, float), "seed": (0, int)},
    "region_params": {"mu": (0.2, float), "alpha": (0.5, float), "beta": (1.5, float),
                      "gamma": (1.5, float)},
    "scan": {"n_points": (100, int), "samplers": (list(SAMPLERS), list), "seed": (0, int),
             "delta_samples": (200, int), "ball_radius": (None, float)},
    "optimizer": {"step_size": (None, float), "max_iters": (5000, int), "grad_tol": (1e-10, float),
                  "seed": (0, int), "init": (None, str), "perturbation": (None, dict)},
    "optimizer.perturbation": {"radius": (REQUIRED, float), "trigger_tol": (REQUIRED, float),
                               "cooldown_iters": (10, int)},
}
TOP_LEVEL = ("problem", "region_params", "scan", "optimizer", "instance_file", "output_dir")


def _refuse_unknown(doc: dict, known, where: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise InputContractError(
            f"unknown key {unknown[0]!r} in {where}; it defines {', '.join(known)}"
        )


def _read(value, default, kind: type, name: str):
    """The value of field ``name`` with its default and kind (see :data:`CONFIG_FIELDS`)."""
    if value is None and default is None:
        return None
    if value is REQUIRED:
        raise InputContractError(f"{name} is missing")
    if kind in (int, float):
        return _json_number(value, name, integer=kind is int)
    if kind is dict:
        return _fields(value, name)
    if isinstance(value, kind) and (kind is str or all(isinstance(s, str) for s in value)):
        return value
    what = "a string" if kind is str else "a list of names"
    raise InputContractError(f"{name} must be {what}, got {value!r}")


def _fields(doc, name: str) -> dict:
    """Config section ``name`` of :data:`CONFIG_FIELDS` read from ``doc``, a
    key the table does not define refused."""
    section = _section(doc, name)
    _refuse_unknown(section, CONFIG_FIELDS[name], name)
    return {
        key: _read(section.get(key, default), default, kind, f"{name}.{key}")
        for key, (default, kind) in CONFIG_FIELDS[name].items()
    }


def _config(args) -> dict:
    """The config file with ``--seed`` and ``--n-points`` written into its
    sections; a top-level key outside :data:`TOP_LEVEL` is refused."""
    cfg = _load_json(args.config)
    _refuse_unknown(cfg, TOP_LEVEL, "the config")
    seed = {} if args.seed is None else {"seed": args.seed}
    n_points = {} if getattr(args, "n_points", None) is None else {"n_points": args.n_points}
    for name, override in (("problem", seed), ("scan", {**seed, **n_points}), ("optimizer", seed)):
        if override:
            cfg[name] = {**_section(cfg.get(name), name), **override}
    return cfg


def _problem_instance(cfg: dict) -> ProblemInstance:
    source = _read(cfg.get("instance_file"), None, str, "instance_file")
    if source:
        return instance_from_document(_load_json(source, "instance file"))
    if not isinstance(cfg.get("problem"), dict):
        raise InputContractError("config must contain a 'problem' object (or 'instance_file')")
    return make_instance(**_fields(cfg["problem"], "problem"))


def _out_dir(cfg: dict, args) -> Path:
    """The output directory; the first write creates it, so a command that
    refuses an input leaves none behind."""
    out = args.output_dir or _read(cfg.get("output_dir"), None, str, "output_dir")
    return Path(out or ".")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_generate(args) -> int:
    cfg = _config(args)
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
    cfg = _config(args)
    params = RegionParams(**_fields(cfg.get("region_params"), "region_params"))
    scan = _fields(cfg.get("scan"), "scan")
    inst = _problem_instance(cfg)
    out = _out_dir(cfg, args)

    sampled = inst.kind != "denoising"
    delta = 0.0
    if sampled:
        delta = rsc_rsm_estimate(inst.objective, inst.r, scan["delta_samples"], scan["seed"])
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
        inst.objective, inst.ground_truth, params, scan["samplers"], scan["n_points"],
        scan["seed"], thresholds=thresholds, ball_radius=scan["ball_radius"],
    )

    _write(out / "scan_report.csv", reports_to_csv(reports))
    tdoc = {**thresholds.to_dict(), "gate": {"certified": gate_reason is None}}
    if gate_reason is not None:
        tdoc["gate"]["reason"] = gate_reason
        print(f"warning: {gate_reason}", file=sys.stderr)
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
    cfg = _config(args)
    params = RegionParams(**_fields(cfg.get("region_params"), "region_params"))
    opt = _fields(cfg.get("optimizer"), "optimizer")
    init_kind, pert = opt.pop("init"), opt.pop("perturbation")
    gd_cfg = GDConfig(**opt, perturbation=None if pert is None else PerturbationSpec(**pert))
    inst = _problem_instance(cfg)
    out = _out_dir(cfg, args)

    if init_kind is None:
        init_kind = "spectral" if inst.kind == "trace_regression" else "gaussian"
    rng = _stream(gd_cfg.seed, _OPTIMIZE_START)
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
        final["error_bound"] = asdict(
            error_bound_check(rec.final, gt, params.mu, inst.objective, grad=rec._final_grad)
        )
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

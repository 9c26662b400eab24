"""Spans around psdlandscape's layers, recorded from outside the package.

:func:`install` wraps, for the duration of a ``with`` block:

* every public function and every public method of a public class of
  ``kernels``, ``geometry``, ``objectives``, ``landscape``, ``optimizers``,
  ``verify`` and ``cli``, in every package module that holds a reference
  to it, and the constructors of the public classes;
* a few private functions that mark a per-layer unit of work: one
  certified point (``landscape._certify_point``), one line-search trial
  (``optimizers._full_rank``) and the dense delta extremum of ``verify``;
* the three callables of every objective handle the package creates;
* ``numpy.linalg.svd``, ``eigh`` and ``qr``, and ``Path.write_text`` as the
  CLI calls it.

Each call appends one span (name, start, end, parent) to lists kept in
memory; nothing is written until the caller dumps them. Tracing assumes one
thread, which every workload runs with.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("kernels", "geometry", "objectives", "landscape", "optimizers", "verify", "cli")
PRIVATE = {
    "landscape": ("_certify_point",),
    "optimizers": ("_full_rank",),
    "verify": ("symmetric_delta_upper",),
    "cli": ("main", "cmd_generate", "cmd_scan", "cmd_optimize", "cmd_verify"),
}
NUMPY_FACTORIZATIONS = ("svd", "eigh", "qr")


class Tracer:
    """Span storage: parallel lists indexed by span id."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.note: dict[int, object] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs, result)``
        stores a value on the span when given."""
        names, starts, ends, parents, opened = self.name, self.start, self.end, self.parent, self._open
        notes = self.note
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(opened[-1] if opened else -1)
            starts.append(0)
            ends.append(0)
            opened.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def extend(self, other: "Tracer") -> None:
        """Append the closed spans of ``other``."""
        offset = len(self.name)
        self.name += other.name
        self.start += other.start
        self.end += other.end
        self.parent += [p + offset if p >= 0 else -1 for p in other.parent]
        self.note.update({i + offset: v for i, v in other.note.items()})

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped CSV: id, name, parent, start_ns,
        end_ns, note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,start_ns,end_ns,note\n")
            for i, name in enumerate(self.name):
                note = self.note.get(i, "")
                fh.write(f"{i},{name},{self.parent[i]},{self.start[i]},{self.end[i]},{note}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, inclusive seconds ``incl`` and self
        seconds ``self`` (duration minus the time of child spans)."""
        child = [0] * len(self.name)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "incl": 0.0, "self": 0.0})
        for i, name in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            agg = out[name]
            agg["count"] += 1
            agg["incl"] += dur * 1e-9
            agg["self"] += (dur - child[i]) * 1e-9
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        inside = 0
        for i, n in enumerate(self.name):
            if n != name:
                continue
            par = self.parent[i]
            while par >= 0 and self.name[par] != ancestor:
                par = self.parent[par]
            inside += par >= 0
        return inside

    def notes(self, name: str) -> list:
        return [v for i, v in self.note.items() if self.name[i] == name]


def _handle_wrapper(tracer: Tracer, handle_method):
    """Wrap ``X.handle()`` so the handle's three callables record spans."""

    @functools.wraps(handle_method)
    def handle(self):
        h = handle_method(self)
        return dataclasses.replace(
            h,
            value=tracer.wrap("objectives.value", h.value),
            euclid_grad=tracer.wrap("objectives.grad", h.euclid_grad),
            euclid_hess_form=tracer.wrap("objectives.hess_form", h.euclid_hess_form),
        )

    return handle


def _notes_for(qualname: str):
    """Values stored on spans of particular functions."""
    if qualname in ("TraceRegressionObjective.apply_map", "TraceRegressionObjective.adjoint"):
        return lambda args, kwargs, result: args[0].sensing.nbytes
    if qualname == "riemannian_gd":
        return lambda args, kwargs, result: f"{result.iterations}:{len(result.steps)}"
    if qualname == "run_suite":
        return lambda args, kwargs, result: f"{result.suite}:{result.instances}"
    return None


@contextmanager
def install(tracer: Tracer):
    """Wrap the package's layers (see the module docstring) and restore
    every original object on exit."""
    import psdlandscape
    from psdlandscape import cli

    mods = {short: getattr(psdlandscape, short) for short in MODULES if short != "cli"}
    mods["cli"] = cli
    every_module = [psdlandscape, *mods.values()]
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    replaced: dict[int, object] = {}
    for short, mod in mods.items():
        names = list(getattr(mod, "__all__", ())) + list(PRIVATE.get(short, ()))
        for attr in names:
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[id(obj)] = tracer.wrap(f"{short}.{attr}", obj, _notes_for(attr))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, short, obj, patch)
    for mod in every_module:
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced:
                patch(mod, attr, replaced[id(val)])

    for fname in NUMPY_FACTORIZATIONS:
        patch(np.linalg, fname, tracer.wrap(f"numpy.linalg.{fname}", getattr(np.linalg, fname)))

    path_cls = type(Path())

    class TracedPath(path_cls):
        write_text = tracer.wrap("cli.write_text", path_cls.write_text)

    patch(cli, "Path", TracedPath)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def _wrap_class(tracer: Tracer, short: str, cls: type, patch) -> None:
    if issubclass(cls, (tuple, BaseException)) or type(cls) is not type:
        return  # named tuples, exceptions and enums have no behaviour to time
    if "__init__" in cls.__dict__:
        patch(cls, "__init__", tracer.wrap(f"{short}.{cls.__name__}", cls.__dict__["__init__"]))
    for attr, val in list(cls.__dict__.items()):
        if attr.startswith("_") or not inspect.isfunction(val):
            continue
        qual = f"{cls.__name__}.{attr}"
        if attr == "handle":
            patch(cls, attr, _handle_wrapper(tracer, val))
        else:
            patch(cls, attr, tracer.wrap(f"{short}.{qual}", val, _notes_for(qual)))


def per_layer_metrics(tracer: Tracer, suites: list[str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, ``name -> (value, unit)``, from one traced pass.

    A name ending in ``self_s`` is self time; any other ``_s`` is the
    inclusive time of the spans named, summed, except ``point_s`` and
    ``iter_s``, which are per point and per GD iteration.
    ``objectives.sensing_bytes`` is computed from array sizes: the sensing
    array's size times the passes over it.
    """
    agg = tracer.summary()

    def count(*names):
        return sum(agg[n]["count"] for n in names if n in agg)

    def incl(*names):
        return sum(agg[n]["incl"] for n in names if n in agg)

    def self_s(*names):
        return sum(agg[n]["self"] for n in names if n in agg)

    def ratio(a, b):
        return a / b if b else 0.0

    sensing = ("objectives.TraceRegressionObjective.apply_map", "objectives.TraceRegressionObjective.adjoint")
    spectrum = "landscape.hess_extreme_eigs"
    gd_notes = [tuple(map(int, n.split(":"))) for n in tracer.notes("optimizers.riemannian_gd")]
    iterations = sum(it for it, _ in gd_notes)
    accepted = sum(acc for _, acc in gd_notes)
    trials = tracer.count_within("optimizers._full_rank", "optimizers.riemannian_gd")
    suite_time: dict[str, float] = defaultdict(float)
    instances = 0
    for i, note in tracer.note.items():
        if tracer.name[i] == "verify.run_suite":
            suite, n = note.rsplit(":", 1)
            suite_time[suite] += (tracer.end[i] - tracer.start[i]) * 1e-9
            instances += int(n)
    writes = (
        "landscape.reports_to_csv", "optimizers.TrajectoryRecord.to_csv",
        "landscape.ThresholdReport.to_dict", "verify.SuiteSummary.to_dict", "cli.write_text",
    )
    cli_fns = ("cli.main", "cli.cmd_generate", "cli.cmd_scan", "cli.cmd_optimize", "cli.cmd_verify")
    m = {
        "landscape.spectra": (count(spectrum), "count"),
        "landscape.spectrum_s": (incl(spectrum), "s"),
        "landscape.hess_forms_per_spectrum": (
            ratio(tracer.count_within("objectives.hess_form", spectrum), count(spectrum)), "count"),
        "objectives.hess_forms": (count("objectives.hess_form"), "count"),
        "objectives.hess_form_s": (incl("objectives.hess_form"), "s"),
        "objectives.sensing_passes": (count(*sensing), "count"),
        "objectives.sensing_s": (incl(*sensing), "s"),
        "objectives.sensing_bytes": (float(sum(sum(tracer.notes(n)) for n in sensing)), "bytes"),
        "objectives.instance_s": (incl("objectives.make_instance", "objectives.instance_from_document"), "s"),
        "objectives.rsc_estimate_s": (incl("objectives.rsc_rsm_estimate"), "s"),
        "objectives.values": (count("objectives.value"), "count"),
        "objectives.value_s": (incl("objectives.value"), "s"),
        "objectives.grads": (count("objectives.grad"), "count"),
        "objectives.grad_s": (incl("objectives.grad"), "s"),
        "optimizers.iterations": (iterations, "count"),
        "optimizers.trial_steps": (trials, "count"),
        "optimizers.accepted_per_trial": (ratio(accepted, trials), "ratio"),
        "optimizers.gd_self_s": (self_s("optimizers.riemannian_gd", "optimizers._full_rank"), "s"),
        "optimizers.iter_s": (ratio(incl("optimizers.riemannian_gd"), iterations), "s"),
        "optimizers.spectral_init_s": (incl("optimizers.spectral_init"), "s"),
        "geometry.factor_points": (count("geometry.FactorPoint"), "count"),
        "geometry.factor_point_s": (incl("geometry.FactorPoint"), "s"),
        "geometry.tangents": (count("geometry.HorizontalTangent"), "count"),
        "geometry.tangent_s": (incl("geometry.HorizontalTangent"), "s"),
        "geometry.vertical_projections": (count("geometry.vertical_project"), "count"),
        "geometry.vertical_project_s": (incl("geometry.vertical_project"), "s"),
        "geometry.distances": (count("geometry.quotient_distance"), "count"),
        "geometry.distance_s": (incl("geometry.quotient_distance"), "s"),
        "kernels.factorizations": (count(*(f"numpy.linalg.{f}" for f in NUMPY_FACTORIZATIONS)), "count"),
        "kernels.factorization_s": (incl(*(f"numpy.linalg.{f}" for f in NUMPY_FACTORIZATIONS)), "s"),
        "landscape.classifications": (count("landscape.classify_region"), "count"),
        "landscape.classify_s": (incl("landscape.classify_region"), "s"),
        "landscape.certify_self_s": (self_s("landscape.certify_landscape", "landscape._certify_point"), "s"),
        "landscape.point_s": (ratio(incl("landscape._certify_point"), count("landscape._certify_point")), "s"),
        "cli.write_s": (incl(*writes), "s"),
        "cli.self_s": (self_s(*cli_fns), "s"),
        "verify.instances": (instances, "count"),
        "verify.suite_self_s": (self_s("verify.run_suite"), "s"),
        "verify.delta_upper_s": (incl("verify.symmetric_delta_upper"), "s"),
    }
    for suite in suites:
        m[f"verify.{suite}_s"] = (suite_time.get(suite, 0.0), "s")
    return m

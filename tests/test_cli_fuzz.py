"""Fuzz the CLI with generated config documents.

Each document is a tiny valid config with up to four mutations: a field set
to a value of the wrong type, NaN or infinity, a negative or huge size, a
key or a whole section deleted, or a section replaced by something that is
not an object. Whatever the document holds, ``generate``, ``scan`` and
``optimize`` must end with a documented exit code (0, 1, 2 or 3) and never
let an exception escape.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psdlandscape.cli import main

EXIT_CODES = {0, 1, 2, 3}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
# huge sizes start where no instance fits under MAX_INSTANCE_BYTES, so a
# valid run never allocates more than a tiny problem needs
size = st.one_of(
    st.integers(-3, 6),
    st.integers(10**9, 10**30),
    st.sampled_from([2**63, 2**64, 1e308]),
    st.floats(-10.0, 10.0),
    junk,
)
scalar = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    junk,
)
# counts set the amount of work: small, negative or of a wrong type (a huge
# count is a long run, not an error)
count = st.one_of(st.integers(-2, 4), junk)
seed = st.one_of(st.integers(-2, 2), st.integers(2**63, 2**70), junk)

FIELDS = {
    "problem": {
        "kind": st.one_of(st.sampled_from(["denoising", "trace_regression", "other"]), junk),
        "p": size, "r": size, "n": size, "seed": seed,
        "kappa_star": scalar, "sigma_r_star": scalar, "noise_sigma": scalar,
    },
    "region_params": {name: scalar for name in ("mu", "alpha", "beta", "gamma")},
    "scan": {
        "n_points": count,
        "samplers": st.one_of(
            st.lists(
                st.sampled_from(["ball", "fiber", "scaled", "gaussian", "other"]), max_size=3
            ),
            junk,
        ),
        "seed": seed, "delta_samples": count, "ball_radius": scalar,
    },
    "optimizer": {
        "max_iters": count, "grad_tol": scalar, "step_size": scalar, "seed": seed,
        "init": st.one_of(
            st.sampled_from(["spectral", "gaussian", "ball", "target", "other"]), junk
        ),
        "perturbation": st.one_of(
            st.fixed_dictionaries(
                {}, optional={"radius": scalar, "trigger_tol": scalar, "cooldown_iters": count}
            ),
            junk,
        ),
    },
}
BASE = {
    "problem": {
        "kind": "denoising", "p": 4, "r": 2, "n": 24, "kappa_star": 1.5,
        "sigma_r_star": 1.0, "noise_sigma": 0.0, "seed": 1,
    },
    "region_params": {"mu": 0.2, "alpha": 0.5, "beta": 1.5, "gamma": 1.5},
    "scan": {
        "n_points": 4, "samplers": ["ball", "fiber", "scaled", "gaussian"],
        "seed": 2, "delta_samples": 10,
    },
    "optimizer": {"max_iters": 30, "grad_tol": 1e-6, "seed": 3, "init": "gaussian"},
}


@st.composite
def configs(draw):
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["kind"] = draw(st.sampled_from(["denoising", "trace_regression"]))
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from([*FIELDS, *FIELDS, "instance_file"]))
        action = draw(
            st.sampled_from(["set"] * 5 + ["delete key", "delete section", "replace section"])
        )
        if name == "instance_file":
            cfg[name] = draw(st.one_of(st.just("missing.json"), junk))
        elif action == "delete section":
            cfg.pop(name, None)
        elif action == "replace section" or not isinstance(cfg.get(name), dict):
            cfg[name] = draw(junk)
        else:
            key = draw(st.sampled_from(sorted(FIELDS[name])))
            if action == "delete key":
                cfg[name].pop(key, None)
            else:
                cfg[name][key] = draw(FIELDS[name][key])
    return cfg


def run_cli(command: str, cfg) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--output-dir", str(Path(tmp) / "out")]
        return main(argv)


# derandomized so that every run of the suite tries the same documents
FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(cfg=st.one_of(configs(), junk))
def test_generate_never_raises(cfg):
    assert run_cli("generate", cfg) in EXIT_CODES


@FUZZ
@given(cfg=configs())
def test_scan_never_raises(cfg):
    assert run_cli("scan", cfg) in EXIT_CODES


@FUZZ
@given(cfg=configs())
def test_optimize_never_raises(cfg):
    assert run_cli("optimize", cfg) in EXIT_CODES

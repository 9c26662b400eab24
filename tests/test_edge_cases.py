import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlandscape.geometry import (
    FactorPoint,
    exp_map,
    horizontal_project,
    log_map,
    quotient_distance,
    vertical_project,
)
from psdlandscape import landscape
from psdlandscape.landscape import (
    RegionParams,
    certify_landscape,
    hess_extreme_eigs,
    horizontal_basis,
    horizontal_dim,
    reports_to_csv,
)
from psdlandscape.errors import InputContractError
from psdlandscape.objectives import (
    DenoisingObjective,
    instance_from_document,
    make_instance,
    restricted_strict_convexity_check,
    rsc_rsm_estimate,
)
from psdlandscape.verify import dense_delta_certificate, sampled_distance_upper_bound


class TestSquareFactor:
    """r = p: the positive-definite specialization with no orthogonal
    complement block."""

    def test_dimension(self):
        assert horizontal_dim(3, 3) == 6  # r (r + 1) / 2

    def test_basis_and_geometry(self):
        rng = np.random.default_rng(1)
        Y = FactorPoint(rng.standard_normal((3, 3)) + 3 * np.eye(3))
        basis = horizontal_basis(Y)
        assert len(basis) == 6
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                ip = float(np.vdot(bi, bj))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10
        Z = rng.standard_normal((3, 3))
        h = horizontal_project(Y, Z)
        v = vertical_project(Y, Z)
        assert abs(np.linalg.norm(Z) ** 2 - h.norm**2 - np.linalg.norm(v) ** 2) < 1e-10

    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(2)
        Y1 = FactorPoint(rng.standard_normal((3, 3)) + 3 * np.eye(3))
        raw = horizontal_project(Y1, rng.standard_normal((3, 3)))
        scale = 0.5 * Y1.sigma_min / raw.norm
        Y2 = FactorPoint(Y1.Y + scale * raw.theta)
        back = exp_map(Y1, log_map(Y1, Y2), 1.0)
        assert quotient_distance(back, Y2) < 1e-9

    def test_hessian_spectrum(self):
        rng = np.random.default_rng(3)
        Ys = FactorPoint(rng.standard_normal((3, 3)) + 3 * np.eye(3))
        obj = DenoisingObjective(Ys).handle()
        est = hess_extreme_eigs(obj, Ys)
        assert est.lambda_min >= 2 * Ys.sigma_min**2 - 1e-8
        assert est.lambda_max <= 4 * Ys.sigma_max**2 + 1e-8


class TestReducedCertificationPath:
    def test_small_form_cap_sends_r1_rows_to_the_reduction(self, monkeypatch):
        # a small form cap sends every R1 spectrum of denoising (8, 2) to
        # the reduction
        monkeypatch.setattr(landscape, "_FORM_MATRIX_CAP", 4)
        calls, spectrum = [], landscape.hess_extreme_eigs
        monkeypatch.setattr(
            landscape, "hess_extreme_eigs", lambda obj, Y, **kw: calls.append(spectrum(obj, Y, **kw)) or calls[-1]
        )
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=5)
        gt = inst.ground_truth
        params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
        reports = certify_landscape(inst.objective, gt, params, ["ball"], 3, seed=2)
        assert all(rep.passed for rep in reports)
        assert all(np.isfinite(rep.lambda_min) for rep in reports)
        (estimates,) = calls  # the scan takes its reduced spectra as one list
        assert [est.method for est in estimates] == ["reduced"] * 3


class TestCsvRoundTrip:
    def test_floats_round_trip_exactly(self):
        inst = make_instance("denoising", 8, 2, kappa_star=2.0, seed=6)
        gt = inst.ground_truth
        params = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
        reports = certify_landscape(inst.objective, gt, params, ["ball", "scaled"], 4, seed=3)
        lines = reports_to_csv(reports).strip().split("\n")
        for rep, line in zip(reports, lines[1:]):
            cells = line.split(",")
            assert float(cells[2]) == rep.dist_to_star
            assert float(cells[3]) == rep.grad_H_norm
            assert float(cells[4]) == rep.grad_h_norm
            assert float(cells[7]) == rep.bound_value
            assert float(cells[8]) == rep.margin


def _denoising_handle():
    return make_instance("denoising", 4, 2, kappa_star=2.0, seed=1).objective


def _factors(bad=None):
    rng = np.random.default_rng(2)
    Y1, Y2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    if bad is not None:
        Y1[0, 0] = bad
    return Y1, Y2


def _denoising_document(**fields):
    return {"kind": "denoising", "p": 4, "r": 2, "n": 0, "seed": 0, "noise_sigma": 0.0,
            "spectrum": [1.0, 0.5], "y": [], **fields}


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: rsc_rsm_estimate(_denoising_handle(), 2, 10, -1), "seed"),
        (lambda: rsc_rsm_estimate(_denoising_handle(), 2, 10, True), "seed"),
        (lambda: rsc_rsm_estimate(_denoising_handle(), 2, 10, 2.5), "seed"),
        (lambda: rsc_rsm_estimate(_denoising_handle(), 0, 10, 0), "r must"),
        (lambda: restricted_strict_convexity_check(_denoising_handle(), 2, 10, -1), "seed"),
        (lambda: restricted_strict_convexity_check(_denoising_handle(), 2, 10, True), "seed"),
        (lambda: restricted_strict_convexity_check(_denoising_handle(), 2, 10, 2.5), "seed"),
        (lambda: restricted_strict_convexity_check(_denoising_handle(), 0, 10, 0), "r must"),
        (lambda: dense_delta_certificate(_denoising_handle(), 1, restarts=4, seed=-1), "seed"),
        (lambda: dense_delta_certificate(_denoising_handle(), 1, restarts=0), "restarts"),
        (lambda: dense_delta_certificate(_denoising_handle(), 1, restarts=True), "restarts"),
        (lambda: sampled_distance_upper_bound(*_factors(), 0, 0), "n_samples"),
        (lambda: sampled_distance_upper_bound(*_factors(), 10, -1), "seed"),
        (lambda: sampled_distance_upper_bound(*_factors(np.nan), 10, 0), "Y1"),
        (lambda: make_instance("denoising", 4, 2, sigma_r_star=1e155), "sigma_r_star"),
        (lambda: make_instance("trace_regression", 4, 2, 20, kappa_star=1e155), "kappa_star"),
        (lambda: make_instance("denoising", 4, 2, noise_sigma=0.05), "^noise_sigma must be 0"),
        (lambda: instance_from_document(_denoising_document(y=[1, 2])), "^y must be empty"),
    ],
    ids=[
        "rsc-seed-negative", "rsc-seed-boolean", "rsc-seed-fractional", "rsc-r-zero",
        "strict-seed-negative", "strict-seed-boolean", "strict-seed-fractional", "strict-r-zero",
        "dense-seed-negative", "dense-restarts-zero", "dense-restarts-boolean",
        "sampled-n-samples-zero", "sampled-seed-negative", "sampled-nan-input",
        "denoising-target-overflows", "trace-target-overflows",
        "denoising-noise", "denoising-document-y",
    ],
)
def test_entry_checks_refuse(call, match):
    with pytest.raises(InputContractError, match=match):
        call()


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=10),
    r=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_projection_pythagoras_property(p, r, seed):
    rng = np.random.default_rng(seed)
    r = min(r, p)
    try:
        Y = FactorPoint(rng.standard_normal((p, r)))
    except Exception:
        return
    Z = rng.standard_normal((p, r))
    h = horizontal_project(Y, Z)
    v = vertical_project(Y, Z)
    total = np.linalg.norm(Z) ** 2
    assert abs(total - h.norm**2 - np.linalg.norm(v) ** 2) <= 1e-9 * max(total, 1.0)
    assert abs(float(np.vdot(h.theta, v))) <= 1e-9 * max(total, 1.0)

"""The scan certifies its points as stacks; these tests hold it to the
single-point primitives. Every row equals, bit for bit, the row rebuilt
from single-point calls on the same point; the size of the chunks changes
no row; and a scan raises the error of its lowest-index failing point,
after every earlier row."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdlandscape import landscape
from psdlandscape.cli import main
from psdlandscape.errors import InputContractError, LandscapeError, NumericalFailure
from psdlandscape.geometry import FactorPoint, quotient_distance
from psdlandscape.kernels import _SCAN_POINT, _stream
from psdlandscape.landscape import (
    SAMPLERS,
    RegionLabel,
    RegionParams,
    certify_landscape,
    classify_region,
    compute_thresholds,
    hess_extreme_eigs,
    horizontal_dim,
)
from psdlandscape.objectives import _sym_grad, make_instance

from perfbench import checks

PARAMS = RegionParams(mu=0.2, alpha=0.5, beta=1.5, gamma=1.5)
FLOATS = ("dist_to_star", "grad_H_norm", "grad_h_norm", "lambda_min", "lambda_max", "bound_value", "margin")


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def assert_same_row(got, want):
    assert (got.point_id, got.region_labels, got.passed) == (want.point_id, want.region_labels, want.passed)
    for name in FLOATS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def scan_with_points(obj, gt, samplers, n_points, seed, **kwargs):
    """The rows of a scan and the point each row was certified at."""
    points, certify = [], landscape._certify_point
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(
            landscape, "_certify_point", lambda i, Y, *args: points.append(Y) or certify(i, Y, *args)
        )
        rows = certify_landscape(obj, gt, PARAMS, samplers, n_points, seed, **kwargs)
    return rows, points


def rebuilt_row(inst, name, seed, i, thresholds):
    """Point ``i`` of a scan drawn and certified on its own: the point from
    ``_sample_point`` on its stream, and each quantity of its row from the
    single-point primitives."""
    obj, gt = inst.objective, inst.ground_truth
    radius = landscape._r1_radius(gt, PARAMS.mu)
    drawn = landscape._sample_point(name, gt, PARAMS, _stream(seed, _SCAN_POINT, i), radius)
    Y = FactorPoint(drawn.Y)
    labels = classify_region(Y, gt, PARAMS)
    dist = quotient_distance(Y, gt.Y_star)
    X = Y.gram()
    R = _sym_grad(obj, X)
    row = landscape._certify_point(i, Y, obj, gt, PARAMS, thresholds)
    assert set(row.region_labels) == labels
    assert bits(row.dist_to_star) == bits(0.0 if dist <= 1e-12 * gt.sigmar_star else dist)
    assert bits(row.grad_H_norm) == bits(np.linalg.norm(2.0 * ((X - gt.X_star) @ Y.Y)))
    assert bits(row.grad_h_norm) == bits(np.linalg.norm(2.0 * (R @ Y.Y)))
    if RegionLabel.R1 in labels:
        est = hess_extreme_eigs(obj, Y)
        assert (bits(row.lambda_min), bits(row.lambda_max)) == (bits(est.lambda_min), bits(est.lambda_max))
    return drawn, row


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(["denoising", "trace_regression"]))
    # denoising reaches the reduced spectrum (m > 44) from p = 16, r = 3
    p = draw(st.integers(2, 16 if kind == "denoising" else 9))
    r = draw(st.integers(1, min(p, 3)))
    n = p * (p + 1) if kind == "trace_regression" else 0
    seed = draw(st.integers(0, 50))
    return make_instance(kind, p, r, n=n, kappa_star=1.0 if r == 1 else 2.0, seed=seed)


@settings(max_examples=30, deadline=None)
@given(
    inst=problems(),
    samplers=st.lists(st.sampled_from(SAMPLERS), min_size=1, max_size=4, unique=True),
    n_points=st.integers(1, 12),
    seed=st.integers(0, 2**20),
)
def test_every_row_equals_its_point_certified_alone(inst, samplers, n_points, seed):
    thresholds = compute_thresholds(inst.ground_truth, PARAMS, inst.r)
    rows, points = scan_with_points(inst.objective, inst.ground_truth, samplers, n_points, seed)
    assert len(rows) == n_points
    for i, (row, Y) in enumerate(zip(rows, points)):
        drawn, want = rebuilt_row(inst, samplers[i % len(samplers)], seed, i, thresholds)
        assert np.array_equal(Y.Y, drawn.Y) and np.array_equal(Y.svd.U, drawn.svd.U)
        assert_same_row(row, want)


@pytest.mark.parametrize("per_chunk", [1, 3])
@pytest.mark.parametrize(
    "problem",
    [{"kind": "denoising", "p": 9, "r": 2}, {"kind": "trace_regression", "p": 6, "r": 2, "n": 40}],
    ids=["denoising", "trace_regression"],
)
def test_chunks_change_no_row(problem, per_chunk, monkeypatch):
    inst = make_instance(kappa_star=2.0, seed=4, **problem)
    obj, gt = inst.objective, inst.ground_truth
    whole = certify_landscape(obj, gt, PARAMS, SAMPLERS, 10, seed=6)
    classify, stacks = landscape._classify, []
    monkeypatch.setattr(landscape, "_classify", lambda pts, *a: stacks.append(len(pts)) or classify(pts, *a))
    monkeypatch.setattr(landscape, "_BLOCK_BYTES", 8 * gt.Y_star.p**2 * per_chunk)
    chunked = certify_landscape(obj, gt, PARAMS, SAMPLERS, 10, seed=6)
    assert stacks == [per_chunk] * (10 // per_chunk) + [10 % per_chunk] * (10 % per_chunk > 0)
    for got, want in zip(chunked, whole, strict=True):
        assert_same_row(got, want)


def sequential_error(obj, gt, samplers, n_points, seed, ball_radius):
    """The error of the first failing step when the points are drawn and
    certified one at a time, in order."""
    thresholds = compute_thresholds(gt, PARAMS, gt.Y_star.r)
    try:
        for i in range(n_points):
            rng = _stream(seed, _SCAN_POINT, i)
            Y = landscape._sample_point(samplers[i % len(samplers)], gt, PARAMS, rng, ball_radius)
            landscape._certify_point(i, Y, obj, gt, PARAMS, thresholds)
    except LandscapeError as exc:
        return exc
    return None


def nan_gradient_beyond(inst, gram_norm):
    """The instance's handle, but with a NaN gradient wherever ``||X||_F``
    exceeds ``gram_norm``."""
    grad = inst.objective.euclid_grad
    return dataclasses.replace(
        inst.objective,
        euclid_grad=lambda X: np.full_like(X, np.nan) if np.linalg.norm(X) > gram_norm else grad(X),
    )


@pytest.mark.parametrize(
    "samplers, error",
    [(["scaled", "ball"], NumericalFailure), (["ball", "scaled"], InputContractError)],
    ids=["row-error-first", "sampling-error-first"],
)
def test_a_sampling_failure_waits_for_earlier_rows(samplers, error):
    # scaled points have a NaN gradient (a row error); an infinite radius
    # refuses every ball point while it is drawn (a sampling error)
    inst = make_instance("denoising", 7, 2, kappa_star=2.0, seed=8)
    gt = inst.ground_truth
    obj = nan_gradient_beyond(inst, 1.2 * gt.X_star_norm)
    want = sequential_error(obj, gt, samplers, 4, 3, np.inf)
    assert isinstance(want, error)
    with pytest.raises(error) as got:
        certify_landscape(obj, gt, PARAMS, samplers, 4, seed=3, ball_radius=np.inf)
    assert str(got.value) == str(want)


def test_a_point_that_fails_classification_is_raised_at_its_index(monkeypatch):
    # point 2 alone cannot be aligned; the scan certifies rows 0 and 1 first,
    # and an earlier row error would come before it
    inst = make_instance("denoising", 7, 2, kappa_star=2.0, seed=9)
    obj, gt = inst.objective, inst.ground_truth
    _, points = scan_with_points(obj, gt, ["ball"], 4, 5)
    align = landscape._align

    def failing_align(Ys, Y_star):
        if any(np.array_equal(Y, points[2].Y) for Y in Ys):
            raise NumericalFailure("SVD did not converge for shape (2, 2)")
        return align(Ys, Y_star)

    monkeypatch.setattr(landscape, "_align", failing_align)
    certified = []
    certify = landscape._certify_point
    monkeypatch.setattr(
        landscape, "_certify_point", lambda i, *args: certified.append(i) or certify(i, *args)
    )
    with pytest.raises(NumericalFailure, match="did not converge"):
        certify_landscape(obj, gt, PARAMS, ["ball"], 4, seed=5)
    assert certified == [0, 1]
    with pytest.raises(NumericalFailure, match="non-finite"):
        certify_landscape(nan_gradient_beyond(inst, 0.0), gt, PARAMS, ["ball"], 4, seed=5)


def rank_deficient_draws(monkeypatch, count):
    """Make the first ``count`` Gaussian candidates of the scan rank deficient
    (two equal columns); returns the sizes of the Gaussian stacks drawn."""
    sampled, stacks, made = landscape._sampled_factors, [], []

    def deficient(name, *args):
        Ys = sampled(name, *args)
        if name == "gaussian":
            stacks.append(len(Ys))
            for Y in Ys[: max(0, count - len(made))]:
                Y[:, 1] = Y[:, 0]
                made.append(Y)
        return Ys

    monkeypatch.setattr(landscape, "_sampled_factors", deficient)
    return stacks


def test_a_rank_deficient_gaussian_draw_is_redrawn_from_its_stream(monkeypatch):
    inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=10)
    obj, gt = inst.objective, inst.ground_truth
    whole, _ = scan_with_points(obj, gt, ["ball", "gaussian"], 6, 7)
    rank_deficient_draws(monkeypatch, 1)
    rows, points = scan_with_points(obj, gt, ["ball", "gaussian"], 6, 7)
    # point 1 is the first Gaussian point: its second draw replaces the first
    rng = _stream(7, _SCAN_POINT, 1)
    rng.standard_normal((6, 2))
    second = gt.sigma1_star / np.sqrt(6) * rng.standard_normal((6, 2))
    assert np.array_equal(points[1].Y, second)
    for i in (0, 2, 3, 4, 5):
        assert_same_row(rows[i], whole[i])


def test_a_gaussian_point_without_a_full_rank_draw_fails_at_its_index(monkeypatch):
    inst = make_instance("denoising", 6, 2, kappa_star=2.0, seed=10)
    obj, gt = inst.objective, inst.ground_truth
    stacks = rank_deficient_draws(monkeypatch, 10**6)
    certified = []
    certify = landscape._certify_point
    monkeypatch.setattr(
        landscape, "_certify_point", lambda i, *args: certified.append(i) or certify(i, *args)
    )
    with pytest.raises(NumericalFailure, match="full-rank Gaussian"):
        certify_landscape(obj, gt, PARAMS, ["ball", "gaussian"], 4, seed=7)
    # the stack of points 1 and 3, then 99 redraws of each; row 0 came first
    assert certified == [0]
    assert stacks == [2] + [1] * 198


# ---------------------------------------------------------------------------
# The R1 spectra of a scan chunk, taken as stacks
# ---------------------------------------------------------------------------

#: (p, r) of horizontal dimension over the form cap (44): the denoising
#: reduction where p > 2 r, the mapped dense path where p <= 2 r
STACKED_SIZES = {"denoising": [(16, 3), (20, 3), (13, 4), (10, 6), (12, 6)], "trace_regression": [(16, 3), (24, 2)]}


def own_seed_point(inst, scale):
    """``Y* + scale G`` with ``G`` the first normal draw of the target's own
    stream: ``G`` spans the columns of ``Y*``, so ``[Y, Y*]`` has rank ``r``."""
    G = np.random.default_rng(np.random.SeedSequence([inst.seed, 0])).standard_normal((inst.p, inst.r))
    return FactorPoint(inst.ground_truth.Y_star.Y + scale * G)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["denoising", "trace_regression"]),
    size=st.integers(0, 4),
    seed=st.integers(0, 50),
    names=st.lists(st.sampled_from(["ball", "fiber", "gaussian", "own-seed"]), min_size=1, max_size=5),
    stream=st.integers(0, 2**20),
)
def test_stacked_extremes_match_the_dense_oracle(kind, size, seed, names, stream):
    p, r = STACKED_SIZES[kind][size % len(STACKED_SIZES[kind])]
    assert horizontal_dim(p, r) > landscape._FORM_MATRIX_CAP
    inst = make_instance(kind, p, r, n=12 * p if kind == "trace_regression" else 0, kappa_star=2.0, seed=seed)
    gt = inst.ground_truth
    radius = landscape._r1_radius(gt, PARAMS.mu)
    points = [
        own_seed_point(inst, 0.3 * radius / np.sqrt(p * r)) if name == "own-seed"
        else landscape._sample_point(name, gt, PARAMS, _stream(stream, _SCAN_POINT, i), radius)
        for i, name in enumerate(names)
    ]
    for Y, name in zip(points, names):
        if name == "own-seed":
            assert np.linalg.matrix_rank(np.hstack([Y.Y, gt.Y_star.Y])) == r
    estimates = hess_extreme_eigs(inst.objective, points)
    reduced = kind == "denoising" and p > 2 * r
    sensing = None if kind == "denoising" else inst.trace_regression.sensing
    for Y, est in zip(points, estimates, strict=True):
        assert est.method == ("reduced" if reduced else "dense")
        lo, hi = checks.horizontal_extremes(Y.Y, gt.X_star, sensing)
        scale = max(abs(lo), abs(hi))
        assert abs(est.lambda_min - lo) <= 1e-12 * scale and abs(est.lambda_max - hi) <= 1e-12 * scale


def stacked_problem(kind):
    """The benchmark's two scan problems: denoising (20, 3) takes its R1
    spectra from the reduction, trace regression (30, 2, 600) from the
    mapped dense path. Returns the instance and the bytes of one point's
    stack entry (its lifts, and on the mapped path its rows ``F``)."""
    if kind == "denoising":
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=1)
        return inst, 8 * horizontal_dim(6, 3) * 6**2
    inst = make_instance("trace_regression", 30, 2, n=600, seed=1)
    return inst, 8 * horizontal_dim(30, 2) * (30**2 + 600)


@pytest.mark.parametrize("stack", [1, 3, "chunk"])
@pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
def test_stacked_spectra_equal_one_call_per_point(kind, stack, monkeypatch):
    # six R1 points; a budget of three stack entries also cuts denoising's
    # chunks to four points, so its stacks are 3, 1 and 2
    inst, item_bytes = stacked_problem(kind)
    obj, gt = inst.objective, inst.ground_truth
    whole = certify_landscape(obj, gt, PARAMS, ["ball", "fiber"], 6, seed=2)
    if stack != "chunk":
        monkeypatch.setattr(landscape, "_BLOCK_BYTES", stack * item_bytes)
    factorized, eigvals = [], landscape.sym_eigvals
    monkeypatch.setattr(landscape, "sym_eigvals", lambda M, **kw: factorized.append(len(M)) or eigvals(M, **kw))
    rows, points = scan_with_points(obj, gt, ["ball", "fiber"], 6, 2)
    assert all(RegionLabel.R1 in row.region_labels for row in rows)
    if stack == "chunk":  # the mapped path learns the length of a row F from its first point
        assert factorized == ([6] if kind == "denoising" else [1, 5])
    else:
        assert sum(factorized) == 6 and max(factorized) == stack
    for row, want in zip(rows, whole, strict=True):
        assert_same_row(row, want)
    monkeypatch.undo()
    for Y, row in zip(points, rows):
        est = hess_extreme_eigs(obj, Y)
        assert (bits(row.lambda_min), bits(row.lambda_max)) == (bits(est.lambda_min), bits(est.lambda_max))


def test_a_failing_spectrum_is_raised_at_its_index(tmp_path, monkeypatch, capsys):
    # the reduced gradient of point 3 alone is made non-finite: the scan
    # certifies rows 0-2, then raises that point's error when row 3 reads
    # its spectrum, as a scan of one point at a time does, and the command
    # line exits 3 with its message
    inst, _ = stacked_problem("denoising")
    obj, gt = inst.objective, inst.ground_truth
    _, points = scan_with_points(obj, gt, ["ball"], 6, 5)
    Y3 = points[3].Y
    Yq3 = np.linalg.qr(np.hstack([Y3, gt.Y_star.Y]))[0].T @ Y3
    grams = landscape._grams

    def poisoned(pts):
        X = grams(pts)
        bad = [k for k, Y in enumerate(pts) if np.array_equal(Y.Y, Yq3)]
        return np.where(np.isin(np.arange(len(X)), bad)[:, None, None], np.nan, X) if bad else X

    monkeypatch.setattr(landscape, "_grams", poisoned)
    want = sequential_error(obj, gt, ["ball"], 6, 5, landscape._r1_radius(gt, PARAMS.mu))
    assert isinstance(want, NumericalFailure) and str(want) == "the Euclidean gradient has non-finite entries"
    certified, certify = [], landscape._certify_point
    monkeypatch.setattr(landscape, "_certify_point", lambda i, *args: certified.append(i) or certify(i, *args))
    with pytest.raises(NumericalFailure) as got:
        certify_landscape(obj, gt, PARAMS, ["ball"], 6, seed=5)
    assert str(got.value) == str(want) and certified == [0, 1, 2, 3]

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "denoising", "p": 20, "r": 3, "kappa_star": 2.0, "seed": 1},
        "region_params": dataclasses.asdict(PARAMS),
        "scan": {"n_points": 6, "samplers": ["ball"], "seed": 5},
        "output_dir": str(tmp_path / "out"),
    }))
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {want}\n"

"""The scan certifies its points as stacks; these tests hold it to the
single-point primitives. Every row equals, bit for bit, the row rebuilt
from single-point calls on the same point; the size of the chunks changes
no row; and a scan raises the error of its lowest-index failing point,
after every earlier row."""

import dataclasses
import json
import struct
import tracemalloc

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
    RegionReport,
    RegionParams,
    certify_landscape,
    classify_region,
    compute_thresholds,
    hess_extreme_eigs,
    horizontal_basis,
    horizontal_dim,
)
from psdlandscape.objectives import ObjectiveHandle, _sym_grad, make_instance

from perfbench import checks
from test_acceptance import _r2_point

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
    points, certify = [], landscape._certify_rows
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(
            landscape, "_certify_rows", lambda ids, pts, *args: points.extend(pts) or certify(ids, pts, *args)
        )
        rows = certify_landscape(obj, gt, PARAMS, samplers, n_points, seed, **kwargs)
    return rows, points


def certified_ids(monkeypatch):
    """The ids of the rows that the row builder certifies from now on, in order."""
    certified, certify = [], landscape._certify_rows

    def recorded(ids, *args):
        rows = certify(ids, *args)
        certified.extend(row.point_id for row in rows if isinstance(row, RegionReport))
        return rows

    monkeypatch.setattr(landscape, "_certify_rows", recorded)
    return certified


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
    T = gt.Y_star.Y
    factor_grad = np.linalg.norm(2.0 * (Y.Y @ (Y.Y.T @ Y.Y) - T @ (T.T @ Y.Y)))
    R = _sym_grad(obj, Y.gram())
    row = landscape._certify_point(i, Y, obj, gt, PARAMS, thresholds)
    assert set(row.region_labels) == labels
    assert bits(row.dist_to_star) == bits(dist)
    assert bits(row.grad_H_norm) == bits(factor_grad)
    if inst.kind == "denoising":  # the factor form on the handle's target
        assert bits(row.grad_h_norm) == bits(factor_grad)
    else:
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
    point_bytes = landscape._point_bytes(obj, gt.Y_star.p, gt.Y_star.r)
    monkeypatch.setattr(landscape, "_BLOCK_BYTES", point_bytes * per_chunk)
    chunked = certify_landscape(obj, gt, PARAMS, SAMPLERS, 10, seed=6)
    assert stacks == [per_chunk] * (10 // per_chunk) + [10 % per_chunk] * (10 % per_chunk > 0)
    for got, want in zip(chunked, whole, strict=True):
        assert_same_row(got, want)


# ---------------------------------------------------------------------------
# The rows of a scan chunk, built as one stack
# ---------------------------------------------------------------------------

#: every builder of the R1 spectra: the reduction at denoising (20, 3) and
#: (200, 5), form pairs at (6, 2) and the map's rows at trace regression
ROW_PROBLEMS = {
    "denoising-20-3": {"kind": "denoising", "p": 20, "r": 3},
    "denoising-6-2": {"kind": "denoising", "p": 6, "r": 2},
    "denoising-200-5": {"kind": "denoising", "p": 200, "r": 5},
    "trace-30-2-600": {"kind": "trace_regression", "p": 30, "r": 2, "n": 600},
}


#: the R2 points of ``_r2_point`` drop a target direction, so the target's
#: alignment onto them is not unique, which their rows warn of
R2_WARNING = "ignore:alignment of the target onto Y is not unique:RuntimeWarning"


@pytest.mark.filterwarnings(R2_WARNING)
@pytest.mark.parametrize("name", list(ROW_PROBLEMS))
def test_stacked_rows_equal_each_point_certified_alone(name):
    # eight points of all four samplers and three R2 points, as one stack
    inst = make_instance(kappa_star=2.0, seed=1, **ROW_PROBLEMS[name])
    obj, gt = inst.objective, inst.ground_truth
    thresholds = compute_thresholds(gt, PARAMS, inst.r)
    _, points = scan_with_points(obj, gt, SAMPLERS, 8, 2)
    rng = np.random.default_rng(3)
    points += [_r2_point(gt, rng, PARAMS) for _ in range(3)]
    ids = list(range(10, 10 + len(points)))
    rows = landscape._certify_rows(ids, points, obj, gt, PARAMS, thresholds)
    labels = {label for row in rows for label in row.region_labels}
    assert {RegionLabel.R1, RegionLabel.R2, RegionLabel.R3_TRIPLE_PRIME} <= labels
    for i, row, Y in zip(ids, rows, points, strict=True):
        assert_same_row(row, landscape._certify_point(i, Y, obj, gt, PARAMS, thresholds))


@pytest.mark.filterwarnings(R2_WARNING)
@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(2, 200),
    r=st.integers(1, 5),
    kappa=st.floats(1.0, 5.0),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_factor_form_norms_match_the_p_by_p_ones(p, r, kappa, seed, scale):
    # the exact-factorization gradient norm ||2 (Y Y.T - X*) Y||_F and the
    # Gram norm ||Y Y.T||_F from r x r Grams only, against the p x p arrays:
    # the gradient within 1e-14 of 2 ||Y||_F (||Y||_F^2 + ||X*||_F), a
    # bound on the terms whose difference it is (near the target the
    # difference cancels, and its relative gap reached 5e-11), the Gram norm
    # within 1e-14 relative; and on denoising the handle's gradient norm is
    # the exact-factorization one, bit for bit
    r = min(r, p)
    inst = make_instance("denoising", p, r, kappa_star=1.0 if r == 1 else kappa, sigma_r_star=scale, seed=seed)
    obj, gt = inst.objective, inst.ground_truth
    radius = landscape._r1_radius(gt, PARAMS.mu)
    names = [SAMPLERS[i % len(SAMPLERS)] for i in range(8)]
    points = landscape._sample_points(names, gt, PARAMS, [_stream(seed, _SCAN_POINT, i) for i in range(8)], radius)
    if p >= r + 2:  # room for the column that completes an R2 point
        rng = np.random.default_rng(seed)
        points += [_r2_point(gt, rng, PARAMS) for _ in range(2)]
    points = [Y for Y in points if isinstance(Y, FactorPoint)]
    classes = landscape._classify(points, gt, PARAMS)
    thresholds = compute_thresholds(gt, PARAMS, r)
    rows = landscape._certify_rows(list(range(len(points))), points, obj, gt, PARAMS, thresholds)
    for Y, grad_norm, gram_norm, row in zip(points, classes.grad_norm, classes.gram_norm, rows, strict=True):
        X = Y.gram()
        scale_of_terms = 2.0 * np.linalg.norm(Y.Y) * (np.linalg.norm(Y.Y) ** 2 + gt.X_star_norm)
        assert abs(grad_norm - np.linalg.norm(2.0 * ((X - gt.X_star) @ Y.Y))) <= 1e-14 * scale_of_terms
        assert abs(gram_norm - np.linalg.norm(X)) <= 1e-14 * np.linalg.norm(X)
        R = _sym_grad(obj, X)
        assert abs(row.grad_h_norm - np.linalg.norm(2.0 * (R @ Y.Y))) <= 1e-14 * scale_of_terms
        assert bits(row.grad_h_norm) == bits(row.grad_H_norm) == bits(grad_norm)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from([-1.0, 0.0, 0.5, 2.0, np.inf, -np.inf, np.nan])),
            min_size=6, max_size=6,
        ),
        min_size=1, max_size=8,
    )
)
def test_worst_checks_are_the_ones_min_finds(rows):
    # the loop that took each row's worst check before the rows were stacked
    applies = np.array([[a for a, _ in row] for row in rows])
    margins = np.array([[m for _, m in row] for row in rows])
    for row, worst in zip(rows, landscape._worst_checks(applies, margins), strict=True):
        checks = [col for col, (a, _) in enumerate(row) if a]
        assert worst == (min(checks, key=lambda col: row[col][1]) if checks else -1)


def test_a_denoising_scan_forms_no_p_by_p_array_per_point():
    # at p = 3000 one p x p array takes 72 MB; the instance (with X*) is
    # built before tracing, and the scan's eight points, their alignments,
    # gradient norms and reduced spectra take p x r arrays only
    p = 3000
    inst = make_instance("denoising", p, 3, kappa_star=2.0, seed=1)
    tracemalloc.start()
    try:
        rows = certify_landscape(inst.objective, inst.ground_truth, PARAMS, SAMPLERS, 8, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 8 and any(RegionLabel.R1 in row.region_labels for row in rows)
    assert peak < 8 * p * p


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
    exceeds ``gram_norm``, and no map, so that every row reads that gradient."""
    grad = inst.objective.euclid_grad
    return dataclasses.replace(
        inst.objective,
        euclid_grad=lambda X: np.full_like(X, np.nan) if np.linalg.norm(X) > gram_norm else grad(X),
        least_squares=None,
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
    # point 2 alone cannot be aligned; the rows of the other points are
    # certified and the scan raises point 2's error, and an earlier row
    # error would come before it
    inst = make_instance("denoising", 7, 2, kappa_star=2.0, seed=9)
    obj, gt = inst.objective, inst.ground_truth
    _, points = scan_with_points(obj, gt, ["ball"], 4, 5)
    align = landscape._align

    def failing_align(Ys, Y_star):
        if any(np.array_equal(Y, points[2].Y) for Y in Ys):
            raise NumericalFailure("SVD did not converge for shape (2, 2)")
        return align(Ys, Y_star)

    monkeypatch.setattr(landscape, "_align", failing_align)
    certified = certified_ids(monkeypatch)
    with pytest.raises(NumericalFailure, match="did not converge"):
        certify_landscape(obj, gt, PARAMS, ["ball"], 4, seed=5)
    assert certified == [0, 1, 3]
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
    certified = certified_ids(monkeypatch)
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


def stack_size(M):
    """The points whose Hessian matrices ``M`` holds: a lone point's matrix
    has no leading axis."""
    return len(M) if M.ndim == 3 else 1


def stack_entry_bytes(q, r, reduced=False):
    """The bytes of one ``q x r`` point's stack entry: its basis, its
    gradient and its Hessian matrix, and on the reduction its flattened
    lifts, which one product maps for the whole stack."""
    m = horizontal_dim(q, r)
    return 8 * (m * (q * r + m) + q * q + (m * q * q if reduced else 0))


def stacked_problem(kind):
    """The benchmark's two scan problems: denoising (20, 3) takes its R1
    spectra from the reduction, at 6 x 3 points, trace regression
    (30, 2, 600) from the map's rows. Returns the instance and the bytes of
    one point's stack entry."""
    if kind == "denoising":
        inst = make_instance("denoising", 20, 3, kappa_star=2.0, seed=1)
        return inst, stack_entry_bytes(6, 3, reduced=True)
    inst = make_instance("trace_regression", 30, 2, n=600, seed=1)
    return inst, stack_entry_bytes(30, 2)


def lift_by_lift(obj):
    """``obj`` with a ``forward`` that maps each lift on its own, so that
    its rows keep their bits however ``_BLOCK_BYTES`` cuts the lifts into
    blocks (a matrix product over a block rounds by the block's size)."""
    ls = obj.least_squares
    forward = lambda Gs: np.stack([ls.forward(G) for G in Gs])  # noqa: E731
    return dataclasses.replace(obj, least_squares=dataclasses.replace(ls, forward=forward))


@pytest.mark.parametrize("stack", [1, 3, "chunk"])
@pytest.mark.parametrize("kind", ["denoising", "trace_regression"])
def test_stacked_spectra_equal_one_call_per_point(kind, stack, monkeypatch):
    # six R1 points in one chunk; a budget of three stack entries cuts
    # their spectra into stacks of three
    inst, item_bytes = stacked_problem(kind)
    obj, gt = lift_by_lift(inst.objective), inst.ground_truth
    whole = certify_landscape(obj, gt, PARAMS, ["ball", "fiber"], 6, seed=2)
    if stack != "chunk":
        monkeypatch.setattr(landscape, "_BLOCK_BYTES", stack * item_bytes)
    factorized, eigvals = [], landscape.sym_eigvals
    monkeypatch.setattr(landscape, "sym_eigvals", lambda M, **kw: factorized.append(stack_size(M)) or eigvals(M, **kw))
    rows, points = scan_with_points(obj, gt, ["ball", "fiber"], 6, 2)
    assert all(RegionLabel.R1 in row.region_labels for row in rows)
    if stack == "chunk":
        assert factorized == [6]
    else:
        assert sum(factorized) == 6 and max(factorized) == stack
    for row, want in zip(rows, whole, strict=True):
        assert_same_row(row, want)
    monkeypatch.undo()
    for Y, row in zip(points, rows):
        est = hess_extreme_eigs(obj, Y)
        assert (bits(row.lambda_min), bits(row.lambda_max)) == (bits(est.lambda_min), bits(est.lambda_max))


def builder_problem(builder):
    """A handle whose spectra take ``builder``'s matrix, eight points (seven
    near its target, one far from it), and the shape ``(q, r)`` of the
    points the spectra are taken at: form pairs at denoising (6, 2); the map's rows
    at trace regression (30, 2, 600); the reduction at denoising (20, 3),
    whose reduced points are 6 x 3; and a custom handle (the denoising
    objective written by hand, no map) at (30, 3), m = 87."""
    kind, p, r, n = {
        "form": ("denoising", 6, 2, 0),
        "mapped": ("trace_regression", 30, 2, 600),
        "reduced": ("denoising", 20, 3, 0),
        "custom": ("denoising", 30, 3, 0),
    }[builder]
    inst = make_instance(kind, p, r, n=n, kappa_star=2.0, seed=1)
    obj, Y_star = inst.objective, inst.ground_truth.Y_star.Y
    if builder == "custom":
        X_star = inst.ground_truth.X_star
        obj = ObjectiveHandle(
            lambda X: 0.5 * float(np.linalg.norm(X - X_star) ** 2),
            lambda X: X - X_star,
            lambda X, G1, G2: float(np.vdot(G1, G2)),
            p,
        )
    rng = np.random.default_rng(3)
    points = [FactorPoint(Y_star + scale * rng.standard_normal((p, r))) for scale in [0.05] * 7 + [3.0]]
    return obj, points, (2 * r if builder == "reduced" else p, r)


@pytest.mark.parametrize("stack", [1, 3, "whole"])
@pytest.mark.parametrize("builder", ["form", "mapped", "reduced", "custom"])
def test_a_list_call_equals_each_point_alone(builder, stack, monkeypatch):
    obj, points, (q, r) = builder_problem(builder)
    if stack != "whole":
        monkeypatch.setattr(landscape, "_BLOCK_BYTES", stack * stack_entry_bytes(q, r, builder == "reduced"))
    factorized, eigvals = [], landscape.sym_eigvals
    monkeypatch.setattr(landscape, "sym_eigvals", lambda M, **kw: factorized.append(stack_size(M)) or eigvals(M, **kw))
    grads = [None if k % 2 else _sym_grad(obj, Y.gram()) for k, Y in enumerate(points)]
    estimates = hess_extreme_eigs(obj, points, grad=grads)
    stack = len(points) if stack == "whole" else stack
    assert factorized == [stack] * (8 // stack) + [8 % stack] * (8 % stack > 0)
    for Y, est in zip(points, estimates, strict=True):
        alone = hess_extreme_eigs(obj, Y)
        assert est.method == alone.method == ("reduced" if builder == "reduced" else "dense")
        assert (bits(est.lambda_min), bits(est.lambda_max)) == (bits(alone.lambda_min), bits(alone.lambda_max))


BAD_LISTS = {
    "fewer-gradients": lambda obj, Y, R: hess_extreme_eigs(obj, [Y, Y, Y], grad=[R]),
    "empty": lambda obj, Y, R: hess_extreme_eigs(obj, []),
    "empty-basis": lambda obj, Y, R: horizontal_basis([]),
    "mixed-shapes": lambda obj, Y, R: hess_extreme_eigs(obj, [Y, FactorPoint(Y.Y[:, 1:])]),
    "mixed-shape-basis": lambda obj, Y, R: horizontal_basis([Y, FactorPoint(Y.Y[:, 1:])]),
    "not-a-point": lambda obj, Y, R: hess_extreme_eigs(obj, [Y, Y.Y]),
    "other-p": lambda obj, Y, R: hess_extreme_eigs(obj, FactorPoint(np.vstack([Y.Y, Y.Y[:1] + 1.0]))),
    "gradient-shape": lambda obj, Y, R: hess_extreme_eigs(obj, Y, grad=R[:-1]),
    "gradient-list-for-one-point": lambda obj, Y, R: hess_extreme_eigs(obj, Y, grad=[R]),
    "gradient-shape-in-a-list": lambda obj, Y, R: hess_extreme_eigs(obj, [Y, Y], grad=[R, R[:, :-1]]),
}


@pytest.mark.parametrize("case", list(BAD_LISTS))
@pytest.mark.parametrize("builder", ["form", "mapped", "reduced", "custom"])
def test_bad_point_and_gradient_lists_are_refused(builder, case):
    obj, (Y, *_), _ = builder_problem(builder)
    with pytest.raises(InputContractError):
        BAD_LISTS[case](obj, Y, _sym_grad(obj, Y.gram()))


def test_a_failing_spectrum_is_raised_at_its_index(tmp_path, monkeypatch, capsys):
    # the SVD of the reduced point of point 3 alone is made to fail: the
    # scan certifies the other rows, then raises that point's error at its
    # index, as a scan of one point at a time does, and the command line
    # exits 3 with its message
    inst, _ = stacked_problem("denoising")
    obj, gt = inst.objective, inst.ground_truth
    _, points = scan_with_points(obj, gt, ["ball"], 6, 5)
    Y3 = points[3].Y
    Yq3 = np.linalg.qr(np.hstack([Y3, gt.Y_star.Y]))[0].T @ Y3
    thin_svd = landscape._thin_svd

    def failing_svd(Yq):
        if any(np.array_equal(Y, Yq3) for Y in Yq):
            raise NumericalFailure(f"SVD did not converge for shape {Yq.shape[-2:]}")
        return thin_svd(Yq)

    monkeypatch.setattr(landscape, "_thin_svd", failing_svd)
    want = sequential_error(obj, gt, ["ball"], 6, 5, landscape._r1_radius(gt, PARAMS.mu))
    assert isinstance(want, NumericalFailure) and str(want) == "SVD did not converge for shape (6, 3)"
    certified = certified_ids(monkeypatch)
    with pytest.raises(NumericalFailure) as got:
        certify_landscape(obj, gt, PARAMS, ["ball"], 6, seed=5)
    assert str(got.value) == str(want) and certified == [0, 1, 2, 4, 5]

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

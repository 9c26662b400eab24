import dataclasses

import numpy as np
import pytest

from psdlandscape.errors import InputContractError
from psdlandscape.geometry import FactorPoint, HorizontalTangent, horizontal_project, quotient_distance
from psdlandscape.objectives import make_denoising, make_trace_regression, rsc_rsm_estimate
from psdlandscape.verify import (
    brute_distance_rank1,
    dense_delta_certificate,
    fd_gradient_check,
    fd_hessian_check,
    run_suite,
    sampled_distance_upper_bound,
    suite_names,
    symmetric_delta_upper,
)


ORACLES = [symmetric_delta_upper, lambda obj: dense_delta_certificate(obj, 1, restarts=4)]
ORACLE_IDS = ["symmetric_delta_upper", "dense_delta_certificate"]


def unit_horizontal(rng, Y):
    th = horizontal_project(Y, rng.standard_normal(Y.Y.shape))
    return HorizontalTangent(th.theta / th.norm, Y)


class TestFDChecks:
    def test_denoising_at_target_both_zero(self):
        den, gt = make_denoising(6, 2, kappa_star=2.0, seed=1)
        rng = np.random.default_rng(2)
        th = unit_horizontal(rng, gt.Y_star)
        res = fd_gradient_check(den.handle(), gt.Y_star, th)
        assert res.analytic == pytest.approx(0.0, abs=1e-12)
        assert res.numeric == pytest.approx(0.0, abs=1e-8)

    def test_gradient_random_probes(self):
        rng = np.random.default_rng(3)
        reg, _ = make_trace_regression(6, 2, 60, noise_sigma=0.1, seed=4)
        obj = reg.handle()
        for _ in range(100):
            Y = FactorPoint(rng.standard_normal((6, 2)))
            th = unit_horizontal(rng, Y)
            res = fd_gradient_check(obj, Y, th)
            assert res.rel_err < 1e-5

    def test_hessian_random_probes(self):
        rng = np.random.default_rng(5)
        reg, _ = make_trace_regression(6, 2, 60, noise_sigma=0.1, seed=6)
        obj = reg.handle()
        for _ in range(100):
            Y = FactorPoint(rng.standard_normal((6, 2)))
            th = unit_horizontal(rng, Y)
            res = fd_hessian_check(obj, Y, th)
            assert res.rel_err < 1e-4

    def test_quadratic_lift_plugin(self):
        # zero-target quadratic: the Hessian along theta = Y is exact in FD
        from psdlandscape.objectives import ObjectiveHandle

        rng = np.random.default_rng(7)
        Y = FactorPoint(rng.standard_normal((5, 2)))
        handle = ObjectiveHandle(
            value=lambda X: 0.5 * float(np.linalg.norm(X) ** 2),
            euclid_grad=lambda X: X,
            euclid_hess_form=lambda X, G1, G2: float(np.vdot(G1, G2)),
            p=5,
            r=2,
        )
        th = HorizontalTangent(Y.Y, Y)
        res = fd_gradient_check(handle, Y, th)
        assert res.rel_err < 1e-6
        analytic_expected = float(np.vdot(2.0 * Y.gram() @ Y.Y, Y.Y))
        assert res.analytic == pytest.approx(analytic_expected, rel=1e-12)


class TestBruteDistance:
    def test_same_and_flipped(self):
        y = np.array([1.0, 2.0, 3.0])
        assert brute_distance_rank1(y, y) == 0.0
        assert brute_distance_rank1(y, -y) == 0.0

    def test_matches_quotient_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y1 = rng.standard_normal(6)
            y2 = rng.standard_normal(6)
            d = quotient_distance(FactorPoint(y1[:, None]), FactorPoint(y2[:, None]))
            assert d == pytest.approx(brute_distance_rank1(y1, y2), abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(InputContractError):
            brute_distance_rank1(np.zeros(3), np.ones(3))


class TestSampledDistance:
    def test_upper_bounds_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            Y1 = rng.standard_normal((6, 2))
            Y2 = rng.standard_normal((6, 2))
            d = quotient_distance(FactorPoint(Y1), FactorPoint(Y2))
            bound = sampled_distance_upper_bound(Y1, Y2, 200, seed=3)
            assert d <= bound + 1e-12

    def test_same_fiber_reaches_zero(self):
        rng = np.random.default_rng(10)
        Y1 = rng.standard_normal((7, 2))
        Q, R = np.linalg.qr(rng.standard_normal((2, 2)))
        O0 = Q * np.sign(np.diag(R))[None, :]
        Y2 = Y1 @ O0.T
        bound = sampled_distance_upper_bound(Y1, Y2, 10_000, seed=4)
        print(f"sampled alignment bound on the same fiber: {bound:.2e}")
        assert bound <= 1e-6

    def test_rank1_reduces_to_brute_force(self):
        rng = np.random.default_rng(11)
        y1 = rng.standard_normal((5, 1))
        y2 = rng.standard_normal((5, 1))
        bound = sampled_distance_upper_bound(y1, y2, 50, seed=5)
        assert bound == pytest.approx(brute_distance_rank1(y1, y2), abs=1e-12)


class TestDeltaCertificate:
    def test_denoising_is_exact_isometry(self):
        den, _ = make_denoising(6, 2, kappa_star=2.0, seed=12)
        assert dense_delta_certificate(den.handle(), 2, restarts=4, seed=0) < 1e-10

    def test_constructed_isometry(self):
        # orthonormal symmetric sensing basis: the map is an exact isometry
        from psdlandscape.objectives import TraceRegressionObjective

        p = 3
        mats = []
        for i in range(p):
            E = np.zeros((p, p))
            E[i, i] = 1.0
            mats.append(E)
        for i in range(p):
            for j in range(i + 1, p):
                E = np.zeros((p, p))
                E[i, j] = E[j, i] = 1.0 / np.sqrt(2)
                mats.append(E)
        sensing = np.stack(mats)
        reg = TraceRegressionObjective(sensing, np.zeros(len(mats)), 1)
        obj = reg.handle()
        assert dense_delta_certificate(obj, 1, restarts=4, seed=1) < 1e-10

    def test_rank_inactive_matches_exact_extremum(self):
        # 4r >= p: the ascent certificate equals the dense symmetric extremum
        reg, _ = make_trace_regression(6, 3, 50, seed=13)
        obj = reg.handle()
        cert = dense_delta_certificate(obj, 3, restarts=6, seed=2)
        exact = symmetric_delta_upper(obj)
        assert cert == pytest.approx(exact, rel=1e-6)

    def test_probe_point_irrelevant_for_quadratic(self):
        reg, _ = make_trace_regression(5, 2, 40, seed=14)
        obj = reg.handle()
        a = dense_delta_certificate(obj, 2, restarts=4, seed=3)
        b = dense_delta_certificate(obj, 2, restarts=4, seed=30)
        assert a == pytest.approx(b, rel=1e-4)

    def test_rejects_large_p(self):
        reg, _ = make_trace_regression(9, 2, 20, seed=15)
        with pytest.raises(InputContractError):
            dense_delta_certificate(reg.handle(), 2)

    def test_gram_matches_the_hessian_form(self):
        # reference: one Hessian-form call per basis pair, at a point the
        # constant Hessian ignores; only the summation order differs
        from psdlandscape.objectives import _form_matrix, random_symmetric_low_rank
        from psdlandscape.verify import _least_squares_gram

        obj = make_trace_regression(5, 2, 40, seed=18)[0].handle()
        flat, M = _least_squares_gram(obj)
        X = random_symmetric_low_rank(5, 4, np.random.default_rng(0))
        ref = _form_matrix(obj, X, flat.reshape(-1, 5, 5))
        np.testing.assert_allclose(M, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("oracle", ORACLES, ids=ORACLE_IDS)
    def test_oracle_reads_the_map_once(self, oracle):
        obj = make_trace_regression(6, 2, 40, seed=16)[0].handle()
        images, forms = [], []

        def counted_images(Gs):
            images.append(len(Gs))
            return obj.least_squares.images(Gs)

        def counted_form(X, G1, G2):
            forms.append(1)
            return obj.euclid_hess_form(X, G1, G2)

        counted = dataclasses.replace(
            obj,
            euclid_hess_form=counted_form,
            least_squares=dataclasses.replace(obj.least_squares, images=counted_images),
        )
        oracle(counted)
        # one sweep over the 21 basis matrices of the symmetric 6 x 6 space
        assert (images, len(forms)) == ([21], 0)

    @pytest.mark.parametrize("oracle", ORACLES, ids=ORACLE_IDS)
    def test_oracle_needs_a_least_squares_handle(self, oracle):
        # the oracles rest on a constant Hessian, which a custom handle need not have
        obj = make_trace_regression(5, 2, 40, seed=17)[0].handle()
        with pytest.raises(InputContractError):
            oracle(dataclasses.replace(obj, least_squares=None))
        with pytest.raises(InputContractError):
            oracle(make_trace_regression(9, 2, 20, seed=15)[0].handle())

    @pytest.mark.parametrize("p", range(4, 9))
    def test_sampled_delta_hat_stays_below_the_exact_bound(self, p):
        # scan gates on the sampled estimate; no probe may exceed the exact extremum
        obj = make_trace_regression(p, 2, 12 * p, seed=40 + p)[0].handle()
        assert rsc_rsm_estimate(obj, 2, 200, seed=p) <= symmetric_delta_upper(obj)


class TestSuites:
    def test_all_suites_green_small(self):
        for name in suite_names():
            summary = run_suite(name, seed=0, instances=25)
            assert summary.green, f"suite {name}: {summary}"

    def test_unknown_suite(self):
        with pytest.raises(InputContractError):
            run_suite("no-such-suite")

    def test_summary_reproducible(self):
        a = run_suite("norm-sandwich", seed=7, instances=10)
        b = run_suite("norm-sandwich", seed=7, instances=10)
        assert a == b

    def test_summary_dict_fields(self):
        s = run_suite("distance-transfer", seed=1, instances=5)
        d = s.to_dict()
        assert set(d) == {"suite", "instances", "passes", "worst_rel_err", "seed"}

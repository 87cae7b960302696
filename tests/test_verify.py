import numpy as np
import pytest

from hypermetric.domains import HalfSpace, Interval, PuncturedSpace, UnitBall
from hypermetric.metrics import MetricKind, MetricParams, h_metric
from hypermetric import verify
from hypermetric.quasihyperbolic import KControls
from hypermetric.verify import (
    CollinearViolation,
    InequalityReport,
    check_growth_bound,
    collinear_c_scan,
    default_r_grid,
    growth_bound_constant,
    inequality_suite,
    phi_triangle_counterexample,
    triangle_scan,
    uniformity_estimate,
)

from test_domains import annulus_domain

B2 = UnitBall(2)
H2 = HalfSpace(2)
C2 = MetricParams(2.0)

THRESHOLD_C19 = 0.9972299168975069  # smallest violating r for c = 1.9


class TestTriangleScan:
    def test_h_passes_on_ball(self):
        report = triangle_scan(B2, MetricKind.H, C2, 20_000, seed=42)
        assert report.passed
        assert report.min_slack >= -1e-9

    def test_h_passes_on_interval(self):
        report = triangle_scan(Interval(0, 1), MetricKind.H, C2, 20_000, seed=42)
        assert report.passed

    def test_phi_fails_with_witness(self):
        report = triangle_scan(B2, MetricKind.PHI, C2, 20_000, seed=42)
        assert not report.passed
        assert report.min_slack < 0
        # recompute the violated rotation from the witness coordinates
        from hypermetric.metrics import phi_quantity

        x, y, z = report.witness
        slacks = [
            phi_quantity(B2, x, z) + phi_quantity(B2, z, y) - phi_quantity(B2, x, y),
            phi_quantity(B2, x, y) + phi_quantity(B2, y, z) - phi_quantity(B2, x, z),
            phi_quantity(B2, y, x) + phi_quantity(B2, x, z) - phi_quantity(B2, y, z),
        ]
        assert min(slacks) == pytest.approx(report.min_slack, abs=1e-12)

    def test_sub_sharp_h_fails(self):
        report = triangle_scan(B2, MetricKind.H, MetricParams(1.0), 20_000, seed=1)
        assert not report.passed

    def test_determinism(self):
        a = triangle_scan(B2, MetricKind.H, C2, 5_000, seed=7)
        b = triangle_scan(B2, MetricKind.H, C2, 5_000, seed=7)
        assert a.to_json() == b.to_json()

    def test_slack_csv(self):
        report = triangle_scan(B2, MetricKind.H, C2, 1000, seed=0, keep_slacks=True)
        lines = report.csv_lines()
        assert lines[0] == "index,slack"
        assert len(lines) == 1001

    @pytest.mark.parametrize("count", [1, 2, 20_001])
    def test_generic_domain_chunk_without_boundary_rows(self, count):
        # a 1- or 2-triple chunk rounds its boundary stratum to 0 rows
        report = triangle_scan(annulus_domain(), MetricKind.H, C2, count, seed=0,
                               keep_slacks=True)
        assert report.passed
        assert report.sample_count == count == report.slacks.shape[0]


class TestCollinearScan:
    def test_sharp_c_has_no_violation(self):
        assert collinear_c_scan(2.0) is None
        assert collinear_c_scan(2.5) is None
        assert collinear_c_scan(10.0) is None

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 1.9, 1.99])
    def test_sub_sharp_c_violates(self, c):
        hit = collinear_c_scan(c)
        assert isinstance(hit, CollinearViolation)
        assert hit.lhs < hit.rhs

    def test_threshold_c19(self):
        grid = np.arange(0.9960, 0.9990, 1e-4)
        hit = collinear_c_scan(1.9, grid)
        assert hit is not None
        assert THRESHOLD_C19 <= hit.r <= THRESHOLD_C19 + 1e-4 + 1e-12

    def test_monotone_threshold_in_c(self):
        rs = [collinear_c_scan(c).r for c in (1.99, 1.9, 1.5, 1.0, 0.5)]
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_scan_matches_h_metric(self):
        hit = collinear_c_scan(1.9, [0.999])
        assert hit is not None
        params = MetricParams(1.9)
        lhs = 2 * h_metric(B2, params, (0, 0), (0.999, 0))
        rhs = h_metric(B2, params, (-0.999, 0), (0.999, 0))
        assert hit.lhs == pytest.approx(lhs, abs=1e-12)
        assert hit.rhs == pytest.approx(rhs, abs=1e-12)

    def test_spec_example_arithmetic(self):
        # c=1.9, r=0.999: 2/sqrt(1-r) + c r/(1-r) < 2/(1-r)
        r, c = 0.999, 1.9
        lhs = 2 / np.sqrt(1 - r) + c * r / (1 - r)
        assert lhs == pytest.approx(1961.3455532033676, abs=1e-9)
        assert lhs < 2 / (1 - r)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="inside"):
            collinear_c_scan(2.0, [0.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            collinear_c_scan(-1.0)

    def test_default_grid_reaches_near_one(self):
        grid = default_r_grid()
        assert grid[-1] >= 1 - 1.1e-8
        assert np.all((grid > 0) & (grid < 1))


class TestPhiCounterexample:
    def test_reference_t(self):
        hit = phi_triangle_counterexample([0.9])
        assert hit.t == 0.9
        assert hit.lhs == pytest.approx(4.416548827045609, abs=1e-10)
        assert hit.rhs == pytest.approx(5.783825182329737, abs=1e-10)

    def test_small_t_regression(self):
        # the violation is strict for every t in (0,1); regression-freeze
        # the t = 0.1 values
        hit = phi_triangle_counterexample([0.1])
        assert hit.lhs == pytest.approx(0.2004312664468599, abs=1e-12)
        assert hit.rhs == pytest.approx(0.2006706954621512, abs=1e-12)
        assert hit.lhs < hit.rhs

    def test_none_found_error_path(self):
        # at denormal t both sides evaluate to equal floats: no violation
        with pytest.raises(ValueError, match="no phi triangle violation"):
            phi_triangle_counterexample([1e-300])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            phi_triangle_counterexample([])


CLOSED_FORM_DOMAINS = [B2, UnitBall(3), H2, PuncturedSpace(2), Interval(0, 1)]


class TestSuites:
    @pytest.mark.parametrize("domain", CLOSED_FORM_DOMAINS, ids=lambda d: d.spec_string())
    @pytest.mark.parametrize("suite", ["L2_9", "C2_10", "L3_1", "L4_4_1", "L4_4_2"])
    def test_chain_suites_pass_everywhere(self, suite, domain):
        report = inequality_suite(suite, domain, C2, 2000, seed=5)
        assert report.passed, report.min_slack

    def test_identity_suite(self):
        for c in (1.0, 2.0, 5.0):
            report = inequality_suite("P2_3_1", H2, MetricParams(c), 2000, seed=5)
            assert report.passed

    def test_sandwich_suite(self):
        report = inequality_suite("P2_3_2", B2, C2, 2000, seed=5)
        assert report.passed

    def test_moebius_suites(self):
        for suite in ("L2_5", "L2_7"):
            report = inequality_suite(suite, B2, C2, 2000, seed=5)
            assert report.passed
            assert report.params["isometry_max_gap"] <= 1e-9
            assert report.params["observed_sup_ratio"] <= 2.0 + 1e-9

    def test_comparison_function_suite(self):
        for c in (0.5, 1.0, 2.0, 10.0):
            report = inequality_suite("P2_8", B2, MetricParams(c), 500, seed=5)
            assert report.passed
            assert report.min_slack > 0  # strict

    def test_model_bounds_suite(self):
        for domain in (B2, H2):
            report = inequality_suite("T4_6", domain, C2, 2000, seed=5)
            assert report.passed

    def test_T4_6_requires_sharp_c(self):
        with pytest.raises(ValueError, match="c >= 2"):
            inequality_suite("T4_6", B2, MetricParams(1.0), 100, seed=0)

    def test_T4_6_requires_model_domain(self):
        with pytest.raises(ValueError, match="ball or half-space"):
            inequality_suite("T4_6", PuncturedSpace(2), C2, 100, seed=0)

    def test_L4_4_1_upper_chain_fails_below_c1(self):
        # the h <= c j step needs c >= 1; document the honest failure
        report = inequality_suite("L4_4_1", B2, MetricParams(0.5), 2000, seed=5)
        assert not report.passed

    def test_quasihyperbolic_suites(self):
        controls = KControls(0.1, 1)
        for suite in ("QHJ", "C4_5"):
            report = inequality_suite(
                suite, H2, C2, 10, seed=5, k_controls=controls
            )
            assert report.passed, (suite, report.min_slack)
        report = inequality_suite("C4_5", B2, C2, 10, seed=5, k_controls=controls)
        assert report.passed
        assert report.params["u_hat"] >= 1.0

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            inequality_suite("L9_9", B2, C2, 10, seed=0)

    def test_suite_determinism(self):
        a = inequality_suite("L2_9", B2, C2, 1000, seed=3)
        b = inequality_suite("L2_9", B2, C2, 1000, seed=3)
        assert a.to_json() == b.to_json()


class TestReports:
    def test_json_round_trip(self):
        report = triangle_scan(B2, MetricKind.H, C2, 500, seed=1)
        clone = InequalityReport.from_json(report.to_json())
        assert clone == InequalityReport.from_json(clone.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.min_slack == report.min_slack
        assert clone.witness == report.witness

    def test_pass_invariant(self):
        report = triangle_scan(B2, MetricKind.PHI, C2, 5000, seed=1)
        assert report.passed == (report.min_slack >= -report.tolerance)

    def test_csv_needs_slacks(self):
        report = triangle_scan(B2, MetricKind.H, C2, 100, seed=1)
        with pytest.raises(ValueError, match="slacks"):
            report.csv_lines()


class TestGrowthBound:
    def test_identity_same_metric(self):
        pairs = [((0.0, 0.0), (0.5, 0.0)), ((0.1, 0.1), (-0.2, 0.4))]
        metric = lambda x, y: h_metric(B2, C2, x, y)
        report = check_growth_bound(metric, metric, 1.0, 1.0, pairs)
        assert report.passed
        assert report.min_slack == 0.0
        assert report.params["worst_ratio"] == pytest.approx(1.0)

    def test_moebius_distortion_as_growth_bound(self):
        from hypermetric.moebius import BallAutomorphism

        auto = BallAutomorphism(np.array([0.5, 0.0]))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.6, 0.6, size=(50, 2, 2))
        pairs = [(p[0], p[1]) for p in pts]
        source = lambda x, y: h_metric(B2, C2, x, y)
        target = lambda x, y: h_metric(B2, C2, auto.apply(x), auto.apply(y))
        report = check_growth_bound(source, target, 2.0, 1.0, pairs)
        assert report.passed

    def test_constant_arithmetic(self):
        assert growth_bound_constant(0.5, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
        coef = 1.0 / growth_bound_constant(0.5, 2.0)
        assert coef == pytest.approx(12.0, abs=1e-12)
        pairs = [((0.0, 0.0), (0.3, 0.0))]
        metric = lambda x, y: h_metric(B2, C2, x, y)
        report = check_growth_bound(metric, metric, coef, 0.5, pairs)
        assert report.passed

    def test_validation(self):
        metric = lambda x, y: 0.0
        with pytest.raises(ValueError, match="exponent"):
            check_growth_bound(metric, metric, 1.0, 1.5, [((0,), (1,))])
        with pytest.raises(ValueError, match="coef"):
            check_growth_bound(metric, metric, -1.0, 1.0, [((0,), (1,))])


class TestUniformity:
    def test_halfspace_estimate(self):
        est = uniformity_estimate(H2, 32, seed=9, k_controls=KControls(0.1, 1))
        assert est.U_hat >= 1.0
        assert np.isfinite(est.U_hat)
        assert est.sample_count == 32

    def test_degenerate_floor(self, monkeypatch):
        monkeypatch.setattr(verify, "_J_FLOOR", 1e9)
        with pytest.raises(ValueError, match="j floor"):
            uniformity_estimate(H2, 8, seed=9)

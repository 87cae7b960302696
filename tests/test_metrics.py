import numpy as np
import pytest

from hypermetric.domains import HalfSpace, Interval, PuncturedSpace, UnitBall, sample_interior
from hypermetric.metrics import (
    MetricKind,
    MetricParams,
    comparison_f,
    h_many,
    h_metric,
    h_metric_general,
    j_many,
    j_metric,
    pair_evaluator,
    phi_many,
    phi_quantity,
    rho_ball,
    rho_ball_many,
    rho_halfspace,
    validate_kind,
)

B2 = UnitBall(2)
H2 = HalfSpace(2)
C2 = MetricParams(2.0)

# high-precision reference values (mpmath, 40 digits)
LOG_1_SQRT2 = 0.8813735870195430  # log(1 + sqrt 2)
LOG2 = 0.6931471805599453
LOG3 = 1.0986122886681098
LOG9 = 2.1972245773362196
LOG_9_1 = 2.2082744135228043  # log 9.1
LOG_325 = 5.7838251823297375
ARCOSH_1_5 = 0.9624236501192069
F_1_2 = 1.1263510608940036  # log(1 + 4 sinh(1/2))


class TestParams:
    def test_positive_c_required(self):
        with pytest.raises(ValueError, match="positive"):
            MetricParams(0.0)

    def test_sub_sharp_flag(self):
        assert MetricParams(1.9).sub_sharp
        assert not MetricParams(2.0).sub_sharp


class TestHMetric:
    def test_ball_example(self):
        assert h_metric(B2, C2, (0, 0), (0.5, 0)) == pytest.approx(LOG_1_SQRT2, abs=1e-12)

    def test_halfspace_example(self):
        assert h_metric(H2, C2, (0, 1), (0, 2)) == pytest.approx(LOG_1_SQRT2, abs=1e-12)

    def test_zero_at_equal_points(self):
        assert h_metric(B2, C2, (0.3, 0.1), (0.3, 0.1)) == 0.0

    def test_outside_raises(self):
        for y in ((0, 0), (2, 0)):
            with pytest.raises(ValueError, match="not inside"):
                h_metric(B2, C2, (2, 0), y)

    def test_monotone_in_c(self):
        values = [h_metric(B2, MetricParams(c), (0, 0), (0.5, 0)) for c in (1, 2, 5, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_general_form(self):
        assert h_metric_general(0.0, 3.0, 4.0, C2) == 0.0
        assert h_metric_general(1.0, 1.0, 1.0, C2) == pytest.approx(LOG3, abs=1e-14)
        assert h_metric_general(1.0, 4.0, 1.0, C2) == pytest.approx(LOG2, abs=1e-14)

    def test_general_rejects_bad_clearance(self):
        with pytest.raises(ValueError, match="positive"):
            h_metric_general(1.0, 0.0, 1.0, C2)

    def test_matches_general_composition(self):
        x, y = (0.2, 0.1), (-0.4, 0.3)
        dx = B2.boundary_distance(x)
        dy = B2.boundary_distance(y)
        rho = float(np.linalg.norm(np.subtract(x, y)))
        assert h_metric(B2, C2, x, y) == pytest.approx(
            h_metric_general(rho, dx, dy, C2), abs=1e-15
        )


class TestJMetric:
    def test_ball_example(self):
        assert j_metric(B2, (0, 0), (0.5, 0)) == pytest.approx(LOG2, abs=1e-12)

    def test_interval_example(self):
        assert j_metric(Interval(0, 1), 0.2, 0.6) == pytest.approx(LOG3, abs=1e-12)

    def test_zero_at_equal_points(self):
        assert j_metric(B2, (0.1, 0.2), (0.1, 0.2)) == 0.0


class TestPhi:
    def test_quadratic_term_dominates(self):
        assert phi_quantity(B2, (0.9, 0), (0, 0)) == pytest.approx(LOG_9_1, abs=1e-12)

    def test_symmetric_pair(self):
        assert phi_quantity(B2, (0.9, 0), (-0.9, 0)) == pytest.approx(LOG_325, abs=1e-12)

    def test_zero_at_equal_points(self):
        assert phi_quantity(B2, (0.5, 0.1), (0.5, 0.1)) == 0.0


class TestRhoHalfspace:
    def test_vertical_pair(self):
        assert rho_halfspace((0, 1), (0, 2)) == pytest.approx(LOG2, abs=1e-14)

    def test_unit_offset(self):
        assert rho_halfspace((0, 1), (1, 1)) == pytest.approx(ARCOSH_1_5, abs=1e-14)

    def test_zero_at_equal_points(self):
        assert rho_halfspace((3, 0.5), (3, 0.5)) == 0.0

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError, match="positive last"):
            rho_halfspace((0, 0), (0, 1))

    def test_vertical_equals_log_ratio(self):
        for a, b in [(0.5, 3.0), (1e-3, 1.0), (2.0, 2.5)]:
            assert rho_halfspace((0, a), (0, b)) == pytest.approx(
                abs(np.log(b / a)), rel=1e-12
            )


class TestRhoBall:
    def test_radial_pair(self):
        assert rho_ball((0, 0), (0.5, 0)) == pytest.approx(LOG3, abs=1e-14)

    def test_antipodal_half(self):
        assert rho_ball((0.5, 0), (-0.5, 0)) == pytest.approx(LOG9, abs=1e-14)

    def test_zero_at_equal_points(self):
        assert rho_ball((0.3, 0.3), (0.3, 0.3)) == 0.0

    def test_outside_rejected(self):
        for y in ((0, 0), (1.0, 0)):
            with pytest.raises(ValueError, match="< 1"):
                rho_ball((1.0, 0), y)

    def test_radial_log_form_on_grid(self):
        # rho(0, r e1) = log((1+r)/(1-r))
        for r in np.linspace(0.05, 0.999, 40):
            expected = np.log((1 + r) / (1 - r))
            assert rho_ball((0, 0), (r, 0)) == pytest.approx(expected, rel=1e-12)

    def test_forms_agree_near_boundary(self):
        # the internal sinh/tanh cross-check must stay silent even for
        # boundary-hugging pairs
        xs = sample_interior(B2, 2000, seed=8, min_clearance=1e-6)
        ys = sample_interior(B2, 2000, seed=9, min_clearance=1e-6)
        rho_ball_many(xs, ys)


class TestComparisonF:
    def test_zero_at_zero(self):
        assert comparison_f(0.0, 2.0) == 0.0

    def test_reference_value(self):
        assert comparison_f(1.0, 2.0) == pytest.approx(F_1_2, abs=1e-14)

    def test_bounds_at_reference(self):
        # c/(2(1+c)) t < f < c t at t=1, c=2
        assert 1.0 / 3.0 < comparison_f(1.0, 2.0) < 2.0

    def test_strict_bounds_on_log_grid(self):
        for c in (0.5, 1.0, 2.0, 10.0):
            t = np.logspace(-6, np.log10(50.0), 400)
            f = comparison_f(t, c)
            assert np.all(f > c / (2 * (1 + c)) * t)
            assert np.all(f < c * t)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            comparison_f(-1.0, 2.0)


class TestSymmetryAndIdentity:
    @pytest.mark.parametrize("domain", [B2, H2, PuncturedSpace(2), Interval(0, 1)],
                             ids=lambda d: d.spec_string())
    def test_symmetry_sampled(self, domain):
        xs = sample_interior(domain, 500, seed=1, min_clearance=1e-4)
        ys = sample_interior(domain, 500, seed=2, min_clearance=1e-4)
        for fn in (
            lambda a, b: h_many(domain, a, b, 2.0),
            lambda a, b: j_many(domain, a, b),
            lambda a, b: phi_many(domain, a, b),
        ):
            assert np.max(np.abs(fn(xs, ys) - fn(ys, xs))) <= 1e-14

    def test_rho_symmetry(self):
        xs = sample_interior(B2, 300, seed=3, min_clearance=1e-3)
        ys = sample_interior(B2, 300, seed=4, min_clearance=1e-3)
        assert np.max(np.abs(rho_ball_many(xs, ys) - rho_ball_many(ys, xs))) <= 1e-14

    @pytest.mark.parametrize("domain", [B2, H2], ids=lambda d: d.spec_string())
    def test_positive_at_distinct_points(self, domain):
        xs = sample_interior(domain, 300, seed=5, min_clearance=1e-3)
        ys = sample_interior(domain, 300, seed=6, min_clearance=1e-3)
        distinct = np.any(xs != ys, axis=1)
        assert np.all(h_many(domain, xs, ys, 2.0)[distinct] > 0)


class TestIdentitySandwich:
    def test_halfspace_identity(self):
        # sqrt(2 (cosh rho - 1)) == (e^h - 1)/c for every c
        xs = sample_interior(H2, 2000, seed=10, min_clearance=1e-3)
        ys = sample_interior(H2, 2000, seed=11, min_clearance=1e-3)
        from hypermetric.metrics import rho_halfspace_many

        lhs = 2.0 * np.sinh(0.5 * rho_halfspace_many(xs, ys))
        for c in (1.0, 2.0, 5.0):
            rhs = np.expm1(h_many(H2, xs, ys, c)) / c
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_ball_sandwich(self):
        xs = sample_interior(B2, 2000, seed=12, min_clearance=1e-3)
        ys = sample_interior(B2, 2000, seed=13, min_clearance=1e-3)
        s = np.sinh(0.5 * rho_ball_many(xs, ys))
        for c in (1.0, 2.0, 5.0):
            u = np.expm1(h_many(B2, xs, ys, c)) / c
            assert np.all(u >= s - 1e-10)
            assert np.all(u <= 2 * s + 1e-10)


class TestKindDispatch:
    def test_rho_ball_needs_ball(self):
        with pytest.raises(ValueError, match="ball"):
            validate_kind(MetricKind.RHO_BALL, H2)

    def test_rho_halfspace_needs_halfspace(self):
        with pytest.raises(ValueError, match="half-space"):
            validate_kind(MetricKind.RHO_HALFSPACE, B2)

    def test_parse(self):
        assert MetricKind.parse("h") is MetricKind.H
        with pytest.raises(ValueError, match="unknown metric"):
            MetricKind.parse("nope")

    def test_evaluator_matches_scalar(self):
        ev = pair_evaluator(MetricKind.H, B2, C2)
        x = np.array([[0.0, 0.0]])
        y = np.array([[0.5, 0.0]])
        assert ev(x, y)[0] == pytest.approx(h_metric(B2, C2, (0, 0), (0.5, 0)))

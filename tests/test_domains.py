import numpy as np
import pytest

from hypermetric.domains import (
    GenericDomain,
    HalfSpace,
    Interval,
    PointSet,
    PuncturedSpace,
    UnitBall,
    as_point,
    distance_to_set,
    lipschitz_defect,
    parse_domain,
    sample_complement,
    sample_interior,
)

ALL_DOMAINS = [
    UnitBall(2),
    UnitBall(3),
    HalfSpace(2),
    PuncturedSpace(2),
    Interval(0.0, 1.0),
]


def annulus_domain():
    """Generic test domain: annulus 0.25 < |x| < 1 via its exact clearance."""

    def dist(xs):
        r = np.linalg.norm(xs, axis=1)
        return np.minimum(r - 0.25, 1.0 - r)

    def member(xs):
        r = np.linalg.norm(xs, axis=1)
        return (r > 0.25) & (r < 1.0)

    return GenericDomain(2, dist, member, ((-1.0, -1.0), (1.0, 1.0)))


class TestContains:
    def test_ball_center(self):
        assert UnitBall(2).contains((0, 0))

    def test_ball_boundary_excluded(self):
        assert not UnitBall(2).contains((1, 0))

    def test_interval_midpoint(self):
        assert Interval(0, 1).contains(0.5)

    def test_punctured_origin_excluded(self):
        assert not PuncturedSpace(2).contains((0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            UnitBall(2).contains((1, 0, 0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            as_point((np.nan, 0))


class TestBoundaryDistance:
    def test_ball(self):
        assert UnitBall(2).boundary_distance((0.5, 0)) == pytest.approx(0.5, abs=1e-15)

    def test_halfspace(self):
        assert HalfSpace(2).boundary_distance((3, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_interval(self):
        assert Interval(0, 1).boundary_distance(0.2) == pytest.approx(0.2, abs=1e-15)

    def test_outside_raises(self):
        with pytest.raises(ValueError, match="not inside"):
            UnitBall(2).boundary_distance((2, 0))

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=lambda d: d.spec_string())
    def test_positivity_on_samples(self, domain):
        pts = sample_interior(domain, 500, seed=3, min_clearance=1e-9)
        d = domain.clearance_many(pts)
        assert np.all(d > 0)


class TestBruteForceBoundaryOracle:
    """Closed-form clearances against dense boundary sampling (n = 2)."""

    N_BOUNDARY = 10_000

    def test_ball(self):
        domain = UnitBall(2)
        pts = sample_interior(domain, 50, seed=1, min_clearance=1e-3)
        ang = 2 * np.pi * np.arange(self.N_BOUNDARY) / self.N_BOUNDARY
        boundary = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        for p in pts:
            brute = np.min(np.linalg.norm(boundary - p, axis=1))
            assert abs(brute - domain.boundary_distance(p)) < 1e-6

    def test_halfspace(self):
        domain = HalfSpace(2)
        pts = sample_interior(domain, 50, seed=2, min_clearance=1e-2)
        for p in pts:
            line = np.linspace(p[0] - 1.0, p[0] + 1.0, self.N_BOUNDARY)
            boundary = np.stack([line, np.zeros_like(line)], axis=1)
            brute = np.min(np.linalg.norm(boundary - p, axis=1))
            assert abs(brute - domain.boundary_distance(p)) < 1e-6

    def test_interval(self):
        domain = Interval(0, 1)
        pts = sample_interior(domain, 50, seed=3, min_clearance=1e-3)
        boundary = np.array([[0.0], [1.0]])
        for p in pts:
            brute = np.min(np.abs(boundary[:, 0] - p[0]))
            assert abs(brute - domain.boundary_distance(p)) < 1e-15


class TestDistanceToSet:
    def test_single_point(self):
        a = PointSet(np.array([[1.0, 0.0]]))
        assert distance_to_set((0, 0), a) == pytest.approx(1.0)

    def test_nearer_of_two(self):
        a = PointSet(np.array([[3.0, 0.0], [0.0, 2.0]]))
        assert distance_to_set((0, 0), a) == pytest.approx(2.0)

    def test_translation(self):
        eps = 0.125
        a = PointSet(np.array([[1.0, 1.0 + eps]]))
        assert distance_to_set((1, 1), a) == pytest.approx(eps, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PointSet(np.empty((0, 2)))

    def test_member_inside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            PointSet.outside(UnitBall(2), [[0.5, 0.0]])

    def test_complement_sampler(self):
        for domain in ALL_DOMAINS:
            a = sample_complement(domain, 5, seed=9)
            assert not np.any(domain.contains_many(a.points))

    def test_lipschitz_for_point_sets(self):
        domain = UnitBall(2)
        a = sample_complement(domain, 6, seed=4)
        xs = sample_interior(domain, 400, seed=5, min_clearance=1e-6)
        ys = sample_interior(domain, 400, seed=6, min_clearance=1e-6)
        from hypermetric.domains import distance_to_set_many

        gap = np.abs(distance_to_set_many(xs, a) - distance_to_set_many(ys, a))
        assert np.all(gap <= np.linalg.norm(xs - ys, axis=1) + 1e-12)


class TestSampling:
    def test_contract(self):
        pts = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        assert pts.shape == (100, 2)
        assert np.all(UnitBall(2).clearance_many(pts) >= 1e-3)

    def test_determinism(self):
        a = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        b = sample_interior(UnitBall(2), 100, seed=7, min_clearance=1e-3)
        assert np.array_equal(a, b)

    def test_interval_range(self):
        pts = sample_interior(Interval(0, 1), 3, seed=1, min_clearance=0.01)
        assert pts.shape == (3, 1)
        assert np.all((pts >= 0.01) & (pts <= 0.99))

    def test_infeasible_clearance(self):
        with pytest.raises(ValueError, match="infeasible"):
            sample_interior(UnitBall(2), 10, seed=0, min_clearance=1.0)


class TestLipschitz:
    @pytest.mark.parametrize(
        "domain", ALL_DOMAINS + [annulus_domain()], ids=lambda d: d.spec_string()
    )
    def test_clearance_is_1_lipschitz(self, domain):
        assert lipschitz_defect(domain) <= 1e-12


class TestParseDomain:
    def test_round_trip(self):
        for spec in ["ball:2", "halfspace:3", "punctured:2", "interval:0:1"]:
            assert parse_domain(spec).spec_string() == spec

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown domain"):
            parse_domain("torus:2")

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="a < b"):
            parse_domain("interval:1:0")

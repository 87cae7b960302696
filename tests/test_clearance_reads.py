"""Each clearance is read once per point: counted domain queries."""

import numpy as np

from hypermetric.domains import HalfSpace, UnitBall
from hypermetric.maps import linear_dilatation
from hypermetric.metrics import MetricKind, MetricParams, h_metric
from hypermetric.moebius import Identity
from hypermetric.quasihyperbolic import k_estimate
from hypermetric.verify import inequality_suite, triangle_scan

C2 = MetricParams(2.0)


class CountingBall(UnitBall):
    """The unit ball, counting the rows of every clearance query."""

    def __init__(self, dimension):
        super().__init__(dimension)
        object.__setattr__(self, "rows", 0)

    def clearance_many(self, xs):
        d = super().clearance_many(xs)
        object.__setattr__(self, "rows", self.rows + d.shape[0])
        return d


def test_h_metric_reads_two_rows_per_pair():
    ball = CountingBall(2)
    assert h_metric(ball, C2, (0.1, 0.2), (0.3, -0.4)) > 0
    assert ball.rows == 2


def test_membership_is_the_clearance_query():
    ball = CountingBall(2)
    assert ball.contains((0.5, 0.0)) and not ball.contains((1.5, 0.0))
    assert ball.boundary_distance((0.5, 0.0)) == 0.5
    assert ball.rows == 3


def test_linear_dilatation_reads_the_base_point_once():
    ball = CountingBall(2)
    linear_dilatation(Identity(ball), (0.1, 0.2), [0.1, 0.01])
    assert ball.rows == 1


def test_triangle_scan_reads_at_most_eight_rows_per_triple():
    ball = CountingBall(2)
    report = triangle_scan(ball, MetricKind.H, C2, 100_000, seed=5)
    assert ball.rows <= 8 * 100_000
    assert report.to_json() == triangle_scan(UnitBall(2), MetricKind.H, C2, 100_000,
                                             seed=5).to_json()


def test_kinds_without_clearance_read_none():
    from hypermetric.metrics import kind_clearances

    ball = CountingBall(2)
    xs = np.array([[0.1, 0.2], [0.0, -0.5]])
    for kind in (MetricKind.RHO_BALL, MetricKind.QUASIHYPERBOLIC):
        assert kind_clearances(kind, ball, xs) is None
    assert ball.rows == 0
    assert np.array_equal(kind_clearances(MetricKind.J, ball, xs), UnitBall(2).clearance_many(xs))
    assert ball.rows == 2


def test_suite_reads_each_point_once():
    # C2_10 evaluates j, phi and h_1 on the same 500 pairs: one rejection
    # batch of 1024 candidates per point set, then one read per point
    ball = CountingBall(2)
    inequality_suite("C2_10", ball, C2, 500, seed=1)
    assert ball.rows == 2 * 1024 + 2 * 500


class EndpointCountingHalfSpace(HalfSpace):
    """The half-plane, counting the rows of its clearance queries that are
    one of the two query points (their coordinates are off every lattice
    and half-lattice, so no node or edge midpoint matches them)."""

    def __init__(self, *endpoints):
        super().__init__(2)
        object.__setattr__(self, "endpoints", [np.asarray(p, dtype=float) for p in endpoints])
        object.__setattr__(self, "rows", 0)

    def clearance_many(self, xs):
        hits = sum(int(np.count_nonzero(np.all(np.asarray(xs) == p, axis=1)))
                   for p in self.endpoints)
        object.__setattr__(self, "rows", self.rows + hits)
        return super().clearance_many(xs)


def test_k_estimate_reads_each_endpoint_once():
    # three levels with a direct x-y edge at the first: the containment
    # check, both attachments per level and the direct edge share one read
    x, y = (0.0123, 1.0), (0.2071, 1.1)
    half = EndpointCountingHalfSpace(x, y)
    est = k_estimate(half, x, y, 0.05, 2)
    assert half.rows == 2
    assert est.refinement_history == k_estimate(HalfSpace(2), x, y, 0.05, 2).refinement_history

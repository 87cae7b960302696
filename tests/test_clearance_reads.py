"""Each clearance is read once per point: counted domain queries."""

import numpy as np

from hypermetric.domains import UnitBall
from hypermetric.metrics import MetricKind, MetricParams, h_metric
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

import math

import numpy as np
import pytest

from hypermetric import quasihyperbolic
from hypermetric.domains import (
    GenericDomain,
    HalfSpace,
    Interval,
    PuncturedSpace,
    UnitBall,
    sample_interior,
)
from hypermetric.metrics import j_many
from hypermetric.quasihyperbolic import (
    DisconnectedGridError,
    KControls,
    NodeBudgetError,
    build_grid,
    k_estimate,
    k_exact_halfspace,
    k_exact_punctured,
)
from hypermetric.verify import uniformity_estimate

from test_domains import annulus_domain

H2 = HalfSpace(2)
P2 = PuncturedSpace(2)
B2 = UnitBall(2)

ARCOSH_1_5 = 0.9624236501192069


class TestExactHalfspace:
    def test_vertical(self):
        assert k_exact_halfspace((0, 1), (0, 2)) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_unit_offset(self):
        assert k_exact_halfspace((0, 1), (1, 1)) == pytest.approx(ARCOSH_1_5, abs=1e-14)

    def test_zero_at_equal(self):
        assert k_exact_halfspace((2, 0.7), (2, 0.7)) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            k_exact_halfspace((0, -1), (0, 1))


class TestExactPunctured:
    def test_quarter_turn(self):
        assert k_exact_punctured((1, 0), (0, 1)) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_radial(self):
        assert k_exact_punctured((1, 0), (math.e, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_at_equal(self):
        assert k_exact_punctured((0.3, 0.4), (0.3, 0.4)) == 0.0

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            k_exact_punctured((0, 0), (1, 0))


class TestEstimator:
    def test_halfspace_reference_pair(self):
        est = k_estimate(H2, (0, 1), (1, 1), 0.05, 2)
        assert abs(est.value - ARCOSH_1_5) / ARCOSH_1_5 < 0.01

    def test_punctured_reference_pair(self):
        est = k_estimate(P2, (1, 0), (0, 1), 0.05, 2)
        assert abs(est.value - math.pi / 2) / (math.pi / 2) < 0.01

    def test_equal_points(self):
        est = k_estimate(B2, (0.2, 0.1), (0.2, 0.1), 0.05, 1)
        assert est.value == 0.0
        assert [v for _, v in est.refinement_history] == [0.0, 0.0]

    def test_history_shape(self):
        est = k_estimate(H2, (0, 1), (0.5, 1), 0.1, 2)
        spacings = [s for s, _ in est.refinement_history]
        assert spacings == [0.1, 0.05, 0.025]
        assert est.spacing == 0.025
        assert est.value == est.refinement_history[-1][1]

    def test_error_decreases_from_first_to_final(self):
        exact = k_exact_halfspace((0.3, 0.9), (1.4, 0.5))
        est = k_estimate(H2, (0.3, 0.9), (1.4, 0.5), 0.1, 2)
        errs = [abs(v - exact) for _, v in est.refinement_history]
        assert errs[-1] <= errs[0]

    def test_symmetry_under_endpoint_swap(self):
        a, b = (0.2, 0.8), (1.1, 0.4)
        v1 = k_estimate(H2, a, b, 0.05, 1).value
        v2 = k_estimate(H2, b, a, 0.05, 1).value
        assert abs(v1 - v2) <= 1e-9

    def test_ball_radial_values(self):
        # k(0, r e1) = log(1/(1-r)) along the radial geodesic
        for r in (0.3, 0.5, 0.7):
            est = k_estimate(B2, (0, 0), (r, 0), 0.05, 1)
            exact = math.log(1.0 / (1.0 - r))
            assert abs(est.value - exact) / exact < 0.01

    def test_interval_value(self):
        # exact: integral of 1/min(t, 1-t) from 0.2 to 0.6
        exact = math.log(0.5 / 0.2) + math.log(0.5 / 0.4)
        est = k_estimate(Interval(0, 1), 0.2, 0.6, 0.01, 1)
        assert abs(est.value - exact) / exact < 0.01

    def test_very_close_pair_uses_direct_segment(self):
        a, b = (0.0, 1.0), (0.01, 1.0)
        est = k_estimate(H2, a, b, 0.05, 0)
        exact = k_exact_halfspace(a, b)
        assert abs(est.value - exact) / exact < 0.01

    def test_lower_bound_by_j(self):
        xs = sample_interior(H2, 10, seed=20, min_clearance=0.25)
        ys = sample_interior(H2, 10, seed=21, min_clearance=0.25)
        j = j_many(H2, xs, ys)
        for i in range(xs.shape[0]):
            est = k_estimate(H2, xs[i], ys[i], 0.05, 1)
            assert est.value >= j[i] * (1 - 0.02)

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            k_estimate(H2, (0, -1), (0, 1), 0.1, 0)

    def test_node_cap(self):
        with pytest.raises(NodeBudgetError):
            k_estimate(H2, (0, 1), (1, 1), 0.05, 2, node_cap=100)

    def test_disconnected_components(self):
        # two disjoint disks; queries across components cannot be joined
        centers = np.array([[-2.0, 0.0], [2.0, 0.0]])

        def dist(xs):
            d = 0.5 - np.linalg.norm(
                xs[:, None, :] - centers[None, :, :], axis=2
            )
            return np.max(d, axis=1)

        def member(xs):
            return dist(xs) > 0

        twin = GenericDomain(2, dist, member, ((-3.0, -1.0), (3.0, 1.0)))
        with pytest.raises(DisconnectedGridError):
            k_estimate(twin, (-2.0, 0.0), (2.0, 0.0), 0.1, 0)


class TestGrid:
    def test_edge_weights_match_simpson_form(self):
        grid = build_grid(H2, 0.1, np.array([0.0, 1.0]), np.array([0.6, 1.0]))
        u = grid.nodes[grid.edges[:, 0]]
        v = grid.nodes[grid.edges[:, 1]]
        mid = 0.5 * (u + v)
        length = np.linalg.norm(u - v, axis=1)
        expected = length / 6.0 * (
            1.0 / u[:, -1] + 4.0 / mid[:, -1] + 1.0 / v[:, -1]
        )
        assert np.allclose(grid.weights, expected, rtol=1e-12)

    def test_nodes_respect_clearance_floor(self):
        grid = build_grid(B2, 0.1, np.array([0.0, 0.0]), np.array([0.5, 0.0]))
        assert np.all(grid.clearances >= 0.05)

    def test_punctured_window_is_annulus(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        grid = build_grid(P2, 0.05, x, y)
        r = np.linalg.norm(grid.nodes, axis=1)
        assert np.all(r >= 0.5 - 1e-12)
        assert np.all(r <= 2.0 + 1e-12)

    def test_controls_validation(self):
        with pytest.raises(ValueError):
            KControls(spacing=-1.0)
        with pytest.raises(ValueError):
            KControls(refinements=-1)


class TestSharedGrids:
    """Pair-independent windows share one grid per (domain, spacing, cap)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        quasihyperbolic._shared_grid.cache_clear()
        calls = []
        build = quasihyperbolic.build_grid

        def counting(domain, spacing, *args, **kwargs):
            calls.append((domain.spec_string(), spacing))
            return build(domain, spacing, *args, **kwargs)

        monkeypatch.setattr(quasihyperbolic, "build_grid", counting)
        yield calls
        quasihyperbolic._shared_grid.cache_clear()

    def test_uniformity_builds_one_grid_per_spacing(self, builds):
        est = uniformity_estimate(B2, 160, 7)
        assert est.sample_count > 100
        assert builds == [("ball:2", 0.1), ("ball:2", 0.05)]

    def test_halfspace_builds_per_query_and_level(self, builds):
        xs = sample_interior(H2, 3, seed=4, min_clearance=0.3)
        ys = sample_interior(H2, 3, seed=5, min_clearance=0.3)
        for x, y in zip(xs, ys):
            k_estimate(H2, x, y, 0.1, 1)
        assert builds == [("halfspace:2", 0.1), ("halfspace:2", 0.05)] * 3

    def test_cache_hit_keeps_node_cap(self, builds):
        k_estimate(B2, (0.1, 0.2), (0.5, -0.3), 0.05, 1)
        k_estimate(B2, (0.3, 0.0), (-0.2, 0.4), 0.05, 1)
        assert len(builds) == 2
        with pytest.raises(NodeBudgetError):
            k_estimate(B2, (0.1, 0.2), (0.5, -0.3), 0.05, 1, node_cap=100)

    def test_unhashable_generic_domain_builds_per_query(self, builds):
        ring = annulus_domain()
        listed = GenericDomain(2, ring.distance_fn, ring.membership_fn,
                               [[-1.0, -1.0], [1.0, 1.0]])
        pairs = [((0.5, 0.0), (0.0, 0.6)), ((-0.4, 0.3), (0.6, -0.2))]
        for x, y in pairs:
            shared = k_estimate(ring, x, y, 0.05, 1).refinement_history
            assert k_estimate(listed, x, y, 0.05, 1).refinement_history == shared
        assert builds.count(("generic:2", 0.05)) == 1 + len(pairs)

    def test_cached_grid_is_read_only(self, builds):
        k_estimate(B2, (0.1, 0.2), (0.5, -0.3), 0.1, 0)
        grid = quasihyperbolic._shared_grid(B2, 0.1, quasihyperbolic.DEFAULT_NODE_CAP)
        assert len(builds) == 1
        for arr in (grid.nodes, grid.clearances, grid.indptr, grid.neighbours,
                    grid.weights, grid._index_map):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            grid.weights[0] = 0.0

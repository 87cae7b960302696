import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# slab assembly against the per-edge reference
# ---------------------------------------------------------------------------


def _reference_segment_weights(domain, pu, pv, du, dv):
    mid = 0.5 * (pu + pv)
    dm = domain.clearance_many(mid)
    ok = dm > 0.0
    length = np.linalg.norm(pu - pv, axis=1)
    dm_safe = np.where(ok, dm, 1.0)
    w = length / 6.0 * (1.0 / du + 4.0 / dm_safe + 1.0 / dv)
    return w, ok


def reference_grid(domain, spacing, x, y):
    """The per-edge lattice assembly: gather both endpoints of every edge,
    weigh it, and counting-sort the edges into CSR rows (offset order
    within a row).  Returns (indptr, neighbours, nodes, clearances, weights)."""
    x = np.asarray(x, dtype=float).reshape(domain.dimension)
    y = np.asarray(y, dtype=float).reshape(domain.dimension)
    h = float(spacing)
    offsets, reach = quasihyperbolic._stencil(domain.dimension)
    lo, hi, extra_mask = domain.geodesic_window(x, y, (reach + 2) * h)
    starts = np.ceil(lo / h - 1e-9).astype(np.int64)
    stops = np.floor(hi / h + 1e-9).astype(np.int64)
    dims = stops - starts + 1
    axes = [np.arange(a, b + 1) * h for a, b in zip(starts, stops)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    clear = domain.clearance_many(points)
    mask = clear >= 0.5 * h
    if extra_mask is not None:
        mask &= extra_mask(points)
    n_valid = int(np.count_nonzero(mask))
    index_map = np.full(points.shape[0], -1, dtype=np.int64)
    index_map[mask] = np.arange(n_valid)
    index_nd = index_map.reshape(tuple(dims))
    nodes = points[mask]
    node_clear = clear[mask]

    parts = []
    degree = np.zeros(n_valid, dtype=np.int64)
    for off in offsets:
        if np.any(np.abs(off) >= dims):
            continue
        sl_a = tuple(slice(max(0, -o), d - max(0, o)) for o, d in zip(off, dims))
        sl_b = tuple(slice(max(0, o), d - max(0, -o)) for o, d in zip(off, dims))
        a = index_nd[sl_a].ravel()
        b = index_nd[sl_b].ravel()
        keep = (a >= 0) & (b >= 0)
        if not np.any(keep):
            continue
        src, dst = a[keep], b[keep]
        w, ok = _reference_segment_weights(domain, nodes[src], nodes[dst],
                                           node_clear[src], node_clear[dst])
        parts.append((src[ok], dst[ok], w[ok]))
        degree[src[ok]] += 1

    indptr = np.zeros(n_valid + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    neighbours = np.empty(int(indptr[-1]), dtype=np.int32)
    weights = np.empty(int(indptr[-1]))
    fill = indptr[:-1].copy()
    for src, dst, w in parts:
        at = fill[src]
        neighbours[at] = dst
        weights[at] = w
        fill[src] += 1
    return indptr, neighbours, nodes, node_clear, weights


def strip_domain():
    """The strip |x_2| < 0.06: at spacing 0.05 its lattice window is three
    rows tall and only the middle row holds nodes."""

    def dist(xs):
        return 0.06 - np.abs(xs[:, 1])

    def member(xs):
        return np.abs(xs[:, 1]) < 0.06

    return GenericDomain(2, dist, member, ((-0.5, -0.06), (0.5, 0.06)))


def assert_grid_bits(domain, spacing, x, y):
    grid = build_grid(domain, spacing, x, y)
    indptr, neighbours, nodes, clearances, weights = reference_grid(domain, spacing, x, y)
    assert grid.indptr.dtype == indptr.dtype and np.array_equal(grid.indptr, indptr)
    assert grid.neighbours.dtype == np.int32
    assert np.array_equal(grid.neighbours, neighbours)
    assert np.array_equal(grid.nodes.view(np.int64), nodes.view(np.int64))
    assert np.array_equal(grid.clearances.view(np.int64), clearances.view(np.int64))
    assert np.array_equal(grid.weights.view(np.int64), weights.view(np.int64))
    return grid


class TestSlabAssembly:
    """build_grid reproduces the per-edge assembly bit for bit."""

    @pytest.mark.parametrize("domain, spacing, x, y", [
        (Interval(0, 1), 0.01, 0.2, 0.6),
        (B2, 0.05, (0.0, 0.0), (0.0, 0.0)),
        (H2, 0.05, (0.0, 1.0), (1.0, 1.0)),
        (HalfSpace(3), 0.1, (0.0, 0.0, 1.0), (1.0, 0.3, 0.8)),
        (P2, 0.05, (1.2, 0.0), (-0.6, -1.0)),
        (annulus_domain(), 0.05, (0.5, 0.0), (0.0, 0.6)),
    ], ids=["interval", "ball:2", "halfspace:2", "halfspace:3", "punctured:2", "annulus"])
    def test_bit_identical(self, domain, spacing, x, y):
        grid = assert_grid_bits(domain, spacing, x, y)
        assert grid.weights.size > 0

    def test_window_narrower_than_the_stencil(self):
        # offsets (i, j) with |j| >= 3 do not fit the three rows, and those
        # with j = +-1, +-2 fit but join no two nodes
        strip = strip_domain()
        grid = assert_grid_bits(strip, 0.05, (0.0, 0.0), (0.0, 0.0))
        assert grid._index_map.shape[1] == 3
        assert np.all(grid.nodes[:, 1] == 0.0)
        steps = np.abs(np.diff(grid.nodes[grid.edges], axis=1)[:, 0, 0])
        assert np.allclose(steps, 0.05)

    @given(st.sampled_from([H2, P2]),
           st.tuples(st.floats(-1.0, 1.0), st.floats(0.3, 1.5)),
           st.tuples(st.floats(-1.0, 1.0), st.floats(0.3, 1.5)),
           st.sampled_from([0.2, 0.1, 0.07, 0.05]))
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_sweep(self, domain, x, y, spacing):
        assert_grid_bits(domain, spacing, x, y)


class TestBuildMemory:
    def test_punctured_peak(self):
        # the per-edge assembly peaked at 171 MB of traced allocations
        # (numpy 2.4); the slab tables and the compaction stay below
        build_grid(P2, 0.05, (1.2, 0.0), (-0.6, -1.0))
        tracemalloc.start()
        try:
            grid = build_grid(P2, 0.0125, (1.2, 0.0), (-0.6, -1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.weights.size > 4_000_000
        assert peak <= 163e6

    def test_rejected_window_allocates_no_edge_table(self):
        # 108944 nodes exceed the cap: the error comes before the
        # (cells x offsets) tables, which would hold 5.9e6 entries
        tracemalloc.start()
        try:
            with pytest.raises(NodeBudgetError):
                build_grid(P2, 0.0125, (1.2, 0.0), (-0.6, -1.0), node_cap=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestGridErrors:
    def test_empty_node_set_names_window_and_spacing(self):
        with pytest.raises(DisconnectedGridError,
                           match=r"clearance >= 0\.1 in the window \[-0\.5, 0\.5\] x "
                                 r"\[-0\.06, 0\.06\] at spacing 0\.2$"):
            build_grid(strip_domain(), 0.2, (0.0, 0.0), (0.0, 0.0))

    def test_disconnected_pair_names_lattice_and_spacing(self):
        centers = np.array([[-2.0, 0.0], [2.0, 0.0]])

        def dist(xs):
            d = 0.5 - np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2)
            return np.max(d, axis=1)

        twin = GenericDomain(2, dist, lambda xs: dist(xs) > 0, ((-3.0, -1.0), (3.0, 1.0)))
        with pytest.raises(DisconnectedGridError,
                           match=r"between the query points in the lattice "
                                 r"\[-3, 3\] x \[-1, 1\] at spacing 0\.1$"):
            k_estimate(twin, (-2.0, 0.0), (2.0, 0.0), 0.1, 0)

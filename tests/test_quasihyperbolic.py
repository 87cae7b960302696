import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from hypermetric import quasihyperbolic
from hypermetric.domains import (
    Domain,
    GenericDomain,
    HalfSpace,
    Interval,
    PuncturedSpace,
    UnitBall,
    sample_interior,
    unit_directions,
)
from hypermetric.metrics import j_many
from hypermetric.quasihyperbolic import (
    DisconnectedGridError,
    GridError,
    KControls,
    NodeBudgetError,
    build_grid,
    k_estimate,
    k_estimate_many,
    k_exact_halfspace,
    k_exact_punctured,
)
from hypermetric.verify import uniformity_estimate

from test_domains import annulus_domain

H2 = HalfSpace(2)
P2 = PuncturedSpace(2)
P3 = PuncturedSpace(3)
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


# ---------------------------------------------------------------------------
# estimator error against closed forms, at the controls callers use
# ---------------------------------------------------------------------------


def _diameter_pairs(dimension, count, seed, across):
    """Ball pairs s e, t e on one diameter, |s|, |t| <= 0.8 and |s - t| >=
    0.3, on the same side of the centre or across it."""
    rng = np.random.default_rng([seed, dimension])
    xs, ys = [], []
    while len(xs) < count:
        s, t = rng.uniform(-0.8, 0.8, 2)
        if abs(s - t) >= 0.3 and (s * t < 0.0) == across:
            e = unit_directions(dimension, 1, rng)[0]
            xs.append(s * e)
            ys.append(t * e)
    return np.array(xs), np.array(ys)


def _k_ball_diameter(xs, ys):
    """k = |F(t) - F(s)| with F(u) = sign(u) (-log(1 - |u|)): the geodesic
    of such a pair runs along its diameter, where the density depends on
    |z| alone."""
    e = xs / np.linalg.norm(xs, axis=1)[:, None]
    s, t = np.linalg.norm(xs, axis=1), np.sum(ys * e, axis=1)
    return np.abs(np.sign(t) * -np.log1p(-np.abs(t)) + np.log1p(-s))


def _k_interval(a, b, xs, ys):
    """The integral of 1/min(z - a, b - z) from x to y, a log on each side
    of the midpoint."""
    m = 0.5 * (a + b)

    def from_mid(u):
        return np.where(u <= m, np.log((u - a) / (m - a)), -np.log((b - u) / (b - m)))

    return np.abs(from_mid(ys[:, 0]) - from_mid(xs[:, 0]))


def _oracle_case(name):
    """(domain, xs, ys, exact k per pair) of one oracle case."""
    rng = np.random.default_rng(97)
    if name.startswith("ball"):
        dimension = int(name[5])
        if dimension == 2:
            xs, ys = _diameter_pairs(2, 40, 91, across=name.endswith("across"))
        else:
            pairs = [_diameter_pairs(3, 12, 93, across) for across in (False, True)]
            xs, ys = (np.concatenate(p) for p in zip(*pairs))
        return UnitBall(dimension), xs, ys, _k_ball_diameter(xs, ys)
    if name == "interval":
        xs, ys = rng.uniform(0.02, 0.98, (2, 60, 1))
        keep = np.abs(xs - ys)[:, 0] >= 0.05
        return Interval(0, 1), xs[keep], ys[keep], _k_interval(0.0, 1.0, xs[keep], ys[keep])
    # as the kquery benchmark draws them, at punctured radii in [0.5, 1.2]
    halfspace = name == "halfspace:3"
    domain, oracle = (HalfSpace(3), k_exact_halfspace) if halfspace else (P3, k_exact_punctured)
    xs, ys = [], []
    while len(xs) < (12 if halfspace else 8):
        x, y = ((_kquery_point(domain, rng), _kquery_point(domain, rng)) if halfspace else
                rng.uniform(0.5, 1.2, (2, 1)) * unit_directions(3, 2, rng))
        if np.linalg.norm(x - y) >= 0.3:
            xs.append(x)
            ys.append(y)
    xs, ys = np.array(xs), np.array(ys)
    return domain, xs, ys, np.array([oracle(x, y) for x, y in zip(xs, ys)])


class TestOracleError:
    """Relative error of k_estimate_many against every closed form, at the
    CLI default (0.05, 2) and the uniformity default (0.1, 1); ball:3 at
    (0.05, 2) exceeds the node cap.  Each bound is the measured range
    widened by a margin.  The 3-D bounds are the 26-neighbourhood's
    direction bias, which ROADMAP item 3 is to tighten."""

    @pytest.mark.parametrize("name, controls, low, high", [
        # measured: +0.00002..+0.0084 and -0.0026..+0.0033 (Simpson's rule
        # across the kink of 1 - |z| at the centre reads below k)
        ("ball:2-same", (0.1, 1), -0.001, 0.011),
        ("ball:2-across", (0.1, 1), -0.010, 0.006),
        # measured: +0.00001..+0.0043 and -0.00002..+0.0044
        ("ball:2-same", (0.05, 2), -0.001, 0.006),
        ("ball:2-across", (0.05, 2), -0.001, 0.006),
        # measured: -0.0046..+0.0011 and +0.000001..+0.00003
        ("interval", (0.1, 1), -0.007, 0.002),
        ("interval", (0.05, 2), -0.0005, 0.0005),
        # measured: +0.0010..+0.1125, +0.024..+0.083 (never below k, by the
        # rho_H floor) and +0.028..+0.083
        ("ball:3", (0.1, 1), -0.002, 0.13),
        ("halfspace:3", (0.1, 1), 0.0, 0.10),
        ("punctured:3", (0.1, 1), 0.0, 0.10),
    ], ids=lambda v: "h{}x{}".format(*v) if isinstance(v, tuple) else None)
    def test_relative_error_within_bound(self, name, controls, low, high):
        domain, xs, ys, exact = _oracle_case(name)
        error = k_estimate_many(domain, xs, ys, KControls(*controls)) / exact - 1.0
        assert low <= error.min() and error.max() <= high, (error.min(), error.max())


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"spacing": math.inf}, "spacing must be finite"),
        ({"refinements": 5000}, "refinements"),
        ({"spacing": 1e-300, "refinements": 100}, "refinements"),
        ({"refinements": 10**12}, "refinements"),
        ({"refinements": 1.5}, "^refinements must be an integer$"),
        ({"refinements": 2.0}, "^refinements must be an integer$"),
        ({"refinements": "2"}, "^refinements must be an integer$"),
        ({"node_cap": 1e5}, "^node_cap must be an integer$"),
        ({"node_cap": None}, "^node_cap must be an integer$"),
    ])
    def test_controls_reject_what_cannot_run(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            KControls(**kwargs)

    def test_k_estimate_rejects_a_float_refinement_count(self):
        with pytest.raises(ValueError, match="^refinements must be an integer$"):
            k_estimate(H2, (0, 1), (1, 1), 0.05, 2.0)

    def test_controls_accept_numpy_integers(self):
        controls = KControls(0.1, np.int64(1), np.int32(100_000))
        xs, ys = np.array([[0.1, 0.2]]), np.array([[0.5, -0.3]])
        assert k_estimate_many(B2, xs, ys, controls) == k_estimate_many(B2, xs, ys,
                                                                         KControls(0.1, 1))


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
        (UnitBall(3), 0.1, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        (P3, 0.1, (0.5, 0.1, 0.0), (-0.4, 0.2, 0.2)),
    ], ids=["interval", "ball:2", "halfspace:2", "halfspace:3", "punctured:2", "annulus",
            "ball:3", "punctured:3"])
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


# ---------------------------------------------------------------------------
# batched, coarse-bounded queries against the sink-node reference
# ---------------------------------------------------------------------------


def _reference_attach(grid, p, dp):
    """One endpoint's edges, one point at a time: every node within
    (reach+1)*h, else the nearest, else the same in a wider box."""
    _, reach = quasihyperbolic._stencil(grid.domain.dimension)
    h = grid.spacing
    r_aug = (reach + 1) * h
    cell = np.round(p / h).astype(np.int64) - grid._axis_starts
    for widen in (0, 1):
        span = int(math.ceil(r_aug / h)) + 1 + widen * 4
        sl = tuple(slice(max(0, int(c) - span), min(int(d), int(c) + span + 1))
                   for c, d in zip(cell, grid._index_map.shape))
        cand = grid._index_map[sl].ravel()
        cand = cand[cand >= 0]
        if cand.size == 0:
            continue
        dist = np.linalg.norm(grid.nodes[cand] - p[None, :], axis=1)
        near = dist <= r_aug * (1.0 + widen)
        if not np.any(near):
            near = dist <= np.min(dist) * 1.0001
        cand = cand[near]
        pos = grid.nodes[cand]
        w, ok = _reference_segment_weights(grid.domain, p[None, :], pos, dp,
                                           grid.clearances[cand])
        if np.any(ok):
            return cand[ok], w[ok]
    raise DisconnectedGridError("no usable grid neighbours")


def reference_history(domain, x, y, spacing, refinements):
    """Per level: the pair's own lattice with each edge once, plus a node
    for x (with the direct x-y edge) and one for y, searched undirected
    without a limit; the value is y's distance."""
    x = np.asarray(x, dtype=float).reshape(domain.dimension)
    y = np.asarray(y, dtype=float).reshape(domain.dimension)
    dx, dy = domain.clearance_many(np.stack([x, y]))
    _, reach = quasihyperbolic._stencil(domain.dimension)
    history = []
    for level in range(refinements + 1):
        h = spacing / 2**level
        if np.array_equal(x, y):
            history.append((h, 0.0))
            continue
        grid = build_grid(domain, h, x, y)
        n = grid.nodes.shape[0]
        cx, wx = _reference_attach(grid, x, dx)
        cy, wy = _reference_attach(grid, y, dy)
        if 0.0 < np.linalg.norm(x - y) <= (reach + 1) * h:
            w, ok = _reference_segment_weights(domain, x[None, :], y[None, :], dx, dy)
            if ok[0]:
                cx, wx = np.append(cx, n + 1), np.append(wx, w[0])
        end = grid.indptr[-1]
        graph = sp.csr_matrix(
            (np.concatenate([grid.weights, wx, wy]),
             np.concatenate([grid.neighbours, cx, cy]),
             np.concatenate([grid.indptr, [end + cx.size, end + cx.size + cy.size]])),
            shape=(n + 2, n + 2))
        history.append((h, float(scipy_dijkstra(graph, directed=False, indices=n)[n + 1])))
    return history


def _hex(history):
    return [(float(h).hex(), float(v).hex()) for h, v in history]


def _close_pairs(domain, count, seed):
    """Pairs a few lattice steps apart, so that many get the direct edge."""
    xs = sample_interior(domain, count, seed=seed, min_clearance=0.25)
    rng = np.random.default_rng(seed)
    steps = rng.uniform(-0.15, 0.15, size=xs.shape)
    ys = xs + steps
    inside = domain.clearance_many(ys) > 0.1
    return xs[inside], ys[inside]


def exactness_cases():
    """(domain, pairs, spacing, refinements): 121 pairs over every
    built-in kind and the annulus, with far pairs, close pairs and one
    pair of equal points on the shared grids."""
    ring = annulus_domain()
    cases = []
    for domain, far, close, spacing, refinements in [
            (B2, 24, 12, 0.1, 1), (Interval(0, 1), 20, 8, 0.02, 2), (ring, 16, 8, 0.1, 1),
            (H2, 8, 4, 0.1, 1), (HalfSpace(3), 4, 2, 0.2, 1), (P2, 8, 4, 0.1, 1)]:
        xs = sample_interior(domain, far, seed=31, min_clearance=0.2)
        ys = sample_interior(domain, far, seed=32, min_clearance=0.2)
        cx, cy = _close_pairs(domain, close, seed=33)
        xs, ys = np.concatenate([xs, cx]), np.concatenate([ys, cy])
        if not domain.pair_window:
            xs, ys = np.concatenate([xs, xs[:1]]), np.concatenate([ys, xs[:1]])
        cases.append((domain, xs, ys, spacing, refinements))
    return cases


class TestBatchedQueries:
    """Batches, coarse-to-fine limits and the sink-free readout keep every
    value and history bit-identical to the per-pair sink-node query."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for domain, xs, ys, spacing, refinements in exactness_cases():
            reference = [_hex(reference_history(domain, x, y, spacing, refinements))
                         for x, y in zip(xs, ys)]
            out.append((domain, xs, ys, spacing, refinements, reference))
        assert sum(xs.shape[0] for _, xs, *_ in out) >= 100
        return out

    @staticmethod
    def _check(cases):
        for domain, xs, ys, spacing, refinements, reference in cases:
            histories = [_hex(k_estimate(domain, x, y, spacing, refinements).refinement_history)
                         for x, y in zip(xs, ys)]
            assert histories == reference, domain.spec_string()
            batch = k_estimate_many(domain, xs, ys, KControls(spacing, refinements))
            assert [v.hex() for v in batch] == [r[-1][1] for r in reference]

    def test_default_margin(self, cases):
        self._check(cases)

    def test_unlimited_search(self, cases, monkeypatch):
        monkeypatch.setattr(quasihyperbolic, "_LIMIT_MARGIN", math.inf)
        self._check(cases)

    def test_every_limit_too_tight(self, cases, monkeypatch):
        # finer values lie within a few percent of coarser ones, so every
        # finer-level search hits its limit and runs again without one
        monkeypatch.setattr(quasihyperbolic, "_LIMIT_MARGIN", 0.5)
        self._check(cases)

    @staticmethod
    def _shared_calls(monkeypatch, margin):
        """Chunks at spacing 0.1 and 0.05, and (limit, sources) per Dijkstra
        call, of 40 ball:2 pairs at KControls(0.1, 1)."""
        monkeypatch.setattr(quasihyperbolic, "_LIMIT_MARGIN", margin)
        xs = sample_interior(B2, 40, seed=41, min_clearance=0.2)
        ys = sample_interior(B2, 40, seed=42, min_clearance=0.2)
        controls = KControls(0.1, 1)
        coarse, fine = (math.ceil(40 / quasihyperbolic._chunk_size(
            quasihyperbolic._shared_grid(B2, h, controls.node_cap))) for h in (0.1, 0.05))
        calls = []
        search = quasihyperbolic.dijkstra

        def counting(*args, **kwargs):
            calls.append((kwargs["limit"], len(kwargs["indices"])))
            return search(*args, **kwargs)

        monkeypatch.setattr(quasihyperbolic, "dijkstra", counting)
        k_estimate_many(B2, xs, ys, controls)
        return coarse, fine, calls

    def test_shared_grid_calls_per_level_and_chunk(self, monkeypatch):
        coarse, fine, calls = self._shared_calls(monkeypatch, quasihyperbolic._LIMIT_MARGIN)
        assert 1 < len(calls) <= coarse + fine
        # level 1 searches are bounded by level 0 values
        assert any(math.isfinite(limit) for limit, _ in calls)

    def test_shared_grid_calls_when_every_limit_is_too_tight(self, monkeypatch):
        # level 1 searches each chunk once under its limit, then all 40
        # pairs, every one above its limit, once without one
        coarse, fine, calls = self._shared_calls(monkeypatch, 0.5)
        limits = [limit for limit, _ in calls]
        assert len(calls) == coarse + 2 * fine
        assert all(math.isfinite(limit) for limit in limits[coarse:coarse + fine])
        assert all(math.isinf(limit) for limit in limits[:coarse] + limits[-fine:])
        assert sum(n for _, n in calls[-fine:]) == 40


# ---------------------------------------------------------------------------
# shared grids keep only the edges no two-edge detour beats
# ---------------------------------------------------------------------------


def _csr(grid):
    n = grid.nodes.shape[0]
    return sp.csr_matrix((grid.weights, grid.neighbours, grid.indptr), shape=(n, n))


def _every_edge(domain, spacing):
    """The shared lattice with every edge, in both directions."""
    return quasihyperbolic._both_directions(build_grid(domain, spacing, (0.0,) * domain.dimension,
                                                       (0.0,) * domain.dimension))


class TestPrunedSharedGrids:
    """Every distance up to a shared grid's bound G is bit for bit the
    whole edge set's, and a value above G is searched on every edge."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        quasihyperbolic._shared_grid.cache_clear()
        yield
        quasihyperbolic._shared_grid.cache_clear()

    @pytest.mark.parametrize("domain, spacing", [
        (B2, 0.1), (B2, 0.05), (annulus_domain(), 0.1)], ids=["ball:2-0.1", "ball:2-0.05", "annulus"])
    @pytest.mark.parametrize("limit", [math.inf, 1.5])
    def test_distance_blocks_match_every_edge(self, domain, spacing, limit):
        grid = quasihyperbolic._shared_grid(domain, spacing, quasihyperbolic.DEFAULT_NODE_CAP)
        every = _every_edge(domain, spacing)
        assert grid.neighbours.size < every.neighbours.size
        kept = scipy_dijkstra(_csr(grid), directed=True, limit=limit)
        whole = scipy_dijkstra(_csr(every), directed=True, limit=limit)
        assert np.max(kept[np.isfinite(kept)]) <= grid.exact_to
        assert np.array_equal(kept.view(np.int64), whole.view(np.int64))

    def test_value_above_the_bound_is_searched_on_every_edge(self, monkeypatch):
        x, y = np.array([1.0 - 1e-12, 0.0]), np.array([0.2, 0.3])
        searches = []
        search = quasihyperbolic._grid_values

        def recording(grid, *args):
            values, failures = search(grid, *args)
            searches.append((grid, values.copy()))
            return values, failures

        monkeypatch.setattr(quasihyperbolic, "_grid_values", recording)
        history = k_estimate(B2, x, y, 0.1, 1).refinement_history
        assert _hex(history) == _hex(reference_history(B2, x, y, 0.1, 1))
        # per level: the kept edges, read above G, then every edge
        assert len(searches) == 4
        for h, (kept, first), (whole, again) in zip((0.1, 0.05), searches[::2], searches[1::2]):
            assert kept is quasihyperbolic._shared_grid(B2, h, quasihyperbolic.DEFAULT_NODE_CAP)
            assert first[0] > kept.exact_to
            assert whole.directed and whole.exact_to == math.inf
            assert np.array_equal(whole.neighbours, _every_edge(B2, h).neighbours)
            assert again[0] > kept.exact_to

    @pytest.mark.parametrize("domain, spacing", [(UnitBall(3), 0.2), (Interval(0, 1), 0.02)],
                             ids=["ball:3", "interval"])
    def test_no_detours_keep_every_edge(self, domain, spacing):
        grid = quasihyperbolic._shared_grid(domain, spacing, quasihyperbolic.DEFAULT_NODE_CAP)
        assert quasihyperbolic._detours(domain.dimension) == ()
        assert grid.exact_to == math.inf
        every = _every_edge(domain, spacing)
        assert np.array_equal(grid.indptr, every.indptr)
        assert np.array_equal(grid.neighbours, every.neighbours)

    # The kept share falls as the lattice refines, because Simpson's error
    # on a long edge shrinks with the spacing; the Dijkstra work of a warm
    # shared grid rests on these counts, and they move only with the
    # stencil, the detour set, the margin or the lattice
    @pytest.mark.parametrize("spacing, kept, whole", [
        (0.1, 2840, 8512), (0.05, 17872, 41488), (0.025, 106144, 182920)])
    def test_pinned_kept_edge_counts(self, spacing, kept, whole):
        grid = quasihyperbolic._shared_grid(B2, spacing, quasihyperbolic.DEFAULT_NODE_CAP)
        assert (grid.edges.shape[0], _every_edge(B2, spacing).edges.shape[0]) == (kept, whole)

    def test_kept_grid_is_read_only_and_lists_each_edge_once(self):
        grid = quasihyperbolic._shared_grid(B2, 0.1, quasihyperbolic.DEFAULT_NODE_CAP)
        for arr in (grid.indptr, grid.neighbours, grid.weights):
            assert not arr.flags.writeable
        edges = grid.edges
        assert np.all(edges[:, 0] < edges[:, 1])
        assert edges.shape[0] * 2 == grid.neighbours.size
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]
        # every kept edge runs both ways, with the same weight
        matrix = _csr(grid)
        assert (matrix != matrix.T).nnz == 0
        half, _ = quasihyperbolic._pruned(build_grid(B2, 0.1, (0.0, 0.0), (0.0, 0.0)))
        assert np.array_equal(np.unique(edges, axis=0), np.unique(half.edges, axis=0))

    def test_cell_box_is_cached_and_read_only(self):
        grid = quasihyperbolic._shared_grid(B2, 0.1, quasihyperbolic.DEFAULT_NODE_CAP)
        box = quasihyperbolic._cell_box(grid, 0)
        assert box is quasihyperbolic._cell_box(grid, 0)
        assert not box.flags.writeable


# ---------------------------------------------------------------------------
# the lens: path floors and pruned per-query lattices
# ---------------------------------------------------------------------------


def _source_distances(grid, x, dx):
    """Distances from x over the grid and x's attach row, searched without
    a limit."""
    _, node, w = quasihyperbolic._attach(grid, x[None, :], np.array([dx]))
    n = grid.nodes.shape[0]
    graph = sp.csr_matrix(
        (np.concatenate([grid.weights, w]), np.concatenate([grid.neighbours, node]),
         np.concatenate([grid.indptr, [grid.indptr[-1] + w.size]])),
        shape=(n + 1, n + 1))
    return scipy_dijkstra(graph, directed=grid.directed, indices=n)[:n]


J_FLOOR = Domain.path_floor  # the base form, j, on every domain


def lens_floor(grid, x, dx):
    """The lens's floor from x to every node of a whole-window grid: the
    domain's path floor over lattice edges, with the slack of x's attach
    edges, which all end in its wider attach box."""
    cells = (np.round(x / grid.spacing).astype(np.int64) - grid._axis_starts
             + quasihyperbolic._cell_box(grid, 1))
    cells = cells[np.all((cells >= 0) & (cells < grid._index_map.shape), axis=1)]
    near = grid._index_map[tuple(cells.T)]
    near = near[near >= 0]
    return quasihyperbolic._floor_from(grid.domain, grid.spacing, x, dx, grid.nodes,
                                       grid.clearances, grid.nodes[near], grid.clearances[near])


class TestPathFloor:
    """Every grid path from x to a node z weighs at least path_floor(x, z):
    the lemma that lets a finer level drop the nodes outside its lens."""

    @pytest.mark.parametrize("domain, floor, x, y, spacings", [
        (H2, None, (0.0, 0.3), (1.5, 1.0), (0.1, 0.05)),
        (H2, J_FLOOR, (0.0, 0.3), (1.5, 1.0), (0.1, 0.05)),
        (HalfSpace(3), None, (0.0, 0.0, 0.4), (1.0, -0.5, 1.0), (0.2, 0.1)),
        (HalfSpace(3), J_FLOOR, (0.0, 0.0, 0.4), (1.0, -0.5, 1.0), (0.2, 0.1)),
        (P2, None, (1.0, 0.1), (-0.6, 0.7), (0.05, 0.025)),
        (P3, None, (0.5, 0.1, 0.0), (-0.4, 0.2, 0.2), (0.1, 0.05)),
        (B2, None, (0.3, -0.2), (0.0, 0.0), (0.1, 0.05)),
        (Interval(0, 1), None, (0.13,), (0.5,), (0.02, 0.01)),
        (annulus_domain(), None, (0.5, 0.1), (0.0, 0.0), (0.1, 0.05)),
    ], ids=["halfspace:2", "halfspace:2-j", "halfspace:3", "halfspace:3-j", "punctured:2",
            "punctured:3", "ball:2", "interval", "annulus"])
    def test_grid_distances_stay_above_the_floor(self, domain, floor, x, y, spacings):
        # floor None is the lens's own floor, over lattice and attach edges
        x = np.asarray(x, dtype=float)
        dx = float(domain.clearance_many(x[None, :])[0])
        for h in spacings:
            grid = build_grid(domain, h, x, np.asarray(y, dtype=float))
            dist = _source_distances(grid, x, dx)
            reached = np.isfinite(dist)
            bound = (floor(domain, np.linalg.norm(grid.nodes - x, axis=1), dx, grid.clearances)
                     if floor else lens_floor(grid, x, dx))
            assert reached.sum() > 0.9 * reached.size
            assert np.all(dist[reached] >= bound[reached] * (1.0 - 1e-12))
            # the floor is tight along some direction, so the test has teeth
            far = reached & (bound > 0.1)
            assert np.min(dist[far] / bound[far]) < 1.05

    @pytest.mark.parametrize("x, y, h, certified", [
        ((1.0, 0.1), (-0.6, 0.7), 0.025, True),
        # at query radius 3h the annulus reaches in to 1.5h, where a
        # stencil edge of 6.4h may pass the origin: no certificate
        ((0.15, 0.0), (-0.1, 0.12), 0.05, False),
    ], ids=["certified", "near-the-puncture"])
    def test_punctured_floor_is_j_only_near_the_puncture(self, x, y, h, certified):
        x = np.asarray(x, dtype=float)
        dx = float(P2.clearance_many(x[None, :])[0])
        grid = build_grid(P2, h, x, np.asarray(y, dtype=float))
        bound = lens_floor(grid, x, dx)
        j = J_FLOOR(P2, np.linalg.norm(grid.nodes - x, axis=1), dx, grid.clearances)
        # across the puncture the certified floor lies far above j
        assert (np.max(bound / np.maximum(j, 1e-300)) > 1.5) == certified
        assert np.array_equal(bound, j) != certified

    def test_halfspace_floor_is_rho_h(self):
        xs = sample_interior(H2, 50, seed=71, min_clearance=0.1)
        ys = sample_interior(H2, 50, seed=72, min_clearance=0.1)
        floor = H2.path_floor(np.linalg.norm(xs - ys, axis=1), xs[:, 1], ys[:, 1])
        assert np.allclose(floor, [k_exact_halfspace(x, y) for x, y in zip(xs, ys)],
                           rtol=1e-12)
        assert np.all(floor >= j_many(H2, xs, ys))


def _kquery_point(domain, rng):
    """A point as the kquery benchmark draws them: half-space clearance in
    [0.25, 1.5] under [-1.6, 1.6] sides, punctured radius in [0.5, 1.2]."""
    if isinstance(domain, PuncturedSpace):
        t = rng.uniform(0.0, 2.0 * math.pi)
        return rng.uniform(0.5, 1.2) * np.array([math.cos(t), math.sin(t)])
    return np.append(rng.uniform(-1.6, 1.6, domain.dimension - 1), rng.uniform(0.25, 1.5))


def kquery_cases():
    """(domain, xs, ys, spacing, refinements) at the benchmark's kquery
    resolutions: pairs at least 0.3 apart."""
    rng = np.random.default_rng(67)
    cases = []
    for domain, count, spacing, refinements in [(H2, 4, 0.05, 2), (P2, 4, 0.05, 2),
                                                (HalfSpace(3), 2, 0.1, 1)]:
        pairs = []
        while len(pairs) < count:
            x, y = _kquery_point(domain, rng), _kquery_point(domain, rng)
            if np.linalg.norm(x - y) >= 0.3:
                pairs.append((x, y))
        xs, ys = map(np.array, zip(*pairs))
        cases.append((domain, xs, ys, spacing, refinements))
    return cases


class TestLens:
    """A finer per-query level holds only its lens, and every value and
    history stays bit-identical to the whole-window unlimited search."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(domain, xs, ys, spacing, refinements,
                 [_hex(reference_history(domain, x, y, spacing, refinements))
                  for x, y in zip(xs, ys)])
                for domain, xs, ys, spacing, refinements in kquery_cases()]

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = quasihyperbolic.build_grid

        def counting(domain, spacing, *args, **kwargs):
            grid = build(domain, spacing, *args, **kwargs)
            calls.append((spacing, "lens" if kwargs.get("lens") else "whole"))
            return grid

        monkeypatch.setattr(quasihyperbolic, "build_grid", counting)
        return calls

    @staticmethod
    def _check(cases, builds, margin_holds):
        for domain, xs, ys, spacing, refinements, reference in cases:
            for x, y, expected in zip(xs, ys, reference):
                del builds[:]
                history = k_estimate(domain, x, y, spacing, refinements).refinement_history
                assert _hex(history) == expected, domain.spec_string()
                levels = [spacing / 2**level for level in range(1, refinements + 1)]
                finer = ([(h, "lens") for h in levels] if margin_holds else
                         [b for h in levels for b in [(h, "lens"), (h, "whole")]])
                assert builds == [(spacing, "whole")] + finer
            batch = k_estimate_many(domain, xs, ys, KControls(spacing, refinements))
            assert [v.hex() for v in batch] == [r[-1][1] for r in reference]

    def test_default_margin_searches_the_lens_only(self, cases, builds):
        self._check(cases, builds, margin_holds=True)

    def test_lens_of_the_value_itself_keeps_it(self, cases):
        # the tightest lens: the limit is the whole window's value
        for domain, xs, ys, _, _, reference in cases:
            for x, y, history in zip(xs, ys, reference):
                dx, dy = domain.clearance_many(np.stack([x, y]))
                for h, value in history[1:]:
                    limit = float.fromhex(value)
                    grid = build_grid(domain, float.fromhex(h), x, y, lens=(dx, dy, limit))
                    vals, failed = quasihyperbolic._grid_values(
                        grid, x[None], y[None], np.array([dx]), np.array([dy]),
                        np.array([limit]))
                    assert not failed and vals[0].hex() == value

    def test_tight_margin_rebuilds_the_whole_window(self, cases, builds, monkeypatch):
        monkeypatch.setattr(quasihyperbolic, "_LIMIT_MARGIN", 0.5)
        self._check(cases, builds, margin_holds=False)

    def test_tight_margin_skips_the_discarded_lens_search(self, monkeypatch):
        # each finer level searches its lens once under the limit, then
        # the whole window once: 1 + 2 + 2 calls over three levels
        monkeypatch.setattr(quasihyperbolic, "_LIMIT_MARGIN", 0.5)
        calls = []
        search = quasihyperbolic.dijkstra

        def counting(*args, **kwargs):
            calls.append(kwargs["limit"])
            return search(*args, **kwargs)

        monkeypatch.setattr(quasihyperbolic, "dijkstra", counting)
        x, y = np.array([-1.2, 0.4]), np.array([0.9, 1.3])
        history = k_estimate(H2, x, y, 0.05, 2).refinement_history
        assert len(calls) == 5
        assert _hex(history) == _hex(reference_history(H2, x, y, 0.05, 2))

    def test_tightest_lens_fuzz(self):
        # the limit is the whole window's value itself, for pairs in every
        # direction around the puncture at radii from 0.08 to 1.5 (0.6 in 3-D)
        rng = np.random.default_rng(1313)
        checked = {P2: 0, P3: 0}
        for domain, count, top, spacings in [(P2, 40, 1.5, (0.05, 0.025)),
                                             (P3, 3, 0.6, (0.1, 0.05))]:
            for _ in range(count):
                x, y = (np.exp(rng.uniform(math.log(0.08), math.log(top), (2, 1)))
                        * unit_directions(domain.dimension, 2, rng))
                d = domain.clearance_many(np.stack([x, y]))
                for h in spacings:
                    query = (x[None], y[None], d[:1], d[1:])
                    try:
                        whole = build_grid(domain, h, x, y)
                    except GridError:
                        continue
                    value, failed = quasihyperbolic._grid_values(whole, *query, np.full(1, np.inf))
                    if failed:
                        continue
                    lens = build_grid(domain, h, x, y, lens=(d[0], d[1], value[0]))
                    vals, failed = quasihyperbolic._grid_values(lens, *query, value)
                    assert not failed and vals[0].hex() == value[0].hex(), (x, y, h)
                    checked[domain] += 1
        assert checked[P2] >= 2 * 40 - 5 and checked[P3] >= 3

    @pytest.mark.parametrize("domain, x, y, whole, lens", [
        (H2, (-1.2, 0.4), (0.9, 1.3), 29240, 12118),
        (P2, (1.1, 0.2), (-0.3, 0.8), 96816, 6063),
        (P2, (1.1, 0.2), (-1.0, -0.3), 95024, 21046),
    ], ids=["halfspace:2", "punctured:2", "punctured:2-antipodal"])
    def test_pinned_node_counts(self, domain, x, y, whole, lens):
        # the finest of three levels from spacing 0.05, limited by the second
        x, y = np.asarray(x), np.asarray(y)
        dx, dy = domain.clearance_many(np.stack([x, y]))
        limit = k_estimate(domain, x, y, 0.05, 1).value * quasihyperbolic._LIMIT_MARGIN
        full = build_grid(domain, 0.0125, x, y)
        pruned = build_grid(domain, 0.0125, x, y, lens=(dx, dy, limit))
        assert (full.nodes.shape[0], pruned.nodes.shape[0]) == (whole, lens)


def twin_disks():
    """A disk of radius 0.5 at (-1, 0) and one of radius 0.04 at (0.3, 0),
    too thin to hold a node at spacing 0.1, with segments to the big disk
    leaving the domain."""
    centers = np.array([[-1.0, 0.0], [0.3, 0.0]])
    radii = np.array([0.5, 0.04])

    def dist(xs):
        return np.max(radii - np.linalg.norm(xs[:, None, :] - centers, axis=2), axis=1)

    return GenericDomain(2, dist, lambda xs: dist(xs) > 0, ((-1.5, -0.5), (0.34, 0.5)))


def far_disks():
    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])

    def dist(xs):
        return np.max(0.5 - np.linalg.norm(xs[:, None, :] - centers, axis=2), axis=1)

    return GenericDomain(2, dist, lambda xs: dist(xs) > 0, ((-3.0, -1.0), (3.0, 1.0)))


def first_level_cap(domain, spacing):
    """The least node cap that admits the domain's lattice at ``spacing``:
    it holds every node and an eighth of the window's cells."""
    grid = build_grid(domain, spacing, np.zeros(domain.dimension), np.zeros(domain.dimension))
    return max(grid.nodes.shape[0], -(-grid._index_map.size // 8))


def first_failure(domain, xs, ys, controls):
    for x, y in zip(xs, ys):
        try:
            k_estimate(domain, x, y, controls.spacing, controls.refinements, controls.node_cap)
        except (ValueError, GridError) as exc:
            return exc
    raise AssertionError("no pair fails")


class TestBatchErrors:
    """A failing batch raises what the first failing pair raises alone."""

    @staticmethod
    def assert_same_failure(domain, xs, ys, controls):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        expected = first_failure(domain, xs, ys, controls)
        with pytest.raises(type(expected)) as info:
            k_estimate_many(domain, xs, ys, controls)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        return expected

    def test_disconnected_pair(self):
        left = [(-2.1, 0.0), (-1.8, 0.1), (-2.0, -0.2)]
        xs = [left[0], left[1], (-2.0, 0.0), left[2]]
        ys = [left[1], left[2], (2.0, 0.0), left[0]]
        exc = self.assert_same_failure(far_disks(), xs, ys, KControls(0.1, 1))
        assert "between the query points" in str(exc)

    @pytest.mark.parametrize("end", [0, 1])
    def test_point_without_usable_neighbours(self, end):
        pairs = [[(-1.0, 0.1), (-0.8, -0.2)], [(-1.1, 0.0), (-0.7, 0.0)],
                 [(-0.9, 0.0), (-1.2, 0.1)]]
        pairs[1][end] = (0.3, 0.0)
        xs, ys = zip(*pairs)
        exc = self.assert_same_failure(twin_disks(), xs, ys, KControls(0.1, 1))
        assert str(exc).startswith("query point [0.3, 0.0] has no usable grid neighbours")

    @pytest.mark.parametrize("levels", [0, 1])
    def test_node_cap(self, levels):
        xs = sample_interior(B2, 6, seed=51, min_clearance=0.2)
        ys = sample_interior(B2, 6, seed=52, min_clearance=0.2)
        # a cap that holds the first level, which trips at the second
        controls = KControls(0.1, 1, node_cap=first_level_cap(B2, 0.1) - 1 + levels)
        exc = self.assert_same_failure(B2, xs, ys, controls)
        assert isinstance(exc, NodeBudgetError)
        assert f"at spacing {0.1 / 2**levels}" in str(exc)

    def test_earliest_pair_wins_across_levels(self):
        # the second pair is disconnected at the first level; the first
        # fails only at the second, when the node cap trips
        far = far_disks()
        controls = KControls(0.1, 1, node_cap=first_level_cap(far, 0.1))
        xs, ys = [(-2.1, 0.0), (-2.0, 0.0)], [(-1.8, 0.1), (2.0, 0.0)]
        exc = self.assert_same_failure(far, xs, ys, controls)
        assert isinstance(exc, NodeBudgetError)
        exc = self.assert_same_failure(far, xs[::-1], ys[::-1], controls)
        assert "between the query points" in str(exc)

    @pytest.mark.parametrize("domain", [B2, H2], ids=lambda d: d.spec_string())
    @pytest.mark.parametrize("swap", [False, True])
    def test_unequal_pair_counts(self, domain, swap):
        # ball:2 shares one grid per level, halfspace:2 builds one per query
        xs, ys = [[0.1, 0.5], [0.2, 0.5]], [[0.3, 0.5]]
        if swap:
            xs, ys = ys, xs
        counts = f"got {len(xs)} xs and {len(ys)} ys"
        with pytest.raises(ValueError, match=counts):
            k_estimate_many(domain, xs, ys, KControls(0.1, 0))

    def test_halfspace_node_cap_and_outside_point(self):
        # per-query grids: only the far pair's own window exceeds the cap
        xs, ys = [(0.0, 1.0), (-3.0, 1.0), (0.0, 1.0)], [(0.5, 1.0), (3.0, 1.0), (0.5, -1.0)]
        controls = KControls(0.1, 1, node_cap=1000)
        exc = self.assert_same_failure(H2, xs, ys, controls)
        assert isinstance(exc, NodeBudgetError)
        exc = self.assert_same_failure(H2, xs[::-1], ys[::-1], controls)
        assert str(exc) == "both query points must lie inside the domain"

    def test_point_outside_after_a_failing_pair(self):
        far = far_disks()
        xs, ys = [(-2.0, 0.0), (0.0, 0.0)], [(2.0, 0.0), (-2.0, 0.0)]
        exc = self.assert_same_failure(far, xs, ys, KControls(0.1, 0))
        assert isinstance(exc, DisconnectedGridError)
        exc = self.assert_same_failure(far, xs[::-1], ys[::-1], KControls(0.1, 0))
        assert str(exc) == "both query points must lie inside the domain"

"""Quasihyperbolic distance k(x, y) = inf over curves of the 1/d(z) line
integral, estimated by shortest paths on a lattice graph.

Exact closed forms exist for two of the built-in domains and serve as
oracles for the estimator:

* half-space: the density 1/x_n is the hyperbolic one, so k equals the
  half-space hyperbolic distance;
* punctured space: in log-polar coordinates the geodesic is a straight
  line, giving k = sqrt(theta^2 + log^2(|x|/|y|)).

Estimator construction, per refinement level (spacing halved each time):

* nodes: the global lattice (spacing h) restricted to a query window,
  keeping points with clearance >= h/2;
* edges: all primitive integer offsets with max-norm <= 5 in 2-D (a
  single-ring 8/26-neighbourhood leaves a direction-quantization error
  of several percent, far above the 1% target, so the stencil is
  widened until the worst-direction overhead sec(gap/2) - 1 is ~0.5%);
* weights: Simpson quadrature of 1/d along the straight segment
  (endpoint-only trapezoid carries ~1% error at the stencil's edge
  lengths near clearance 0.2);
* assembly, per stencil offset: the cells whose neighbour along it lies
  in the window form one slab, read as strided views of the node index
  and clearance arrays; midpoints and segment lengths vary along one
  axis each, so they are formed per axis and broadcast over the slab.
  The offset fills one slot of a per-cell edge table, and one boolean
  compaction of that table in (cell, slot) order yields the CSR rows;
  no edge gathers its endpoints and no edge is scattered into its row;
* both query points are attached to every node within (reach+1)*h via
  the same segment weights (plus a direct x-y edge when they are that
  close), so endpoint handling adds no O(h * density) detour penalty.

Grid paths are admissible curves up to quadrature error, so estimates
approach k from above; no rigorous enclosure is claimed.  Each domain
supplies the search window (``Domain.geodesic_window``); those of the
unbounded domains provably contain the true geodesic.

Every query goes through ``_grid_values``: x is a source-only row
appended to the grid's CSR adjacency, and y is no node; its value is the
least dist[c] + w(c, y) over the nodes c it attaches to, or the direct
x-y edge.  Dijkstra with non-negative weights returns the least
left-to-right sum over paths, so this is bit for bit the distance a
sink node for y would get.  Level l >= 1 stops its search at the level
l - 1 value times ``_LIMIT_MARGIN``: nodes within the limit are settled
exactly as without one, so a value within it is exact, and a value
above it is searched again without a limit.

Every k value comes from one driver, ``_histories``: ``k_estimate`` is
its one-pair case, ``k_estimate_many`` reads its last level, and the
CLI's ``dist --metric k`` goes through ``k_estimate_many``.  It reads
the endpoints' clearances once and picks each level's grid by one rule.
When the window does not depend on the query pair (``Domain.pair_window``
is false: ball, interval, generic domains) the lattice is the same for
every pair, so the last ``SHARED_GRIDS`` grids, keyed by (domain,
spacing, node cap), are kept read-only in memory and serve all of a
batch's pairs.  A shared grid holds every edge in both directions and
is searched directed, a chunk of sources per Dijkstra call: no path can
pass through another pair's source row.  Pair-dependent windows
(half-space, punctured space) and unhashable domains build one grid per
pair and level; it holds each edge once, serves one undirected search,
and nothing keeps it afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .domains import Domain, as_point, as_points

DEFAULT_NODE_CAP = 2_000_000

#: stencil order in 2-D: all primitive offsets with max-norm <= reach
STENCIL_REACH_2D = 5

#: grids kept for pair-independent windows; a sweep of one domain at
#: two or three spacings reuses every one of them
SHARED_GRIDS = 4

#: level l >= 1 stops its search at the level l - 1 value times this
_LIMIT_MARGIN = 1.05

#: bounds on one chunk of pairs: float64 entries of its Dijkstra
#: distance block (2 MB), and lattice cells its endpoints search.  The
#: cell bound binds on the 2-D shared grids and the coarser 3-D ones (28
#: pairs per chunk on ball:2, 23 on ball:3 at spacing 0.1); the small
#: chunks it makes keep each chunk's one search limit close to its
#: pairs' own limits
_DIST_BLOCK = 1 << 18
_CELL_BLOCK = 1 << 14


class GridError(RuntimeError):
    """Base class for estimator failures."""


class DisconnectedGridError(GridError):
    """No lattice path joins the query points at this resolution."""


class NodeBudgetError(GridError):
    """The discretization would exceed the node cap."""


@dataclass(frozen=True)
class KControls:
    """Resolution controls for the shortest-path estimator."""

    spacing: float = 0.05
    refinements: int = 2
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if not math.isfinite(self.spacing):
            raise ValueError("spacing must be finite")
        if self.refinements < 0:
            raise ValueError("refinements must be >= 0")
        # level l runs at ldexp(spacing, -l), which never overflows
        if not math.ldexp(self.spacing, -int(self.refinements)) > 0.0:
            raise ValueError("refinements must leave a positive finest spacing")
        if self.node_cap < 1:
            raise ValueError("node_cap must be >= 1")


@dataclass
class KEstimate:
    """Estimator output: final value plus the refinement trace."""

    value: float
    spacing: float
    refinement_history: list[tuple[float, float]]


@dataclass
class GeodesicGrid:
    """Lattice discretization of a domain window; its arrays are read-only.

    The edge set is a CSR adjacency: node u's edges are
    ``neighbours[indptr[u]:indptr[u+1]]`` with ``weights`` at the same
    positions.  Every weight is the Simpson approximation of the 1/d line
    integral along the straight segment between its endpoints.  A grid
    built for one query holds each undirected edge once, at its lower
    node, and is searched undirected; a shared grid is ``directed``: it
    holds every edge in both directions, so that one directed search
    serves a batch of sources.
    """

    domain: Domain
    spacing: float
    nodes: np.ndarray          # (N, n) positions
    indptr: np.ndarray = field(repr=False)           # (N+1,) row starts
    neighbours: np.ndarray = field(repr=False)       # (E,) int32 node indices
    weights: np.ndarray        # (E,)
    clearances: np.ndarray = field(repr=False)       # (N,)
    _index_map: np.ndarray = field(repr=False)       # lattice -> node index
    _axis_starts: np.ndarray = field(repr=False)     # first lattice index per axis
    directed: bool = False

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) node indices, one undirected edge per row, formed on read."""
        rows = np.repeat(np.arange(self.nodes.shape[0], dtype=np.int32),
                         np.diff(self.indptr))
        edges = np.stack([rows, self.neighbours], axis=1)
        return edges[rows < self.neighbours] if self.directed else edges


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


def k_exact_halfspace(x, y) -> float:
    """Exact quasihyperbolic distance of the upper half-space."""
    from .metrics import rho_halfspace

    return rho_halfspace(x, y)


def k_exact_punctured(x, y) -> float:
    """Exact quasihyperbolic distance of R^n minus the origin:
    sqrt(theta^2 + log^2(|x|/|y|)) with theta the angle between x and y."""
    x = as_point(x)
    y = as_point(y, x.size)
    rx = float(np.linalg.norm(x))
    ry = float(np.linalg.norm(y))
    if rx == 0.0 or ry == 0.0:
        raise ValueError("punctured-space points must be nonzero")
    cos_t = float(np.clip(np.dot(x, y) / (rx * ry), -1.0, 1.0))
    theta = math.acos(cos_t)
    return math.hypot(theta, math.log(rx / ry))


# ---------------------------------------------------------------------------
# stencil
# ---------------------------------------------------------------------------


@functools.cache
def _stencil(dimension: int) -> tuple[np.ndarray, int]:
    """Half-space of lattice offsets (one per undirected edge direction),
    read-only, and its reach (the largest offset coordinate)."""
    if dimension == 1:
        offs = [(1,)]
    elif dimension == 2:
        r = STENCIL_REACH_2D
        offs = [(i, j) for i in range(r + 1) for j in range(-r, r + 1)
                if (i > 0 or j > 0) and math.gcd(i, abs(j)) == 1]
    else:
        # n >= 3: the full single-ring neighbourhood (3^n - 1 offsets, halved)
        offs = [o for o in itertools.product((-1, 0, 1), repeat=dimension)
                if any(o) and next(c for c in o if c) > 0]
    offsets = np.array(offs, dtype=np.int64)
    offsets.flags.writeable = False
    return offsets, int(np.max(np.abs(offsets)))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def _segment_weights(domain: Domain, mid: np.ndarray, length: np.ndarray,
                     du, dv) -> tuple[np.ndarray, np.ndarray]:
    """Simpson weights of 1/d along straight segments given by their
    midpoints, lengths and endpoint clearances; rows whose midpoint lies
    outside the domain are masked."""
    dm = domain.clearance_many(mid)
    ok = dm > 0.0
    dm_safe = np.where(ok, dm, 1.0)
    w = length / 6.0 * (1.0 / du + 4.0 / dm_safe + 1.0 / dv)
    return w, ok


def _box_text(lo: np.ndarray, hi: np.ndarray) -> str:
    return " x ".join(f"[{a:.6g}, {b:.6g}]" for a, b in zip(lo, hi))


def build_grid(domain: Domain, spacing: float, x, y,
               node_cap: int = DEFAULT_NODE_CAP) -> GeodesicGrid:
    """Lattice graph over the query window of a domain."""
    x = as_point(x, domain.dimension)
    y = as_point(y, domain.dimension)
    h = float(spacing)
    offsets, reach = _stencil(domain.dimension)
    lo, hi, extra_mask = domain.geodesic_window(x, y, (reach + 2) * h)
    box = _box_text(lo, hi)

    starts = np.ceil(lo / h - 1e-9).astype(np.int64)
    stops = np.floor(hi / h + 1e-9).astype(np.int64)
    if np.any(stops < starts):
        raise DisconnectedGridError(
            f"empty lattice window for {domain.spec_string()} at spacing {h}"
        )
    dims = (stops - starts + 1).astype(np.int64)
    raw = int(np.prod(dims))
    if raw > 8 * node_cap:
        raise NodeBudgetError(
            f"lattice window {box} at spacing {h} holds {raw} cells "
            f"(cap {node_cap}); increase spacing or the node cap"
        )

    axes = [np.arange(a, b + 1) * h for a, b in zip(starts, stops)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    clear = domain.clearance_many(points)
    mask = clear >= 0.5 * h
    if extra_mask is not None:
        mask &= extra_mask(points)
    n_valid = int(np.count_nonzero(mask))
    if n_valid > node_cap:
        raise NodeBudgetError(
            f"{n_valid} grid nodes in the window {box} at spacing {h} "
            f"exceed the cap {node_cap}"
        )
    if n_valid == 0:
        raise DisconnectedGridError(
            f"no grid nodes with clearance >= {0.5 * h} in the window {box} "
            f"at spacing {h}"
        )

    shape = tuple(dims)
    index_map = np.full(raw, -1, dtype=np.int64)
    index_map[mask] = np.arange(n_valid)
    index_nd = index_map.reshape(shape)
    clear_nd = clear.reshape(shape)
    nodes = points[mask]
    node_clear = clear[mask]

    # the edge table: entry (cell, j) holds the cell's edge along offset j,
    # so its row-major order is the CSR order (rows by node, offsets in
    # stencil order within a row); stored slot-major so that each offset
    # writes one contiguous block
    n_off = offsets.shape[0]
    has = np.zeros((n_off, *shape), dtype=bool)
    table_nbr = np.empty((n_off, *shape), dtype=np.int32)
    table_w = np.empty((n_off, *shape))
    for j, off in enumerate(offsets):
        if np.any(np.abs(off) >= dims):
            continue
        # the slab of cells a whose neighbour b = a + off lies in the window
        sl_a = tuple(slice(max(0, -o), d - max(0, o)) for o, d in zip(off, dims))
        sl_b = tuple(slice(max(0, o), d - max(0, -o)) for o, d in zip(off, dims))
        b = index_nd[sl_b]
        keep = (index_nd[sl_a] >= 0) & (b >= 0)
        if not keep.any():
            continue
        # coordinates vary along one axis each: form them per axis and
        # broadcast over the slab
        ua = np.ix_(*[ax[s] for ax, s in zip(axes, sl_a)])
        ub = np.ix_(*[ax[s] for ax, s in zip(axes, sl_b)])
        mid = np.stack([np.broadcast_to(0.5 * (u + v), keep.shape)[keep]
                        for u, v in zip(ua, ub)], axis=1)
        length = np.sqrt(functools.reduce(
            np.add, [(u - v) * (u - v) for u, v in zip(ua, ub)])[keep])
        w, ok = _segment_weights(domain, mid, length,
                                 clear_nd[sl_a][keep], clear_nd[sl_b][keep])
        table_nbr[(j, *sl_a)] = b
        table_w[(j, *sl_a)][keep] = w
        keep[keep] = ok
        has[(j, *sl_a)] = keep

    by_cell = np.moveaxis(has, 0, -1)
    neighbours = np.moveaxis(table_nbr, 0, -1)[by_cell]
    del table_nbr  # lowers the peak while the weights are compacted
    weights = np.moveaxis(table_w, 0, -1)[by_cell]
    indptr = np.zeros(n_valid + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(has, axis=0).reshape(-1)[mask], out=indptr[1:])
    for a in (nodes, node_clear, indptr, neighbours, weights, index_nd, starts):
        a.flags.writeable = False
    return GeodesicGrid(
        domain=domain,
        spacing=h,
        nodes=nodes,
        indptr=indptr,
        neighbours=neighbours,
        weights=weights,
        clearances=node_clear,
        _index_map=index_nd,
        _axis_starts=starts,
    )


def _both_directions(grid: GeodesicGrid) -> GeodesicGrid:
    """The grid with every edge in both directions, read-only.  Its two
    halves never share an entry, so each sum is w + 0 = w."""
    n = grid.nodes.shape[0]
    half = sp.csr_matrix((grid.weights, grid.neighbours, grid.indptr), shape=(n, n))
    both = half + half.T
    for a in (both.indptr, both.indices, both.data):
        a.flags.writeable = False
    return dataclasses.replace(grid, indptr=both.indptr, neighbours=both.indices,
                               weights=both.data, directed=True)


def _shares_grids(domain: Domain) -> bool:
    """Whether one lattice per spacing serves every pair of the domain:
    its window ignores the pair and the domain can key a cache."""
    if domain.pair_window:
        return False
    try:
        hash(domain)
    except TypeError:  # e.g. a GenericDomain whose box is a list
        return False
    return True


@functools.lru_cache(maxsize=SHARED_GRIDS)
def _shared_grid(domain: Domain, spacing: float, node_cap: int) -> GeodesicGrid:
    # the window ignores the pair, so any pair builds the shared lattice
    origin = np.zeros(domain.dimension)
    return _both_directions(build_grid(domain, spacing, origin, origin, node_cap=node_cap))


def _cell_box(grid: GeodesicGrid, widen: int) -> np.ndarray:
    """Lattice offsets of the cells searched around a query point's cell,
    row-major; ``widen`` 1 is the wider second search."""
    _, reach = _stencil(grid.domain.dimension)
    r_aug = (reach + 1) * grid.spacing
    span = int(math.ceil(r_aug / grid.spacing)) + 1 + widen * 4
    axes = [np.arange(-span, span + 1)] * grid.domain.dimension
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _attach(grid: GeodesicGrid, ps: np.ndarray,
            dps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges from query points ``ps`` of clearances ``dps`` to every node
    within (reach+1)*spacing, as flat (point, node, weight) arrays grouped
    by point; a point without a usable edge has none.

    One gather reads every point's candidate cells.  A point with no node
    that near falls back to its nearest nodes; a point with no candidate
    cell or no usable edge searches once more in a wider box.
    """
    domain = grid.domain
    h = grid.spacing
    _, reach = _stencil(domain.dimension)
    r_aug = (reach + 1) * h
    dims = np.asarray(grid._index_map.shape, dtype=np.int64)
    cells = np.round(ps / h).astype(np.int64) - grid._axis_starts
    pending = np.arange(ps.shape[0])
    found = []
    for widen in (0, 1):
        at = cells[pending, None, :] + _cell_box(grid, widen)
        owner, k = np.nonzero(np.all((at >= 0) & (at < dims), axis=2))
        cand = grid._index_map[tuple(at[owner, k].T)]
        owner, cand = owner[cand >= 0], cand[cand >= 0]
        p = ps[pending[owner]]
        pos = grid.nodes[cand]
        dist = np.linalg.norm(pos - p, axis=1)
        near = dist <= r_aug * (1.0 + widen)
        lone = np.ones(pending.size, dtype=bool)
        lone[owner[near]] = False
        nearest = np.full(pending.size, np.inf)
        np.minimum.at(nearest, owner, dist)
        near |= lone[owner] & (dist <= nearest[owner] * 1.0001)
        owner, cand = owner[near], cand[near]
        w, ok = _segment_weights(domain, 0.5 * (p[near] + pos[near]), dist[near],
                                 dps[pending[owner]], grid.clearances[cand])
        found.append((pending[owner[ok]], cand[ok], w[ok]))
        attached = np.zeros(pending.size, dtype=bool)
        attached[owner[ok]] = True
        pending = pending[~attached]
        if pending.size == 0:
            break
    point, node, weight = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(point, kind="stable")
    return point[order], node[order], weight[order]


def _chunk_size(grid: GeodesicGrid) -> int:
    """Pairs per Dijkstra call on the grid: the distance block holds at
    most _DIST_BLOCK entries and the endpoints search at most _CELL_BLOCK
    cells."""
    n = grid.nodes.shape[0]
    return max(1, min(int((math.sqrt(n * n + 4 * _DIST_BLOCK) - n) / 2),
                      _CELL_BLOCK // (2 * len(_cell_box(grid, 0)))))


def _grid_values(grid: GeodesicGrid, xs: np.ndarray, ys: np.ndarray, dxs: np.ndarray,
                 dys: np.ndarray, limits: np.ndarray) -> tuple[np.ndarray, dict]:
    """Grid distances of the pairs (x_i, y_i), whose clearances are dx_i
    and dy_i, and the GridError of each pair that fails, by pair index.

    Each x_i is a source-only row appended to the grid's adjacency, and a
    chunk of sources is one Dijkstra call.  y_i is no node: its value is
    the least dist[c] + w over the nodes c it attaches to, and the direct
    x-y edge, which is the distance a sink node would get, bit for bit.
    The search of pair i stops at ``limits[i]`` (nodes farther away read
    inf); a value above its limit is searched again without one.  An
    undirected grid serves one pair: its source's edges run both ways.
    """
    n_nodes = grid.nodes.shape[0]
    _, reach = _stencil(grid.domain.dimension)
    values = np.full(xs.shape[0], np.inf)
    failures = {}
    # the same dot product as the norm of one vector, so the direct-edge
    # test matches a per-pair query bit for bit
    d = xs - ys
    gap = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    direct = np.flatnonzero((gap > 0.0) & (gap <= (reach + 1) * grid.spacing))
    if direct.size:
        w, ok = _segment_weights(grid.domain, 0.5 * (xs[direct] + ys[direct]),
                                 np.linalg.norm(d[direct], axis=1), dxs[direct], dys[direct])
        values[direct[ok]] = w[ok]
    size = _chunk_size(grid)
    by_limit = np.argsort(limits, kind="stable")
    for chunk in (by_limit[s:s + size] for s in range(0, by_limit.size, size)):
        k = chunk.size
        point, node, w = _attach(grid, np.concatenate([xs[chunk], ys[chunk]]),
                                 np.concatenate([dxs[chunk], dys[chunk]]))
        attached = np.bincount(point, minlength=2 * k).reshape(2, k) > 0
        live = attached.all(axis=0)
        for i in np.flatnonzero(~live):  # x is attached first
            p = ys[chunk[i]] if attached[0, i] else xs[chunk[i]]
            failures[int(chunk[i])] = DisconnectedGridError(
                f"query point {p.tolist()} has no usable grid neighbours "
                f"at spacing {grid.spacing}")
        if not live.any():
            continue
        # one source row per live pair, after the grid's rows, holding its
        # x edges; its y edges are read off the distance block
        row = np.cumsum(live) - 1
        pairs = chunk[live]
        on_x = (point < k) & live[point % k]
        on_y = (point >= k) & live[point % k]
        x_row, y_row = row[point[on_x]], row[point[on_y] - k]
        y_node, y_w = node[on_y], w[on_y]
        n_src = pairs.size
        graph = sp.csr_matrix(
            (np.concatenate([grid.weights, w[on_x]]),
             np.concatenate([grid.neighbours, node[on_x]], dtype=np.int32),
             np.concatenate([grid.indptr, grid.indptr[-1]
                             + np.cumsum(np.bincount(x_row, minlength=n_src))])),
            shape=(n_nodes + n_src, n_nodes + n_src))
        search = np.arange(n_src)
        # pairs are sorted by limit, so the last one's is the chunk's
        for limit in (float(limits[pairs[-1]]), np.inf):
            if search.size == 0:
                break
            dist = dijkstra(graph, directed=grid.directed, indices=n_nodes + search, limit=limit)
            at = np.flatnonzero(np.isin(y_row, search))
            local = np.searchsorted(search, y_row[at])
            best = values[pairs[search]]
            np.minimum.at(best, local, dist[local, y_node[at]] + y_w[at])
            values[pairs[search]] = best
            # a value above its own limit may have been cut short
            search = search[best > limits[pairs[search]]]
    unreached = np.flatnonzero(~np.isfinite(values))
    if unreached.size:
        lo = grid._axis_starts * grid.spacing
        hi = (grid._axis_starts + np.array(grid._index_map.shape) - 1) * grid.spacing
        exc = DisconnectedGridError(
            "grid is disconnected between the query points in the lattice "
            f"{_box_text(lo, hi)} at spacing {grid.spacing}")
        for i in unreached:
            failures.setdefault(int(i), exc)
    return values, failures


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def _histories(domain: Domain, xs: np.ndarray, ys: np.ndarray,
               controls: KControls) -> np.ndarray:
    """Values per pair and level of the validated pairs (x_i, y_i); raises
    the failure of the lowest-index pair that fails.

    One clearance read of the endpoints serves every level.  A level
    runs all live pairs on the shared grid when the domain shares grids,
    and otherwise each live pair on a grid built for it.  Level l >= 1
    stops each pair's search at its level l - 1 value times
    ``_LIMIT_MARGIN``.
    """
    m = xs.shape[0]
    d = domain.clearance_many(np.concatenate([xs, ys]))
    dxs, dys = d[:m], d[m:]
    values = np.zeros((m, controls.refinements + 1))
    inside = (dxs > 0.0) & (dys > 0.0)
    failures = {int(i): ValueError("both query points must lie inside the domain")
                for i in np.flatnonzero(~inside)}
    live = np.flatnonzero(inside & np.any(xs != ys, axis=1))
    limits = np.full(m, np.inf)
    shared = _shares_grids(domain)
    for level in range(controls.refinements + 1):
        if live.size == 0:
            break
        h = math.ldexp(controls.spacing, -level)
        for pairs in [live] if shared else live[:, None]:
            try:
                grid = (_shared_grid(domain, h, controls.node_cap) if shared else
                        build_grid(domain, h, xs[pairs[0]], ys[pairs[0]],
                                   node_cap=controls.node_cap))
            except GridError as exc:
                failures.update(dict.fromkeys(pairs.tolist(), exc))
                continue
            vals, failed = _grid_values(grid, xs[pairs], ys[pairs], dxs[pairs], dys[pairs],
                                        limits[pairs])
            failures.update({int(pairs[i]): exc for i, exc in failed.items()})
            values[pairs, level] = vals
            limits[pairs] = vals * _LIMIT_MARGIN
            del grid  # the next build need not hold this one
        live = live[~np.isin(live, list(failures))]
    if failures:
        raise failures[min(failures)]
    return values


def k_estimate(
    domain: Domain,
    x,
    y,
    initial_spacing: float = 0.05,
    refinements: int = 2,
    node_cap: int = DEFAULT_NODE_CAP,
) -> KEstimate:
    """Shortest-path estimate of k(x, y), spacing halved per refinement.

    The refinement history usually decreases toward the true value
    (estimates are approximations from above) but monotonicity is not
    guaranteed and not asserted.
    """
    x = as_point(x, domain.dimension)
    y = as_point(y, domain.dimension)
    controls = KControls(initial_spacing, refinements, node_cap)
    values = _histories(domain, x[None], y[None], controls)[0]
    history = [(math.ldexp(controls.spacing, -level), float(v))
               for level, v in enumerate(values)]
    return KEstimate(history[-1][1], history[-1][0], history)


def k_estimate_many(domain: Domain, xs: np.ndarray, ys: np.ndarray,
                    controls: KControls) -> np.ndarray:
    """Final-level estimates for an array of pairs, each equal to its
    ``k_estimate``; a failure is the one the first failing pair raises
    on its own."""
    xs = as_points(xs, domain.dimension)
    ys = as_points(ys, domain.dimension)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"pairs need as many ys as xs, got {xs.shape[0]} xs "
                         f"and {ys.shape[0]} ys")
    return _histories(domain, xs, ys, controls)[:, -1]

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

A grid holds its edge set once, as a CSR adjacency with one entry per
undirected edge; a query appends the rows of its two endpoints to it and
runs one undirected Dijkstra.  When the window does not depend on the
query pair (``Domain.pair_window`` is false: ball, interval, generic
domains) the lattice is the same for every pair, so the last
``SHARED_GRIDS`` grids, keyed by (domain, spacing, node cap), are kept
read-only in memory and shared by every query on them.  Pair-dependent
windows (half-space, punctured space) build one grid per query and
level, and nothing keeps it afterwards.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .domains import Domain, as_point

DEFAULT_NODE_CAP = 2_000_000

#: stencil order in 2-D: all primitive offsets with max-norm <= reach
STENCIL_REACH_2D = 5

#: grids kept for pair-independent windows; a sweep of one domain at
#: two or three spacings reuses every one of them
SHARED_GRIDS = 4


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
        if self.refinements < 0:
            raise ValueError("refinements must be >= 0")
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

    The edge set is a CSR adjacency with one entry per undirected edge:
    node u's edges are ``neighbours[indptr[u]:indptr[u+1]]`` with
    ``weights`` at the same positions.  Every weight is the Simpson
    approximation of the 1/d line integral along the straight segment
    between its endpoints.
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

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) node indices, one undirected edge per row, formed on read."""
        rows = np.repeat(np.arange(self.nodes.shape[0], dtype=np.int32),
                         np.diff(self.indptr))
        return np.stack([rows, self.neighbours], axis=1)


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


@functools.lru_cache(maxsize=SHARED_GRIDS)
def _shared_grid(domain: Domain, spacing: float, node_cap: int) -> GeodesicGrid:
    # the window ignores the pair, so any pair builds the shared lattice
    origin = np.zeros(domain.dimension)
    return build_grid(domain, spacing, origin, origin, node_cap=node_cap)


def _query_grid(domain: Domain, spacing: float, x: np.ndarray, y: np.ndarray,
                node_cap: int) -> GeodesicGrid:
    """The lattice for one query: shared across pairs when the domain's
    window ignores them and the domain can key a cache, else built anew."""
    if not domain.pair_window:
        try:
            hash(domain)
        except TypeError:  # e.g. a GenericDomain whose box is a list
            pass
        else:
            return _shared_grid(domain, spacing, node_cap)
    return build_grid(domain, spacing, x, y, node_cap=node_cap)


def _attach_endpoint(grid: GeodesicGrid, p: np.ndarray,
                     dp: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges from a query point of clearance dp to every node within
    (reach+1)*spacing."""
    domain = grid.domain
    h = grid.spacing
    _, reach = _stencil(domain.dimension)
    r_aug = (reach + 1) * h
    dims = np.asarray(grid._index_map.shape, dtype=np.int64)
    cell = np.round(p / h).astype(np.int64) - grid._axis_starts
    for widen in (0, 1):
        span = int(math.ceil(r_aug / h)) + 1 + widen * 4
        sl = tuple(
            slice(max(0, int(c) - span), min(int(d), int(c) + span + 1))
            for c, d in zip(cell, dims)
        )
        cand = grid._index_map[sl].ravel()
        cand = cand[cand >= 0]
        if cand.size == 0:
            continue
        pos = grid.nodes[cand]
        dist = np.linalg.norm(pos - p[None, :], axis=1)
        near = dist <= r_aug * (1.0 + widen)
        if not np.any(near):
            near = dist <= np.min(dist) * 1.0001  # fall back to the nearest node
        cand = cand[near]
        pos = pos[near]
        w, ok = _segment_weights(domain, 0.5 * (p + pos), np.linalg.norm(p - pos, axis=1),
                                 dp, grid.clearances[cand])
        if np.any(ok):
            return cand[ok], w[ok]
    raise DisconnectedGridError(
        f"query point {p.tolist()} has no usable grid neighbours at spacing {h}"
    )


def _shortest_path_value(grid: GeodesicGrid, x: np.ndarray, y: np.ndarray,
                         dx: float, dy: float) -> float:
    """Grid distance from x to y, whose clearances are dx and dy."""
    n_nodes = grid.nodes.shape[0]
    ix, iy = n_nodes, n_nodes + 1
    cx, wx = _attach_endpoint(grid, x, dx)
    cy, wy = _attach_endpoint(grid, y, dy)
    gap = np.linalg.norm(x - y)
    _, reach = _stencil(grid.domain.dimension)
    if 0.0 < gap <= (reach + 1) * grid.spacing:
        w_direct, ok = _segment_weights(grid.domain, 0.5 * (x + y)[None, :],
                                        np.linalg.norm((x - y)[None, :], axis=1), dx, dy)
        if ok[0]:
            cx = np.append(cx, iy)
            wx = np.append(wx, w_direct[0])
    # rows ix (x's edges and the direct edge) and iy follow the grid's rows
    end = grid.indptr[-1]
    indptr = np.concatenate([grid.indptr, [end + cx.size, end + cx.size + cy.size]])
    indices = np.concatenate([grid.neighbours, cx, cy], dtype=np.int32)
    data = np.concatenate([grid.weights, wx, wy])
    graph = sp.csr_matrix((data, indices, indptr), shape=(ix + 2, ix + 2))
    dist = dijkstra(graph, directed=False, indices=ix)
    val = float(dist[iy])
    if not np.isfinite(val):
        lo = grid._axis_starts * grid.spacing
        hi = (grid._axis_starts + np.array(grid._index_map.shape) - 1) * grid.spacing
        raise DisconnectedGridError(
            "grid is disconnected between the query points in the lattice "
            f"{_box_text(lo, hi)} at spacing {grid.spacing}"
        )
    return val


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


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
    # the one clearance read of each endpoint serves every level
    dx, dy = domain.clearance_many(np.stack([x, y])).tolist()
    if not (dx > 0.0 and dy > 0.0):
        raise ValueError("both query points must lie inside the domain")
    controls = KControls(initial_spacing, refinements, node_cap)
    spacings = [controls.spacing / 2**level for level in range(controls.refinements + 1)]
    if np.array_equal(x, y):
        history = [(h, 0.0) for h in spacings]
    else:
        history = [(h, _shortest_path_value(_query_grid(domain, h, x, y, node_cap),
                                            x, y, dx, dy))
                   for h in spacings]
    return KEstimate(history[-1][1], history[-1][0], history)


def k_estimate_many(domain: Domain, xs: np.ndarray, ys: np.ndarray,
                    controls: KControls) -> np.ndarray:
    """Final-level estimates for an array of pairs (one query per pair)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.empty(xs.shape[0])
    for i in range(xs.shape[0]):
        out[i] = k_estimate(
            domain, xs[i], ys[i],
            initial_spacing=controls.spacing,
            refinements=controls.refinements,
            node_cap=controls.node_cap,
        ).value
    return out

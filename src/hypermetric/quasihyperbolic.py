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
  and 1/d arrays; midpoints and segment lengths vary along one axis
  each, so they are formed per axis, the midpoint clearances are
  ``Domain.clearance_grid`` of the per-axis midpoints, and the Simpson
  weights are formed over the whole slab in ``_segment_weights``' order,
  bit for bit its values.  The offset fills one slot of a per-cell edge
  table, and one boolean compaction of that table in (cell, slot) order
  yields the CSR rows; no edge gathers its endpoints and no edge is
  scattered into its row.  Nodes are read off the axes at the window's
  cells, and no (cells, n) point matrix is formed;
* both query points are attached to every node within (reach+1)*h via
  the same segment weights (plus a direct x-y edge when they are that
  close), so endpoint handling adds no O(h * density) detour penalty.

Grid paths are admissible curves up to quadrature error, so estimates
usually lie above k, but Simpson's rule can fall below the integral:
across the kink of 1 - |z| at the ball's centre, the worst of 1000
diameter pairs through it read 1.9% below k at spacing 0.1.  No
rigorous enclosure is claimed.  Each domain supplies the search window
(``Domain.geodesic_window``); those of the unbounded domains provably
contain the true geodesic.

Every grid path from a to b weighs at least ``Domain.path_floor(|a - b|,
d(a), d(b))``: j on every domain, because the clearance is 1-Lipschitz
and Simpson overestimates the integral of 1/(d + t); rho_H on the
half-space, because there the clearance is affine along each segment.
So every estimate is at least j, and on the half-space at least
rho_H = k.  On the punctured space a path over the lattice weighs at
least c k_P less the slack of its first edge, where k_P is the exact
log-polar k and c < 1 bounds Simpson's error on edges no longer than
the stencil's longest that keep clear of the puncture; near the
puncture, where no c > 0 is proved, the floor is j (see
``PuncturedSpace.path_floor``).  The slack is how far the endpoint's
attach edges, which are longer, fall short of c k_P.

Every query goes through ``_grid_values``: x is a source-only row
appended to the grid's CSR adjacency, and y is no node; its value is the
least dist[c] + w(c, y) over the nodes c it attaches to, or the direct
x-y edge.  Dijkstra with non-negative weights returns the least
left-to-right sum over paths, so this is bit for bit the distance a
sink node for y would get.  Level l >= 1 stops its search at the level
l - 1 value times ``_LIMIT_MARGIN``: nodes within the limit are settled
exactly as without one, so a value within it is exact.  One rule, in
``_histories``, covers the rest: a value that comes back above its
limit is searched once more, without a limit, on the whole window, and
a pair is unreached only when a search without a limit misses it.

On a per-query grid, level l >= 1 also holds only the lens of its limit
L: the nodes z with floor(x, z) + floor(z, y) <= L (1 + 1e-9), plus the
whole wider attach box of each endpoint's cell, and its box is cropped
to them.  Each floor is the domain's over the whole window's lattice
edges and the endpoint's attach edges.  A node on an optimal path of
value V <= L has a floor sum of at most V, so it is kept; the float
Dijkstra fixed point does not depend on node numbering, so every value
within L is bit for bit the whole window's.  The lens keeps the
endpoints' attach candidates, so an endpoint attaches in it exactly as
on the whole window.  A lens that holds no node counts as a value above
L: by the one rule, its pair's value and any error are the whole
window's, and the node cap applies to the whole window.  Level 0 has no
limit and shared grids serve many pairs, so neither gets a lens.

Every k value comes from one driver, ``_histories``: ``k_estimate`` is
its one-pair case, ``k_estimate_many`` reads its last level, and the
CLI's ``dist --metric k`` goes through ``k_estimate_many``.  It reads
the endpoints' clearances once and picks each level's grid by one rule.
When the window does not depend on the query pair (``Domain.pair_window``
is false: ball, interval, generic domains) the lattice is the same for
every pair, so the last ``SHARED_GRIDS`` grids, keyed by (domain,
spacing, node cap), are kept read-only in memory and serve all of a
batch's pairs.  A shared grid holds every *kept* edge in both
directions and is searched directed, a chunk of sources per Dijkstra
call: no path can pass through another pair's source row.  It drops,
once, as it fills the cache, each edge that a two-edge detour along the
stencil beats by a relative 1e-9 (``_pruned``; about two thirds of the
edges at spacing 0.1 on the disc, a quarter at 0.0125; none in 1-D or
3-D).  Every node distance up to its bound G = (1e-9 / (3.01 * 2^-53) -
1) * 2 w_min, with w_min its lightest edge, is bit for bit the whole
edge set's, and a pruned value is never low (the lemma is in
``_pruned``); so ``_histories`` takes min(limit, G) as a shared grid's
limit in the one rule, and a value above it is searched again on every
edge of the lattice, built afresh (only an endpoint within about 3e-8
of the boundary reads above G).  Pair-dependent windows
(half-space, punctured space) and unhashable domains build one grid per
pair and level; it holds each edge once, serves one undirected search,
and nothing keeps it afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
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

#: relative slack of the lens test, far above the rounding of a path's
#: weight sum and of the floors
_LENS_SLACK = 1e-9

#: a shared grid drops an edge that a two-edge detour beats by this much
#: relative to the detour's weight, far above the rounding of its sum
_DETOUR_MARGIN = 1e-9

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
        for name in ("refinements", "node_cap"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
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
    holds every kept edge in both directions, so that one directed search
    serves a batch of sources.  It keeps the edges no two-edge detour
    beats (``_pruned``): every node distance up to ``exact_to``, its
    bound G, is bit for bit that of the same lattice with every edge.
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
    exact_to: float = math.inf  # G; inf when the grid holds every edge

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
    sqrt(theta^2 + log^2(|x|/|y|)), with the angle theta formed as
    2 atan2(| |y| x - |x| y |, | |y| x + |x| y |), accurate near 0 and pi."""
    x = as_point(x)
    y = as_point(y, x.size)
    rx = float(np.linalg.norm(x))
    ry = float(np.linalg.norm(y))
    if rx == 0.0 or ry == 0.0:
        raise ValueError("punctured-space points must be nonzero")
    u, v = ry * x, rx * y
    theta = 2.0 * math.atan2(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))
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


def _floor_from(domain: Domain, h: float, p: np.ndarray, dp, z: np.ndarray, dz: np.ndarray,
                near: np.ndarray, d_near: np.ndarray) -> np.ndarray:
    """The domain's path floor from the query point p to each node z, a
    lower bound on every grid path between them: ``z`` and ``dz`` are all
    the window's nodes and their clearances, ``near`` and ``d_near``
    those in p's wider attach box, which holds every node p attaches to.

    Every lattice edge is at most the longest stencil offset long and
    joins window nodes; the slack is how far the attach edges fall short
    of the floor of their ends, so the first edge is covered too."""
    offsets, _ = _stencil(domain.dimension)
    edges = (h * float(np.max(np.linalg.norm(offsets, axis=1))), float(np.min(dz)))
    gap = np.linalg.norm(near - p, axis=1)
    w, ok = _segment_weights(domain, 0.5 * (p + near), gap, dp, d_near)
    short = domain.path_floor(gap, dp, d_near, (*edges, 0.0)) - w
    slack = max(0.0, float(np.max(short[ok], initial=0.0)))
    # |z - p| column by column: several times faster than norm(axis=1) on
    # n-wide rows, and summed in its order, so bit for bit its value
    sep = np.sqrt(functools.reduce(np.add, [(c - q) * (c - q) for c, q in zip(z.T, p)]))
    return domain.path_floor(sep, dp, dz, (*edges, slack))


def _lattice_points(axes: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    """Positions of the lattice cells that ``mask`` marks, row-major."""
    return np.stack([ax[i] for ax, i in zip(axes, np.nonzero(mask))], axis=1)


def _lens(domain: Domain, h: float, x: np.ndarray, y: np.ndarray, lens,
          starts: np.ndarray, axes: list[np.ndarray], clear: np.ndarray,
          window: np.ndarray) -> np.ndarray:
    """Which cells of the window hold a node that a grid path from x to y
    of weight at most the limit can pass through, or a node in the wider
    attach box of either endpoint's cell.  ``lens`` is (d(x), d(y),
    limit), ``axes`` the lattice coordinates, and ``clear`` and
    ``window`` the clearance and the window's nodes by cell."""
    dx, dy, limit = lens
    z, dz = _lattice_points(axes, window), clear[window]
    span = _cell_span(domain.dimension, h, 1)
    boxes = []
    floor = 0.0
    for p, dp in ((x, dx), (y, dy)):
        cell = np.round(p / h).astype(np.int64) - starts
        box = tuple(slice(min(max(c - span, 0), d), max(min(c + span + 1, d), 0))
                    for c, d in zip(cell, window.shape))
        near = window[box]
        near_axes = [ax[s] for ax, s in zip(axes, box)]
        floor = floor + _floor_from(domain, h, p, dp, z, dz, _lattice_points(near_axes, near),
                                    clear[box][near])
        boxes.append(box)
    keep = np.zeros(window.shape, dtype=bool)
    keep[window] = floor <= limit * (1.0 + _LENS_SLACK)
    # _attach sees the same candidates as on the whole window
    for box in boxes:
        keep[box] |= window[box]
    return keep


def build_grid(domain: Domain, spacing: float, x, y,
               node_cap: int = DEFAULT_NODE_CAP, lens=None) -> GeodesicGrid:
    """Lattice graph over the query window of a domain.

    ``lens`` = (d(x), d(y), limit) keeps only the nodes that a grid path
    from x to y of weight at most the limit can pass through, and those
    near either endpoint, and crops the lattice box to them; the node cap
    applies to the whole window all the same.
    """
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
    clear = domain.clearance_grid(axes)
    mask = clear >= 0.5 * h
    if extra_mask is not None:
        mask[mask] = extra_mask(_lattice_points(axes, mask))
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
    if lens is not None:
        keep = _lens(domain, h, x, y, lens, starts, axes, clear, mask)
        kept = np.nonzero(keep)
        if kept[0].size == 0:
            raise DisconnectedGridError(f"no grid nodes in the lens at spacing {h}")
        # crop the box to the kept nodes
        crop = tuple(slice(int(k.min()), int(k.max()) + 1) for k in kept)
        starts = starts + [c.start for c in crop]
        axes = [ax[c] for ax, c in zip(axes, crop)]
        dims = np.array([ax.size for ax in axes], dtype=np.int64)
        clear = clear[crop]
        mask = keep[crop]
        shape = tuple(dims)
        n_valid = int(np.count_nonzero(mask))

    index_nd = np.full(shape, -1, dtype=np.int64)
    index_nd[mask] = np.arange(n_valid)
    nodes = _lattice_points(axes, mask)
    node_clear = clear[mask]
    inv = 1.0 / np.where(mask, clear, 1.0)

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
        keep = mask[sl_a] & mask[sl_b]
        if not keep.any():
            continue
        # midpoints and lengths vary along one axis each: the midpoint
        # clearance is the domain's on their product lattice, and Simpson's
        # weight is formed over the whole slab in _segment_weights' order
        ua = [ax[s] for ax, s in zip(axes, sl_a)]
        ub = [ax[s] for ax, s in zip(axes, sl_b)]
        dm = domain.clearance_grid([0.5 * (u + v) for u, v in zip(ua, ub)])
        ok = dm > 0.0
        length = np.sqrt(functools.reduce(
            np.add, np.ix_(*[(u - v) * (u - v) for u, v in zip(ua, ub)])))
        table_nbr[(j, *sl_a)] = index_nd[sl_b]
        table_w[(j, *sl_a)] = length / 6.0 * (inv[sl_a] + 4.0 / np.where(ok, dm, 1.0)
                                              + inv[sl_b])
        has[(j, *sl_a)] = keep & ok

    by_cell = np.moveaxis(has, 0, -1)
    neighbours = np.moveaxis(table_nbr, 0, -1)[by_cell]
    del table_nbr  # lowers the peak while the weights are compacted
    weights = np.moveaxis(table_w, 0, -1)[by_cell]
    indptr = np.zeros(n_valid + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(has, axis=0)[mask], out=indptr[1:])
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


@functools.cache
def _detours(dimension: int) -> tuple[tuple[int, int, tuple, int, tuple], ...]:
    """The two-edge detours of each stencil edge: (j, k1, at1, k2, at2)
    for every split of half-offset j into two stencil offsets, of either
    sign, whose lengths add up to within 1/32 of its own.  The detour's
    first edge is the one stored along half-offset k1 at the cell ``at1``
    steps from the split edge's cell, its second the one along k2 at
    ``at2``.  The 2-D stencil has 80, over 32 of its 40 half-offsets; the
    1-D and 3-D ones have none."""
    offsets, _ = _stencil(dimension)
    half = {o: k for k, o in enumerate(map(tuple, offsets.tolist()))}

    def neg(o):
        return tuple(-c for c in o)

    def stored(o, at):
        # the edge from cell ``at`` along o; one along -o is stored at its
        # far end, along +o
        if o in half:
            return half[o], at
        return half[neg(o)], tuple(a + c for a, c in zip(at, o))

    detours = []
    for j, off in enumerate(half):
        for o1 in [*half, *map(neg, half)]:
            o2 = tuple(a - b for a, b in zip(off, o1))
            if ((o2 in half or neg(o2) in half)
                    and math.hypot(*o1) + math.hypot(*o2)
                    <= math.hypot(*off) * (1.0 + 1.0 / 32.0)):
                detours.append((j, *stored(o1, (0,) * dimension), *stored(o2, o1)))
    return tuple(detours)


def _pruned(grid: GeodesicGrid) -> tuple[GeodesicGrid, float]:
    """The grid of the edges of a ``build_grid`` grid that no two-edge
    detour beats, and the bound G up to which it keeps every distance;
    the grid itself and inf when no edge is beaten.

    Edge u -> v of weight w is dropped when a detour u -> m -> v of
    ``_detours`` with weights a and b has w > (a + b)(1 + mu), with mu
    ``_DETOUR_MARGIN``; its reverse is dropped with it, since a shared
    grid's two directions carry the same float and fl(a + b) = fl(b + a).
    G is (mu / (3.01 u) - 1) 2 w_min, with u = 2^-53 and w_min the
    lightest edge, so G <= (mu / (3.01 u) - 1)(a + b) for every detour.

    Lemma: every node distance D <= G, from any source row, is bit for
    bit the whole edge set's.  Floating addition is monotone, and for
    g <= G, (g + a + b)(1 + u)^2 <= (g + w)(1 - u), so
    fl(fl(g + a) + b) <= fl(g + w) (the 3.01 in place of 3 covers the
    rounding of the test and of G).  On an optimal path to a node at D,
    no prefix exceeds D; replacing a dropped edge by its detour keeps
    every prefix sum and the total at most D, and lowers the path's
    exact weight by more than mu (a + b), so replacing ends, on a path of
    kept edges; so, too, a node is reached on the kept edges when it is on
    every edge.  The kept edges are a subgraph, so their distances are no
    smaller.  Hence a value at most G is exact, and a pruned value is
    never low: one above G is searched again on every edge."""
    offsets, reach = _stencil(grid.domain.dimension)
    detours = _detours(grid.domain.dimension)
    if not detours:
        return grid, math.inf
    # the weights by (offset, cell) over the lattice padded by the reach,
    # cells flat and nan where no edge: each detour edge of a cell is then
    # a fixed flat shift away, and each padded extent exceeds 2 reach, so
    # an edge's offset is read off its flat step
    shape = grid._index_map.shape
    padded = [d + 2 * reach for d in shape]
    strides = np.array([math.prod(padded[i + 1:]) for i in range(len(shape))])
    cell = (np.argwhere(grid._index_map >= 0) + reach) @ strides
    at = np.repeat(cell, np.diff(grid.indptr))
    far = reach * int(strides.sum())
    lut = np.full(2 * far + 1, -1, dtype=np.int64)
    lut[offsets @ strides + far] = np.arange(offsets.shape[0])
    slot = lut[cell[grid.neighbours] - at + far]
    size = math.prod(padded)
    table = np.full(offsets.shape[0] * size, np.nan)
    table[slot * size + at] = grid.weights
    table = table.reshape(offsets.shape[0], size)

    # every cell of the lattice lies in [lo, hi)
    lo, hi = far, (np.array(shape) - 1 + reach) @ strides + 1
    dropped = np.zeros((offsets.shape[0], hi - lo), dtype=bool)
    detour = np.empty(hi - lo)
    beaten = np.empty(hi - lo, dtype=bool)
    for j, k1, at1, k2, at2 in detours:
        s1, s2 = int(np.dot(at1, strides)), int(np.dot(at2, strides))
        np.add(table[k1, lo + s1:hi + s1], table[k2, lo + s2:hi + s2], out=detour)
        detour *= 1.0 + _DETOUR_MARGIN
        # nan, where an edge is missing, beats nothing
        np.greater(table[j, lo:hi], detour, out=beaten)
        dropped[j] |= beaten
    keep = ~dropped.ravel()[slot * (hi - lo) + at - lo]
    if keep.all():
        return grid, math.inf
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    kept = dataclasses.replace(grid, indptr=kept_before[grid.indptr],
                               neighbours=grid.neighbours[keep], weights=grid.weights[keep])
    w_min = float(np.min(grid.weights))
    return kept, (_DETOUR_MARGIN / (3.01 * 2.0 ** -53) - 1.0) * 2.0 * w_min


def _lattice(domain: Domain, spacing: float, node_cap: int) -> GeodesicGrid:
    """The lattice of a pair-independent window, each edge once."""
    # the window ignores the pair, so any pair builds it
    origin = np.zeros(domain.dimension)
    return build_grid(domain, spacing, origin, origin, node_cap=node_cap)


@functools.lru_cache(maxsize=SHARED_GRIDS)
def _shared_grid(domain: Domain, spacing: float, node_cap: int) -> GeodesicGrid:
    """The shared lattice: its kept edges (``_pruned``) in both
    directions, with its bound G as ``exact_to``."""
    kept, exact_to = _pruned(_lattice(domain, spacing, node_cap))
    return dataclasses.replace(_both_directions(kept), exact_to=exact_to)


def _cell_span(dimension: int, spacing: float, widen: int) -> int:
    """Cells searched on each side of a query point's cell; ``widen`` 1
    is the wider second search."""
    _, reach = _stencil(dimension)
    r_aug = (reach + 1) * spacing
    return int(math.ceil(r_aug / spacing)) + 1 + widen * 4


def _cell_box(grid: GeodesicGrid, widen: int) -> np.ndarray:
    """Lattice offsets of the cells searched around a query point's cell,
    row-major and read-only; ``widen`` 1 is the wider second search."""
    return _box_offsets(grid.domain.dimension,
                        _cell_span(grid.domain.dimension, grid.spacing, widen))


@functools.cache
def _box_offsets(dimension: int, span: int) -> np.ndarray:
    axes = [np.arange(-span, span + 1)] * dimension
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dimension)
    box.flags.writeable = False
    return box


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
    chunk of sources, sorted by limit, is one Dijkstra call under the
    chunk's largest limit.  y_i is no node: its value is the least
    dist[c] + w over the nodes c it attaches to, and the direct x-y edge,
    which is the distance a sink node would get, bit for bit.  A value
    above its own limit may be cut short (even inf) and is returned as
    read; an unreached pair fails only under an inf limit.  An undirected
    grid serves one pair: its source's edges run both ways.
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
        n_src = pairs.size
        graph = sp.csr_matrix(
            (np.concatenate([grid.weights, w[on_x]]),
             np.concatenate([grid.neighbours, node[on_x]], dtype=np.int32),
             np.concatenate([grid.indptr, grid.indptr[-1]
                             + np.cumsum(np.bincount(x_row, minlength=n_src))])),
            shape=(n_nodes + n_src, n_nodes + n_src))
        # pairs are sorted by limit, so the last one's is the chunk's
        dist = dijkstra(graph, directed=grid.directed, indices=n_nodes + np.arange(n_src),
                        limit=float(limits[pairs[-1]]))
        best = values[pairs]
        np.minimum.at(best, y_row, dist[y_row, node[on_y]] + w[on_y])
        values[pairs] = best
    unreached = np.flatnonzero(~np.isfinite(values) & ~np.isfinite(limits))
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
    searches all live pairs on the shared grid when the domain shares
    grids, and otherwise each live pair on a lattice of its own, its lens
    under a finite limit.  Level l >= 1 stops each pair's search at its
    level l - 1 value times ``_LIMIT_MARGIN``; a value above its limit,
    or above a shared grid's ``exact_to``, or a lens with no node, is
    searched again without a limit on every edge of the whole window
    (the shared grid itself when it holds every edge, else the shared
    lattice built afresh, or the pair's whole window).
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

    def grid(pairs, lens=None, whole=False):
        # passed straight to one search, so no two per-query grids coexist;
        # ``whole`` asks for every edge of the whole window
        if not shared:
            return build_grid(domain, h, xs[pairs[0]], ys[pairs[0]], controls.node_cap, lens=lens)
        kept = _shared_grid(domain, h, controls.node_cap)
        if whole and kept.exact_to < math.inf:
            return _both_directions(_lattice(domain, h, controls.node_cap))
        return kept

    for level in range(controls.refinements + 1):
        if live.size == 0:
            break
        h = math.ldexp(controls.spacing, -level)
        for pairs in [live] if shared else live[:, None]:
            query = (xs[pairs], ys[pairs], dxs[pairs], dys[pairs])
            limit = limits[pairs]
            lens = (None if shared or np.isinf(limit[0])
                    else (dxs[pairs[0]], dys[pairs[0]], limit[0]))
            try:
                try:
                    vals, failed = _grid_values(grid(pairs, lens), *query, limit)
                except DisconnectedGridError:
                    if lens is None:
                        raise
                    vals, failed = np.full(1, np.inf), {}
                if shared:  # a kept-edge value above G counts as above its limit
                    limit = np.minimum(limit, _shared_grid(domain, h, controls.node_cap).exact_to)
                # a pair that failed to attach does so on every search
                again = [i for i in np.flatnonzero(vals > limit) if i not in failed]
                if again:
                    vals[again], more = _grid_values(grid(pairs, whole=True),
                                                     *(q[again] for q in query),
                                                     np.full(len(again), np.inf))
                    failed.update({int(again[i]): exc for i, exc in more.items()})
            except GridError as exc:
                failures.update(dict.fromkeys(pairs.tolist(), exc))
                continue
            failures.update({int(pairs[i]): exc for i, exc in failed.items()})
            values[pairs, level] = vals
            limits[pairs] = vals * _LIMIT_MARGIN
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
    (estimates usually lie above it) but monotonicity is not guaranteed
    and not asserted.
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

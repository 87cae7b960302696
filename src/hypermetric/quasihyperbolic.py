"""Quasihyperbolic distance k(x, y) = inf over curves of the 1/d(z) line
integral: exact where the domain knows it, and estimated by shortest
paths on a lattice graph.

Every built-in domain answers ``Domain.k_exact``:

* half-space: the density 1/x_n is the hyperbolic one, so k equals the
  half-space hyperbolic distance;
* punctured space: in log-polar coordinates the geodesic is a straight
  line, giving k = sqrt(theta^2 + log^2(|x|/|y|));
* interval: k = |Phi(y) - Phi(x)|, Phi the integral of 1/d from the
  midpoint;
* ball: Clairaut's relation for the radial density turns k into a 1-D
  shooting problem, solved to about 1e-11 relative error (``_k_ball``).

The consumers of k read it through ``k_many``: uniformity, C4_5, QHJ
and ``dist --metric k`` take ``k_exact`` where it is finite and run the
estimator on the other pairs only, so on a built-in domain they carry
no estimator error and build no lattice.  ``k_estimate``,
``k_estimate_many`` and the ``k-estimate`` CLI stay the estimator on
every domain: the closed forms are their oracles.  scipy is needed only
by the lattice estimator (``k-estimate``, and k on a ``GenericDomain``)
and is imported on its first search, so closed-form commands never load
it.  Every search runs on the pairs' ``Domain.fold``, which maps the
built-ins outside the plane into it with the same k: ball:n shares the
ball:2 grids, and every per-query lattice is 2-D.

Estimator construction, per refinement level (spacing halved each time):

* nodes: the global lattice (spacing h) in a query window, a box and a
  band of clearances (d_lo, d_hi) from ``Domain.geodesic_window``,
  keeping the points with clearance in [max(h/2, d_lo), d_hi];
* edges: the stencil (``_stencil``), the primitive integer offsets with
  max-norm <= r whose first nonzero coordinate is positive, r = 5 in 2-D
  and 1 elsewhere (a single 2-D ring leaves a direction-quantization
  error of several percent, far above the 1% target; r = 5 brings the
  worst-direction overhead sec(gap/2) - 1 to ~0.5%);
* weights: ``Domain.segment_integral`` for every edge, the integral of
  1/d along the straight segment: exact on the half-space and the
  punctured space, and Simpson's rule elsewhere (endpoint-only trapezoid
  carries ~1% error at the stencil's edge lengths near clearance 0.2);
* assembly, node-major over the kept nodes, in blocks of nodes: each
  node's stencil neighbours are one fixed flat step per offset away in
  the node index map padded by the reach.  Midpoint coordinates and
  squared steps vary along one axis each, so each node's row of them is
  read from small (cells on the axis, offsets) tables built once per
  axis; ``Domain.segment_integral`` weighs the block from those rows,
  the steps and the nodes' clearances (Simpson's rule reads the midpoint
  clearances in one ``Domain.clearance_grid`` call).  The block's (node,
  offset) table is in CSR order, so its kept entries are the CSR rows,
  written straight into outputs sized by the lattice edges; no edge
  gathers its endpoints' positions and no edge is scattered into its
  row.  Nodes are read off the axes at the window's
  cells, and no (cells, n) point matrix is formed;
* both query points are attached to every node within (reach+1)*h via
  the same segment integral (plus a direct x-y edge when they are that
  close), so endpoint handling adds no O(h * density) detour penalty.

Grid paths are admissible curves.  On the half-space and the punctured
space every edge weighs its exact integral (inf through the puncture),
so every estimate there is an upper bound on k, up to the rounding of a
path's sum.  Elsewhere estimates usually lie above k, but Simpson's rule
can fall below the integral: across the kink of 1 - |z| at the ball's
centre, the worst of 1000 diameter pairs through it read 1.9% below k
at spacing 0.1, so no enclosure is claimed there.  Each domain supplies
the search window (``Domain.geodesic_window``); those of the unbounded
domains provably contain the true geodesic.

Every grid path from a to b weighs at least ``Domain.path_floor(|a - b|,
d(a), d(b))``: j on every domain, because the clearance is 1-Lipschitz
and a Simpson or exact weight is at least the integral of 1/(d + t);
and k itself on the half-space and the punctured space (rho_H and the
log-polar k_P), whose weights are exact.  So every estimate is at least
j.

Every query goes through ``_grid_values``: x is a source-only row
appended to the grid's CSR adjacency (a shared grid keeps room for one
chunk's rows after its arrays and writes only those, a per-query grid
is copied with them appended), and y is no node; its value is the
least dist[c] + w(c, y) over the nodes c it attaches to, or the direct
x-y edge.  Dijkstra with non-negative weights returns the least
left-to-right sum over paths, so this is bit for bit the distance a
sink node for y would get.  Level l >= 1 stops its search at the level
l - 1 value times ``_LIMIT_MARGIN``, and level 0 of a per-query grid at
the pair's path floor times 1 + beta and ``_LIMIT_MARGIN``, with beta
the 2-D stencil's worst-direction overhead (``_overhead``: 0.49%).
Where the floor is k, that limit is at least (1 + beta) k; a weaker
floor, j on a domain that overrides ``geodesic_window`` alone, may put
it below the level-0 value.  Nodes within the limit are settled exactly
as without one, so a value within it is exact; the limit is a search
bound, not a claim.  One rule, in ``_histories``, covers the rest: a
value that comes back above its limit is searched once more, without a
limit, on the whole window, and a pair is unreached only when a search
without a limit misses it.

On a per-query grid, every level holds only the lens of its limit L:
the nodes z with floor(x, z) + floor(z, y) <= L (1 + 1e-9), plus those
within (reach + 1) h of either endpoint, the nodes ``_attach``'s first
pass reads; and its box is cropped to them.  A lens is built only when
that pass attaches both endpoints.  A node on an optimal path of
value V <= L has a floor sum of at most V, so it is kept; the float
Dijkstra fixed point does not depend on node numbering, so every value
within L is bit for bit the whole window's, and an endpoint attaches in
the lens exactly as on the whole window.  A lens that holds no node, as
when the first pass does not attach an endpoint, counts as a value
above L: by the one rule, its pair's value and any error are the whole
window's, and the node cap applies to the whole window.  The floors are
evaluated node by node only in the tiles of ``_TILE`` cells a side that
hold a window node and that a test at the tile's centre c keeps: each
floor from a fixed endpoint is 1-Lipschitz in k, and every cell of a
tile of radius rho < d(c) lies within k = log(d(c) / (d(c) - rho)) of
c, so a tile whose floor sum at c, less twice that, exceeds L holds no
node of the lens.  No (nodes, n) matrix of the window is formed.
Shared grids serve many pairs, so they get no lens, and their level 0
has no limit.

Every estimate comes from one driver, ``_histories``: ``k_estimate`` is
its one-pair case, ``k_estimate_many`` reads its last level, and
``k_many`` calls ``k_estimate_many`` on the pairs without a closed
form.  It reads
the endpoints' clearances once, and ``Domain.pair_window`` alone picks
each level's grid.  When the window does not depend on the query pair
(ball, interval, generic domains) one shared grid per level serves all
of a call's pairs, and the last ``SHARED_GRIDS``, keyed by (domain,
spacing, node cap), stay read-only in memory across calls; every domain
can key them (``GenericDomain`` hashes its dimension and box, not its
oracles).  A shared grid holds every *kept* edge in both
directions and is searched directed, a chunk of sources per Dijkstra
call: no path can pass through another pair's source row.  It drops,
once, as it fills the cache, each edge that a two-edge detour along the
stencil beats by a relative 1e-9 (``_pruned``; about two thirds of the
edges at spacing 0.1 on the disc, a quarter at 0.0125; none in 1-D or
3-D).  Every node distance up to its bound G = (1e-9 / (3.01 * 2^-53) -
1) * 2 w_min, with w_min its lightest edge, is bit for bit the whole
edge set's, and a pruned value is never low (the lemma is in
``_pruned``); so in the one rule a shared grid's whole window is its
kept edges, and only a value above G is searched once more, on every
edge of the lattice, built afresh (only an endpoint within about 3e-8
of the boundary reads above G).  Pair-dependent windows
(half-space, punctured space) build one grid per pair and level; it
holds each edge once, serves one undirected search, and nothing keeps it
afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domains import Domain, as_pairs, as_point

DEFAULT_NODE_CAP = 2_000_000

#: the stencil's reach in 2-D, where a single ring is too coarse (``_stencil``)
STENCIL_REACH_2D = 5

#: grids kept for pair-independent windows; a sweep of one domain at
#: two or three spacings reuses every one of them
SHARED_GRIDS = 4

#: level l >= 1 stops its search at the level l - 1 value times this
_LIMIT_MARGIN = 1.01

#: relative slack of the lens test, far above the rounding of a path's
#: weight sum and of the floors
_LENS_SLACK = 1e-9

#: cells on each side of a lens tile, whose floors are first bounded at
#: its centre
_TILE = 4

#: a shared grid drops an edge that a two-edge detour beats by this much
#: relative to the detour's weight, far above the rounding of its sum
_DETOUR_MARGIN = 1e-9

#: bounds on one chunk of pairs: float64 entries of its Dijkstra
#: distance block (2 MB), and lattice cells its endpoints search.  The
#: cell bound binds on the 2-D shared grids (36 pairs per chunk on
#: ball:2, which serve ball:n too, at spacing 0.1); the small chunks it
#: makes keep each chunk's one search limit close to its pairs' own
#: limits.  The consumers of k batch only on a domain without
#: ``k_exact`` (``GenericDomain``); ``k_estimate_many`` batches on any
_DIST_BLOCK = 1 << 18
_CELL_BLOCK = 1 << 14

#: nodes per block of ``build_grid``'s edge table: a block's (nodes,
#: offsets) arrays, 160 kB each in 2-D, stay in cache
_NODE_BLOCK = 1 << 9


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


class _SourceRows(NamedTuple):
    """A shared grid's CSR arrays at the heads of writable buffers, which
    have room after them for one chunk's source rows, and the lock of
    those tails."""

    weights: np.ndarray
    neighbours: np.ndarray
    indptr: np.ndarray
    lock: threading.Lock


@dataclass
class GeodesicGrid:
    """Lattice discretization of a domain window; its arrays are read-only.

    The edge set is a CSR adjacency: node u's edges are
    ``neighbours[indptr[u]:indptr[u+1]]`` with ``weights`` at the same
    positions.  Every weight is ``Domain.segment_integral`` of the
    straight segment between its endpoints: the 1/d line integral, exact
    on the half-space and the punctured space.  A grid
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
    # a shared grid's writable buffers, room for one chunk's source rows
    _source_rows: "_SourceRows | None" = field(default=None, repr=False, compare=False)

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


#: Gauss-Legendre nodes per leg of the ball's Clairaut integrals
_CLAIRAUT_NODES = 64

#: |s| bound of the ball's shooting parameter, far past every angle
#: that a double can tell from 0 or pi
_SHOOT_BOUND = 600.0

#: a shooting residual below this is converged: it moves k by less than
#: 1e-12 k, and the residual's own rounding is about 1e-14
_SHOOT_TOLERANCE = 1e-12

#: a cap on the shooting steps; bisection alone would need about 70
_SHOOT_STEPS = 100


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, built on
    first use: Newton steps on P_n from Tricomi's first guesses
    cos(pi (i - 1/4) / (n + 1/2)), and w = 2 / ((1 - x^2) P_n'(x)^2), within
    1e-13 of the exact weights.  (numpy's ``leggauss`` calls LAPACK's
    eigensolver, whose first use holds about 1 MB more memory.)"""
    n = _CLAIRAUT_NODES
    nodes = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))

    def legendre(x):
        # P_n(x) and P_n'(x) by the three-term recurrence
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    for _ in range(5):
        p, dp = legendre(nodes)
        nodes = nodes - p / dp
    _, dp = legendre(nodes)
    weights = 2.0 / ((1.0 - nodes * nodes) * dp * dp)
    for a in (nodes, weights):
        a.flags.writeable = False
    return nodes, weights


def _clairaut(s, r_m, d_m, r_M, length=False):
    """The angle swept between radii r_m <= r_M (clearances d = 1 - r) by
    the ball's geodesic that leaves the point at radius r_m at the angle
    psi = pi / (1 + e^-s) to the outward radius; with ``length`` also its
    k-length.  See ``_k_ball``."""
    a = math.pi / (1.0 + np.exp(np.abs(s)))       # min(psi, pi - psi)
    sin_a = np.sin(a)
    c = r_m / d_m * sin_a                           # Clairaut's constant
    r_c = c / (1.0 + c)
    one_rc = 1.0 / (1.0 + c)
    sh2_m = d_m * np.cos(a) ** 2 / (sin_a * (1.0 + sin_a))     # sinh^2 U_m
    sh2_M = sh2_m + (r_M - r_m) / r_c
    u_m, u_M = np.arcsinh(np.sqrt(sh2_m)), np.arcsinh(np.sqrt(sh2_M))
    perigee = s >= 0.0
    # the two legs as panels [lo, hi] in u: [U_m, U_M] and an empty one on
    # the monotone branch, [0, U_M] and [0, U_m] on the perigee branch
    lo = np.concatenate([np.where(perigee, 0.0, u_m), np.zeros_like(u_m)])
    hi = np.concatenate([u_M, np.where(perigee, u_m, 0.0)])
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    sh = np.sinh(0.5 * (hi + lo)[:, None] + half[:, None] * nodes)
    sh2 = sh * sh
    ch = np.sqrt(1.0 + sh2)
    rc, one_rc2 = np.tile(r_c, 2)[:, None], np.tile(one_rc, 2)[:, None]
    rsh2 = rc * sh2                                 # r - r_c
    one_r = one_rc2 - rsh2                          # 1 - r
    q = np.sqrt(2.0 * one_r + sh2)
    m = s.size
    # einsum sums row by row, so a pair's value does not depend on its batch
    angle = 2.0 * half * np.einsum("ij,j->i", one_r / (ch * q), weights)
    angle = angle[:m] + angle[m:]
    if not length:
        return angle
    rest = 2.0 * half * np.einsum(
        "ij,j->i", rc * rc * ch * one_r / (q * ((rc + rsh2) * one_rc2 + rc * sh * q)), weights)
    radial = np.where(perigee, np.log1p(r_c * sh2_m / d_m) + np.log1p(r_c * sh2_M / (1.0 - r_M)),
                      np.log1p((r_M - r_m) / (1.0 - r_M)))
    return radial + rest[:m] + rest[m:]


def _k_ball(r_x, r_y, theta) -> np.ndarray:
    """k of the unit ball between points at radii r_x, r_y whose angle at
    the origin is theta, vectorized over pairs.

    The density 1 / (1 - |z|) is radial, so (folding about the axis
    through x) k in R^n is k in the plane through 0, x and y.  Write
    g(r) = r / (1 - r).  Along a geodesic, Clairaut's relation keeps
    g(r) sin(alpha) = C, alpha the angle to the radius, so a geodesic
    either runs monotonically in r or has one perigee at r_c = C / (1 + C),
    where g(r_c) = C.  With r = r_c cosh^2 u and Q = sqrt(cosh^2 u + 1 - 2r)
    the angle it sweeps is the integral of 2 (1 - r) / (cosh u Q) du, and
    its k-length that of 2 r (1 - r_c) cosh u / ((1 - r) Q) du; each leg
    runs from 0 to U, the U of its endpoint, and a pair takes the U_M leg
    less the U_m leg (one panel [U_m, U_M]) on the monotone branch, their
    sum on the perigee branch, m for the smaller radius.  The k-length is
    taken as its radial part, log((1 - r_c) / (1 - r)) per leg, in closed
    form, plus the rest, 2 r_c^2 cosh u (1 - r) / (Q (r (1 - r_c) +
    r_c sinh u Q)), which has no pole at the boundary and no
    cancellation; 1 - r_c = 1 / (1 + C) and r - r_c = r_c sinh^2 u are
    formed directly.  Each panel is one 64-node Gauss-Legendre rule.

    The geodesic is shot from the point at the smaller radius at the
    angle psi = pi / (1 + e^-s) to its outward radius, so psi < pi / 2
    (s < 0) is the monotone branch and psi > pi / 2 the perigee branch,
    and a safeguarded secant step solves logit(angle / pi) = logit(theta /
    pi) in s.  The swept angle never decreases with psi.
    log(1 / (1 - |z|)) is convex, so the plane with k has curvature <= 0
    in Alexandrov's sense (-1 / r away from the origin); complete and
    simply connected, it is a CAT(0) space, whose geodesics are unique.
    A geodesic from x meets the circle of radius r_M once (at x itself
    when r_M = r_m and psi <= pi / 2), and two directions that met it at
    the same angle > 0 would give two geodesics to one point; so the
    angle is continuous and, where positive, injective, hence monotone in
    psi, from 0 (radial) to pi (through the origin).  A test checks it
    densely as well.  Its logit grows like s at both ends, and the first
    guess is the direction of the hyperbolic geodesic, so the secant
    steps settle in about six evaluations.

    theta = 0, a point at the origin and theta = pi have the closed forms
    k = log((1 - r_m) / (1 - r_M)) and -log(1 - r_m) - log(1 - r_M)
    (Martin, Trans. AMS 292, 1985).  Where the shooting underflows, at
    radii or angles below about 1e-150, the first of these stands."""
    r_m, r_M = np.minimum(r_x, r_y), np.maximum(r_x, r_y)
    d_m, d_M = 1.0 - r_m, 1.0 - r_M
    k = np.where(theta >= math.pi, -np.log1p(-r_m) - np.log1p(-r_M),
                 np.log1p((r_M - r_m) / d_M))
    todo = np.flatnonzero((theta > 0.0) & (theta < math.pi) & (r_m > 0.0))
    if todo.size == 0:
        return k
    theta, r_m, d_m, r_M = theta[todo], r_m[todo], d_m[todo], r_M[todo]
    target = np.log(theta / (math.pi - theta))
    # the first guess: the direction at the smaller radius of the ball's
    # hyperbolic geodesic, the circle through x, y and x / |x|^2, whose
    # density 2 / (1 - r^2) is 1 / (1 - r) times a factor in [1, 2)
    psi = np.arctan2(r_M * np.sin(theta) * (1.0 - r_m * r_m),
                     r_M * np.cos(theta) * (1.0 + r_m * r_m) - r_m * (1.0 + r_M * r_M))
    with np.errstate(divide="ignore"):
        s = np.clip(np.log(psi / (math.pi - psi)), -_SHOOT_BOUND, _SHOOT_BOUND)
    lo, hi = np.full(s.size, -_SHOOT_BOUND), np.full(s.size, _SHOOT_BOUND)
    live = np.arange(s.size)
    last = None
    # an angle of 0 (equal radii, monotone branch) or pi reads as -inf or
    # inf, and what underflows is caught at the end
    with np.errstate(all="ignore"):
        for _ in range(_SHOOT_STEPS):
            if live.size == 0:
                break
            at = s[live]
            angle = _clairaut(at, r_m[live], d_m[live], r_M[live])
            g = np.log(angle / np.maximum(math.pi - angle, 0.0)) - target[live]
            lo[live] = np.where(g < 0.0, at, lo[live])
            hi[live] = np.where(g > 0.0, at, hi[live])
            # a secant step, the first with slope 1, else halve the bracket
            nxt = at - (g if last is None else g * (at - last[0]) / (g - last[1]))
            nxt = np.where((nxt > lo[live]) & (nxt < hi[live]), nxt, 0.5 * (lo[live] + hi[live]))
            settled = np.abs(g) <= _SHOOT_TOLERANCE
            done = settled | (np.abs(nxt - at) <= 4e-16 * np.maximum(1.0, np.abs(at)))
            s[live] = np.where(settled, at, nxt)
            last = (at[~done], g[~done])
            live = live[~done]
        shot = _clairaut(s, r_m, d_m, r_M, length=True)
    k[todo] = np.where(np.isfinite(shot), shot, k[todo])
    return k


# ---------------------------------------------------------------------------
# stencil
# ---------------------------------------------------------------------------


@functools.cache
def _stencil(dimension: int) -> tuple[np.ndarray, int]:
    """The primitive lattice offsets with max-norm <= reach whose first
    nonzero coordinate is positive (one per undirected edge direction),
    in lexicographic order and read-only, and the reach:
    ``STENCIL_REACH_2D`` in 2-D, 1 elsewhere."""
    reach = STENCIL_REACH_2D if dimension == 2 else 1
    # gcd 0 rules out the zero offset before its first nonzero is sought
    offsets = np.array([o for o in itertools.product(range(-reach, reach + 1), repeat=dimension)
                        if math.gcd(*o) == 1 and next(c for c in o if c) > 0], dtype=np.int64)
    offsets.flags.writeable = False
    return offsets, reach


@functools.cache
def _overhead() -> float:
    """beta, the most by which the shortest path along 2-D stencil
    directions exceeds the straight segment, relative to its length:
    sec(g / 2) - 1, for g the widest gap between adjacent directions."""
    offsets, _ = _stencil(2)
    angles = np.sort(np.arctan2(offsets[:, 1], offsets[:, 0]))
    gap = float(np.max(np.diff(angles, append=angles[0] + math.pi)))
    return 1.0 / math.cos(0.5 * gap) - 1.0


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def _box_text(lo: np.ndarray, hi: np.ndarray) -> str:
    return " x ".join(f"[{float(a)!r}, {float(b)!r}]" for a, b in zip(lo, hi))


def _floor_from(domain: Domain, h: float, p: np.ndarray, dp, near: np.ndarray,
                d_near: np.ndarray):
    """The domain's path floor from the query point p, a lower bound on
    every grid path from p to a node, as a function of the node's
    coordinates (arrays, one per axis, that broadcast together) and
    clearance, or None when ``_attach``'s first pass does not attach p;
    and which of the ``near`` nodes, those of p's first attach box with
    clearances ``d_near``, lie within (reach + 1) h of p.  The first pass
    attaches p when one of those nodes gives a segment of finite weight
    (``Domain.segment_integral``), and the floor covers every path from
    p, its attach edge included."""
    gap = np.linalg.norm(near - p, axis=1)
    read = gap <= (STENCIL_REACH_2D + 1) * h
    w = domain.segment_integral((0.5 * (p + near[read])).T, gap[read], dp, d_near[read])
    if not np.any(np.isfinite(w)):
        return None, read

    def floor(coords, dz):
        # |z - p| axis by axis: several times faster than norm(axis=1) on
        # n-wide rows, and summed in its order, so bit for bit its value
        sep = np.sqrt(functools.reduce(np.add, [(c - q) * (c - q) for c, q in zip(coords, p)]))
        return domain.path_floor(sep, dp, dz)

    return floor, read


def _lens(domain: Domain, h: float, x: np.ndarray, y: np.ndarray, lens,
          starts: np.ndarray, axes: list[np.ndarray], clear: np.ndarray,
          window: np.ndarray) -> np.ndarray:
    """Which cells of the window hold a node that a grid path from x to y
    of weight at most the limit can pass through, or a node within
    (reach + 1) h of either endpoint, the nodes ``_attach``'s first pass
    reads; none when that pass does not attach an endpoint
    (``_floor_from``).  ``lens`` is (d(x), d(y), limit), ``axes`` the
    lattice coordinates, and ``clear`` and ``window`` the clearance and
    the window's nodes by cell.

    The floor sum F is evaluated cell by cell only in the tiles of
    ``_TILE`` cells a side that hold a window node and that a test at
    the tile's centre c keeps.
    Every cell z of the tile lies within rho of c, so when d(c) > rho
    it lies in the ball B(c, d(c)) inside the domain, and
    k(c, z) <= log(d(c) / (d(c) - rho)) along the segment.  Each floor
    from a fixed endpoint is 1-Lipschitz in k (``Domain.path_floor``), so
    F(z) >= F(c) - 2 log(d(c) / (d(c) - rho)), and a tile where that
    exceeds the lens bound, with a relative guard for rounding, holds no
    cell the lens keeps."""
    dx, dy, limit = lens
    span = _cell_span(2, 0)
    boxes, floors = [], []
    for p, dp in ((x, dx), (y, dy)):
        cell = np.round(p / h).astype(np.int64) - starts
        box = tuple(slice(min(max(c - span, 0), d), max(min(c + span + 1, d), 0))
                    for c, d in zip(cell, window.shape))
        near = window[box]
        points = np.stack([ax[s][i] for ax, s, i in zip(axes, box, np.nonzero(near))], axis=1)
        floor, read = _floor_from(domain, h, p, dp, points, clear[box][near])
        if floor is None:
            return np.zeros(window.shape, dtype=bool)
        floors.append(floor)
        boxes.append((box, near, read))
    bound = limit * (1.0 + _LENS_SLACK)

    def floor_sum(coords, dz):
        return floors[0](coords, dz) + floors[1](coords, dz)

    # the tiles that hold a window node (an any over each tile of the
    # window padded to whole tiles), their centres and their radius,
    # widened past the rounding of the coordinates
    tiles = [-(-d // _TILE) for d in window.shape]
    padded = np.zeros([t * _TILE for t in tiles], dtype=bool)
    padded[tuple(slice(d) for d in window.shape)] = window
    occupied = padded.reshape(tiles[0], _TILE, tiles[1], _TILE).any(axis=(1, 3))
    held = np.nonzero(occupied)
    centres = [(t * _TILE + (s + 0.5 * (_TILE - 1))) * h for t, s in zip(held, starts)]
    rho = 0.5 * (_TILE - 1) * h * math.sqrt(2) * (1.0 + _LENS_SLACK)
    d_centre = domain.clearance_grid(centres)
    inner = d_centre > rho
    dc = d_centre[inner]
    k_tile = np.log(dc / (dc - rho))
    low = floor_sum([c[inner] for c in centres], dc)
    test = np.ones(d_centre.shape, dtype=bool)
    test[inner] = low * (1.0 - _LENS_SLACK) - 2.0 * k_tile * (1.0 + _LENS_SLACK) <= bound
    live = np.zeros(occupied.shape, dtype=bool)
    live[held] = test
    live = live.repeat(_TILE, axis=0).repeat(_TILE, axis=1)
    cells = np.nonzero(window & live[tuple(slice(d) for d in window.shape)])
    keep = np.zeros(window.shape, dtype=bool)
    keep[cells] = floor_sum([ax[c] for ax, c in zip(axes, cells)], clear[cells]) <= bound
    # _attach reads the same nodes as on the whole window
    for box, near, read in boxes:
        keep[box][near] |= read
    return keep


def build_grid(domain: Domain, spacing: float, x, y,
               node_cap: int = DEFAULT_NODE_CAP, lens=None) -> GeodesicGrid:
    """Lattice graph over the query window of a domain: the lattice
    points of ``Domain.geodesic_window``'s box whose clearance lies in
    its band [max(h / 2, d_lo), d_hi], at spacing h.

    ``lens`` = (d(x), d(y), limit) keeps only the nodes that a grid path
    from x to y of weight at most the limit can pass through, and those
    near either endpoint, and crops the lattice box to them; the node cap
    applies to the whole window all the same.
    """
    x = as_point(x, domain.dimension)
    y = as_point(y, domain.dimension)
    h = float(spacing)
    offsets, reach = _stencil(domain.dimension)
    lo, hi, (d_lo, d_hi) = domain.geodesic_window(x, y, (reach + 2) * h)
    box = _box_text(lo, hi)

    # the first and last cell on each axis, counted exactly in integers
    # before any cast; a spacing so fine that they overflow counts as inf
    with np.errstate(over="ignore"):
        starts, stops = np.ceil(lo / h - 1e-9), np.floor(hi / h + 1e-9)
    if np.any(stops < starts):
        raise DisconnectedGridError(
            f"empty lattice window for {domain.spec_string()} at spacing {h}"
        )
    raw = (math.prod(int(b) - int(a) + 1 for a, b in zip(starts, stops))
           if np.all(np.isfinite([starts, stops])) else math.inf)
    if raw > 8 * node_cap:
        raise NodeBudgetError(
            f"lattice window {box} at spacing {h} holds {raw} cells "
            f"(cap {node_cap}); increase spacing or the node cap"
        )
    if np.max(np.abs([starts, stops])) >= 2.0**52:
        raise GridError(f"lattice window {box} at spacing {h} needs cell indices of 2^52 "
                        "or more, where the nodes' coordinates cannot resolve the spacing")

    starts, stops = starts.astype(np.int64), stops.astype(np.int64)
    axes = [np.arange(a, b + 1) * h for a, b in zip(starts, stops)]
    clear = domain.clearance_grid(np.ix_(*axes))
    mask = (clear >= max(0.5 * h, d_lo)) & (clear <= d_hi)
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

    if lens is not None:
        keep = _lens(domain, h, x, y, lens, starts, axes, clear, mask)
        kept = np.nonzero(keep)
        if kept[0].size == 0:
            raise DisconnectedGridError(f"no grid nodes in the lens at spacing {h}")
        # crop the box to the kept nodes
        crop = tuple(slice(int(k.min()), int(k.max()) + 1) for k in kept)
        starts = starts + [c.start for c in crop]
        axes = [ax[c] for ax, c in zip(axes, crop)]
        clear = clear[crop]
        mask = keep[crop]
        n_valid = int(np.count_nonzero(mask))
    shape = mask.shape

    # node indices by cell, padded by the reach: each stencil neighbour of
    # a node is then one fixed flat step away, and -1 where it is no node
    padded = tuple(d + 2 * reach for d in shape)
    index_pad = np.full(padded, -1, dtype=np.int32)
    index_nd = index_pad[tuple(slice(reach, reach + d) for d in shape)]
    index_nd[mask] = np.arange(n_valid, dtype=np.int32)
    flat_index = index_pad.ravel()
    strides = [math.prod(padded[i + 1:]) for i in range(len(shape))]
    steps = offsets @ strides
    cells = np.nonzero(mask)
    at = functools.reduce(np.add, [(c + reach) * s for c, s in zip(cells, strides)])
    nodes = np.stack([ax[c] for ax, c in zip(axes, cells)], axis=1)
    node_clear = clear[mask]
    # d by node, and 1.0 at index -1 for a neighbour that is no node
    padded_clear = np.append(node_clear, 1.0)

    # per axis, (cells, offsets) tables of the midpoint coordinate and the
    # squared step along it, from the axis padded by the reach and formed
    # as the window's axes are, so the same bits
    mids, steps_sq = [], []
    for axis, (start, d) in enumerate(zip(starts, shape)):
        coord = np.arange(start - reach, start + d + reach) * h
        u = coord[reach:reach + d, None]
        v = coord[np.arange(reach, reach + d)[:, None] + offsets[:, axis]]
        mids.append(0.5 * (u + v))
        steps_sq.append((u - v) * (u - v))

    # the edge table (node, offset) is in CSR order: rows by node, offsets
    # in stencil order within a row.  Its neighbour column is found first,
    # so the outputs are sized by the lattice edges and each block of nodes
    # writes its kept entries straight into them; only a midpoint outside
    # the domain leaves their tail unused
    blocks = [slice(b, min(b + _NODE_BLOCK, n_valid)) for b in range(0, n_valid, _NODE_BLOCK)]
    nbr = np.empty((n_valid, offsets.shape[0]), dtype=np.int32)
    for block in blocks:
        nbr[block] = flat_index[at[block, None] + steps]
    size = int(np.count_nonzero(nbr >= 0))
    neighbours = np.empty(size, dtype=np.int32)
    weights = np.empty(size)
    counts = np.zeros(n_valid + 1, dtype=np.int64)
    end = 0
    for block in blocks:
        near = nbr[block]
        rows = [c[block] for c in cells]
        length = steps_sq[0][rows[0]]
        for q, r in zip(steps_sq[1:], rows[1:]):
            length += q[r]
        w = domain.segment_integral([m[r] for m, r in zip(mids, rows)],
                                    np.sqrt(length, out=length), padded_clear[block, None],
                                    padded_clear[near])
        has = np.isfinite(w) & (near >= 0)
        count = int(np.count_nonzero(has))
        neighbours[end:end + count] = near[has]
        weights[end:end + count] = w[has]
        end += count
        counts[block.start + 1:block.stop + 1] = np.count_nonzero(has, axis=1)
    neighbours, weights = neighbours[:end], weights[:end]
    indptr = np.cumsum(counts)
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
    import scipy.sparse as sp

    n = grid.nodes.shape[0]
    half = sp.csr_matrix((grid.weights, grid.neighbours, grid.indptr), shape=(n, n))
    both = half + half.T
    for a in (both.indptr, both.indices, both.data):
        a.flags.writeable = False
    return dataclasses.replace(grid, indptr=both.indptr, neighbours=both.indices,
                               weights=both.data, directed=True)


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
    size = math.prod(padded)
    # each edge's flat (offset, cell) index, formed in place: a few arrays
    # of one entry per edge are the peak of a shared grid's build
    where = cell[grid.neighbours]
    where -= at
    where += far
    where = lut[where]
    where *= size
    where += at
    del at
    table = np.full(offsets.shape[0] * size, np.nan)
    table[where] = grid.weights
    table = table.reshape(offsets.shape[0], size)

    # every cell of the lattice lies in [lo, hi)
    lo, hi = far, (np.array(shape) - 1 + reach) @ strides + 1
    dropped = np.zeros((offsets.shape[0], size), dtype=bool)
    detour = np.empty(hi - lo)
    beaten = np.empty(hi - lo, dtype=bool)
    for j, k1, at1, k2, at2 in detours:
        s1, s2 = int(np.dot(at1, strides)), int(np.dot(at2, strides))
        np.add(table[k1, lo + s1:hi + s1], table[k2, lo + s2:hi + s2], out=detour)
        detour *= 1.0 + _DETOUR_MARGIN
        # nan, where an edge is missing, beats nothing
        np.greater(table[j, lo:hi], detour, out=beaten)
        dropped[j, lo:hi] |= beaten
    del table
    keep = ~dropped.ravel()[where]
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
    """The shared lattice of a pair-independent window: its kept edges
    (``_pruned``) in both directions, with its bound G as ``exact_to``,
    its CSR arrays read-only views of the heads of buffers with room for
    one chunk's source rows.  Every domain hashes (see ``Domain``), so
    each (domain, spacing, node cap) is built once and serves every call
    until the cache drops it."""
    grid, exact_to = _pruned(_lattice(domain, spacing, node_cap))
    # rebound, so that the one-direction arrays are freed before the copies
    grid = _both_directions(grid)
    # a source attaches to at most the cells of its box, and only near the
    # boundary to those of the wider box, when the chunk is copied instead.
    # The room is at most the grid's own size: scipy copies a view of less
    # than half its buffer
    rows = min(_chunk_size(grid), grid.indptr.size)
    edges = min(rows * len(_cell_box(grid.domain.dimension, 0)), grid.weights.size)
    buffers = {}
    for name, extra in (("weights", edges), ("neighbours", edges), ("indptr", rows)):
        head = getattr(grid, name)
        buffers[name] = np.empty(head.size + extra, dtype=head.dtype)
        buffers[name][:head.size] = head
        head = buffers[name][:head.size]
        head.flags.writeable = False
        # each array is freed as soon as its copy replaces it
        grid = dataclasses.replace(grid, **{name: head})
    return dataclasses.replace(grid, exact_to=exact_to,
                               _source_rows=_SourceRows(**buffers, lock=threading.Lock()))


def _cell_span(dimension: int, widen: int) -> int:
    """Cells searched on each side of a query point's cell; ``widen`` 1
    is the wider second search.  The point lies within half a cell of its
    cell, so reach + 2 cells hold every node within (reach + 1) h."""
    _, reach = _stencil(dimension)
    return reach + 2 + widen * 4


@functools.cache
def _cell_box(dimension: int, widen: int) -> np.ndarray:
    """Lattice offsets of the cells searched around a query point's cell,
    row-major and read-only; ``widen`` 1 is the wider second search."""
    span = _cell_span(dimension, widen)
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
        at = cells[pending, None, :] + _cell_box(domain.dimension, widen)
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
        w = domain.segment_integral((0.5 * (p[near] + pos[near])).T, dist[near],
                                    dps[pending[owner]], grid.clearances[cand])
        ok = np.isfinite(w)
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
                      _CELL_BLOCK // (2 * len(_cell_box(grid.domain.dimension, 0)))))


# scipy's Dijkstra, imported on the first call.  It stays a name in this
# module's globals, which the search reads and the tracer and tests patch.
def dijkstra(*args, **kwargs):
    from scipy.sparse.csgraph import dijkstra as search

    return search(*args, **kwargs)


@contextlib.contextmanager
def _with_sources(grid: GeodesicGrid, x_row: np.ndarray, node: np.ndarray, w: np.ndarray,
                  n_src: int):
    """The grid's adjacency with ``n_src`` source rows after its own, row
    i holding the edges to ``node`` of weight ``w`` where ``x_row`` is i.
    A shared grid writes only those rows, into the tails of its buffers,
    under their lock; another grid, or a shared one whose tails are busy,
    gets a fresh copy of its arrays with the rows appended."""
    import scipy.sparse as sp

    n, e = grid.nodes.shape[0], grid.weights.size
    shape = (n + n_src, n + n_src)
    ends = e + np.cumsum(np.bincount(x_row, minlength=n_src))
    rows = grid._source_rows
    if (rows is not None and e + node.size <= rows.weights.size
            and n + 1 + n_src <= rows.indptr.size and rows.lock.acquire(blocking=False)):
        try:
            rows.weights[e:e + node.size] = w
            rows.neighbours[e:e + node.size] = node
            rows.indptr[n + 1:n + 1 + n_src] = ends
            yield sp.csr_matrix((rows.weights[:e + node.size], rows.neighbours[:e + node.size],
                                 rows.indptr[:n + 1 + n_src]), shape=shape)
        finally:
            rows.lock.release()
        return
    yield sp.csr_matrix((np.concatenate([grid.weights, w]),
                         np.concatenate([grid.neighbours, node], dtype=np.int32),
                         np.concatenate([grid.indptr, ends])), shape=shape)


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
        w = grid.domain.segment_integral((0.5 * (xs[direct] + ys[direct])).T,
                                         np.linalg.norm(d[direct], axis=1), dxs[direct],
                                         dys[direct])
        values[direct] = w
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
        # pairs are sorted by limit, so the last one's is the chunk's
        with _with_sources(grid, x_row, node[on_x], w[on_x], n_src) as graph:
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
    the failure of the lowest-index pair that fails: a point outside the
    domain or a pair its fold refuses (``ValueError``), or a grid error;
    and ``ValueError`` for a per-pair window outside the plane.

    The pairs are folded once (``Domain.fold``); one clearance read of
    the endpoints, and one of their fold, serves every level.  A level
    searches all live pairs on the level's shared grid, from the
    ``_shared_grid`` cache keyed by the domain, when the window does not
    depend on the pair (``Domain.pair_window`` is false), and otherwise
    each live pair on a lattice of its own, its lens under its limit.
    Level 0 on a per-query lattice stops its search at the pair's path
    floor times 1 + beta (``_overhead``) and ``_LIMIT_MARGIN``, and level
    l >= 1 at its level l - 1 value times ``_LIMIT_MARGIN``.  A value
    above its limit, or a lens with no node, is searched again without a
    limit on the whole window (a shared grid's kept edges), and a
    shared-grid value above its ``exact_to``, once more on every edge of
    the shared lattice, built afresh.
    """
    m = xs.shape[0]
    d = domain.clearance_many(np.concatenate([xs, ys]))
    inside = (d[:m] > 0.0) & (d[m:] > 0.0)
    try:
        # a pair with a point outside is folded as (x, x), which no fold refuses
        plane, fxs, fys = domain.fold(xs, np.where(inside[:, None], ys, xs))
    except ValueError:
        if m == 1:
            raise
        # the fold refuses a pair that no curve joins: each pair alone
        return np.concatenate([_histories(domain, xs[i:i + 1], ys[i:i + 1], controls)
                               for i in range(m)])
    if plane.pair_window and plane.dimension != 2:
        raise ValueError(f"{plane.spec_string()}: a per-pair window is searched only in 2-D")
    if plane is not domain:
        d = plane.clearance_many(np.concatenate([fxs, fys]))
    domain, xs, ys = plane, fxs, fys
    dxs, dys = d[:m], d[m:]
    values = np.zeros((m, controls.refinements + 1))
    # a folded point keeps its clearance up to rounding
    inside &= (dxs > 0.0) & (dys > 0.0)
    failures = {int(i): ValueError("both query points must lie inside the domain")
                for i in np.flatnonzero(~inside)}
    live = np.flatnonzero(inside & np.any(xs != ys, axis=1))
    limits = np.full(m, np.inf)
    shared = not domain.pair_window
    if not shared:
        # a search bound, not a claim: a value above it is searched again;
        # where the floor is k, it is at least (1 + beta) k, the stencil's
        # worst direction
        limits[live] = _LIMIT_MARGIN * (1.0 + _overhead()) * domain.path_floor(
            np.linalg.norm(xs[live] - ys[live], axis=1), dxs[live], dys[live])

    def grid(pairs, lens=None, every=False):
        # passed straight to one search, so no two per-query grids coexist;
        # ``every`` asks for the shared lattice with every edge
        if not shared:
            return build_grid(domain, h, xs[pairs[0]], ys[pairs[0]], controls.node_cap, lens=lens)
        if every:
            return _both_directions(_lattice(domain, h, controls.node_cap))
        return _shared_grid(domain, h, controls.node_cap)

    def search_again(pairs, query, vals, failed, above, every=False):
        # a pair that failed to attach does so on every search
        again = [i for i in np.flatnonzero(above) if i not in failed]
        if again:
            vals[again], more = _grid_values(grid(pairs, every=every),
                                             *(q[again] for q in query),
                                             np.full(len(again), np.inf))
            failed.update({int(again[i]): exc for i, exc in more.items()})

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
                # the kept edges give every value up to G exactly, so a
                # limit at or above G leaves a value above it to every edge
                exact_to = grid(pairs).exact_to if shared else math.inf
                search_again(pairs, query, vals, failed, (vals > limit) & (limit < exact_to))
                search_again(pairs, query, vals, failed, vals > exact_to, every=True)
            except (GridError, ValueError) as exc:
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

    On the half-space and the punctured space every value is an upper
    bound on k, up to rounding: the grid path is a curve, and each edge
    weighs its exact integral.  Elsewhere values usually lie above k.  The
    refinement history usually decreases toward the true value, but
    monotonicity is not guaranteed and not asserted.
    """
    x = as_point(x, domain.dimension)
    y = as_point(y, domain.dimension)
    controls = KControls(initial_spacing, refinements, node_cap)
    values = _histories(domain, x[None], y[None], controls)[0]
    history = [(math.ldexp(controls.spacing, -level), float(v))
               for level, v in enumerate(values)]
    return KEstimate(history[-1][1], history[-1][0], history)


def k_many(domain: Domain, xs: np.ndarray, ys: np.ndarray,
           controls: KControls) -> tuple[np.ndarray, str]:
    """k of each pair, as the consumers of k read it: ``Domain.k_exact``
    where it is finite, ``k_estimate_many`` at ``controls`` on the other
    pairs only; and the source read, "exact", "estimate" or "mixed"."""
    xs, ys = as_pairs(xs, ys, domain.dimension)
    k = domain.k_exact(xs, ys)
    rest = np.flatnonzero(np.isnan(k))
    if rest.size:
        k[rest] = k_estimate_many(domain, xs[rest], ys[rest], controls)
    source = "estimate" if rest.size == k.size else "exact" if rest.size == 0 else "mixed"
    return k, source


def k_estimate_many(domain: Domain, xs: np.ndarray, ys: np.ndarray,
                    controls: KControls) -> np.ndarray:
    """Final-level estimates for an array of pairs, each equal to its
    ``k_estimate``; a failure is the one the first failing pair raises
    on its own."""
    xs, ys = as_pairs(xs, ys, domain.dimension)
    return _histories(domain, xs, ys, controls)[:, -1]

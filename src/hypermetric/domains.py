"""Open subsets of R^n and the geometry the metrics read from them.

A domain answers one query, the signed clearance: d(x) = dist(x,
boundary) inside and a value <= 0 at every point outside the open set,
so membership is d > 0, never a second query.  A domain writes it once,
either as ``clearance_grid``, at the points whose coordinates are arrays
that broadcast together (``np.ix_(*axes)`` for a product lattice, the
columns for rows), or as ``clearance_many`` on points as rows; the base
class gives the other form from it.  The closed forms write the first,
``GenericDomain`` the second:

* ``UnitBall(n)``        interior {|x| < 1},      d(x) = 1 - |x|
* ``HalfSpace(n)``       interior {x_n > 0},      d(x) = x_n
* ``PuncturedSpace(n)``  interior R^n minus {0},  d(x) = |x|
* ``Interval(a, b)``     interior (a, b),         d(x) = min(x-a, b-x)
* ``GenericDomain``      caller-supplied oracles (1-Lipschitz clearance
                         is a *tested* requirement, not an assumption)

Samplers and the estimator ask seven geometry methods, whose base-class
forms are the generic answers: ``boundary_sample`` (points at small
clearance; base: the uniform law), ``chord_reach`` (base: none, so no
collinear stratum), ``fold``, k queries mapped into the plane (base:
the identity), ``geodesic_window``, a box and a band of clearances
(base: the sample box and every clearance), ``segment_integral``, the
weight of a straight edge (base: Simpson's rule; exact on the half-space
and the punctured space), ``path_floor`` (base: j) and
``complement_sample`` (base: none).  The flags follow the
overrides: ``boundary_strata`` is true where a domain overrides
``chord_reach``, and samplers then draw its boundary-edge and collinear
strata; ``pair_window`` where it overrides ``geodesic_window`` (the
half-space and the punctured space size the window from the pair), and
the estimator then builds a lattice per query instead of sharing one.
``k_exact`` gives the quasihyperbolic distance k where a closed form is
known, NaN elsewhere: every built-in answers it (the ball by Clairaut
shooting, see ``quasihyperbolic._k_ball``; across the puncture of
``punctured:1`` it raises, and so does the fold),
``GenericDomain`` does not.  Domains are immutable, hashable values; no
meshes; all operations are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Default clearance used by samplers.  Keeps 1/sqrt(d(x) d(y)) finite in
#: double precision while still exercising near-boundary behaviour.
DEFAULT_MIN_CLEARANCE = 1e-6

_MAX_REJECTION_ROUNDS = 200


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or coordinate sequence to a finite 1-D float array."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-D coordinate vector, got shape {p.shape}")
    if p.size < 1:
        raise ValueError("a point needs at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite (no NaN/inf)")
    if dim is not None and p.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim} coordinates, got {p.size}")
    return p


def as_points(xs, dim: int) -> np.ndarray:
    """Coerce to an (N, dim) float array of finite coordinates."""
    a = np.asarray(xs, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, dim) if dim == 1 else a[None, :]
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got array shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite (no NaN/inf)")
    return a


#: the normal finite range of a float64
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max

#: a punctured-space segment whose d_a + d_b - length is at most this
#: share of d_a + d_b reads as one through 0 (``segment_integral``)
_THROUGH = 4.0 * np.finfo(float).eps


def _dot(a, b) -> np.ndarray:
    """sum_k a_k b_k of the coordinate arrays ``a`` and ``b``, which
    broadcast together (rows are passed as their columns, ``rows.T``),
    the products added in axis order.

    Reading columns avoids numpy's inner loop over each row, 3x slower at
    2 or 3 coordinates.  Below 8 coordinates ``np.sum(a * b, axis=1)`` and
    ``np.linalg.norm`` add a row's terms in this order too, so the values
    are theirs bit for bit (numpy's sum starts from +0, so a sum of -0
    terms reads +0 there and -0 here)."""
    terms = map(np.multiply, a, b)
    acc = next(terms)
    for t in terms:
        # in place where the shapes allow: a third array of the rows' size
        # costs more here than the addition
        if t.shape == acc.shape:
            acc += t
        else:
            acc = acc + t
    return acc


def _norm(axes) -> np.ndarray:
    """|x| at the points whose coordinates are the arrays ``axes``, which
    broadcast together (rows are passed as their columns, ``rows.T``):
    the square root of ``_dot(axes, axes)``.  Where that sum of squares
    is not a normal double (it underflowed, overflowed or is 0), the
    coordinates are divided by their largest magnitude first; every other
    point keeps its bits."""
    try:
        # an overflow raises, so the common case checks one minimum
        with np.errstate(over="raise", under="ignore"):
            q2 = _dot(axes, axes)
        overflow = False
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            q2 = _dot(axes, axes)
        overflow = True
    q = np.sqrt(q2)
    if overflow or (q2.size and not q2.min() >= _TINY):
        odd = q2 < _TINY
        if overflow:
            odd |= q2 > _HUGE
        at = np.flatnonzero(odd)
        cols = [np.broadcast_to(c, q2.shape).flat[at] for c in axes]
        m = functools.reduce(np.maximum, map(np.abs, cols))
        s = [c / np.where(m > 0.0, m, 1.0) for c in cols]
        q = np.asarray(q)  # a 0-d point reads a scalar
        q.flat[at] = m * np.sqrt(_dot(s, s))
    return q


def unit_directions(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` seeded unit vectors in R^n (random signs when n == 1)."""
    if n == 1:
        return np.where(rng.random(m) < 0.5, -1.0, 1.0).reshape(-1, 1)
    v = rng.normal(size=(m, n))
    return v / _norm(v.T)[:, None]


class _Columns(list):
    """The columns of rows that ``as_points`` has already validated."""


def _grid_axes(axes, dim: int) -> list[np.ndarray]:
    """The coordinate arrays of ``clearance_grid``, as float arrays; the
    columns of the row front are taken as they are, checked once."""
    if isinstance(axes, _Columns):
        return axes
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != dim:
        raise ValueError(f"expected {dim} coordinate axes, got {len(axes)}")
    if not all(np.all(np.isfinite(a)) for a in axes):
        raise ValueError("point coordinates must be finite (no NaN/inf)")
    return axes


def _radius_grid(axes, dim: int) -> np.ndarray:
    """|x| at the points of the broadcast coordinate arrays ``axes``, by
    the rule of ``_norm``."""
    return _norm(_grid_axes(axes, dim))


def _radii_and_angle(xs: np.ndarray, ys: np.ndarray):
    """|x|, |y|, the angle between x and y and log(|x| / |y|) of paired
    rows, the angle as 2 atan2(| |y| x - |x| y |, | |y| x + |x| y |),
    accurate near 0 and pi (the angle and the log 0 where either point is
    the origin).  A pair with a subnormal radius, which carries only a few
    digits, is first divided by its largest coordinate magnitude (other
    pairs by 1, exactly).  Where the product of the radii is then not a
    normal double or is within a factor 2 of overflow, so that |y| x would
    underflow or |y| x + |x| y overflow, x / |x| and y / |y| stand in for
    |y| x and |x| y."""
    rx, ry = _norm(xs.T), _norm(ys.T)
    both = (rx > 0.0) & (ry > 0.0)
    m = np.where(both & (np.minimum(rx, ry) < _TINY),
                 np.max(np.abs(np.concatenate([xs, ys], axis=1)), axis=1), 1.0)[:, None]
    xs, ys = xs / m, ys / m
    sx, sy = _norm(xs.T), _norm(ys.T)
    with np.errstate(over="ignore"):
        p = sx * sy
        u, v = sy[:, None] * xs, sx[:, None] * ys
    odd = ~((p >= _TINY) & (p <= 0.5 * _HUGE)) & both
    if np.any(odd):
        u[odd], v[odd] = xs[odd] / sx[odd, None], ys[odd] / sy[odd, None]
    theta = 2.0 * np.arctan2(_norm((u - v).T), _norm((u + v).T))
    return rx, ry, theta, np.log(np.divide(sx, sy, out=np.ones_like(sx), where=both))


def _radial_fold(domain: "Domain", xs: np.ndarray, ys: np.ndarray):
    """``Domain.fold`` where the clearance reads |z| alone: outside the
    plane, x to (|x|, 0) and y to |y| (cos theta, sin theta), a rotation."""
    if domain.dimension == 2:
        return domain, xs, ys
    rx, ry, theta, _ = _radii_and_angle(xs, ys)
    return (type(domain)(2), np.stack([rx, 0.0 * rx], axis=1),
            ry[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1))


def as_pairs(xs, ys, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coerce paired rows (x_i, y_i) to two (N, dim) arrays of finite
    coordinates, as many ys as xs."""
    xs = as_points(xs, dim)
    ys = as_points(ys, dim)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"pairs need as many ys as xs, got {xs.shape[0]} xs "
                         f"and {ys.shape[0]} ys")
    return xs, ys


def _interior_pairs(domain: "Domain", xs, ys):
    """Paired rows of a k query and their clearances; raises when a point
    lies outside the domain."""
    xs, ys = as_pairs(xs, ys, domain.dimension)
    d = domain.clearance_many(np.concatenate([xs, ys]))
    if not np.all(d > 0.0):
        raise ValueError("both query points must lie inside the domain")
    m = xs.shape[0]
    return xs, ys, d[:m], d[m:]


def _log_uniform(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=m)


class Domain:
    """Base class: an open set D in R^n with a signed clearance function.

    A domain must be hashable, equal domains hashing equal: the estimator
    keys its cache of shared lattices on the domain
    (``quasihyperbolic._shared_grid``)."""

    dimension: int

    @property
    def boundary_strata(self) -> bool:
        """Samplers draw boundary-edge pairs and collinear triples: true
        where the domain overrides ``chord_reach``."""
        return type(self).chord_reach is not Domain.chord_reach

    @property
    def pair_window(self) -> bool:
        """The estimator builds one grid per pair, not one per spacing for
        every pair: true where the domain overrides ``geodesic_window``."""
        return type(self).geodesic_window is not Domain.geodesic_window

    # -- vector API ---------------------------------------------------

    def clearance_many(self, xs: np.ndarray) -> np.ndarray:
        """Signed clearance of each row: dist(x, boundary) inside, <= 0 at
        every point outside the open set.  The base form validates the
        rows and reads their columns through ``clearance_grid``."""
        if type(self).clearance_grid is Domain.clearance_grid:
            raise NotImplementedError(f"{type(self).__name__} defines no clearance")
        return self.clearance_grid(_Columns(as_points(xs, self.dimension).T))

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        return self.clearance_many(xs) > 0.0

    def clearance_grid(self, axes) -> np.ndarray:
        """The signed clearance at the points whose coordinates are the
        arrays ``axes``, one per axis, which broadcast together (the
        product lattice of 1-D axes is ``np.ix_(*axes)``), shaped as their
        broadcast.  The closed-form domains write their formula here;
        the base form stacks the points as rows for ``clearance_many``."""
        coords = np.broadcast_arrays(*_grid_axes(axes, self.dimension))
        return self.clearance_many(np.stack([c.ravel() for c in coords], axis=1)).reshape(
            coords[0].shape)

    def k_exact(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The quasihyperbolic distance k of each pair of rows (x_i, y_i)
        where a closed form is known, NaN where none is.  The base form
        knows none; a domain that overrides it raises for a point outside.
        The consumers of k (uniformity, C4_5, QHJ and ``dist --metric k``)
        run the lattice estimator only on the NaN pairs."""
        xs, _ = as_pairs(xs, ys, self.dimension)
        return np.full(xs.shape[0], np.nan)

    # -- geometry used by samplers and the estimator ------------------

    def boundary_sample(self, m: int, rng: np.random.Generator,
                        lo: float, hi: float) -> np.ndarray:
        """``m`` points with clearance log-uniform in [lo, hi]; without a
        boundary parametrization, uniform interior points with clearance
        >= lo (the clearances are still drawn, keeping the stream order)."""
        _log_uniform(rng, m, lo, hi)
        return sample_interior(self, m, rng, min_clearance=lo)

    def chord_reach(self, z: np.ndarray, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Largest step t >= 0 with clearance(z + t u) >= delta (capped)."""
        raise ValueError(f"no collinear stratum for {self.spec_string()}")

    def geodesic_window(self, x: np.ndarray, y: np.ndarray, pad: float):
        """Axis box (lo, hi) holding the geodesics from x to y, and a band
        (d_lo, d_hi) of clearances they keep to; ``pad`` is the stencil's
        reach in length.  The lattice keeps the nodes of the box whose
        clearance lies in [max(h / 2, d_lo), d_hi] at spacing h.

        The base form is the sample box and the band (0, inf), the same
        for every pair; an override sizes the window from x and y (so
        ``pair_window`` is true), and may raise ``ValueError`` for a pair
        that no curve in it joins, which the estimator reports as that
        pair's failure."""
        lo, hi = self.sample_box()
        return lo, hi, (0.0, math.inf)

    def fold(self, xs: np.ndarray, ys: np.ndarray):
        """(plane, xs2, ys2): a domain and paired rows in it with the k of
        each pair (x_i, y_i), which the estimator searches instead; the
        identity here.  It may raise ``ValueError`` for a pair no curve joins."""
        return self, xs, ys

    def segment_integral(self, mid, length, d_a, d_b):
        """The estimator's weight of straight segments, the integral of 1/d
        along each or an approximation of it, and inf where the segment is
        not known to stay inside.  ``mid`` holds the midpoints' coordinates,
        one array per axis (``clearance_grid``'s form), ``length`` the
        lengths and d_a, d_b the end clearances; all broadcast together.

        The base form is Simpson's rule length / 6 (1/d_a + 4/d(mid) +
        1/d_b), and inf where the midpoint lies outside.  It is formed in
        place, each step a commutative IEEE operation, so the terms' order
        does not move a bit."""
        dm = self.clearance_grid(mid)
        ok = dm > 0.0
        w = np.where(ok, dm, 1.0)
        np.divide(4.0, w, out=w)
        w += 1.0 / d_a
        w += 1.0 / d_b
        w *= length / 6.0
        w[~ok] = np.inf
        return w

    def path_floor(self, sep, d_a, d_b):
        """A lower bound on the estimator's weight of every polyline
        between two points at separation ``sep`` with clearances d_a, d_b.

        The base form is j.  A polyline that has run a length s from a
        reaches clearance at most d_a + s (the clearance is 1-Lipschitz),
        and a Simpson weight overestimates the integral of 1/(d_a + s + t),
        whose fourth derivative is positive, as an exact weight is at least
        it; so the polyline weighs at least log(1 + |a - b| / d_a), and by
        symmetry at least j.

        An override must keep the floor from a fixed point a 1-Lipschitz
        function of the other point in k: |floor(a, z) - floor(a, c)| <=
        k(z, c).  The estimator's lens relies on it to bound the floor over
        a tile of lattice cells from its centre.  j is a metric and j <= k
        (Gehring and Osgood 1979), so the base form has it, and k itself
        has it, the floor of the half-space and the punctured space."""
        from .metrics import j_kernel

        return j_kernel(sep, d_a, d_b)

    def complement_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Seeded points outside the domain, one per row."""
        raise ValueError(f"cannot sample the complement of {self.spec_string()}")

    # -- sampling support ---------------------------------------------

    def sample_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box used for rejection sampling (artifact choice
        for unbounded variants)."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec_string()!r})"


@dataclass(frozen=True, repr=False)
class UnitBall(Domain):
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_grid(self, axes):
        return 1.0 - _radius_grid(axes, self.dimension)

    def k_exact(self, xs, ys):
        # Clairaut's relation for the radial density 1 / (1 - |z|), in
        # the plane through 0, x and y
        from .quasihyperbolic import _k_ball

        xs, ys, _, _ = _interior_pairs(self, xs, ys)
        return _k_ball(*_radii_and_angle(xs, ys)[:3])

    def fold(self, xs, ys):
        return (self, xs, ys) if self.dimension == 1 else _radial_fold(self, xs, ys)

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        return (1.0 - delta)[:, None] * unit_directions(self.dimension, m, rng)

    def chord_reach(self, z, u, delta):
        target = np.maximum(1.0 - delta, 1e-12)
        zu = _dot(z.T, u.T)
        z2 = _dot(z.T, z.T)
        disc = np.maximum(zu * zu + target * target - z2, 0.0)
        return np.maximum(-zu + np.sqrt(disc), 0.0)

    def complement_sample(self, count, rng):
        dirs = rng.normal(size=(count, self.dimension))
        dirs /= _norm(dirs.T)[:, None]
        return dirs * rng.uniform(1.0, 2.0, size=(count, 1))

    def sample_box(self):
        n = self.dimension
        return -np.ones(n), np.ones(n)

    def spec_string(self):
        return f"ball:{self.dimension}"


@dataclass(frozen=True, repr=False)
class HalfSpace(Domain):
    dimension: int

    #: rejection box extent: last coordinate in (0, 4], others in [-2, 2]
    _SIDE = 2.0
    _HEIGHT = 4.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_grid(self, axes):
        axes = _grid_axes(axes, self.dimension)
        return np.broadcast_to(axes[-1], np.broadcast_shapes(*(a.shape for a in axes))).copy()

    def k_exact(self, xs, ys):
        # the density 1 / x_n is the hyperbolic one: k is rho_H
        from .metrics import rho_halfspace_many

        xs, ys, _, _ = _interior_pairs(self, xs, ys)
        return rho_halfspace_many(xs, ys)

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        pts = _box_rows(rng, *self.sample_box(), m)
        pts[:, -1] = delta
        return pts

    def chord_reach(self, z, u, delta):
        un = u[:, -1]
        zn = z[:, -1]
        cap = np.full(zn.shape, self._HEIGHT)
        down = un < -1e-12
        t = np.where(down, (zn - delta) / np.where(down, -un, 1.0), cap)
        return np.clip(t, 0.0, self._HEIGHT)

    def fold(self, xs, ys):
        # outside the plane: x' moved to 0, and y' - x' turned onto the first axis
        if self.dimension == 2:
            return self, xs, ys
        side = np.linalg.norm(ys[:, :-1] - xs[:, :-1], axis=1)
        return HalfSpace(2), np.stack([0.0 * side, xs[:, -1]], 1), np.stack([side, ys[:, -1]], 1)

    def geodesic_window(self, x, y, pad):
        # sized from the circular-arc geodesic through the endpoints
        xn, yn = x[-1], y[-1]
        s_h = float(np.linalg.norm(x[:-1] - y[:-1]))
        if s_h < 1e-12:
            apex = max(xn, yn)
        else:
            u = (s_h * s_h + yn * yn - xn * xn) / (2.0 * s_h)
            apex = math.hypot(u, xn) if 0.0 <= u <= s_h else max(xn, yn)
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        side_pad = pad + 0.1 * max(s_h, apex)
        lo[:-1] -= side_pad
        hi[:-1] += side_pad
        lo[-1] = 0.4 * min(xn, yn)
        hi[-1] = 1.2 * apex + pad
        return lo, hi, (0.0, math.inf)

    def segment_integral(self, mid, length, d_a, d_b):
        # the clearance is affine along a segment, so the integral of 1/d is
        # length log(hi / lo) / (hi - lo) = length / lo log1p(r) / r with
        # r = (hi - lo) / lo, and length / lo at r = 0; measured within
        # 2.2e-16 of 50-digit values on 550 seeded segments
        # (tests/test_segment_integral.py)
        lo = np.minimum(d_a, d_b)
        r = (np.maximum(d_a, d_b) - lo) / lo
        with np.errstate(invalid="ignore"):
            return length / lo * np.where(r > 0.0, np.log1p(r) / r, 1.0)

    def path_floor(self, sep, d_a, d_b):
        # every edge weighs its exact hyperbolic length: the floor is rho_H
        from .metrics import rho_halfspace_kernel

        return rho_halfspace_kernel(sep * sep, d_a, d_b)

    def complement_sample(self, count, rng):
        pts = rng.uniform(-2.0, 2.0, size=(count, self.dimension))
        pts[:, -1] = -rng.uniform(0.0, 2.0, size=count)
        return pts

    def sample_box(self):
        n = self.dimension
        lo = np.full(n, -self._SIDE)
        hi = np.full(n, self._SIDE)
        lo[-1] = 0.0
        hi[-1] = self._HEIGHT
        return lo, hi

    def spec_string(self):
        return f"halfspace:{self.dimension}"


@dataclass(frozen=True, repr=False)
class PuncturedSpace(Domain):
    dimension: int

    _SIDE = 2.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_grid(self, axes):
        return _radius_grid(axes, self.dimension)

    def _require_joined(self, xs, ys):
        """Raises for a pair across the puncture of the line, which no
        curve joins."""
        if self.dimension == 1 and np.any((xs < 0.0) != (ys < 0.0)):
            raise ValueError("no curve joins a pair across the puncture of punctured:1: its two "
                             "components (-inf, 0) and (0, inf) are disjoint half-lines")

    def k_exact(self, xs, ys):
        # in log-polar coordinates the geodesic is a straight line
        xs, ys, _, _ = _interior_pairs(self, xs, ys)
        self._require_joined(xs, ys)
        _, _, theta, log_ratio = _radii_and_angle(xs, ys)
        return np.hypot(theta, log_ratio)

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        return delta[:, None] * unit_directions(self.dimension, m, rng)

    def chord_reach(self, z, u, delta):
        return np.full(z.shape[0], 2.5)

    def fold(self, xs, ys):
        self._require_joined(xs, ys)
        return _radial_fold(self, xs, ys)

    def geodesic_window(self, x, y, pad):
        # log-polar geodesics stay between half the smaller and twice the
        # larger query radius, and the clearance is the radius
        rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        r_lo, r_hi = 0.5 * min(rx, ry), 2.0 * max(rx, ry)
        return np.full(self.dimension, -r_hi), np.full(self.dimension, r_hi), (r_lo, r_hi)

    def segment_integral(self, mid, length, d_a, d_b):
        """The exact integral of 1/|z| along segments, from their lengths
        l and end radii alone.

        For a segment at distance p from 0, with its ends at t_a and
        t_b = t_a + l from the foot of the perpendicular, the integral is
        asinh(t_b / p) - asinh(t_a / p) = log((t_b + d_b) / (t_a + d_a)).
        By t_a = ((d_b^2 - d_a^2) / l - l) / 2 that ratio is (e + 2 l) / e,
        e = d_a + d_b - l, so the weight is log1p(2 l / e): symmetric, with
        no p and no cancellation in t + d.  e is formed with one rounding.
        Measured within 2.2e-16 of 50-digit values on 700 seeded segments,
        radial ones and ones passing 0 at 1e-6 of their ends' radius among
        them (tests/test_segment_integral.py).  The segment meets 0 where
        e = 0; the weight is inf where e <= 4 eps (d_a + d_b), below which
        the inputs' own rounding cannot tell it from one through 0."""
        # e = (s - l) + (small - (s - big)) for s = d_a + d_b, in place, as a
        # block of the lattice's edges is the largest call
        shape = np.broadcast(length, d_a, d_b).shape
        s = np.add(d_a, d_b, out=np.empty(shape))
        e = np.maximum(d_a, d_b, out=np.empty(shape))
        np.subtract(s, e, out=e)
        np.subtract(np.minimum(d_a, d_b), e, out=e)
        e += s - length
        through = e <= _THROUGH * s
        e[through] = 1.0
        w = np.multiply(2.0, length, out=s)
        w /= e
        np.log1p(w, out=w)
        w[through] = np.inf
        return w

    def path_floor(self, sep, d_a, d_b):
        """k_P = sqrt(theta^2 + log^2(d_a / d_b)), the exact k: every edge
        weighs its exact integral, so a grid path weighs at least k.
        theta is read off the triangle (0, a, b) by the half-angle form
        sin^2(theta / 2) = (sep - d_a + d_b)(sep + d_a - d_b) / (4 d_a d_b),
        which stays accurate near theta = 0."""
        half = (sep - d_a + d_b) * (sep + d_a - d_b) / (4.0 * d_a * d_b)
        theta = 2.0 * np.arcsin(np.sqrt(np.clip(half, 0.0, 1.0)))
        return np.hypot(theta, np.log(d_a / d_b))

    def complement_sample(self, count, rng):
        # the complement is the single puncture
        return np.zeros((1, self.dimension))

    def sample_box(self):
        n = self.dimension
        return np.full(n, -self._SIDE), np.full(n, self._SIDE)

    def spec_string(self):
        return f"punctured:{self.dimension}"


@dataclass(frozen=True, repr=False)
class Interval(Domain):
    """Open interval (a, b) as a 1-dimensional domain."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")

    @property
    def dimension(self) -> int:
        return 1

    def clearance_grid(self, axes):
        (t,) = _grid_axes(axes, 1)
        return np.minimum(t - self.a, self.b - t)

    def k_exact(self, xs, ys):
        # k = |Phi(y) - Phi(x)| with Phi(t) = log((t - a) / (m - a)) for
        # t <= m = (a + b) / 2 and -log((b - t) / (b - m)) for t >= m: a
        # sum of two logs across m, log(d_far / d_near) on one side, where
        # the difference of the clearances is the separation
        xs, ys, dx, dy = _interior_pairs(self, xs, ys)
        m = 0.5 * (self.a + self.b)
        lo, hi = np.minimum(xs[:, 0], ys[:, 0]), np.maximum(xs[:, 0], ys[:, 0])
        across = np.log((m - self.a) / (lo - self.a)) + np.log((self.b - m) / (self.b - hi))
        return np.where((lo <= m) & (hi >= m), across,
                        np.log1p(np.abs(dx - dy) / np.minimum(dx, dy)))

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        side = rng.random(m) < 0.5
        return np.where(side, self.a + delta, self.b - delta).reshape(-1, 1)

    def chord_reach(self, z, u, delta):
        t_up = self.b - delta - z[:, 0]
        t_dn = z[:, 0] - (self.a + delta)
        return np.maximum(np.where(u[:, 0] > 0, t_up, t_dn), 0.0)

    def complement_sample(self, count, rng):
        offs = rng.uniform(0.0, self.b - self.a, size=count)
        side = rng.random(count) < 0.5
        return np.where(side, self.a - offs, self.b + offs).reshape(-1, 1)

    def sample_box(self):
        return np.array([self.a]), np.array([self.b])

    def spec_string(self):
        # the short form where it parses back to the same endpoint
        return "interval:" + ":".join(f"{v:g}" if float(f"{v:g}") == v else repr(float(v))
                                      for v in (self.a, self.b))


@dataclass(frozen=True, repr=False)
class GenericDomain(Domain):
    """Domain defined by caller oracles.

    ``distance_fn`` maps an (N, n) array to clearances and must be
    1-Lipschitz (checked by :func:`lipschitz_defect`, not assumed);
    ``membership_fn`` maps an (N, n) array to booleans.  ``clearance_many``
    folds the two into the signed clearance: the distance where the
    membership oracle says inside, -|distance| elsewhere, so every point
    outside reads <= 0.  ``box`` bounds the region used by samplers and
    grid builders.  No boundary parametrization, no collinear stratum.

    Equality compares every field, but the hash reads only
    ``(dimension, box)``, the fields that fix the domain's lattices, so
    the oracles need not be hashable.
    """

    dimension: int
    distance_fn: Callable[[np.ndarray], np.ndarray]
    membership_fn: Callable[[np.ndarray], np.ndarray]
    box: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self):
        try:
            lo, hi = (tuple(map(float, row)) for row in self.box)
        except (TypeError, ValueError):
            lo = hi = ()
        if not (self.dimension >= 1 and len(lo) == len(hi) == self.dimension
                and all(-math.inf < a < b < math.inf for a, b in zip(lo, hi))):
            raise ValueError(f"box {self.box!r} must be two rows (lo, hi) of {self.dimension} "
                             "finite coordinates, lo < hi in each, with dimension >= 1")
        object.__setattr__(self, "box", (lo, hi))

    def __hash__(self):
        return hash((self.dimension, self.box))

    def clearance_many(self, xs):
        xs = as_points(xs, self.dimension)
        d = np.asarray(self.distance_fn(xs), dtype=float)
        if d.shape != (xs.shape[0],):
            raise ValueError("distance oracle must return one value per point")
        inside = np.asarray(self.membership_fn(xs), dtype=bool)
        if inside.shape != d.shape:
            raise ValueError("membership oracle must return one value per point")
        return np.where(inside, d, -np.abs(d))

    def sample_box(self):
        lo, hi = self.box
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def spec_string(self):
        return f"generic:{self.dimension}"


# ---------------------------------------------------------------------------
# Point sets in the complement (generalized clearance d_{D,A})
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSet:
    """Nonempty finite set of points lying outside an open domain."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("PointSet needs a nonempty (m, n) array of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("PointSet coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def outside(cls, domain: Domain, points) -> "PointSet":
        """Build a PointSet, verifying every member lies outside ``domain``."""
        pts = as_points(points, domain.dimension)
        if pts.shape[0] < 1:
            raise ValueError("PointSet must be nonempty")
        inside = domain.contains_many(pts)
        if np.any(inside):
            bad = pts[np.argmax(inside)]
            raise ValueError(f"point {bad.tolist()} lies inside the domain")
        return cls(pts)


def distance_to_set_many(xs: np.ndarray, point_set: PointSet) -> np.ndarray:
    """min over a in A of |x - a| for each row."""
    pts = point_set.points
    xs = as_points(xs, pts.shape[1])
    return np.min(_norm([x[:, None] - a for x, a in zip(xs.T, pts.T)]), axis=1)


# ---------------------------------------------------------------------------
# Seeded interior sampling
# ---------------------------------------------------------------------------


def _box_rows(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, rows: int) -> np.ndarray:
    """``rng.uniform(lo, hi, size=(rows, lo.size))``: the same doubles,
    lo + (hi - lo) u, from the same draws, scaled column by column instead
    of in numpy's loop over each row; the same error for a range that is
    not finite."""
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.all(np.isfinite(span)):
        raise OverflowError("Range exceeds valid bounds")
    out = rng.random((rows, lo.size))
    for col, s, a in zip(out.T, span, lo):
        col *= s
        col += a
    return out


def sample_interior(
    domain: Domain,
    count: int,
    seed: int | np.random.Generator,
    min_clearance: float = DEFAULT_MIN_CLEARANCE,
) -> np.ndarray:
    """Deterministic rejection sample of ``count`` interior points.

    Points are uniform over the domain's sample box, filtered to
    clearance >= ``min_clearance``.  The same (domain, count, seed,
    min_clearance) always yields the same array; a ``Generator`` seed is
    drawn from in place, continuing its stream.  Each batch draws
    max(1024, twice the points still missing) candidates; a clearance the
    box cannot reach fails after ``_MAX_REJECTION_ROUNDS`` batches in a row
    that accept no point.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not min_clearance > 0.0:
        raise ValueError("min_clearance must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = domain.sample_box()
    parts = []
    have = misses = 0
    while have < count:
        batch = max(1024, 2 * (count - have))
        cand = _box_rows(rng, lo, hi, batch)
        take = np.flatnonzero(domain.clearance_many(cand) >= min_clearance)[: count - have]
        parts.append(np.take(cand, take, axis=0))
        have += take.size
        misses = 0 if take.size else misses + 1
        if misses == _MAX_REJECTION_ROUNDS:
            raise ValueError(
                f"could not reach clearance {min_clearance} in {domain.spec_string()}; "
                "clearance is likely infeasible for the sample box"
            )
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sample_complement(domain: Domain, count: int, seed: int) -> PointSet:
    """Seeded points outside a domain (``Domain.complement_sample``), used
    to exercise the generalized clearance d_{D,A}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return PointSet.outside(domain, domain.complement_sample(count, np.random.default_rng(seed)))


def lipschitz_defect(domain: Domain) -> float:
    """Max of |d(x) - d(y)| - |x - y| over 2000 seeded interior pairs at
    clearance >= 1e-9.

    Nonpositive (up to rounding) iff the clearance function is
    1-Lipschitz on the sample.  Intended for validating GenericDomain
    oracles as well as the built-ins.
    """
    xs = sample_interior(domain, 2000, 0, 1e-9)
    ys = sample_interior(domain, 2000, 1, 1e-9)
    dx = domain.clearance_many(xs)
    dy = domain.clearance_many(ys)
    gap = np.abs(dx - dy) - _norm((xs - ys).T)
    return float(np.max(gap))


# ---------------------------------------------------------------------------
# Domain spec strings (shared with the CLI)
# ---------------------------------------------------------------------------


def parse_domain(spec: str) -> Domain:
    """Parse "ball:2", "halfspace:3", "punctured:2" or "interval:0:1"."""
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "ball" and len(parts) == 2:
            return UnitBall(int(parts[1]))
        if kind == "halfspace" and len(parts) == 2:
            return HalfSpace(int(parts[1]))
        if kind == "punctured" and len(parts) == 2:
            return PuncturedSpace(int(parts[1]))
        if kind == "interval" and len(parts) == 3:
            return Interval(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad domain spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown domain spec {spec!r} "
        "(expected ball:N, halfspace:N, punctured:N or interval:A:B)"
    )

"""Open subsets of R^n and the geometry the metrics read from them.

A domain answers one query, the signed clearance ``clearance_many``:
d(x) = dist(x, boundary) inside and a value <= 0 at every point outside
the open set, so membership is d > 0, never a second query.  The
built-in variants give it in closed form:

* ``UnitBall(n)``        interior {|x| < 1},      d(x) = 1 - |x|
* ``HalfSpace(n)``       interior {x_n > 0},      d(x) = x_n
* ``PuncturedSpace(n)``  interior R^n minus {0},  d(x) = |x|
* ``Interval(a, b)``     interior (a, b),         d(x) = min(x-a, b-x)
* ``GenericDomain``      caller-supplied oracles (1-Lipschitz clearance
                         is a *tested* requirement, not an assumption)

Samplers and the estimator ask four geometry methods, whose base-class
forms are the generic answers: ``boundary_sample`` (points at small
clearance; base: the uniform law), ``chord_reach`` (base: none, so no
collinear stratum), ``geodesic_window`` (base: the sample box) and
``complement_sample`` (base: none).  ``boundary_strata`` declares
whether a domain has the first two, so samplers draw its boundary-edge
and collinear strata, and ``pair_window`` whether its geodesic window
depends on the query pair:
the half-space and the punctured space size it from the pair, the ball,
the interval and ``GenericDomain`` use one box for every pair, so the
estimator shares one lattice across their queries.  Domains are
immutable values; no meshes; all operations are pure and safe to call
concurrently.
"""

from __future__ import annotations

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


def unit_directions(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` seeded unit vectors in R^n (random signs when n == 1)."""
    if n == 1:
        return np.where(rng.random(m) < 0.5, -1.0, 1.0).reshape(-1, 1)
    v = rng.normal(size=(m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _log_uniform(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=m)


class Domain:
    """Base class: an open set D in R^n with a signed clearance function."""

    dimension: int

    #: ``boundary_sample`` parametrizes the boundary (else: uniform law)
    #: and ``chord_reach`` is defined, so samplers draw boundary-edge pairs
    #: and collinear triples
    boundary_strata = False
    #: ``geodesic_window`` depends on the query pair (else one window, and
    #: so one lattice per spacing, serves every pair)
    pair_window = False

    # -- scalar API ---------------------------------------------------

    def contains(self, x) -> bool:
        """True iff x lies in the open interior."""
        p = as_point(x, self.dimension)
        return bool(self.contains_many(p[None, :])[0])

    def boundary_distance(self, x) -> float:
        """Distance from an interior point to the boundary (> 0)."""
        p = as_point(x, self.dimension)
        d = float(self.clearance_many(p[None, :])[0])
        if not d > 0.0:
            raise ValueError(f"point {p.tolist()} is not inside {self.spec_string()}")
        return d

    # -- vector API ---------------------------------------------------

    def clearance_many(self, xs: np.ndarray) -> np.ndarray:
        """Signed clearance of each row: dist(x, boundary) inside, <= 0 at
        every point outside the open set."""
        raise NotImplementedError

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        return self.clearance_many(xs) > 0.0

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
        """Axis box (lo, hi) holding the geodesics from x to y, plus an
        optional extra node mask; ``pad`` is the stencil's reach in length.

        The base form is the sample box, the same for every pair; a
        domain that sizes the window from x and y sets ``pair_window``."""
        lo, hi = self.sample_box()
        return lo, hi, None

    def complement_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Seeded points outside the domain, one per row."""
        raise ValueError(f"cannot sample the complement of {self.spec_string()}")

    # -- sampling support ---------------------------------------------

    def sample_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box used for rejection sampling (artifact choice
        for unbounded variants)."""
        raise NotImplementedError

    def max_feasible_clearance(self) -> float:
        """Upper bound on clearances reachable inside the sample box."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec_string()!r})"


@dataclass(frozen=True, repr=False)
class UnitBall(Domain):
    dimension: int

    boundary_strata = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_many(self, xs):
        xs = as_points(xs, self.dimension)
        return 1.0 - np.linalg.norm(xs, axis=1)

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        return (1.0 - delta)[:, None] * unit_directions(self.dimension, m, rng)

    def chord_reach(self, z, u, delta):
        target = np.maximum(1.0 - delta, 1e-12)
        zu = np.sum(z * u, axis=1)
        z2 = np.sum(z * z, axis=1)
        disc = np.maximum(zu * zu + target * target - z2, 0.0)
        return np.maximum(-zu + np.sqrt(disc), 0.0)

    def complement_sample(self, count, rng):
        dirs = rng.normal(size=(count, self.dimension))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs * rng.uniform(1.0, 2.0, size=(count, 1))

    def sample_box(self):
        n = self.dimension
        return -np.ones(n), np.ones(n)

    def max_feasible_clearance(self):
        return 1.0

    def spec_string(self):
        return f"ball:{self.dimension}"


@dataclass(frozen=True, repr=False)
class HalfSpace(Domain):
    dimension: int

    boundary_strata = True
    pair_window = True

    #: rejection box extent: last coordinate in (0, 4], others in [-2, 2]
    _SIDE = 2.0
    _HEIGHT = 4.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_many(self, xs):
        xs = as_points(xs, self.dimension)
        return xs[:, -1].copy()

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        lo_box, hi_box = self.sample_box()
        pts = rng.uniform(lo_box, hi_box, size=(m, self.dimension))
        pts[:, -1] = delta
        return pts

    def chord_reach(self, z, u, delta):
        un = u[:, -1]
        zn = z[:, -1]
        cap = np.full(zn.shape, self._HEIGHT)
        down = un < -1e-12
        t = np.where(down, (zn - delta) / np.where(down, -un, 1.0), cap)
        return np.clip(t, 0.0, self._HEIGHT)

    def geodesic_window(self, x, y, pad):
        # sized from the circular-arc geodesic through the endpoints
        xn, yn = x[-1], y[-1]
        s_h = float(np.linalg.norm(x[:-1] - y[:-1])) if self.dimension > 1 else 0.0
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
        return lo, hi, None

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

    def max_feasible_clearance(self):
        return self._HEIGHT

    def spec_string(self):
        return f"halfspace:{self.dimension}"


@dataclass(frozen=True, repr=False)
class PuncturedSpace(Domain):
    dimension: int

    boundary_strata = True
    pair_window = True

    _SIDE = 2.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def clearance_many(self, xs):
        xs = as_points(xs, self.dimension)
        return np.linalg.norm(xs, axis=1)

    def boundary_sample(self, m, rng, lo, hi):
        delta = _log_uniform(rng, m, lo, hi)
        return delta[:, None] * unit_directions(self.dimension, m, rng)

    def chord_reach(self, z, u, delta):
        return np.full(z.shape[0], 2.5)

    def geodesic_window(self, x, y, pad):
        # log-polar geodesics stay between half the smaller and twice the
        # larger query radius
        rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        r_lo, r_hi = 0.5 * min(rx, ry), 2.0 * max(rx, ry)

        def annulus(points: np.ndarray) -> np.ndarray:
            r = np.linalg.norm(points, axis=1)
            return (r >= r_lo) & (r <= r_hi)

        return np.full(self.dimension, -r_hi), np.full(self.dimension, r_hi), annulus

    def complement_sample(self, count, rng):
        # the complement is the single puncture
        return np.zeros((1, self.dimension))

    def sample_box(self):
        n = self.dimension
        return np.full(n, -self._SIDE), np.full(n, self._SIDE)

    def max_feasible_clearance(self):
        return self._SIDE

    def spec_string(self):
        return f"punctured:{self.dimension}"


@dataclass(frozen=True, repr=False)
class Interval(Domain):
    """Open interval (a, b) as a 1-dimensional domain."""

    a: float
    b: float

    boundary_strata = True

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")

    @property
    def dimension(self) -> int:
        return 1

    def clearance_many(self, xs):
        xs = as_points(xs, 1)
        t = xs[:, 0]
        return np.minimum(t - self.a, self.b - t)

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

    def max_feasible_clearance(self):
        return 0.5 * (self.b - self.a)

    def spec_string(self):
        return f"interval:{self.a:g}:{self.b:g}"


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
    """

    dimension: int
    distance_fn: Callable[[np.ndarray], np.ndarray]
    membership_fn: Callable[[np.ndarray], np.ndarray]
    box: tuple[tuple[float, ...], tuple[float, ...]]

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

    def max_feasible_clearance(self):
        lo, hi = self.sample_box()
        return 0.5 * float(np.max(hi - lo))

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


def distance_to_set(x, point_set: PointSet) -> float:
    """min over a in A of |x - a|."""
    p = as_point(x, point_set.points.shape[1])
    return float(distance_to_set_many(p[None, :], point_set)[0])


def distance_to_set_many(xs: np.ndarray, point_set: PointSet) -> np.ndarray:
    """min over a in A of |x - a| for each row."""
    pts = point_set.points
    xs = as_points(xs, pts.shape[1])
    diff = xs[:, None, :] - pts[None, :, :]
    return np.min(np.linalg.norm(diff, axis=2), axis=1)


# ---------------------------------------------------------------------------
# Seeded interior sampling
# ---------------------------------------------------------------------------


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
    drawn from in place, continuing its stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not min_clearance > 0.0:
        raise ValueError("min_clearance must be positive")
    if min_clearance >= domain.max_feasible_clearance():
        raise ValueError(
            f"min_clearance {min_clearance} is infeasible for {domain.spec_string()}"
        )
    rng = np.random.default_rng(seed)
    lo, hi = domain.sample_box()
    out = np.empty((count, domain.dimension))
    have = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        batch = max(1024, 2 * (count - have))
        cand = rng.uniform(lo, hi, size=(batch, domain.dimension))
        ok = domain.clearance_many(cand) >= min_clearance
        take = cand[ok][: count - have]
        out[have : have + take.shape[0]] = take
        have += take.shape[0]
        if have == count:
            return out
    raise ValueError(
        f"could not reach clearance {min_clearance} in {domain.spec_string()}; "
        "clearance is likely infeasible for the sample box"
    )


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
    gap = np.abs(dx - dy) - np.linalg.norm(xs - ys, axis=1)
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

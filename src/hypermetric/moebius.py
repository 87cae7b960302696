"""Maps between domains: the base class, the identity and the Moebius maps.

Every map declares its ``source`` and ``target`` domains, so an
estimate can read a distance on the source against the same distance on
the image without knowing the map's type.  Only the two Moebius families
the distortion estimates need are implemented:

* :class:`Identity` -- the trivial map of a domain onto itself.
* :class:`BallAutomorphism` -- inversion in the sphere orthogonal to the
  unit sphere centred at a/|a|^2.  Maps the ball onto itself, swaps the
  base point a and the origin, and is a hyperbolic isometry.
* :class:`BallToHalfSpace` -- inversion centred at the north pole followed
  by reflection of the last coordinate.  Maps the open unit ball onto the
  upper half-space, the south pole to the boundary origin, and the centre
  to e_n.  The normalization is a free choice; the isometry property
  rho_H(g(x), g(y)) = rho_B(x, y) is the acceptance oracle that pins any
  correct construction.

All maps are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import Domain, HalfSpace, UnitBall, _dot, as_point, as_points


def absolute_ratio(a, b, c, d) -> float:
    """|a,b,c,d| = (|a-c| |b-d|) / (|a-b| |c-d|).

    Invariant (degree-0 homogeneous) under similarity transforms and, up
    to rounding, under every Moebius map implemented here.
    """
    a = as_point(a)
    b = as_point(b, a.size)
    c = as_point(c, a.size)
    d = as_point(d, a.size)
    ab = float(np.linalg.norm(a - b))
    cd = float(np.linalg.norm(c - d))
    ac = float(np.linalg.norm(a - c))
    bd = float(np.linalg.norm(b - d))
    scale = max(ab, cd, ac, bd)
    if scale == 0.0 or ab <= 1e-14 * scale or cd <= 1e-14 * scale:
        raise ValueError("degenerate configuration: |a-b| or |c-d| is ~0")
    return (ac * bd) / (ab * cd)


class SampleMap:
    """Bijection of ``source`` onto ``target`` with vectorized evaluation."""

    source: Domain
    target: Domain

    def apply_many(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(SampleMap):
    domain: Domain

    @property
    def source(self) -> Domain:
        return self.domain

    @property
    def target(self) -> Domain:
        return self.domain

    def apply_many(self, xs):
        return as_points(xs, self.domain.dimension).copy()


@dataclass(frozen=True)
class BallAutomorphism(SampleMap):
    """Self-map of the unit ball sending ``center`` a to the origin:

        x -> R((1 - |a|^2)(x - a) - |x - a|^2 a) / (|x - a|^2 + (1 - |a|^2)(1 - |x|^2))

    with R the reflection v -> v - 2 (v.u) u, u = a/|a|.  This is the
    inversion in the sphere orthogonal to the unit sphere centred at
    a/|a|^2, written without terms of size 1/|a| and with a denominator
    that sums non-negative terms.  As a -> 0 it tends to the reflection
    R, which depends on the direction of a; at a = 0 exactly the map is
    the identity.
    """

    center: np.ndarray
    dimension: int = field(init=False)

    def __post_init__(self):
        a = as_point(self.center)
        if np.linalg.norm(a) >= 1.0:
            raise ValueError("automorphism center must satisfy |a| < 1")
        object.__setattr__(self, "center", a)
        object.__setattr__(self, "dimension", a.size)

    @property
    def source(self) -> Domain:
        return UnitBall(self.dimension)

    @property
    def target(self) -> Domain:
        return UnitBall(self.dimension)

    def apply_many(self, xs):
        xs = as_points(xs, self.dimension)
        if np.any(self.source.clearance_many(xs) <= 0.0):
            raise ValueError("ball automorphism applied outside the unit ball")
        a = self.center
        if not np.any(a):
            return xs.copy()
        # u from a copy scaled by its largest entry, whose norm cannot underflow
        s = a / np.max(np.abs(a))
        u = s / np.linalg.norm(s)
        a2 = float(a @ a)
        d = xs - a[None, :]
        d2 = _dot(d.T, d.T)
        t = (1.0 - a2) * d - np.outer(d2, a)
        t -= 2.0 * np.outer(t @ u, u)
        return t / (d2 + (1.0 - a2) * (1.0 - _dot(xs.T, xs.T)))[:, None]


@dataclass(frozen=True)
class BallToHalfSpace(SampleMap):
    """Moebius bijection of the open unit ball onto {x_n > 0}."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def source(self) -> Domain:
        return UnitBall(self.dimension)

    @property
    def target(self) -> Domain:
        return HalfSpace(self.dimension)

    def apply_many(self, xs):
        xs = as_points(xs, self.dimension)
        if np.any(self.source.clearance_many(xs) <= 0.0):
            raise ValueError("ball-to-half-space map applied outside the unit ball")
        north = np.zeros(self.dimension)
        north[-1] = 1.0
        diff = xs - north[None, :]
        denom = _dot(diff.T, diff.T)
        img = north[None, :] + 2.0 * diff / denom[:, None]
        img[:, -1] = -img[:, -1]
        return img


"""Sample homeomorphisms plus estimators for their geometric distortion.

Every map is a :class:`~hypermetric.moebius.SampleMap` that declares its
source and target domains.  Three map families give test instances
spanning the conformal / quasiconformal / merely-homeomorphic range:

* :class:`~hypermetric.moebius.Identity` -- the trivial baseline;
* :class:`~hypermetric.moebius.BallAutomorphism` and
  :class:`~hypermetric.moebius.BallToHalfSpace` -- conformal, so the
  local stretch ratio is exactly 1 in the shrinking-radius limit;
* :class:`RadialStretch` -- f(x) = |x|^(alpha-1) x on the unit ball, the
  stock non-Moebius quasiconformal example (limit stretch ratio alpha at
  any z != 0, degenerate derivative at the origin).

Estimators:

* :func:`linear_dilatation` samples spheres of shrinking radius r around
  z and reports max |f(x)-f(z)| / min |f(y)-f(z)| per radius.  This is a
  limsup quantity; the full radius history is reported instead of
  extrapolating.
* :func:`bilipschitz_estimate` measures the empirical two-sided h_c
  distortion constant L over seeded pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import Domain, UnitBall, as_point, as_points, sample_interior, unit_directions
from .metrics import MetricParams, h_many
from .moebius import BallAutomorphism, BallToHalfSpace, Identity, SampleMap


@dataclass(frozen=True)
class RadialStretch(SampleMap):
    """f(x) = |x|^(alpha-1) x on the unit ball, fixing 0 and the sphere."""

    alpha: float
    dimension: int = 2

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def source(self) -> Domain:
        return UnitBall(self.dimension)

    @property
    def target(self) -> Domain:
        return UnitBall(self.dimension)

    def apply_many(self, xs):
        xs = as_points(xs, self.dimension)
        r = np.linalg.norm(xs, axis=1)
        if np.any(r >= 1.0):
            raise ValueError("radial stretch applied outside the unit ball")
        out = np.zeros_like(xs)
        nz = r > 0.0
        out[nz] = xs[nz] * (r[nz] ** (self.alpha - 1.0))[:, None]
        return out


# ---------------------------------------------------------------------------
# linear dilatation
# ---------------------------------------------------------------------------


@dataclass
class DilatationEstimate:
    """Per-radius stretch ratios around a base point.

    ``ratios[i]`` is max/min of |f(x)-f(z)| over the sampled sphere of
    radius ``radii[i]``; ``H_hat`` is the smallest-radius ratio.  The
    radius history is the convergence evidence; no extrapolation is done, so
    ``H_hat`` keeps an O(r) bias (2.1996, 2.0195, 2.0020 at radii 0.1, 0.01,
    0.001 for ``RadialStretch(2)`` at (0.5, 0), where the exact value is 2).
    """

    z: np.ndarray
    radii: tuple[float, ...]
    ratios: tuple[float, ...]
    H_hat: float


def _sphere_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 1:
        raise ValueError("linear dilatation needs dimension >= 2")
    if dim == 2:
        # deterministic low-discrepancy angles
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return unit_directions(dim, count, rng)


def linear_dilatation(
    mapping: SampleMap,
    z,
    radii,
    sphere_samples: int = 64,
    seed: int = 0,
) -> DilatationEstimate:
    """Sampled sup/inf stretch ratio of f over spheres |x - z| = r.

    Radii must be strictly decreasing and all below the clearance of z in
    the source domain.  A collision f(x) = f(z) aborts the estimate: the
    map is not injective at this resolution.
    """
    z = as_point(z, mapping.source.dimension)
    clearance = float(mapping.source.clearance_many(z[None, :])[0])
    if not clearance > 0.0:
        raise ValueError("base point must lie inside the map source")
    radii = [float(r) for r in np.atleast_1d(np.asarray(radii, dtype=float))]
    if len(radii) == 0:
        raise ValueError("at least one radius is required")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if radii[0] >= clearance:
        raise ValueError(
            f"largest radius {radii[0]} exceeds the clearance {clearance} of z"
        )
    if sphere_samples < 16:
        raise ValueError("sphere_samples must be >= 16")
    rng = np.random.default_rng(seed)
    fz = mapping.apply_many(z[None, :])[0]
    ratios = []
    for r in radii:
        dirs = _sphere_directions(z.size, sphere_samples, rng)
        img = mapping.apply_many(z[None, :] + r * dirs)
        stretch = np.linalg.norm(img - fz[None, :], axis=1)
        if np.any(stretch == 0.0):
            raise ArithmeticError(
                f"f(x) = f(z) collision at radius {r}: map is not injective "
                "at this resolution"
            )
        ratios.append(float(np.max(stretch) / np.min(stretch)))
    return DilatationEstimate(
        z=z, radii=tuple(radii), ratios=tuple(ratios), H_hat=ratios[-1]
    )


# ---------------------------------------------------------------------------
# empirical bilipschitz constant
# ---------------------------------------------------------------------------


@dataclass
class BilipschitzEstimate:
    """Empirical two-sided h_c distortion over a seeded pair sample."""

    L_hat: float
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]]
    sample_count: int


def bilipschitz_estimate(
    mapping: SampleMap,
    params: MetricParams,
    pair_count: int,
    seed: int,
) -> BilipschitzEstimate:
    """max over pairs of max(h'(f x, f y)/h(x, y), h/h'), with the pair
    attaining it, over seeded points at clearance >= 1e-3.  Degenerate
    x = y pairs are excluded by the sampler.  ``L_hat`` is a sampled
    maximum, and its sup may be infinite: on ``RadialStretch(2)`` it reads
    10.687 at 1e4 pairs (seed 3) and 24.212 at 1e5 (seed 4)."""
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    src = mapping.source
    tgt = mapping.target
    clearance = 1e-3
    xs = sample_interior(src, pair_count, seed, clearance)
    ys = sample_interior(src, pair_count, seed + 1, clearance)
    same = np.all(xs == ys, axis=1)
    if np.any(same):  # probability-zero guard; keep the sample size
        ys[same] += clearance * 0.5
    h_src = h_many(src, xs, ys, params.c)
    fx = mapping.apply_many(xs)
    fy = mapping.apply_many(ys)
    h_tgt = h_many(tgt, fx, fy, params.c)
    ratios = np.maximum(h_tgt / h_src, h_src / h_tgt)
    worst = int(np.argmax(ratios))
    return BilipschitzEstimate(
        L_hat=float(ratios[worst]),
        worst_pair=(tuple(xs[worst]), tuple(ys[worst])),
        sample_count=pair_count,
    )


def parse_map(spec: str) -> SampleMap:
    """Parse map specs used by the CLI.

    identity:ball:2 | auto:0.5,0 | b2h:2 | stretch:2.0
    """
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    if kind == "identity":
        from .domains import parse_domain

        if len(parts) < 2:
            raise ValueError("identity map needs a domain, e.g. identity:ball:2")
        return Identity(parse_domain(":".join(parts[1:])))
    if kind == "auto" and len(parts) == 2:
        center = np.array([float(v) for v in parts[1].split(",")])
        return BallAutomorphism(center)
    if kind == "b2h" and len(parts) == 2:
        return BallToHalfSpace(int(parts[1]))
    if kind == "stretch" and len(parts) == 2:
        return RadialStretch(float(parts[1]))
    raise ValueError(
        f"unknown map spec {spec!r} (expected identity:DOMAIN, auto:A1,A2, "
        "b2h:N or stretch:ALPHA)"
    )

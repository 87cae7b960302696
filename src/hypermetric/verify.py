"""Seeded verification and falsification engine.

Three kinds of checks:

* :func:`triangle_scan` -- stratified triple sampling (uniform /
  boundary-hugging / collinear through a common point, in fixed
  60/25/15 proportion) reporting the worst triangle-inequality slack of
  a chosen distance.  h with c >= 2 passes; phi and h with c < 2 are
  expected to produce negative-slack witnesses.
* :func:`collinear_c_scan` / :func:`phi_triangle_counterexample` --
  targeted falsifiers on the symmetric collinear family (r, 0, -r) in
  the plane ball, where all known violations live.
* :func:`inequality_suite` -- the named two-sided estimates relating h,
  j, phi, the model hyperbolic metrics and the quasihyperbolic
  estimate, each reduced to a per-sample slack with pass defined as
  min_slack >= -tolerance.

Tolerances: 1e-9 absolute for closed-form inequalities (1e-10 for the
identity/sandwich and Moebius-distortion suites, 1e-12 for plain
triangle-inequality facts), 2% relative wherever the shortest-path
estimator participates (each suite's default is in :data:`SUITES`).
This separates formula rounding from discretization error.

Determinism: every sample derives from ``numpy.random.default_rng``
seeded by (seed, chunk); scans partition work into fixed chunks whose
results merge by order-insensitive min-reduction, so a report depends
only on its arguments.

Samplers ask the domain for its geometry (``boundary_sample``,
``chord_reach``, ``complement_sample``) and compute each point set's
clearance once, however many pairs it enters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import metrics, moebius
from .domains import (
    Domain,
    HalfSpace,
    UnitBall,
    as_point,
    distance_to_set_many,
    sample_complement,
    sample_interior,
    unit_directions,
)
from .metrics import MetricKind, MetricParams
from .quasihyperbolic import KControls, k_estimate_many

_CHUNK = 20_000

#: strata proportions for triangle scans
_FRAC_UNIFORM, _FRAC_BOUNDARY, _FRAC_COLLINEAR = 0.60, 0.25, 0.15

# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------


@dataclass
class TriangleWitness:
    """Worst triple of a scan; slack < 0 iff it witnesses a violation."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    z: tuple[float, ...]
    slack: float
    metric: MetricKind
    params: MetricParams


@dataclass
class InequalityReport:
    """Sampled-verification outcome with a serializable witness."""

    suite_id: str
    domain: str
    params: dict
    seed: int
    sample_count: int
    min_slack: float
    witness: tuple[tuple[float, ...], ...]
    passed: bool
    tolerance: float
    slacks: np.ndarray | None = field(default=None, repr=False, compare=False)
    witness_record: TriangleWitness | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "domain": self.domain,
            "params": self.params,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "min_slack": self.min_slack,
            "witness": [list(p) for p in self.witness],
            "pass": self.passed,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InequalityReport":
        obj = json.loads(text)
        return cls(
            suite_id=obj["suite_id"],
            domain=obj["domain"],
            params=obj["params"],
            seed=obj["seed"],
            sample_count=obj["sample_count"],
            min_slack=obj["min_slack"],
            witness=tuple(tuple(p) for p in obj["witness"]),
            passed=obj["pass"],
            tolerance=obj["tolerance"],
        )

    def csv_lines(self) -> list[str]:
        if self.slacks is None:
            raise ValueError("report was built without per-sample slacks")
        lines = ["index,slack"]
        lines.extend(f"{i},{float(s)!r}" for i, s in enumerate(self.slacks))
        return lines


def _make_report(suite_id, domain_str, params, seed, count, min_slack, witness,
                 tolerance, slacks=None, witness_record=None) -> InequalityReport:
    return InequalityReport(
        suite_id=suite_id,
        domain=domain_str,
        params=params,
        seed=seed,
        sample_count=count,
        min_slack=float(min_slack),
        witness=tuple(tuple(float(v) for v in p) for p in witness),
        passed=bool(min_slack >= -tolerance),
        tolerance=float(tolerance),
        slacks=slacks,
        witness_record=witness_record,
    )


@dataclass
class UniformityEstimate:
    """Empirical uniformity constant: max over sampled pairs of k/j."""

    U_hat: float
    sample_count: int
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]]


# ---------------------------------------------------------------------------
# stratified triple sampling
# ---------------------------------------------------------------------------


def _collinear_triples(domain: Domain, m: int, rng: np.random.Generator):
    """Triples x, y on a common line through z, biased toward the boundary."""
    n = domain.dimension
    z = sample_interior(domain, m, rng, min_clearance=1e-6)
    u = unit_directions(n, m, rng)
    delta = 10.0 ** rng.uniform(-6, -2, size=m)
    t_plus = domain.chord_reach(z, u, delta)
    t_minus = domain.chord_reach(z, -u, delta)
    frac_x = 1.0 - rng.random(m) ** 2
    frac_y = 1.0 - rng.random(m) ** 2
    x = z + (frac_x * t_plus)[:, None] * u
    y = z - (frac_y * t_minus)[:, None] * u
    # guard rounding: degenerate rows fall back to z itself (slack 0)
    for p in (x, y):
        bad = ~(domain.clearance_many(p) > 0)
        p[bad] = z[bad]
    return x, y, z


def _triple_block(domain: Domain, size: int, rng: np.random.Generator):
    n_bdy = int(round(_FRAC_BOUNDARY * size))
    n_col = int(round(_FRAC_COLLINEAR * size)) if domain.collinear_stratum else 0
    n_uni = size - n_bdy - n_col
    xs = [sample_interior(domain, n_uni, rng, min_clearance=1e-6)]
    ys = [sample_interior(domain, n_uni, rng, min_clearance=1e-6)]
    zs = [sample_interior(domain, n_uni, rng, min_clearance=1e-6)]
    if n_bdy:  # a 1- or 2-triple chunk rounds its boundary stratum to 0 rows
        for pts in (xs, ys, zs):
            pts.append(domain.boundary_sample(n_bdy, rng, 1e-6, 5e-2))
    if n_col:
        cx, cy, cz = _collinear_triples(domain, n_col, rng)
        xs.append(cx)
        ys.append(cy)
        zs.append(cz)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)


def triangle_scan(
    domain: Domain,
    metric: MetricKind,
    params: MetricParams,
    triple_count: int,
    seed: int,
    tolerance: float = 1e-9,
    k_controls: KControls | None = None,
    keep_slacks: bool = False,
) -> InequalityReport:
    """Minimum triangle slack of a distance over stratified random triples.

    For each triple all three rotations of m(a,c) <= m(a,b) + m(b,c) are
    evaluated and the smallest slack is kept.
    """
    if triple_count < 1:
        raise ValueError("triple_count must be >= 1")
    evaluate = metrics.pair_kernel(metric, domain, params, k_controls)

    def worker(chunk_idx: int, size: int):
        rng = np.random.default_rng([seed, chunk_idx])
        x, y, z = _triple_block(domain, size, rng)
        dx, dy, dz = (metrics.kind_clearances(metric, domain, p) for p in (x, y, z))
        m_xy = evaluate(x, y, dx, dy)
        m_xz = evaluate(x, z, dx, dz)
        m_zy = evaluate(z, y, dz, dy)
        slack = np.minimum.reduce([
            m_xz + m_zy - m_xy,
            m_xy + m_zy - m_xz,
            m_xy + m_xz - m_zy,
        ])
        i = int(np.argmin(slack))
        return (float(slack[i]), chunk_idx, i, (x[i], y[i], z[i]),
                slack if keep_slacks else None)

    results = [worker(i, min(_CHUNK, triple_count - start))
               for i, start in enumerate(range(0, triple_count, _CHUNK))]
    best = min(results, key=lambda r: (r[0], r[1], r[2]))
    slacks = np.concatenate([r[4] for r in results]) if keep_slacks else None
    wx, wy, wz = best[3]
    record = TriangleWitness(
        x=tuple(map(float, wx)), y=tuple(map(float, wy)), z=tuple(map(float, wz)),
        slack=best[0], metric=metric, params=params,
    )
    report_params = {"metric": metric.value}
    if metric is MetricKind.H:
        report_params["c"] = params.c
    return _make_report(
        "triangle", domain.spec_string(), report_params, seed, triple_count,
        best[0], (wx, wy, wz), tolerance, slacks=slacks, witness_record=record,
    )


# ---------------------------------------------------------------------------
# targeted falsifiers
# ---------------------------------------------------------------------------


@dataclass
class CollinearViolation:
    """Witness r with 2 h_c(0, r e1) < h_c(-r e1, r e1) in the plane ball."""

    r: float
    lhs: float   # 2 h(0, r e1)
    rhs: float   # h(-r e1, r e1)


def default_r_grid() -> np.ndarray:
    """Coarse sweep of (0,1) plus a log ladder accumulating at 1 - 1e-8."""
    coarse = np.linspace(0.05, 0.95, 19)
    fine = 1.0 - np.logspace(-1.3, -8.0, 135)
    return np.unique(np.concatenate([coarse, fine]))


def _radius_grid(values, name: str) -> np.ndarray:
    """A falsifier's grid of radii: nonempty and strictly inside (0, 1)."""
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError(f"{name} grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError(f"{name} grid values must lie strictly inside (0, 1)")
    return grid


def collinear_c_scan(c: float, r_grid=None) -> CollinearViolation | None:
    """Scan the family (r e1, 0, -r e1) in the plane ball for triangle
    failures of h_c; returns the smallest violating grid radius.

    Must find violations for every c < 2 (close enough to 1) and none
    for c >= 2.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    r = _radius_grid(default_r_grid() if r_grid is None else np.sort(r_grid), "r")
    # d(0) = 1, d(+-r e1) = 1 - r
    lhs = 2.0 * metrics.h_kernel(r, 1.0, 1.0 - r, c)
    rhs = metrics.h_kernel(2.0 * r, 1.0 - r, 1.0 - r, c)
    violating = lhs < rhs
    if not np.any(violating):
        return None
    i = int(np.argmax(violating))
    return CollinearViolation(r=float(r[i]), lhs=float(lhs[i]), rhs=float(rhs[i]))


@dataclass
class PhiViolation:
    t: float
    lhs: float   # 2 phi(t e1, 0)
    rhs: float   # phi(t e1, -t e1)


def phi_triangle_counterexample(t_grid) -> PhiViolation:
    """First t on the grid with 2 phi(t e1, 0) < phi(t e1, -t e1) in the
    plane ball; raises when the grid contains no violation."""
    t = _radius_grid(t_grid, "t")
    lhs = 2.0 * metrics.phi_kernel(t, 1.0, 1.0 - t)
    rhs = metrics.phi_kernel(2.0 * t, 1.0 - t, 1.0 - t)
    violating = lhs < rhs
    if not np.any(violating):
        raise ValueError(
            "no phi triangle violation found on the grid (grid too coarse; "
            "t >= 0.9 is expected to witness one)"
        )
    i = int(np.argmax(violating))
    return PhiViolation(t=float(t[i]), lhs=float(lhs[i]), rhs=float(rhs[i]))


# ---------------------------------------------------------------------------
# named inequality suites
# ---------------------------------------------------------------------------


def _suite_pairs(domain: Domain, count: int, rng: np.random.Generator,
                 min_clearance: float):
    xs = sample_interior(domain, count, rng, min_clearance=min_clearance)
    ys = sample_interior(domain, count, rng, min_clearance=min_clearance)
    same = np.all(xs == ys, axis=1)
    if np.any(same):
        ys[same] = sample_interior(domain, int(np.sum(same)), rng,
                                   min_clearance=min_clearance)
    return xs, ys


def _ball_centers(count: int, rng: np.random.Generator, n: int,
                  max_norm: float = 0.8) -> np.ndarray:
    dirs = unit_directions(n, count, rng)
    radii = max_norm * rng.random(count) ** (1.0 / n)
    centers = dirs * radii[:, None]
    centers[0] = 0.0  # include the identity automorphism
    return centers


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _suite_P2_3_1(domain, params, count, rng, min_clearance):
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    rho = metrics.rho_halfspace_many(xs, ys)
    lhs = 2.0 * np.sinh(0.5 * rho)  # = sqrt(2 (cosh rho - 1))
    rhs = np.expm1(metrics.h_many(domain, xs, ys, params.c)) / params.c
    slacks = -np.abs(lhs - rhs)
    return slacks, (xs, ys), {}


def _suite_P2_3_2(domain, params, count, rng, min_clearance):
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    s = np.sinh(0.5 * metrics.rho_ball_many(xs, ys))
    u = np.expm1(metrics.h_many(domain, xs, ys, params.c)) / params.c
    slacks = np.minimum(u - s, 2.0 * s - u)
    return slacks, (xs, ys), {}


def _moebius_distortion(domain, params, count, rng, min_clearance, to_halfspace):
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    centers = _ball_centers(20, rng, domain.dimension)
    h_src = metrics.h_many(domain, xs, ys, params.c)
    cayley = moebius.BallToHalfSpace(domain.dimension) if to_halfspace else None
    target = cayley.target if to_halfspace else domain
    h_img = np.empty(count)
    iso_gap = np.empty(count)
    rho_src = metrics.rho_ball_many(xs, ys)
    group = np.arange(count) % centers.shape[0]
    for g, a in enumerate(centers):
        sel = group == g
        if not np.any(sel):
            continue
        auto = moebius.BallAutomorphism(a)
        fx = auto.apply_many(xs[sel])
        fy = auto.apply_many(ys[sel])
        if to_halfspace:
            fx = cayley.apply_many(fx)
            fy = cayley.apply_many(fy)
            rho_img = metrics.rho_halfspace_many(fx, fy)
        else:
            rho_img = metrics.rho_ball_many(fx, fy)
        h_img[sel] = metrics.h_many(target, fx, fy, params.c)
        iso_gap[sel] = np.abs(rho_img - rho_src[sel])
    slacks = 2.0 * h_src - h_img
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(h_src > 0, h_img / np.where(h_src > 0, h_src, 1.0), 1.0)
    extra = {
        "observed_sup_ratio": float(np.max(ratios)),
        "isometry_max_gap": float(np.max(iso_gap)),
        "map_count": int(centers.shape[0]),
    }
    return slacks, (xs, ys), extra


def _suite_P2_8(domain, params, count, rng, min_clearance):
    c = params.c
    t = np.logspace(-6.0, math.log10(50.0), count)
    f = metrics.comparison_f(t, c)
    slacks = np.minimum(f - c / (2.0 * (1.0 + c)) * t, c * t - f)
    return slacks, (t.reshape(-1, 1), t.reshape(-1, 1)), {"t_min": 1e-6, "t_max": 50.0}


def _suite_L2_9(domain, params, count, rng, min_clearance):
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    geom = metrics.pair_geometry(domain, xs, ys)
    j = metrics.j_kernel(*geom)
    phi = metrics.phi_kernel(*geom)
    slacks = np.minimum(phi - 0.5 * j, 2.0 * j - phi)
    return slacks, (xs, ys), {}


def _suite_C2_10(domain, params, count, rng, min_clearance):
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    geom = metrics.pair_geometry(domain, xs, ys)
    j = metrics.j_kernel(*geom)
    phi = metrics.phi_kernel(*geom)
    h1 = metrics.h_kernel(*geom, 1.0)
    slacks = np.minimum.reduce([
        h1 - 0.5 * j,
        phi - h1,
        2.0 * h1 - phi,
        2.0 * j - 2.0 * h1,
    ])
    return slacks, (xs, ys), {"c": 1.0}


def _suite_L3_1(domain, params, count, rng, min_clearance):
    point_set = sample_complement(domain, 8, int(rng.integers(2**32)))
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    da_x = distance_to_set_many(xs, point_set)
    da_y = distance_to_set_many(ys, point_set)
    rho = np.linalg.norm(xs - ys, axis=1)
    slacks = rho - np.abs(da_x - da_y)
    return slacks, (xs, ys), {"set_size": int(point_set.points.shape[0])}


def _suite_L4_4_1(domain, params, count, rng, min_clearance):
    c = params.c
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    geom = metrics.pair_geometry(domain, xs, ys)
    j = metrics.j_kernel(*geom)
    h = metrics.h_kernel(*geom, c)
    mid = np.log1p(2.0 * c * np.sinh(0.5 * j))
    slacks = np.minimum.reduce([
        mid - c / (2.0 * (1.0 + c)) * j,
        h - mid,
        c * j - h,
    ])
    return slacks, (xs, ys), {}


def _suite_L4_4_2(domain, params, count, rng, min_clearance):
    c = params.c
    xs = sample_interior(domain, count, rng, min_clearance=min_clearance)
    lam = rng.uniform(1e-3, 1.0 - 1e-3, size=count)
    frac = rng.random(count)
    dirs = unit_directions(domain.dimension, count, rng)
    d_x = metrics.clearances(domain, xs)
    ys = xs + (frac * lam * d_x)[:, None] * dirs
    geom = metrics.separation(xs, ys), d_x, metrics.clearances(domain, ys)
    j = metrics.j_kernel(*geom)
    h = metrics.h_kernel(*geom, c)
    slacks = h - (1.0 - lam) / (1.0 + lam) * j
    worst = int(np.argmin(slacks))
    return slacks, (xs, ys), {"lambda_worst": float(lam[worst])}


def _k_pairs(domain, params, count, rng, min_clearance, k_controls):
    clearance = max(min_clearance, 0.2)
    xs, ys = _suite_pairs(domain, count, rng, clearance)
    k_hat = k_estimate_many(domain, xs, ys, k_controls)
    geom = metrics.pair_geometry(domain, xs, ys)
    return xs, ys, k_hat, geom


def _suite_C4_5(domain, params, count, rng, min_clearance, k_controls):
    c = params.c
    xs, ys, k_hat, geom = _k_pairs(domain, params, count, rng, min_clearance, k_controls)
    j = metrics.j_kernel(*geom)
    h = metrics.h_kernel(*geom, c)
    valid = j > 1e-6
    _require(bool(np.any(valid)), "all sampled pairs are degenerate (j ~ 0)")
    u_hat = float(np.max(k_hat[valid] / j[valid]))
    d_const = c / (2.0 * (1.0 + c) * u_hat)
    hv, kv = h[valid], k_hat[valid]
    slacks = np.minimum((hv - d_const * kv) / hv, (c * kv - hv) / hv)
    return (slacks, (xs[valid], ys[valid]),
            {"u_hat": u_hat, "d_constant": d_const, "relative": True})


def _suite_T4_6(domain, params, count, rng, min_clearance):
    c = params.c
    _require(c >= 2.0, "T4_6 requires c >= 2")
    rho_fn = (metrics.rho_ball_many if isinstance(domain, UnitBall)
              else metrics.rho_halfspace_many)
    xs, ys = _suite_pairs(domain, count, rng, min_clearance)
    rho = rho_fn(xs, ys)
    h = metrics.h_many(domain, xs, ys, c)
    slacks = np.minimum(rho - h / c, 2.0 * h - rho)
    return slacks, (xs, ys), {}


def _suite_QHJ(domain, params, count, rng, min_clearance, k_controls):
    xs, ys, k_hat, geom = _k_pairs(domain, params, count, rng, min_clearance, k_controls)
    j = metrics.j_kernel(*geom)
    valid = j > 1e-6
    _require(bool(np.any(valid)), "all sampled pairs are degenerate (j ~ 0)")
    slacks = (k_hat[valid] - j[valid]) / j[valid]
    return slacks, (xs[valid], ys[valid]), {"relative": True}


class Suite(NamedTuple):
    """One named estimate and its contract.

    ``run(domain, params, count, rng, min_clearance[, k_controls])``
    returns (slacks, (xs, ys), extra report params); ``domains`` is the
    tuple of accepted domain classes (None: any domain).
    """

    run: Callable
    needs_k: bool
    tolerance: float
    domains: tuple[type, ...] | None
    statement: str


#: suite id -> contract, in the order the CLI and README list them
SUITES = {
    "P2_3_1": Suite(_suite_P2_3_1, False, 1e-10, (HalfSpace,),
                    "sqrt(2(cosh rho_H - 1)) = (e^h - 1)/c on the half-space (identity)"),
    "P2_3_2": Suite(_suite_P2_3_2, False, 1e-10, (UnitBall,),
                    "sinh(rho_B/2) <= (e^h - 1)/c <= 2 sinh(rho_B/2) on the ball"),
    "L2_5": Suite(partial(_moebius_distortion, to_halfspace=False), False, 1e-10, (UnitBall,),
                  "h_c(g x, g y) <= 2 h_c(x, y) for ball automorphisms g"),
    "L2_7": Suite(partial(_moebius_distortion, to_halfspace=True), False, 1e-10, (UnitBall,),
                  "h_c(g x, g y) <= 2 h_c(x, y) for Moebius g: ball -> half-space"),
    "P2_8": Suite(_suite_P2_8, False, 0.0, None,
                  "c t/(2(1+c)) < log(1 + 2c sinh(t/2)) < c t"),
    "L2_9": Suite(_suite_L2_9, False, 1e-9, None, "j/2 <= phi <= 2 j"),
    "C2_10": Suite(_suite_C2_10, False, 1e-9, None, "j/2 <= h_1 <= phi <= 2 h_1 <= 2 j"),
    "L3_1": Suite(_suite_L3_1, False, 1e-12, None,
                  "d_A(x) <= |x - y| + d_A(y) (clearance to complement sets is 1-Lipschitz)"),
    "L4_4_1": Suite(_suite_L4_4_1, False, 1e-9, None,
                    "c j/(2(1+c)) <= log(1 + 2c sinh(j/2)) <= h_c <= c j "
                    "(upper step needs c >= 1)"),
    "L4_4_2": Suite(_suite_L4_4_2, False, 1e-9, None,
                    "(1-L)/(1+L) j <= h_c for pairs with |x-y| < L d(x), L sampled in (0,1)"),
    "C4_5": Suite(_suite_C4_5, True, 0.02, None,
                  "d k <= h_c <= c k with d = c/(2(1+c) U_hat), 2% relative slack"),
    "T4_6": Suite(_suite_T4_6, False, 1e-9, (UnitBall, HalfSpace),
                  "h_c/c <= rho_G <= 2 h_c on the ball / half-space models, c >= 2"),
    "QHJ": Suite(_suite_QHJ, True, 0.02, None, "k >= j within 2% relative slack"),
}

#: how a suite's domain requirement names each accepted class
_DOMAIN_NOUNS = {UnitBall: "ball", HalfSpace: "half-space"}


def inequality_suite(
    suite_id: str,
    domain: Domain,
    params: MetricParams,
    pair_count: int,
    seed: int,
    tolerance: float | None = None,
    k_controls: KControls | None = None,
    min_clearance: float = 1e-3,
    keep_slacks: bool = False,
) -> InequalityReport:
    """Run one named two-sided estimate over seeded samples.

    :data:`SUITES` holds each suite's statement, default tolerance and
    domain requirement; slack >= -tolerance on every sample means pass.
    """
    if suite_id not in SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; choose from {tuple(SUITES)}")
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    suite = SUITES[suite_id]
    if suite.domains is not None and not isinstance(domain, suite.domains):
        kinds = " or ".join(_DOMAIN_NOUNS[cls] for cls in suite.domains)
        raise ValueError(f"{suite_id} needs a {kinds} domain")
    rng = np.random.default_rng([seed, 1])
    args = (domain, params, pair_count, rng, min_clearance)
    if suite.needs_k:
        args += (k_controls if k_controls is not None else KControls(0.05, 1),)
    slacks, (xs, ys), extra = suite.run(*args)
    tol = suite.tolerance if tolerance is None else float(tolerance)
    worst = int(np.argmin(slacks))
    witness = (xs[worst], ys[worst])
    report_params = {"c": params.c}
    report_params.update(extra)
    return _make_report(
        suite_id, domain.spec_string(), report_params, seed,
        int(slacks.shape[0]), float(slacks[worst]), witness, tol,
        slacks=slacks if keep_slacks else None,
    )


# ---------------------------------------------------------------------------
# generic growth-bound checker
# ---------------------------------------------------------------------------


def growth_bound_constant(a: float, c: float) -> float:
    """The coefficient A = a/(2(1+c)) appearing when a j-growth bound with
    exponent a is transported to h_c; feed 1/A as ``coef`` to
    :func:`check_growth_bound`."""
    if not (0.0 < a <= 1.0):
        raise ValueError("exponent a must lie in (0, 1]")
    if not c > 0:
        raise ValueError("c must be positive")
    return a / (2.0 * (1.0 + c))


def check_growth_bound(
    source_metric: Callable,
    target_metric: Callable,
    coef: float,
    exponent: float,
    pairs: Sequence,
    tolerance: float = 1e-9,
    suite_id: str = "growth_bound",
) -> InequalityReport:
    """Check m_target(x, y) <= coef * max(m_source, m_source^exponent)
    on explicit pairs.  Both metrics are callables of (x, y); supply a
    mapped target (lambda x, y: m(f(x), f(y))) to exercise image bounds.
    """
    if not coef > 0:
        raise ValueError("coef must be positive")
    if not (0.0 < exponent <= 1.0):
        raise ValueError("exponent must lie in (0, 1]")
    pair_list = [(as_point(x), as_point(y)) for x, y in pairs]
    if not pair_list:
        raise ValueError("at least one pair is required")
    ms = np.array([float(source_metric(x, y)) for x, y in pair_list])
    mt = np.array([float(target_metric(x, y)) for x, y in pair_list])
    bound = coef * np.maximum(ms, np.power(ms, exponent))
    slacks = bound - mt
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(bound > 0, mt / np.where(bound > 0, bound, 1.0), np.inf)
        ratios = np.where((bound == 0) & (mt == 0), 0.0, ratios)
    worst = int(np.argmin(slacks))
    witness = (pair_list[worst][0], pair_list[worst][1])
    return _make_report(
        suite_id, "pairs", {"coef": coef, "exponent": exponent,
                            "worst_ratio": float(np.max(ratios))},
        0, len(pair_list), float(slacks[worst]), witness, tolerance,
        slacks=slacks,
    )


# ---------------------------------------------------------------------------
# uniformity constant
# ---------------------------------------------------------------------------


def uniformity_estimate(
    domain: Domain,
    pair_count: int,
    seed: int,
    k_controls: KControls | None = None,
    min_clearance: float = 0.2,
    j_floor: float = 1e-6,
) -> UniformityEstimate:
    """U_hat = max over sampled pairs of k_estimate / j (pairs with j
    above ``j_floor`` only).  Finite stable values are expected exactly
    on uniform domains.

    A quarter of the pairs put both endpoints at matched clearance in
    [min_clearance, 2 min_clearance]: widely separated equal-clearance
    pairs approach the k/j supremum, and sampling that family directly
    keeps the reported max stable across seeds instead of depending on
    rare corners of the uniform law.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    controls = k_controls if k_controls is not None else KControls(0.1, 1)
    rng = np.random.default_rng([seed, 2])
    n_edge = pair_count // 4 if domain.boundary_stratum else 0
    xs, ys = _suite_pairs(domain, pair_count - n_edge, rng, min_clearance)
    if n_edge:
        lo, hi = min_clearance, 2.0 * min_clearance
        xs = np.concatenate([xs, domain.boundary_sample(n_edge, rng, lo, hi)])
        ys = np.concatenate([ys, domain.boundary_sample(n_edge, rng, lo, hi)])
    j = metrics.j_many(domain, xs, ys)
    valid = j > j_floor
    if not np.any(valid):
        raise ValueError("all sampled pairs fall below the j floor")
    xs, ys, j = xs[valid], ys[valid], j[valid]
    k_hat = k_estimate_many(domain, xs, ys, controls)
    ratios = k_hat / j
    worst = int(np.argmax(ratios))
    return UniformityEstimate(
        U_hat=float(ratios[worst]),
        sample_count=int(j.shape[0]),
        worst_pair=(tuple(map(float, xs[worst])), tuple(map(float, ys[worst]))),
    )

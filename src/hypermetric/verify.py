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
  j, phi, the model hyperbolic metrics and the quasihyperbolic metric k,
  each reduced to a per-sample slack with pass defined as
  min_slack >= -tolerance.

k is ``Domain.k_exact`` wherever it is finite, which is every built-in
domain, and the shortest-path estimate elsewhere (``GenericDomain``);
each report that reads k names its source.  Tolerances: 1e-9 absolute
for closed-form inequalities (1e-10 for the identity/sandwich and
Moebius-distortion suites, 1e-12 for plain triangle-inequality facts),
2% relative in the k suites, where the estimator may participate (each
suite's default is in :data:`SUITES`).  This separates formula rounding
from discretization error.

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
from typing import Callable, NamedTuple

import numpy as np

from . import metrics, moebius
from .domains import (
    Domain,
    HalfSpace,
    UnitBall,
    distance_to_set_many,
    sample_complement,
    sample_interior,
    unit_directions,
)
from .metrics import MetricKind, MetricParams
from .quasihyperbolic import KControls, k_many

_CHUNK = 20_000
_EPS = np.finfo(float).eps

#: clearance of the points the closed-form suites sample
_SUITE_CLEARANCE = 1e-3
#: clearance of the pairs whose k is read; a coarse lattice estimates a GenericDomain's k there
_K_CLEARANCE = 0.2
#: pairs with j at or below this are degenerate for the k/j ratios
_J_FLOOR = 1e-6

#: strata proportions for triangle scans
_FRAC_UNIFORM, _FRAC_BOUNDARY, _FRAC_COLLINEAR = 0.60, 0.25, 0.15

# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------


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
                 tolerance, slacks=None) -> InequalityReport:
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
    )


@dataclass
class UniformityEstimate:
    """The largest sampled k/j: a lower bound on sup k/j over the sampled
    region, not the uniformity constant.  ``k_source`` names where k came
    from: "exact" (``Domain.k_exact``, every built-in domain) carries no
    estimator error, "estimate" (the lattice, ``GenericDomain``) carries
    the estimator's, and "mixed" both."""

    U_hat: float
    sample_count: int
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]]
    k_source: str


# ---------------------------------------------------------------------------
# stratified triple sampling
# ---------------------------------------------------------------------------


def _collinear_triples(domain: Domain, m: int, rng: np.random.Generator):
    """Triples x, y on a common line through z, biased toward the boundary."""
    n = domain.dimension
    z = sample_interior(domain, m, rng)
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
    n_col = int(round(_FRAC_COLLINEAR * size)) if domain.boundary_strata else 0
    n_uni = size - n_bdy - n_col
    xs = [sample_interior(domain, n_uni, rng)]
    ys = [sample_interior(domain, n_uni, rng)]
    zs = [sample_interior(domain, n_uni, rng)]
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
    tolerance: float | None = None,
    keep_slacks: bool = False,
) -> InequalityReport:
    """Minimum triangle slack of a distance over stratified random triples.

    For each triple all three rotations of m(a,c) <= m(a,b) + m(b,c) are
    evaluated and the smallest slack is kept; pass means slack >=
    -tolerance (default 1e-9).  Triples with two coincident points stay
    out of the minimum and the witness.
    """
    if triple_count < 1:
        raise ValueError("triple_count must be >= 1")
    evaluate = metrics.pair_kernel(metric, domain, params)

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
        # a collinear x or y at z (no chord reach, or the guard) has slack 0;
        # columns one by one, as all(axis=1) on 2 or 3 columns is 4x slower
        same = [np.logical_and.reduce([a[:, k] == b[:, k] for k in range(a.shape[1])])
                for a, b in ((x, y), (x, z), (y, z))]
        i = int(np.argmin(np.where(np.logical_or.reduce(same), np.inf, slack)))
        return (float(slack[i]), chunk_idx, i, (x[i], y[i], z[i]),
                slack if keep_slacks else None)

    results = [worker(i, min(_CHUNK, triple_count - start))
               for i, start in enumerate(range(0, triple_count, _CHUNK))]
    best = min(results, key=lambda r: (r[0], r[1], r[2]))
    slacks = np.concatenate([r[4] for r in results]) if keep_slacks else None
    report_params = {"metric": metric.value}
    if metric is MetricKind.H:
        report_params["c"] = params.c
    return _make_report(
        "triangle", domain.spec_string(), report_params, seed, triple_count,
        best[0], best[3], 1e-9 if tolerance is None else tolerance, slacks=slacks,
    )


# ---------------------------------------------------------------------------
# targeted falsifiers
# ---------------------------------------------------------------------------


@dataclass
class CollinearViolation:
    """h_c fails on (r e1, 0, -r e1) in the plane ball exactly for r in
    (r_star, 1), r_star rounded.  ``r`` is a double witness there, with
    lhs = 2 h_c(0, r e1) < rhs = h_c(-r e1, r e1); all three are None
    where no double witness is confirmed (c near 2)."""

    r: float | None
    lhs: float | None
    rhs: float | None
    r_star: float


def collinear_c_scan(c: float) -> CollinearViolation | None:
    """h_c's triangle failures on (r e1, 0, -r e1) in the plane ball, in
    closed form; None for c >= 2, where h_c is a metric.

    With d = 1 - r the failure 2 h_c(0, r e1) < h_c(-r e1, r e1) reads
    2 sqrt(d) + c r < 2: it holds exactly for r > r* = 1 - min(u, 1)^2,
    u = (2 - c)/c.  The witness r = fl(1 - min(u, 1)^2 / 2) >= 1/2 has an
    exact d (Sterbenz), so the printed r is the double checked.  Both
    checks keep a rounding margin (eps = 2^-52): h_kernel's values, each
    within 3 eps relatively, give rhs - lhs > 8 eps rhs, and three
    roundings bound 2 sqrt(d) + c r - 2 < -4 eps.  Above about
    c = 2 - 2.11e-8 no double lies in (r*, 1): the result names r* alone.
    """
    _require(math.isfinite(c) and c > 0, f"c must be a positive real, got {c}")
    if c >= 2.0:
        return None
    u2 = min((2.0 - c) / c, 1.0) ** 2
    r = 1.0 - 0.5 * u2
    d = 1.0 - r
    if d > 0.0:
        lhs = 2.0 * float(metrics.h_kernel(r, 1.0, d, c))
        rhs = float(metrics.h_kernel(2.0 * r, d, d, c))
        if rhs - lhs > 8 * _EPS * rhs and 2.0 * math.sqrt(d) + c * r - 2.0 < -4 * _EPS:
            return CollinearViolation(r, lhs, rhs, 1.0 - u2)
    return CollinearViolation(None, None, None, 1.0 - u2)


@dataclass
class PhiViolation:
    t: float
    lhs: float   # 2 phi(t e1, 0)
    rhs: float   # phi(t e1, -t e1)


def phi_triangle_counterexample(t_grid) -> PhiViolation:
    """First t on the grid with 2 phi(t e1, 0) < phi(t e1, -t e1) in the
    plane ball; raises when the grid contains no violation."""
    t = np.asarray(t_grid, dtype=float)
    _require(t.size > 0, "t grid must be nonempty")
    _require(bool(np.all((t > 0.0) & (t < 1.0))), "t grid values must lie strictly inside (0, 1)")
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
                 min_clearance: float = _SUITE_CLEARANCE):
    xs = sample_interior(domain, count, rng, min_clearance=min_clearance)
    ys = sample_interior(domain, count, rng, min_clearance=min_clearance)
    same = np.all(xs == ys, axis=1)
    if np.any(same):
        ys[same] = sample_interior(domain, int(np.sum(same)), rng,
                                   min_clearance=min_clearance)
    return xs, ys


def _ball_centers(count: int, rng: np.random.Generator, n: int) -> np.ndarray:
    dirs = unit_directions(n, count, rng)
    radii = 0.8 * rng.random(count) ** (1.0 / n)
    centers = dirs * radii[:, None]
    centers[0] = 0.0  # include the identity automorphism
    return centers


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _suite_P2_3_1(domain, params, count, rng):
    xs, ys = _suite_pairs(domain, count, rng)
    rho = metrics.rho_halfspace_many(xs, ys)
    lhs = 2.0 * np.sinh(0.5 * rho)  # = sqrt(2 (cosh rho - 1))
    rhs = np.expm1(metrics.h_many(domain, xs, ys, params.c)) / params.c
    slacks = -np.abs(lhs - rhs)
    return slacks, (xs, ys), {}


def _suite_P2_3_2(domain, params, count, rng):
    xs, ys = _suite_pairs(domain, count, rng)
    s = np.sinh(0.5 * metrics.rho_ball_many(xs, ys))
    u = np.expm1(metrics.h_many(domain, xs, ys, params.c)) / params.c
    slacks = np.minimum(u - s, 2.0 * s - u)
    return slacks, (xs, ys), {}


def _moebius_distortion(domain, params, count, rng, to_halfspace):
    xs, ys = _suite_pairs(domain, count, rng)
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


def _suite_P2_8(domain, params, count, rng):
    c = params.c
    t = np.logspace(-6.0, math.log10(50.0), count)
    f = metrics.comparison_f(t, c)
    slacks = np.minimum(f - c / (2.0 * (1.0 + c)) * t, c * t - f)
    return slacks, (t.reshape(-1, 1), t.reshape(-1, 1)), {"t_min": 1e-6, "t_max": 50.0}


def _suite_L2_9(domain, params, count, rng):
    xs, ys = _suite_pairs(domain, count, rng)
    geom = metrics.pair_geometry(domain, xs, ys)
    j = metrics.j_kernel(*geom)
    phi = metrics.phi_kernel(*geom)
    slacks = np.minimum(phi - 0.5 * j, 2.0 * j - phi)
    return slacks, (xs, ys), {}


def _suite_C2_10(domain, params, count, rng):
    xs, ys = _suite_pairs(domain, count, rng)
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


def _suite_L3_1(domain, params, count, rng):
    point_set = sample_complement(domain, 8, int(rng.integers(2**32)))
    xs, ys = _suite_pairs(domain, count, rng)
    da_x = distance_to_set_many(xs, point_set)
    da_y = distance_to_set_many(ys, point_set)
    rho = metrics.separation(xs, ys)
    slacks = rho - np.abs(da_x - da_y)
    return slacks, (xs, ys), {"set_size": int(point_set.points.shape[0])}


def _suite_L4_4_1(domain, params, count, rng):
    c = params.c
    xs, ys = _suite_pairs(domain, count, rng)
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


def _suite_L4_4_2(domain, params, count, rng):
    c = params.c
    xs = sample_interior(domain, count, rng, min_clearance=_SUITE_CLEARANCE)
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


def _k_pairs(domain, count, rng, k_controls):
    """Pairs at clearance >= _K_CLEARANCE with j above the floor: xs, ys,
    their k (``k_many``), (|x - y|, d(x), d(y)) and the k source."""
    xs, ys = _suite_pairs(domain, count, rng, _K_CLEARANCE)
    k_hat, source = k_many(domain, xs, ys, k_controls)
    geom = metrics.pair_geometry(domain, xs, ys)
    valid = metrics.j_kernel(*geom) > _J_FLOOR
    _require(bool(np.any(valid)), "all sampled pairs are degenerate (j ~ 0)")
    return xs[valid], ys[valid], k_hat[valid], tuple(g[valid] for g in geom), source


def _suite_C4_5(domain, params, count, rng, k_controls):
    c = params.c
    xs, ys, k_hat, geom, source = _k_pairs(domain, count, rng, k_controls)
    h = metrics.h_kernel(*geom, c)
    u_hat = float(np.max(k_hat / metrics.j_kernel(*geom)))
    d_const = c / (2.0 * (1.0 + c) * u_hat)
    slacks = np.minimum((h - d_const * k_hat) / h, (c * k_hat - h) / h)
    return slacks, (xs, ys), {"u_hat": u_hat, "d_constant": d_const, "relative": True,
                              "k_source": source}


def _suite_T4_6(domain, params, count, rng):
    c = params.c
    _require(c >= 2.0, "T4_6 requires c >= 2")
    rho_fn = (metrics.rho_ball_many if isinstance(domain, UnitBall)
              else metrics.rho_halfspace_many)
    xs, ys = _suite_pairs(domain, count, rng)
    rho = rho_fn(xs, ys)
    h = metrics.h_many(domain, xs, ys, c)
    slacks = np.minimum(rho - h / c, 2.0 * h - rho)
    return slacks, (xs, ys), {}


def _suite_QHJ(domain, params, count, rng, k_controls):
    xs, ys, k_hat, geom, source = _k_pairs(domain, count, rng, k_controls)
    j = metrics.j_kernel(*geom)
    return (k_hat - j) / j, (xs, ys), {"relative": True, "k_source": source}


class Suite(NamedTuple):
    """One named estimate and its contract.

    ``run(domain, params, count, rng[, k_controls])`` returns (slacks, (xs, ys), extra report params); ``domains`` is the
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
                  "d k <= h_c <= c k with d = c/(2(1+c) U_hat), k exact on the built-in "
                  "domains, 2% relative slack"),
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
    keep_slacks: bool = False,
) -> InequalityReport:
    """Run one named two-sided estimate over seeded samples.

    :data:`SUITES` holds each suite's statement, default tolerance and
    domain requirement; slack >= -tolerance on every sample means pass.
    The k suites default to ``KControls()``, as ``verify-suite`` does.
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
    args = (domain, params, pair_count, rng)
    if suite.needs_k:
        args += (k_controls if k_controls is not None else KControls(),)
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
# uniformity constant
# ---------------------------------------------------------------------------


def uniformity_estimate(
    domain: Domain,
    pair_count: int,
    seed: int,
    k_controls: KControls | None = None,
) -> UniformityEstimate:
    """U_hat = max over sampled pairs of k / j (pairs with j above 1e-6
    only), a lower bound on sup k/j, not the uniformity constant (see
    :class:`UniformityEstimate`).  k is ``Domain.k_exact`` where it is
    finite, so a built-in domain's U_hat carries no estimator error, and
    the estimate at ``k_controls`` on the other pairs.  Finite stable
    values are expected exactly on uniform domains.

    Pairs keep clearance >= 0.2.  On a domain with boundary strata a
    quarter of the pairs put both endpoints at matched clearance in
    [0.2, 0.4]: widely separated equal-clearance pairs approach the k/j
    supremum, and sampling that family directly keeps the reported max
    stable across seeds instead of depending on rare corners of the
    uniform law.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    controls = k_controls if k_controls is not None else KControls(0.1, 1)
    rng = np.random.default_rng([seed, 2])
    n_edge = pair_count // 4 if domain.boundary_strata else 0
    xs, ys = _suite_pairs(domain, pair_count - n_edge, rng, _K_CLEARANCE)
    if n_edge:
        lo, hi = _K_CLEARANCE, 2.0 * _K_CLEARANCE
        xs = np.concatenate([xs, domain.boundary_sample(n_edge, rng, lo, hi)])
        ys = np.concatenate([ys, domain.boundary_sample(n_edge, rng, lo, hi)])
    j = metrics.j_many(domain, xs, ys)
    valid = j > _J_FLOOR
    if not np.any(valid):
        raise ValueError("all sampled pairs fall below the j floor")
    xs, ys, j = xs[valid], ys[valid], j[valid]
    k_hat, source = k_many(domain, xs, ys, controls)
    ratios = k_hat / j
    worst = int(np.argmax(ratios))
    return UniformityEstimate(
        U_hat=float(ratios[worst]),
        sample_count=int(j.shape[0]),
        worst_pair=(tuple(map(float, xs[worst])), tuple(map(float, ys[worst]))),
        k_source=source,
    )

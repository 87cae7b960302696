"""Closed forms against 50-digit references, and their symmetries.

Each reference is evaluated with mpmath from the same float inputs the
library sees, so a measured error is the library's own rounding.  Stated
relative bounds, with eps = 2^-52 and d_min the smaller true clearance of
the pair:

* half-space: the clearance x_n is exact, so h, j, phi and rho_H stay
  within 4 eps at every clearance;
* ball: 1 - |x| (and 1 - |x|^2 in rho_B) is formed from a rounded |x|, an
  absolute error of about eps and so a relative error of eps/d near the
  boundary.  h, j and rho_B pass it on once and phi, which squares its
  ratio, twice: the bound is 4 eps (1 + 1/d_min).  About 12 digits of h
  survive at clearance 1e-4 and about 4 at 1e-12.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermetric.domains import HalfSpace, UnitBall
from hypermetric.metrics import (
    MetricParams,
    h_metric,
    h_many,
    j_metric,
    j_many,
    phi_many,
    phi_quantity,
    rho_ball,
    rho_ball_many,
    rho_halfspace,
    rho_halfspace_many,
)
from hypermetric.moebius import BallAutomorphism, BallToHalfSpace

EPS = float(np.finfo(float).eps)
B2, H2 = UnitBall(2), HalfSpace(2)
C = 2.0
DECADES = range(1, 13)
PAIRS_PER_DECADE = 30

mp.mp.dps = 50


def _mp(p):
    return [mp.mpf(float(v)) for v in p]


def _ref_clearance(domain, p):
    if isinstance(domain, UnitBall):
        return 1 - mp.sqrt(sum(v * v for v in _mp(p)))
    return _mp(p)[-1]


def reference(kind, domain, x, y):
    """50-digit value of ``kind`` at the float points x, y."""
    x, y = _mp(x), _mp(y)
    q = mp.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    if kind == "rho_B":
        nx2, ny2 = sum(v * v for v in x), sum(v * v for v in y)
        return 2 * mp.asinh(q / mp.sqrt((1 - nx2) * (1 - ny2)))
    if kind == "rho_H":
        return mp.acosh(1 + q * q / (2 * x[-1] * y[-1]))
    dx, dy = _ref_clearance(domain, x), _ref_clearance(domain, y)
    if kind == "h":
        return mp.log(1 + C * q / mp.sqrt(dx * dy))
    if kind == "j":
        return mp.log(1 + q / min(dx, dy))
    r = q / mp.sqrt(dx * dy)
    return mp.log(1 + max(r, r * r))


def library(kind, domain, xs, ys):
    if kind == "h":
        return h_many(domain, xs, ys, C)
    if kind == "j":
        return j_many(domain, xs, ys)
    if kind == "phi":
        return phi_many(domain, xs, ys)
    if kind == "rho_B":
        return rho_ball_many(xs, ys)
    return rho_halfspace_many(xs, ys)


def decade_pairs(domain, decade):
    """x at clearance 10^-decade; y near x at a like clearance, far away at
    the same clearance, or deep inside (clearance 0.5), a third each."""
    rng = np.random.default_rng([7, decade])
    d, m = 10.0 ** -decade, PAIRS_PER_DECADE
    kind = np.arange(m) % 3
    near = kind == 0
    d_y = np.where(kind == 2, 0.5, d * np.where(near, rng.uniform(0.5, 2.0, m), 1.0))
    if isinstance(domain, UnitBall):
        ang = rng.uniform(0.0, 2.0 * np.pi, m)
        ang_y = np.where(near, ang + d * rng.uniform(-3.0, 3.0, m),
                         rng.uniform(0.0, 2.0 * np.pi, m))
        xs = (1.0 - d) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ys = (1.0 - d_y)[:, None] * np.stack([np.cos(ang_y), np.sin(ang_y)], axis=1)
    else:
        s = rng.uniform(-1.0, 1.0, m)
        s_y = np.where(near, s + d * rng.uniform(-3.0, 3.0, m), rng.uniform(-1.0, 1.0, m))
        xs = np.stack([s, np.full(m, d)], axis=1)
        ys = np.stack([s_y, d_y], axis=1)
    return xs, ys


def relative_errors(kind, domain, xs, ys):
    values = library(kind, domain, xs, ys)
    refs = [reference(kind, domain, x, y) for x, y in zip(xs, ys)]
    return np.array([float(abs((mp.mpf(float(v)) - r) / r)) for v, r in zip(values, refs)])


@pytest.mark.parametrize("decade", DECADES)
@pytest.mark.parametrize("kind", ["h", "j", "phi", "rho_H"])
def test_halfspace_closed_forms_match_reference(kind, decade):
    xs, ys = decade_pairs(H2, decade)
    assert np.max(relative_errors(kind, H2, xs, ys)) <= 4 * EPS


@pytest.mark.parametrize("decade", DECADES)
@pytest.mark.parametrize("kind", ["h", "j", "phi", "rho_B"])
def test_ball_closed_forms_match_reference(kind, decade):
    xs, ys = decade_pairs(B2, decade)
    d_min = np.array([float(min(_ref_clearance(B2, x), _ref_clearance(B2, y)))
                      for x, y in zip(xs, ys)])
    errors = relative_errors(kind, B2, xs, ys)
    assert np.all(errors <= 4 * EPS * (1.0 + 1.0 / d_min))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

angles = st.floats(0.0, 2.0 * math.pi)
ball_points = st.builds(
    lambda d, t: (1.0 - d) * np.array([math.cos(t), math.sin(t)]),
    st.floats(1e-12, 1.0), angles,
)
halfspace_points = st.builds(
    lambda s, t: np.array([s, t]), st.floats(-10.0, 10.0), st.floats(1e-12, 10.0),
)


@PROPERTY
@given(ball_points, ball_points)
def test_symmetry_on_ball(x, y):
    params = MetricParams(C)
    assert h_metric(B2, params, x, y) == h_metric(B2, params, y, x)
    assert j_metric(B2, x, y) == j_metric(B2, y, x)
    assert phi_quantity(B2, x, y) == phi_quantity(B2, y, x)
    assert rho_ball(x, y) == rho_ball(y, x)


@PROPERTY
@given(ball_points, ball_points)
def test_rho_ball_matches_its_tanh_form(x, y):
    # tanh(rho/2) = q / sqrt(q^2 + p) with p = (1 - |x|^2)(1 - |y|^2), so
    # rho = 2 log(A + q) - log p with A = hypot(q, sqrt(p)); p is formed
    # as rho_ball_many forms it, whose rounding near the boundary the
    # 50-digit tests above bound
    xs, ys = x[None, :], y[None, :]
    nx, ny = np.linalg.norm(xs, axis=1), np.linalg.norm(ys, axis=1)
    q = np.linalg.norm(xs - ys, axis=1)
    p = ((1.0 - nx) * (1.0 + nx)) * ((1.0 - ny) * (1.0 + ny))
    rho_tanh = 2.0 * np.log(np.hypot(q, np.sqrt(p)) + q) - np.log(p)
    rho = rho_ball_many(xs, ys)
    assert abs(rho - rho_tanh)[0] <= 1e-12 * max(1.0, rho[0])


@PROPERTY
@given(halfspace_points, halfspace_points)
def test_symmetry_on_halfspace(x, y):
    params = MetricParams(C)
    assert h_metric(H2, params, x, y) == h_metric(H2, params, y, x)
    assert j_metric(H2, x, y) == j_metric(H2, y, x)
    assert phi_quantity(H2, x, y) == phi_quantity(H2, y, x)
    assert rho_halfspace(x, y) == rho_halfspace(y, x)


def _isometry_bound(rho, d_min):
    """Rounding of an isometry check: each point's position error (eps)
    moves rho by at most 2/d per unit."""
    return 8 * EPS * (1.0 + rho) * (1.0 + 1.0 / d_min)


@PROPERTY
@given(ball_points, ball_points, st.floats(1e-12, 0.9), angles)
def test_ball_automorphism_preserves_rho_ball(x, y, r, t):
    g = BallAutomorphism(r * np.array([math.cos(t), math.sin(t)]))
    assert g.target == g.source == B2
    gx, gy = g.apply_many(np.stack([x, y]))
    rho = rho_ball(x, y)
    d_min = float(np.min(B2.clearance_many(np.stack([x, y, gx, gy]))))
    assert abs(rho_ball(gx, gy) - rho) <= _isometry_bound(rho, d_min)


@pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
def test_ball_automorphism_with_center_near_the_sphere(r):
    # pairs near the sphere around a/|a|, where a numerator expanded as
    # (1 - |a|^2) x - 2 (x.u) u + (1 + |x|^2) a cancels to a few percent
    # of its terms and misses this bound by a factor 3 at |a| = 0.99
    rng = np.random.default_rng(11)
    t = 2.0 * math.pi * rng.random()
    g = BallAutomorphism(r * np.array([math.cos(t), math.sin(t)]))
    d = 10.0 ** rng.uniform(-12.0, -1.0, (2, 4000))
    s = t + rng.uniform(-0.3, 0.3, (2, 4000))
    xs, ys = ((1.0 - d)[..., None] * np.stack([np.cos(s), np.sin(s)], axis=-1))
    rho = rho_ball_many(xs, ys)
    gx, gy = g.apply_many(xs), g.apply_many(ys)
    d_min = np.min([B2.clearance_many(p) for p in (xs, ys, gx, gy)], axis=0)
    assert np.all(np.abs(rho_ball_many(gx, gy) - rho) <= _isometry_bound(rho, d_min))


@PROPERTY
@given(ball_points, ball_points)
def test_ball_to_halfspace_carries_rho_ball_to_rho_halfspace(x, y):
    f = BallToHalfSpace(2)
    assert (f.source, f.target) == (B2, H2)
    fx, fy = f.apply_many(np.stack([x, y]))
    assert f.target.contains(fx) and f.target.contains(fy)
    rho = rho_ball(x, y)
    d_min = float(np.min(B2.clearance_many(np.stack([x, y]))))
    assert abs(rho_halfspace(fx, fy) - rho) <= _isometry_bound(rho, d_min)


def test_small_center_image():
    a = np.array([1e-10, 0.0])
    x = (1.0 - 1e-12) * np.array([0.6, 0.8])
    # the same inversion, pole + (|pole|^2 - 1)(x - pole)/|x - pole|^2, in 50 digits
    s = sum(v * v for v in _mp(a))
    pole = [v / s for v in _mp(a)]
    diff = [xi - p for xi, p in zip(_mp(x), pole)]
    scale = (1 - s) / s / sum(v * v for v in diff)
    exact = np.array([float(p + scale * v) for p, v in zip(pole, diff)])
    assert np.max(np.abs(BallAutomorphism(a).apply(x) - exact)) <= 1e-12
    # as a -> 0 the map tends to the reflection in the hyperplane normal
    # to a, also where |a|^2 underflows (1e-160)
    for tiny in (1e-160, 1.2e-38):
        image = BallAutomorphism(np.array([tiny, 0.0])).apply(np.array([0.3, 0.4]))
        assert np.max(np.abs(image - np.array([-0.3, 0.4]))) <= 1e-15

"""Closed forms against 50-digit references, and their symmetries.

Each reference is evaluated with mpmath from the same float inputs the
library sees, so a measured error is the library's own rounding.  Stated
relative bounds, with eps = 2^-52 and d_min the smaller true clearance of
the pair:

* half-space: the clearance x_n is exact, so h, j, phi and rho_H stay
  within 4 eps at every clearance, also below 1e-162 where the product
  of two clearances underflows;
* ball: 1 - |x| (and 1 - |x|^2 in rho_B) is formed from a rounded |x|, an
  absolute error of about eps and so a relative error of eps/d near the
  boundary.  h, j and rho_B pass it on once and phi, which squares its
  ratio, twice: the bound is 4 eps (1 + 1/d_min).  About 12 digits of h
  survive at clearance 1e-4 and about 4 at 1e-12;
* both: the same bounds at separations from 1e-160 to 1e-300, whose
  squares underflow.  These references carry enough digits to hold
  1 + |x - y|;
* punctured space: the exact k = sqrt(theta^2 + log^2(|x|/|y|)) carries
  an absolute error of about eps in each rescaled point, and so a
  relative error of about eps/theta in theta: the bound is
  4 eps (1 + 1/theta) at every angle, up to pi;
* radii and separations from 1e-200 to 1e300, whose sums of squares
  underflow or overflow: the clearance |x| of the punctured space within
  2 eps, and h, j, phi and rho_H within 8 eps, where each norm divides by
  the largest coordinate before it squares.  Every test here runs with
  RuntimeWarnings as errors (``pyproject.toml``).

The sharpness witness of ``collinear_c_scan`` is checked in 50 digits
at the double c and r it reports.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermetric.domains import HalfSpace, PuncturedSpace, UnitBall
from hypermetric.metrics import (
    MetricParams,
    h_kernel,
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
from hypermetric.verify import collinear_c_scan

EPS = float(np.finfo(float).eps)
B2, H2 = UnitBall(2), HalfSpace(2)
C = 2.0
DECADES = range(1, 13)
PAIRS_PER_DECADE = 30

mp.mp.dps = 50


def _mp(p):
    return [mp.mpf(float(v)) for v in p]


def _mp_norm(p):
    return mp.sqrt(sum(v * v for v in _mp(p)))


def _ref_clearance(domain, p):
    if isinstance(domain, UnitBall):
        return 1 - _mp_norm(p)
    if isinstance(domain, PuncturedSpace):
        return _mp_norm(p)
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


def underflow_pairs(decade):
    """x at clearance 10^-decade; y far away at a like clearance or at
    clearance 1e-300, so every product of the two clearances underflows."""
    rng = np.random.default_rng([9, decade])
    d, m = 10.0 ** -decade, PAIRS_PER_DECADE
    d_y = np.where(np.arange(m) % 2 == 0, d * rng.uniform(0.5, 2.0, m), 1e-300)
    xs = np.stack([rng.uniform(-1.0, 1.0, m), np.full(m, d)], axis=1)
    ys = np.stack([rng.uniform(-1.0, 1.0, m), d_y], axis=1)
    return xs, ys


@pytest.mark.parametrize("decade", [170, 200, 250, 300])
@pytest.mark.parametrize("kind", ["h", "j", "phi", "rho_H"])
def test_halfspace_closed_forms_where_clearance_products_underflow(kind, decade):
    xs, ys = underflow_pairs(decade)
    assert np.max(relative_errors(kind, H2, xs, ys)) <= 4 * EPS
    if kind != "rho_H":
        assert np.all(library(kind, H2, xs, xs) == 0.0)


def tiny_separation_pairs(domain, decade):
    """Pairs about 10^-decade apart, so that the square of the separation
    underflows.  On the half-space, half of them lie at a like clearance
    and half at clearance 1; on the ball they lie near the centre."""
    rng = np.random.default_rng([11, decade])
    d, m = 10.0 ** -decade, PAIRS_PER_DECADE
    xs, ys = d * rng.uniform(0.5, 2.0, (2, m, 2))
    if isinstance(domain, HalfSpace):
        xs[:, 0] = 0.0
        xs[m // 2:, 1] = ys[m // 2:, 1] = 1.0
    return xs, ys


def test_tiny_separation_examples():
    x, y = (0.0, 1e-200), (1e-200, 1e-200)
    assert h_metric(H2, MetricParams(C), x, y) == pytest.approx(math.log(3), rel=4 * EPS)
    assert rho_halfspace(x, y) == pytest.approx(math.acosh(1.5), rel=4 * EPS)
    assert j_metric(H2, x, y) == pytest.approx(math.log(2), rel=4 * EPS)


@pytest.mark.parametrize("decade", [160, 200, 250, 300])
@pytest.mark.parametrize("domain, kinds", [(H2, ["h", "j", "phi", "rho_H"]),
                                           (B2, ["h", "j", "phi", "rho_B"])],
                         ids=["halfspace:2", "ball:2"])
def test_closed_forms_where_separation_squares_underflow(domain, kinds, decade):
    # the clearances are exact or 1, so the bound is 4 eps (1 + 1/d_min)
    # at d_min = 1 on the ball; 1 + 10^-decade needs decade digits
    xs, ys = tiny_separation_pairs(domain, decade)
    bound = 8 * EPS if domain is B2 else 4 * EPS
    for kind in kinds:
        with mp.workdps(2 * decade + 50):
            assert np.max(relative_errors(kind, domain, xs, ys)) <= bound, kind
        assert np.all(library(kind, domain, xs, xs) == 0.0)


@pytest.mark.parametrize("decade", DECADES)
@pytest.mark.parametrize("kind", ["h", "j", "phi", "rho_B"])
def test_ball_closed_forms_match_reference(kind, decade):
    xs, ys = decade_pairs(B2, decade)
    d_min = np.array([float(min(_ref_clearance(B2, x), _ref_clearance(B2, y)))
                      for x, y in zip(xs, ys)])
    errors = relative_errors(kind, B2, xs, ys)
    assert np.all(errors <= 4 * EPS * (1.0 + 1.0 / d_min))


def punctured_pairs(dimension):
    """Pairs at angles from 1e-12 to pi - 1e-9, log-spaced towards both
    ends, and radius ratios in [0.5, 2], in a random plane."""
    rng = np.random.default_rng([13, dimension])
    small = 10.0 ** np.linspace(-12.0, 0.0, 25)
    thetas = np.concatenate([small, math.pi - 10.0 ** np.linspace(-9.0, -0.5, 18),
                             rng.uniform(0.1, math.pi - 0.1, 15)])
    e1, e2 = np.linalg.qr(rng.normal(size=(dimension, 2)))[0].T
    rx = rng.uniform(0.5, 1.5, thetas.size)
    ry = rx * np.exp(rng.uniform(-math.log(2.0), math.log(2.0), thetas.size))
    xs = rx[:, None] * e1
    ys = ry[:, None] * (np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2)
    return xs, ys


def punctured_reference(x, y):
    """50-digit k and theta at the float points x, y."""
    x, y = _mp(x), _mp(y)
    nx, ny = mp.sqrt(sum(v * v for v in x)), mp.sqrt(sum(v * v for v in y))
    dot = sum(a * b for a, b in zip(x, y))
    theta = mp.atan2(mp.sqrt(max(nx * nx * ny * ny - dot * dot, 0)), dot)
    return mp.sqrt(theta ** 2 + mp.log(nx / ny) ** 2), theta


@pytest.mark.parametrize("dimension", [2, 3])
def test_punctured_oracle_matches_reference(dimension):
    xs, ys = punctured_pairs(dimension)
    for x, y, value in zip(xs, ys, PuncturedSpace(dimension).k_exact(xs, ys)):
        k, theta = punctured_reference(x, y)
        error = float(abs((mp.mpf(value) - k) / k))
        assert error <= 4 * EPS * (1.0 + 1.0 / float(theta)), (x, y)


def test_punctured_oracle_examples():
    p2, p3 = PuncturedSpace(2), PuncturedSpace(3)
    assert p2.k_exact([(1, 0)], [(1, 1e-9)])[0] == pytest.approx(1e-9, rel=4 * EPS)
    assert p3.k_exact([(1, 0, 0)], [(1, 1e-12, 0)])[0] == pytest.approx(1e-12, rel=4 * EPS)
    assert p2.k_exact([(1, 0)], [(-1, 1e-9)])[0] == pytest.approx(math.pi - 1e-9, rel=4 * EPS)
    with pytest.raises(ValueError, match="inside the domain"):
        p2.k_exact([(0, 0)], [(1, 0)])


# ---------------------------------------------------------------------------
# norms whose sums of squares underflow or overflow
# ---------------------------------------------------------------------------

P2 = PuncturedSpace(2)
#: normal radii whose squares underflow (to a subnormal or to 0) or
#: overflow; a subnormal norm itself carries only a few digits
EXTREME_SCALES = [1e-200, 1e-160, 1e155, 1e200, 1e300]


@pytest.mark.parametrize("x", [(1e-200, 0.0), (3e-160, 4e-160), (1e155, 0.0),
                               (-1e300, 1e300), (0.0, 1e-320), (0.0, 0.0)])
def test_punctured_clearance_where_squares_underflow_or_overflow(x):
    assert P2.clearance_many(np.array([x]))[0] == pytest.approx(float(_mp_norm(x)), rel=2 * EPS,
                                                                abs=0.0)


def test_extreme_radius_examples():
    params = MetricParams(C)
    x, y = (1e155, 0.0), (-1e155, 0.0)
    assert h_metric(P2, params, x, y) == pytest.approx(math.log(5), rel=4 * EPS)
    assert phi_quantity(P2, x, y) == pytest.approx(math.log(5), rel=4 * EPS)
    assert j_metric(P2, x, y) == pytest.approx(math.log(3), rel=4 * EPS)
    x, y = (0.0, 1.0), (1e160, 1.0)
    assert h_metric(H2, params, x, y) == pytest.approx(369.10676205960725, rel=4 * EPS)
    assert rho_halfspace(x, y) == pytest.approx(736.8272297580946, rel=4 * EPS)


def extreme_pairs(domain, scale):
    """Pairs at radius about ``scale`` in random directions on the
    punctured plane; on the half-space, pairs about ``scale`` apart at
    clearances 1 and like ``scale``, half each."""
    rng = np.random.default_rng([17, EXTREME_SCALES.index(scale)])
    m = PAIRS_PER_DECADE
    xs, ys = scale * rng.uniform(-2.0, 2.0, (2, m, 2))
    if isinstance(domain, HalfSpace):
        xs[:, 1] = np.where(np.arange(m) % 2 == 0, 1.0, np.abs(xs[:, 1]) + scale)
        ys[:, 1] = np.where(np.arange(m) % 2 == 0, 1.0, np.abs(ys[:, 1]) + scale)
    return xs, ys


@pytest.mark.parametrize("scale", EXTREME_SCALES)
@pytest.mark.parametrize("domain, kinds", [(H2, ["h", "j", "phi", "rho_H"]),
                                           (P2, ["h", "j", "phi"])],
                         ids=["halfspace:2", "punctured:2"])
def test_closed_forms_where_sums_of_squares_underflow_or_overflow(domain, kinds, scale):
    xs, ys = extreme_pairs(domain, scale)
    for kind in kinds:
        with mp.workdps(700):
            assert np.max(relative_errors(kind, domain, xs, ys)) <= 8 * EPS, kind


@pytest.mark.parametrize("scale", EXTREME_SCALES)
def test_punctured_oracle_where_radii_underflow_or_overflow(scale):
    xs, ys = punctured_pairs(2)
    xs, ys = xs * scale, ys * scale
    for x, y, value in zip(xs, ys, P2.k_exact(xs, ys)):
        k, theta = punctured_reference(x, y)
        error = float(abs((mp.mpf(value) - k) / k))
        assert error <= 4 * EPS * (1.0 + 1.0 / float(theta)), (x, y)


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
    assert np.all(f.target.contains_many(np.stack([fx, fy])))
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
    assert np.max(np.abs(BallAutomorphism(a).apply_many([x])[0] - exact)) <= 1e-12
    # as a -> 0 the map tends to the reflection in the hyperplane normal
    # to a, also where |a|^2 underflows (1e-160)
    for tiny in (1e-160, 1.2e-38):
        image = BallAutomorphism(np.array([tiny, 0.0])).apply_many([(0.3, 0.4)])[0]
        assert np.max(np.abs(image - np.array([-0.3, 0.4]))) <= 1e-15


# ---------------------------------------------------------------------------
# the sharpness witness
# ---------------------------------------------------------------------------

#: about the largest c whose witness is a double, r = 1 - 2^-53
C_NEAR_TWO = 2.0 - 2.12e-8


def _exact_r_star(c):
    """r* = 1 - ((2 - c)/c)^2 in 50 digits at the float c."""
    u = (2 - mp.mpf(c)) / c
    return 1 - u * u


@pytest.mark.parametrize("c", [1.5, 1.9, 1.9998, 1.9999, 1.99999, C_NEAR_TWO])
def test_collinear_witness_violates_in_50_digits(c):
    hit = collinear_c_scan(c)
    c, r = mp.mpf(c), mp.mpf(hit.r)
    d = 1 - r
    assert _exact_r_star(c) < r < 1
    # 2 h_c(0, r e1) - h_c(-r e1, r e1), -1.46e-5 at c = 1.9999
    assert 2 * mp.log(1 + c * r / mp.sqrt(d)) - mp.log(1 + 2 * c * r / d) < 0


@pytest.mark.parametrize("c", [2.0 - 2.1e-8, 1.999999999])
def test_no_double_lies_above_r_star(c):
    # h_c is no metric, and the result names r* without a witness
    hit = collinear_c_scan(c)
    assert (hit.r, hit.lhs, hit.rhs) == (None, None, None)
    assert _exact_r_star(c) > 1 - mp.mpf(2) ** -53
    assert abs(hit.r_star - _exact_r_star(c)) <= EPS


@PROPERTY
@given(st.floats(1.0, C_NEAR_TWO, exclude_min=True))
def test_collinear_witness_is_a_confirmed_double(c):
    hit = collinear_c_scan(c)
    r, d = hit.r, 1.0 - hit.r
    assert _exact_r_star(c) < r < 1.0
    assert (hit.lhs, hit.rhs) == (2.0 * h_kernel(r, 1.0, d, c), h_kernel(2.0 * r, d, d, c))
    assert hit.rhs - hit.lhs > 8 * EPS * hit.rhs
    assert 2.0 * math.sqrt(d) + c * r - 2.0 < -4 * EPS

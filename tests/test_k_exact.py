"""``Domain.k_exact``: the closed forms of k on the built-in domains, the
ball's Clairaut shooting rule against 50-digit references, and the
consumers that read k through ``k_many``."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hypermetric import quasihyperbolic
from hypermetric.domains import (
    Domain,
    HalfSpace,
    Interval,
    PuncturedSpace,
    UnitBall,
    sample_interior,
)
from hypermetric.metrics import MetricKind, MetricParams, j_many, pair_evaluator, rho_ball_many
from hypermetric.metrics import rho_halfspace
from hypermetric.quasihyperbolic import KControls, k_estimate_many, k_many
from hypermetric.verify import inequality_suite, uniformity_estimate

from test_domains import annulus_domain
from test_quasihyperbolic import _diameter_pairs, _k_ball_diameter, _k_interval

B2 = UnitBall(2)

#: a fixed rotation of R^3, to lift plane pairs off the coordinate planes
ROTATION = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]


# ---------------------------------------------------------------------------
# 50-digit references for the ball
# ---------------------------------------------------------------------------


def _g(r):
    return r / (1 - r)


def _legs(r_c, a, b):
    """(angle, k-length) swept between radii a and b by the Clairaut curve
    with perigee radius r_c, by mpmath quadrature of the integrals in r,
    written with r = r_c + t^2 so that the square root of g(r)^2 - C^2
    = t sqrt((g(r) + C) / ((1 - r)(1 - r_c))) leaves no singularity."""
    c = _g(r_c)

    def root(t):
        r = r_c + t * t
        return r, mpmath.sqrt((_g(r) + c) / ((1 - r) * (1 - r_c)))

    def angle(t):
        r, q = root(t)
        return 2 * c / (r * q)

    def length(t):
        r, q = root(t)
        return 2 * _g(r) / ((1 - r) * q)

    lo, hi = mpmath.sqrt(a - r_c), mpmath.sqrt(b - r_c)
    # the integrands vary on the scale sqrt(r_c) in t near the perigee
    cuts = [lo] + [t for t in (mpmath.sqrt(r_c) * f for f in (1, 8, 64)) if lo < t < hi] + [hi]
    return mpmath.quad(angle, cuts), mpmath.quad(length, cuts)


def _mp(p):
    return [mpmath.mpf(float(v)) for v in p]


def _radius(p):
    return mpmath.sqrt(mpmath.fsum(v * v for v in p))


def _angle(x, y):
    rx, ry = _radius(x), _radius(y)
    u, v = [ry * a for a in x], [rx * b for b in y]
    return 2 * mpmath.atan2(_radius([a - b for a, b in zip(u, v)]),
                            _radius([a + b for a, b in zip(u, v)]))


def clairaut_case(r_m, r_M, r_c, perigee, dimension):
    """(x, y, k) at 50 digits for the geodesic with perigee radius r_c
    between radii r_m <= r_M, on the perigee or the monotone branch.

    The angle and k come from the quadratures; the points are rounded to
    doubles, and k moves to the rounded points by its first variation,
    C d(theta) plus +-cos(alpha) / (1 - r) dr at each end (+ at the outer
    end, and at the inner one on the perigee branch), whose neglected
    second order is about 1e-32."""
    with mpmath.workdps(50):
        r_m, r_M, r_c = map(mpmath.mpf, (r_m, r_M, r_c))
        if perigee:
            (a1, k1), (a2, k2) = _legs(r_c, r_c, r_m), _legs(r_c, r_c, r_M)
            theta, k = a1 + a2, k1 + k2
        else:
            theta, k = _legs(r_c, r_m, r_M)
        x = np.array([float(r_m), 0.0, 0.0])
        y = np.array([float(r_M * mpmath.cos(theta)), float(r_M * mpmath.sin(theta)), 0.0])
        x, y = (ROTATION @ x, ROTATION @ y) if dimension == 3 else (x[:2], y[:2])
        c = _g(r_c)

        def slope(r):
            return mpmath.sqrt(1 - (c / _g(r)) ** 2) / (1 - r)

        mx, my = _mp(x), _mp(y)
        inner = (1 if perigee else -1) * slope(r_m) * (_radius(mx) - r_m)
        k += c * (_angle(mx, my) - theta) + inner + slope(r_M) * (_radius(my) - r_M)
        return x, y, k, theta


def closed_case(x, y):
    """(x, y, k) at 50 digits for a pair on one diameter or with a point at
    the origin: the radial closed forms at the rounded points."""
    with mpmath.workdps(50):
        mx, my = _mp(x), _mp(y)
        rx, ry = _radius(mx), _radius(my)
        across = mpmath.fsum(a * b for a, b in zip(mx, my)) < 0
        k = -mpmath.log(1 - rx) - mpmath.log(1 - ry) if across else abs(
            mpmath.log((1 - rx) / (1 - ry)))
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float), k


#: (r_m, r_M, r_c) on both branches: generic pairs, angles near 0 and pi
#: (r_c -> 0), equal and near-equal radii, and radii up to 1 - 1e-6
CLAIRAUT_CASES = [
    (0.3, 0.5, 0.2), (0.1, 0.1, 0.09), (0.2, 0.9, 0.199999), (1e-3, 0.5, 1e-4),
    (0.3, 0.5, 2e-11), (0.3, 0.5, 1.2e-9), (0.6, 0.6000001, 0.5),
    (0.5, 1 - 1e-6, 0.3), (0.9, 1 - 1e-6, 1e-9), (0.999, 0.9999, 0.5),
    (1 - 1e-6, 1 - 1e-6, 1 - 2e-6),
]


def mp_set():
    """(label, x, y, k) of the 50-digit reference set, in 2-D and 3-D."""
    out = []
    for dimension in (2, 3):
        lift = (lambda p: ROTATION @ np.append(p, 0.0)) if dimension == 3 else np.asarray
        for r_m, r_M, r_c in CLAIRAUT_CASES:
            for perigee in (True, False):
                if perigee or r_M > r_m:
                    x, y, k, theta = clairaut_case(r_m, r_M, r_c, perigee, dimension)
                    out.append((f"{dimension}-D {r_m}, {r_M}, {r_c}, perigee={perigee}", x, y, k,
                                float(theta)))
        for s, t in [(0.3, 0.7), (-0.3, 0.7), (-0.8, 1 - 1e-6), (1 - 1e-6, 0.2),
                     (-(1 - 1e-6), 1 - 1e-6)]:
            x, y, k = closed_case(lift(np.array([s, 0.0])), lift(np.array([t, 0.0])))
            out.append((f"{dimension}-D diameter {s}, {t}", x, y, k, math.pi * (s * t < 0)))
        for r in (0.7, 1 - 1e-6):
            x, y, k = closed_case(np.zeros(dimension), lift(np.array([0.6, 0.8]) * r))
            out.append((f"{dimension}-D origin, {r}", x, y, k, math.nan))
        point = lift(np.array([0.3, -0.4]))
        out.append((f"{dimension}-D x = y", point, point, mpmath.mpf(0), 0.0))
    return out


@pytest.fixture(scope="module")
def references():
    return mp_set()


class TestBallAgainstMpmath:
    """UnitBall.k_exact within 1e-10 of 50-digit references."""

    def test_set_covers_the_stated_ranges(self, references):
        thetas = np.array([t for *_, t in references if 0.0 < t < math.pi])
        assert thetas.min() <= 2e-9 and math.pi - thetas.max() <= 2e-9
        radii = [np.linalg.norm(p) for _, x, y, *_ in references for p in (x, y)]
        assert max(radii) >= 1 - 1.01e-6
        assert {x.size for _, x, *_ in references} == {2, 3}

    def test_relative_error(self, references):
        worst = []
        for label, x, y, exact, _ in references:
            k = UnitBall(x.size).k_exact(x[None], y[None])[0]
            error = abs(k) if exact == 0 else float(abs(k - exact) / exact)
            if not error <= 1e-10:
                worst.append((label, error))
        assert worst == []

    def test_batch_matches_single_pairs(self, references):
        xs = np.array([x for _, x, *_ in references if x.size == 2])
        ys = np.array([y for _, _, y, *_ in references if y.size == 2])
        batch = B2.k_exact(xs, ys)
        assert [v.hex() for v in batch] == [B2.k_exact(x[None], y[None])[0].hex()
                                            for x, y in zip(xs, ys)]


class TestShooting:
    @pytest.mark.parametrize("r_m, r_M", [(0.3, 0.5), (0.5, 0.5), (1e-3, 0.9), (0.9, 1 - 1e-6),
                                          (1 - 1e-6, 1 - 1e-6), (0.6, 0.6000001)])
    def test_swept_angle_is_monotone_in_the_shooting_parameter(self, r_m, r_M):
        s = np.linspace(-60.0, 60.0, 12001)
        full = np.full(s.size, 1.0)
        angle = quasihyperbolic._clairaut(s, r_m * full, (1.0 - r_m) * full, r_M * full)
        # up to the rounding of a sum near pi
        assert np.all(np.diff(angle) >= -1e-14)
        assert angle[0] < 1e-12 and math.pi - angle[-1] < 1e-12

    def test_160_pairs_take_at_most_10_ms(self):
        xs = sample_interior(B2, 160, 1, 0.2)
        ys = sample_interior(B2, 160, 2, 0.2)
        B2.k_exact(xs, ys)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            B2.k_exact(xs, ys)
            best = min(best, time.perf_counter() - start)
        assert best <= 0.010, best

    def test_gauss_legendre_nodes_are_built_on_first_use(self):
        code = ("import hypermetric.quasihyperbolic as q; "
                "assert q._gauss_legendre.cache_info().currsize == 0")
        src = str(Path(quasihyperbolic.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        nodes, weights = quasihyperbolic._gauss_legendre()
        # exact for polynomials of degree < 128
        for degree in (0, 2, 62, 126):
            assert math.isclose(np.sum(weights * nodes ** degree), 2.0 / (degree + 1),
                                rel_tol=1e-13)


# ---------------------------------------------------------------------------
# every built-in domain
# ---------------------------------------------------------------------------


BUILT_INS = [UnitBall(2), UnitBall(3), HalfSpace(2), HalfSpace(3), PuncturedSpace(2),
             PuncturedSpace(3), Interval(0.0, 1.0), Interval(-2.0, 3.0)]


class TestBuiltIns:
    @pytest.mark.parametrize("domain", BUILT_INS, ids=lambda d: d.spec_string())
    def test_random_pairs_respect_the_bounds(self, domain):
        xs = sample_interior(domain, 1000, 11)
        ys = sample_interior(domain, 1000, 12)
        k = domain.k_exact(xs, ys)
        j = j_many(domain, xs, ys)
        assert np.all(np.isfinite(k))
        assert np.all(k >= j * (1.0 - 1e-12))
        if isinstance(domain, UnitBall):
            rho = rho_ball_many(xs, ys)
            assert np.all(k <= rho * (1.0 + 1e-12)) and np.all(k >= 0.5 * rho)

    def test_ball_diameters_and_interval_match_their_closed_forms(self):
        for across in (False, True):
            xs, ys = _diameter_pairs(2, 40, 91, across)
            assert np.allclose(B2.k_exact(xs, ys), _k_ball_diameter(xs, ys), rtol=1e-12, atol=0)
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0.02, 0.98, (2, 60, 1))
        assert np.allclose(Interval(0, 1).k_exact(xs, ys), _k_interval(0.0, 1.0, xs, ys),
                           rtol=1e-12, atol=1e-15)

    def test_halfspace_is_rho_h_and_punctured_is_the_one_pair_front(self):
        xs = sample_interior(HalfSpace(2), 20, 1)
        ys = sample_interior(HalfSpace(2), 20, 2)
        assert np.array_equal(HalfSpace(2).k_exact(xs, ys),
                              [rho_halfspace(x, y) for x, y in zip(xs, ys)])
        xs = sample_interior(PuncturedSpace(3), 20, 1)
        ys = sample_interior(PuncturedSpace(3), 20, 2)
        assert np.array_equal(PuncturedSpace(3).k_exact(xs, ys),
                              [PuncturedSpace(3).k_exact(x[None], y[None])[0]
                               for x, y in zip(xs, ys)])

    def test_interval_is_the_unit_ball_in_one_dimension(self):
        rng = np.random.default_rng(6)
        xs, ys = rng.uniform(-0.99, 0.99, (2, 50, 1))
        assert np.allclose(Interval(-1, 1).k_exact(xs, ys), UnitBall(1).k_exact(xs, ys),
                           rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("domain, outside", [
        (B2, (1.5, 0.0)), (HalfSpace(2), (0.0, -1.0)), (PuncturedSpace(2), (0.0, 0.0)),
        (Interval(0, 1), (2.0,))], ids=lambda v: getattr(v, "spec_string", lambda: None)())
    def test_point_outside_is_rejected(self, domain, outside):
        inside = sample_interior(domain, 1, 0)
        with pytest.raises(ValueError, match="inside the domain"):
            domain.k_exact(inside, np.array([outside]))

    def test_punctured_line_has_no_k_across_the_puncture(self):
        # R minus 0 is two half-lines: no curve joins -1 and 1
        line = PuncturedSpace(1)
        with pytest.raises(ValueError, match=r"^no curve joins a pair across the puncture of "
                                             r"punctured:1: its two components \(-inf, 0\) "
                                             r"and \(0, inf\) are disjoint half-lines$"):
            line.k_exact(np.array([[0.3], [-1.0]]), np.array([[0.7], [1.0]]))

    def test_punctured_line_keeps_its_same_side_values(self):
        rng = np.random.default_rng(8)
        xs, ys = rng.uniform(0.01, 2.0, (2, 40, 1)) * np.where(rng.random((40, 1)) < 0.5,
                                                                -1.0, 1.0)
        k = PuncturedSpace(1).k_exact(xs, ys)
        # the log-polar form at the angle 0: |log(|x| / |y|)|, bit for bit
        assert np.array_equal(k, np.hypot(0.0, np.log(np.abs(xs[:, 0]) / np.abs(ys[:, 0]))))

    def test_pair_counts_must_match(self):
        with pytest.raises(ValueError, match="as many ys as xs"):
            B2.k_exact(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_generic_domain_knows_no_closed_form(self):
        ring = annulus_domain()
        k = ring.k_exact(np.array([[0.5, 0.0]]), np.array([[0.0, 0.6]]))
        assert k.shape == (1,) and np.isnan(k[0])


# ---------------------------------------------------------------------------
# the consumers
# ---------------------------------------------------------------------------


class PartlyKnown(UnitBall):
    """The disk, with k known only for pairs whose x lies in the right
    half-plane."""

    def k_exact(self, xs, ys):
        k = super().k_exact(xs, ys)
        k[np.asarray(xs)[:, 0] < 0.0] = np.nan
        return k


class TestConsumers:
    def test_k_many_names_its_source_and_estimates_only_the_rest(self, monkeypatch):
        xs = sample_interior(B2, 8, 1, 0.2)
        ys = sample_interior(B2, 8, 2, 0.2)
        controls = KControls(0.1, 1)
        k, source = k_many(B2, xs, ys, controls)
        assert source == "exact" and np.array_equal(k, B2.k_exact(xs, ys))
        ring = annulus_domain()
        rx = sample_interior(ring, 4, 1, 0.1)
        ry = sample_interior(ring, 4, 2, 0.1)
        k, source = k_many(ring, rx, ry, controls)
        assert source == "estimate" and np.array_equal(k, k_estimate_many(ring, rx, ry, controls))
        part = PartlyKnown(2)
        rest = xs[:, 0] < 0.0
        assert 0 < rest.sum() < 8
        estimated = []
        estimate = quasihyperbolic.k_estimate_many

        def counting(domain, a, b, c):
            estimated.append(a.shape[0])
            return estimate(domain, a, b, c)

        monkeypatch.setattr(quasihyperbolic, "k_estimate_many", counting)
        k, source = k_many(part, xs, ys, controls)
        assert source == "mixed" and estimated == [int(rest.sum())]
        assert np.array_equal(k[~rest], B2.k_exact(xs, ys)[~rest])
        assert np.array_equal(k[rest], estimate(B2, xs[rest], ys[rest], controls))

    def test_reports_name_the_k_source(self):
        for suite in ("C4_5", "QHJ"):
            report = inequality_suite(suite, B2, MetricParams(2.0), 8, seed=1)
            assert report.params["k_source"] == "exact"
        assert uniformity_estimate(B2, 16, seed=1).k_source == "exact"
        assert uniformity_estimate(annulus_domain(), 4, seed=1).k_source == "estimate"

    def test_built_in_consumers_build_no_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(quasihyperbolic, "build_grid", refuse)
        for domain in (B2, HalfSpace(2), PuncturedSpace(2), Interval(0, 1)):
            uniformity_estimate(domain, 16, seed=2)
            for suite in ("C4_5", "QHJ"):
                inequality_suite(suite, domain, MetricParams(2.0), 8, seed=2)
            xs = sample_interior(domain, 2, 3, 0.2)
            pair_evaluator(MetricKind.QUASIHYPERBOLIC, domain, MetricParams(2.0))(xs[:1], xs[1:])

    def test_base_hook_is_nan_and_validates_rows(self):
        class Bare(Domain):
            dimension = 2

        assert np.all(np.isnan(Bare().k_exact(np.zeros((3, 2)), np.ones((3, 2)))))
        with pytest.raises(ValueError, match="finite"):
            Bare().k_exact(np.full((1, 2), np.nan), np.ones((1, 2)))

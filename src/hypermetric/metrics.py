"""Closed-form hyperbolic-type distances on open Euclidean domains.

The central quantity is the geometric-mean distance

    h_c(x, y) = log(1 + c |x-y| / sqrt(d(x) d(y))),

a metric on every open D whenever c >= 2 (and generally not below 2;
see :mod:`hypermetric.verify` for the falsification machinery).  The
comparison quantities implemented alongside it:

    j(x, y)    = log(1 + |x-y| / min(d(x), d(y)))
    phi(x, y)  = log(1 + max(|x-y|/sqrt(d(x)d(y)), |x-y|^2/(d(x)d(y))))
    rho_B      = hyperbolic distance of the unit ball (Poincare model)
    rho_H      = hyperbolic distance of the upper half-space
    f(t, c)    = log(1 + 2 c sinh(t/2))

phi is exposed as a comparison *quantity*, not a metric: it fails the
triangle inequality on symmetric near-boundary triples.

h, j and phi are pure kernels of the separation and two clearances
(``h_kernel``, ``j_kernel``, ``phi_kernel``); the ``*_many`` fronts
validate the points and read each clearance once.

Inverse hyperbolics are evaluated through logarithmic forms (log1p /
arcsinh) so coincident and near-boundary arguments stay finite; every
distance returns exactly 0.0 for x == y.  Where a product of two
clearances is not a normal double (both below about 1.5e-162), h, phi
and rho_H take the square roots apart, and phi takes 2 log r once r^2
overflows.  Where a separation is below about 1.5e-154, whose square is
not a normal double, it is scaled by its largest coordinate difference
before it is squared.  Every other row is computed as before, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domains import Domain, HalfSpace, UnitBall, as_point, as_points


@dataclass(frozen=True)
class MetricParams:
    """Parameter bundle for h_c.  c < 2 is allowed: the falsification
    scans need it, and h_c may then fail the triangle inequality."""

    c: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive real, got {self.c}")


class MetricKind(Enum):
    H = "h"
    J = "j"
    PHI = "phi"
    RHO_BALL = "rho-ball"
    RHO_HALFSPACE = "rho-halfspace"
    QUASIHYPERBOLIC = "k"

    @classmethod
    def parse(cls, name: str) -> "MetricKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown metric {name!r}")


# ---------------------------------------------------------------------------
# clearance plumbing
# ---------------------------------------------------------------------------


def clearances(domain: Domain, xs: np.ndarray) -> np.ndarray:
    """Clearances of interior points, one domain query per row; raises if
    any point is outside."""
    d = domain.clearance_many(xs)
    inside = d > 0.0
    if not np.all(inside):
        bad = as_points(xs, domain.dimension)[np.argmin(inside)]
        raise ValueError(f"point {bad.tolist()} is not inside {domain.spec_string()}")
    return d


#: the normal finite range of a float64 product of clearances
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
#: below this a sum of squares is not a normal double
_ROOT_TINY = float(np.sqrt(_TINY))


def _scaled_norms(d: np.ndarray) -> np.ndarray:
    """|d| of each row, divided through by its largest entry first so that
    no square underflows; 0 for a zero row."""
    m = np.max(np.abs(d), axis=1)
    m_safe = np.where(m > 0.0, m, 1.0)
    return m * np.linalg.norm(d / m_safe[:, None], axis=1)


def separation(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|x - y| of paired rows.  Rows below sqrt(tiny), about 1.5e-154,
    whose squares may underflow, are scaled first; every other row is
    the plain norm, bit for bit."""
    d = xs - ys
    q = np.linalg.norm(d, axis=1)
    small = q < _ROOT_TINY
    if np.any(small):
        q[small] = _scaled_norms(d[small])
    return q


def pair_geometry(domain: Domain, xs: np.ndarray, ys: np.ndarray):
    """(|x - y|, d(x), d(y)) of paired interior rows, the arguments of every
    kernel below; one clearance query per row."""
    dx = clearances(domain, xs)
    dy = clearances(domain, ys)
    return separation(xs, ys), dx, dy


def _one_pair(many, domain: Domain, x, y, *args) -> float:
    """A vector front evaluated on one pair."""
    n = domain.dimension
    return float(many(domain, as_point(x, n)[None, :], as_point(y, n)[None, :], *args)[0])


# ---------------------------------------------------------------------------
# kernels: pure functions of the separation and the two clearances
# ---------------------------------------------------------------------------


def _root_product(dx, dy):
    """sqrt(dx dy); where the product is not a normal finite double (both
    clearances below about 1.5e-162, or huge), sqrt(dx) sqrt(dy) instead,
    so every other row keeps its bits."""
    p = np.multiply(dx, dy)
    root = np.sqrt(p)
    odd = ~((p >= _TINY) & (p <= _HUGE))
    if np.any(odd):
        root = np.where(odd, np.sqrt(dx) * np.sqrt(dy), root)
    return root


def h_kernel(rho, dx, dy, c: float):
    """log(1 + c rho / sqrt(dx dy))."""
    return np.log1p(c * rho / _root_product(dx, dy))


def j_kernel(rho, dx, dy):
    """log(1 + rho / min(dx, dy))."""
    return np.log1p(rho / np.minimum(dx, dy))


def phi_kernel(rho, dx, dy):
    """log(1 + max(r, r^2)) with r = rho / sqrt(dx dy)."""
    r = rho / _root_product(dx, dy)
    with np.errstate(over="ignore"):
        out = np.log1p(np.maximum(r, r * r))
    # once r^2 overflows, log(1 + r^2) is 2 log r to double precision
    big = np.isinf(out) & np.isfinite(r)
    if np.any(big):
        out = np.where(big, 2.0 * np.log(r), out)
    return out


# ---------------------------------------------------------------------------
# h_c and its generalized form
# ---------------------------------------------------------------------------


def h_many(domain: Domain, xs: np.ndarray, ys: np.ndarray, c: float) -> np.ndarray:
    """h_c of paired interior rows."""
    return h_kernel(*pair_geometry(domain, xs, ys), c)


def h_metric(domain: Domain, params: MetricParams, x, y) -> float:
    """log(1 + c |x-y| / sqrt(d(x) d(y))) for interior points."""
    return _one_pair(h_many, domain, x, y, params.c)


# ---------------------------------------------------------------------------
# distance ratio metric j and the comparison quantity phi
# ---------------------------------------------------------------------------


def j_many(domain: Domain, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """j of paired interior rows."""
    return j_kernel(*pair_geometry(domain, xs, ys))


def j_metric(domain: Domain, x, y) -> float:
    """log(1 + |x-y| / min(d(x), d(y)))."""
    return _one_pair(j_many, domain, x, y)


def phi_many(domain: Domain, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """phi of paired interior rows."""
    return phi_kernel(*pair_geometry(domain, xs, ys))


def phi_quantity(domain: Domain, x, y) -> float:
    """log(1 + max(r, r^2)) with r = |x-y|/sqrt(d(x)d(y)).

    Comparable to j within factors of 2 but *not* a metric; the name
    avoids suggesting triangle-inequality guarantees.
    """
    return _one_pair(phi_many, domain, x, y)


# ---------------------------------------------------------------------------
# hyperbolic metrics of the two canonical models
# ---------------------------------------------------------------------------


def rho_halfspace_kernel(q2, xn, yn):
    """arcosh(1 + q2 / (2 xn yn)) of a squared separation and two
    clearances.  Where 2 xn yn is not a normal finite double, the equal
    2 asinh(sqrt(q2) / (2 sqrt(xn) sqrt(yn))), which neither underflows
    nor overflows there; every other row keeps its bits."""
    p = 2.0 * np.multiply(xn, yn)
    odd = ~((p >= _TINY) & (p <= _HUGE))
    some = np.any(odd)
    u = q2 / (np.where(odd, 1.0, p) if some else p)
    # arcosh(1 + u) in a form that is exact at u = 0
    rho = np.log1p(u + np.sqrt(u * (u + 2.0)))
    if some:
        rho = np.where(odd, 2.0 * np.arcsinh(np.sqrt(q2) / (2.0 * np.sqrt(xn) * np.sqrt(yn))),
                       rho)
    return rho


def rho_halfspace_many(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if np.any(xs[:, -1] <= 0.0) or np.any(ys[:, -1] <= 0.0):
        raise ValueError("half-space points need a positive last coordinate")
    d = xs - ys
    q2 = np.sum(d ** 2, axis=1)
    rho = rho_halfspace_kernel(q2, xs[:, -1], ys[:, -1])
    small = q2 < _TINY
    if np.any(small):
        # q2 may have underflowed: the equal 2 asinh(q / (2 sqrt(xn yn)))
        # needs only q, taken without squares
        rho[small] = 2.0 * np.arcsinh(_scaled_norms(d[small]) / (
            2.0 * np.sqrt(xs[small, -1]) * np.sqrt(ys[small, -1])))
    return rho


def rho_halfspace(x, y) -> float:
    """Hyperbolic distance of the upper half-space:
    cosh(rho) = 1 + |x-y|^2 / (2 x_n y_n)."""
    x = as_point(x)
    y = as_point(y, x.size)
    return float(rho_halfspace_many(x[None, :], y[None, :])[0])


def rho_ball_many(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    nx = np.linalg.norm(xs, axis=1)
    ny = np.linalg.norm(ys, axis=1)
    if np.any(nx >= 1.0) or np.any(ny >= 1.0):
        raise ValueError("ball points must satisfy |x| < 1")
    q = separation(xs, ys)
    p = ((1.0 - nx) * (1.0 + nx)) * ((1.0 - ny) * (1.0 + ny))
    return 2.0 * np.arcsinh(q / np.sqrt(p))


def rho_ball(x, y) -> float:
    """Hyperbolic distance of the unit ball (Poincare model):
    sinh(rho/2) = |x-y| / sqrt((1-|x|^2)(1-|y|^2)).

    The tests check this form against 50-digit references down to
    clearance 1e-12, and against the tanh(rho/2) form.
    """
    x = as_point(x)
    y = as_point(y, x.size)
    return float(rho_ball_many(x[None, :], y[None, :])[0])


# ---------------------------------------------------------------------------
# the comparison function f(t) = log(1 + 2 c sinh(t/2))
# ---------------------------------------------------------------------------


def comparison_f(t, c: float) -> float | np.ndarray:
    """log(1 + 2 c sinh(t/2)); strictly between c t/(2(1+c)) and c t for
    c >= 1/2, t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    if not c > 0.0:
        raise ValueError("c must be positive")
    out = np.log1p(2.0 * c * np.sinh(0.5 * t))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# kind dispatch used by scans and the CLI
# ---------------------------------------------------------------------------


def validate_kind(kind: MetricKind, domain: Domain) -> None:
    if kind is MetricKind.RHO_BALL and not isinstance(domain, UnitBall):
        raise ValueError("rho-ball is only defined on ball domains")
    if kind is MetricKind.RHO_HALFSPACE and not isinstance(domain, HalfSpace):
        raise ValueError("rho-halfspace is only defined on half-space domains")


def pair_kernel(kind: MetricKind, domain: Domain, params: MetricParams):
    """Vectorized (xs, ys, dx, dy) -> distances for a metric kind.

    ``dx``, ``dy`` are what :func:`kind_clearances` gives for each point
    set, so a caller pairing one point set with several others reads its
    clearances once.  QUASIHYPERBOLIC evaluation reads ``Domain.k_exact``
    (:func:`hypermetric.quasihyperbolic.k_many`), exact on every built-in
    domain, and runs lattice shortest paths at ``KControls()`` only where
    it is NaN (a ``GenericDomain``), far slower than the closed forms.
    """
    validate_kind(kind, domain)
    c = params.c
    if kind is MetricKind.H:
        return lambda xs, ys, dx, dy: h_kernel(separation(xs, ys), dx, dy, c)
    if kind is MetricKind.J:
        return lambda xs, ys, dx, dy: j_kernel(separation(xs, ys), dx, dy)
    if kind is MetricKind.PHI:
        return lambda xs, ys, dx, dy: phi_kernel(separation(xs, ys), dx, dy)
    if kind is MetricKind.RHO_BALL:
        return lambda xs, ys, dx, dy: rho_ball_many(as_points(xs, domain.dimension),
                                                    as_points(ys, domain.dimension))
    if kind is MetricKind.RHO_HALFSPACE:
        return lambda xs, ys, dx, dy: rho_halfspace_many(as_points(xs, domain.dimension),
                                                         as_points(ys, domain.dimension))
    if kind is MetricKind.QUASIHYPERBOLIC:
        from .quasihyperbolic import KControls, k_many

        return lambda xs, ys, dx, dy: k_many(domain, xs, ys, KControls())[0]
    raise ValueError(f"unsupported metric kind {kind}")


def pair_evaluator(kind: MetricKind, domain: Domain, params: MetricParams):
    """Vectorized (xs, ys) -> distances evaluator for a metric kind."""
    kernel = pair_kernel(kind, domain, params)
    return lambda xs, ys: kernel(xs, ys, kind_clearances(kind, domain, xs),
                                 kind_clearances(kind, domain, ys))


def kind_clearances(kind: MetricKind, domain: Domain, xs: np.ndarray):
    """What a ``pair_kernel`` reads of a point set: its validated
    clearances for the closed forms built on them, None (and no domain
    query) for the others."""
    if kind in (MetricKind.H, MetricKind.J, MetricKind.PHI):
        return clearances(domain, xs)
    return None

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criteria 7 and 8 run shortest-path queries and dominate
the runtime (a few minutes).
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from hypermetric.cli import run as cli_run
from hypermetric.domains import HalfSpace, Interval, PuncturedSpace, UnitBall
from hypermetric.maps import (
    RadialStretch,
    bilipschitz_estimate,
    linear_dilatation,
)
from hypermetric.metrics import MetricKind, MetricParams, j_many, rho_halfspace
from hypermetric.moebius import BallAutomorphism, Identity
from hypermetric.quasihyperbolic import (
    KControls,
    k_estimate,
)
from hypermetric.verify import (
    collinear_c_scan,
    inequality_suite,
    phi_triangle_counterexample,
    triangle_scan,
    uniformity_estimate,
)

B2, B3, H2, P2, I01 = UnitBall(2), UnitBall(3), HalfSpace(2), PuncturedSpace(2), Interval(0, 1)
C2 = MetricParams(2.0)

THRESHOLD_C19 = 0.9972299168975069


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_metric_axioms():
    """h with c = 2 satisfies the triangle inequality on every built-in
    domain over 1e5 stratified triples, min slack >= -1e-9, under 60 s."""
    t0 = time.perf_counter()
    worst = []
    for domain in (B2, B3, H2, P2, I01):
        rep = triangle_scan(domain, MetricKind.H, C2, 100_000, seed=42, tolerance=1e-9)
        worst.append((domain.spec_string(), rep.min_slack, rep.passed))
    elapsed = time.perf_counter() - t0
    ok = all(p for _, _, p in worst) and elapsed <= 60.0
    detail = ", ".join(f"{d}: {s:.2e}" for d, s, _ in worst) + f"; {elapsed:.1f}s"
    _report("criterion 1: triangle scans (c=2, 5 domains, 1e5 triples)", ok, detail)


def test_criterion_02_sharpness_of_c2():
    """Collinear violations exist exactly for c < 2; the c = 1.9 threshold
    radius r* = 1 - (0.1/1.9)^2 matches to 1e-15, and its witness lies
    past it."""
    sub_sharp = {c: collinear_c_scan(c) for c in (0.5, 1.0, 1.5, 1.9, 1.99)}
    sharp = {c: collinear_c_scan(c) for c in (2.0, 2.5, 10.0)}
    ok = all(hit is not None and hit.r is not None for hit in sub_sharp.values())
    ok &= all(hit is None for hit in sharp.values())
    hit = sub_sharp[1.9]
    ok &= abs(hit.r_star - THRESHOLD_C19) <= 1e-15
    ok &= THRESHOLD_C19 < hit.r < 1.0
    rs = [sub_sharp[c].r for c in (1.99, 1.9, 1.5, 1.0, 0.5)]
    ok &= all(a >= b for a, b in zip(rs, rs[1:]))
    _report("criterion 2: sharpness of c=2", ok,
            f"c=1.9: r*={hit.r_star!r} (threshold {THRESHOLD_C19!r}), witness r={hit.r:.6f}")


def test_criterion_03_phi_failure():
    """phi violates the triangle inequality at t = 0.9 with the derived
    values 4.416549 and 5.783825 (tolerance 1e-5)."""
    hit = phi_triangle_counterexample([0.9])
    ok = (hit.t == 0.9
          and abs(hit.lhs - 4.416549) <= 1e-5
          and abs(hit.rhs - 5.783825) <= 1e-5
          and hit.lhs < hit.rhs)
    _report("criterion 3: phi triangle failure at t=0.9", ok,
            f"lhs={hit.lhs:.6f} rhs={hit.rhs:.6f}")


def test_criterion_04_model_identity_and_sandwich():
    """Half-space identity within 1e-10 for c in {1,2,5}; ball sandwich
    within 1e-10; 1e4 pairs each."""
    details = []
    ok = True
    for c in (1.0, 2.0, 5.0):
        rep = inequality_suite("P2_3_1", H2, MetricParams(c), 10_000, seed=404)
        ok &= rep.passed and rep.tolerance == 1e-10
        details.append(f"id c={c:g}: {rep.min_slack:.1e}")
    rep = inequality_suite("P2_3_2", B2, C2, 10_000, seed=404)
    ok &= rep.passed and rep.tolerance == 1e-10
    details.append(f"sandwich: {rep.min_slack:.1e}")
    _report("criterion 4: hyperbolic identity / sandwich", ok, ", ".join(details))


def test_criterion_05_moebius_distortion():
    """Factor-2 distortion bounds under 20 random ball automorphisms and
    the half-space map on 1e4 pairs; isometry invariance within 1e-9."""
    details = []
    ok = True
    for suite in ("L2_5", "L2_7"):
        rep = inequality_suite(suite, B2, C2, 10_000, seed=505)
        ok &= rep.passed
        ok &= rep.params["map_count"] == 20
        ok &= rep.params["isometry_max_gap"] <= 1e-9
        details.append(f"{suite}: slack {rep.min_slack:.1e}, "
                       f"iso gap {rep.params['isometry_max_gap']:.1e}")
    _report("criterion 5: Moebius distortion suites", ok, ", ".join(details))


def test_criterion_06_chain_suites():
    """The j/phi/h chains, the local lower bound and the model two-sided
    bounds pass at 1e-9 on 1e4 pairs per domain."""
    ok = True
    checked = 0
    for suite in ("L2_9", "C2_10", "L4_4_2"):
        for domain in (B2, B3, H2, P2, I01):
            rep = inequality_suite(suite, domain, C2, 10_000, seed=606)
            ok &= rep.passed
            checked += 1
    for c in (1.0, 2.0, 5.0):
        for domain in (B2, B3, H2, P2, I01):
            rep = inequality_suite("L4_4_1", domain, MetricParams(c), 10_000, seed=606)
            ok &= rep.passed
            checked += 1
    for domain in (B2, B3, H2):
        rep = inequality_suite("T4_6", domain, C2, 10_000, seed=606)
        ok &= rep.passed
        checked += 1
    _report("criterion 6: comparison chain suites", ok, f"{checked} suite runs")


def _acceptance_pairs_halfspace(count, seed):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    while len(xs) < count:
        x = np.array([rng.uniform(-1.6, 1.6), rng.uniform(0.25, 1.5)])
        y = np.array([rng.uniform(-1.6, 1.6), rng.uniform(0.25, 1.5)])
        if 0.3 <= np.linalg.norm(x - y) <= 5.0:
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def _acceptance_pairs_punctured(count, seed):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    while len(xs) < count:
        rx, ry = rng.uniform(0.5, 1.2, size=2)
        ax, ay = rng.uniform(0, 2 * np.pi, size=2)
        x = rx * np.array([np.cos(ax), np.sin(ax)])
        y = ry * np.array([np.cos(ay), np.sin(ay)])
        if 0.3 <= np.linalg.norm(x - y) <= 5.0:
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def test_criterion_07_quasihyperbolic_oracle_error():
    """Estimator within 1% of both exact oracles on 50 pairs each
    (clearance >= 0.2, separation <= 5, spacing 0.05, 2 refinements);
    k >= j with 2% slack; every query under 5 s."""
    cases = [
        (H2, _acceptance_pairs_halfspace(50, 707), rho_halfspace),
        (P2, _acceptance_pairs_punctured(50, 707),
         lambda x, y: P2.k_exact(x[None], y[None])[0]),
    ]
    ok = True
    details = []
    for domain, (xs, ys), oracle in cases:
        j = j_many(domain, xs, ys)
        max_err = 0.0
        max_time = 0.0
        qhj_ok = True
        for i in range(xs.shape[0]):
            t0 = time.perf_counter()
            est = k_estimate(domain, xs[i], ys[i], 0.05, 2)
            dt = time.perf_counter() - t0
            exact = oracle(xs[i], ys[i])
            max_err = max(max_err, abs(est.value - exact) / exact)
            max_time = max(max_time, dt)
            qhj_ok &= est.value >= j[i] * (1 - 0.02)
        ok &= max_err < 0.01 and max_time <= 5.0 and qhj_ok
        details.append(f"{domain.spec_string()}: err {max_err:.4f}, "
                       f"slowest {max_time:.2f}s")
    _report("criterion 7: quasihyperbolic vs exact oracles", ok, "; ".join(details))


def test_criterion_08_uniformity_and_sandwich():
    """U_hat finite and seed-stable (within 10%) on the ball and the
    half-space; the k/h sandwich with d = c/(2(1+c) U_hat) passes at 2%."""
    controls = KControls(0.1, 1)
    ok = True
    details = []
    for domain in (B2, H2):
        u1 = uniformity_estimate(domain, 160, seed=1234, k_controls=controls)
        u2 = uniformity_estimate(domain, 160, seed=5678, k_controls=controls)
        stable = abs(u1.U_hat - u2.U_hat) <= 0.10 * max(u1.U_hat, u2.U_hat)
        finite = np.isfinite(u1.U_hat) and u1.U_hat >= 1.0
        rep = inequality_suite("C4_5", domain, C2, 24, seed=808,
                               k_controls=KControls(0.05, 1))
        ok &= stable and finite and rep.passed
        details.append(f"{domain.spec_string()}: U {u1.U_hat:.3f}/{u2.U_hat:.3f}, "
                       f"C4_5 slack {rep.min_slack:.4f}")
    _report("criterion 8: uniformity constant + C4_5 sandwich", ok, "; ".join(details))


def test_criterion_09_dilatation():
    """Conformal maps show H_hat = 1 within 1e-3 at radius 1e-3; the
    radial stretch satisfies H_hat <= L_hat^2 + 5e-2."""
    radii = [0.1, 0.01, 0.001]
    ok = True
    details = []
    moebius_cases = [
        (BallAutomorphism(np.array([0.3, 0.0])), (0.0, 0.0)),
        (BallAutomorphism(np.array([0.0, 0.45])), (0.0, 0.0)),
        (BallAutomorphism(np.array([0.3, 0.0])), (-0.4, 0.0)),
        (Identity(B2), (0.2, 0.1)),
    ]
    for mapping, z in moebius_cases:
        est = linear_dilatation(mapping, z, radii, sphere_samples=64)
        gap = abs(est.H_hat - 1.0)
        ok &= gap <= 1e-3
        details.append(f"H-1={gap:.1e}")
    stretch = RadialStretch(2.0)
    dil = linear_dilatation(stretch, (0.5, 0.0), radii, sphere_samples=64)
    bil = bilipschitz_estimate(stretch, C2, 10_000, seed=3)
    ok &= dil.H_hat <= bil.L_hat**2 + 5e-2
    details.append(f"stretch H={dil.H_hat:.3f} vs L^2+0.05={bil.L_hat**2 + 0.05:.3f}")
    _report("criterion 9: linear dilatation", ok, ", ".join(details))


def test_criterion_10_reproducibility():
    """Identical seeds and flags give byte-identical reports, both through
    the library and the CLI."""
    ok = True
    a = triangle_scan(B2, MetricKind.H, C2, 20_000, seed=10)
    b = triangle_scan(B2, MetricKind.H, C2, 20_000, seed=10)
    ok &= a.to_json() == b.to_json()
    a = inequality_suite("L2_9", B2, C2, 10_000, seed=10)
    b = inequality_suite("L2_9", B2, C2, 10_000, seed=10)
    ok &= a.to_json() == b.to_json()

    def invoke(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(argv)
        return code, buf.getvalue()

    argvs = [
        ["verify-suite", "--suite", "T4_6", "--domain", "ball:2", "--c", "2",
         "--count", "10000", "--seed", "42"],
        ["scan-triangle", "--domain", "halfspace:2", "--metric", "h",
         "--count", "20000", "--seed", "11"],
        ["falsify", "--domain", "ball:2", "--c", "1.9"],
    ]
    for argv in argvs:
        first = invoke(argv)
        second = invoke(argv)
        ok &= first == second
        if argv[0] == "verify-suite":
            code, out = first
            ok &= code == 0 and json.loads(out)["pass"] is True
    _report("criterion 10: byte-identical reports", ok)

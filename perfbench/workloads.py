"""The three benchmark workloads: inputs, library calls and their checks.

A workload is a list of operations per round.  Round ``r`` depends only
on (seed, r), so a round can be replayed: the traced run replays each
round with the wrappers installed and requires identical results.  All
pair inputs are generated here from the seed (scrambled Sobol streams,
so any prefix of a run covers the pair space evenly); the library only
receives arrays.  Library calls go through module attributes so that
the tracer's wrappers see them.

Exact references used by the checks are written out here rather than
taken from the library under test.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import qmc

from hypermetric import cli, domains, quasihyperbolic, verify
from hypermetric.metrics import MetricKind, MetricParams
from hypermetric.quasihyperbolic import KControls

B2, B3 = domains.UnitBall(2), domains.UnitBall(3)
H2, H3 = domains.HalfSpace(2), domains.HalfSpace(3)
P2, I01 = domains.PuncturedSpace(2), domains.Interval(0.0, 1.0)
C2 = MetricParams(2.0)

#: relative-error bound of 2-D estimates (acceptance criterion 7)
K_ERR_BOUND_2D = 0.01
#: k >= j (1 - slack): the QHJ suite's relative slack
QHJ_SLACK = 0.02
#: seed-to-seed stability of U_hat (acceptance criterion 8)
U_STABILITY = 0.10


@dataclass
class Op:
    """One call from the benchmark into the library."""

    label: str
    kind: str                                  # scan | suite | query | other
    call: Callable[[], object]
    items: Callable[[object], int]             # triples, pairs or k queries done
    check: Callable[[object], list[str]]       # problems found; empty if correct


@dataclass
class Stats:
    """What the checks measured besides pass/fail."""

    k_err_2d: list[float] = field(default_factory=list)
    k_err_3d: list[float] = field(default_factory=list)
    u_hat: list[float] = field(default_factory=list)


def derived_seed(seed: int, *path: int) -> int:
    """31-bit library seed for one call, from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _fails(cond: bool, msg: str) -> list[str]:
    return [] if cond else [msg]


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------


def k_halfspace(x, y) -> float:
    """k = rho_H = arcosh(1 + |x-y|^2 / (2 x_n y_n))."""
    return math.acosh(1.0 + float(np.sum((x - y) ** 2)) / (2.0 * x[-1] * y[-1]))


def k_punctured(x, y) -> float:
    """k = sqrt(theta^2 + log^2(|x|/|y|)) on R^n minus the origin."""
    rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    theta = math.acos(max(-1.0, min(1.0, float(x @ y) / (rx * ry))))
    return math.hypot(theta, math.log(rx / ry))


def k_ball_diameter(s: float, t: float) -> float:
    """k on the unit ball between s u and t u on one diameter."""
    if s * t >= 0.0:
        return abs(math.log((1.0 - abs(s)) / (1.0 - abs(t))))
    return -math.log(1.0 - abs(s)) - math.log(1.0 - abs(t))


def j_value(clear_x: float, clear_y: float, x, y) -> float:
    return math.log1p(float(np.linalg.norm(x - y)) / min(clear_x, clear_y))


def clearance(domain, p) -> float:
    if domain in (H2, H3):
        return float(p[-1])
    if domain == P2:
        return float(np.linalg.norm(p))
    return 1.0 - float(np.linalg.norm(p))


# ---------------------------------------------------------------------------
# seeded pair streams
# ---------------------------------------------------------------------------


class PairStream:
    """Deterministic, indexable stream of valid query pairs.

    ``make`` maps a unit-cube point to (x, y, extra) or None (rejected).
    """

    def __init__(self, dim: int, seed: int, make: Callable):
        self._sobol = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(seed))
        self._make = make
        self._pairs: list = []

    def __getitem__(self, i: int):
        while len(self._pairs) <= i:
            for u in self._sobol.random(256):
                pair = self._make(u)
                if pair is not None:
                    self._pairs.append(pair)
        return self._pairs[i]


def _separated(x, y):
    """Criterion-7 separation window."""
    return (x, y, None) if 0.3 <= np.linalg.norm(x - y) <= 5.0 else None


def _halfspace_pair(n: int):
    def make(u):
        lo = np.array([-1.6] * (n - 1) + [0.25])
        hi = np.array([1.6] * (n - 1) + [1.5])
        x = lo + (hi - lo) * u[:n]
        y = lo + (hi - lo) * u[n:]
        return _separated(x, y)
    return make


def _punctured_pair(u):
    rx, ry = 0.5 + 0.7 * u[0], 0.5 + 0.7 * u[1]
    ax, ay = 2.0 * math.pi * u[2], 2.0 * math.pi * u[3]
    return _separated(rx * np.array([math.cos(ax), math.sin(ax)]),
                      ry * np.array([math.cos(ay), math.sin(ay)]))


def _diameter_pair(u):
    """Points s u, t u with clearance >= 0.2 on a random diameter."""
    theta = 2.0 * math.pi * u[0]
    s, t = -0.8 + 1.6 * u[1], -0.8 + 1.6 * u[2]
    if abs(s - t) < 0.3:
        return None
    d = np.array([math.cos(theta), math.sin(theta)])
    return s * d, t * d, (s, t)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.stats = Stats()
        self._first: dict[str, object] = {}   # first round's result per label

    def size(self, full: int, least: int) -> int:
        return max(least, int(round(full * self.scale)))

    def same_as_first(self, label: str, value) -> list[str]:
        """Re-run check: a call repeated in every round prints the same bytes."""
        first = self._first.setdefault(label, value)
        return _fails(first == value, f"{label}: output differs from the first round")

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError


class Scan(Workload):
    """Closed-form verification: scans, suites, README CLI calls."""

    name = "scan"
    SUITES = [
        ("P2_3_1", (H2,)),
        ("P2_3_2", (B2, B3)),
        ("L2_5", (B2, B3)),
        ("L2_7", (B2, B3)),
        ("L2_9", (B2, B3, H2, P2, I01)),
        ("C2_10", (B2, B3, H2, P2, I01)),
        ("L4_4_1", (B2, B3, H2, P2, I01)),
        ("L4_4_2", (B2, B3, H2, P2, I01)),
        ("T4_6", (B2, B3, H2)),
    ]

    def round_ops(self, r: int) -> list[Op]:
        s = derived_seed(self.seed, r)
        big, small, pairs = self.size(1_000_000, 2000), self.size(100_000, 1000), self.size(10_000, 200)
        ops, reports = [], {}

        def op(label, kind, call, check):
            def keep():
                reports[label] = call()
                return reports[label]
            ops.append(Op(label, kind, keep, lambda rep: rep.sample_count, check))

        def scan(domain, kind, count, expect_pass):
            label = f"triangle_scan {domain.spec_string()} {kind.value}"
            op(label, "scan", lambda: verify.triangle_scan(domain, kind, C2, count, s),
               lambda rep: _fails(rep.passed == expect_pass,
                                  f"{label}: passed={rep.passed}, paper says {expect_pass}"))

        def suite(suite_id, domain):
            label = f"inequality_suite {suite_id} {domain.spec_string()}"
            op(label, "suite", lambda: verify.inequality_suite(suite_id, domain, C2, pairs, s),
               lambda rep: _fails(rep.passed, f"{label}: failed"))

        scan(B2, MetricKind.H, big, True)
        for domain in (B3, H2, P2, I01):
            scan(domain, MetricKind.H, small, True)
        scan(B2, MetricKind.PHI, small, False)
        for suite_id, doms in self.SUITES:
            for domain in doms:
                suite(suite_id, domain)

        def same_report(command, label, expect_code):
            def check(res):
                code, out = res
                return (_fails(code == expect_code, f"cli {command}: exit {code}")
                        + _fails(out == reports[label].to_json() + "\n",
                                 f"cli {command}: report differs from the library's"))
            return check

        def check_falsify(res):
            code, out = res
            hit = json.loads(out)["violating_r"]
            return (_fails(code == 1, f"cli falsify: exit {code}, expected 1")
                    + _fails(hit is not None and 0.997 < hit < 1.0,
                             f"cli falsify: violating_r={hit}")
                    + self.same_as_first("cli falsify", res))

        # the README invocations, with this round's seed and sizes
        ops.append(Op("cli scan-triangle", "scan", lambda: run_cli([
            "scan-triangle", "--domain", "ball:2", "--metric", "phi",
            "--count", str(small), "--seed", str(s)]), lambda res: small,
            same_report("scan-triangle", "triangle_scan ball:2 phi", 1)))
        ops.append(Op("cli verify-suite", "suite", lambda: run_cli([
            "verify-suite", "--suite", "T4_6", "--domain", "ball:2", "--c", "2",
            "--count", str(pairs), "--seed", str(s)]), lambda res: pairs,
            same_report("verify-suite", "inequality_suite T4_6 ball:2", 0)))
        ops.append(Op("cli falsify", "other", lambda: run_cli([
            "falsify", "--domain", "ball:2", "--c", "1.9"]), lambda res: 0, check_falsify))
        return ops


class KQuery(Workload):
    """Independent oracle-checked k queries; each window depends on its pair."""

    name = "kquery"
    #: query streams in call order within a round
    PLAN = ("h2", "p2", "h2", "h3", "h2", "p2", "h2", "h2")
    README = ((0.0, 1.0), (1.0, 1.0))

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.streams = {
            "h2": (PairStream(4, derived_seed(seed, 0, 2), _halfspace_pair(2)), H2, 0.05, 2, k_halfspace),
            "p2": (PairStream(4, derived_seed(seed, 1, 2), _punctured_pair), P2, 0.05, 2, k_punctured),
            "h3": (PairStream(6, derived_seed(seed, 0, 3), _halfspace_pair(3)), H3, 0.1, 1, k_halfspace),
        }

    def _query(self, label, domain, x, y, spacing, refinements, exact) -> Op:
        def check(est):
            err = (est.value - exact) / exact
            j = j_value(clearance(domain, x), clearance(domain, y), x, y)
            out = _fails(est.value >= j * (1.0 - QHJ_SLACK), f"{label}: k={est.value} < j={j}")
            if domain.dimension == 2:
                self.stats.k_err_2d.append(abs(err))
                out += _fails(abs(err) < K_ERR_BOUND_2D, f"{label}: relative error {err:.4f}")
            else:
                self.stats.k_err_3d.append(abs(err))
            return out

        return Op(label, "query",
                  lambda: quasihyperbolic.k_estimate(domain, x, y, spacing, refinements),
                  lambda est: 1, check)

    def round_ops(self, r: int) -> list[Op]:
        ops, seen = [], {}
        for key in self.PLAN:
            stream, domain, spacing, refinements, exact = self.streams[key]
            i = r * self.PLAN.count(key) + seen.get(key, 0)
            seen[key] = seen.get(key, 0) + 1
            x, y, _ = stream[i]
            ops.append(self._query(f"k_estimate {domain.spec_string()} #{i}", domain, x, y,
                                   spacing, refinements, exact(x, y)))
        x, y = (np.array(p) for p in self.README)
        exact = k_halfspace(x, y)

        def check_cli(res):
            code, out = res
            if code != 0:
                return [f"cli k-estimate: exit {code}"]
            err = abs(json.loads(out)["value"] - exact) / exact
            self.stats.k_err_2d.append(err)
            return (_fails(err < K_ERR_BOUND_2D, f"cli k-estimate: relative error {err:.4f}")
                    + self.same_as_first("cli k-estimate", res))

        ops.append(Op("cli k-estimate", "query", lambda: run_cli([
            "k-estimate", "--domain", "halfspace:2", "--points", "0,1", "1,1",
            "--spacing", "0.05", "--refinements", "2"]), lambda res: 1, check_cli))
        return ops


class KShared(Workload):
    """Many k queries on the ball, whose window does not depend on the pair."""

    name = "kshared"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.diameters = PairStream(3, derived_seed(seed, 2, 2), _diameter_pair)

    def _u_check(self, label, u_hat) -> list[str]:
        self.stats.u_hat.append(u_hat)
        first = self.stats.u_hat[0]
        return (_fails(math.isfinite(u_hat) and u_hat >= 1.0, f"{label}: U_hat={u_hat}")
                + _fails(abs(u_hat - first) <= U_STABILITY * max(u_hat, first),
                         f"{label}: U_hat {u_hat} vs {first} differ by more than 10%"))

    def round_ops(self, r: int) -> list[Op]:
        s = derived_seed(self.seed, r)
        count = self.size(160, 16)
        n_diam = self.size(60, 6)
        ops = [
            Op("uniformity_estimate ball:2", "query",
               lambda: verify.uniformity_estimate(B2, count, s, KControls(0.1, 1)),
               lambda est: est.sample_count,
               lambda est: self._u_check("uniformity_estimate", est.U_hat)),
            Op("inequality_suite C4_5 ball:2", "query",
               lambda: verify.inequality_suite("C4_5", B2, C2, self.size(24, 8), s,
                                               k_controls=KControls(0.05, 1)),
               lambda rep: rep.sample_count,
               lambda rep: _fails(rep.passed, "C4_5 ball:2: failed")),
        ]
        for i in range(r * n_diam, (r + 1) * n_diam):
            x, y, (a, b) = self.diameters[i]
            label = f"k_estimate ball:2 diameter #{i}"

            def check(est, label=label, exact=k_ball_diameter(a, b)):
                err = (est.value - exact) / exact
                self.stats.k_err_2d.append(abs(err))
                return _fails(abs(err) < K_ERR_BOUND_2D, f"{label}: relative error {err:.4f}")

            ops.append(Op(label, "query",
                          lambda x=x, y=y: quasihyperbolic.k_estimate(B2, x, y, 0.05, 1),
                          lambda est: 1, check))

        def check_cli(res):
            code, out = res
            if code != 0:
                return [f"cli uniformity: exit {code}"]
            return self._u_check("cli uniformity", json.loads(out)["U_hat"])

        ops.append(Op("cli uniformity", "query", lambda: run_cli([
            "uniformity", "--domain", "ball:2", "--count", str(count),
            "--seed", str(derived_seed(self.seed, r, 1))]),
            lambda res: json.loads(res[1])["sample_count"], check_cli))
        return ops


WORKLOADS = {cls.name: cls for cls in (Scan, KQuery, KShared)}

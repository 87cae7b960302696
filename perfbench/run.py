"""hypermetric benchmark: one workload, one process, every output checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

The workload runs in whole rounds for about ``--seconds`` of wall time
(at least one round).  Every library call is timed and its result
checked.  Standard output holds a machine stamp, one ``metric`` line per
named metric with its unit, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their times are in
reference units (``ref``): each call's seconds divided by the time of a
fixed reference computation run just before and just after it (see
``reference.py``), so that the host's drifting speed cancels out; the
raw seconds are printed beside them.  ``--trace 1`` runs every
round untraced and then again with spans recorded around each call into
the library; it reports the per-layer metrics, the tracing overhead, and
writes the spans to ``perfbench/out/``.  A traced result that differs
from its untraced twin counts as a failed call.

Exit status: 0 after a complete run (check ``correct``), 2 when the
library sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: (name, unit) of the end-to-end metrics, printed by every untraced run
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("items_per_ref", "1/ref"),
    ("call_p50_ref", "ref"),
    ("call_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
]

#: set-up: a fresh interpreter imports the library and runs the README `dist` call
SETUP_CODE = "import sys; from hypermetric.cli import run; sys.exit(run(sys.argv[1:]))"
SETUP_ARGV = ["dist", "--domain", "ball:2", "--metric", "h", "--c", "2",
              "--points", "0,0", "0.5,0"]
SETUP_OUTPUT = "0.881374\n"
SETUP_REPEATS = 7


def load_library() -> str | None:
    """Put this checkout's ``src`` first on the path; an error message or None."""
    if not (SRC / "hypermetric" / "__init__.py").is_file():
        return f"no library sources at {SRC.relative_to(ROOT)}/hypermetric"
    sys.path.insert(0, str(SRC))
    import hypermetric

    if not Path(hypermetric.__file__).resolve().is_relative_to(SRC):
        return f"imported hypermetric from {hypermetric.__file__}, not from this checkout"
    return None


def machine_stamp() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HYPERMETRIC_THREADS": os.environ.get("HYPERMETRIC_THREADS", "unset"),
    }


def measure_setup() -> tuple[float, str | None]:
    """Wall time of a fresh process that imports the library and makes one call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP_ARGV], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
        return seconds, (f"set-up call: exit {proc.returncode}, output {proc.stdout!r}, "
                         f"stderr {proc.stderr[-200:]!r}")
    return seconds, None


@dataclass
class Call:
    label: str
    kind: str
    start: float
    seconds: float
    items: int
    ok: bool
    digest: str


@dataclass
class Round:
    calls: list[Call] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.calls)


def run_round(workload, r: int, clock=None) -> Round:
    """Run round ``r``; with a ``ReferenceClock``, sample it between calls as due."""
    out = Round()
    for op in workload.round_ops(r):
        if clock is not None:
            clock.due()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing call is counted, and the run goes on
            out.calls.append(Call(op.label, op.kind, t0, time.perf_counter() - t0, 0, False, ""))
            out.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        seconds = time.perf_counter() - t0
        try:
            problems = op.check(result)
            items = op.items(result)
        except Exception as exc:
            problems, items = [f"{op.label}: check raised {type(exc).__name__}: {exc}"], 0
        out.calls.append(Call(op.label, op.kind, t0, seconds, items, not problems,
                              repr(result)))
        out.problems.extend(problems)
    return out


def _rate(calls: list[Call], kind: str | None = None, cost=lambda c: c.seconds) -> float:
    sel = [c for c in calls if kind is None or c.kind == kind]
    total = sum(cost(c) for c in sel)
    return sum(c.items for c in sel) / total if total > 0 else 0.0


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def timings(rounds: list[Round], cost, suffix: str) -> dict[str, float]:
    """Round, throughput and per-call figures, with ``cost(call)`` as a call's time."""
    calls = [c for rnd in rounds for c in rnd.calls]
    times = [cost(c) for c in calls]
    return {
        # a mean, not a median: kquery rounds differ in cost by their pairs,
        # and the run's pairs as a whole are balanced
        f"wall_{suffix}": statistics.fmean(sum(cost(c) for c in rnd.calls) for rnd in rounds),
        f"items_per_{suffix}": _rate(calls, cost=cost),
        f"call_p50_{suffix}": statistics.median(times),
        f"call_p90_{suffix}": _percentile(times, 90),
    }


def end_to_end(rounds: list[Round], setup_times: list[float], clock) -> dict[str, float]:
    in_ref = timings(rounds, lambda c: c.seconds / clock.around(c.start, c.start + c.seconds),
                     "ref")
    return {
        "setup_s": statistics.median(setup_times),
        **in_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_metrics(name: str, rounds: list[Round], stats) -> list[tuple[str, float, str]]:
    """The workload's own named metrics, for the summary lines."""
    calls = [c for rnd in rounds for c in rnd.calls]
    queries = [c.seconds for c in calls if c.kind == "query"]
    if name == "scan":
        return [("scan_triples_per_s", _rate(calls, "scan"), "1/s"),
                ("suite_pairs_per_s", _rate(calls, "suite"), "1/s")]
    out = []
    if name == "kquery":
        out += [("k_query_p50_s", statistics.median(queries), "s"),
                ("k_query_p90_s", _percentile(queries, 90), "s"),
                ("k_query_count", len(queries), "count")]
    out += [("k_queries_per_s", _rate(calls, "query"), "1/s"),
            ("k_err_max", max(stats.k_err_2d, default=float("nan")), "1")]
    if name == "kquery":
        out.append(("k_err_max_3d", max(stats.k_err_3d, default=float("nan")), "1"))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        setup_repeats: int = SETUP_REPEATS) -> tuple[list[str], dict]:
    """Run one workload; returns (summary lines, result record)."""
    # tracing and workloads import the library, so only after load_library()
    from reference import ReferenceClock
    from tracing import PER_LAYER_UNITS, Tracer, per_layer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, scale)
    stamp = machine_stamp()
    lines = ["machine " + " ".join(f"{k}={v}" for k, v in stamp.items())]
    # one small untimed round first, so lazy imports and first-touch costs
    # stay out of the timings; its inputs differ from the measured rounds'
    warm = run_round(WORKLOADS[workload](seed + 10**9, 0.1 * scale), 0)
    tracer = Tracer()
    clock = None if trace else ReferenceClock()
    rounds, traced = [], []
    setup_times, problems = [], []
    paused = 0.0                      # set-up samples do not count as run time

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def sample_setup() -> None:
        nonlocal paused
        t0 = time.perf_counter()
        took, problem = measure_setup()
        setup_times.append(took)
        if problem:
            problems.append(problem)
        paused += time.perf_counter() - t0

    start = time.perf_counter()
    # start a round only if it should end less than half a round late
    while not rounds or elapsed() * (1 + 0.5 / len(rounds)) < seconds:
        # set-up samples are spread over the run, so that one burst of
        # machine load does not set the median
        if not trace and len(setup_times) < setup_repeats \
                and elapsed() >= len(setup_times) * seconds / setup_repeats:
            sample_setup()
        rounds.append(run_round(wl, len(rounds), clock))
        if trace:
            with tracer:
                traced.append(run_round(wl, len(traced)))
    if clock is not None:
        clock.sample()                # every call has a sample after it
    while not trace and len(setup_times) < setup_repeats:
        sample_setup()

    attempted = len(setup_times) + sum(len(rnd.calls) for rnd in [warm] + rounds + traced)
    failed = len(problems) + sum(not c.ok for rnd in [warm] + rounds for c in rnd.calls)
    problems.extend(warm.problems)
    for rnd, twin in zip(rounds, traced):
        for plain, c in zip(rnd.calls, twin.calls):
            same = plain.digest == c.digest
            failed += not (c.ok and same)
            if not same:
                problems.append(f"{c.label}: traced result differs from the untraced one")
        problems.extend(twin.problems)
    for rnd in rounds:
        problems.extend(rnd.problems)

    named = [("rounds", len(rounds), "count"),
             ("failed_ratio", failed / attempted, "1")]
    if trace:
        metrics = per_layer(tracer.spans, len(traced))
        metrics["trace.wall_s"] = statistics.fmean(rnd.wall for rnd in traced)
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for u, t in zip(rounds, traced))
        units = PER_LAYER_UNITS
        named.append(("untraced.wall_s", statistics.fmean(rnd.wall for rnd in rounds), "s"))
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path, {"workload": workload, "seed": seed,
                                  "traced_rounds": len(traced), "machine": stamp})
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(rounds, setup_times, clock)
        units = END_TO_END
        in_s = timings(rounds, lambda c: c.seconds, "s")
        named += [(name, value, "1/s" if name.startswith("items") else "s")
                  for name, value in in_s.items()]
        named.append(("reference_s", statistics.median(clock.seconds), "s"))
        named += workload_metrics(workload, rounds, wl.stats)
    lines += [f"problem {p}" for p in problems]
    lines += [f"metric {name} {value!r} {unit}" for name, value, unit in named]
    lines += [f"metric {name} {metrics[name]!r} {unit}" for name, unit in units]
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    return lines, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["scan", "kquery", "kshared"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    error = load_library()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one round at a hundredth of its size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

assert bench.load_library() is None

import hypermetric  # noqa: E402
from reference import ReferenceClock  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_METRICS = {
    "scan": {"scan_triples_per_s": "1/s", "suite_pairs_per_s": "1/s"},
    "kquery": {"k_query_p50_s": "s", "k_query_p90_s": "s", "k_queries_per_s": "1/s",
               "k_err_max": "1", "k_err_max_3d": "1"},
    "kshared": {"k_queries_per_s": "1/s", "k_err_max": "1"},
}
COMMON = {"failed_ratio": "1", "wall_s": "s", "items_per_s": "1/s", "call_p50_s": "s",
          "call_p90_s": "s", "reference_s": "s", **dict(bench.END_TO_END)}


def _metric_lines(lines):
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_minimal_run_prints_every_metric(workload):
    lines, record = bench.run(workload, seed=3, seconds=0, trace=False, scale=0.01,
                              setup_repeats=1)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in record["metrics"].items()] == bench.END_TO_END
    assert all(v["value"] > 0 for v in record["metrics"].values())
    printed = _metric_lines(lines)
    for name, unit in {**COMMON, **WORKLOAD_METRICS[workload]}.items():
        assert printed[name][1] == unit, name
    assert printed["failed_ratio"][0] == 0.0
    assert any(line.startswith("machine nproc=") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    lines, record = bench.run(workload, seed=3, seconds=0, trace=True, scale=0.01)
    assert record["correct"], [line for line in lines if line.startswith("problem")]
    assert [(k, v["unit"]) for k, v in record["metrics"].items()] == PER_LAYER_UNITS
    assert record["metrics"]["cli.run.self_s"]["value"] > 0
    spans = json.loads((bench.OUT / f"spans-{workload}-seed3.json").read_text())
    assert spans["spans"] and spans["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_round_gives_identical_results(workload):
    original = hypermetric.quasihyperbolic.k_estimate
    wl = WORKLOADS[workload](5, 0.01)
    plain = bench.run_round(wl, 0)
    with Tracer() as tracer:
        traced = bench.run_round(wl, 0)
    assert tracer.spans
    assert [c.digest for c in traced.calls] == [c.digest for c in plain.calls]
    assert not plain.problems and not traced.problems
    assert hypermetric.quasihyperbolic.k_estimate is original


def test_counts_repeat_exactly():
    from tracing import per_layer

    runs = []
    for _ in range(2):
        wl = WORKLOADS["kquery"](7)
        with Tracer() as tracer:
            bench.run_round(wl, 0)
        runs.append(per_layer(tracer.spans, 1))
    for name, unit in PER_LAYER_UNITS:
        if unit != "s":
            assert runs[0][name] == runs[1][name], name
    assert runs[0]["quasihyperbolic.grids_per_query"] == 26 / 9  # 8 of 9 queries refine twice
    assert runs[0]["quasihyperbolic.nodes.h0.0125"] > runs[0]["quasihyperbolic.nodes.h0.025"]


def test_reference_clock_brackets_each_call():
    clock = ReferenceClock(every=0.0)
    clock.times, clock.seconds = [1.0, 2.0, 5.0], [0.1, 0.2, 0.4]
    assert clock.around(1.5, 1.8) == pytest.approx(0.15)
    assert clock.around(2.5, 4.0) == pytest.approx(0.3)   # one long call
    assert clock.around(0.5, 0.6) == pytest.approx(0.1)   # nothing before: the sample after
    clock.due()
    assert len(clock.times) == 4 and clock.seconds[-1] > 0

def test_without_library_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

"""The benchmark's import surface: every library name its tracer and
workloads use still exists, and the tracer puts every one back.

The benchmark's own tests run whole workloads and take most of a
minute; this check only imports its modules and installs the tracer.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_library_name():
    tracing = _load("tracing")
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"scan", "kquery", "kshared"}

    targets = tracing._targets()
    names = {name for name, *_ in targets}
    assert {"metrics.h_many", "domains.clearance", "quasihyperbolic.dijkstra",
            "verify.triangle_scan", "cli.run"} <= names

    def bound(owners, attr):
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner in owners]

    before = [(bound(owners, attr), original) for _, owners, attr, original, _ in targets]
    with tracing.Tracer():
        during = [bound(owners, attr) for _, owners, attr, _, _ in targets]
    after = [bound(owners, attr) for _, owners, attr, _, _ in targets]

    for (held, original), wrapped, restored in zip(before, during, after):
        assert held and all(fn is original for fn in held)
        assert all(fn is not original for fn in wrapped)
        assert all(fn is original for fn in restored)

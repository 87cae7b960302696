"""Spans around the benchmark's calls into each hypermetric module.

The tracer is installed only for the traced run.  It replaces public
functions and methods of the library with thin wrappers that record one
span each: (id, name, start, end, parent id, extras).  Module-level
functions are replaced wherever the package holds a reference to them
(``from .x import y`` copies a reference into the importing module), so
calls between modules are traced as well as calls from the benchmark.
Everything is restored when the tracer is removed.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

import hypermetric
from hypermetric import cli, domains, maps, metrics, moebius, quasihyperbolic, verify

_MODULES = (hypermetric, domains, metrics, moebius, quasihyperbolic, verify, maps, cli)
_DOMAIN_CLASSES = (
    domains.Domain, domains.UnitBall, domains.HalfSpace, domains.PuncturedSpace,
    domains.Interval, domains.GenericDomain,
)
_MAP_CLASSES = (moebius.Identity, moebius.BallAutomorphism, moebius.BallToHalfSpace)

#: kernels of the metrics layer; the first three read domain clearances
KERNELS = ("h_many", "j_many", "phi_many", "rho_ball_many", "rho_halfspace_many")
_DOMAIN_KERNELS = {f"metrics.{k}" for k in KERNELS[:3]}

#: spacings of the fixed node/edge count query (initial 0.05, 2 refinements)
FIXED_SPACINGS = (0.05, 0.025, 0.0125)
FIXED_QUERY = ((1.0, 0.0), (-0.6, 0.6))


def _rows(out, _args) -> dict:
    return {"n": int(len(out))}


def _grid_size(grid, _args) -> dict:
    return {"nodes": int(grid.nodes.shape[0]), "edges": int(grid.edges.shape[0])}


def _targets():
    """(span name, owners, attribute, original, extras) per wrapped callable."""
    fn = [
        ("domains.sample_interior", domains, "sample_interior", _rows),
        ("quasihyperbolic.k_estimate", quasihyperbolic, "k_estimate", None),
        ("quasihyperbolic.build_grid", quasihyperbolic, "build_grid", _grid_size),
        # the estimator's own reference to scipy's dijkstra
        ("quasihyperbolic.dijkstra", quasihyperbolic, "dijkstra", None),
        ("verify.triangle_scan", verify, "triangle_scan", None),
        ("verify.inequality_suite", verify, "inequality_suite", None),
        ("verify.uniformity_estimate", verify, "uniformity_estimate", None),
        ("cli.run", cli, "run", None),
    ] + [(f"metrics.{k}", metrics, k, _rows) for k in KERNELS]
    out = []
    for name, home, attr, extra in fn:
        original = getattr(home, attr)
        owners = [m for m in _MODULES if getattr(m, attr, None) is original]
        out.append((name, owners, attr, original, extra))
    methods = [
        ("domains.clearance", _DOMAIN_CLASSES, "clearance_many", _rows),
        ("domains.contains", _DOMAIN_CLASSES, "contains_many", _rows),
        ("moebius.apply", _MAP_CLASSES, "apply_many", _rows),
    ]
    for name, classes, attr, extra in methods:
        # only where defined: subclasses keep inheriting the wrapper
        for cls in classes:
            if attr in cls.__dict__:
                out.append((name, [cls], attr, cls.__dict__[attr], extra))
    return out


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [next(self._ids), name, time.perf_counter(), 0.0,
                   stack[-1][0] if stack else -1, None]
            self.spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(out, args)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, owners, attr, original, extra in _targets():
            wrapper = self._wrap(name, original, extra)
            for owner in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["id", "name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def _fixed_query_counts() -> dict[str, int]:
    """Nodes and edges of one fixed punctured:2 query at three spacings."""
    dom = domains.PuncturedSpace(2)
    x, y = FIXED_QUERY
    out = {}
    for h in FIXED_SPACINGS:
        grid = quasihyperbolic.build_grid(dom, h, x, y)
        out[f"quasihyperbolic.nodes.h{h:g}"] = int(grid.nodes.shape[0])
        out[f"quasihyperbolic.edges.h{h:g}"] = int(grid.edges.shape[0])
    return out


def per_layer(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics from spans of ``rounds`` traced rounds.

    Times (``.s`` inclusive, ``.self_s`` minus children) and counts are
    per round; ratios are over all spans.
    """
    by_id = {rec[0]: rec for rec in spans}
    child = defaultdict(float)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    total = defaultdict(float)       # inclusive seconds
    self_s = defaultdict(float)
    calls = defaultdict(int)
    rows = defaultdict(int)
    sampler_candidates = 0
    kernel_domain_rows = 0
    for rec in spans:
        ident, name, start, end, parent, extra = rec
        dur = end - start
        total[name] += dur
        self_s[name] += dur - child[ident]
        calls[name] += 1
        extra = extra or {}
        rows[name] += extra.get("n", 0)
        rows[name + ".nodes"] += extra.get("nodes", 0)
        rows[name + ".edges"] += extra.get("edges", 0)
        pname = by_id[parent][1] if parent >= 0 else ""
        if name == "domains.contains" and pname == "domains.sample_interior":
            sampler_candidates += extra.get("n", 0)
        if name in ("domains.contains", "domains.clearance") and pname in _DOMAIN_KERNELS:
            kernel_domain_rows += extra.get("n", 0)

    r = max(rounds, 1)
    queries = calls["quasihyperbolic.k_estimate"]
    kernel_pairs = sum(rows[k] for k in _DOMAIN_KERNELS)
    out = {
        "domains.clearance.points": rows["domains.clearance"] / r,
        "domains.clearance.s": total["domains.clearance"] / r,
        "domains.contains.points": rows["domains.contains"] / r,
        "domains.contains.s": total["domains.contains"] / r,
        "domains.sample_interior.s": total["domains.sample_interior"] / r,
        "domains.sample_interior.accept_ratio": _ratio(rows["domains.sample_interior"],
                                                       sampler_candidates),
    }
    for k in KERNELS:
        out[f"metrics.{k}.pairs"] = rows[f"metrics.{k}"] / r
        out[f"metrics.{k}.self_s"] = self_s[f"metrics.{k}"] / r
    out["metrics.clearance_per_pair"] = _ratio(kernel_domain_rows, kernel_pairs)
    out["moebius.apply.points"] = rows["moebius.apply"] / r
    out["moebius.apply.s"] = total["moebius.apply"] / r
    out.update({
        "quasihyperbolic.k_estimate.calls": queries / r,
        "quasihyperbolic.k_estimate.s": total["quasihyperbolic.k_estimate"] / r,
        "quasihyperbolic.build_grid.calls": calls["quasihyperbolic.build_grid"] / r,
        "quasihyperbolic.build_grid.self_s": self_s["quasihyperbolic.build_grid"] / r,
        "quasihyperbolic.grid.nodes": _ratio(rows["quasihyperbolic.build_grid.nodes"], queries),
        "quasihyperbolic.grid.edges": _ratio(rows["quasihyperbolic.build_grid.edges"], queries),
        "quasihyperbolic.grids_per_query": _ratio(calls["quasihyperbolic.build_grid"], queries),
        "quasihyperbolic.path.self_s": self_s["quasihyperbolic.k_estimate"] / r,
        "quasihyperbolic.dijkstra.calls": calls["quasihyperbolic.dijkstra"] / r,
        "quasihyperbolic.dijkstra.s": total["quasihyperbolic.dijkstra"] / r,
    })
    out.update(_fixed_query_counts())
    for entry in ("triangle_scan", "inequality_suite", "uniformity_estimate"):
        out[f"verify.{entry}.self_s"] = self_s[f"verify.{entry}"] / r
    out["cli.run.self_s"] = self_s["cli.run"] / r
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit) of every per-layer metric, in report order
PER_LAYER_UNITS = [
    ("domains.clearance.points", "count"),
    ("domains.clearance.s", "s"),
    ("domains.contains.points", "count"),
    ("domains.contains.s", "s"),
    ("domains.sample_interior.s", "s"),
    ("domains.sample_interior.accept_ratio", "ratio"),
    *[(f"metrics.{k}.{m}", u) for k in KERNELS for m, u in (("pairs", "count"), ("self_s", "s"))],
    ("metrics.clearance_per_pair", "count/pair"),
    ("moebius.apply.points", "count"),
    ("moebius.apply.s", "s"),
    ("quasihyperbolic.k_estimate.calls", "count"),
    ("quasihyperbolic.k_estimate.s", "s"),
    ("quasihyperbolic.build_grid.calls", "count"),
    ("quasihyperbolic.build_grid.self_s", "s"),
    ("quasihyperbolic.grid.nodes", "count/query"),
    ("quasihyperbolic.grid.edges", "count/query"),
    *[(f"quasihyperbolic.{kind}.h{h:g}", "count") for kind in ("nodes", "edges")
      for h in FIXED_SPACINGS],
    ("quasihyperbolic.grids_per_query", "grids/query"),
    ("quasihyperbolic.path.self_s", "s"),
    ("quasihyperbolic.dijkstra.calls", "count"),
    ("quasihyperbolic.dijkstra.s", "s"),
    ("verify.triangle_scan.self_s", "s"),
    ("verify.inequality_suite.self_s", "s"),
    ("verify.uniformity_estimate.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

"""Command-line interface.

Commands::

    dist          evaluate one distance between two points
    scan-triangle sampled triangle-inequality scan of a distance
    verify-suite  run one named inequality suite
    falsify       search the collinear family for sub-sharp c violations
    k-estimate    quasihyperbolic shortest-path estimate with history
    dilatation    sampled linear-dilatation estimate of a map
    uniformity    empirical uniformity constant max k/j

Exit status: 0 on success / pass, 1 on verification failure (a report is
still printed), 2 on usage errors.  Output is deterministic for a fixed
argument vector; JSON objects are key-sorted.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .domains import parse_domain
from .maps import linear_dilatation, parse_map
from .metrics import MetricKind, MetricParams, pair_evaluator
from .quasihyperbolic import DEFAULT_NODE_CAP, GridError, KControls, k_estimate
from .verify import (
    SUITES,
    collinear_c_scan,
    inequality_suite,
    triangle_scan,
    uniformity_estimate,
)

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE = 0, 1, 2


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"bad point {text!r}; expected comma-separated reals") from None


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _add_common(p: argparse.ArgumentParser, *, count_default: int):
    p.add_argument("--domain", required=True, help="ball:N | halfspace:N | punctured:N | interval:A:B")
    p.add_argument("--c", type=float, default=2.0, help="h-metric constant (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=count_default)
    p.add_argument("--tolerance", type=float, default=None, help="override the suite tolerance")
    p.add_argument("--output", choices=["json", "csv"], default="json")


def _add_k_flags(p: argparse.ArgumentParser, spacing: float = 0.05, refinements: int = 2):
    p.add_argument("--spacing", type=float, default=spacing)
    p.add_argument("--refinements", type=int, default=refinements)
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hypermetric", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="evaluate a distance between two points")
    p.add_argument("--domain", required=True)
    p.add_argument("--metric", required=True,
                   help="h | j | phi | rho-ball | rho-halfspace | k")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--points", nargs=2, required=True, metavar="PT",
                   help="two points, comma-separated coordinates each")
    p.add_argument("--precision", type=int, default=6)
    _add_k_flags(p)

    p = sub.add_parser("scan-triangle", help="triangle-inequality scan")
    _add_common(p, count_default=100_000)
    p.add_argument("--metric", default="h")

    p = sub.add_parser(
        "verify-suite", help="run a named inequality suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="suites:\n" + "\n".join(f"  {sid:<8} {suite.statement}"
                                         for sid, suite in SUITES.items()),
    )
    _add_common(p, count_default=10_000)
    p.add_argument("--suite", required=True, choices=list(SUITES))
    _add_k_flags(p)

    p = sub.add_parser("falsify", help="collinear scan for sub-sharp c")
    p.add_argument("--domain", default="ball:2")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--r-points", type=int, default=None,
                   help="optional size of a uniform-in-log grid to use")

    p = sub.add_parser("k-estimate", help="quasihyperbolic estimate")
    p.add_argument("--domain", required=True)
    p.add_argument("--points", nargs=2, required=True, metavar="PT")
    _add_k_flags(p)

    p = sub.add_parser("dilatation", help="linear dilatation of a map")
    p.add_argument("--map", required=True,
                   help="identity:DOMAIN | auto:A1,A2 | b2h:N | stretch:ALPHA")
    p.add_argument("--z", required=True, help="base point")
    p.add_argument("--radii", default="0.1,0.01,0.001")
    p.add_argument("--sphere-samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("uniformity", help="empirical uniformity constant")
    p.add_argument("--domain", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_k_flags(p, spacing=0.1, refinements=1)
    return top


def _cmd_dist(args) -> int:
    domain = parse_domain(args.domain)
    kind = MetricKind.parse(args.metric)
    params = MetricParams(args.c)
    x = _parse_point(args.points[0])
    y = _parse_point(args.points[1])
    controls = (KControls(args.spacing, args.refinements, args.node_cap)
                if kind is MetricKind.QUASIHYPERBOLIC else None)
    value = float(pair_evaluator(kind, domain, params, controls)(x[None, :], y[None, :])[0])
    precision = min(max(args.precision, 0), 15)
    print(f"{value:.{precision}f}")
    return _EXIT_PASS


def _emit_report(report, output: str) -> int:
    if output == "csv":
        print("\n".join(report.csv_lines()))
    else:
        print(report.to_json())
    return _EXIT_PASS if report.passed else _EXIT_FAIL


def _cmd_scan_triangle(args) -> int:
    domain = parse_domain(args.domain)
    kind = MetricKind.parse(args.metric)
    params = MetricParams(args.c)
    report = triangle_scan(domain, kind, params, args.count, args.seed,
                           tolerance=args.tolerance, keep_slacks=(args.output == "csv"))
    return _emit_report(report, args.output)


def _cmd_verify_suite(args) -> int:
    domain = parse_domain(args.domain)
    params = MetricParams(args.c)
    controls = KControls(args.spacing, args.refinements, args.node_cap)
    report = inequality_suite(
        args.suite, domain, params, args.count, args.seed,
        tolerance=args.tolerance, k_controls=controls,
        keep_slacks=(args.output == "csv"),
    )
    return _emit_report(report, args.output)


def _cmd_falsify(args) -> int:
    domain = parse_domain(args.domain)
    if domain.spec_string() != "ball:2":
        raise ValueError("falsify scans the collinear family in ball:2")
    grid = None
    if args.r_points is not None:
        if args.r_points < 2:
            raise ValueError("--r-points must be >= 2")
        grid = 1.0 - np.logspace(-1.3, -8.0, args.r_points)
    hit = collinear_c_scan(args.c, grid)
    out = {"c": args.c, "domain": domain.spec_string()}
    if hit is None:
        out.update({"violating_r": None})
        print(_dump(out))
        return _EXIT_PASS
    out.update({"violating_r": hit.r, "lhs_two_sided": hit.lhs, "rhs_chord": hit.rhs})
    print(_dump(out))
    return _EXIT_FAIL


def _cmd_k_estimate(args) -> int:
    domain = parse_domain(args.domain)
    x = _parse_point(args.points[0])
    y = _parse_point(args.points[1])
    est = k_estimate(domain, x, y, args.spacing, args.refinements,
                     node_cap=args.node_cap)
    print(_dump({
        "domain": domain.spec_string(),
        "value": est.value,
        "spacing": est.spacing,
        "refinement_history": [[s, v] for s, v in est.refinement_history],
    }))
    return _EXIT_PASS


def _cmd_dilatation(args) -> int:
    mapping = parse_map(args.map)
    z = _parse_point(args.z)
    radii = [float(v) for v in args.radii.split(",")]
    est = linear_dilatation(mapping, z, radii, args.sphere_samples, args.seed)
    print(_dump({
        "map": args.map,
        "z": list(map(float, est.z)),
        "radii": list(est.radii),
        "ratios": list(est.ratios),
        "H_hat": est.H_hat,
    }))
    return _EXIT_PASS


def _cmd_uniformity(args) -> int:
    domain = parse_domain(args.domain)
    controls = KControls(args.spacing, args.refinements, args.node_cap)
    est = uniformity_estimate(domain, args.count, args.seed, controls)
    print(_dump({
        "domain": domain.spec_string(),
        "U_hat": est.U_hat,
        "sample_count": est.sample_count,
        "worst_pair": [list(est.worst_pair[0]), list(est.worst_pair[1])],
    }))
    return _EXIT_PASS


_COMMANDS = {
    "dist": _cmd_dist,
    "scan-triangle": _cmd_scan_triangle,
    "verify-suite": _cmd_verify_suite,
    "falsify": _cmd_falsify,
    "k-estimate": _cmd_k_estimate,
    "dilatation": _cmd_dilatation,
    "uniformity": _cmd_uniformity,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, GridError, ArithmeticError) as exc:
        print(f"hypermetric: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run(sys.argv[1:]))

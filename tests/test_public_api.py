"""The public surface is what the library calls: every name that
``hypermetric`` exports, and every public method and property of an
exported class, is used by the code of another library module, or is an
entry point that only users call, named below with its reason."""

import ast
import inspect
from pathlib import Path

import hypermetric

PACKAGE = Path(hypermetric.__file__).resolve().parent

ENTRY_POINTS = {
    "h_metric": "README tour: h_c of one pair",
    "j_metric": "README tour: j of one pair",
    "phi_quantity": "README tour: phi of one pair",
    "rho_ball": "README tour: the ball's hyperbolic distance of one pair",
    "rho_halfspace": "README tour: the half-space's hyperbolic distance, k's oracle there",
    "GenericDomain": "README domains: a domain from caller oracles",
    "lipschitz_defect": "README domains: checks a GenericDomain's clearance is 1-Lipschitz",
    "phi_triangle_counterexample": "acceptance criterion 3: phi's triangle failure",
    "bilipschitz_estimate": "acceptance criterion 9: the map's sampled h_c distortion",
    "absolute_ratio": "the Moebius invariant the maps are checked against",
    "GeodesicGrid.edges": "perfbench: the per-layer edge counts of the lattices",
    "InequalityReport.from_json": "README: a report's JSON round trip",
}


def referenced_names():
    """Names, and attribute names, read by the code of every module but
    ``__init__.py`` (docstrings and comments do not count)."""
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def exported():
    return {name: getattr(hypermetric, name) for name in hypermetric.__all__
            if not inspect.ismodule(getattr(hypermetric, name))}


def public_members():
    """"Class.name" of every public method and property of an exported
    class, or of a ``hypermetric`` class it inherits from."""
    members = set()
    for cls in filter(inspect.isclass, exported().values()):
        for owner in cls.__mro__:
            if not owner.__module__.startswith("hypermetric."):
                continue
            for name, value in vars(owner).items():
                if not name.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, (property, classmethod, staticmethod))):
                    members.add(f"{owner.__name__}.{name}")
    return members


def test_every_export_has_a_caller_or_is_an_entry_point():
    names, attributes = referenced_names()
    unused = set(exported()) - names - attributes
    entry_points = {name for name in ENTRY_POINTS if "." not in name}
    assert sorted(unused - entry_points) == []
    # the list names only exports that nothing in the library calls
    assert sorted(entry_points - unused) == []


def test_every_public_member_has_a_caller_or_is_an_entry_point():
    _, attributes = referenced_names()
    unused = {member for member in public_members()
              if member.partition(".")[2] not in attributes}
    entry_points = {name for name in ENTRY_POINTS if "." in name}
    assert sorted(unused - entry_points) == []
    assert sorted(entry_points - unused) == []

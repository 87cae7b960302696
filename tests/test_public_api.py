"""The public surface is what the library calls: every name that
``hypermetric`` exports is used by the code of another library module,
or is an entry point that only users call, named below with its reason."""

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
    "k_exact_punctured": "acceptance criterion 7: the punctured space's k oracle",
    "bilipschitz_estimate": "acceptance criterion 9: the map's sampled h_c distortion",
    "absolute_ratio": "the Moebius invariant the maps are checked against",
}


def referenced_names():
    """Names and attributes read by the code of every module but
    ``__init__.py`` (docstrings and comments do not count)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_is_an_entry_point():
    exported = {name for name in hypermetric.__all__
                if not inspect.ismodule(getattr(hypermetric, name))}
    used = referenced_names()
    assert sorted(exported - used - set(ENTRY_POINTS)) == []
    # the list names only exports that nothing in the library calls
    assert sorted(set(ENTRY_POINTS) - (exported - used)) == []

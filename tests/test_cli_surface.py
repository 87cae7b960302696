"""The CLI surface: which subcommands take the estimator's controls.

Every built-in domain answers ``Domain.k_exact``, and the CLI names only
built-in domains, so the lattice controls change the output of
``k-estimate`` alone; any other command that took them could only fail
their validation."""

import argparse

from hypermetric.cli import _build_parser

K_FLAGS = {"--spacing", "--refinements", "--node-cap"}


def subcommand_options():
    """Option strings of each subcommand, by name."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for action in parser._actions for s in action.option_strings}
            for name, parser in sub.choices.items()}


def test_only_k_estimate_takes_k_flags():
    options = subcommand_options()
    assert K_FLAGS <= options.pop("k-estimate")
    assert sorted(options) == ["dilatation", "dist", "falsify", "scan-triangle",
                               "uniformity", "verify-suite"]
    assert {name: sorted(K_FLAGS & flags) for name, flags in options.items()} == {
        name: [] for name in options}

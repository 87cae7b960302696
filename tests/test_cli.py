import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hypermetric.cli import run
from hypermetric.domains import Domain, UnitBall, parse_domain
from hypermetric.metrics import MetricKind, MetricParams, pair_evaluator
from hypermetric.quasihyperbolic import k_estimate
from hypermetric.verify import SUITES, inequality_suite

from test_domains import annulus_domain


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


class TestDist:
    def test_ball_h(self):
        code, out = invoke(
            ["dist", "--domain", "ball:2", "--metric", "h", "--c", "2",
             "--points", "0,0", "0.5,0"]
        )
        assert code == 0
        assert out == "0.881374\n"

    def test_precision_flag(self):
        code, out = invoke(
            ["dist", "--domain", "ball:2", "--metric", "j",
             "--points", "0,0", "0.5,0", "--precision", "12"]
        )
        assert code == 0
        assert out == "0.693147180560\n"

    def test_k_metric(self):
        code, out = invoke(
            ["dist", "--domain", "halfspace:2", "--metric", "k", "--points", "0,1", "1,1"]
        )
        assert code == 0
        assert abs(float(out) - 0.962424) < 0.01

    @pytest.mark.parametrize("precision", [[], ["--precision", "15"]])
    @pytest.mark.parametrize("domain, points", [
        ("ball:2", ["0.1,0.2", "0.5,-0.3"]),
        ("halfspace:2", ["0,1", "1,1"]),
        ("interval:0:1", ["0.2", "0.7"]),
    ])
    def test_k_metric_prints_the_k_estimate_value(self, domain, points, precision):
        # the value k's consumers read: Domain.k_exact on the built-ins,
        # which k-estimate does not print; the estimate where no closed
        # form is known is test_k_metric_is_the_estimate_on_a_generic_domain
        query = ["--domain", domain, "--points", *points]
        code, out = invoke(["k-estimate", *query, "--spacing", "0.1", "--refinements", "1"])
        assert code == 0
        x, y = (np.array([[float(v) for v in p.split(",")]]) for p in points)
        exact = float(parse_domain(domain).k_exact(x, y)[0])
        assert exact != json.loads(out)["value"]
        digits = int(precision[1]) if precision else 6
        expected = f"{exact:.{digits}f}\n"
        assert invoke(["dist", "--metric", "k", *query, *precision]) == (0, expected)

    def test_k_metric_is_the_estimate_on_a_generic_domain(self):
        # at the default controls, which dist --metric k would use
        ring = annulus_domain()
        xs, ys = np.array([[0.5, 0.0], [-0.4, 0.3]]), np.array([[0.0, 0.6], [0.6, -0.2]])
        k = pair_evaluator(MetricKind.QUASIHYPERBOLIC, ring, MetricParams(2.0))(xs, ys)
        assert np.array_equal(k, [k_estimate(ring, x, y).value for x, y in zip(xs, ys)])

    def test_closed_form_rejects_k_flags(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = invoke(["dist", "--domain", "ball:2", "--metric", "h",
                                "--points", "0.1,0.2", "0.5,-0.3", "--spacing", "0"])
        assert (code, out) == (2, "")
        assert err.getvalue().endswith("error: unrecognized arguments: --spacing 0\n")


class TestFalsify:
    def test_sub_sharp_c(self):
        code, out = invoke(["falsify", "--domain", "ball:2", "--c", "1.9"])
        assert code == 1
        obj = json.loads(out)
        assert 0.9972 <= obj["violating_r"] < 1.0

    def test_sharp_c(self):
        code, out = invoke(["falsify", "--domain", "ball:2", "--c", "2"])
        assert code == 0
        assert json.loads(out)["violating_r"] is None

    def test_wrong_domain(self):
        code, _ = invoke(["falsify", "--domain", "halfspace:2", "--c", "1.9"])
        assert code == 2

    @pytest.mark.parametrize("c", ["2.5", "10"])
    def test_larger_c(self, c):
        assert invoke(["falsify", "--c", c]) == (0, f'{{"c": {float(c)}, "domain": "ball:2", '
                                                    f'"violating_r": null}}\n')

    def test_c_near_two(self):
        code, out = invoke(["falsify", "--domain", "ball:2", "--c", "1.9999"])
        assert code == 1
        obj = json.loads(out)
        assert obj["r_star"] < obj["violating_r"] < 1.0
        assert obj["lhs_two_sided"] < obj["rhs_chord"]

    def test_no_double_witness(self):
        # no double radius lies above r*: h_c is still no metric
        assert invoke(["falsify", "--c", "1.999999979"]) == (1, (
            '{"c": 1.999999979, "domain": "ball:2", "r_star": 0.9999999999999999, '
            '"violating_r": null}\n'))

    @pytest.mark.parametrize("c", ["inf", "nan", "0"])
    def test_c_must_be_a_positive_real(self, c):
        err = io.StringIO()
        with redirect_stderr(err):
            assert invoke(["falsify", "--c", c]) == (2, "")
        assert err.getvalue() == f"hypermetric: error: c must be a positive real, got {float(c)}\n"


class TestVerifySuite:
    def test_pass(self):
        code, out = invoke(
            ["verify-suite", "--suite", "T4_6", "--domain", "ball:2", "--c", "2",
             "--count", "2000", "--seed", "42"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["suite_id"] == "T4_6"
        assert set(obj) == {"suite_id", "domain", "params", "seed", "sample_count",
                            "min_slack", "witness", "pass", "tolerance"}

    def test_help_lists_suite_statements(self):
        code, out = invoke(["verify-suite", "--help"])
        assert code == 0
        for suite_id, suite in SUITES.items():
            assert f"  {suite_id:<8} {suite.statement}\n" in out

    def test_readme_table_matches_suites(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line.split("|", 2)[1:] for line in readme.splitlines()
                if line.startswith("| `")]
        table = [(cell.strip().strip("`"),
                  rest.rstrip().removesuffix("|").strip().replace("\\|", "|"))
                 for cell, rest in rows]
        assert table == [(suite_id, suite.statement) for suite_id, suite in SUITES.items()]

    def test_k_suite_default_controls_are_the_cli_defaults(self, monkeypatch):
        # the ball's k is exact whatever the controls, so hide its closed
        # form to read the estimate at the default controls
        monkeypatch.setattr(UnitBall, "k_exact", Domain.k_exact)
        _, out = invoke(["verify-suite", "--suite", "C4_5", "--domain", "ball:2",
                         "--count", "4", "--seed", "1"])
        report = inequality_suite("C4_5", UnitBall(2), MetricParams(2.0), 4, seed=1)
        assert report.params["k_source"] == "estimate"
        assert out == report.to_json() + "\n"

    def test_csv_row_count(self):
        code, out = invoke(
            ["verify-suite", "--suite", "L2_9", "--domain", "ball:2",
             "--count", "500", "--seed", "1", "--output", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,slack"
        assert len(lines) == 501


class TestScanTriangle:
    def test_phi_fails(self):
        code, out = invoke(
            ["scan-triangle", "--domain", "ball:2", "--metric", "phi",
             "--count", "20000", "--seed", "42"]
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_h_passes(self):
        code, out = invoke(
            ["scan-triangle", "--domain", "interval:0:1", "--metric", "h",
             "--count", "5000", "--seed", "42"]
        )
        assert code == 0


class TestKEstimate:
    def test_history(self):
        code, out = invoke(
            ["k-estimate", "--domain", "halfspace:2", "--points", "0,1", "1,1",
             "--spacing", "0.1", "--refinements", "1"]
        )
        assert code == 0
        obj = json.loads(out)
        assert [s for s, _ in obj["refinement_history"]] == [0.1, 0.05]
        assert abs(obj["value"] - 0.962424) < 0.01


class TestDilatation:
    def test_moebius(self):
        code, out = invoke(
            ["dilatation", "--map", "auto:0.3,0", "--z", "0,0",
             "--radii", "0.1,0.01,0.001"]
        )
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["H_hat"] - 1.0) <= 1e-3


class TestUniformity:
    def test_small_run(self):
        code, out = invoke(
            ["uniformity", "--domain", "ball:2", "--count", "8", "--seed", "3"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["U_hat"] >= 1.0 and obj["k_source"] == "exact"


class TestNegativeCoordinates:
    """A point whose first coordinate is negative, such as a diameter
    pair's, is a value wherever the CLI takes a point, not an option."""

    def test_dist_across_the_centre(self):
        code, out = invoke(["dist", "--domain", "ball:2", "--metric", "h",
                            "--points", "-0.3,0", "0.3,0"])
        h = pair_evaluator(MetricKind.H, UnitBall(2), MetricParams(2.0))(
            np.array([[-0.3, 0.0]]), np.array([[0.3, 0.0]]))[0]
        assert (code, out) == (0, f"{h:.6f}\n")

    def test_k_estimate_across_the_centre(self):
        code, out = invoke(["k-estimate", "--domain", "ball:2", "--points", "0.3,0", "-0.3,0"])
        assert code == 0
        assert json.loads(out)["value"] == k_estimate(UnitBall(2), (0.3, 0.0), (-0.3, 0.0)).value

    def test_dilatation_base_point(self):
        code, out = invoke(["dilatation", "--map", "auto:0.5,0", "--z", "-0.2,0.1"])
        assert code == 0
        assert json.loads(out)["z"] == [-0.2, 0.1]

    def test_an_unknown_option_is_still_one(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = invoke(["dist", "--domain", "ball:2", "--metric", "h",
                              "--points", "-x,0", "0.3,0"])
        assert code == 2 and "expected 2 arguments" in err.getvalue()


class TestUsageErrors:
    def test_unknown_domain(self):
        code, _ = invoke(["dist", "--domain", "torus:2", "--metric", "h",
                          "--points", "0,0", "0.5,0"])
        assert code == 2

    def test_unknown_metric(self):
        code, _ = invoke(["dist", "--domain", "ball:2", "--metric", "manhattan",
                          "--points", "0,0", "0.5,0"])
        assert code == 2

    def test_metric_domain_mismatch(self):
        code, _ = invoke(["dist", "--domain", "halfspace:2", "--metric", "rho-ball",
                          "--points", "0,1", "1,1"])
        assert code == 2

    def test_bad_point(self):
        code, _ = invoke(["dist", "--domain", "ball:2", "--metric", "h",
                          "--points", "0;0", "0.5,0"])
        assert code == 2

    def test_unknown_command(self):
        code, _ = invoke(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["k-estimate", "--domain", "ball:2", "--points", "0,0", "0.5,0"],
        ["dist", "--domain", "ball:2", "--metric", "k", "--points", "0,0", "0.5,0"],
        ["uniformity", "--domain", "ball:2", "--count", "8"],
        ["verify-suite", "--suite", "C4_5", "--domain", "ball:2", "--count", "4"],
    ])
    @pytest.mark.parametrize("flags, message", [
        (["--spacing", "inf"], "spacing must be finite"),
        (["--refinements", "5000"], "refinements must leave a positive finest spacing"),
        # past int64, the window's cells are counted exactly
        (["--spacing", "1e-12"], "lattice window [-1.0, 1.0] x [-1.0, 1.0] at spacing 1e-12 holds "
                                 "4000000000004000000000001 cells (cap 2000000); increase "
                                 "spacing or the node cap"),
    ])
    def test_k_controls_that_cannot_run(self, command, flags, message):
        # only k-estimate takes the flags and validates them; every other
        # command reads k exactly on the built-in domains and rejects them
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stderr(err):
                code, out = invoke(command + flags)
        assert (code, out) == (2, "")
        if command[0] == "k-estimate":
            assert err.getvalue() == f"hypermetric: error: {message}\n"
        else:
            assert err.getvalue().startswith("usage: hypermetric")
            assert err.getvalue().endswith(
                f"hypermetric: error: unrecognized arguments: {' '.join(flags)}\n")


    @pytest.mark.parametrize("domain, points, flags, box", [
        ("interval:1e19:1.00000000000001e19", ["1.000000000000002e19", "1.000000000000005e19"],
         ["--refinements", "0"], "[1e+19, 1.00000000000001e+19]"),
        ("interval:1e15:1.0000000001e15", ["1.00000000002e15", "1.00000000005e15"], [],
         "[1000000000000000.0, 1000000000100000.0]"),
    ], ids=["past-int64", "below-resolution"])
    def test_lattice_far_from_the_origin(self, domain, points, flags, box):
        # nodes sit at i h, which cannot resolve the spacing past |i| = 2^52
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stderr(err):
                code, out = invoke(["k-estimate", "--domain", domain, "--points", *points,
                                    *flags])
        assert (code, out) == (2, "")
        assert err.getvalue() == (
            f"hypermetric: error: lattice window {box} at "
            f"spacing 0.05 needs cell indices of 2^52 or more, where the nodes' "
            f"coordinates cannot resolve the spacing\n")

    @pytest.mark.parametrize("command", [
        ["dist", "--metric", "k", "--points", "-1", "1"],
        ["uniformity", "--count", "16"],
        ["verify-suite", "--suite", "C4_5", "--count", "16"],
        ["scan-triangle", "--metric", "k", "--count", "16"],
        ["k-estimate", "--points", "-1", "1"],
    ], ids=lambda command: command[0])
    def test_k_across_the_puncture_of_the_line(self, command):
        # punctured:1 is two half-lines, and no curve joins them
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = invoke(command + ["--domain", "punctured:1"])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("hypermetric: error: ")
        assert "two components (-inf, 0) and (0, inf)" in err.getvalue()


class TestReproducibility:
    def test_byte_identical_outputs(self):
        argvs = [
            ["verify-suite", "--suite", "L2_9", "--domain", "ball:2",
             "--count", "1000", "--seed", "9"],
            ["scan-triangle", "--domain", "ball:2", "--metric", "h",
             "--count", "5000", "--seed", "9"],
            ["falsify", "--domain", "ball:2", "--c", "1.5"],
        ]
        for argv in argvs:
            assert invoke(argv) == invoke(argv)

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hypermetric.cli import run
from hypermetric.verify import SUITES


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
            ["dist", "--domain", "halfspace:2", "--metric", "k",
             "--points", "0,1", "1,1", "--spacing", "0.1", "--refinements", "1"]
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
        query = ["--domain", domain, "--points", *points, "--spacing", "0.1",
                 "--refinements", "1"]
        code, out = invoke(["k-estimate", *query])
        assert code == 0
        digits = int(precision[1]) if precision else 6
        expected = f"{json.loads(out)['value']:.{digits}f}\n"
        assert invoke(["dist", "--metric", "k", *query, *precision]) == (0, expected)

    def test_closed_form_ignores_k_flags(self):
        code, out = invoke(["dist", "--domain", "ball:2", "--metric", "h",
                            "--points", "0.1,0.2", "0.5,-0.3", "--spacing", "0"])
        assert (code, out) == (0, "1.178942\n")


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
            ["uniformity", "--domain", "ball:2", "--count", "8", "--seed", "3",
             "--spacing", "0.1", "--refinements", "0"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["U_hat"] >= 1.0


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
    ])
    def test_k_controls_that_cannot_run(self, command, flags, message):
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stderr(err):
                code, out = invoke(command + flags)
        assert (code, out) == (2, "")
        assert err.getvalue() == f"hypermetric: error: {message}\n"


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

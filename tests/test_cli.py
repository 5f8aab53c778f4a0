import io
import json
import os
import subprocess
import sys
import time

import pytest

import chabauty_rz
from chabauty_rz import InvalidParameter, ParseError, run_cli
from chabauty_rz.earring import MAX_WIND_RATIO
from chabauty_rz.plot import render_model_svg
from chabauty_rz.suites import SUITE_NAMES, UnknownSuite, run_suite


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


class TestClassify:
    def test_generators(self):
        code, out = run(["classify", "gen[(1/2,0),(1/3,0)]"])
        assert code == 0
        assert out.strip() == "I(alpha=6)"

    def test_canonicalizes(self):
        for literal, canonical in [
            ("III(alpha=1,beta=7/2,n=-1)", "III(alpha=1,beta=1/2,n=1)"),
            # printed from the record's fields: beta mod 1 after the sign flip
            ("III(alpha=2,beta=7/3,n=-2)", "III(alpha=2,beta=2/3,n=2)"),
        ]:
            assert run(["classify", literal]) == (0, canonical + "\n")

    def test_parse_error_exit_code(self):
        code, _ = run(["classify", "V(n=1)"])
        assert code == 2

    def test_domain_error_exit_code(self):
        code, _ = run(["classify", "I(alpha=-2)"])
        assert code == 1

    def test_text_that_is_not_a_literal_exits_2(self, capsys):
        # out-of-range parameters do not matter when the text is not a literal
        for text, pos in [("IV(n=0)(", 7), ("I(alpha=-1)x", 11), ("IV(n=1)(", 7)]:
            code, _ = run(["classify", text])
            assert code == 2
            assert capsys.readouterr().err == f"parse error: at position {pos}: trailing input\n"

    def test_digit_int_does_not_read_is_not_an_integer(self, capsys):
        code, _ = run(["classify", "I(alpha=\u00b2)"])
        assert code == 2
        assert capsys.readouterr().err == "parse error: at position 8: expected an integer\n"

    def test_whitespace_around_every_token(self):
        code, out = run(["classify", " gen[ (1/2 , 0) , (1/3,0) ] "])
        assert (code, out) == (0, "I(alpha=6)\n")

    @pytest.mark.parametrize("argv", [
        ["classify", "I(alpha=" + "9" * 5000 + ")"],
        ["dist", "I(alpha=1)", "I(alpha=2)", "--tol", "1/" + "9" * 5000],
    ])
    def test_overlong_integer_is_a_parse_error(self, argv, capsys):
        code, _ = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parse error:")
        assert "Traceback" not in err


class TestDist:
    def test_bracket_contains_hand_value(self):
        code, out = run(["dist", "I(alpha=inf)", "IV(n=1)", "--tol", "1/1000"])
        assert code == 0
        lo, hi = out.strip().strip("[]").split(",")
        assert eval_frac(lo) <= 1 <= eval_frac(hi)

    def test_symmetry(self):
        a = run(["dist", "I(alpha=1)", "I(alpha=2)"])
        b = run(["dist", "I(alpha=2)", "I(alpha=1)"])
        assert a == b

    def test_negative_rational_tolerance_is_a_domain_error(self, capsys):
        # argparse would take "-1/2" for an option without the wider pattern
        code, out = run(["dist", "I(alpha=1)", "I(alpha=2)", "--tol", "-1/2"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "ToleranceInvalid: tol must be > 0\n"


def eval_frac(text):
    from fractions import Fraction

    return Fraction(text)


class TestLimit:
    def test_sequence_file(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text(
            "# escape to the basepoint\n"
            "II(gamma=8,n=1)\n"
            "II(gamma=16,n=1)\n"
            "II(gamma=32,n=1)\n"
            "II(gamma=64,n=1)\n",
            encoding="utf-8",
        )
        code, out = run(
            ["limit", "--seq", str(seq), "--limit", "I(alpha=0)",
             "--tol", "1/10", "--tail", "2"]
        )
        assert code == 0
        assert "result pass" in out

    def test_failing_limit(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("II(gamma=1,n=1)\n", encoding="utf-8")
        code, out = run(
            ["limit", "--seq", str(seq), "--limit", "I(alpha=0)",
             "--tol", "1/10", "--tail", "1"]
        )
        assert code == 1
        assert "result fail" in out

    def test_parse_error_names_file_and_line_once(self, tmp_path, capsys):
        seq = tmp_path / "bad.txt"
        seq.write_text("II(gamma=8,n=1)\nbad\n", encoding="utf-8")
        code, _ = run(["limit", "--seq", str(seq), "--limit", "I(alpha=0)"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"parse error: {seq}:2: at position 0: "
            "expected a family name or 'gen'\n"
        )

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        seq = tmp_path / "seq.bin"
        seq.write_bytes(b"II(gamma=8,n=1)\n\xff\n")
        code, out = run(["limit", "--seq", str(seq), "--limit", "I(alpha=0)"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"parse error: {seq}: at position 16: not UTF-8: invalid start byte\n"
        )

    def test_missing_file(self):
        code, _ = run(["limit", "--seq", "/no/such/file", "--limit", "I(alpha=0)"])
        assert code == 1


class TestModel:
    def test_texts(self):
        assert run(["model", "I(alpha=3)"]) == (0, "segment(alpha=3)\n")
        assert run(["model", "I(alpha=0)"]) == (0, "earring(basepoint)\n")
        assert run(["model", "II(gamma=3/2,n=6)"]) == (
            0,
            "earring(circle=6,t=1/4)\n",
        )
        assert run(["model", "III(alpha=2,beta=1/3,n=2)"]) == (
            0,
            "cone(k=2,alpha=2,beta=1/3)\n",
        )
        assert run(["model", "IV(n=2)"]) == (0, "cone(k=2,alpha=inf,beta=0)\n")


class TestWind:
    def test_exact(self):
        assert run(["wind", "--cone", "2", "--circle", "6"]) == (0, "2\n")
        assert run(["wind", "--cone", "2", "--circle", "5"]) == (0, "0\n")

    def test_sampled(self, capsys):
        for cone, circle, grid, prec, want in [
            (2, 4, 1024, 64, (0, "1\n", "")),
            (1, 1, 4096, 512, (0, "1\n", "")),  # the largest precision, over its half layout
            (2, 4, 4096, 255, (0, "1\n", "")),  # an odd precision, through the mirrored layout
            (1, 1, 64, 1,
             (1, "", "UnresolvedSample: grid point 33/64 unresolved at precision 1\n")),
        ]:
            argv = ["wind", "--cone", str(cone), "--circle", str(circle), "--sampled",
                    "--grid", str(grid), "--prec", str(prec)]
            assert (*run(argv), capsys.readouterr().err) == want, argv

    def test_domain_error(self):
        code, _ = run(["wind", "--cone", "0", "--circle", "3"])
        assert code == 1

    def test_exact_count_cap(self, capsys):
        start = time.perf_counter()
        code, out = run(["wind", "--cone", "2", "--circle", "100000000"])
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"InvalidParameter: circle / cone must be <= {MAX_WIND_RATIO}\n"
        )
        assert elapsed < 0.5

    def test_largest_exact_count(self):
        # totient(10^6) = 4 * 10^5
        assert run(["wind", "--cone", "3", "--circle", str(3 * MAX_WIND_RATIO)]) == (
            0, "400000\n")

    @pytest.mark.parametrize("flag, value", [("--prec", "100000"), ("--grid", "10000000")])
    def test_work_caps(self, flag, value, capsys):
        start = time.perf_counter()
        code, out = run(["wind", "--cone", "2", "--circle", "4", "--sampled", flag, value])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("InvalidParameter:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert elapsed < 0.5


class TestVerify:
    def test_text_report(self):
        code, out = run(
            ["verify", "--suite", "winding", "--seed", "3", "--budget", "1"]
        )
        assert code == 0
        assert out.startswith("suite winding seed 3")
        assert "result pass" in out

    def test_json_schema(self):
        code, out = run(
            ["verify", "--suite", "equivalence", "--seed", "5", "--budget", "10",
             "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"suite", "seed", "pass", "cases"}
        assert doc["suite"] == "equivalence"
        assert doc["seed"] == 5
        assert doc["pass"] is True
        for case in doc["cases"]:
            assert set(case) == {"id", "pass", "detail"}

    def test_unknown_suite(self):
        code, _ = run(["verify", "--suite", "nope"])
        assert code == 1

    def test_zero_budget_is_a_domain_error(self, capsys):
        code, out = run(["verify", "--suite", "charts", "--budget", "0"])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == "InvalidParameter: budget must be positive\n"
        assert "Traceback" not in err

    def test_budget_over_the_cap_is_a_domain_error(self, capsys):
        start = time.perf_counter()
        code, out = run(["verify", "--suite", "charts", "--budget", "10001"])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err == "InvalidParameter: budget must be <= 10000\n"
        assert time.perf_counter() - start < 0.5

    def test_all_suites_in_order(self):
        code, out = run(["verify", "--suite", "all", "--budget", "1"])
        lines = out.splitlines()
        headers = [line for line in lines if line.startswith("suite ")]
        results = [line for line in lines if line.startswith("result ")]
        assert headers == [f"suite {name} seed 0" for name in SUITE_NAMES]
        assert results == ["result pass"] * len(SUITE_NAMES)
        assert code == 0

    def test_all_suites_json_is_one_document(self):
        code, out = run(["verify", "--suite", "all", "--seed", "4", "--budget", "1",
                         "--json"])
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"pass", "suites"} and doc["pass"] is True
        assert [s["suite"] for s in doc["suites"]] == list(SUITE_NAMES)
        for name, suite in zip(SUITE_NAMES, doc["suites"]):
            assert suite == json.loads(run_suite(name, 4, 1).to_json())


class TestPlot:
    def test_svg_output(self, tmp_path):
        out_path = tmp_path / "model.svg"
        code, _ = run(["plot", "--out", str(out_path), "--circles", "4",
                       "--cones", "3"])
        assert code == 0
        svg = out_path.read_text(encoding="utf-8")
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        assert svg.count("<circle") == 5  # 4 earring circles + basepoint dot
        assert "stroke-dasharray" in svg

    @pytest.mark.parametrize("flag, value", [
        ("--cones", "65"), ("--cones", "1100"),
        ("--circles", "1001"), ("--circles", str(10**8)),
    ])
    def test_caps(self, flag, value, tmp_path, capsys):
        out_path = tmp_path / "model.svg"
        start = time.perf_counter()
        code, out = run(["plot", "--out", str(out_path), flag, value])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("InvalidParameter:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_path.exists()
        assert time.perf_counter() - start < 0.5

    def test_largest_accepted_sizes(self, tmp_path):
        out_path = tmp_path / "model.svg"
        code, _ = run(["plot", "--out", str(out_path), "--circles", "1000",
                       "--cones", "64"])
        assert code == 0
        assert out_path.read_text(encoding="utf-8").count("<circle") == 1001


class TestUsage:
    def test_usage_error(self):
        code, _ = run(["dist", "I(alpha=1)"])  # missing second literal
        assert code == 2

    def test_determinism(self):
        a = run(["verify", "--suite", "metric", "--seed", "11", "--budget", "3"])
        b = run(["verify", "--suite", "metric", "--seed", "11", "--budget", "3"])
        assert a == b

    @pytest.mark.parametrize("argv", [["classify", "-h"], ["--help"], ["dist", "-h"]])
    def test_help_returns_zero_and_prints_to_out(self, argv, capsys):
        code, out = run(argv)
        assert code == 0
        assert out.startswith("usage: chabauty-rz")
        if argv[0] == "classify":
            assert out.startswith("usage: chabauty-rz classify [-h] literal")
        assert capsys.readouterr() == ("", "")


class TestRuntimeImports:
    def test_no_sympy_or_numpy_at_runtime(self):
        # A fresh interpreter, so modules the test session loaded do not count.
        script = (
            "import io, sys\n"
            "import chabauty_rz\n"
            "out = io.StringIO()\n"
            "code = chabauty_rz.run_cli(['classify', 'gen[(1/2,0),(1/3,0)]'], out=out)\n"
            "heavy = sorted(m for m in ('sympy', 'numpy') if m in sys.modules)\n"
            "generators = sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
            "print(code, out.getvalue().strip(), heavy, generators)\n"
        )
        src = os.path.dirname(os.path.dirname(chabauty_rz.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 I(alpha=6) [] []"

    def test_no_dataclass_in_the_package(self):
        package = os.path.dirname(chabauty_rz.__file__)
        for root, _, files in os.walk(package):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name), encoding="utf-8") as fh:
                        assert "dataclass" not in fh.read(), name

    def test_python_m_runs_the_cli_once_without_a_warning(self):
        src = os.path.dirname(os.path.dirname(chabauty_rz.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "chabauty_rz.cli",
             "classify", "gen[(1/2,0),(1/3,0)]"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "I(alpha=6)\n", "")


class TestLoadOnUse:
    """Each command in a fresh process, which loads json, argparse and the
    plot writer on first use, not on import."""

    @staticmethod
    def command(*argv):
        src = os.path.dirname(os.path.dirname(chabauty_rz.__file__))
        return subprocess.run(
            [sys.executable, "-m", "chabauty_rz.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )

    def test_verify_json(self):
        proc = self.command("verify", "--suite", "winding", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == json.loads(run_suite("winding", 0, 100).to_json())

    def test_plot_writes_its_svg(self, tmp_path):
        out_path = tmp_path / "model.svg"
        proc = self.command("plot", "--out", str(out_path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {out_path}\n", "")
        assert out_path.read_text(encoding="utf-8") == render_model_svg()

    def test_usage_error(self):
        proc = self.command("frob")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "usage error: argument command: invalid choice: 'frob' (choose from "
            "'classify', 'dist', 'limit', 'model', 'wind', 'verify', 'plot')\n")


class TestErrorContract:
    def test_every_exported_error_is_invalid_parameter_or_parse_error(self):
        errors = {name for name in chabauty_rz.__all__
                  if isinstance(getattr(chabauty_rz, name), type)
                  and issubclass(getattr(chabauty_rz, name), BaseException)}
        assert {"InvalidParameter", "ParseError", "ZeroPoint", "ToleranceInvalid",
                "InvalidSequence", "UnknownSuite", "UnresolvedSample",
                "UnresolvedInput", "NonCanonicalModelPoint", "BoundaryPoint"} <= errors
        for name in errors:
            assert issubclass(getattr(chabauty_rz, name), (InvalidParameter, ParseError)), name


class TestSuiteApi:
    def test_unknown_suite_raises(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope", 0, 1)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_suite("metric", 0, 0)
        with pytest.raises(ValueError):
            run_suite("metric", 0, 10**9)

    def test_all_suites_pass_at_small_budget(self):
        for name in ("classification", "metric", "charts", "winding",
                     "equivalence"):
            report = run_suite(name, 2, 8)
            assert report.passed, report.to_text()

    def test_convergence_suite_small_k(self):
        report = run_suite("convergence", 0, 16)
        assert len(report.cases) == 6
        for case in report.cases:
            assert "k=16" in case.detail

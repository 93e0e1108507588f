import csv
import datetime
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from gjmslab import __version__, cli, errors
from gjmslab.cli import main, write_manifest
from gjmslab.errors import BudgetExceeded, NumericalError, ParameterError
from gjmslab.params import Params
from gjmslab.special import SERIES_CAP, SERIES_TOL
from gjmslab.spherical import DEFAULT_TAIL_TOL


def run(argv):
    return main(argv)


def package_crc32(package):
    """The CRC-32 of the package's module sources, each file name, a NUL and
    the file's bytes in sorted name order, as 8 hex digits."""
    digest = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest = zlib.crc32(name.encode() + b"\0" + fh.read(), digest)
    return f"{digest:08x}"


class TestConstants:
    def test_values(self, capsys):
        assert run(["constants", "--n", "3", "--s", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda0_tilde"] == pytest.approx(0.25, abs=1e-12)
        assert payload["rho"] == 1.0
        assert payload["two_star"] == pytest.approx(6.0)

    def test_half_order(self, capsys):
        assert run(["constants", "--n", "5", "--s", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda0"] == pytest.approx(2.0 / math.pi, rel=1e-10)
        assert payload["b"] == pytest.approx(1.0 / math.pi, rel=1e-10)
        assert payload["gap"] == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_invalid_params(self):
        assert run(["constants", "--n", "3", "--s", "2"]) == 2
        assert run(["constants", "--n", "1", "--s", "0.3"]) == 2

    def test_deterministic_stdout(self, capsys):
        run(["constants", "--n", "4", "--s", "0.75"])
        first = capsys.readouterr().out
        run(["constants", "--n", "4", "--s", "0.75"])
        assert capsys.readouterr().out == first


class TestMultiplier:
    def test_csv_contract(self, tmp_path):
        out = str(tmp_path / "m.csv")
        code = run(["multiplier", "--kind", "intertwined", "--n", "3", "--s", "1",
                    "--beta-max", "4", "--count", "5", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "beta,value"
        assert len(lines) == 6
        betas = [float(line.split(",")[0]) for line in lines[1:]]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        spacing = np.diff(betas)
        assert np.allclose(spacing, spacing[0], rtol=0, atol=1e-15)
        assert np.all(spacing > 0)
        # the k = 1 symbol at beta = 2 is beta^2 + 1/4 (shortest round-trip format)
        assert abs(values[2] - 4.25) <= 1e-12
        for line in lines[1:]:
            for tok in line.split(","):
                assert repr(float(tok)) == tok

    def test_manifest(self, tmp_path):
        out = str(tmp_path / "m.csv")
        run(["multiplier", "--kind", "remainder", "--n", "4", "--s", "0.75",
             "--beta-max", "2", "--count", "3", "--out", out])
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["command"] == "multiplier"
        assert manifest["params"]["kind"] == "remainder"
        assert "started_at" in manifest
        assert "tolerances" in manifest

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["multiplier", "--kind", "gjms", "--n", "5", "--s", "2.3",
                "--beta-max", "50", "--count", "200"]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_io_failure(self, tmp_path):
        out = str(tmp_path / "no" / "such" / "dir" / "m.csv")
        assert run(["multiplier", "--kind", "gjms", "--n", "3", "--s", "1",
                    "--beta-max", "2", "--count", "3", "--out", out]) == 3


class TestBubbleAsymptotics:
    def test_summary_and_rows(self, tmp_path):
        out = str(tmp_path / "ba.csv")
        code = run(["bubble-asymptotics", "--n", "3", "--s", "1", "--delta", "0.2",
                    "--eps-ladder", "0.05,0.025,0.0125,0.00625", "--out", out])
        summary = json.load(open(out + ".summary.json"))
        assert summary["l2"]["regime"] == "low"   # 2s < n < 4s at (3, 1)
        assert summary["l2"]["correction_exponent"] == 2.0
        assert set(summary["l2"]) >= {"exponent", "raw_slope", "correction_size"}
        assert summary["energy"]["target"] == pytest.approx(1.0)
        assert len(open(out).read().splitlines()) == 5
        assert code == 0

    def test_log_regime_flagged(self, tmp_path):
        out = str(tmp_path / "ba4.csv")
        run(["bubble-asymptotics", "--n", "4", "--s", "1", "--delta", "0.2",
             "--eps-ladder", "0.0125,0.00625,0.003125", "--out", out])
        summary = json.load(open(out + ".summary.json"))
        assert summary["l2"]["regime"] == "log"

    def test_empty_ladder(self, tmp_path):
        out = str(tmp_path / "ba.csv")
        assert run(["bubble-asymptotics", "--n", "3", "--s", "1", "--delta", "0.2",
                    "--eps-ladder", ",", "--out", out]) == 2
        # too short to fit a rate: bad input, not a numerical failure
        assert run(["bubble-asymptotics", "--n", "3", "--s", "1", "--delta", "0.2",
                    "--eps-ladder", "0.05,0.025", "--out", out]) == 2


class TestKernelDecay:
    def test_csv_and_summary(self, tmp_path):
        out = str(tmp_path / "kd.csv")
        code = run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                    "--r-spec", "2,3,4,5", "--eps-reg", "0.01", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "r,k_eps,log_abs_k"
        assert len(lines) == 5
        summary = json.load(open(out + ".summary.json"))
        assert summary["slope"] <= -0.8
        assert summary["target_slope"] == -1.0

    def test_small_radius_rejected(self, tmp_path):
        out = str(tmp_path / "kd.csv")
        assert run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                    "--r-spec", "0.3,2", "--eps-reg", "0.01", "--out", out]) == 2

    def test_rmax_is_the_largest_radius(self, tmp_path):
        summaries = []
        for spec in ("2,3,4,5,6", "6,2,3,4,5"):
            out = str(tmp_path / "kd.csv")
            assert run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                        "--r-spec", spec, "--eps-reg", "0.01", "--out", out]) == 0
            summaries.append(json.load(open(out + ".summary.json")))
        ordered, shuffled = summaries
        assert shuffled["kernel_scan_at_rmax"] == ordered["kernel_scan_at_rmax"]
        assert shuffled["kernel_extrapolated_at_rmax"] == ordered["kernel_extrapolated_at_rmax"]
        assert shuffled["slope"] == pytest.approx(ordered["slope"], rel=1e-12)

    def test_roundoff_kernel_exits_5(self, tmp_path, capsys):
        # at integer s the intertwined kernel is analytically ~ e^{-r^2 / (4 eps)}:
        # the Phi product and its witness are roundoff that disagree
        out = str(tmp_path / "kd.csv")
        assert run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "1",
                    "--r-spec", "2,3,4,5,6", "--eps-reg", "0.01", "--out", out]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical error: kernel_decay: ") and "regularized_kernel" in err
        assert not os.path.exists(out)

    def test_closed_form_miss_exits_5(self, tmp_path, capsys):
        # at (7, 2.5) the product is cancellation in the fit window: its
        # eps-Richardson limit is 2.5e-2 off twice the closed-form kernel at
        # r = 2, 0.12 at r = 3 and 1.9 at r = 4, while the witness at r = 2
        # agrees
        out = str(tmp_path / "kd.csv")
        assert run(["kernel-decay", "--kind", "intertwined", "--n", "7", "--s", "2.5",
                    "--r-spec", "2,3,4,5,6", "--eps-reg", "0.01", "--out", out]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical error: kernel_decay: ") and "closed-form" in err
        assert not os.path.exists(out)


class TestBlowdown:
    def test_below_bottom_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "bd.csv")
        assert run(["blowdown", "--n", "3", "--s", "1", "--lambda", "0.2",
                    "--n-spec", "4,16", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "spectral bottom" in err and "nonnegative" in err

    def test_rows_and_rate(self, tmp_path):
        out = str(tmp_path / "bd.csv")
        code = run(["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3",
                    "--n-spec", "4,16,64,256", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 5
        summary = json.load(open(out + ".summary.json"))
        assert summary["slope"] == pytest.approx(2.0 / 3.0, rel=0.1)

    def test_tail_guard_failure_reports_its_fraction(self, tmp_path, capsys, phi_passes):
        # at n = 5 the R = 40 arch fails its tail guard; the fraction comes
        # from the one transform the guard was computed from
        out = str(tmp_path / "bd.csv")
        assert run(["blowdown", "--n", "5", "--s", "0.8", "--lambda", "0.9",
                    "--n-spec", "4,16,64", "--out", out]) == 5
        assert capsys.readouterr().err == ("numerical error: quadratic form tail fraction "
                                           "8.701e-04 exceeds tolerance 1.0e-04\n")
        assert len(phi_passes) == 1 and not os.path.exists(out)

    def test_calibration_failure_is_numerical(self, tmp_path, monkeypatch, capsys):
        # an arch whose numerator stays nonnegative is a numerical-contract failure
        from gjmslab import quotients

        rep = quotients.QuotientReport(0.3, 1.0, 0.0, 1.0, 1.0, "flat")
        monkeypatch.setattr(quotients, "_wide_negative_trial", lambda p, lam: (rep, None))
        with pytest.raises(NumericalError, match="failed to reach a negative numerator"):
            quotients.blowdown(Params(3, 1.0), 0.3, [4, 16])
        out = str(tmp_path / "bd.csv")
        assert run(["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3",
                    "--n-spec", "4,16", "--out", out]) == 5
        assert capsys.readouterr().err == ("numerical error: calibration trial failed "
                                           "to reach a negative numerator\n")
        assert not os.path.exists(out)


class TestGapScan:
    def test_rows_and_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
                "--lambda-spec=0,0.128", "--family", "bubble"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        lines = open(a).read().splitlines()
        assert lines[0] == "lambda,quotient,margin_vs_Sest,trial_descriptor"
        assert len(lines) == 3

    def test_beyond_n_10_exits_0(self, tmp_path):
        # the closed-form floor holds at every n; the n = 11 row lies 1.3e-10
        # above the sharp constant
        out = str(tmp_path / "g11.csv")
        assert run(["gap-scan", "--kind", "intertwined", "--n", "11", "--s", "0.8",
                    "--lambda-spec=0", "--family", "bubble", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert 0.0 < float(lines[1].split(",")[2]) < 1e-8

    def test_spline_row_is_one_line(self, tmp_path):
        # the spline descriptor lists every knot value on one CSV line
        out = str(tmp_path / "s.csv")
        assert run(["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1",
                    "--lambda-spec=0", "--family", "spline", "--spline-radius", "3.5",
                    "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert lines[1].count("theta=[") == 1 and lines[1].endswith("]]")

    @pytest.mark.parametrize("family", ["bubble", "spline"])
    def test_lambda_above_bottom_exits_2(self, family, tmp_path, capsys):
        # the intertwined bottom at (5, 0.8) is 0.2564; above it the level is -infinity
        out = str(tmp_path / "gs.csv")
        assert run(["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
                    "--lambda-spec=1", "--family", family, "--out", out]) == 2
        assert "above the spectral bottom" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind, n, s, grading", [
        ("gjms", 5, 0.8, 5), ("gjms", 3, 1, 5), ("intertwined", 4, 1, 5), ("gjms", 7, 2.5, 5),
        ("intertwined", 5, 0.8, 4.5),
    ])
    def test_spline_row_below_the_level_floor_exits_5(self, kind, n, s, grading, tmp_path,
                                                       capsys):
        # finely graded knots let the search shape a trial whose energy lies
        # beyond b_max 60: quotients far below the sharp constant (0.00417
        # against 8.86 at GJMS (5, 0.8), grading 5); the grading-6 (5, 0.8)
        # case is a recorded trial, priced in tests/test_quotients.py
        out = str(tmp_path / "s.csv")
        assert run(["gap-scan", "--kind", kind, "--n", str(n), "--s", str(s),
                    "--lambda-spec=0", "--family", "spline", "--spline-radius", "3.5",
                    "--spline-knots", "12", "--spline-grading", str(grading), "--out", out]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical error: spline search at lambda 0.0 ")
        assert "closed-form floor" in err
        assert not os.path.exists(out)
        if (kind, n, s, grading) == ("gjms", 5, 0.8, 5):
            # 6 digits: roundoff alone sets this quotient's digits past
            # about the 9th (knot bases that agree to 3e-16 move it by 3e-10)
            assert "quotient 0.00417175, below the closed-form floor 8.86266 " in err
            assert not re.search(r"0\.00417175\d", err)


def _readme_commands():
    """The gjms-lab commands of the README's sh blocks, continuation lines
    joined, as argument lists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(path).read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = line.split()
            if argv[:1] == ["gjms-lab"]:
                commands.append(argv[1:])
    return commands


README_COMMANDS = _readme_commands()


class TestReadmeExamples:
    def test_found(self):
        assert len(README_COMMANDS) >= 6

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[c[0] for c in README_COMMANDS])
    def test_exits_zero(self, argv, tmp_path):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
        assert run(argv) == 0


def _readme_tuning_flags():
    """The flags of the README's gap-scan tuning-flag table."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(path).read()
    table = text.split("`gap-scan` takes these tuning flags:", 1)[1].split("\n\n")[1]
    return re.findall(r"^\| `(--[a-z-]+)` \|", table, re.M)


class TestReadmeTuningFlags:
    def test_table_lists_every_optional_gap_scan_flag(self):
        parser = cli.build_parser()
        gap_scan = next(action for action in parser._actions
                        if action.dest == "subcommand").choices["gap-scan"]
        optional = {flag for action in gap_scan._actions
                    if not action.required and action.dest != "help"
                    for flag in action.option_strings}
        rows = _readme_tuning_flags()
        assert len(rows) == len(set(rows))
        assert set(rows) == optional


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=nan", "--family", "bubble"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0:inf:3", "--family", "bubble"],
        ["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3", "--n-spec", "2.5,8.9"],
        ["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
         "--r-spec", "2,3,nan", "--eps-reg", "0.01"],
        # a rate fitted through a repeated value is rank-deficient
        ["kernel-decay", "--kind", "gjms", "--n", "3", "--s", "0.6", "--r-spec", "2,2,2,2",
         "--eps-reg", "0.01"],
        ["blowdown", "--n", "3", "--s", "1", "--lambda", "0.3", "--n-spec", "4,4,4"],
        ["bubble-asymptotics", "--n", "5", "--s", "1", "--delta", "0.2",
         "--eps-ladder", "0.05,0.05,0.05"],
        # a frequency cut-off at or below 0, also for a family that never reads it
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0:0.25:2", "--family", "bubble", "--b-max", "0"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0:0.25:2", "--family", "bubble", "--b-max=-5"],
        ["gap-scan", "--kind", "gjms", "--n", "5", "--s", "0.8", "--lambda-spec=0:0.25:2",
         "--family", "bubble", "--b-max", "0"],
        ["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
         "--family", "spline", "--spline-radius", "3.5", "--b-max=-5"],
        # a C^2 cubic has jumps in its third derivative, so at s >= 7/2 every
        # spline trial has infinite energy (the scan used to print 250175)
        ["gap-scan", "--kind", "intertwined", "--n", "9", "--s", "4", "--lambda-spec=0",
         "--family", "spline", "--spline-radius", "3.5"],
    ], ids=["nan-lambda", "inf-lambda-range", "fractional-N", "nan-radius",
            "repeated-radius", "repeated-N", "repeated-eps", "zero-b-max-intertwined-bubble",
            "negative-b-max-intertwined-bubble", "zero-b-max-gjms-bubble",
            "negative-b-max-spline", "spline-at-s-4"])
    def test_bad_input_exits_2_before_any_work(self, argv, tmp_path, capsys):
        # no file is written and no fit is reached (nor numpy's RankWarning)
        out = str(tmp_path / "x.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--b-max", "nan"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--b-max", "inf"],
        ["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
         "--r-spec", "2,3", "--eps-reg", "inf"],
        ["blowdown", "--n", "3", "--s", "1", "--lambda", "inf", "--n-spec", "4,16"],
        ["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
         "--family", "spline", "--spline-grading", "nan"],
        # the evaluation cap and the key=value config files are no flags,
        # so any --budget value, and --config, is refused as bad input
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--budget", "0"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--budget", "-3"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--budget", "5"],
        ["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
         "--lambda-spec=0", "--family", "bubble", "--config", "c.txt"],
    ], ids=["nan-b-max", "inf-b-max", "inf-eps-reg", "inf-lambda", "nan-grading",
            "zero-budget", "negative-budget", "budget-flag", "config-flag"])
    def test_bad_flag_value_exits_2(self, argv, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run(argv + ["--out", out]) == 2
        assert "error: " in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["gap-scan", "--kind", "intertwined", "--lambda-spec=0", "--family", "bubble"],
        ["bubble-asymptotics", "--delta", "0.2", "--eps-ladder", "0.05,0.025,0.0125"],
    ], ids=["gap-scan", "bubble-asymptotics"])
    def test_beyond_the_largest_n_exits_2(self, argv, tmp_path, capsys):
        # Gamma(n) in the closed-form bubble mass overflows a double from
        # n = 172: bad input, named before any work, not a traceback
        out = str(tmp_path / "x.csv")
        assert run(argv + ["--n", "172", "--s", "1", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: n = 172 is too large: the closed-form bubble mass needs Gamma(n), "
            "a double only up to n = 171\n")
        assert os.listdir(tmp_path) == []

    def test_overflowing_bubble_energy_exits_2(self, tmp_path, capsys):
        # 2^{2s} Gamma((n+2s)/2) in the closed-form bubble energy overflows a
        # double at (171, 85.4): bad input, named on one error line before
        # any work (the scan used to print quotient inf and exit 0)
        out = str(tmp_path / "x.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gap-scan", "--kind", "intertwined", "--n", "171", "--s", "85.4",
                        "--lambda-spec=0", "--family", "bubble", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n = 171, s = 85.4 is too large: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["constants", "--n", "400", "--s", "150.3"],
        ["multiplier", "--kind", "gjms", "--n", "400", "--s", "150.3", "--beta-max", "1000",
         "--count", "5", "--out", "x.csv"],
    ], ids=["constants", "multiplier"])
    def test_overflowing_symbol_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        # the GJMS symbol at (400, 150.3) overflows a double from beta = 0:
        # bad input on one error line, no overflow warning, no JSON Infinity
        # and no CSV of inf
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n = 400, s = 150.3") and captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_beta_beyond_the_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # beyond multipliers.BETA_MAX the symbols have lost their relative
        # accuracy (this command printed 1.0 at beta = 1e300 and exited 0):
        # bad input on one error line, no CSV
        monkeypatch.chdir(tmp_path)
        assert run(["multiplier", "--kind", "gjms", "--n", "3", "--s", "1", "--beta-max", "1e300",
                    "--count", "3", "--out", "m.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: multiplier requires finite |beta| <= 100000")
        assert captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, name, builder", [
        # the kernels at eps_reg / 2 = 5e-10 run to |beta| = 2.7e5
        (["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6", "--r-spec", "2,3",
          "--eps-reg", "1e-9"], "eps_reg", "gjmslab.spherical._kernel_table"),
        (["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
          "--family", "spline", "--spline-radius", "3.5", "--b-max", "2e5"], "b_max",
         "gjmslab.quotients.SplineFamily._forms"),
    ], ids=["eps-reg", "b-max"])
    def test_frequency_cut_beyond_the_bound_exits_2(self, argv, name, builder, tmp_path,
                                                    capsys, monkeypatch):
        # a frequency cut-off beyond multipliers.BETA_MAX is refused before
        # any frequency grid is built (the eps_reg one held 17 million
        # nodes), on one error line naming the flag's quantity
        def unreachable(*args, **kwargs):
            raise AssertionError("a frequency grid was built")

        monkeypatch.setattr(builder, unreachable)
        out = str(tmp_path / "x.csv")
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, name, cells, bound", [
        # inside BETA_MAX: the witness kernel's Mehler table held 2.1e11
        # cells (killed after 150 s), the spline forms' Phi 8.06e8 (34 s);
        # at n = 4 the witness's 8.8e7 cells pass and the Phi product's
        # Mehler columns below the Jacobi switch do not: 2.79e10 cells with
        # the 30 radii 0.5, 0.55, ..., 1.95 (ran 50 s), 2.47e9 without them
        # (6.1 s)
        (["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
          "--r-spec", "2,3,4,5,6", "--eps-reg", "1e-8"], "eps_reg", "2.1e+11", 10 ** 8),
        (["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
          "--family", "spline", "--spline-radius", "3.5", "--b-max", "9e4"], "b_max", "8.06e+08",
         10 ** 8),
        (["kernel-decay", "--kind", "intertwined", "--n", "4", "--s", "0.7", "--r-spec",
          ",".join([f"{0.5 + 0.05 * i:g}" for i in range(30)] + ["2", "3", "4", "5"]),
          "--eps-reg", "6e-6"], "eps_reg", "2.8e+10", 10 ** 8),
        (["kernel-decay", "--kind", "intertwined", "--n", "4", "--s", "0.7",
          "--r-spec", "0.5,2,3,4,5", "--eps-reg", "6e-6"], "eps_reg", "2.56e+09", 10 ** 8),
        # the spline forms' one Phi pass, counted as the product is: at n = 4
        # its Mehler columns below the Jacobi switch, which b_max 960 raises
        # to r = 2.45, held 1.27e10 cells (ran 32 s); rows times columns
        # alone were 8.6e6
        (["gap-scan", "--kind", "intertwined", "--n", "4", "--s", "0.75", "--lambda-spec=0",
          "--family", "spline", "--spline-radius", "3.5", "--b-max", "960"], "b_max", "1.27e+10",
         10 ** 8),
        # counts read the same bound, here lowered so that no run allocates
        # much: at the full bound, --count and a lambda count of 1e11 asked
        # numpy for 745 GiB and --spline-knots 100000 for a 74.5 GiB identity
        # (a MemoryError traceback, exit 1); the R = 3.5 spline Phi's 537600
        # cells pass a bound of 1e6, and with 700 knots its knot system's
        # 490000 do not
        (["multiplier", "--kind", "gjms", "--n", "3", "--s", "1", "--beta-max", "2",
          "--count", "5000"], "count", "5e+03", 1000),
        (["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
          "--lambda-spec=0:0.25:5000", "--family", "bubble"], "lambda_spec", "5e+03", 1000),
        (["gap-scan", "--kind", "gjms", "--n", "3", "--s", "1", "--lambda-spec=0",
          "--family", "spline", "--spline-radius", "3.5", "--spline-knots", "700"],
         "spline_knots", "1.03e+06", 10 ** 6),
    ], ids=["eps-reg", "b-max", "product-34-radii", "product-5-radii", "n4-spline-b-max",
            "multiplier-count", "lambda-count", "spline-knots"])
    def test_work_beyond_the_bound_exits_2(self, argv, name, cells, bound, tmp_path, capsys,
                                           monkeypatch):
        # a frequency cut-off or a count whose table exceeds
        # spherical.MAX_TABLE_CELLS (read at the call) is refused before any
        # table is built, on one error line naming the flag and the count
        def unreachable(*args, **kwargs):
            raise AssertionError("a table was built")

        for builder in ("gjmslab.spherical.regularized_kernel", "gjmslab.spherical._kernel_table",
                        "gjmslab.quotients.SplineFamily._forms",
                        "gjmslab.quotients._remainder_phi"):
            monkeypatch.setattr(builder, unreachable)
        monkeypatch.setattr("gjmslab.spherical.MAX_TABLE_CELLS", bound)
        out = str(tmp_path / "x.csv")
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1
        assert f" {cells} cells, more than {bound:.0e}" in err
        assert os.listdir(tmp_path) == []

    def test_non_finite_quotient_exits_5(self, tmp_path, capsys, monkeypatch):
        # a bubble energy that overflows a double makes the row's quotient
        # inf: a numerical failure, and no file is written
        monkeypatch.setattr("gjmslab.quotients.bubble_energy", lambda p, bp: math.inf)
        out = str(tmp_path / "x.csv")
        assert run(["gap-scan", "--kind", "intertwined", "--n", "5", "--s", "0.8",
                    "--lambda-spec=0", "--family", "bubble", "--out", out]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical error: bubble search at lambda 0.0 found the "
                              "quotient inf")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("n", [80, 100])
    def test_large_n_bubble_scan_has_no_overflow(self, n, tmp_path):
        # the Hankel bands square rho^{s + (n-1)/2} w_hat, not w_hat times
        # rho^{2s + n - 1}, which overflows a double on some bands from n = 80
        # (a RuntimeWarning, an error in this suite); the row meets its
        # closed-form level
        out = tmp_path / "b.csv"
        assert run(["gap-scan", "--kind", "intertwined", "--n", str(n), "--s", "0.8",
                    "--lambda-spec=0", "--family", "bubble", "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(out.open()))
        assert abs(float(row["margin_vs_Sest"])) <= 1e-12

    def test_numerical_failure_is_not_bad_input(self, tmp_path, capsys):
        out = str(tmp_path / "ki.csv")
        assert run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "1",
                    "--r-spec", "2,3,4,5,6", "--eps-reg", "0.01", "--out", out]) == 5
        assert "numerical error" in capsys.readouterr().err
        assert run(["constants", "--n", "3", "--s", "2"]) == 2

    @pytest.mark.parametrize("error, code, prefix", [
        (ParameterError, 2, "error: "),
        (NumericalError, 5, "numerical error: "),
        (BudgetExceeded, 5, "numerical error: "),
    ])
    def test_exit_code_follows_the_error_class(self, error, code, prefix, tmp_path, capsys,
                                               monkeypatch):
        def failing(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, "gap_scan", failing)
        assert run(["gap-scan", "--kind", "gjms", "--n", "5", "--s", "0.8", "--lambda-spec=0",
                    "--family", "bubble", "--out", str(tmp_path / "x.csv")]) == code
        assert capsys.readouterr().err == prefix + "refused\n"
        assert os.listdir(tmp_path) == []

    def test_two_failure_kinds(self):
        # bad input or a numerical contract; BudgetExceeded is the numerical
        # failure of a search's evaluation cap
        classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert classes == {"GjmsLabError", "ParameterError", "NumericalError", "BudgetExceeded"}
        assert issubclass(ParameterError, errors.GjmsLabError)
        assert issubclass(NumericalError, errors.GjmsLabError)
        assert issubclass(BudgetExceeded, NumericalError)
        assert not issubclass(ParameterError, NumericalError)


class TestManifest:
    def test_tolerances_are_the_package_constants(self, tmp_path):
        write_manifest(str(tmp_path / "x.csv"), "constants", {"n": 3},
                       "2026-01-01T00:00:00+00:00")
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        tolerances = manifest["tolerances"]
        assert tolerances["tail_tol"] == DEFAULT_TAIL_TOL
        assert tolerances["series_tol"] == SERIES_TOL
        assert tolerances["series_cap"] == SERIES_CAP

    def test_records_the_loaded_scipy_subpackages(self, tmp_path):
        import scipy.special  # noqa: F401

        write_manifest(str(tmp_path / "x.csv"), "constants", {"n": 3},
                       "2026-01-01T00:00:00+00:00")
        recorded = json.loads((tmp_path / "x.csv.manifest.json").read_text())["scipy_modules"]
        assert "scipy.special" in recorded
        assert recorded == sorted(recorded)
        for name in recorded:
            assert name.startswith("scipy.") and name.count(".") == 1
            assert not name.startswith("scipy._")
            assert hasattr(sys.modules[name], "__path__")

    def test_records_peak_memory(self, tmp_path):
        # the sidecar's max_rss_mb is this process's getrusage peak; the data
        # files never carry it
        write_manifest(str(tmp_path / "x.csv"), "constants", {"n": 3},
                       "2026-01-01T00:00:00+00:00")
        recorded = json.loads((tmp_path / "x.csv.manifest.json").read_text())["max_rss_mb"]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert 0.0 < recorded <= peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)

    def test_describes_the_package_tree_from_any_cwd(self, tmp_path, monkeypatch):
        # the version and the CRC-32 of the package's module sources, file
        # names included, from any working directory and with no child process
        def no_child(*args, **kwargs):
            raise AssertionError("the manifest started a child process")

        monkeypatch.setattr(subprocess, "run", no_child)
        monkeypatch.setattr(subprocess, "Popen", no_child)
        monkeypatch.chdir(tmp_path)
        assert run(["multiplier", "--kind", "gjms", "--n", "3", "--s", "1",
                    "--beta-max", "2", "--count", "3", "--out", "m.csv"]) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        package = os.path.dirname(os.path.abspath(cli.__file__))
        assert manifest["source"] == f"{__version__}+crc32.{package_crc32(package)}"
        assert "git_describe" not in manifest

    def test_source_inside_an_unrelated_git_tree(self, tmp_path):
        # a copy of the package in a gitignored directory of another git work
        # tree, run from that tree, still records the copy's own digest
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
        try:
            subprocess.run(git + ["init", "-q"], check=True, capture_output=True, timeout=30)
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git is not available")
        (tmp_path / ".gitignore").write_text(".venv/\n")
        subprocess.run(git + ["add", ".gitignore"], check=True, capture_output=True, timeout=30)
        subprocess.run(git + ["commit", "-q", "-m", "init"], check=True, capture_output=True,
                       timeout=30)
        lib = tmp_path / ".venv" / "lib"
        package = os.path.dirname(os.path.abspath(cli.__file__))
        shutil.copytree(package, lib / "gjmslab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(lib))
        out = subprocess.run([sys.executable, "-m", "gjmslab.cli", "multiplier", "--kind",
                              "gjms", "--n", "3", "--s", "1", "--beta-max", "2", "--count", "3",
                              "--out", "m.csv"], cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["source"] == f"{__version__}+crc32.{package_crc32(package)}"

    def test_started_before_finished(self, tmp_path):
        out = str(tmp_path / "kd.csv")
        assert run(["kernel-decay", "--kind", "intertwined", "--n", "3", "--s", "0.6",
                    "--r-spec", "2,3", "--eps-reg", "0.02", "--out", out]) == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        started = datetime.datetime.fromisoformat(manifest["started_at"])
        finished = datetime.datetime.fromisoformat(manifest["finished_at"])
        assert started <= finished
        assert "started_at" not in manifest["params"]

    @pytest.mark.parametrize("failure", ["no git", "not a work tree"])
    def test_provenance_outside_git(self, tmp_path, monkeypatch, failure):
        # a missing git binary or a tree outside git leaves the source digest
        # as it is: the manifest never asks git
        def fake_run(*args, **kwargs):
            if failure == "no git":
                raise OSError("git not found")
            return subprocess.CompletedProcess(args, 128, "", "fatal: not a git repository")

        monkeypatch.setattr(subprocess, "run", fake_run)
        package = os.path.dirname(os.path.abspath(cli.__file__))
        assert run(["multiplier", "--kind", "gjms", "--n", "3", "--s", "1",
                    "--beta-max", "2", "--count", "3", "--out", str(tmp_path / "m.csv")]) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["source"] == f"{__version__}+crc32.{package_crc32(package)}"

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from finiteweyl import cli, dirac, repmod, transform
from finiteweyl.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the sh block under "## CLI", one command per line, comments dropped
README_COMMANDS = [shlex.split(line, comments=True)
                   for line in README.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
                   .splitlines() if line.strip()]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLattice:
    def test_center(self, capsys):
        code, out = run(capsys, "lattice", "--center", "1/2,1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["center"] == "2,2"
        assert payload["results"]["q_order"] == 4

    def test_up_and_join(self, capsys):
        code, out = run(capsys, "lattice", "--up", "2,2", "--join", "1,1/2;1/2,1")
        payload = json.loads(out)
        assert payload["results"]["up"] == "1/2,1/2"
        assert payload["results"]["join"] == "1/2,1/2"

    def test_ocount_prime(self, capsys):
        code, out = run(capsys, "lattice", "--ocount", "1/5,1")
        payload = json.loads(out)
        assert payload["results"]["ocount"] == 6

    def test_includes(self, capsys):
        code, out = run(capsys, "lattice", "--includes", "1,1/2;1,1/4")
        assert code == 0
        assert json.loads(out)["results"] == {"includes": True}


class TestBasis:
    def test_v_basis_dump(self, capsys):
        code, out = run(capsys, "basis", "--alg", "1,1/4", "--which", "v")
        assert code == 0
        payload = json.loads(out)
        basis = payload["results"]["basis"]
        assert len(basis) == 4 and len(basis[0]) == 4

    # a word whose first exponent is negative, space-separated or glued
    @pytest.mark.parametrize("alg,s_word,t_word", [("1,1/6", "0,1/6", "-1,0"),
                                                   ("1,1/4", "-1,1/4", "0,-1/4")])
    def test_negative_word_parses_in_both_forms(self, capsys, alg, s_word, t_word):
        head = ["basis", "--alg", alg, "--which", "s"]
        code, spaced = run(capsys, *head, "--s-word", s_word, "--t-word", t_word)
        assert code == 0
        code, glued = run(capsys, *head, f"--s-word={s_word}", f"--t-word={t_word}")
        assert code == 0
        assert spaced == glued
        assert len(json.loads(spaced)["results"]["basis"]) == int(alg.split("/")[1])

    def test_missing_word_value_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "--alg", "1,1/4", "--which", "s", "--s-word", "1,0", "--t-word"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestPairing:
    def test_u_v_pairing(self, capsys):
        code, out = run(capsys, "pairing", "--n", "8", "--left", "u:3", "--right", "v:5")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["compatible"] is True
        assert abs(payload["results"]["value"] - 1 / 8) < 1e-12

    def test_v_operand_builds_one_vector(self, capsys, monkeypatch):
        # v:m is one O(N) vector, not the O(N^2) V-basis indexed at m
        def fail(*args):
            raise AssertionError("pairing built the whole V-basis")

        monkeypatch.setattr(repmod, "v_basis", fail)
        case, = (c for c in GOLDEN if c["argv"][0] == "pairing")
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"])
        code, out = run(capsys, "pairing", "--n", "20000", "--left", "u:7", "--right", "v:11")
        assert code == 0
        assert json.loads(out)["results"]["value"] == pytest.approx(1 / 20000, rel=1e-12)


class TestNegativeValues:
    """A value that starts with "-" and a digit is its option's value,
    spaced as well as glued with "="."""

    CASES = [
        (["transform", "--name", "free", "--n", "8"], "--t", "-1/2", 0),
        (["propagator", "free", "--mu", "240", "--grid=-1:1:3"], "--t", "-1/2", 0),
        (["propagator", "free", "--t", "1/2", "--mu", "240"], "--grid", "-1:1:3", 0),
        (["propagator", "qho", "--mu", "300", "--grid=0:0:1"], "--tol", "-1e-9", 2),
        (["converge", "ccr"], "--mu", "-60,60", 2),
        (["propagator", "free", "--t", "1/2", "--grid=0:0:1"], "--mu", "-240", 2),
    ]

    @pytest.mark.parametrize("argv,option,value,code", CASES,
                             ids=[" ".join([*argv, option, value]) for argv, option, value, _ in CASES])
    def test_spaced_and_glued_agree(self, capsys, argv, option, value, code):
        spaced = main([*argv, option, value]), *capsys.readouterr()
        glued = main([*argv, f"{option}={value}"]), *capsys.readouterr()
        assert spaced == glued
        assert spaced[0] == code

    def test_negative_mu_names_its_precondition(self, capsys):
        code = main(["converge", "ccr", "--mu", "-60,60"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "mu must be a positive integer" in captured.err


class TestMalformedOptions:
    @pytest.mark.parametrize("argv,option", [
        (["basis", "--alg", "1"], "--alg"),
        (["lattice", "--join", "1,1"], "--join"),
        (["transform", "--name", "qho", "--n", "75", "--triple", "3,4"], "--triple"),
        (["trace", "qho", "--triple", "3,4,5,6"], "--triple"),
        (["propagator", "free", "--grid=1:2"], "--grid"),
        (["pairing", "--n", "8", "--left", "u3", "--right", "v:5"], "--left"),
    ])
    def test_exit_2_names_the_option(self, capsys, argv, option):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"invalid input: {option} must be " in captured.err

    @pytest.mark.parametrize("argv,option,form,value", [
        (["pairing", "--n", "8", "--left", "u:x", "--right", "v:5"], "--left", '"u:k" or "v:m"', "u:x"),
        (["pairing", "--n", "8", "--left", "u:3", "--right", "v:1/2"], "--right", '"u:k" or "v:m"', "v:1/2"),
        (["transform", "--name", "qho", "--n", "75", "--triple", "3,4,x"], "--triple", '"e,f,c"', "3,4,x"),
        (["propagator", "free", "--grid=a:1:3"], "--grid", '"lo:hi:count"', "a:1:3"),
        (["propagator", "qho", "--mu", "300", "--grid=nan:1:3"], "--grid", '"lo:hi:count"', "nan:1:3"),
        (["propagator", "qho", "--mu", "300", "--grid=0:inf:3"], "--grid", '"lo:hi:count"', "0:inf:3"),
        (["lattice", "--center", "1/0,1"], "--center", '"a,b"', "1/0,1"),
        (["lattice", "--join", "1,1;1,y"], "--join", '"a,b;c,d"', "1,1;1,y"),
        (["basis", "--alg", "1,x"], "--alg", '"a,b"', "1,x"),
        (["basis", "--alg", "1,1/6", "--which", "s", "--s-word", "0,z", "--t-word", "-1,0"],
         "--s-word", '"u_exp,v_exp"', "0,z"),
        (["converge", "ccr", "--mu", "60,x"], "--mu", "a comma list of integers", "60,x"),
        (["propagator", "free", "--t", "1/2", "--h", "1", "--mu", "x"], "--mu", 'an integer or "auto"', "x"),
        (["propagator", "free", "--t", "1/2", "--h", "x", "--mu", "auto"], "--h", 'a rational "p/q"', "x"),
        (["transform", "--name", "free", "--n", "12", "--t", "x"], "--t", 'a rational "p/q"', "x"),
    ])
    def test_non_numeric_part_names_the_option(self, capsys, argv, option, form, value):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"invalid input: {option} must be {form}, got {value!r}\n"


class TestModuleDimension:
    @pytest.mark.parametrize("n", ["-4", "0"])
    @pytest.mark.parametrize("argv", [["transform", "--name", "fourier"],
                                      ["pairing", "--left", "u:1", "--right", "v:1"]])
    def test_below_one_exit_2(self, capsys, monkeypatch, argv, n):
        def fail(*args):
            raise AssertionError("module built for a refused --n")

        monkeypatch.setattr(repmod, "build_module", fail)
        code = main(argv + ["--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--n must be at least 1" in captured.err


class TestMuMin:
    """--mu-min is a lower bound on mu: 0 is a value, not "not given"."""

    AUTO = [["propagator", "free", "--t", "1/2", "--mu", "auto"], ["trace", "qho", "--mu", "auto"]]

    @pytest.mark.parametrize("value", [["--mu-min", "0"], ["--mu-min=-4"]], ids=" ".join)
    @pytest.mark.parametrize("argv", AUTO, ids=" ".join)
    def test_below_one_exit_2(self, capsys, monkeypatch, argv, value):
        def fail(*args, **kwargs):
            raise AssertionError("mu chosen for a refused --mu-min")

        monkeypatch.setattr(dirac, "auto_mu", fail)
        code = main(argv + value)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        got = value[-1].rpartition("=")[2]
        assert captured.err == f"precondition violated (OutOfRange): --mu-min must be at least 1, got {got}\n"

    def test_one_is_the_smallest_bound(self, capsys):
        # the smallest even mu divisible by 2 t.numerator t.denominator = 4,
        # where --mu-min 0 once fell back to the default 2520
        code, out = run(capsys, "propagator", "free", "--t", "1/2", "--mu", "auto", "--mu-min", "1")
        assert code == 0
        assert json.loads(out)["meta"]["mu"] == 4


class TestTransform:
    def test_fourier_checks_pass(self, capsys):
        code, out = run(capsys, "transform", "--name", "fourier", "--n", "8")
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["checks"])
        assert payload["meta"]["gL"] == [["0", "1"], ["-1", "0"]]

    def test_qho_transform(self, capsys):
        code, out = run(capsys, "transform", "--name", "qho", "--n", "225", "--triple", "3,4,5")
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert {"unitary", "KU", "mKU"} <= names

    @pytest.mark.parametrize("sample", ["0", "-2"])
    def test_sample_below_one_exit_2(self, capsys, monkeypatch, sample):
        def fail(*args):
            raise AssertionError("transform built for a refused sample")

        monkeypatch.setattr(transform, "fourier", fail)
        code = main(["transform", "--name", "fourier", "--n", "8", "--sample", sample])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "sample must be at least 1" in captured.err

    def test_negative_d_names_its_precondition(self, capsys):
        # t = b/d carries its sign in b: --b -1 --d 2 runs, --d -1 is refused
        # by the Gaussian's own rule, not by a branch of the module
        code = main(["transform", "--name", "gaussian", "--n", "12", "--d", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "precondition violated (DivisibilityViolation)" in captured.err
        assert "the sign of t = b/d goes in b" in captured.err
        assert run(capsys, "transform", "--name", "gaussian", "--n", "12", "--b", "-1", "--d", "2")[0] == 0


class TestTrace:
    def test_spec_example(self, capsys):
        code, out = run(capsys, "trace", "qho", "--triple", "3,4,5", "--h", "1", "--mu", "auto")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["results"]["tr_abs"] - 3.16227766) < 1e-7
        assert payload["results"]["abs_err"] < 1e-9

    def test_divisibility_exit_2(self, capsys):
        code = main(["trace", "qho", "--triple", "3,4,5", "--mu", "16"])
        assert code == 2

    def test_large_n_bounded_memory(self, capsys):
        # N = 1.0e10: a whole-array sum of 6.7e8 terms would not fit in memory
        code, out = run(capsys, "trace", "qho", "--triple", "3,4,5", "--mu-min", "100000")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["terms"] == payload["meta"]["N"] // 15
        assert payload["results"]["abs_err"] <= 1e-9

    @pytest.mark.parametrize("exc", [MemoryError, OverflowError])
    def test_resource_errors_exit_2(self, capsys, monkeypatch, exc):
        def fail(*args):
            raise exc("simulated")

        monkeypatch.setattr(dirac, "qho_trace", fail)
        code = main(["trace", "qho", "--triple", "3,4,5", "--mu", "auto"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert exc.__name__ in captured.err

    @pytest.mark.parametrize("mu", ["auto", "210"])
    def test_mu_policy_reported(self, capsys, mu):
        # the same mu either way, and the same words as `propagator`
        code, out = run(capsys, "trace", "qho", "--mu", mu)
        assert code == 0
        meta = json.loads(out)["meta"]
        code, out = run(capsys, "propagator", "qho", "--mu", "auto" if mu == "auto" else "300",
                        "--grid=0:0:1")
        assert code == 0
        assert meta["mu"] == 210
        assert meta["mu_policy"] == json.loads(out)["meta"]["mu_policy"]
        assert meta["mu_policy"].startswith("auto:") == (mu == "auto")


class TestPropagator:
    def test_free_json(self, capsys):
        code, out = run(capsys, "propagator", "free", "--t", "1/2", "--mu", "240", "--grid=-1:1:3")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["max_abs_err"] < 1e-9

    def test_csv_header(self, capsys):
        code, out = run(
            capsys, "propagator", "free", "--format", "csv", "--t", "1/2", "--mu", "240",
            "--grid=-1:1:3",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "mu,N,quantity,x1,x2,re,im,closed_re,closed_im,abs_err"

    def test_tolerance_failure_exit_1(self, capsys):
        code = main(["propagator", "free", "--t", "1/2", "--mu", "240", "--tol", "1e-30"])
        assert code == 1

    @pytest.mark.parametrize("grid", ["-1:1:0", "-1:1:-3"])
    def test_empty_grid_exit_2(self, capsys, monkeypatch, grid):
        def fail(*args):
            raise AssertionError("kernel ran on an empty grid")

        monkeypatch.setattr(dirac, "free_propagator", fail)
        code = main(["propagator", "free", "--t", "1/2", "--mu", "240", f"--grid={grid}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "grid point count must be at least 1" in captured.err


class TestConverge:
    def test_ccr_order(self, capsys):
        code, out = run(capsys, "converge", "ccr", "--mu", "60,120,240")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["results"]["fitted_order"] + 1.0) < 0.2

    def test_weakring(self, capsys):
        code, out = run(capsys, "converge", "weakring", "--mu", "100,200", "--tol", "1e-6")
        assert code == 0

    def test_bad_mu_list(self, capsys):
        code = main(["converge", "ccr", "--mu", "240,60"])
        assert code == 2

    def test_ccr_one_mu_exit_2(self, capsys, monkeypatch):
        # one residual has no slope: refused before any residual is computed
        def fail(*args, **kwargs):
            raise AssertionError("residual computed for a one-point fit")

        monkeypatch.setattr(dirac, "converge_study", fail)
        monkeypatch.setattr(dirac, "ccr_residual", fail)
        code = main(["converge", "ccr", "--mu", "60"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "needs at least two mu values" in captured.err

    def test_ccr_several_mu_unchanged(self, capsys):
        code, out = run(capsys, "converge", "ccr", "--mu", "60,120")
        assert code == 0
        payload = json.loads(out)
        rep = dirac.converge_study("ccr", [60, 120])
        assert payload["meta"]["mu_list"] == [60, 120]
        assert payload["results"] == {"residuals": rep.residuals, "fitted_order": rep.fitted_order}
        assert [(c["name"], c["tol"]) for c in payload["checks"]] == [("fitted_order_is_minus_one", 0.2)]

    @pytest.mark.parametrize("scale, code", [(1.01, 0), (0.99, 1)])
    def test_ccr_band_is_tol(self, capsys, scale, code):
        # --tol is the half-width of the band around order -1: a band just
        # wider than the fitted order's distance from -1 holds it, one just
        # narrower does not
        tol = abs(dirac.converge_study("ccr", [60, 120]).fitted_order + 1) * scale
        got, out = run(capsys, "converge", "ccr", "--mu", "60,120", "--tol", repr(tol))
        assert (got, [c["tol"] for c in json.loads(out)["checks"]]) == (code, [tol])


    @pytest.mark.parametrize("quantity", ["free", "qho"])
    def test_residual_quantities_fit_no_order(self, capsys, quantity):
        # residuals at rounding level carry no order: only ccr fits one
        code, out = run(capsys, "converge", quantity, "--mu", "300,600")
        assert code == 0
        payload = json.loads(out)
        assert max(payload["results"]["residuals"]) <= 1e-12
        assert payload["results"]["fitted_order"] is None
        assert '"fitted_order": null' in out
        assert [c["name"] for c in payload["checks"]] == ["residuals_within_tol"]


class TestToleranceAndTime:
    """A --tol that no error can meet and a zero --t are refused, naming the option."""

    TOL_COMMANDS = [
        ["propagator", "qho", "--mu", "300", "--grid=0:0:1"],
        ["propagator", "free", "--t", "1/2", "--mu", "240", "--grid=0:0:1"],
        ["trace", "qho", "--mu", "auto"],
        ["converge", "weakring", "--mu", "100"],
        ["converge", "ccr", "--mu", "30,60"],
    ]

    @pytest.mark.parametrize("tol", ["-1e-9", "-1", "nan"])
    @pytest.mark.parametrize("argv", TOL_COMMANDS, ids=" ".join)
    def test_bad_tol_refused_before_the_work(self, capsys, monkeypatch, argv, tol):
        def fail(*args, **kwargs):
            raise AssertionError("the command ran before --tol was refused")

        for command in ("cmd_propagator", "cmd_trace", "cmd_converge"):
            monkeypatch.setattr(cli, command, fail)
        code = main([*argv, "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("invalid input: --tol must be a nonnegative number")

    @pytest.mark.parametrize("argv", TOL_COMMANDS, ids=" ".join)
    def test_zero_tol_runs(self, capsys, argv):
        code, out = run(capsys, *argv, "--tol", "0")
        assert code in (0, 1)
        assert all(c["tol"] == 0.0 for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("argv", [["transform", "--name", "free", "--n", "8"],
                                      ["propagator", "free", "--mu", "240"]], ids=" ".join)
    @pytest.mark.parametrize("t", ["0", "0/5", "-0"])
    def test_zero_time_names_t(self, capsys, argv, t):
        code = main([*argv, "--t", t])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"invalid input: --t must be a nonzero rational, got {t!r}\n"


class TestPreconditionRefusals:
    @pytest.mark.parametrize("argv, message", [
        (["trace", "qho", "--triple", "3,4,5", "--h", "2", "--mu", "30"], "need 4 | L = 6"),
        (["propagator", "qho", "--mu", "300", "--grid=-1000:1000:3"], "grid point outside the submodule window"),
        (["propagator", "free", "--t", "1/2", "--mu", "12", "--grid=-100:100:3"],
         "grid point outside the submodule window"),
        (["propagator", "qho", "--triple", "6,8,10", "--mu", "1200"], "NotPythagorean"),
        (["propagator", "free", "--t", "1/2", "--h", "-1", "--mu", "12"], "h must be a positive rational"),
        (["trace", "qho", "--h", "0", "--mu", "auto"], "h must be a positive rational"),
        (["propagator", "free", "--h", "0", "--mu", "auto"], "h must be a positive rational"),
        (["propagator", "qho", "--h", "0", "--mu", "auto"], "h must be a positive rational"),
        (["basis", "--alg", "1,1/6", "--which", "s"], "--which s requires --s-word and --t-word"),
    ], ids=["trace-4|L", "qho-window", "free-window", "not-primitive", "negative-h", "zero-h-auto-trace",
            "zero-h-auto-free", "zero-h-auto-qho", "s-without-words"])
    def test_exit_2_names_the_precondition(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestReadmeCommands:
    def test_block_found(self):
        assert README_COMMANDS
        assert all(argv[0] == "finiteweyl" for argv in README_COMMANDS)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_command_runs(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, *argv[1:])
        assert code == 0
        if "--out" in argv:
            assert out == ""
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == cli.CSV_HEADER and len(rows) > 1
            assert all(len(row) == len(cli.CSV_HEADER) for row in rows)
        else:
            payload = json.loads(out)
            assert set(payload) == {"meta", "results", "checks"}
            assert all(c["passed"] for c in payload["checks"])


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["lattice", "--center", "1/2,1/2", "--format", "csv"],
        ["basis", "--alg", "1,1/4", "--tol", "1e-3"],
        ["pairing", "--n", "8", "--left", "u:3", "--right", "v:5", "--seed", "1"],
        ["transform", "--name", "fourier", "--n", "8", "--mode", "float"],
        ["trace", "qho", "--grid=-1:1:3"],
    ])
    def test_option_of_another_subcommand_exit_2(self, capsys, argv):
        # argparse refuses the option instead of ignoring it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestOutputFile:
    def test_out_path(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        code = main(["lattice", "--center", "1/2,1/2", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["results"]["center"] == "2,2"

    def test_unopenable_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "res.json"
        code = main(["lattice", "--center", "1/2,1/2", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(path) in captured.err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_refused_before_the_work(self, where, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("converge_study ran before --out was refused")

        monkeypatch.setattr(dirac, "converge_study", fail)
        path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code = main(["converge", "ccr", "--mu", "30,60,120,240", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"cannot open --out {str(path)!r}" in captured.err
        assert list(tmp_path.iterdir()) == []


def run_fresh(argvs, preload_numpy=False):
    """Exit codes and stdouts of the argvs run in one fresh interpreter, which
    imports numpy first when asked, and whether numpy was loaded after them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, json, sys\n"
        + ("import numpy\n" if preload_numpy else "")
        + "from finiteweyl.cli import main\n"
        "codes, outs = [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        codes.append(main(argv))\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps([codes, outs, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    return json.loads(proc.stdout)


def modules_loaded(argv):
    """The exit code of argv run alone in a fresh interpreter, and the
    finiteweyl.* modules loaded when it returned."""
    code = (
        "import contextlib, io, json, sys\n"
        "from finiteweyl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('finiteweyl.'))]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    code, modules = json.loads(proc.stdout)
    return code, {m.removeprefix("finiteweyl.") for m in modules}


class TestModulesLoaded:
    """Each subcommand loads the layers it runs and no other: `cli`,
    `errors` and `lattice` always, then only what the command imports."""

    BASE = {"cli", "errors", "lattice"}
    FLOAT = BASE | {"dirac"}
    CASES = [
        (["lattice", "--center", "1/2,1/2"], 0, BASE),
        (["lattice", "--ocount", "1/5,1", "--includes", "1,1/2;1,1/4"], 0, BASE),
        (["basis", "--alg", "1,1/8", "--which", "v", "--mode", "float"], 0, BASE | {"exactnum", "repmod"}),
        (["basis", "--alg", "1,1/6", "--which", "s", "--s-word", "0,1/6", "--t-word", "-1,0"], 0,
         BASE | {"exactnum", "repmod"}),
        (["pairing", "--n", "16", "--left", "u:3", "--right", "v:5"], 0,
         BASE | {"exactnum", "repmod", "morphism"}),
        (["transform", "--name", "fourier", "--n", "12"], 0,
         BASE | {"exactnum", "repmod", "morphism", "transform"}),
        (["propagator", "free", "--t", "1/2", "--mu", "240", "--grid=-1:1:5"], 0, FLOAT),
        (["propagator", "qho", "--triple", "3,4,5", "--mu", "300", "--grid=-1:1:5"], 0, FLOAT),
        (["trace", "qho", "--triple", "3,4,5", "--mu", "auto", "--mu-min", "1000"], 0, FLOAT),
        (["converge", "ccr", "--mu", "30,60,120,240"], 0, FLOAT),
        # one refusal per float command, each raised once dirac is loaded
        (["propagator", "free", "--t", "1/3", "--mu", "10"], 2, FLOAT),
        (["trace", "qho", "--mu", "7"], 2, FLOAT),
        (["converge", "ccr", "--mu", "240,60"], 2, FLOAT),
    ]

    @pytest.mark.parametrize("argv, code, modules", CASES, ids=[" ".join(c[0]) for c in CASES])
    def test_command_loads_its_layers_alone(self, argv, code, modules):
        assert modules_loaded(argv) == (code, modules)


def assert_same_but_last_bits(a, b, path="$"):
    """Equal JSON values, except that floats need only agree to 1e-12: each
    agrees relatively, or, for an error that is itself rounding noise (an
    abs_err of 1e-16), absolutely."""
    if isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (path, a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            assert_same_but_last_bits(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_but_last_bits(x, y, f"{path}[{i}]")
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


# The float commands of the cli benchmark workload (bench/workloads.py), and
# `converge free` over the mu of README's `converge ccr`: their sums stay
# below dirac.FLOAT_TERMS_IMPORT.
FLOAT_COMMANDS = [
    *(["propagator", "free", "--t", t, "--mu", "240", "--grid=-1:1:5"] for t in ("1/2", "1", "3/2")),
    ["trace", "qho", "--triple", "3,4,5", "--h", "1", "--mu", "auto", "--mu-min", "1000"],
    ["converge", "ccr", "--mu", "30,60,120,240"],
    ["converge", "free", "--mu", "60,120,240,480"],
]


class TestNumpyFree:
    # every golden command (the exact ones, transforms whose sums stay below
    # repmod.PRODUCTS_IMPORT), `propagator qho` (scalar cmath), the float
    # commands whose sums stay below dirac.FLOAT_TERMS_IMPORT and float
    # commands refused before any sum, run in one process that must never
    # load numpy
    COMMANDS = [(case["argv"], case["exit"]) for case in GOLDEN] + [
        (["propagator", "qho"], 0),
        *((argv, 0) for argv in FLOAT_COMMANDS),
        (["trace", "qho", "--mu", "7"], 2),
        (["trace", "qho", "--triple", "3,4,5", "--mu", "16"], 2),
        (["propagator", "free", "--t", "1/3", "--mu", "10"], 2),
        (["trace", "qho", "--mu-min", "1000000"], 2),  # int64 overflow, refused
    ]

    def test_commands_leave_numpy_out(self):
        codes, _, numpy_loaded = run_fresh([argv for argv, _ in self.COMMANDS])
        assert codes == [expected for _, expected in self.COMMANDS]
        assert not numpy_loaded

    def test_large_transform_loads_numpy(self):
        # its Gram matrix alone has 36^3 > PRODUCTS_IMPORT products: the
        # histogram kernel pays for the import
        assert 36 ** 3 >= repmod.PRODUCTS_IMPORT
        codes, _, numpy_loaded = run_fresh([["transform", "--name", "fourier", "--n", "36"]])
        assert (codes, numpy_loaded) == ([0], True)

    def test_large_trace_loads_numpy(self):
        # mu = 8010: its Gauss sum has L/2 + 1 = 427 735 terms, over the
        # budget, so numpy pays for its import and sums them
        argv = ["trace", "qho", "--mu-min", "8000"]
        assert largest_float_sum(argv) > dirac.FLOAT_TERMS_IMPORT
        codes, _, numpy_loaded = run_fresh([argv])
        assert (codes, numpy_loaded) == ([0], True)

    def test_int64_refusal_on_both_routes(self):
        for preload in (False, True):
            assert run_fresh([["trace", "qho", "--mu-min", "1000000"]], preload) == [[2], [""], preload]

    @pytest.mark.parametrize("argv", FLOAT_COMMANDS, ids=" ".join)
    def test_float_command_agrees_with_numpy_loaded(self, argv):
        (plain_code,), (plain,), plain_numpy = run_fresh([argv])
        (loaded_code,), (loaded,), loaded_numpy = run_fresh([argv], preload_numpy=True)
        assert plain_code == loaded_code == 0
        assert (plain_numpy, loaded_numpy) == (False, True)
        assert_same_but_last_bits(json.loads(plain), json.loads(loaded))


def largest_float_sum(argv, cwd=None):
    """The most terms of one float sum (a quadratic phase sum or a CCR
    window) that argv makes, run in this process with no cached Gauss
    constant; 0 when it makes none."""
    sizes = []
    take = dirac.numpy_pays

    def record(size, import_size):
        if import_size == dirac.FLOAT_TERMS_IMPORT:
            sizes.append(size)
        return take(size, import_size)

    dirac._gauss_constant.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
            mp.setattr(dirac, "numpy_pays", record)
            if cwd is not None:
                mp.chdir(cwd)
            assert main(argv) == 0
    finally:
        dirac._gauss_constant.cache_clear()
    return max(sizes, default=0)


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
FLOAT_KINDS = ("propagator", "trace", "converge")
README_FLOAT = [argv[1:] for argv in README_COMMANDS if argv[1] in FLOAT_KINDS]
CLI_FLOAT = sorted({tuple(op["argv"]) for rnd in WORKLOADS.make_inputs("cli", 0) for op in rnd
                    if op["expect"] == 0 and op["argv"][0] in FLOAT_KINDS})
# at its default mu = 2520 the Gauss sum has 1 587 601 terms: a plain Python
# sum would take about 0.35 s, several numpy imports
README_FREE = ["propagator", "free", "--t", "1/2", "--h", "1", "--mu", "auto", "--grid=-1:1:5"]


class TestFloatBudget:
    """dirac.FLOAT_TERMS_IMPORT against the sums real traffic makes."""

    def test_every_kind_is_covered(self):
        assert README_FREE in README_FLOAT
        assert {tuple(argv[:2]) for argv in README_FLOAT} == {
            ("propagator", "free"), ("propagator", "qho"), ("trace", "qho"), ("converge", "ccr"),
            ("converge", "weakring")}
        assert {argv[:2] for argv in CLI_FLOAT} == {
            ("propagator", "free"), ("propagator", "qho"), ("trace", "qho"), ("converge", "ccr")}

    @pytest.mark.parametrize("argv", [argv for argv in README_FLOAT if argv != README_FREE], ids=" ".join)
    def test_readme_sums_below_the_budget(self, argv, tmp_path):
        assert largest_float_sum(argv, cwd=tmp_path) < dirac.FLOAT_TERMS_IMPORT

    def test_readme_free_propagator_above_the_budget(self):
        assert largest_float_sum(README_FREE) == 1_587_601 > dirac.FLOAT_TERMS_IMPORT

    @pytest.mark.parametrize("argv", [list(argv) for argv in CLI_FLOAT], ids=" ".join)
    def test_cli_workload_sums_below_the_budget(self, argv):
        assert largest_float_sum(argv) < dirac.FLOAT_TERMS_IMPORT

    @pytest.mark.parametrize("argv", FLOAT_COMMANDS, ids=" ".join)
    def test_numpy_free_commands_below_the_budget(self, argv):
        assert 0 < largest_float_sum(argv) < dirac.FLOAT_TERMS_IMPORT

    @pytest.mark.parametrize("mu", WORKLOADS.LARGE_TRACE_MU)
    def test_float_continuum_large_traces_above_the_budget(self, mu):
        # those traces keep numpy on purpose, not only because the
        # benchmark loads it before its first operation
        argv = ["trace", "qho", "--triple", "3,4,5", "--mu", str(mu)]
        assert largest_float_sum(argv) > dirac.FLOAT_TERMS_IMPORT


class ReadRecorder(argparse.Namespace):
    """Namespace that records which attributes are read."""

    def __init__(self, **kw):
        super().__init__(**kw)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


class TestEveryOptionIsRead:
    # per subcommand, argvs whose runs together reach every branch that
    # reads an option
    ARGVS = {
        "lattice": [["lattice", "--center", "1/2,1/2"]],
        "basis": [["basis", "--alg", "1,1/4", "--which", "s", "--s-word", "1,-1/4",
                   "--t-word", "0,1/4"]],
        "pairing": [["pairing", "--n", "8", "--left", "u:3", "--right", "v:5"]],
        "transform": [["transform", "--name", name, "--n", "8", "--sample", "1"]
                      for name in ("fourier", "gaussian", "diagonal", "free")]
                     + [["transform", "--name", "qho", "--n", "75", "--sample", "1"]],
        "propagator": [["propagator", "free", "--mu", "auto", "--grid=0:0:1"],
                       ["propagator", "qho", "--mu", "auto", "--grid=0:0:1"]],
        "trace": [["trace", "qho"]],
        "converge": [["converge", "weakring", "--mu", "10,20"]],
    }

    def test_every_subcommand_is_covered(self):
        sub = next(a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.ARGVS)

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_every_option_is_read(self, capsys, command):
        parser = cli.make_parser()
        dests, read = set(), set()
        for argv in self.ARGVS[command]:
            args = ReadRecorder(**vars(parser.parse_args(argv)))
            dests |= set(vars(args)) - {"command", "func", "_read"}
            assert cli._emit(args, *args.func(args)) == 0
            read |= object.__getattribute__(args, "_read")
        capsys.readouterr()
        assert dests - read == set()

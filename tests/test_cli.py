import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lselab.analysis
import lselab.cli
from lselab.cli import build_parser, main
from lselab.oracle import Reference, lse_softmax_reference


class TestFormats:
    def test_table(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "fp16" in out and "bfloat16" in out
        assert "0.000488" in out  # fp16 unit roundoff to 3 s.f.
        assert "11" in out  # fp16 log r_max


class TestEval:
    def test_shifted_fp64(self, capsys):
        assert main(["eval", "--alg", "shifted", "--format", "fp64",
                     "--x", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "3.40760596" in out
        assert "0.0900305732" in out

    def test_basic_fp16_overflow(self, capsys):
        assert main(["eval", "--alg", "basic", "--format", "fp16",
                     "--x", "12,0"]) == 0
        out = capsys.readouterr().out
        assert "y: inf" in out
        assert "overflowed" in out

    def test_shifted_fp16_no_overflow(self, capsys):
        assert main(["eval", "--alg", "shifted", "--format", "fp16",
                     "--x", "12,0", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["y"] == pytest.approx(12.0, abs=0.01)
        assert res["g"][0] == pytest.approx(1.0, abs=0.01)
        assert res["g"][1] == pytest.approx(6.1e-6, rel=0.05)
        assert res["flags"] == []

    def test_alt_variants(self, capsys):
        assert main(["eval", "--alg", "alt-shifted", "--format", "fp64",
                     "--x", "1,-1", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["algorithm"] == "alt_shifted"
        assert res["g"][0] == pytest.approx(0.8807970779778823, rel=1e-9)

    def test_unknown_format_exits_2(self):
        assert main(["eval", "--x", "1,2", "--format", "fp99"]) == 2


class TestAnalyze:
    def test_reference_vector(self, capsys):
        assert main(["analyze", "--x", "1,-1", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["cond_lse"] == pytest.approx(0.887368128399346, rel=1e-12)
        assert res["bounds"]["basic_lse"] == pytest.approx(3.662104385198038, rel=1e-12)
        assert res["bounds"]["shifted_lse"] == pytest.approx(3.662104385198038, rel=1e-12)
        assert res["y_range"] == [1.0, 1.0 + math.log(2.0)]

    def test_dominated_vector_softmax_condition(self, capsys):
        # 1 - g_0 is about 1e-16: summing row 0 of |G| entry by entry cancels
        # to 8.3378e-15, 3.9 % low; the value below is 60-digit mpmath
        assert main(["analyze", "--json", "--x=0,-36.8,-40"]) == 0
        res = json.loads(capsys.readouterr().out)
        exact = 8.6776986649000623e-15
        assert res["cond_softmax_exact"] == pytest.approx(exact, rel=16 * 2.0**-53, abs=0.0)
        assert res["cond_softmax_upper"] == 120.0

    def test_infinite_condition(self, capsys):
        c = repr(-math.log(4.0))
        assert main(["analyze", "--x=" + ",".join([c] * 4), "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["cond_lse"] == math.inf or res["cond_lse"] > 1e14

    def test_extreme_vector_overflows_quietly(self, capsys):
        # x_j - y and the bound formulas overflow binary64; the factors are
        # +inf and no RuntimeWarning reaches stderr (tier-1 makes them errors)
        assert main(["analyze", "--x=-1e308,1e308", "--json"]) == 0
        captured = capsys.readouterr()
        res = json.loads(captured.out)
        assert captured.err == ""
        assert res["bounds"]["shifted_lse"] == math.inf
        assert res["bounds"]["alt_softmax"] == math.inf

    def test_single_entry(self, capsys):
        assert main(["analyze", "--x", "5", "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["y_range"] == [5.0, 5.0]
        assert res["cond_softmax_exact"] == 0.0


class TestExperiment:
    def test_generated_suite(self, tmp_path, capsys):
        out = str(tmp_path / "run1")
        rc = main([
            "experiment", "--gen", "uniform:-20,20", "--n", "10",
            "--count", "50", "--format", "fp16", "--seed", "42",
            "--out", out, "--svg",
        ])
        assert rc == 0
        assert (tmp_path / "run1.csv").exists()
        assert (tmp_path / "run1_summary.csv").exists()
        assert (tmp_path / "run1_lse_shift.svg").exists()
        text = capsys.readouterr().out
        assert "violations=0" in text

    def test_csv_input(self, tmp_path):
        acts = tmp_path / "acts.csv"
        acts.write_text("1.0,2.0,3.0\n-5,0,5\n")
        out = str(tmp_path / "run2")
        rc = main(["experiment", "--csv", str(acts), "--format", "bfloat16",
                   "--out", out])
        assert rc == 0

    def test_requires_one_input_source(self, tmp_path):
        assert main(["experiment", "--format", "fp16",
                     "--out", str(tmp_path / "x")]) == 2
        assert main(["experiment", "--gen", "uniform:0,1", "--csv", "y.csv",
                     "--format", "fp16", "--out", str(tmp_path / "x")]) == 2

    def test_missing_csv_exits_2(self, tmp_path):
        assert main(["experiment", "--csv", str(tmp_path / "nope.csv"),
                     "--format", "fp16", "--out", str(tmp_path / "x")]) == 2


_NOT_FLOAT = "error: --x: could not convert string to float: "


# message: the exact stderr line where the case pins it, else None
@pytest.mark.parametrize("argv,csv_text,message", [
    pytest.param(["eval"], None, "error: --x is required", id="eval-missing-vector"),
    pytest.param(["eval", "--x", "1,abc"], None, _NOT_FLOAT + "'abc'",
                 id="eval-unparsable-vector"),
    pytest.param(["eval", "--x", "1,,2"], None, _NOT_FLOAT + "''", id="eval-empty-field"),
    pytest.param(["eval", "--x", "1,2,"], None, _NOT_FLOAT + "''", id="eval-trailing-comma"),
    pytest.param(["analyze", "--x", "1,,2"], None, _NOT_FLOAT + "''",
                 id="analyze-empty-field"),
    pytest.param(["analyze", "--x", "1,2,"], None, _NOT_FLOAT + "''",
                 id="analyze-trailing-comma"),
    pytest.param(["eval", "--x=1,inf"], None, "error: input vector must be nonempty and finite",
                 id="eval-non-finite"),
    pytest.param(["eval", "--format", "fp16", "--x", "1e6,2"], None,
                 "error: input vector is not finite when rounded to fp16",
                 id="eval-overflows-format"),
    pytest.param(["experiment", "--format", "fp16"], "1.0,nan\n", None, id="csv-nan"),
    pytest.param(["experiment", "--format", "fp16"], "", None, id="csv-empty"),
    pytest.param(["experiment", "--format", "fp16"], "1e6,2\n", None, id="csv-overflows-format"),
    pytest.param(["eval", "--x", "1,2", "--format",
                  "custom:t=11,emin=-14,emax=2000,subnormals=1"], None, None,
                 id="custom-format-beyond-binary64"),
    pytest.param(["eval", "--format", "custom:t=11,emin=-1060,emax=100,subnormals=1",
                  "--x", "1,2"], None, None, id="custom-format-grid-finer-than-2^-1022"),
    pytest.param(["experiment", "--gen", "uniform:-20,20", "--n", "10",
                  "--count", "3", "--format", "fp64"], None, None,
                 id="experiment-format-not-measurable"),
    # the test runs in its tmp_path, which has no directory 'missing'
    pytest.param(["experiment", "--gen", "uniform:0,1", "--format", "fp16",
                  "--out", "missing/run"], None, None, id="experiment-out-dir-missing"),
    pytest.param(["experiment", "--gen", "uniform:zz", "--format", "fp16"], None,
                 "error: bad generator spec 'uniform:zz': could not convert string to float: 'zz'",
                 id="gen-unparsable-param"),
    # --n, --count and --seed are not part of the spec: their errors carry no spec prefix
    pytest.param(["experiment", "--gen", "uniform:0,1", "--seed", "-1", "--format", "fp16"],
                 None, "error: seed must be >= 0", id="gen-negative-seed"),
    pytest.param(["experiment", "--gen", "uniform:0,1", "--n", "0", "--format", "fp16"],
                 None, "error: n must be >= 1", id="gen-zero-n"),
    pytest.param(["experiment", "--gen", "uniform:0,1", "--count", "0", "--format", "fp16"],
                 None, "error: count must be >= 1", id="gen-zero-count"),
    # generator ranges beyond binary64: numpy raises OverflowError for these
    pytest.param(["experiment", "--gen", "uniform:-1e308,1e308", "--format", "fp16"], None, None,
                 id="gen-uniform-range-overflows"),
    pytest.param(["experiment", "--gen", "uniform:-inf,0", "--format", "fp16"], None, None,
                 id="gen-uniform-infinite-bound"),
    pytest.param(["experiment", "--gen", "near-singular:1e308", "--format", "fp16"], None, None,
                 id="gen-near-singular-range-overflows"),
    pytest.param(["experiment", "--gen", "wide-spread:inf", "--format", "fp16"], None, None,
                 id="gen-wide-spread-infinite"),
    pytest.param(["experiment", "--gen", "constant:1,2", "--format", "fp16"], None,
                 "error: bad generator spec 'constant:1,2': constant generator needs one parameter",
                 id="gen-constant-two-params"),
    # numpy refuses the 728 TiB array up front and raises MemoryError
    pytest.param(["experiment", "--gen", "near-singular:1", "--n", "100000000000000",
                  "--count", "1"], None, None, id="gen-allocation-refused"),
])
def test_bad_input_exits_2_with_one_line(argv, csv_text, message, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "experiment" and "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path / "run")]
    if csv_text is not None:
        path = tmp_path / "in.csv"
        path.write_text(csv_text)
        argv += ["--csv", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if message is not None:
        assert lines[0] == message
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("offset", [0, 8, 20_000])  # 20,000 lies past the first read buffer
def test_csv_not_utf8_names_file_and_byte(offset, tmp_path, capsys):
    path = tmp_path / "in.csv"
    text = b"1.0,2.0\n" * (offset // 8)
    path.write_bytes(text + b"\xff3.0,4.0\n")
    assert main(["experiment", "--csv", str(path), "--format", "fp16",
                 "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: not UTF-8 at byte offset {offset} (invalid start byte)"
    ]
    assert not list(tmp_path.glob("run*"))


def _outcome(run, argv, capsys):
    """(stdout, stderr, exit code) of one call; the exit code is the return
    value or ``SystemExit.code``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_parser_reused_across_calls(capsys):
    # one process, several subcommands and options (--json on, then off),
    # with a call that argparse rejects in the middle: each call prints what
    # a call with a freshly built parser prints
    calls = [
        ["eval", "--alg", "alt-basic", "--format", "fp16", "--x", "12,0", "--json"],
        ["eval", "--alg", "alt-basic", "--format", "fp16", "--x", "12,0"],
        ["analyze", "--x", "1,-1,3", "--json"],
        ["eval", "--bogus"],
        ["analyze", "--x", "1,-1,3"],
        ["formats"],
        ["eval", "--x", "1,2,3"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_outcome(main, argv, capsys))
    build_parser.cache_clear()
    reused = [_outcome(main, argv, capsys) for argv in calls]
    assert reused == fresh
    assert [code for _, _, code in fresh] == [0, 0, 0, 2, 0, 0, 0]
    assert build_parser.cache_info().misses == 1


def _full_parser_main(argv):
    """``main`` as it was when every call went through the full parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", [
    pytest.param([], id="no-arguments"),
    pytest.param(["-h"], id="help"),
    pytest.param(["eval", "--help"], id="eval-help"),
    pytest.param(["analyze", "--help"], id="analyze-help"),
    pytest.param(["experiment", "--help"], id="experiment-help"),
    pytest.param(["formats", "--help"], id="formats-help"),
    pytest.param(["evl", "--x", "1"], id="unknown-subcommand"),
    pytest.param(["--x", "1", "eval"], id="option-before-subcommand"),
    pytest.param(["eval", "--bogus"], id="eval-unrecognized-option"),
    pytest.param(["formats", "extra"], id="formats-unrecognized-argument"),
    pytest.param(["eval", "--alg", "nope", "--x", "1"], id="eval-bad-choice"),
    pytest.param(["eval"], id="eval-missing-vector"),
    pytest.param(["eval", "--x", "1,2", "--", "3"], id="eval-double-dash"),
    pytest.param(["eval", "--fo", "fp16", "--x", "1,2"], id="eval-abbreviated-option"),
    pytest.param(["eval", "--x=-1.5,2"], id="eval-negative-first-entry"),
    pytest.param(["experiment", "--gen", "uniform:-20,20", "--n", "4", "--count", "20",
                  "--format", "fp16", "--seed", "3", "--out", "run", "--svg"],
                 id="experiment"),
])
def test_same_outcome_as_the_full_parser(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = _outcome(_full_parser_main, argv, capsys)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert _outcome(main, argv, capsys) == expected
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


@pytest.mark.parametrize("argv,code", [
    pytest.param(["formats"], 0, id="formats"),
    pytest.param(["experiment", "--gen", "uniform:-20,20", "--n", "10", "--count", "5",
                  "--format", "fp16", "--out", "run"], 0, id="experiment"),
    pytest.param(["eval", "--x=1,,2"], 2, id="eval-empty-field"),
])
def test_module_runs_as_a_process(argv, code, tmp_path):
    """``python -m lselab.cli`` exits with ``main``'s return value."""
    src = str(Path(lselab.cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "lselab.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == code, out.stderr
    if code == 0:
        assert out.stdout and out.stderr == ""
    else:
        lines = out.stderr.splitlines()
        assert out.stdout == "" and len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lselab", "eval", "--x", "1,2", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "shifted"
    monkeypatch.setattr(sys, "argv", ["lselab", "eval", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "lselab: error: unrecognized arguments: --bogus"


def test_analyze_runs_oracle_once(monkeypatch, capsys):
    calls = []

    def counting(x):
        calls.append(len(x))
        return lse_softmax_reference(x)

    monkeypatch.setattr(lselab.cli, "lse_softmax_reference", counting)
    for argv in (["analyze", "--x", "1,-1,3", "--json"], ["analyze", "--x", "1,-1,3"]):
        calls.clear()
        assert main(argv) == 0
        assert calls == [3]


def test_analyze_computes_bounds_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lselab.analysis.bound_leading_term(*args, **kwargs)

    monkeypatch.setattr(lselab.cli, "bound_leading_term", counting)
    for argv in (["analyze", "--x", "1,-1,3", "--json"], ["analyze", "--x", "1,-1,3"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1


def test_single_vector_steps_get_one_array(monkeypatch, capsys):
    # eval and analyze parse --x once into a float64 array; analyze hands it
    # to the oracle once and every analysis step the one Reference it returns
    received = []

    def recording(name, func):
        def wrapper(arg, *args, **kwargs):
            out = func(arg, *args, **kwargs)
            received.append((name, arg, out))
            return out
        return wrapper

    for name in ("lse_softmax_reference", "cond_lse", "cond_softmax", "y_range",
                 "bound_leading_term", "chop"):
        monkeypatch.setattr(lselab.cli, name, recording(name, getattr(lselab.cli, name)))
    assert main(["analyze", "--x", "1,-1,3", "--json"]) == 0
    assert main(["eval", "--format", "fp16", "--x", "1,-1,3", "--json"]) == 0
    assert [name for name, _, _ in received] == [
        "lse_softmax_reference", "cond_lse", "cond_softmax", "y_range",
        "bound_leading_term", "chop",
    ]
    (_, x, ref), *analysis, (_, x16, _) = received
    assert type(x) is np.ndarray and type(x16) is np.ndarray
    assert isinstance(ref, Reference)
    assert all(arg is ref for _, arg, _ in analysis), analysis

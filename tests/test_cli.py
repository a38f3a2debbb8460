import json
import math

import pytest

import lselab.analysis
import lselab.cli
from lselab.cli import build_parser, main
from lselab.oracle import lse_softmax_reference


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

    def test_bad_vector_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--x", "1,abc"])
        assert exc.value.code == 2

    def test_missing_vector_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 2

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

    def test_bad_generator_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--gen", "uniform:zz", "--format", "fp16",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,csv_text", [
    pytest.param(["eval", "--x", "1,abc"], None, id="eval-unparsable-vector"),
    pytest.param(["eval", "--x", "1,,2"], None, id="eval-empty-field"),
    pytest.param(["eval", "--x", "1,2,"], None, id="eval-trailing-comma"),
    pytest.param(["analyze", "--x", "1,,2"], None, id="analyze-empty-field"),
    pytest.param(["analyze", "--x", "1,2,"], None, id="analyze-trailing-comma"),
    pytest.param(["eval", "--format", "fp16", "--x", "1e6,2"], None,
                 id="eval-overflows-format"),
    pytest.param(["experiment", "--format", "fp16"], "1.0,nan\n", id="csv-nan"),
    pytest.param(["experiment", "--format", "fp16"], "", id="csv-empty"),
    pytest.param(["experiment", "--format", "fp16"], "1e6,2\n", id="csv-overflows-format"),
    pytest.param(["eval", "--x", "1,2", "--format",
                  "custom:t=11,emin=-14,emax=2000,subnormals=1"], None,
                 id="custom-format-beyond-binary64"),
    pytest.param(["eval", "--format", "custom:t=11,emin=-1060,emax=100,subnormals=1",
                  "--x", "1,2"], None, id="custom-format-grid-finer-than-2^-1022"),
    pytest.param(["experiment", "--gen", "uniform:-20,20", "--n", "10",
                  "--count", "3", "--format", "fp64"], None,
                 id="experiment-format-not-measurable"),
    # generator ranges beyond binary64: numpy raises OverflowError for these
    pytest.param(["experiment", "--gen", "uniform:-1e308,1e308", "--format", "fp16"], None,
                 id="gen-uniform-range-overflows"),
    pytest.param(["experiment", "--gen", "uniform:-inf,0", "--format", "fp16"], None,
                 id="gen-uniform-infinite-bound"),
    pytest.param(["experiment", "--gen", "near-singular:1e308", "--format", "fp16"], None,
                 id="gen-near-singular-range-overflows"),
    pytest.param(["experiment", "--gen", "wide-spread:inf", "--format", "fp16"], None,
                 id="gen-wide-spread-infinite"),
    # numpy refuses the 728 TiB array up front and raises MemoryError
    pytest.param(["experiment", "--gen", "near-singular:1", "--n", "100000000000000",
                  "--count", "1"], None, id="gen-allocation-refused"),
])
def test_bad_input_exits_2_with_one_line(argv, csv_text, tmp_path, capsys):
    argv = [*argv, "--out", str(tmp_path / "run")] if argv[0] == "experiment" else argv
    if csv_text is not None:
        path = tmp_path / "in.csv"
        path.write_text(csv_text)
        argv += ["--csv", str(path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not list(tmp_path.glob("run*"))


def test_parser_reused_across_calls(capsys):
    # one process, several subcommands and options (--json on, then off):
    # each call prints what a call with a freshly built parser prints
    calls = [
        ["eval", "--alg", "alt-basic", "--format", "fp16", "--x", "12,0", "--json"],
        ["eval", "--alg", "alt-basic", "--format", "fp16", "--x", "12,0"],
        ["analyze", "--x", "1,-1,3", "--json"],
        ["analyze", "--x", "1,-1,3"],
        ["formats"],
        ["eval", "--x", "1,2,3"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr())
    build_parser.cache_clear()
    reused = []
    for argv in calls:
        assert main(argv) == 0
        reused.append(capsys.readouterr())
    assert reused == fresh
    assert build_parser.cache_info().misses == 1


def test_analyze_runs_oracle_once(monkeypatch, capsys):
    calls = []

    def counting(x):
        calls.append(len(x))
        return lse_softmax_reference(x)

    for module in (lselab.cli, lselab.analysis):
        monkeypatch.setattr(module, "lse_softmax_reference", counting)
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

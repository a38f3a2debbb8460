import math

import numpy as np
import pytest

import lselab.analysis
import lselab.harness
from conftest import emit_vectors_csv, same_records, select
from lselab.harness import (
    CSV_HEADER,
    DataSpec,
    Records,
    emit_csv,
    generate,
    ingest_csv,
    run_experiment,
    run_trial,
    summarize,
)
from lselab.kernels import (
    FLAG_OVERFLOWED,
    FLAG_PRODUCED_INF,
    FLAG_PRODUCED_NAN,
    FLAG_SUM_UNDERFLOWED,
    softmax_alt,
)
from lselab.precision import format_params, round_to_format
from lselab.quantities import KERNELS, QUANTITIES
from lselab.svgplot import emit_svg_scatter

FP16 = format_params("fp16")


class TestDataSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataSpec("uniform", (5.0, 1.0), 10, 10, 0)
        with pytest.raises(ValueError):
            DataSpec("uniform", (0.0, 1.0), 0, 10, 0)
        with pytest.raises(ValueError):
            DataSpec("uniform", (0.0, 1.0), 10, 0, 0)
        with pytest.raises(ValueError):
            DataSpec("bogus", (1.0,), 10, 10, 0)
        with pytest.raises(ValueError):
            DataSpec("wide_spread", (-3.0,), 10, 10, 0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            DataSpec("uniform", (0.0, 1.0), 10, 10, -1)


class TestGenerate:
    def test_uniform_range_and_determinism(self):
        spec = DataSpec("uniform", (-20.0, 20.0), 10, 50, 42)
        a = generate(spec)
        b = generate(spec)
        assert a == b
        assert len(a) == 50
        for x in a:
            assert len(x) == 10
            assert all(-20.0 <= v <= 20.0 for v in x)

    def test_different_seeds_differ(self):
        spec1 = DataSpec("uniform", (-1.0, 1.0), 8, 5, 1)
        spec2 = DataSpec("uniform", (-1.0, 1.0), 8, 5, 2)
        assert generate(spec1) != generate(spec2)

    def test_constant(self):
        c = -math.log(10.0)
        spec = DataSpec("constant", (c,), 10, 1, 0)
        (x,) = generate(spec)
        assert x == [c] * 10

    def test_near_singular(self):
        spec = DataSpec("near_singular", (0.01,), 6, 20, 3)
        for x in generate(spec):
            c = -math.log(6.0)
            assert all(abs(v - c) <= 0.01 for v in x)

    def test_wide_spread_contract(self):
        spec = DataSpec("wide_spread", (30.0,), 10, 100, 9)
        for x in generate(spec):
            assert 27.0 <= max(x) - min(x) <= 33.0


class TestIngestCsv:
    def test_parses_vectors(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("1.0,2.0,3.0\n\n1e3, -1e3\n")
        assert ingest_csv(p) == [[1.0, 2.0, 3.0], [1000.0, -1000.0]]

    def test_ragged_lengths_allowed(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("1.0\n1.0,2.0\n")
        assert [len(v) for v in ingest_csv(p)] == [1, 2]

    def test_error_names_line_and_field(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("1.0,2.0\n1.0,abc\n")
        with pytest.raises(ValueError, match=r"line 2, field 2"):
            ingest_csv(p)

    @pytest.mark.parametrize("line,tok,col", [
        (" 1 , nan ,3", "nan", 2),
        ("1,,3", "", 2),
        ("1e999,abc", "1e999", 1),
        ("1,2, -inf", "-inf", 3),
        ("1;2", "1;2", 1),
    ])
    def test_error_message_names_the_first_bad_field(self, tmp_path, line, tok, col):
        p = tmp_path / "in.csv"
        p.write_text(f" 2.5 ,1e3\n\n{line}\n")
        msg = f"{p}: {tok!r} at line 3, field {col} is not a finite number"
        with pytest.raises(ValueError) as info:
            ingest_csv(p)
        assert str(info.value) == msg

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "nope.csv")


class TestRunExperiment:
    def test_single_symmetric_vector(self):
        records = run_experiment([[0.0, 0.0]], FP16)
        assert len(records) == 1
        cols = records.columns
        assert cols["trial_id"].tolist() == [0] and cols["n"].tolist() == [2]
        assert cols["y_ref"][0] == pytest.approx(math.log(2.0), abs=1e-15)
        for q in QUANTITIES:
            assert math.isfinite(cols[q.err][0])
            assert cols[q.err][0] <= cols[q.bnd][0]

    def test_columns_follow_the_csv_header(self):
        records = run_experiment(generate(DataSpec("uniform", (-5.0, 5.0), 4, 3, 0)), FP16)
        assert ",".join((*records.columns, "flags")) == CSV_HEADER
        assert all(len(col) == 3 for col in records.columns.values())
        assert list(records.flags) == list(KERNELS)

    def test_basic_overflow_shifted_clean(self):
        records = run_experiment([[12.0, 0.0, 1.0]], FP16)
        assert records.flags["basic"][FLAG_OVERFLOWED].tolist() == [True]
        assert not any(col[0] for col in records.flags["shifted"].values())
        assert records.excluded("basic").tolist() == [True]
        assert records.excluded("shifted").tolist() == [False]
        assert records.columns["err_lse_basic"][0] == math.inf
        assert math.isfinite(records.columns["err_lse_shift"][0])

    def test_constant_vector_softmax_sum(self):
        x = [-math.log(10.0)] * 10
        records = run_experiment([x], FP16)
        assert records.columns["sum_dev_basic"][0] <= 13.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([], FP16)

    def test_ragged_csv_matches_each_vector_alone(self, tmp_path):
        # interleaved lengths run as separate batches; each record is the
        # one its vector gets alone, and records come back in trial-id order
        rng = np.random.default_rng(31)
        data = [rng.uniform(-20.0, 20.0, n).tolist() for n in (3, 7, 1, 3, 12, 7, 1, 3)]
        data[4][5] = 14.0  # overflows the basic form in fp16
        path = tmp_path / "ragged.csv"
        emit_vectors_csv(data, path)
        records = run_experiment(ingest_csv(path), FP16)
        assert records.columns["trial_id"].tolist() == list(range(len(data)))
        assert records.columns["n"].tolist() == [len(x) for x in data]
        alone = [run_experiment([x], FP16) for x in data]
        for i, rec in enumerate(alone):
            assert same_records(select(records, [i], -i), rec), i
        assert records.flags["basic"][FLAG_OVERFLOWED][4]
        emit_csv(records, tmp_path / "batched.csv")
        lines = (tmp_path / "batched.csv").read_text().splitlines()
        for i, rec in enumerate(alone):
            emit_csv(rec, tmp_path / "alone.csv")
            _, row = (tmp_path / "alone.csv").read_text().splitlines()
            assert lines[i + 1] == f"{i}," + row.split(",", 1)[1]

    def test_one_bound_call_per_length(self, monkeypatch, tmp_path):
        # a ragged CSV with three distinct lengths makes three calls, one
        # per batch of equal-length vectors
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lselab.analysis.bound_leading_term(*args, **kwargs)

        monkeypatch.setattr(lselab.harness, "bound_leading_term", counting)
        path = tmp_path / "ragged.csv"
        emit_vectors_csv([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0], [7.0, 8.0], [9.0]], path)
        run_experiment(ingest_csv(path), FP16)
        assert len(calls) == 3

    @pytest.mark.parametrize("rows,fmt_name,calls_made", [
        # bfloat16 at this range: both log-sum-exps agree on every row
        (np.random.default_rng(3).uniform(-20.0, 20.0, (4, 50)).tolist(), "bfloat16", 1),
        # the third row overflows the basic form, so its y differs
        ([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0], [12.0, 0.0, 1.0]], "fp16", 2),
    ])
    def test_alt_softmax_shared_when_the_log_sum_exps_agree(
        self, monkeypatch, rows, fmt_name, calls_made
    ):
        calls = []

        def counting(xs, y, ctx):
            calls.append(y)
            return softmax_alt(xs, y, ctx)

        monkeypatch.setattr(lselab.harness, "softmax_alt", counting)
        records = run_experiment(rows, format_params(fmt_name))
        assert len(calls) == calls_made
        monkeypatch.undo()
        for i, x in enumerate(rows):  # each row's records are those it gets alone
            alone = run_experiment([x], format_params(fmt_name))
            assert same_records(select(records, [i], -i), alone), i

    def test_trial_rounds_inputs(self):
        # unrounded input and its rounded twin give identical records
        x = [0.1234567, -3.3219]
        r1 = run_experiment([x], FP16)
        r2 = run_experiment([[round_to_format(v, FP16) for v in x]], FP16)
        assert same_records(r1, r2)
        assert same_records(run_trial(5, x, FP16), select(r1, [0], 5))


def _records(*errors, flags=None):
    """Records of two-entry trials; trial i has lse errors ``errors[i]``
    (basic, shifted), every other error 0, every bound 100."""
    count = len(errors)
    columns = {
        "trial_id": np.arange(count),
        "n": np.full(count, 2),
        **{c: np.zeros(count) for c in CSV_HEADER.split(",")[2:-1]},
    }
    columns["xmax"][:], columns["xmin"][:], columns["y_ref"][:] = 1.0, -1.0, 1.0
    columns["err_lse_basic"] = np.array([e[0] for e in errors], dtype=float)
    columns["err_lse_shift"] = np.array([e[1] for e in errors], dtype=float)
    columns["bnd_lse_basic"][:] = columns["bnd_lse_shift"][:] = 100.0
    names = {
        "basic": (FLAG_OVERFLOWED, FLAG_SUM_UNDERFLOWED),
        "shifted": (),
        "alt_basic": (FLAG_OVERFLOWED,),
        "alt_shifted": (FLAG_OVERFLOWED,),
    }
    raised = flags or {}
    return Records(columns, {
        kernel: {
            name: np.array([(i, kernel, name) in raised for i in range(count)])
            for name in (*extra, FLAG_PRODUCED_INF, FLAG_PRODUCED_NAN)
        }
        for kernel, extra in names.items()
    })


class TestSummarize:
    def test_pairwise_ratio_arithmetic(self):
        s = summarize(_records((2.0, 1.0), (1.0, 2.0)))
        pair = s.pairs[0]
        assert pair.mean == pytest.approx(1.25)
        assert pair.min == 0.5
        assert pair.max == 2.0
        assert pair.geometric_mean == pytest.approx(1.0)

    def test_all_zero_errors_reports_na(self):
        s = summarize(_records((0.0, 0.0)))
        assert s.pairs[0].count == 0
        assert s.pairs[0].mean is None
        assert s.total_bound_violations == 0

    def test_violation_detection(self):
        s = summarize(_records((500.0, 1.0)))  # bound is 100
        assert s.per_algorithm["lse_basic"].bound_violations == 1

    def test_flagged_trials_are_excluded_and_overflow_counted(self):
        # trial 0 overflowed on the basic path, trial 1 produced a NaN on
        # the shifted path: each is left out of its own algorithm's
        # statistics and violations, and only the overflow is counted as one
        flags = {(0, "basic", FLAG_OVERFLOWED), (1, "shifted", FLAG_PRODUCED_NAN)}
        s = summarize(_records((500.0, 1.0), (3.0, 700.0), (2.0, 4.0), flags=flags))
        basic, shift = s.per_algorithm["lse_basic"], s.per_algorithm["lse_shift"]
        assert (basic.finite_count, basic.max, basic.bound_violations) == (2, 3.0, 0)
        assert (shift.finite_count, shift.max, shift.bound_violations) == (2, 4.0, 0)
        assert (basic.overflow_count, shift.overflow_count) == (1, 0)
        assert s.per_algorithm["sm_basic"].finite_count == 2
        pair = s.pairs[0]  # only trial 2 is counted for both
        assert (pair.count, pair.min, pair.max) == (1, 0.5, 0.5)

    def test_means_add_left_to_right_and_medians_take_the_middle(self):
        # added left to right, 1 + 2^-53 rounds back to 1 both times; a
        # compensated sum (the builtin sum() from Python 3.12) gives 1.25 + 2^-52
        basic = [1.0, 2.0**-53, 2.0**-53, 0.25]
        s = summarize(_records(*((e, 1.0) for e in basic)))
        stats, pair = s.per_algorithm["lse_basic"], s.pairs[0]
        assert (stats.mean, pair.mean) == (1.25 / 4, 1.25 / 4)
        assert stats.median == (2.0**-53 + 0.25) / 2
        s = summarize(_records(*((e, 1.0) for e in basic[1:])))
        assert (s.per_algorithm["lse_basic"].mean, s.per_algorithm["lse_basic"].median) == ((2.0**-52 + 0.25) / 3, 2.0**-53)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(_records())

    def test_conforming_run_has_zero_violations(self):
        spec = DataSpec("uniform", (-5.0, 5.0), 8, 60, 21)
        records = run_experiment(generate(spec), FP16)
        assert summarize(records).total_bound_violations == 0


class TestCsvEmit:
    def test_records_round_trip_values(self, tmp_path):
        spec = DataSpec("uniform", (-10.0, 10.0), 6, 10, 5)
        records = run_experiment(generate(spec), FP16)
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == records.columns["trial_id"][i] == i
            for name, cell in zip(header[2:-1], cells[2:-1]):
                assert float(cell) == records.columns[name][i]  # exact round-trip

    def test_flags_cell(self, tmp_path):
        records = run_experiment([[12.0, 0.0], [0.0, 0.0], [-800.0]], FP16)
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        cells = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        # per kernel in kernel order, its raised flags in sorted order
        assert cells == [
            "basic:overflowed+produced_inf+produced_nan;alt_basic:produced_inf",
            "",
            "basic:produced_inf+produced_nan+sum_underflowed_to_zero;"
            "alt_basic:overflowed+produced_inf",
        ]

    def test_vectors_round_trip_bit_exact(self, tmp_path):
        spec = DataSpec("uniform", (-20.0, 20.0), 10, 25, 8)
        data = generate(spec)
        path = tmp_path / "vectors.csv"
        emit_vectors_csv(data, path)
        assert ingest_csv(path) == data

    def test_summary_emission(self, tmp_path):
        spec = DataSpec("uniform", (-5.0, 5.0), 4, 5, 1)
        records = run_experiment(generate(spec), FP16)
        path = tmp_path / "summary.csv"
        emit_csv(summarize(records), path)
        text = path.read_text()
        assert text.startswith("key,value\n")
        assert "lse_basic.bound_violations,0" in text


class TestSvgScatter:
    def test_scatter_with_reference_line(self, tmp_path):
        spec = DataSpec("uniform", (-5.0, 5.0), 6, 20, 2)
        records = run_experiment(generate(spec), FP16)
        path = tmp_path / "plot.svg"
        emit_svg_scatter(records, "bnd_lse_shift", "err_lse_shift", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 20
        assert 'stroke="red"' in text

    def test_skips_nonfinite_points(self, tmp_path):
        records = run_experiment([[12.0, 0.0]], FP16)  # basic overflows
        path = tmp_path / "plot.svg"
        emit_svg_scatter(records, "bnd_lse_basic", "err_lse_basic", path)
        assert path.read_text().count("<circle") == 0

    def test_unknown_field_rejected(self, tmp_path):
        records = run_experiment([[0.0, 1.0]], FP16)
        with pytest.raises(ValueError):
            emit_svg_scatter(records, "nope", "err_lse_basic", tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

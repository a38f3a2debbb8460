import math

import numpy as np
import pytest

from lselab.harness import (
    CSV_HEADER,
    DataSpec,
    TrialRecord,
    emit_csv,
    emit_vectors_csv,
    generate,
    ingest_csv,
    run_experiment,
    run_trial,
    summarize,
)
from lselab.precision import format_params, round_to_format
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

    def test_pre_rounding_to_format(self):
        spec = DataSpec("uniform", (-20.0, 20.0), 10, 10, 4)
        for x in generate(spec, FP16):
            for v in x:
                assert round_to_format(v, FP16) == v


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
        (r,) = records
        assert r.y_ref == pytest.approx(math.log(2.0), abs=1e-15)
        for err_f, bnd_f in (
            ("err_lse_basic", "bnd_lse_basic"),
            ("err_lse_shift", "bnd_lse_shift"),
            ("err_sm_basic", "bnd_sm_basic"),
            ("err_sm_shift", "bnd_sm_shift"),
            ("err_sm_alt", "bnd_sm_alt"),
            ("err_sm_altshift", "bnd_sm_altshift"),
        ):
            assert math.isfinite(getattr(r, err_f))
            assert getattr(r, err_f) <= getattr(r, bnd_f)

    def test_basic_overflow_shifted_clean(self):
        records = run_experiment([[12.0, 0.0, 1.0]], FP16)
        (r,) = records
        assert "overflowed" in r.flags["basic"]
        assert r.flags["shifted"] == frozenset()
        assert r.err_lse_basic == math.inf
        assert math.isfinite(r.err_lse_shift)

    def test_constant_vector_softmax_sum(self):
        x = [-math.log(10.0)] * 10
        (r,) = run_experiment([x], FP16)
        assert r.sum_dev_basic <= 13.0

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
        assert [r.trial_id for r in records] == list(range(len(data)))
        alone = [run_trial(i, x, FP16) for i, x in enumerate(data)]
        assert records == alone
        assert "overflowed" in records[4].flags["basic"]
        emit_csv(records, tmp_path / "batched.csv")
        emit_csv(alone, tmp_path / "alone.csv")
        assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_trial_rounds_inputs(self):
        # unrounded input and its rounded twin give identical records
        x = [0.1234567, -3.3219]
        r1 = run_trial(0, x, FP16)
        r2 = run_trial(0, [round_to_format(v, FP16) for v in x], FP16)
        assert r1 == r2
        assert [r1] == run_experiment([x], FP16)


class TestSummarize:
    @staticmethod
    def _record(trial_id, err_basic, err_shift):
        kw = dict.fromkeys(
            (
                "err_sm_basic",
                "bnd_sm_basic",
                "err_sm_shift",
                "bnd_sm_shift",
                "err_sm_alt",
                "bnd_sm_alt",
                "err_sm_altshift",
                "bnd_sm_altshift",
                "sum_dev_basic",
                "sum_dev_shift",
                "sum_dev_alt",
                "sum_dev_altshift",
            ),
            0.0,
        )
        return TrialRecord(
            trial_id=trial_id,
            n=2,
            xmax=1.0,
            xmin=-1.0,
            y_ref=1.0,
            err_lse_basic=err_basic,
            bnd_lse_basic=100.0,
            err_lse_shift=err_shift,
            bnd_lse_shift=100.0,
            flags={},
            **kw,
        )

    def test_pairwise_ratio_arithmetic(self):
        records = [self._record(0, 2.0, 1.0), self._record(1, 1.0, 2.0)]
        s = summarize(records)
        pair = s.pairs[0]
        assert pair.mean == pytest.approx(1.25)
        assert pair.min == 0.5
        assert pair.max == 2.0
        assert pair.geometric_mean == pytest.approx(1.0)

    def test_all_zero_errors_reports_na(self):
        records = [self._record(0, 0.0, 0.0)]
        s = summarize(records)
        assert s.pairs[0].count == 0
        assert s.pairs[0].mean is None
        assert s.total_bound_violations == 0

    def test_violation_detection(self):
        r = self._record(0, 500.0, 1.0)  # bound is 100
        s = summarize([r])
        assert s.per_algorithm["lse_basic"].bound_violations == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_conforming_run_has_zero_violations(self):
        spec = DataSpec("uniform", (-5.0, 5.0), 8, 60, 21)
        records = run_experiment(generate(spec, FP16), FP16)
        assert summarize(records).total_bound_violations == 0


class TestCsvEmit:
    def test_records_round_trip_values(self, tmp_path):
        spec = DataSpec("uniform", (-10.0, 10.0), 6, 10, 5)
        records = run_experiment(generate(spec, FP16), FP16)
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        for line, rec in zip(lines[1:], records):
            cells = line.split(",")
            assert int(cells[0]) == rec.trial_id
            assert float(cells[4]) == rec.y_ref  # exact round-trip
            assert float(cells[5]) == rec.err_lse_basic

    def test_vectors_round_trip_bit_exact(self, tmp_path):
        spec = DataSpec("uniform", (-20.0, 20.0), 10, 25, 8)
        data = generate(spec)
        path = tmp_path / "vectors.csv"
        emit_vectors_csv(data, path)
        assert ingest_csv(path) == data

    def test_summary_emission(self, tmp_path):
        spec = DataSpec("uniform", (-5.0, 5.0), 4, 5, 1)
        records = run_experiment(generate(spec, FP16), FP16)
        path = tmp_path / "summary.csv"
        emit_csv(summarize(records), path)
        text = path.read_text()
        assert text.startswith("key,value\n")
        assert "lse_basic.bound_violations,0" in text


class TestSvgScatter:
    def test_scatter_with_reference_line(self, tmp_path):
        spec = DataSpec("uniform", (-5.0, 5.0), 6, 20, 2)
        records = run_experiment(generate(spec, FP16), FP16)
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
        with pytest.raises(ValueError):
            emit_svg_scatter([], "nope", "err_lse_basic", tmp_path / "x.svg")

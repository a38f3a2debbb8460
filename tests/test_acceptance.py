"""Acceptance suite: one test per criterion, one pass/fail line each."""

import math

import mpmath as mp
import numpy as np
import pytest

from lselab.cli import main as cli_main
from lselab.harness import (
    DataSpec,
    emit_csv,
    generate,
    ingest_csv,
    run_experiment,
    summarize,
)
from lselab.kernels import FLAG_OVERFLOWED, lse_softmax_basic, lse_softmax_shifted
from lselab.oracle import lse_softmax_reference
from lselab.precision import ArithmeticContext, chop, format_params, round_to_format
from lselab.quantities import QUANTITIES

FP16 = format_params("fp16")
BF16 = format_params("bfloat16")
NATIVE = ArithmeticContext(format_params("fp64"))


@pytest.fixture(scope="module")
def main_suite():
    """Criterion-2 data: 2500 vectors, n=10, uniform(-20,20), seed 42, fp16."""
    spec = DataSpec("uniform", (-20.0, 20.0), 10, 2500, 42)
    data = chop(generate(spec), FP16).tolist()
    records = run_experiment(data, FP16)
    return data, records


from conftest import emit_vectors_csv, match_3sf, same_records, select, softmax_jacobian


def report(criterion, ok):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_format_tables(capsys):
    table1 = {
        "fp16": (4.88e-4, 5.96e-8, 6.10e-5, 6.55e4),
        "bfloat16": (3.91e-3, 1.18e-38, 1.18e-38, 3.39e38),
        "fp32": (5.96e-8, 1.40e-45, 1.18e-38, 3.40e38),
        "fp64": (1.11e-16, 4.94e-324, 2.22e-308, "1.80e308"),
    }
    table2_log_rmax = {"fp16": 11.0, "bfloat16": 88.7, "fp32": 88.7, "fp64": 710.0}
    table2_log_rmin = {"fp16": -9.70, "bfloat16": -87.3, "fp32": -87.3, "fp64": -708.0}
    ok = True
    for name, (u, rmin_s, rmin, rmax) in table1.items():
        f = format_params(name)
        ok &= match_3sf(f.unit_roundoff, u)
        ok &= match_3sf(f.r_min, rmin)
        ok &= match_3sf(f.r_max, rmax)
        if name == "bfloat16":
            # default follows the no-subnormal convention (r_min_s = r_min);
            # the subnormal column value is checked on the enabled variant
            ok &= match_3sf(f.r_min_subnormal, rmin)
            bfs = format_params("custom:t=8,emin=-126,emax=127,subnormals=1")
            ok &= match_3sf(bfs.r_min_subnormal, 9.18e-41)
        else:
            ok &= match_3sf(f.r_min_subnormal, rmin_s)
        ok &= match_3sf(math.log(f.r_max), table2_log_rmax[name])
        ok &= match_3sf(math.log(f.r_min), table2_log_rmin[name])
    assert cli_main(["formats"]) == 0
    out = capsys.readouterr().out
    ok &= "0.000488" in out and "6.55e+04" in out and "0.00391" in out
    report(1, ok)


def test_criterion_02_bound_conformance(main_suite):
    _, records = main_suite
    violations = 0
    checked = 0
    for q in QUANTITIES:
        kept = ~records.excluded(q.kernel)
        err = records.columns[q.err][kept]
        assert np.isfinite(err).all()
        checked += len(err)
        violations += int(np.count_nonzero(err > records.columns[q.bnd][kept]))
    ok = violations == 0 and checked > 0
    report(2, ok)


def test_criterion_03_overflow_census(main_suite):
    data, records = main_suite
    # a-priori prediction from the rounded inputs alone: overflow iff some
    # exponential rounds to inf, or the exact sum of the rounded
    # exponentials reaches the fp16 overflow midpoint
    midpoint = 65520.0
    predicted = set()
    for i, x in enumerate(data):
        w = [round_to_format(math.exp(v), FP16) for v in x]
        if any(math.isinf(t) for t in w) or math.fsum(w) >= midpoint:
            predicted.add(i)
    ids = records.columns["trial_id"]
    observed = set(ids[records.flags["basic"][FLAG_OVERFLOWED]].tolist())
    # every predicted vector has x_max above (or near) the exp threshold
    thr = math.log(65520.0)
    by_threshold = set(ids[records.columns["xmax"] > thr].tolist())
    # no flag at all on the shifted path: no overflow, inf or NaN
    shifted_clean = not records.excluded("shifted").any()
    ok = predicted == observed and by_threshold <= observed and shifted_clean
    report(3, ok)


def test_criterion_04_bfloat16_no_overflow(main_suite):
    data, _ = main_suite
    data_bf = [[round_to_format(v, BF16) for v in x] for x in data]
    records = run_experiment(data_bf, BF16)
    s = summarize(records)
    ok = all(st.overflow_count == 0 for st in s.per_algorithm.values())
    report(4, ok)


def test_criterion_05_n1_exactness():
    rng = np.random.default_rng(505)
    ctx = ArithmeticContext(FP16)
    ok = True
    count = 0
    while count < 10_000:
        bits = rng.integers(0, 1 << 16, 20_000, dtype=np.uint16)
        vals = bits.view(np.float16).astype(np.float64)
        vals = vals[np.isfinite(vals)]
        for v in vals:
            x = float(v)
            r = lse_softmax_shifted([x], ctx)
            ok &= r.y.tolist() == [x] and r.g.tolist() == [[1.0]]
            count += 1
            if count == 10_000:
                break
    report(5, ok)


def test_criterion_06_underflow_pathology():
    basic = lse_softmax_basic([-800.0], NATIVE)
    shifted = lse_softmax_shifted([-800.0], NATIVE)
    ok = (
        basic.y.tolist() == [-math.inf]
        and basic.flags["sum_underflowed_to_zero"].tolist() == [True]
        and shifted.y.tolist() == [-800.0]
        and shifted.g.tolist() == [[1.0]]
    )
    report(6, ok)


def test_criterion_07_gradient_identity():
    # central differences at h = 2^-20; the difference quotient is evaluated
    # in 40-digit arithmetic because binary64 roundoff noise in f exceeds
    # the 1e-6 componentwise tolerance for softmax components below ~1e-3
    h = 2.0**-20
    rng = np.random.default_rng(707)
    ok = True
    with mp.workdps(40):
        hh = mp.mpf(h)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            x = rng.uniform(-10, 10, n).tolist()
            g = lse_softmax_reference(x).g_ref[0].tolist()
            terms = [mp.e ** mp.mpf(v) for v in x]
            for j in range(n):
                up = mp.log(mp.fsum(terms) + terms[j] * (mp.e**hh - 1))
                dn = mp.log(mp.fsum(terms) + terms[j] * (mp.e**-hh - 1))
                fd = float((up - dn) / (2 * hh))
                ok &= abs(fd - g[j]) <= 1e-6 * abs(g[j])
    report(7, ok)


def test_criterion_08_jacobian_properties():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.uniform(-10, 10, n).tolist()
        G = softmax_jacobian(x)
        ok &= np.array_equal(G, G.T)
        ok &= np.max(np.abs(np.sum(G, axis=1))) <= 1e-14
        ok &= np.max(np.sum(np.abs(G), axis=1)) <= 1.0 + 1e-15
        ok &= float(np.linalg.eigvalsh(G).min()) >= -1e-12
    report(8, ok)


def test_criterion_09_alt_formula_degradation():
    spec = DataSpec("wide_spread", (30.0,), 10, 1000, 42)
    records = run_experiment(generate(spec), FP16)

    def med(column, kernel):
        # median over the trials the kernel's flags do not exclude
        vals = records.columns[column][~records.excluded(kernel)]
        return float(np.median(vals[np.isfinite(vals)]))

    ok = med("err_sm_altshift", "alt_shifted") >= med("err_sm_shift", "shifted")
    ok &= med("sum_dev_altshift", "alt_shifted") >= med("sum_dev_shift", "shifted")
    report(9, ok)


def test_criterion_10_basic_vs_shifted_parity(main_suite):
    _, records = main_suite
    s = summarize(records)
    pair = next(p for p in s.pairs if p.numerator == "err_lse_basic")
    ok = pair.count > 0 and 0.5 <= pair.geometric_mean <= 2.0
    report(10, ok)


def test_criterion_11_softmax_sum_bound(main_suite):
    _, records = main_suite
    cols = records.columns
    kept = ~records.excluded("basic")
    ok = bool(np.all(cols["sum_dev_basic"][kept] <= (cols["n"][kept] + 3) + 1))
    kept = ~records.excluded("shifted")
    bound = (cols["n"] + 2 + 2 * (cols["xmax"] - cols["xmin"])) + 1
    ok &= bool(np.all(cols["sum_dev_shift"][kept] <= bound[kept]))
    report(11, ok)


def test_criterion_12_csv_roundtrip_and_determinism(tmp_path):
    spec = DataSpec("uniform", (-20.0, 20.0), 10, 100, 42)
    data = generate(spec)
    vec_path = tmp_path / "vectors.csv"
    emit_vectors_csv(data, vec_path)
    records1 = run_experiment(data, FP16)
    records2 = run_experiment(ingest_csv(vec_path), FP16)
    ok = same_records(records1, records2)

    # trials are independent: a suffix of the input gives the same records
    # as the matching suffix of the full run, trial ids aside
    k = 37
    tail = run_experiment(data[k:], FP16)
    ok &= same_records(tail, select(records1, slice(k, None), -k))

    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    emit_csv(run_experiment(data, FP16), p1)
    emit_csv(run_experiment(data, FP16), p2)
    ok &= p1.read_bytes() == p2.read_bytes()
    report(12, ok)

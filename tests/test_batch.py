"""Differential tests: the array paths against their scalar references, bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from conftest import raised, same_bits, same_result, softmax_jacobian
from lselab import precision
from lselab.harness import DataSpec, _exact_sums, _sum_deviations, generate
from lselab.kernels import lse_softmax_basic, lse_softmax_shifted, softmax_alt
from lselab.oracle import lse_softmax_reference
from lselab.precision import (
    ArithmeticContext,
    chop,
    format_params,
    round_to_format,
)

FORMATS = [
    "fp16",
    "bfloat16",
    "fp32",
    "fp64",  # every binade constant is 0.0: the table is the identity
    "custom:t=5,emin=-6,emax=7,subnormals=0",
    "custom:t=26,emin=-1000,emax=1023,subnormals=0",  # prescaled from 2^997 up
    "custom:t=26,emin=-997,emax=1023,subnormals=1",  # the same, with the grid 2^-1022 near zero
    "custom:t=8,emin=-100,emax=979,subnormals=1",  # only the top binade is prescaled
    "custom:t=8,emin=-1015,emax=10,subnormals=1",  # subnormal spacing 2^-1022, the finest allowed
    "custom:t=3,emin=-2,emax=1023,subnormals=0",
    "custom:t=11,emin=3,emax=9,subnormals=1",  # inf and NaN index [0.5, 1), a subnormal binade
    "custom:t=4,emin=-6,emax=6,subnormals=1",
]
T4 = "custom:t=4,emin=-6,emax=6,subnormals="
# binades whose spacing 2^s exceeds 2^971 round prescaled (P < 1): those
# from 2^(971 + t) up to the top one, and those below 2^emin when the grid
# there is that coarse; the sum never caches them
PRESCALED = [
    "custom:t=4,emin=-10,emax=1023,subnormals=1",
    "custom:t=26,emin=-997,emax=1023,subnormals=1",
    "custom:t=2,emin=1000,emax=1023,subnormals=1",
    "custom:t=2,emin=1000,emax=1023,subnormals=0",
    "custom:t=26,emin=980,emax=996,subnormals=0",  # only the flushed region, below 2^980
]


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _same(a: float, b: float) -> bool:
    return _bits(a) == _bits(b) or (a != a and b != b)


def _edge_values(fmt) -> list[float]:
    """Ties in every normal and subnormal binade, both sides of the
    subnormal and overflow boundaries, signed zeros, infinities and NaN."""
    t = fmt.precision_bits
    vals = [0.0, math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    for e in range(fmt.emin, fmt.emax + 1):
        half_ulp = math.ldexp(1.0, e - t)
        # the tie rounds down, then up, then up out of its binade
        for m in (1.0, 1.0 + math.ldexp(1.0, 1 - t), 2.0 - math.ldexp(1.0, 1 - t)):
            tie = math.ldexp(m, e) + half_ulp
            vals += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    # the binades [2^j, 2^(j+1)) from the smallest subnormal up to 2^emin,
    # where the grid spacing is the subnormal ulp: both ends, and the same ties
    sub_ulp = math.ldexp(1.0, fmt.emin - t + 1)
    for j in range(fmt.emin - t + 1, fmt.emin):
        lo, hi = math.ldexp(1.0, j), math.ldexp(1.0, j + 1)
        vals += [lo, hi - sub_ulp]
        for tie in (lo + sub_ulp / 2, lo + 1.5 * sub_ulp, hi - sub_ulp / 2):
            vals += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    tie_over = fmt.r_max + math.ldexp(1.0, fmt.emax - t)
    vals += [fmt.r_max, math.nextafter(fmt.r_max, math.inf), tie_over,
             math.nextafter(tie_over, 0.0), math.nextafter(tie_over, math.inf)]
    r_min, tiny = fmt.r_min, math.ldexp(1.0, fmt.emin - t + 1)
    vals += [r_min, math.nextafter(r_min, 0.0), r_min / 2,
             math.nextafter(r_min / 2, 0.0), math.nextafter(r_min / 2, 1.0)]
    vals += [(k + 0.5) * tiny for k in range(4)] + [tiny, tiny / 2, math.nextafter(tiny / 2, 1.0)]
    # every binade below the smallest nonzero value, which rounds to a zero
    # (-0.0 for the negated copies below): both ends and the middle
    for j in range(-1074, math.frexp(fmt.r_min_subnormal)[1] - 1):
        lo = math.ldexp(1.0, j)
        vals += [lo, 1.5 * lo, math.nextafter(2.0 * lo, 0.0)]
    # at and above 2^(emax+1), which overflow
    for j in range(fmt.emax + 1, min(fmt.emax + 4, 1024)):
        lo = math.ldexp(1.0, j)
        vals += [lo, math.nextafter(lo, math.inf), 1.5 * lo, math.nextafter(2.0 * lo, 0.0)]
    return vals + [-v for v in vals]


def _top_binade_values(fmt) -> list[float]:
    """Every midpoint of the top binade [2^emax, 2^(emax+1)) and its two
    binary64 neighbours (r_max - ulp/2 and the tie r_max + ulp/2 among
    them), and the largest double below 2^(emax+1); both signs."""
    t, emax = fmt.precision_bits, fmt.emax
    ulp = math.ldexp(1.0, emax + 1 - t)
    vals = [math.ldexp(math.nextafter(2.0, 0.0), emax)]
    for k in range(2 ** (t - 1)):
        mid = math.ldexp(1.0, emax) + (k + 0.5) * ulp
        vals += [mid, math.nextafter(mid, 0.0), math.nextafter(mid, math.inf)]
    return vals + [-v for v in vals]


@pytest.mark.parametrize("name", FORMATS)
def test_chop_matches_round_to_format_on_edges(name):
    fmt = format_params(name)
    vals = _edge_values(fmt)
    if fmt.precision_bits <= 11:  # 2^(t-1) midpoints
        vals += _top_binade_values(fmt)
    got = chop(np.array(vals), fmt).tolist()
    for v, c in zip(vals, got):
        r = round_to_format(v, fmt)
        assert _same(r, ref.round_reference(v, fmt)), (name, v, r)
        assert _same(c, r), (name, v, c, r)
        assert _same(chop(v, fmt), r)  # a scalar rounds like a 1-entry array


def test_binade_table_entries(monkeypatch):
    # P = 1 throughout: fp16's spacing never exceeds 2^971
    assert {entry[0] for entry in format_params("fp16").frexp_entries} == {1.0}
    table = [entry[1] for entry in format_params("fp16").frexp_entries]
    emin_constant = table[math.frexp(2.0**-14)[1]]
    # every binade below 2^emin shares the emin binade's constant, down to
    # the one holding 2^-1074: C rounds below the smallest subnormal to +-0
    assert {table[math.frexp(2.0**j)[1]] for j in range(-1074, -14)} == {emin_constant}
    # the top binade [2^15, 2^16) has its own constant; above it everything
    # overflows, and C = 0.0 leaves each value to the overflow test
    assert table[math.frexp(2.0**15)[1]] == math.ldexp(1.5, 16 - 11 + 52)
    assert {table[e] for e in range(17, 1025)} == {0.0}
    # the scalar list is binade_table's C column, reordered by frexp exponent
    constants = format_params("fp16").binade_table[0]
    for v in (5e-324, 2.0**-1022, 2.0**-30, 0.75, 1.0, 3e4, 1e5, 1e308):
        field = struct.unpack("<Q", struct.pack("<d", v))[0] >> 52
        # a negative double's index, x.view(np.int64) >> 52, is field - 2048
        assert table[math.frexp(v)[1]] == constants[field] == constants[field - 2048], v
    assert len(constants) == 2048
    # flushing subnormals, the grid below 2^emin is {0, r_min}
    bf16 = format_params("bfloat16").frexp_entries
    below = {bf16[math.frexp(2.0**j)[1]][:2] for j in range(-1074, -126)}
    assert below == {(1.0, math.ldexp(1.5, -126 + 52))}
    # with emax > 970 + t, the binades from 2^(971 + t) up to the top one,
    # whose spacing 2^s exceeds 2^971, are prescaled: P = 2^(971 - s) and
    # C = 1.5 * 2^1023; above the top one C = 0.0 and P = 1
    for name in ("custom:t=3,emin=-2,emax=1023,subnormals=0",
                 "custom:t=8,emin=-100,emax=979,subnormals=1"):
        fmt = format_params(name)
        t, last = fmt.precision_bits, 1023 + fmt.precision_bits - 52
        assert last < fmt.emax + 1
        entries = fmt.frexp_entries
        assert {entry[0] for entry in entries[:last + 1]} == {1.0}
        assert [entry[0] for entry in entries[last + 1:fmt.emax + 2]] == [
            math.ldexp(1.0, 971 - (e - t)) for e in range(last + 1, fmt.emax + 2)]
        assert {entry[1] for entry in entries[last + 1:fmt.emax + 2]} == {math.ldexp(1.5, 1023)}
        assert {entry[:2] for entry in entries[fmt.emax + 2:1025]} <= {(1.0, 0.0)}
        # the sum caches no prescaled binade
        assert {entry[2:] for entry in entries[last + 1:1025]} == {(0.0, 0.0, 0.0)}
    assert {entry[:2] for entry in format_params("fp64").frexp_entries} == {(1.0, 0.0)}
    # the sum's (lo, hi, quarter) in each cached binade, where quarter is a
    # quarter of the spacing at the rounded partial sum: below 2^emin,
    # flushed or not, that of r_min's binade; zeros from the top one up,
    # where C is the binade's own (0.0 above the top one)
    entries = format_params("fp16").frexp_entries
    assert entries[math.frexp(1.0)[1]] == (1.0, math.ldexp(1.5, 1 - 11 + 52), 1.0, 2.0, 2.0**-12)
    assert {entries[e][4] for e in range(-1073, -13)} == {2.0**-26}
    assert entries[16] == (1.0, math.ldexp(1.5, 16 - 11 + 52), 0.0, 0.0, 0.0)
    assert set(entries[17:1025]) == {(1.0, 0.0, 0.0, 0.0, 0.0)}
    entries = format_params("bfloat16").frexp_entries
    assert {(entries[e][1], entries[e][4]) for e in range(-1073, -126)} == {(math.ldexp(1.5, -126 + 52), 2.0**-135)}
    assert {entry[4] for entry in format_params("fp64").frexp_entries} == {0.0}

    # every binade, the top one and the prescaled ones included, rounds by
    # the table and an overflow test, never by chop: zeros, values that round
    # to +-0 and values >= 2^(emax+1)
    def no_chop(x, fmt):
        raise AssertionError(f"chop({x!r}) called")

    monkeypatch.setattr(precision, "chop", no_chop)
    for name in ("fp16", "bfloat16", T4 + "1", T4 + "0", *PRESCALED):
        fmt = format_params(name)
        top = _top_binade_values(fmt) if fmt.precision_bits <= 11 else []  # 2^(t-1) midpoints
        for v in top + _edge_values(fmt):
            assert _same(round_to_format(v, fmt), ref.round_reference(v, fmt)), (name, v)


@pytest.mark.parametrize("name", FORMATS)
def test_chop_matches_round_to_format_hypothesis(name):
    fmt = format_params(name)

    @given(st.lists(st.floats(), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def check(vals):
        got = chop(np.array(vals, dtype=np.float64), fmt).tolist()
        for v, c in zip(vals, got):
            r = round_to_format(v, fmt)
            assert _same(r, ref.round_reference(v, fmt)), (v, r)
            assert _same(c, r), (v, c)

    check()


# per format: big + 1 overflows exp, and every exp in tiny underflows to zero
_ROW_RANGES = {
    "fp16": (12.0, (-30.0, -18.0)),
    "bfloat16": (90.0, (-100.0, -89.0)),
    "fp32": (88.0, (-130.0, -105.0)),
    T4 + "1": (4.0, (-12.0, -7.5)),
    T4 + "0": (4.0, (-12.0, -7.5)),
}


def _rows(fmt_name: str, rng: np.random.Generator, n: int) -> list[list[float]]:
    """Ordinary rows, rows that overflow the basic form, and rows whose
    exponentials all underflow to zero."""
    big, tiny = _ROW_RANGES[fmt_name]
    rows = [rng.uniform(-20.0, 20.0, n) for _ in range(6)]
    for _ in range(3):
        row = rng.uniform(-5.0, big + 3.0, n)
        row[rng.integers(n)] = big + 1.0
        rows.append(row)
    rows += [rng.uniform(*tiny, n) for _ in range(3)]
    rows.append(np.full(n, rng.uniform(-20.0, 20.0)))  # ties for the pivot
    return [r.tolist() for r in rows]


def _check_row(batch, i, want, label):
    y, g = float(batch.y[i]), batch.g[i].tolist()
    assert _same(y, want.y), (label, i, y, want.y)
    assert len(g) == len(want.g)
    assert all(_same(a, b) for a, b in zip(g, want.g)), (label, i)
    assert raised(batch, i) == want.flags, (label, i)


@pytest.mark.parametrize("fmt_name", list(_ROW_RANGES))
@pytest.mark.parametrize("n", [1, 2, 9, 40, 1000])
def test_batch_kernels_match_scalar_kernels(fmt_name, n):
    fmt = format_params(fmt_name)
    rng = np.random.default_rng([n, len(fmt_name)])
    xs = chop(np.array(_rows(fmt_name, rng, n)), fmt)
    ctx, sctx = ArithmeticContext(fmt), ref.ScalarContext(fmt)
    basic = lse_softmax_basic(xs, ctx)
    shifted = lse_softmax_shifted(xs, ctx)
    alt_b = softmax_alt(xs, basic.y, ctx)
    alt_s = softmax_alt(xs, shifted.y, ctx)
    flagged = set()
    for i, x in enumerate(xs.tolist()):
        want_basic = ref.lse_softmax_basic(x, sctx)
        want_shifted = ref.lse_softmax_shifted(x, sctx)
        _check_row(basic, i, want_basic, "basic")
        _check_row(shifted, i, want_shifted, "shifted")
        _check_row(alt_b, i, ref.softmax_alt(x, want_basic.y, sctx), "alt_basic")
        _check_row(alt_s, i, ref.softmax_alt(x, want_shifted.y, sctx), "alt_shifted")
        flagged |= want_basic.flags
    # the batches reach both pathologies the rows were built for
    assert "overflowed" in flagged
    assert "sum_underflowed_to_zero" in flagged


def _sum_reference(row: list[float], fmt) -> float:
    s = row[0]
    for w in row[1:]:
        s = round_to_format(s + w, fmt)
    return s


def _check_sums(rows: list[list[float]], fmt) -> None:
    got = ArithmeticContext(fmt).sum(np.array(rows)).tolist()
    for row, s in zip(rows, got):
        assert _same(s, _sum_reference(row, fmt)), (fmt.name, row, s)


def _sum_edge_rows(fmt) -> list[list[float]]:
    """Rows whose partial sums, inside a cached binade [a, 2a), tie at its
    lower edge, tie at its upper edge and round up onto 2a, or land exactly
    on 2a; then rows on the threshold below which a term cannot change the
    sum, subnormal and zero terms, sums in the top binade that do and do not
    round to inf, and +inf terms."""
    t, emin, emax = fmt.precision_bits, fmt.emin, fmt.emax
    lowest = emin + 1 if fmt.subnormals_enabled else emin + t + 1
    rows = []
    for j in range(lowest, emax):
        a, half_ulp = math.ldexp(1.0, j), math.ldexp(1.0, j - t)
        rows += [
            [a / 2, a / 2, half_ulp],  # a, then a + ulp/2: ties down to a
            [a, a / 2, a / 2 - half_ulp],  # 1.5a, then 2a - ulp/2: ties up to 2a
            [a, a / 2, a / 4, a / 4],  # 1.5a, 1.75a, then exactly 2a
        ]
    # the bottom and top value s of a binade [2^j, 2^(j+1)) with spacing q
    # (a subnormal one too), entered by adding 0, then one term around q/4
    # and q/2; q/2 less one binary64 ulp makes s + w the tie s + q/2 in
    # binary64, which rounds up from the odd top value
    for j in sorted({emin - 1, emin, 0, emax - 1}):
        if emin - 1 <= j < emax:
            q = math.ldexp(1.0, max(j, emin) + 1 - t)
            for s in (math.ldexp(1.0, j), math.ldexp(2.0, j) - q):
                rows += [[s, 0.0, w] for w in (
                    math.nextafter(q / 4, 0.0), q / 4, math.nextafter(q / 2, 0.0), q / 2, 0.75 * q,
                )]
    top, top_half_ulp = math.ldexp(1.0, emax), math.ldexp(1.0, emax - t)
    sub, r_min = fmt.r_min_subnormal, fmt.r_min
    rows += [
        # 0.75 r_min rounds to r_min even when flushing; r_min's spacing, not
        # that of the flushed grid below it, bounds the terms that change it
        [0.375 * r_min, 0.375 * r_min, 0.24 * r_min, 0.24 * r_min],
        [0.0, sub, 0.0, sub, sub, 0.0],
        [0.0, 0.0, sub, sub, 0.0, sub],  # the sum 0 enters no binade
        [0.0, 0.0],
        [top, top / 2, top / 2 - top_half_ulp],  # r_max + ulp/2 rounds to inf
        [top, top / 2, top / 2 - 2 * top_half_ulp, top_half_ulp / 2],  # stays r_max
        [top, top / 4, top / 4],
        [fmt.r_max, fmt.r_max, 1.0],
        [1.0, math.inf, 1.0],
        [math.inf, 0.0],
    ]
    return rows


@pytest.mark.parametrize("name", ["fp16", "bfloat16", "fp32", T4 + "1", T4 + "0"] + PRESCALED)
def test_sum_left_to_right_on_binade_edges(name):
    fmt = format_params(name)
    for row in _sum_edge_rows(fmt):
        _check_sums([row], fmt)


def _term_pool(fmt) -> list[float]:
    """Nonnegative format values: zero, +inf, and in every binade its
    lower edge, the next value up and its largest value."""
    j = math.frexp(fmt.r_min_subnormal)[1] - 1
    raw = [0.0, math.inf, fmt.r_max]
    for e in range(j, fmt.emax + 1):
        a = math.ldexp(1.0, e)
        raw += [a, a * (1.0 + math.ldexp(1.0, 1 - fmt.precision_bits)),
                a * (2.0 - math.ldexp(1.0, 1 - fmt.precision_bits))]
    return sorted({round_to_format(v, fmt) for v in raw})


@pytest.mark.parametrize("name", [
    "fp16", "bfloat16", "fp32", "fp64", T4 + "1", T4 + "0",
    "custom:t=11,emin=3,emax=9,subnormals=1", *PRESCALED,
])
def test_sum_left_to_right_matches_per_term_rounding_hypothesis(name):
    fmt = format_params(name)
    pool = np.array(_term_pool(fmt))
    lowest = math.log2(fmt.r_min_subnormal)

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def check(n, rows, seed):
        # each row's terms lie within eight binades below a random scale,
        # so runs of partial sums share a binade; about a third come from the pool
        rng = np.random.default_rng(seed)
        scale = rng.uniform(lowest, fmt.emax + 1, (rows, 1))
        with np.errstate(over="ignore"):
            w = chop(np.exp2(scale - rng.uniform(0.0, 8.0, (rows, n))), fmt)
        w = np.where(rng.random((rows, n)) < 0.3, rng.choice(pool, (rows, n)), w)
        _check_sums(w.tolist(), fmt)

    check()


def test_sum_calls_round_to_format_only_when_the_binade_changes(monkeypatch):
    calls = []

    def counting(v, fmt):
        calls.append(v)
        return round_to_format(v, fmt)

    monkeypatch.setattr(precision, "round_to_format", counting)
    # row 1: 256 + 1 ties to even, so the sum stops growing at 256.  Row 2:
    # 255.5 ties up to 256 in the binade below it, whose spacing 1 skips the
    # terms 0.125; 257 ties down to 256, whose spacing 2 skips the terms 0.25
    rows = np.array([np.ones(1000), [255.0, 0.5] + [0.125] * 400 + [1.0] + [0.25] * 596 + [256.0]])
    s = ArithmeticContext(format_params("bfloat16")).sum(rows)
    assert s.tolist() == [256.0, 512.0]
    # row 1's partial sums 2, 4, ..., 256 each enter a new binade; the rest stay
    # in theirs.  Row 2 adds only 0.5, 1 and 256, and each of them misses
    assert calls == [2.0**k for k in range(1, 9)] + [255.5, 257.0, 512.0]


@pytest.mark.parametrize("name", [
    "fp16", "bfloat16", "fp32", "fp64", T4 + "1", T4 + "0", *PRESCALED,
])
def test_sum_is_add_swept_along_each_row(name):
    fmt = format_params(name)
    ctx = ArithmeticContext(fmt)
    by_length = {}
    for row in _sum_edge_rows(fmt) + [[0.0] * 5, [fmt.r_max] * 3]:
        by_length.setdefault(len(row), []).append(row)
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore"):
        # from rows of zeros and subnormals up to rows that overflow
        scale = rng.uniform(fmt.emin - fmt.precision_bits, fmt.emax + 3, (40, 1))
        by_length[30] = chop(np.exp2(scale + rng.uniform(-6.0, 0.0, (40, 30))), fmt).tolist()
    for rows in by_length.values():
        w = np.array(rows)
        want = w[:, 0]
        for j in range(1, w.shape[1]):
            want = ctx.add(want, w[:, j])
        assert same_bits(ctx.sum(w), want).all(), (name, rows)


@pytest.mark.parametrize("subnormals", "01")
def test_sum_skips_no_addition_that_changes_it_exhaustive_t4(subnormals):
    """Every pair (a, b) of nonnegative t = 4 values, then 16 third terms
    around the threshold below which a term cannot change s = fl(a + b):
    the sum is the ``add`` sweep, bit for bit."""
    fmt = format_params(T4 + subnormals)
    ctx = ArithmeticContext(fmt)
    t, emin = fmt.precision_bits, fmt.emin
    values = [0.0] + [m * math.ldexp(1.0, e + 1 - t) for e in range(emin, fmt.emax + 1)
                      for m in range(2 ** (t - 1), 2**t)]
    if fmt.subnormals_enabled:
        values += [k * fmt.r_min_subnormal for k in range(1, 2 ** (t - 1))]
    a, b = (v.ravel() for v in np.meshgrid(values, values))
    s = ctx.add(a, b)
    # the spacing q at s: the subnormal spacing at 0 and below 2^emin (+inf gets any)
    q = np.ldexp(1.0, np.maximum(np.frexp(s)[1] - 1, emin) + 1 - t)
    q[s == 0.0] = math.ldexp(1.0, emin + 1 - t)
    thirds = [q * f for f in (0.0, 1 / 8, 1 / 4, 3 / 8, 1 / 2, 3 / 4, 1.0, 2.0)]
    thirds += [np.nextafter(q / 4, 0), np.nextafter(q / 4, np.inf), np.nextafter(q / 2, 0), np.nextafter(q / 2, np.inf)]
    thirds += [s] + [np.full_like(q, v) for v in (fmt.r_min_subnormal, fmt.r_min, fmt.r_max)]
    w = np.concatenate([np.stack([a, b, third], axis=1) for third in thirds])
    want = ctx.add(ctx.add(w[:, 0], w[:, 1]), w[:, 2])
    assert same_bits(ctx.sum(w), want).all()


@pytest.mark.parametrize("w", [
    np.ones(3),  # one vector: the kernels pass a batch
    np.ones((2, 3, 1)),
    np.ones((2, 0)),
    [[1.0, -1.0]],
    [[1.0, math.nan]],
    [[math.inf, -math.inf]],
])
def test_sum_rejects_what_it_cannot_sum_left_to_right(w):
    with pytest.raises(ValueError):
        ArithmeticContext(format_params("fp16")).sum(w)


def test_single_vector_is_a_one_row_batch():
    fmt = format_params("fp16")
    ctx = ArithmeticContext(fmt)
    x = [round_to_format(v, fmt) for v in (3.3, -1.7, 12.5, 0.4)]
    for kernel in (lse_softmax_basic, lse_softmax_shifted):
        one, batch = kernel(x, ctx), kernel(np.array([x]), ctx)
        assert one.y.shape == (1,) and one.g.shape == (1, len(x))
        assert same_result(one, batch), kernel.__name__
        alt_one, alt_batch = softmax_alt(x, one.y, ctx), softmax_alt(np.array([x]), batch.y, ctx)
        assert alt_one.g.shape == (1, len(x))
        assert same_result(alt_one, alt_batch), kernel.__name__


def _oracle_rows() -> list[list[float]]:
    rng = np.random.default_rng(17)
    rows = [rng.uniform(-30.0, 30.0, 6).tolist() for _ in range(5)]
    rows += [
        [3.0, 3.0, 1.0, -2.0, 3.0, 0.5],  # tied maxima: the first is the pivot
        [-800.0, -800.5, -801.0, -900.0, -800.0, -1e4],  # exp(x - a) underflows
        [0.0, -800.0, -745.0, -746.0, -708.0, -1e300],
        [-0.0, 0.0, -0.0, 0.0, -1.0, -2.0],
        [1e308, -1e308, 0.0, 1.0, 2.0, 1e308],
    ]
    return rows


def _check_reference(got: float, got_g, want) -> None:
    assert _same(got, want.y), (got, want.y)
    assert len(got_g) == len(want.g)
    assert all(_same(a, b) for a, b in zip(got_g, want.g))


def test_batch_oracle_matches_per_row_oracle():
    rows = _oracle_rows()
    batch = lse_softmax_reference(np.array(rows))
    for i, row in enumerate(rows):
        want = ref.lse_softmax_reference(row)
        _check_reference(float(batch.y_ref[i]), batch.g_ref[i].tolist(), want)
        one = lse_softmax_reference(row)
        assert one.y_ref.shape == (1,) and one.g_ref.shape == (1, len(row))
        _check_reference(float(one.y_ref[0]), one.g_ref[0].tolist(), want)


@pytest.mark.parametrize("x", [[0.0], [-800.0], [1e308], [-0.0]])
def test_batch_oracle_single_entry(x):
    batch = lse_softmax_reference(np.array([x, x]))
    for i in range(2):
        _check_reference(float(batch.y_ref[i]), batch.g_ref[i].tolist(),
                         ref.lse_softmax_reference(x))


@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1000.0, 1000.0), min_size=n, max_size=n), min_size=1, max_size=5)))
@settings(max_examples=200, deadline=None)
def test_batch_oracle_matches_per_row_oracle_hypothesis(rows):
    batch = lse_softmax_reference(np.array(rows))
    for i, row in enumerate(rows):
        _check_reference(float(batch.y_ref[i]), batch.g_ref[i].tolist(),
                         ref.lse_softmax_reference(row))


def _documented_vector(kind: str, params: tuple, n: int, rng: np.random.Generator) -> np.ndarray:
    """One vector of ``DataSpec(kind, params, n, ...)`` drawn as documented,
    through ``Generator`` calls only."""
    if kind == "uniform":
        return rng.uniform(params[0], params[1], n)
    if kind == "near_singular":
        return -math.log(n) + rng.uniform(-params[0], params[0], n)
    if kind == "wide_spread":
        lo = -params[0] / 2.0
        v = rng.uniform(lo, lo + params[0], n)
        if n >= 2:
            v[0] = lo + rng.uniform(0.0, 0.05 * params[0])
            v[1] = lo + params[0] - rng.uniform(0.0, 0.05 * params[0])
            v = rng.permutation(v)
        return v
    return np.full(n, params[0])


@pytest.mark.parametrize("kind,params", [
    ("uniform", (-20.0, 20.0)),
    ("near_singular", (0.1,)),
    ("wide_spread", (30.0,)),
    ("constant", (1.5,)),
    ("uniform", (-0.1, 0.3)),
    ("uniform", (0.0, 1.0)),
    ("uniform", (-1e300, 1e300)),
    ("near_singular", (1e-3,)),
    ("near_singular", (2.5,)),
])
def test_generate_draws_trial_i_from_philox_jumped_i(kind, params):
    for n in (1, 3, 4, 5, 7, 10, 100):
        for seed in (0, 11, 2**63 + 5):
            spec = DataSpec(kind, params, n=n, count=6, seed=seed)
            want = [
                _documented_vector(kind, params, n, np.random.Generator(np.random.Philox(seed).jumped(i)))
                for i in range(spec.count)
            ]
            assert np.array(generate(spec)).tobytes() == np.array(want).tobytes(), (n, seed)


def _fsum_deviations(g: np.ndarray, u: float) -> np.ndarray:
    return np.array([abs(math.fsum(row) - 1.0) / u if all(map(math.isfinite, row)) else math.inf
                     for row in g.tolist()])


FP16_EXACT_N = 8192  # the largest n with one band for fp16: emax - emin = 29 < L = 43 - ceil(log2 n)


def _count_fsum_calls(monkeypatch) -> list[int]:
    """The number of terms of each ``math.fsum`` call from now on."""
    calls = []
    fsum = math.fsum

    def counted(row):
        calls.append(len(row))
        return fsum(row)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


def test_sum_deviations_certified_fp16_rows_are_exact(monkeypatch):
    fmt = precision.format_params("fp16")
    rng = np.random.default_rng(24)
    r_max, tiny = fmt.r_max, fmt.r_min_subnormal
    assert _band_width(fmt, FP16_EXACT_N) > fmt.emax - fmt.emin >= _band_width(fmt, FP16_EXACT_N + 1)
    rows = {}
    for n in (1, 2, 7, 10, 100, FP16_EXACT_N):
        # random finite fp16 values, subnormals included
        rows[f"random-{n}"] = chop(rng.uniform(0.5, 2.0, (6, n)) * 2.0 ** rng.integers(-26, 15, (6, n)), fmt)
    adversarial = np.full(FP16_EXACT_N, tiny)
    adversarial[::2] = r_max  # r_max entries next to the smallest subnormals
    rows["adversarial"] = np.array([adversarial, adversarial[::-1], np.full(FP16_EXACT_N, r_max)])
    rows["non-finite"] = np.array([[0.5, np.inf, 0.5], [0.5, np.nan, tiny], [np.inf, np.nan, 1.0], [0.25, 0.75, 0.0]])
    want = {label: _fsum_deviations(g, fmt.unit_roundoff) for label, g in rows.items()}
    wide = np.full((1, FP16_EXACT_N + 1), tiny)
    wide[0, ::2] = r_max  # 2^-24 lies in band 0 and r_max in band 1 of L = 29 binades
    want_wide = _fsum_deviations(wide, fmt.unit_roundoff)
    calls = _count_fsum_calls(monkeypatch)
    for label, g in rows.items():
        assert _sum_deviations(g, fmt).tobytes() == want[label].tobytes(), label
    assert calls == []  # every row took the plain binary64 sum
    assert _sum_deviations(rows["non-finite"], fmt).tolist()[:3] == [math.inf] * 3
    _sum_deviations(np.full((1, FP16_EXACT_N + 1), tiny), fmt)
    assert calls == [1]  # past n = 8192 a row takes bands: one fsum, over its one band that is not empty
    assert _sum_deviations(wide, fmt).tobytes() == want_wide.tobytes()
    assert calls == [1, 2]  # one fsum, over the row's two band totals


@pytest.mark.parametrize("fmt_name,row", [
    ("bfloat16", [1.0, 2.0**-53, 2.0**-53]),
    ("fp32", [1.0, 2.0**-53, 2.0**-53]),
    # r_max * n <= 2^53 * r_min_subnormal (= r_min, 2^-30) holds here for
    # n <= 4, but the row's values are multiples of 2^-49 only: with that
    # bottom spacing the plain sum rounds, and only fsum is exact
    ("custom:t=20,emin=-30,emax=20,subnormals=0", [2.0**20, *[2.0**-30 + 2.0**-33] * 3]),
])
def test_sum_deviations_uncertified_formats_take_fsum(monkeypatch, fmt_name, row):
    fmt = precision.format_params(fmt_name)
    assert chop(np.array(row), fmt).tolist() == row
    left_to_right = 0.0
    for v in row:
        left_to_right += v
    assert left_to_right != math.fsum(row)
    g = np.array([row, row[::-1], [math.inf, *row[1:]]])
    want = _fsum_deviations(g, fmt.unit_roundoff)
    w = _band_width(fmt, len(row))
    filled = {_band_of(fmt, w, v) for v in (*row, math.inf)}
    calls = _count_fsum_calls(monkeypatch)
    assert _sum_deviations(g, fmt).tobytes() == want.tobytes()
    # a small batch takes bands too: one fsum per row over the bands some row
    # fills, those of 1 (or 2^20), of 2^-53 (or 2^-30) and the last, which
    # holds inf (in the custom format, 2^20 too); the non-finite row's total
    # is inf, and so its sum
    assert calls == [len(filled)] * len(g)
    assert len(filled) == (2 if fmt.emax == 20 else 3)


def test_sum_deviations_fp64_rows_take_fsum(monkeypatch):
    # binary64 has L = 54 - 53 - ceil(log2 n) < 1 for every n > 1: no band is
    # exact, and each finite row takes math.fsum.  t = 26 reaches L < 1 only
    # for n > 2^27, which stays untested
    fmt = precision.format_params("fp64")
    row = [1.0, 2.0**-53, 2.0**-53]
    left_to_right = 0.0
    for v in row:
        left_to_right += v
    assert left_to_right == 1.0 != math.fsum(row)  # the plain sum rounds
    g = np.array([row, row[::-1], [1.0, math.inf, 2.0**-53], [0.5, 0.25, 0.25]])
    assert _band_width(fmt, g.shape[1]) < 1
    want = _fsum_deviations(g, fmt.unit_roundoff)
    assert want.tolist() == [2.0, 2.0, math.inf, 0.0]
    calls = _count_fsum_calls(monkeypatch)
    assert _sum_deviations(g, fmt).tobytes() == want.tobytes()
    assert calls == [3, 3, 3]  # one fsum per finite row


BAND_FORMATS = ["bfloat16", "fp32", T4 + "1", T4 + "0", "custom:t=26,emin=-1000,emax=1023,subnormals=0",
                "custom:t=20,emin=-30,emax=20,subnormals=0"]  # its band 0 rows sum to about 32
BAND_NS = (1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025)  # both sides of powers of two


def _band_width(fmt, n: int) -> int:
    """L = 54 - t - ceil(log2 n), the widest band whose sums are exact."""
    return 54 - fmt.precision_bits - (n - 1).bit_length()


def _band_of(fmt, w: int, v: float) -> int:
    """The band of v among bands of w binades counted from emin + 1: 0 for
    zeros, the last one for inf and NaN (see ``_sum_deviations``)."""
    e = math.frexp(v)[1] if 0 < abs(v) < math.inf else (-1022 if v == 0 else 1025)  # v in [2^(e-1), 2^e)
    return min(max((e - fmt.emin - 1) // w, 0), (fmt.emax - fmt.emin) // w)


def _binade_max(fmt, e: int) -> float:
    """The largest ``fmt`` value of the binade [2^(e-1), 2^e)."""
    return math.ldexp(1.0 - math.ldexp(1.0, -fmt.precision_bits), e)


def _band_bottom(fmt, j: int, w: int) -> float:
    """The smallest value of band j's lowest binade with its last bit set:
    the smallest subnormal for band 0, or r_min plus its spacing when
    subnormals flush."""
    if j == 0 and fmt.subnormals_enabled:
        return fmt.r_min_subnormal
    e = fmt.emin + 1 + j * w
    return math.ldexp(1.0, e - 1) + math.ldexp(1.0, e - fmt.precision_bits)


def _band_top(fmt, j: int, w: int) -> float:
    """The largest value of band j's top binade."""
    return _binade_max(fmt, min(fmt.emin + (j + 1) * w, fmt.emax + 1))


def _band_edge_rows(fmt, n: int, w: int) -> list[list[float]]:
    """Rows of n values on the edges of bands of w binades: bands 0 and 1,
    the band of 1 and the highest band below 2^128 (so that sums and
    |sum - 1| / u stay finite).  For each band j:

    * its bottom value next to n - 1 copies of the largest value of its top
      binade, the widest row that one band of L binades sums exactly;
    * the bottom value at both ends of n - 2 copies of the largest value of
      the binade just above the band.  For band 0, a band one binade wider,
      or one starting a binade higher, holds them all; for n a power of two
      and w = L, adding them in order crosses 2^53 times the bottom value's
      spacing and then drops a last bit twice.
    """
    cap = min(fmt.emax + 1, 128)
    last = _band_of(fmt, w, math.ldexp(1.0, cap - 1))
    if min(fmt.emin + (last + 1) * w, fmt.emax + 1) > cap:  # its top binade lies past 2^cap
        last -= 1
    rows = []
    for j in sorted({0, 1, _band_of(fmt, w, 1.0), last} & set(range(last + 1))):
        bottom, above = _band_bottom(fmt, j, w), fmt.emin + (j + 1) * w + 1
        rows.append([bottom] + [_band_top(fmt, j, w)] * (n - 1))
        if above <= cap:
            rows.append([bottom, *[_binade_max(fmt, above)] * (n - 2), bottom][:n])
    return rows


def _band_batches(fmt, n: int, rng) -> list[np.ndarray]:
    """Batches of ``fmt`` values whose exact row sums bands must get right:
    rows on the edges of the bands of L binades, zeros, random values from
    every binade and non-finite rows."""
    t, emin = fmt.precision_bits, fmt.emin
    emax = min(fmt.emax, 127)  # so that n entries and |sum - 1| / u stay finite
    edge = _band_edge_rows(fmt, n, _band_width(fmt, n))
    small = [math.ldexp(1.0, emin)] * n
    small[::2] = [0.0] * len(small[::2])  # zeros among small entries
    random = chop(rng.uniform(0.5, 2.0, (4, n)) * np.exp2(rng.integers(emin - t - 2, emax + 1, (4, n))), fmt)
    non_finite = [[math.inf] * n, [math.nan] * n, [1.0, math.inf, math.nan, *[1.0] * n][:n]]
    return [
        np.array([row]) for row in edge[:2]
    ] + [
        np.array(edge + [small, [0.0] * n]),
        np.array([[0.0] * n]),
        random,
        np.array([*non_finite, edge[0], small]),
    ]


@pytest.mark.parametrize("name", BAND_FORMATS)
def test_sum_deviations_band_sums_equal_fsum(name):
    fmt = format_params(name)
    rng = np.random.default_rng(26)
    rounds = 0
    for n in BAND_NS:
        for g in _band_batches(fmt, n, rng):
            want = _fsum_deviations(g, fmt.unit_roundoff)
            assert _sum_deviations(g, fmt).tobytes() == want.tobytes(), (n, g.tolist())
            # every narrower band is exact too: t = 4 takes bands only this way
            sums = np.array([math.fsum(row) for row in g.tolist()])
            for w in range(1, _band_width(fmt, n) + 1):
                assert same_bits(_exact_sums(g, fmt, w), sums).all(), (n, w, g.tolist())
            rounds += int(((np.add.reduce(g, axis=1) != sums) & np.isfinite(sums)).sum())
        # and so are the edges of each narrower band
        for w in range(1, _band_width(fmt, n) + 1):
            g = np.array(_band_edge_rows(fmt, n, w))
            sums = np.array([math.fsum(row) for row in g.tolist()])
            assert same_bits(_exact_sums(g, fmt, w), sums).all(), (n, w)
    if fmt.precision_bits > 4:
        assert rounds > 0  # the plain sum rounds on some of these rows


@pytest.mark.parametrize("n", [FP16_EXACT_N, FP16_EXACT_N + 1, 2**15])
def test_sum_deviations_fp16_band_edges(n):
    # one band up to n = 8192, two from 8193 on; at n = 2^15 the row one
    # binade past band 0 sums to about 2^30, and only bands get it exactly
    fmt = format_params("fp16")
    g = np.array(_band_edge_rows(fmt, n, _band_width(fmt, n)))
    assert len(g) == (1 if n == FP16_EXACT_N else 3)
    assert _sum_deviations(g, fmt).tobytes() == _fsum_deviations(g, fmt.unit_roundoff).tobytes()


@pytest.mark.parametrize("name", ["bfloat16", "fp32"])
def test_sum_deviations_band_count(monkeypatch, name):
    fmt = format_params(name)
    n = 9  # a small batch takes bands too
    w = _band_width(fmt, n)
    j = _band_of(fmt, w, 1.0) - 1  # the band below 1's, and the two above it
    three = np.array([[_band_bottom(fmt, j, w), _band_top(fmt, j, w), _band_bottom(fmt, j + 1, w),
                       _band_top(fmt, j + 1, w), _band_bottom(fmt, j + 2, w)] + [_band_top(fmt, j, w)] * (n - 5)])
    one = np.array([[_band_bottom(fmt, j, w)] * (n - 1) + [_band_top(fmt, j, w)]])  # both ends of one band
    want_three, want_one = (_fsum_deviations(g, fmt.unit_roundoff) for g in (three, one))
    calls = _count_fsum_calls(monkeypatch)
    assert _sum_deviations(three, fmt).tobytes() == want_three.tobytes()
    assert calls == [3]  # one fsum, over three band totals
    assert _sum_deviations(one, fmt).tobytes() == want_one.tobytes()
    assert calls == [3, 1]  # one band is filled: one fsum, over its total


def test_jacobian_matches_diag_minus_outer_bitwise():
    rng = np.random.default_rng(5)
    rows = [rng.uniform(-20.0, 20.0, n).tolist() for n in (1, 2, 7, 40)]
    rows += [[0.0, -800.0, -745.0, -700.0, -1e3], [0.0, -400.0, -380.0]]  # g_i or g_i g_j underflow
    for x in rows:
        g = np.array(ref.lse_softmax_reference(x).g)
        want = np.diag(g) - np.outer(g, g)
        assert softmax_jacobian(x).tobytes() == want.tobytes(), x

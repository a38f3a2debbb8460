"""Differential tests: the array paths against their scalar references, bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from lselab.kernels import lse_softmax_basic, lse_softmax_shifted, softmax_alt
from lselab.precision import ArithmeticContext, chop, format_params, round_to_format

FORMATS = ["fp16", "bfloat16", "fp32", "custom:t=5,emin=-6,emax=7,subnormals=0"]


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _same(a: float, b: float) -> bool:
    return _bits(a) == _bits(b) or (a != a and b != b)


def _edge_values(fmt) -> list[float]:
    """Ties in every binade, both sides of the subnormal and overflow
    boundaries, signed zeros, infinities and NaN."""
    t = fmt.precision_bits
    vals = [0.0, math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    for e in range(fmt.emin, fmt.emax + 1):
        half_ulp = math.ldexp(1.0, e - t)
        for m in (1.0, 1.0 + math.ldexp(1.0, 1 - t)):  # tie rounds down, then up
            tie = math.ldexp(m, e) + half_ulp
            vals += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    tie_over = fmt.r_max + math.ldexp(1.0, fmt.emax - t)
    vals += [fmt.r_max, math.nextafter(fmt.r_max, math.inf), tie_over,
             math.nextafter(tie_over, 0.0), math.nextafter(tie_over, math.inf)]
    r_min, tiny = fmt.r_min, math.ldexp(1.0, fmt.emin - t + 1)
    vals += [r_min, math.nextafter(r_min, 0.0), r_min / 2,
             math.nextafter(r_min / 2, 0.0), math.nextafter(r_min / 2, 1.0)]
    vals += [(k + 0.5) * tiny for k in range(4)] + [tiny, tiny / 2, math.nextafter(tiny / 2, 1.0)]
    return vals + [-v for v in vals]


@pytest.mark.parametrize("name", FORMATS)
def test_chop_matches_round_to_format_on_edges(name):
    fmt = format_params(name)
    vals = _edge_values(fmt)
    got = chop(np.array(vals), fmt).tolist()
    for v, c in zip(vals, got):
        r = round_to_format(v, fmt)
        assert _same(c, r), (name, v, c, r)
        assert _same(chop(v, fmt), r)  # a scalar rounds like a 1-entry array


@pytest.mark.parametrize("name", FORMATS)
def test_chop_matches_round_to_format_hypothesis(name):
    fmt = format_params(name)

    @given(st.lists(st.floats(), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def check(vals):
        got = chop(np.array(vals, dtype=np.float64), fmt).tolist()
        for v, c in zip(vals, got):
            assert _same(c, round_to_format(v, fmt)), (v, c)

    check()


def _rows(fmt_name: str, rng: np.random.Generator, n: int) -> list[list[float]]:
    """Ordinary rows, rows that overflow the basic form, and rows whose
    exponentials all underflow to zero."""
    big, tiny = {"fp16": (12.0, (-30.0, -18.0)), "bfloat16": (90.0, (-100.0, -89.0))}[fmt_name]
    rows = [rng.uniform(-20.0, 20.0, n) for _ in range(6)]
    for _ in range(3):
        row = rng.uniform(-5.0, big + 3.0, n)
        row[rng.integers(n)] = big + 1.0
        rows.append(row)
    rows += [rng.uniform(*tiny, n) for _ in range(3)]
    rows.append(np.full(n, rng.uniform(-20.0, 20.0)))  # ties for the pivot
    return [r.tolist() for r in rows]


def _check_row(batch, i, want):
    got = batch.row(i)
    assert _same(got.y, want.y), (batch.algorithm_id, i, got.y, want.y)
    assert len(got.g) == len(want.g)
    assert all(_same(a, b) for a, b in zip(got.g, want.g)), (batch.algorithm_id, i)
    assert got.flags == want.flags, (batch.algorithm_id, i)
    assert got.algorithm_id == want.algorithm_id


@pytest.mark.parametrize("fmt_name", ["fp16", "bfloat16"])
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_batch_kernels_match_scalar_kernels(fmt_name, n):
    fmt = format_params(fmt_name)
    rng = np.random.default_rng([n, len(fmt_name)])
    xs = chop(np.array(_rows(fmt_name, rng, n)), fmt)
    ctx, sctx = ArithmeticContext(fmt), ref.ScalarContext(fmt)
    basic = lse_softmax_basic(xs, ctx)
    shifted = lse_softmax_shifted(xs, ctx)
    alt_b = softmax_alt(xs, basic.y, ctx)
    alt_s = softmax_alt(xs, shifted.y, ctx, from_shifted=True)
    flagged = set()
    for i, x in enumerate(xs.tolist()):
        want_basic = ref.lse_softmax_basic(x, sctx)
        want_shifted = ref.lse_softmax_shifted(x, sctx)
        _check_row(basic, i, want_basic)
        _check_row(shifted, i, want_shifted)
        _check_row(alt_b, i, ref.softmax_alt(x, want_basic.y, sctx))
        _check_row(alt_s, i, ref.softmax_alt(x, want_shifted.y, sctx, from_shifted=True))
        flagged |= want_basic.flags
    # the batches reach both pathologies the rows were built for
    assert "overflowed" in flagged
    assert "sum_underflowed_to_zero" in flagged


def test_single_vector_is_a_one_row_batch():
    fmt = format_params("fp16")
    ctx = ArithmeticContext(fmt)
    x = [round_to_format(v, fmt) for v in (3.3, -1.7, 12.5, 0.4)]
    for kernel in (lse_softmax_basic, lse_softmax_shifted):
        one, batch = kernel(x, ctx), kernel(np.array([x]), ctx)
        assert isinstance(one.y, float) and isinstance(one.g, list)
        _check_row(batch, 0, one)

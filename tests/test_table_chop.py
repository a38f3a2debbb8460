"""``chop``'s table path against its general path, and the choice between them.

Where ``FloatFormat.rounds_by_table`` holds, ``chop`` rounds every double
with one binary64 addition, copysign((x + C) - C, x), and an overflow test
(``_round_by_table``); elsewhere it scales, rounds to an integer and scales
back (``_round_by_scaling``), the definition.  The two must agree bit for
bit on every double, so these tests feed both every grid point and rounding
tie of small formats, and the ties' binary64 neighbours, where a wrong C or
a missed overflow would show.
"""

import math

import numpy as np
import pytest

from conftest import same_bits
from lselab import precision
from lselab.precision import ArithmeticContext, chop, format_params, round_to_format

T4 = "custom:t=4,emin=-6,emax=6,subnormals="
T26 = "custom:t=26,emin=-1022,emax=996,subnormals=0"  # emax = 970 + t: the last covered


def _grid_and_ties(fmt, count: int | None = None, seed: int = 0) -> np.ndarray:
    """Nonnegative grid points m 2^(e-t+1) of ``fmt`` and the ties between
    them, from 0 up to r_max + ulp/2, each tie with its two binary64
    neighbours; all of them, or ``count`` (e, m) pairs drawn at random.

    Below 2^emin the grid has the spacing r_min_subnormal: the subnormals,
    or {0, r_min} with the flush tie r_min/2.
    """
    t, emin, emax = fmt.precision_bits, fmt.emin, fmt.emax
    m_lo = 2 ** (t - 1)
    e = np.arange(emin, emax + 1)
    below = int(fmt.r_min / fmt.r_min_subnormal)  # grid points in [0, r_min)
    if count is None:
        e, m = np.repeat(e, m_lo), np.tile(np.arange(m_lo, 2 * m_lo), len(e))
        k = np.arange(below)
    else:
        rng = np.random.default_rng(seed)
        e, m = rng.choice(e, count), rng.integers(m_lo, 2 * m_lo, count)
        k = np.unique(np.concatenate([[0, below - 1], rng.integers(0, below, count)]))
    ulp = np.ldexp(1.0, e - t + 1)
    points = np.concatenate([m * ulp, k * fmt.r_min_subnormal])
    # the tie above each point; above the top one it is r_max + ulp/2
    ties = np.concatenate([(m + 0.5) * ulp, (k + 0.5) * fmt.r_min_subnormal])
    return np.concatenate([
        points, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)
    ])


def _specials(fmt) -> np.ndarray:
    """Zeros, infinities, NaN, 2^-1074, the overflow and flush ties, and
    values at and above 2^(emax+1)."""
    t, emax = fmt.precision_bits, fmt.emax
    tie_over = fmt.r_max + math.ldexp(1.0, emax - t)
    top = 2.0 * math.ldexp(1.0, emax)  # +inf for binary64
    return np.array([
        0.0, math.inf, math.nan, 5e-324, 2.0**-1023, 2.0**-1022,
        tie_over, math.nextafter(tie_over, 0.0), fmt.r_min / 2,
        top, math.nextafter(top, math.inf), 1.5 * top, 1.7976931348623157e308,
        *(math.ldexp(1.0, j) for j in range(emax + 2, 1024)),
    ])


def _both_signs(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def _assert_paths_agree(fmt, x: np.ndarray) -> None:
    assert fmt.rounds_by_table
    with np.errstate(over="ignore", invalid="ignore"):
        table = precision._round_by_table(x, fmt)
        general = precision._round_by_scaling(x, fmt)
    same = same_bits(table, general)
    assert same.all(), list(zip(x[~same][:5], table[~same][:5], general[~same][:5]))


@pytest.mark.parametrize("name", ["fp16", "bfloat16", T4 + "1", T4 + "0"])
def test_table_path_on_every_grid_point_and_tie(name):
    fmt = format_params(name)
    _assert_paths_agree(fmt, _both_signs(np.concatenate([_grid_and_ties(fmt), _specials(fmt)])))


@pytest.mark.parametrize("name", ["fp32", T26])
def test_table_path_on_sampled_grid_points_and_ties(name):
    fmt = format_params(name)
    x = _grid_and_ties(fmt, count=50_000, seed=3)
    _assert_paths_agree(fmt, _both_signs(np.concatenate([x, _specials(fmt)])))


@pytest.mark.parametrize("name", ["fp16", "bfloat16", "fp32", T4 + "1", T4 + "0", T26])
def test_table_path_on_random_doubles(name):
    # every binade of binary64, subnormals, infinities and NaN included
    bits = np.random.default_rng(5).integers(0, 2**64, 200_000, dtype=np.uint64)
    _assert_paths_agree(format_params(name), bits.view(np.float64))


COVERED = ["fp16", "bfloat16", "fp32", "fp64", T4 + "1", T4 + "0", T26,
           "custom:t=11,emin=-1012,emax=15,subnormals=1",  # subnormal spacing 2^-1022
           "custom:t=11,emin=-1013,emax=15,subnormals=0"]  # flushing below 2^-1013
GENERAL = [
    "custom:t=11,emin=-1013,emax=1000,subnormals=0",  # emax > 970 + t, flushing
    "custom:t=26,emin=-1000,emax=1023,subnormals=0",
    "custom:t=26,emin=-997,emax=1023,subnormals=1",  # spacing 2^-1022 near zero
    "custom:t=26,emin=-1022,emax=997,subnormals=0",  # emax = 971 + t
    "custom:t=8,emin=-100,emax=979,subnormals=1",  # emax = 971 + t
]


@pytest.mark.parametrize("name", COVERED + GENERAL)
def test_rounds_by_table_follows_the_tables(name):
    fmt = format_params(name)
    c, threshold = fmt.binade_table
    # one entry per biased exponent; a negative double's index b - 2048 wraps to b
    assert c.shape == threshold.shape == (2048,)
    top = fmt.emax + 1023  # biased exponent of the top binade [2^emax, 2^(emax+1))
    if name == "fp64":  # the identity, and the C library for every finite value
        assert (c == 0.0).all() and (threshold == -math.inf).all()
    else:
        # above the top binade everything overflows, and +-inf and NaN pass
        assert (c[top + 1:] == 0.0).all() and (threshold[top + 1:] == math.inf).all()
        # up to it, a binade without C is never certified
        no_c = c[:top + 1] == 0.0
        assert (threshold[:top + 1][no_c] == -math.inf).all()
        assert (threshold[:top + 1][~no_c] > 0.0).all()
    # the table rounds every double when every binade up to the top one has
    # a C, or C = 0.0 is the identity (binary64)
    covered = name == "fp64" or (c[:top + 1] > 0.0).all()
    assert fmt.rounds_by_table == covered == (name in COVERED)


def test_covered_formats_never_take_the_general_path(monkeypatch):
    def no_scaling(x, fmt):
        raise AssertionError(f"_round_by_scaling({x!r}, {fmt.name})")

    monkeypatch.setattr(precision, "_round_by_scaling", no_scaling)
    for name in COVERED:
        fmt = format_params(name)
        x = _both_signs(np.concatenate([_grid_and_ties(fmt, count=100), _specials(fmt)]))
        chop(x, fmt)
        chop(x[0], fmt)
        ctx = ArithmeticContext(fmt)
        for op in (ctx.add, ctx.sub, ctx.mul, ctx.div):
            op(x, x[::-1])
            op(3.0, 2.0)
        for op in (ctx.exp, ctx.log, ctx.log1p):  # uncertified entries: chop of the C library's
            op(x)


@pytest.mark.parametrize("name", GENERAL)
def test_other_formats_always_take_the_general_path(monkeypatch, name):
    fmt = format_params(name)
    calls = []

    def counting(x, fmt):
        calls.append(x)
        return general(x, fmt)

    general = precision._round_by_scaling
    monkeypatch.setattr(precision, "_round_by_scaling", counting)
    chop(np.array([1.0, 0.0]), fmt)
    chop(1.0, fmt)
    ArithmeticContext(fmt).add(1.0, 2.0)
    assert len(calls) == 3


def _math_or_ieee(fast, ieee, v: float) -> float:
    try:
        return fast(v)
    except (OverflowError, ValueError):  # exp overflow, log of zero or of a negative
        with np.errstate(all="ignore"):
            return float(ieee(v))


def test_fp64_is_native_binary64():
    # binary64 rounds every double to itself, by the table, and computes exp,
    # log and log1p as the C library does (+-inf or NaN where math raises)
    fmt = format_params("fp64")
    bits = np.random.default_rng(7).integers(0, 2**64, 20_000, dtype=np.uint64)
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.0**-1023, math.nextafter(2.0**-1022, 0.0), 2.0**-1022,
         1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0, 1.0],
        np.linspace(700.0, 720.0, 2001),  # exp overflows above about 709.78
        np.linspace(-760.0, -700.0, 2001),  # exp's binary64 subnormals and zeros
        bits.view(np.float64),
    ])
    x = np.concatenate([x, -x])
    assert fmt.rounds_by_table
    assert same_bits(chop(x, fmt), x).all()
    assert all(same_bits(np.array([round_to_format(v, fmt)]), np.array([v]))[0] for v in x.tolist())
    ctx = ArithmeticContext(fmt)
    for fast, ieee in ((math.exp, np.exp), (math.log, np.log), (math.log1p, np.log1p)):
        want = np.array([_math_or_ieee(fast, ieee, v) for v in x.tolist()])
        got = getattr(ctx, fast.__name__)(x)
        assert same_bits(got, want).all(), fast.__name__
        assert same_bits(np.array([getattr(ctx, fast.__name__)(x[1])]), want[1:2]).all()

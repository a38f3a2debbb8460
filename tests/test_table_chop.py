"""``chop`` and ``round_to_format`` against the definition of rounding.

Both round every double of every format by one table path,
((x * P + C) - C) / P with the P and C of x's binade, copysign and an
overflow test (``FloatFormat.binade_table``).  The definition they must
match bit for bit is ``_round_by_scaling`` below, Higham & Pranesh's
``chop``: scale x so that the format's spacing at x is 1, round to an
integer and scale back.  These tests feed both every grid point and rounding
tie of small formats (or a sample of them), the ties' binary64 neighbours
and random doubles from every binade, where a wrong C or P or a missed
overflow would show, and check the table's columns themselves.
"""

import math

import numpy as np
import pytest

from conftest import same_bits
from lselab.precision import ArithmeticContext, chop, format_params, round_to_format

T4 = "custom:t=4,emin=-6,emax=6,subnormals="
T26 = "custom:t=26,emin=-1022,emax=996,subnormals=0"  # emax = 970 + t: P = 1 throughout
T2 = "custom:t=2,emin=1000,emax=1023,subnormals="  # P < 1 in every binade up to the top one
# emax > 970 + t, or a flushing emin > 971: P < 1 in the binades of spacing above 2^971
PRESCALED = [
    "custom:t=11,emin=-1013,emax=1000,subnormals=0",
    "custom:t=26,emin=-1000,emax=1023,subnormals=0",
    "custom:t=26,emin=-997,emax=1023,subnormals=1",  # spacing 2^-1022 near zero
    "custom:t=26,emin=-1022,emax=997,subnormals=0",  # emax = 971 + t
    "custom:t=8,emin=-100,emax=979,subnormals=1",  # emax = 971 + t
    "custom:t=26,emin=980,emax=996,subnormals=0",  # emax = 970 + t, flushing below 2^980
]
# emax < 0: the overflow scaling 2^(1023 - emax) is no double and takes two steps
NEG_EMAX = [
    "custom:t=4,emin=-20,emax=-2,subnormals=1",
    "custom:t=11,emin=-60,emax=-1,subnormals=0",
    "custom:t=26,emin=-997,emax=-900,subnormals=1",  # spacing 2^-1022 near zero
]


def _round_by_scaling(x: np.ndarray, fmt) -> np.ndarray:
    """x scaled so that the format's spacing at x becomes 1, rounded to an
    integer and scaled back (Higham & Pranesh's ``chop``); any format."""
    _, e = np.frexp(x)
    # Below r_min the grid spacing is that of the binade at emin.
    shift = (fmt.precision_bits - 1) - np.maximum(e - 1, fmt.emin)
    r = np.ldexp(np.rint(np.ldexp(x, shift)), -shift)
    r = np.where(np.abs(r) > fmt.r_max, np.copysign(np.inf, x), r)
    if not fmt.subnormals_enabled:
        a = np.abs(x)
        # Nearest of {0, +-r_min}; the tie at r_min/2 goes to 0 (even).
        flushed = np.copysign(np.where(a <= 0.5 * fmt.r_min, 0.0, fmt.r_min), x)
        r = np.where(a < fmt.r_min, flushed, r)
    return r


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


def _assert_matches_definition(fmt, x: np.ndarray) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        want = _round_by_scaling(x, fmt)
    got = chop(x, fmt)
    same = same_bits(got, want)
    assert same.all(), list(zip(x[~same][:5], got[~same][:5], want[~same][:5]))
    scalar = np.array([round_to_format(v, fmt) for v in x.tolist()])
    same = same_bits(scalar, want)
    assert same.all(), list(zip(x[~same][:5], scalar[~same][:5], want[~same][:5]))


@pytest.mark.parametrize("name", ["fp16", "bfloat16", T4 + "1", T4 + "0", T2 + "1", T2 + "0", *NEG_EMAX[:2]])
def test_table_path_on_every_grid_point_and_tie(name):
    fmt = format_params(name)
    x = np.concatenate([_grid_and_ties(fmt), _specials(fmt)])
    _assert_matches_definition(fmt, _both_signs(x))


@pytest.mark.parametrize("name", ["fp32", T26] + PRESCALED + NEG_EMAX[2:])
def test_table_path_on_sampled_grid_points_and_ties(name):
    fmt = format_params(name)
    x = _grid_and_ties(fmt, count=50_000, seed=3)
    _assert_matches_definition(fmt, _both_signs(np.concatenate([x, _specials(fmt)])))


@pytest.mark.parametrize("name", [
    "fp16", "bfloat16", "fp32", T4 + "1", T4 + "0", T26, T2 + "1", T2 + "0", *PRESCALED, *NEG_EMAX,
])
def test_table_path_on_random_doubles(name):
    # every binade of binary64, subnormals, infinities and NaN included
    bits = np.random.default_rng(5).integers(0, 2**64, 200_000, dtype=np.uint64)
    _assert_matches_definition(format_params(name), bits.view(np.float64))


@pytest.mark.parametrize("name", [
    "fp16", "bfloat16", "fp32", "fp64", T4 + "1", T4 + "0", T26, T2 + "1", T2 + "0",
    "custom:t=11,emin=-1012,emax=15,subnormals=1",  # subnormal spacing 2^-1022
    "custom:t=11,emin=-1013,emax=15,subnormals=0",  # flushing below 2^-1013
] + PRESCALED)
def test_binade_table_columns(name):
    fmt = format_params(name)
    c, threshold, p = fmt.binade_table
    # one entry per biased exponent; a negative double's index b - 2048 wraps to b
    assert c.shape == threshold.shape == p.shape == (2048,)
    top = fmt.emax + 1023  # biased exponent of the top binade [2^emax, 2^(emax+1))
    assert fmt.prescaled == (p != 1.0).any()  # whether the rounding reads P
    if name == "fp64":  # the identity, and the C library for every finite value
        assert (c == 0.0).all() and (threshold == -math.inf).all() and (p == 1.0).all()
        return
    t, emin = fmt.precision_bits, fmt.emin
    e = np.arange(-1022, top - 1021)  # binades [2^(e-1), 2^e) up to the top one
    s = np.where(e > emin, e - t, emin - t + 1 if fmt.subnormals_enabled else emin)
    # P = 1 in every binade exactly when every binade's spacing 2^s is at most 2^971
    all_ones = (p == 1.0).all()
    assert all_ones == (fmt.emax <= 970 + t and (fmt.subnormals_enabled or emin <= 971))
    assert all_ones == (s.max() <= 971)
    # P = 1 exactly where 1.5 * 2^(s + 52) is finite; C is that constant times P
    assert ((p[:top + 1] == 1.0) == (s <= 971)).all()
    assert (p[:top + 1] == np.ldexp(1.0, np.minimum(971 - s, 0))).all()
    assert (c[:top + 1] == np.ldexp(1.5, np.minimum(s, 971) + 52)).all()
    # so C is finite and every binade up to the top one can be certified
    assert np.isfinite(c[:top + 1]).all() and (threshold[:top + 1] > 0.0).all()
    # above the top binade everything overflows, and +-inf and NaN pass
    assert (c[top + 1:] == 0.0).all() and (threshold[top + 1:] == math.inf).all()
    assert (p[top + 1:] == 1.0).all()


def _overflow_mixture(fmt) -> np.ndarray:
    """NaN next to the overflow tie r_max + ulp/2 and its neighbours, +-inf,
    negative values that round to -0.0, ordinary values, and the logarithms
    of the tie's neighbours, whose exp lands on either side of the tie; in
    that order, both signs."""
    t, emax = fmt.precision_bits, fmt.emax
    tie = fmt.r_max + math.ldexp(1.0, emax - t)  # +inf for binary64
    near = [math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)]
    logs = [math.log(v) for v in (fmt.r_max, math.nextafter(tie, 0.0)) if math.isfinite(v)]
    logs = [v + k * math.ulp(v) for v in logs for k in range(-3, 4)]
    x = np.array([
        math.nan, *near, math.nan, fmt.r_max, math.inf, math.nan,
        -fmt.r_min_subnormal / 2, -fmt.r_min_subnormal / 4, -fmt.r_min / 2,
        1.0, 0.1, 3.75, 1e-3, *logs,
    ])
    return _both_signs(x)


@pytest.mark.parametrize("name", ["fp16", "bfloat16", "fp32", "fp64", *PRESCALED, *NEG_EMAX])
def test_overflow_pass_sees_past_nan(name):
    # chop has no overflow test to skip: a NaN in the same call must not
    # hide an overflowing entry, as it would from a max()-based skip
    fmt = format_params(name)
    x = _overflow_mixture(fmt)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _round_by_scaling(x, fmt)
    got = chop(x, fmt)
    same = same_bits(got, want)
    assert same.all(), list(zip(x[~same], got[~same], want[~same]))
    assert (np.signbit(got) & (got == 0.0)).any()  # some negative value rounded to -0.0
    ctx = ArithmeticContext(fmt)
    for fast, ieee in ((math.exp, np.exp), (math.log, np.log), (math.log1p, np.log1p)):
        want = np.array([round_to_format(_math_or_ieee(fast, ieee, v), fmt) for v in x.tolist()])
        got = getattr(ctx, fast.__name__)(x)
        same = same_bits(got, want)
        assert same.all(), (fast.__name__, list(zip(x[~same], got[~same], want[~same])))
    if name != "fp64":  # whose exp never lands on r_max
        assert (ctx.exp(x) == math.inf).any() and (ctx.exp(x) == fmt.r_max).any()


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
    assert same_bits(chop(x, fmt), x).all()
    assert all(same_bits(np.array([round_to_format(v, fmt)]), np.array([v]))[0] for v in x.tolist())
    ctx = ArithmeticContext(fmt)
    for fast, ieee in ((math.exp, np.exp), (math.log, np.log), (math.log1p, np.log1p)):
        want = np.array([_math_or_ieee(fast, ieee, v) for v in x.tolist()])
        got = getattr(ctx, fast.__name__)(x)
        assert same_bits(got, want).all(), fast.__name__
        assert same_bits(np.array([getattr(ctx, fast.__name__)(x[1])]), want[1:2]).all()

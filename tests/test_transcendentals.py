"""exp, log and log1p of ``ArithmeticContext`` against the C library path.

The context rounds numpy's vector value v and keeps it where a
tie certificate shows that the C library's value rounds the same way; every
other entry is ``chop`` of the C library's value.  These tests check the
result (bit for bit equal to ``chop`` of ``_libm_reference``), the
assumption the certificate rests on (numpy and the C library differ by at
most 2^-40 |v|), the certificate itself, with stand-in vector functions
placed on and next to rounding ties, and that the C library is never asked
for a value it cannot return.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bits
from lselab import precision
from lselab.precision import ArithmeticContext, _libm, chop, format_params

FUNCTIONS = {
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "log1p": (math.log1p, np.log1p),
}


def _bit_patterns(name: str) -> np.ndarray:
    """Every finite value of fp16 or bfloat16, as float64."""
    bits = np.arange(2**16, dtype=np.uint32)
    with np.errstate(invalid="ignore"):  # casting the NaN patterns
        if name == "fp16":
            x = bits.astype(np.uint16).view(np.float16).astype(np.float64)
        else:
            x = (bits << 16).view(np.float32).astype(np.float64)
    return x[np.isfinite(x)]


def _math_or_numpy(fast, ieee, v: float) -> float:
    try:
        return fast(v)
    except (OverflowError, ValueError):  # the IEEE result is +-inf or NaN
        with np.errstate(all="ignore"):
            return ieee(v)


def _libm_reference(fast, ieee, a: np.ndarray) -> np.ndarray:
    """``fast`` (a ``math`` function) on each entry, or ``ieee`` (its numpy
    twin) where ``fast`` raises: ``math`` raises only where the IEEE result
    is +-inf or NaN, and there numpy's is exact."""
    return np.array([_math_or_numpy(fast, ieee, v) for v in a.tolist()])


def _libm_path(fmt, op: str, x: np.ndarray) -> np.ndarray:
    return chop(_libm_reference(*FUNCTIONS[op], x), fmt)


@pytest.mark.parametrize("name", ["fp16", "bfloat16"])
@pytest.mark.parametrize("op", list(FUNCTIONS))
def test_every_value_matches_the_libm_path(name, op):
    fmt = format_params(name)
    x = _bit_patterns(name)
    got = getattr(ArithmeticContext(fmt), op)(x)
    assert same_bits(got, _libm_path(fmt, op, x)).all()
    # one vector, a batch and a scalar take the same path
    batch = getattr(ArithmeticContext(fmt), op)(x[:1000].reshape(10, 100))
    assert same_bits(batch.ravel(), got[:1000]).all()
    assert same_bits(np.array([getattr(ArithmeticContext(fmt), op)(x[7])]), got[7:8]).all()


@pytest.mark.parametrize("name", ["fp16", "bfloat16"])
@pytest.mark.parametrize("op", list(FUNCTIONS))
def test_numpy_and_libm_differ_by_less_than_the_certificate_assumes(name, op):
    x = _bit_patterns(name)
    fast, ieee = FUNCTIONS[op]
    with np.errstate(all="ignore"):
        v = ieee(x)
    libm = _libm_reference(fast, ieee, x)
    # where numpy's value v is a binary64 normal, the certificate tests
    # whether values within 2^-40 |v| round alike: the C library's must be one
    normal = np.isfinite(v) & (np.abs(v) >= 2.0**-1022)
    assert (np.abs(v[normal] - libm[normal]) <= np.ldexp(np.abs(v[normal]), -40)).all()
    # +-inf and NaN pass uncertified in every format, binary64 included: the
    # C library's value must be the same
    inf = np.isinf(v)
    assert (libm[inf] == v[inf]).all()
    assert (np.isnan(libm) == np.isnan(v)).all()
    # a zero passes: every format's grid near zero has spacing >= 2^-1022,
    # and rounds every value below 2^-1023 to the zero of its sign
    zero = v == 0.0
    assert (np.abs(libm[zero]) < 2.0**-1023).all()
    assert (np.signbit(libm[zero]) == np.signbit(v[zero])).all()


HYPOTHESIS_FORMATS = [
    "fp32",
    "fp64",
    "custom:t=26,emin=-1000,emax=1023,subnormals=0",
    "custom:t=26,emin=-997,emax=1023,subnormals=1",
    "custom:t=26,emin=-126,emax=127,subnormals=0",
    "custom:t=4,emin=-6,emax=6,subnormals=1",
    "custom:t=4,emin=-6,emax=6,subnormals=0",
]


@pytest.mark.parametrize("name", HYPOTHESIS_FORMATS)
def test_matches_the_libm_path_hypothesis(name):
    fmt = format_params(name)
    ctx = ArithmeticContext(fmt)
    values = st.one_of(st.floats(), st.floats(-800.0, 800.0), st.floats(-1.0, 4.0))

    @given(st.lists(values, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def check(vals):
        x = np.array(vals)
        for op in FUNCTIONS:
            assert same_bits(getattr(ctx, op)(x), _libm_path(fmt, op, x)).all(), (op, vals)

    check()


def _spacing(fmt, e: int) -> float:
    """The format's spacing in the binade [2^(e-1), 2^e)."""
    if e > fmt.emin:
        return math.ldexp(1.0, e - fmt.precision_bits)
    if fmt.subnormals_enabled:
        return math.ldexp(1.0, fmt.emin + 1 - fmt.precision_bits)
    return fmt.r_min


def _tie_toward(fmt, r: float, v: float) -> float:
    """The rounding tie between the format value r != 0 and its neighbour on v's side."""
    a = abs(r)
    e = math.frexp(a)[1]
    if abs(v) > a:
        step = _spacing(fmt, e)
    else:  # below a power of two the spacing may halve
        step = -_spacing(fmt, e - 1 if a == math.ldexp(0.5, e) else e)
    return math.copysign(a + step / 2, r)


def _nudge(v: np.ndarray, k) -> np.ndarray:
    """Each entry of v moved k binary64 ulps (toward +inf for k > 0); k is
    one integer or one per entry."""
    k = np.broadcast_to(k, v.shape)
    for _ in range(int(np.abs(k).max(initial=0))):
        v = np.where(k != 0, np.nextafter(v, np.copysign(np.inf, k)), v)
        k = k - np.sign(k)
    return v


CERTIFIED_FORMATS = ["fp16", "bfloat16", "fp32", "custom:t=4,emin=-6,emax=6,subnormals=0"]


def _arguments(op: str) -> np.ndarray:
    """fp16 values at which op has a finite binary64 normal value."""
    x = _bit_patterns("fp16")
    with np.errstate(all="ignore"):
        v = FUNCTIONS[op][1](x)
    return x[np.isfinite(v) & (np.abs(v) >= 2.0**-1022)]


@pytest.mark.parametrize("name", CERTIFIED_FORMATS)
@pytest.mark.parametrize("op", list(FUNCTIONS))
def test_certificate_sends_values_on_and_next_to_a_tie_to_libm(name, op, monkeypatch):
    """A stand-in for numpy puts each value on the tie nearest the C
    library's value, or a few binary64 ulps to either side of it.  Rounding
    it directly would give the wrong neighbour for half of them, so every
    entry must take the C library path, and the results must not change."""
    fmt = format_params(name)
    fast, ieee = FUNCTIONS[op]
    x = _arguments(op)
    libm = _libm(fast, x)
    want = chop(libm, fmt)
    # a tie lies between two finite format values: r finite, nonzero, not exact
    usable = np.isfinite(want) & (want != 0.0) & (want != libm)
    x, libm, want = x[usable], libm[usable], want[usable]
    ties = np.array([_tie_toward(fmt, r, v) for r, v in zip(want.tolist(), libm.tolist())])

    fallback = []

    def counting_libm(f, a):
        fallback.append(np.size(a))
        return _libm(f, a)

    monkeypatch.setattr(precision, "_libm", counting_libm)
    ctx = ArithmeticContext(fmt)
    wrong_sides = 0
    for k in range(-3, 4):
        fake = _nudge(ties, k)
        wrong_sides += int((chop(fake, fmt) != want).sum())
        fallback.clear()
        got = ctx._transcendental(fast, lambda a, fake=fake: fake, x)
        assert same_bits(got, want).all(), (name, op, k)
        assert fallback == [len(x)], (name, op, k)
    assert wrong_sides > len(x)  # the stand-in values do straddle the ties


@pytest.mark.parametrize("name", CERTIFIED_FORMATS)
@pytest.mark.parametrize("op", list(FUNCTIONS))
def test_certificate_keeps_values_a_few_ulps_off_libm(name, op, monkeypatch):
    """A stand-in for numpy that moves the C library's value by up to four
    binary64 ulps: the results do not change, every entry within 2^(e-40)
    of a tie takes the C library path, and most entries do not."""
    fmt = format_params(name)
    fast, ieee = FUNCTIONS[op]
    x = _arguments(op)
    rng = np.random.default_rng(12)
    fake = _nudge(_libm(fast, x), rng.integers(-4, 5, len(x)))
    seen = []

    def recording_libm(f, a):
        seen.append(a.copy())
        return _libm(f, a)

    monkeypatch.setattr(precision, "_libm", recording_libm)
    got = ArithmeticContext(fmt)._transcendental(fast, lambda a: fake, x)
    monkeypatch.undo()
    assert same_bits(got, chop(_libm(fast, x), fmt)).all()
    sent = set(np.concatenate(seen).tolist()) if seen else set()
    r = chop(fake, fmt)
    for xi, v, ri in zip(x.tolist(), fake.tolist(), r.tolist()):
        if not math.isfinite(ri) or v == ri:
            continue
        e = math.frexp(v)[1]
        if abs(abs(v - ri) - _spacing(fmt, e) / 2) <= math.ldexp(1.0, e - 40):
            assert xi in sent, (name, op, xi)
    assert len(sent) < len(x) / 2


def test_tie_certificate_tables():
    fp16 = format_params("fp16")
    constants, thresholds, scales = fp16.binade_table
    assert (scales == 1.0).all()  # P = 1 in every binade

    def field(v: float) -> int:
        """The index the context computes, x.view(np.int64) >> 52: b - 2048
        for a negative double of biased exponent b."""
        return struct.unpack("<q", struct.pack("<d", v))[0] >> 52

    assert len(constants) == len(thresholds) == 2048
    # both signs share an entry; its C is round_to_format's
    for v in (1.0, 2.0**-20, 2.0**-30, 3e4, 1e5):
        assert constants[field(v)] == constants[field(-v)]
        assert (1.0, constants[field(v)]) == fp16.frexp_entries[math.frexp(v)[1]][:2]
    # zeros pass and binary64 subnormals do not: C rounds them to the
    # subnormal grid of spacing 2^-24, and T = 2^-1074 takes only |v - r| = 0
    for v in (0.0, -0.0, 5e-324, 2.0**-1023):
        assert thresholds[field(v)] == 2.0**-1074, v
        assert (1.0, constants[field(v)]) == fp16.frexp_entries[math.frexp(2.0**-14)[1]][:2], v
    # so in every format, the finest grids near zero that FloatFormat accepts included
    for name in ("custom:t=26,emin=-997,emax=1023,subnormals=1",
                 "custom:t=8,emin=-1015,emax=10,subnormals=1",
                 "custom:t=26,emin=-1022,emax=1023,subnormals=0"):
        assert format_params(name).binade_table[1][0] == 2.0**-1074
    # +-inf and NaN always pass
    for v in (math.inf, -math.inf, math.nan):
        assert thresholds[field(v)] == math.inf and constants[field(v)] == 0.0, v
    # T = ulp/2 - 2^(e-40): [1, 2) has e = 1 and ulp 2^-10
    assert thresholds[field(1.0)] == 2.0**-11 - 2.0**-39
    # far below the subnormal spacing 2^-24, 2^-25 - 2^(e-40) needs more
    # than 53 bits; T is 2^-25 less its last bit, 2^-77, instead
    assert thresholds[field(2.0**-1000)] == 2.0**-25 - 2.0**-77 < 2.0**-25
    # above the top binade every finite value overflows: all pass
    assert thresholds[field(1e300)] == math.inf and constants[field(1e300)] == 0.0


@pytest.mark.parametrize("op", list(FUNCTIONS))
def test_certificate_holds_in_prescaled_binades(op, monkeypatch):
    """With t = 26 and emax = 1023 the binades from 2^997 up have P < 1.
    exp over [675, 709.78] reaches them from x = 691.1, and log and log1p
    take arguments in [2^990, 2^1024).  The results are chop of the C
    library's value, and numpy's value is kept for most entries, those in
    the prescaled binades included."""
    fmt = format_params("custom:t=26,emin=-997,emax=1023,subnormals=1")
    scales = fmt.binade_table[2]
    assert scales[997 + 1023] < 1.0 == scales[996 + 1023]  # the binades of 2^997 and 2^996
    if op == "exp":
        x = np.linspace(675.0, 709.78, 20_000)
    else:
        rng = np.random.default_rng(8)
        x = np.ldexp(rng.uniform(1.0, 2.0, 20_000), rng.integers(990, 1024, 20_000))
    seen = []

    def spying_libm(f, a):
        seen.append(a.copy())
        return _libm(f, a)

    monkeypatch.setattr(precision, "_libm", spying_libm)
    got = getattr(ArithmeticContext(fmt), op)(x)
    monkeypatch.undo()
    assert same_bits(got, _libm_path(fmt, op, x)).all()
    sent = np.isin(x, np.concatenate(seen)) if seen else np.zeros(len(x), dtype=bool)
    assert sent.mean() < 0.01
    if op == "exp":
        prescaled = got >= 2.0**997
        assert prescaled.sum() > 9_000 and sent[prescaled].mean() < 0.01


@pytest.mark.parametrize("name", ["fp16", "bfloat16", "custom:t=4,emin=-6,emax=6,subnormals=1"])
def test_overflowing_exp_needs_no_libm(monkeypatch, name):
    # the tie test reads (v + C) - C before values above r_max become inf:
    # an inf there would fail the certificate for every v that overflows
    # and send it to the C library, with the same result, only slower.
    # The results lie above 2^(emax+1), up to exp(709) ~ 8.2e307, a finite
    # double: binades above the top one pass whatever their C would be.
    fmt = format_params(name)
    x = np.linspace((fmt.emax + 1) * math.log(2.0) + 0.01, 709.0, 999)
    calls = []
    monkeypatch.setattr(precision, "_libm", lambda *args: calls.append(args))
    got = ArithmeticContext(fmt).exp(x)
    assert np.isinf(got).all() and calls == []


LIBM_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1023, -2.0**-1023, -1.0, -2.0,
                 math.inf, -math.inf, math.nan,
                 709.782712893384, math.nextafter(709.782712893384, math.inf)]  # exp's overflow edge


@pytest.mark.parametrize("name", [
    "fp16", "bfloat16", "fp32", "fp64",
    "custom:t=4,emin=-6,emax=6,subnormals=1",
    "custom:t=4,emin=-6,emax=6,subnormals=0",
    "custom:t=26,emin=-997,emax=1023,subnormals=1",
])
def test_libm_is_never_asked_for_a_value_it_cannot_return(name, monkeypatch):
    """``_libm`` is a plain map of the ``math`` function: the context passes
    it only entries whose numpy value is finite, where ``math`` does not raise."""
    x = np.concatenate((np.random.default_rng(3).uniform(-800.0, 800.0, 20_000), LIBM_SPECIALS))
    sent = []

    def spying_libm(f, a):
        sent.append(np.size(a))
        for v in a.tolist():
            try:
                f(v)
            except (OverflowError, ValueError):
                pytest.fail(f"{f.__name__}({v!r}) raises")
        return _libm(f, a)

    monkeypatch.setattr(precision, "_libm", spying_libm)
    ctx = ArithmeticContext(format_params(name))
    for op in FUNCTIONS:
        assert same_bits(getattr(ctx, op)(x), _libm_path(ctx.fmt, op, x)).all(), op
    assert sum(sent) > 0  # subnormal results, at least, take the C library path

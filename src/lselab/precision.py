"""Reduced-precision binary floating-point simulation on top of binary64.

Every elementary operation and math function is computed in binary64 and its
result rounded to the target format (round-to-nearest, ties-to-even).  For
target formats with at most 26 significand bits the binary64 intermediate
carries more than twice the target precision, so the rounded binop result is
the correctly rounded one (no double-rounding hazard).

``chop`` rounds a whole float64 array, ``round_to_format`` one value, bit for
bit alike.  The definition of rounding is ``_round_by_scaling``, Higham &
Pranesh's ``chop`` ("Simulating low precision floating-point arithmetic",
SIAM J. Sci. Comput., 2019): scale x so that the format's spacing at x is 1,
round to an integer and scale back.  The fast path is one binary64 addition,
copysign((x + C) - C, x), with the constant C of x's binade
(``FloatFormat.binade_constants``), and a test for overflow.  The table covers
every binade whose C fits in binary64: subnormal ones and those below the
smallest subnormal, which round to +-0, share the emin binade's spacing (or
r_min's, when subnormals are flushed), and those above the top one overflow.
For binary64 every C is 0.0: each binary64 value is its own rounding.
``round_to_format`` takes the fast path wherever its binade has a C.
``chop`` is its array twin, ``_round_by_table``, for every format whose
table rounds every double (``FloatFormat.rounds_by_table``: fp16, bfloat16,
fp32 and most custom formats); the others take the definition.

exp, log and log1p round the C library's value, as ``chop`` would.  For
t <= 26 ``ArithmeticContext`` computes them with numpy's vector functions
and the same table, and calls the C library only for the entries that a tie
certificate cannot vouch for: numpy's value may differ from the C library's
in the last binary64 bit, which changes the rounded result only within
about 2^-40 |v| of a rounding tie of the format.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "ArithmeticContext",
    "format_params",
    "round_to_format",
    "chop",
    "as_batch",
    "per_row",
    "NAMED_FORMATS",
]

# (precision_bits, emin, emax, subnormals_enabled)
NAMED_FORMATS = {
    "fp16": (11, -14, 15, True),
    "bfloat16": (8, -126, 127, False),
    "fp32": (24, -126, 127, True),
    "fp64": (53, -1022, 1023, True),
}

# Custom formats are limited so that a binary64 intermediate always has
# > 2x the target precision (operate-then-round is then correctly rounded).
MAX_CUSTOM_PRECISION = 26

_CUSTOM_RE = re.compile(
    r"^custom:t=(-?\d+),emin=(-?\d+),emax=(-?\d+),subnormals=([01])$"
)

# math.frexp exponents of finite doubles lie in [-1073, 1024]; infinities,
# NaN and zeros give 0.  Binade tables list exponents 0..1024 and then
# -1073..-1, so that Python's negative indexing maps every exponent e to
# its own entry: table[e].
_FREXP_EXPONENTS = np.concatenate((np.arange(1025), np.arange(-1073, 0)))


@dataclass(frozen=True)
class FloatFormat:
    """Parameters of a binary floating-point format.

    ``precision_bits`` counts the significand bits including the implicit
    leading bit; ``emin``/``emax`` are the minimum/maximum exponents of
    normalized values (value range [2^emin, 2^emax * (2 - 2^(1-t))]).
    """

    name: str
    precision_bits: int
    emin: int
    emax: int
    subnormals_enabled: bool

    @functools.cached_property
    def unit_roundoff(self) -> float:
        return math.ldexp(1.0, -self.precision_bits)

    @functools.cached_property
    def r_min(self) -> float:
        return math.ldexp(1.0, self.emin)

    @functools.cached_property
    def r_min_subnormal(self) -> float:
        if not self.subnormals_enabled:
            return self.r_min
        return math.ldexp(1.0, self.emin - self.precision_bits + 1)

    @functools.cached_property
    def r_max(self) -> float:
        return math.ldexp(2.0 - math.ldexp(1.0, 1 - self.precision_bits), self.emax)

    @functools.cached_property
    def binade_constants(self) -> tuple[float | None, ...]:
        """``round_to_format``'s constants C, indexed by ``math.frexp`` exponent e.

        C = 1.5 * 2^(s + 52), where 2^s is the format's spacing in the binade
        [2^(e-1), 2^e): s = e - t in a normal binade (e > emin) and in every
        binade above the top one; below 2^emin, s = emin - t + 1 (the
        subnormal spacing) with gradual underflow and s = emin (the grid
        {0, r_min}) when subnormals are flushed.  Then copysign((x + C) - C, x)
        is x rounded to that grid, ties to even:

        * C's binade has binary64 spacing 2^s;
        * |x| < 2^e <= C/3 (true for t <= 51), so x + C stays in C's binade;
        * that one addition rounds to nearest, ties to even, and
          C / 2^s = 1.5 * 2^52 is even, so a tie goes to the same neighbour
          that ties-to-even rounding of x itself picks; below the smallest
          subnormal (or below r_min/2 when flushing) that neighbour is 0;
        * (x + C) - C is exact (both operands lie in one binade), and
          copysign gives a zero result x's sign (+0.0 would be wrong for a
          negative x).

        On this grid the tie r_max + ulp/2 and everything at or above
        2^(emax+1) round to a value above r_max, which ``round_to_format``
        turns into +-inf.  Every binade whose C fits in binary64 has an entry;
        a binade whose C would overflow (e - t + 52 > 1023, possible only
        above the top binade, or in it when emax > 970 + t) has none, nor has
        any binade when t > 26.  C is normal for every format
        ``format_params`` accepts.  frexp gives +-0, +-inf and NaN the
        exponent 0, and their entry rounds them to themselves.

        binary64 (t = 53, emin = -1022, emax = 1023, subnormals) maps every e
        to C = 0.0, the identity.  The test is on all four parameters, not on
        t: a ``FloatFormat`` built directly with another t > 26 has no entries.
        """
        t, emin = self.precision_bits, self.emin
        if (t, emin, self.emax, self.subnormals_enabled) == NAMED_FORMATS["fp64"]:
            return (0.0,) * len(_FREXP_EXPONENTS)
        if t > MAX_CUSTOM_PRECISION:
            return (None,) * len(_FREXP_EXPONENTS)
        c = self._constant_column(_FREXP_EXPONENTS)
        return tuple(np.where(c > 0.0, c, None).tolist())

    def _constant_column(self, e: np.ndarray) -> np.ndarray:
        """``binade_constants``' C for each frexp exponent in ``e``, 0.0 where
        a binade has none (t <= 26 only)."""
        t, emin = self.precision_bits, self.emin
        below = emin - t + 1 if self.subnormals_enabled else emin
        k = np.where(e > emin, e - t, below) + 52
        return np.where(k <= 1023, np.ldexp(1.5, np.minimum(k, 1023)), 0.0)

    @functools.cached_property
    def tie_certificate(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The tables ``chop`` and ``ArithmeticContext``'s exp, log and log1p
        round with; None when t > 26.

        Both are 4096-entry float64 arrays indexed by a double's sign and
        biased exponent, its bits >> 52: ``x.view(np.int64) >> 52`` is that
        index less 4096 for a negative x, which indexes from the end.  The
        first holds ``binade_constants``' C of each binade.  The second
        holds the threshold T = ulp/2 - 2^(e-40) for the binade
        [2^(e-1), 2^e), where ulp is the format's spacing there.  A value
        v of the binade whose rounding r lies closer than T lies farther
        than 2^(e-40) > 2^-40 |v| from every tie of the format.  T is
        rounded down where binary64 cannot hold it, and is -inf, so that no
        entry passes, in a binade without C (whose C reads 0.0).

        Biased exponent 0 holds the zeros and binary64's subnormals, whose
        error is not relative to their value.  Where the format's spacing
        below 2^emin is at least 2^-1022, its C is that grid's and its T is
        2^-1074: a zero passes (|v - r| = 0) and a subnormal does not (it
        is off the grid).  A zero stands for a value below 2^-1023 at most,
        which that grid rounds to the same zero.  With a finer grid, T is
        -inf.  Biased exponent 2047 holds +-inf and NaN, which pass: C is
        0.0 and T +inf.
        """
        if self.precision_bits > MAX_CUSTOM_PRECISION:
            return None
        # biased exponent b holds the binade [2^(e-1), 2^e) with e = b - 1022,
        # except b = 0 (set here) and b = 2047 (set below)
        e = np.arange(-1022, 1026)
        e[0] = -1073  # zeros and binary64 subnormals: the C of the binade of 2^-1074
        c = self._constant_column(e)
        half_ulp = np.ldexp(c / 3.0, -52)  # C / 3 = 2^(s + 51), exactly
        # where binary64 cannot hold 2^(s-1) - 2^(e-40), subtract half_ulp's last bit
        margin = np.maximum(np.ldexp(1.0, e - 40), np.ldexp(half_ulp, -52))
        threshold = np.where(c > 0.0, half_ulp - margin, -np.inf)
        c[-1] = 0.0
        threshold[0] = 2.0**-1074 if self.r_min_subnormal >= 2.0**-1022 else -np.inf
        threshold[-1] = np.inf
        return np.tile(c, 2), np.tile(threshold, 2)

    @functools.cached_property
    def rounds_by_table(self) -> bool:
        """Whether ``chop`` rounds every double with ``tie_certificate``'s C:
        t <= 26, every binade up to the top one has a C (emax <= 970 + t),
        and the grid near zero has spacing >= 2^-1022, so that one C serves
        every binary64 subnormal.  Binades above the top one overflow with
        or without a C."""
        t = self.precision_bits
        one_c_near_zero = self.r_min_subnormal >= 2.0**-1022
        return t <= MAX_CUSTOM_PRECISION and self.emax <= 970 + t and one_c_near_zero


@functools.lru_cache(maxsize=32)
def format_params(name: str) -> FloatFormat:
    """Resolve a format identifier to a fully populated :class:`FloatFormat`.

    Accepted identifiers: ``fp16``, ``bfloat16``, ``fp32``, ``fp64`` and
    ``custom:t=<bits>,emin=<e>,emax=<e>,subnormals=<0|1>``.
    """
    if name in NAMED_FORMATS:
        t, emin, emax, subn = NAMED_FORMATS[name]
        return FloatFormat(name, t, emin, emax, subn)
    m = _CUSTOM_RE.match(name)
    if m is None:
        raise ValueError(f"unknown floating-point format: {name!r}")
    t, emin, emax = int(m.group(1)), int(m.group(2)), int(m.group(3))
    subn = m.group(4) == "1"
    if t < 2:
        raise ValueError(f"custom format needs precision_bits >= 2, got {t}")
    if t > MAX_CUSTOM_PRECISION:
        raise ValueError(
            f"custom format precision_bits must be <= {MAX_CUSTOM_PRECISION}, got {t}"
        )
    if emin >= emax:
        raise ValueError(f"custom format needs emin < emax, got {emin} >= {emax}")
    if emax > 1023 or emin - t + 1 < -1074:
        raise ValueError("custom format needs emax <= 1023 and emin - t + 1 >= -1074")
    return FloatFormat(name, t, emin, emax, subn)


def round_to_format(x: float, fmt: FloatFormat) -> float:
    """Round a binary64 value to the nearest ``fmt``-representable value.

    Ties to even.  Magnitudes beyond the overflow threshold map to +-inf,
    magnitudes below the underflow threshold to +-0 (or the nearest
    subnormal when the format supports them).  NaN maps to NaN.  The result
    is carried in binary64 and the map is idempotent.
    """
    c = fmt.binade_constants[math.frexp(x)[1]]
    if c is None:
        return float(chop(x, fmt))
    r = math.copysign((x + c) - c, x)  # see FloatFormat.binade_constants
    return math.copysign(math.inf, x) if abs(r) > fmt.r_max else r


def chop(x, fmt: FloatFormat):
    """Round every entry of a float64 array to the nearest ``fmt`` value.

    Normal and subnormal values round to the nearest grid point (ties to
    even), magnitudes below the normal range of a format without subnormals
    flush to +-0 or +-r_min, overflow gives +-inf, and signed zeros,
    infinities and NaN pass through.  A scalar argument gives a
    ``numpy.float64``.

    Where ``fmt.rounds_by_table``, every entry is rounded as
    ``round_to_format`` rounds one value: copysign((x + C) - C, x) with the
    C of x's binade, then +-inf above r_max (``_round_by_table``).  Other
    formats take the general path, ``_round_by_scaling``, which is the
    definition both agree with bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _chop(x, fmt)


def _chop(x, fmt: FloatFormat):
    """``chop`` without its ``errstate``, for callers inside their own."""
    x = np.asarray(x, dtype=np.float64)
    r = _round_by_table(x, fmt) if fmt.rounds_by_table else _round_by_scaling(x, fmt)
    return r[()]  # the array itself, or the scalar of a 0-d array


def _round_by_table(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """x rounded with the C of its binade, looked up by its sign and exponent
    bits in ``tie_certificate``; correct where ``fmt.rounds_by_table``."""
    c = fmt.tie_certificate[0].take(x.view(np.int64) >> 52)
    return _saturate((x + c) - c, x, fmt)


def _saturate(r, x, fmt: FloatFormat) -> np.ndarray:
    """r with +-inf where |r| > r_max, and the sign of x: the sign a zero
    r = (x + C) - C lacks.  An array, 0-d for scalars."""
    r = np.where(np.abs(r) > fmt.r_max, np.inf, r)
    return np.copysign(r, x, out=r)


def _round_by_scaling(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
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


def as_batch(x) -> np.ndarray:
    """One vector or a (rows x n) batch as a (rows x n) float64 array.

    One vector is a one-row batch.  An empty vector, an array of any other
    shape, or a non-finite entry raises ``ValueError``.
    """
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim not in (1, 2) or xs.shape[-1] == 0:
        raise ValueError("input vector must have length >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("input vector entries must be finite")
    return xs.reshape(-1, xs.shape[-1])


def per_row(y, xs: np.ndarray) -> np.ndarray:
    """``y`` as one float64 per row of the batch ``xs``; another length raises ``ValueError``."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != len(xs):
        raise ValueError(f"y needs one value per row: {len(xs)} rows, {len(y)} values")
    return y


def _libm_or_ieee(fast, ieee, v: float) -> float:
    try:
        return fast(v)
    except (OverflowError, ValueError):  # the IEEE result is +-inf or NaN
        with np.errstate(all="ignore"):
            return ieee(v)


def _libm(fast, ieee, a) -> np.ndarray:
    """``fast`` (a ``math`` function) on each entry, or ``ieee`` (its numpy
    twin) on the entries where ``fast`` raises.

    The C library's value is the reference for exp, log and log1p: numpy's
    vector functions may differ from it in the last binary64 bit, and
    ``ArithmeticContext`` uses them only where that bit cannot change the
    rounded result.  ``math`` raises only where the IEEE result is +-inf or
    NaN (exp overflow, log of zero or of a negative), and there numpy's is
    exact.
    """
    a = np.asarray(a, dtype=np.float64)
    values = a.ravel().tolist()
    try:
        out = np.fromiter(map(fast, values), np.float64, len(values))
    except (OverflowError, ValueError):
        either = functools.partial(_libm_or_ieee, fast, ieee)
        out = np.fromiter(map(either, values), np.float64, len(values))
    return out.reshape(a.shape)


@dataclass(frozen=True)
class ArithmeticContext:
    """Arithmetic used by the evaluation kernels, on scalars or whole arrays.

    Every operation is computed in binary64 and its result rounded to
    ``fmt`` (round-to-nearest, ties-to-even), as :func:`chop` rounds.
    ``+ - * /`` are IEEE numpy operations, rounded by ``chop`` (by the
    binade table where ``fmt.rounds_by_table``).  ``exp``, ``log`` and
    ``log1p`` give ``chop`` of the C library's value, bit for bit, and for
    t <= 26 compute it with a tie certificate:

    * v is numpy's vector function and r its rounding (v + C) - C, with
      the C of v's binade [2^(e-1), 2^e) (``binade_constants``), before
      r's sign is set and values above r_max become +-inf;
    * where |v - r| < T, the binade's threshold ulp/2 - 2^(e-40)
      (``FloatFormat.tie_certificate``), v lies farther than
      2^(e-40) > 2^-40 |v| from every tie of the format.
      Rounding to nearest is a step function whose only jumps are at ties,
      so the C library's value, which differs from v by at most 2^-40 |v|
      (a few binary64 ulps in practice; the tests check the bound on every
      fp16 and bfloat16 argument), rounds to r as well;
    * +-inf and NaN pass as they are.  Where numpy's value is +-inf, the C
      library's is too, or lies within a few ulps of the largest double,
      which every format with t <= 26 rounds to inf; where numpy's is NaN,
      so is the C library's.  A zero passes when the format's spacing near
      zero is at least 2^-1022: the C library's value is then the same zero
      or below 2^-1023, which rounds to it (the tests check all three);
    * every other entry (near a tie, a binary64 subnormal, a zero in a
      format with a finer grid, or in a binade without C) is ``chop`` of
      the C library's value.

    For t > 26 (``fp64``) every entry takes the C library's value.
    Rounding to ``fp64`` leaves every binary64 value unchanged, so that
    context is native binary64.
    """

    fmt: FloatFormat

    def _binop(self, op, a, b):
        with np.errstate(all="ignore"):  # inf and NaN results are the point
            return _chop(op(a, b), self.fmt)

    def _transcendental(self, fast, ieee, a):
        """``chop(_libm(fast, ieee, a))``, with ``ieee``'s value where certified."""
        tables = self.fmt.tie_certificate
        if tables is None:
            return chop(_libm(fast, ieee, a), self.fmt)
        a = np.asarray(a, dtype=np.float64)
        with np.errstate(all="ignore"):
            v = ieee(a)
            field = v.view(np.int64) >> 52
            c = tables[0].take(field)
            r = (v + c) - c  # |v - r| does not depend on the sign of a zero r
            # tested before _saturate, whose inf would fail every v that overflows;
            # False where v is +-inf or NaN: v - r is NaN there
            uncertified = np.abs(v - r) >= tables[1].take(field)
            r = _saturate(r, v, self.fmt)
            if uncertified.any():
                r[uncertified] = _chop(_libm(fast, ieee, a[uncertified]), self.fmt)
        return r[()]  # the array itself, or the scalar of a 0-d array

    def add(self, a, b):
        return self._binop(np.add, a, b)

    def sub(self, a, b):
        return self._binop(np.subtract, a, b)

    def mul(self, a, b):
        return self._binop(np.multiply, a, b)

    def div(self, a, b):
        return self._binop(np.divide, a, b)

    def exp(self, a):
        return self._transcendental(math.exp, np.exp, a)

    def log(self, a):
        return self._transcendental(math.log, np.log, a)

    def log1p(self, a):
        return self._transcendental(math.log1p, np.log1p, a)

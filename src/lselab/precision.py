"""Reduced-precision binary floating-point simulation on top of binary64.

Every elementary operation and math function is computed in binary64 and its
result rounded to the target format (round-to-nearest, ties-to-even).  For
target formats with at most 26 significand bits the binary64 intermediate
carries more than twice the target precision, so the rounded binop result is
the correctly rounded one (no double-rounding hazard).

``chop`` rounds a whole float64 array (Higham & Pranesh, "Simulating low
precision floating-point arithmetic", SIAM J. Sci. Comput., 2019).  It is the
one definition of rounding to a format here; ``ArithmeticContext`` applies it
to array operands, and ``round_to_format`` rounds one value the same way, bit
for bit.  Where ``FloatFormat.binade_constants`` has a constant C for the
binade of x, that is one binary64 addition, (x + C) - C, and a test for
overflow; elsewhere it is ``chop``.  The table covers the binades whose
values round to a nonzero, subnormal ones included (their spacing is
constant, so they share the emin binade's C), up to the top one.  The
binade holding the tie that rounds to zero is left out, because
(x + C) - C gives +0.0 where -0.0 is right.  For binary64 every C is 0.0:
each binary64 value is its own rounding.
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
_FREXP_EXPONENTS = (*range(1025), *range(-1073, 0))


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

        With k = max(e, emin + 1) and C = 1.5 * 2^(k - t + 52), (x + C) - C is
        x in the binade [2^(e-1), 2^e) rounded to the format, ties to even:

        * C's binade has binary64 spacing 2^(k-t), the format's spacing at x:
          the ulp of a normal binade (k = e), or the subnormal spacing
          2^(emin-t+1) below 2^emin (k = emin + 1, the emin binade's C);
        * |x| < 2^k <= C/3 (true for t <= 51), so x + C stays in C's binade;
        * that one addition rounds to nearest, ties to even, and
          C / 2^(k-t) = 1.5 * 2^52 is even, so a tie goes to the same
          neighbour that ties-to-even rounding of x itself picks;
        * (x + C) - C is exact (both operands lie in one binade).

        Entries exist for the binades up to the top one, [2^emax, 2^(emax+1)),
        that are normal or, with gradual underflow, at or above the smallest
        subnormal 2^(emin-t+1).  Below the top binade a result of +-2^e is
        representable; in the top one a result above r_max (from the tie
        r_max + ulp/2 up) is an overflow, which ``round_to_format`` turns
        into +-inf.  The binade below the smallest subnormal holds the tie
        2^(emin-t) that rounds to zero: (x + C) - C would give +0.0 for a
        negative x, not -0.0, so it has no entry.  Nor has a binade whose
        C would overflow binary64, nor any binade when t > 26.  C is normal for
        every format ``format_params`` accepts.  +-inf and NaN come back
        unchanged; ``round_to_format`` returns a zero as it is, keeping its sign.

        binary64 (t = 53, emin = -1022, emax = 1023, subnormals) maps every e
        to C = 0.0, the identity.  The test is on all four parameters, not on
        t: a ``FloatFormat`` built directly with another t > 26 has no entries.
        """
        t, emin, emax = self.precision_bits, self.emin, self.emax
        if (t, emin, emax, self.subnormals_enabled) == NAMED_FORMATS["fp64"]:
            return (0.0,) * len(_FREXP_EXPONENTS)
        lowest = emin - t + 2 if self.subnormals_enabled else emin + 1
        return tuple(
            math.ldexp(1.5, max(e, emin + 1) - t + 52)
            if t <= MAX_CUSTOM_PRECISION and lowest <= e <= emax + 1
            and max(e, emin + 1) - t + 52 <= 1023
            else None
            for e in _FREXP_EXPONENTS
        )


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
    if not x:
        return x
    r = (x + c) - c  # see FloatFormat.binade_constants
    return math.copysign(math.inf, x) if abs(r) > fmt.r_max else r


def chop(x, fmt: FloatFormat):
    """Round every entry of a float64 array to the nearest ``fmt`` value.

    Normal and subnormal values round to the nearest grid point (ties to
    even), magnitudes below the normal range of a format without subnormals
    flush to +-0 or +-r_min, overflow gives +-inf, and signed zeros,
    infinities and NaN pass through.  A scalar argument gives a
    ``numpy.float64``.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
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
    return r[()]  # the array itself, or the scalar of a 0-d array


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

    Transcendental functions go through the C library one value at a time:
    numpy's vector ``exp`` and ``log1p`` differ from it in the last bit on a
    few percent of arguments, which would change every measured error.
    ``math`` raises only where the IEEE result is +-inf or NaN (exp
    overflow, log of zero or of a negative), and there numpy's is exact.
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

    Every operation is computed in binary64 (``+ - * /`` as IEEE numpy
    operations, ``exp``/``log``/``log1p`` by the C library) and its result
    rounded to ``fmt`` with :func:`chop` (round-to-nearest, ties-to-even).
    Rounding to ``fp64`` leaves every binary64 value unchanged, so that
    context is native binary64.
    """

    fmt: FloatFormat

    def _binop(self, op, a, b):
        with np.errstate(all="ignore"):  # inf and NaN results are the point
            return chop(op(a, b), self.fmt)

    def add(self, a, b):
        return self._binop(np.add, a, b)

    def sub(self, a, b):
        return self._binop(np.subtract, a, b)

    def mul(self, a, b):
        return self._binop(np.multiply, a, b)

    def div(self, a, b):
        return self._binop(np.divide, a, b)

    def exp(self, a):
        return chop(_libm(math.exp, np.exp, a), self.fmt)

    def log(self, a):
        return chop(_libm(math.log, np.log, a), self.fmt)

    def log1p(self, a):
        return chop(_libm(math.log1p, np.log1p, a), self.fmt)

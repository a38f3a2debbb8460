"""Reduced-precision binary floating-point simulation on top of binary64.

Every elementary operation and math function is computed in binary64 and its
result rounded to the target format (round-to-nearest, ties-to-even).  For
target formats with at most 26 significand bits the binary64 intermediate
carries more than twice the target precision, so the rounded binop result is
the correctly rounded one (no double-rounding hazard).

``round_to_format`` rounds one value; ``chop`` rounds a whole float64 array
the same way (Higham & Pranesh, "Simulating low precision floating-point
arithmetic", SIAM J. Sci. Comput., 2019), and ``ArithmeticContext`` applies it
to array operands.
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
    if x != x or math.isinf(x) or x == 0.0:
        return x
    t = fmt.precision_bits
    _, e = math.frexp(x)  # |x| in [2^(e-1), 2^e)
    exp = e - 1
    if exp < fmt.emin:
        if not fmt.subnormals_enabled:
            # Nearest of {0, +-r_min}; the tie at r_min/2 goes to 0 (even).
            half = math.ldexp(1.0, fmt.emin - 1)
            if abs(x) <= half:
                return math.copysign(0.0, x)
            return math.copysign(fmt.r_min, x)
        # Below r_min nothing overflows; copysign keeps the sign of a zero.
        shift = (t - 1) - fmt.emin
        return math.copysign(math.ldexp(round(math.ldexp(x, shift)), -shift), x)
    shift = (t - 1) - exp
    k = round(math.ldexp(x, shift))
    try:
        r = math.ldexp(k, -shift)
    except OverflowError:
        return math.copysign(math.inf, x)
    if abs(r) > fmt.r_max:
        return math.copysign(math.inf, x)
    return r


def chop(x, fmt: FloatFormat):
    """Round every entry of a float64 array as :func:`round_to_format` does.

    Same branches, same bits: normal and subnormal values round to the
    nearest grid point (ties to even), magnitudes below the normal range of a
    format without subnormals flush to +-0 or +-r_min, overflow gives +-inf,
    and signed zeros, infinities and NaN pass through.  A scalar argument
    gives a ``numpy.float64``.
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


def _ieee_exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _ieee_log(a: float) -> float:
    if a != a or a < 0.0:
        return math.nan
    if a == 0.0:
        return -math.inf
    return math.log(a)


def _ieee_log1p(a: float) -> float:
    if a != a or a < -1.0:
        return math.nan
    if a == -1.0:
        return -math.inf
    return math.log1p(a)


def _libm(fast, ieee, a) -> np.ndarray:
    """``fast`` (a ``math`` function) on each entry, or ``ieee`` where it raises.

    Transcendental functions go through the C library one value at a time:
    numpy's vector ``exp`` and ``log1p`` differ from it in the last bit on a
    few percent of arguments, which would change every measured error.
    """
    a = np.asarray(a, dtype=np.float64)
    values = a.ravel().tolist()
    try:
        out = np.fromiter(map(fast, values), np.float64, len(values))
    except (OverflowError, ValueError):
        out = np.fromiter(map(ieee, values), np.float64, len(values))
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

    @property
    def unit_roundoff(self) -> float:
        return self.fmt.unit_roundoff

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
        return chop(_libm(math.exp, _ieee_exp, a), self.fmt)

    def log(self, a):
        return chop(_libm(math.log, _ieee_log, a), self.fmt)

    def log1p(self, a):
        return chop(_libm(math.log1p, _ieee_log1p, a), self.fmt)

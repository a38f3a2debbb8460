"""Reduced-precision binary floating-point simulation on top of binary64.

Every elementary operation and math function is computed in binary64 and its
result rounded to the target format (round-to-nearest, ties-to-even).  For
target formats with at most 26 significand bits the binary64 intermediate
carries more than twice the target precision, so the rounded binop result is
the correctly rounded one (no double-rounding hazard).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "FloatFormat",
    "ArithmeticContext",
    "format_params",
    "round_to_format",
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

    @property
    def unit_roundoff(self) -> float:
        return math.ldexp(1.0, -self.precision_bits)

    @property
    def r_min(self) -> float:
        return math.ldexp(1.0, self.emin)

    @property
    def r_min_subnormal(self) -> float:
        if not self.subnormals_enabled:
            return self.r_min
        return math.ldexp(1.0, self.emin - self.precision_bits + 1)

    @property
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


def _ieee_div(a: float, b: float) -> float:
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b  # float * and / overflow to inf; only / 0 raises


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


@dataclass(frozen=True)
class ArithmeticContext:
    """Arithmetic used by the evaluation kernels.

    Every operation is computed in binary64 and its result rounded to ``fmt``
    (round-to-nearest, ties-to-even).  Rounding to ``fp64`` leaves every
    binary64 value unchanged, so that context is native binary64.
    """

    fmt: FloatFormat

    @property
    def unit_roundoff(self) -> float:
        return self.fmt.unit_roundoff

    def round(self, x: float) -> float:
        return round_to_format(x, self.fmt)

    def add(self, a: float, b: float) -> float:
        return self.round(a + b)

    def sub(self, a: float, b: float) -> float:
        return self.round(a - b)

    def mul(self, a: float, b: float) -> float:
        return self.round(a * b)

    def div(self, a: float, b: float) -> float:
        return self.round(_ieee_div(a, b))

    def exp(self, a: float) -> float:
        return self.round(_ieee_exp(a))

    def log(self, a: float) -> float:
        return self.round(_ieee_log(a))

    def log1p(self, a: float) -> float:
        return self.round(_ieee_log1p(a))

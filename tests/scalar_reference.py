"""Scalar reference kernels: one vector, one operation, one rounding at a time.

These are the evaluation algorithms as lselab ran them before its kernels
took whole batches.  Every operation is computed with Python's binary64
arithmetic and the ``math`` module and rounded by ``round_reference``, so the
batch kernels must reproduce their results bit for bit.  The oracle, in
binary64 throughout, is kept as it ran before it took a batch.

``round_reference`` is the only scalar copy of the rounding rule: scaling by
``ldexp`` and Python's ``round`` (ties to even), with no lookup table and no
numpy.  The package has one table path for every binade of every format,
``FloatFormat.binade_table`` (``chop``, ``round_to_format`` and the binade
cache of ``ArithmeticContext.sum``, fp64 included), so this function checks
it independently, as does the array definition ``_round_by_scaling`` in
``test_table_chop``.  The scalar kernels add one term at a time with
``round_reference``, the sum ``ArithmeticContext.sum`` must reproduce.  They
add every term, so they are the independent check of the additions that
``ArithmeticContext.sum`` skips as unable to change its partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from lselab.precision import FloatFormat


@dataclass
class Result:
    """One vector's log-sum-exp ``y``, softmax ``g`` and raised flags."""

    y: float
    g: list[float]
    flags: set[str] = field(default_factory=set)


def round_reference(x: float, fmt: FloatFormat) -> float:
    """Round a binary64 value to the nearest ``fmt``-representable value.

    Ties to even.  Magnitudes beyond the overflow threshold map to +-inf,
    magnitudes below the underflow threshold to +-0 (or the nearest
    subnormal when the format supports them).  NaN maps to NaN.
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


class ScalarContext:
    def __init__(self, fmt: FloatFormat):
        self.fmt = fmt

    def round(self, x: float) -> float:
        return round_reference(x, self.fmt)

    def add(self, a: float, b: float) -> float:
        return self.round(a + b)

    def sub(self, a: float, b: float) -> float:
        return self.round(a - b)

    def div(self, a: float, b: float) -> float:
        if b == 0.0:
            if a != a or a == 0.0:
                return math.nan
            return math.copysign(math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
        return self.round(a / b)

    def exp(self, a: float) -> float:
        try:
            return self.round(math.exp(a))
        except OverflowError:
            return math.inf

    def log(self, a: float) -> float:
        if a != a or a < 0.0:
            return math.nan
        if a == 0.0:
            return -math.inf
        return self.round(math.log(a))

    def log1p(self, a: float) -> float:
        if a != a or a < -1.0:
            return math.nan
        if a == -1.0:
            return -math.inf
        return self.round(math.log1p(a))


def _result_flags(y: float, g: list[float], flags: set[str]) -> set[str]:
    values = [y, *g]
    if any(math.isinf(v) for v in values):
        flags.add("produced_inf")
    if any(v != v for v in values):
        flags.add("produced_nan")
    return flags


def lse_softmax_basic(x: list[float], ctx: ScalarContext) -> Result:
    flags: set[str] = set()
    w = [ctx.exp(xi) for xi in x]
    s = w[0]
    for wi in w[1:]:
        s = ctx.add(s, wi)
    if any(math.isinf(wi) for wi in w) or math.isinf(s):
        flags.add("overflowed")
    if s == 0.0:
        flags.add("sum_underflowed_to_zero")
    y = ctx.log(s)
    g = [ctx.div(wi, s) for wi in w]
    return Result(y, g, _result_flags(y, g, flags))


def lse_softmax_shifted(x: list[float], ctx: ScalarContext) -> Result:
    a = max(x)
    k = x.index(a)
    w = [ctx.exp(ctx.sub(xi, a)) for xi in x]
    s = 0.0
    for i, wi in enumerate(w):
        if i != k:
            s = ctx.add(s, wi)
    y = ctx.add(a, ctx.log1p(s))
    one_plus_s = ctx.add(1.0, s)
    g = [ctx.div(wi, one_plus_s) for wi in w]
    return Result(y, g, _result_flags(y, g, set()))


def softmax_alt(x: list[float], y: float, ctx: ScalarContext) -> Result:
    flags: set[str] = set()
    g = [ctx.exp(ctx.sub(xj, y)) for xj in x]
    if any(math.isinf(gj) for gj in g):
        flags.add("overflowed")
    return Result(y, g, _result_flags(y, g, flags))


def lse_softmax_reference(x: list[float]) -> Result:
    a = max(x)
    k = x.index(a)
    w = [math.exp(xi - a) for xi in x]
    s = math.fsum(wi for i, wi in enumerate(w) if i != k)
    y = a + math.log1p(s)
    denom = math.fsum([1.0, *(wi for i, wi in enumerate(w) if i != k)])
    return Result(y, [wi / denom for wi in w])


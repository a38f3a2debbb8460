"""Scalar reference kernels: one vector, one operation, one rounding at a time.

These are the evaluation algorithms as lselab ran them before its kernels
took whole batches.  Every operation is computed with Python's binary64
arithmetic and the ``math`` module and rounded by ``round_to_format``, so the
batch kernels must reproduce their results bit for bit.
"""

from __future__ import annotations

import math

from lselab.kernels import EvalResult
from lselab.precision import FloatFormat, round_to_format


class ScalarContext:
    def __init__(self, fmt: FloatFormat):
        self.fmt = fmt

    def round(self, x: float) -> float:
        return round_to_format(x, self.fmt)

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


def lse_softmax_basic(x: list[float], ctx: ScalarContext) -> EvalResult:
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
    return EvalResult(y, g, _result_flags(y, g, flags), "basic")


def lse_softmax_shifted(x: list[float], ctx: ScalarContext) -> EvalResult:
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
    return EvalResult(y, g, _result_flags(y, g, set()), "shifted")


def softmax_alt(
    x: list[float], y: float, ctx: ScalarContext, from_shifted: bool = False
) -> EvalResult:
    flags: set[str] = set()
    g = [ctx.exp(ctx.sub(xj, y)) for xj in x]
    if any(math.isinf(gj) for gj in g):
        flags.add("overflowed")
    algorithm_id = "alt_shifted" if from_shifted else "alt_basic"
    return EvalResult(y, g, _result_flags(y, g, flags), algorithm_id)

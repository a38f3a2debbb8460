"""Evaluation algorithms for log-sum-exp and softmax.

Four variants: the basic (unshifted) form, the max-shifted form, and the
division-free alternative softmax fed by either log-sum-exp.  Each runs
under an :class:`~lselab.precision.ArithmeticContext`; its ``fp64`` format
is native binary64, the others simulate lower precision.

Numeric pathologies never raise: infinities and NaNs propagate with IEEE
semantics and are reported through ``EvalResult.flags``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .precision import ArithmeticContext
from .quantities import KERNELS

__all__ = [
    "EvalResult",
    "FLAG_OVERFLOWED",
    "FLAG_PRODUCED_INF",
    "FLAG_PRODUCED_NAN",
    "FLAG_SUM_UNDERFLOWED",
    "evaluate",
    "lse_softmax_basic",
    "lse_softmax_shifted",
    "softmax_alt",
]

FLAG_OVERFLOWED = "overflowed"
FLAG_PRODUCED_INF = "produced_inf"
FLAG_PRODUCED_NAN = "produced_nan"
FLAG_SUM_UNDERFLOWED = "sum_underflowed_to_zero"


@dataclass
class EvalResult:
    """Computed log-sum-exp scalar plus softmax vector with event flags."""

    y: float
    g: list[float]
    flags: set[str] = field(default_factory=set)
    algorithm_id: str = "basic"


def _check_vector(x: Sequence[float]) -> None:
    if len(x) == 0:
        raise ValueError("input vector must have length >= 1")
    for v in x:
        if not math.isfinite(v):
            raise ValueError("input vector entries must be finite")


def _result_flags(y: float, g: Sequence[float], flags: set[str]) -> set[str]:
    values = [y, *g]
    if any(math.isinf(v) for v in values):
        flags.add(FLAG_PRODUCED_INF)
    if any(v != v for v in values):
        flags.add(FLAG_PRODUCED_NAN)
    return flags


def lse_softmax_basic(x: Sequence[float], ctx: ArithmeticContext) -> EvalResult:
    """Unshifted evaluation: exponentiate, sum left to right, log, divide."""
    _check_vector(x)
    flags: set[str] = set()
    w = [ctx.exp(xi) for xi in x]
    s = w[0]
    for wi in w[1:]:
        s = ctx.add(s, wi)
    if any(math.isinf(wi) for wi in w) or math.isinf(s):
        flags.add(FLAG_OVERFLOWED)
    if s == 0.0:
        flags.add(FLAG_SUM_UNDERFLOWED)
    y = ctx.log(s)
    g = [ctx.div(wi, s) for wi in w]
    return EvalResult(y, g, _result_flags(y, g, flags), "basic")


def lse_softmax_shifted(x: Sequence[float], ctx: ArithmeticContext) -> EvalResult:
    """Max-shifted evaluation; every exponential argument is <= 0.

    The pivot (first index attaining the maximum) is excluded from the sum
    and re-enters exactly through log1p(s) and 1 + s, so the n = 1 case is
    exact and overflow cannot occur for finite inputs.
    """
    _check_vector(x)
    flags: set[str] = set()
    a = max(x)
    k = x.index(a) if isinstance(x, list) else list(x).index(a)
    w = [ctx.exp(ctx.sub(xi, a)) for xi in x]
    s = 0.0
    for i, wi in enumerate(w):
        if i != k:
            s = ctx.add(s, wi)
    y = ctx.add(a, ctx.log1p(s))
    one_plus_s = ctx.add(1.0, s)
    g = [ctx.div(wi, one_plus_s) for wi in w]
    return EvalResult(y, g, _result_flags(y, g, flags), "shifted")


def softmax_alt(
    x: Sequence[float],
    y: float,
    ctx: ArithmeticContext,
    from_shifted: bool = False,
) -> EvalResult:
    """Division-free softmax g_j = exp(x_j - y) for a precomputed log-sum-exp.

    ``from_shifted`` records which algorithm produced ``y`` (the error
    behavior differs between the two feeds).
    """
    _check_vector(x)
    flags: set[str] = set()
    g = [ctx.exp(ctx.sub(xj, y)) for xj in x]
    if any(math.isinf(gj) for gj in g):
        flags.add(FLAG_OVERFLOWED)
    algorithm_id = "alt_shifted" if from_shifted else "alt_basic"
    return EvalResult(y, g, _result_flags(y, g, flags), algorithm_id)


def evaluate(algorithm_id: str, x: Sequence[float], ctx: ArithmeticContext) -> EvalResult:
    """Run one algorithm by id; ``alt_*`` first runs the log-sum-exp feeding it."""
    if algorithm_id not in KERNELS:
        raise ValueError(f"unknown algorithm id: {algorithm_id!r}")
    from_shifted = algorithm_id.endswith("shifted")
    res = lse_softmax_shifted(x, ctx) if from_shifted else lse_softmax_basic(x, ctx)
    if algorithm_id.startswith("alt_"):
        res = softmax_alt(x, res.y, ctx, from_shifted=from_shifted)
    return res

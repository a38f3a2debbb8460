"""Evaluation algorithms for log-sum-exp and softmax.

Four variants: the basic (unshifted) form, the max-shifted form, and the
division-free alternative softmax fed by either log-sum-exp.  Each runs
under an :class:`~lselab.precision.ArithmeticContext`; its ``fp64`` format
is native binary64, the others simulate lower precision.

Each kernel takes a batch of equal-length vectors (a 2-D array, one vector
per row) and returns a :class:`BatchResult`; one vector is a one-row batch.
Elementwise steps run on the whole batch; each row's sum is
``ArithmeticContext.sum``, strictly left to right, one rounded addition at a
time, as the paper's error analysis assumes.

Numeric pathologies never raise: infinities and NaNs propagate with IEEE
semantics and are reported through the result's flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .precision import ArithmeticContext, as_batch, per_row
from .quantities import KERNELS

__all__ = [
    "BatchResult",
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
class BatchResult:
    """Results for a batch: ``y`` per row, ``g`` one row per vector, and
    each flag the kernel can raise as a boolean column."""

    y: np.ndarray
    g: np.ndarray
    flags: dict[str, np.ndarray]


def _result(y: np.ndarray, g: np.ndarray, flags: dict[str, np.ndarray]) -> BatchResult:
    flags[FLAG_PRODUCED_INF] = np.isinf(y) | np.isinf(g).any(axis=1)
    flags[FLAG_PRODUCED_NAN] = np.isnan(y) | np.isnan(g).any(axis=1)
    return BatchResult(y, g, flags)


def lse_softmax_basic(x, ctx: ArithmeticContext) -> BatchResult:
    """Unshifted evaluation: exponentiate, sum left to right, log, divide."""
    xs = as_batch(x)
    w = ctx.exp(xs)
    s = ctx.sum(w)
    flags = {
        FLAG_OVERFLOWED: np.isinf(w).any(axis=1) | np.isinf(s),
        FLAG_SUM_UNDERFLOWED: s == 0.0,
    }
    y = ctx.log(s)
    g = ctx.div(w, s[:, None])
    return _result(y, g, flags)


def lse_softmax_shifted(x, ctx: ArithmeticContext) -> BatchResult:
    """Max-shifted evaluation; every exponential argument is <= 0.

    The pivot (first index attaining the maximum) is excluded from the sum
    and re-enters exactly through log1p(s) and 1 + s, so the n = 1 case is
    exact and overflow cannot occur for finite inputs.  The sum sees the
    pivot's term as +0.0: adding +0.0 to a sum >= +0 is exact, so every
    rounded partial sum is that of the other terms alone.
    """
    xs = as_batch(x)
    rows = np.arange(len(xs))
    k = xs.argmax(axis=1)
    a = xs[rows, k]
    w = ctx.exp(ctx.sub(xs, a[:, None]))
    terms = w.copy()
    terms[rows, k] = 0.0
    s = ctx.sum(terms)
    y = ctx.add(a, ctx.log1p(s))
    g = ctx.div(w, ctx.add(1.0, s)[:, None])
    return _result(y, g, {})


def softmax_alt(x, y, ctx: ArithmeticContext) -> BatchResult:
    """Division-free softmax g_j = exp(x_j - y) for a precomputed log-sum-exp.

    ``y`` holds one log-sum-exp per row, from either log-sum-exp kernel;
    any other length raises ``ValueError``.
    """
    xs = as_batch(x)
    y = per_row(y, xs)
    g = ctx.exp(ctx.sub(xs, y[:, None]))
    return _result(y, g, {FLAG_OVERFLOWED: np.isinf(g).any(axis=1)})


def evaluate(algorithm_id: str, x, ctx: ArithmeticContext) -> BatchResult:
    """Run one algorithm by id; ``alt_*`` first runs the log-sum-exp feeding it."""
    if algorithm_id not in KERNELS:
        raise ValueError(f"unknown algorithm id: {algorithm_id!r}")
    shifted = algorithm_id.endswith("shifted")
    res = lse_softmax_shifted(x, ctx) if shifted else lse_softmax_basic(x, ctx)
    if algorithm_id.startswith("alt_"):
        res = softmax_alt(x, res.y, ctx)
    return res

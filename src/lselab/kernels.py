"""Evaluation algorithms for log-sum-exp and softmax.

Four variants: the basic (unshifted) form, the max-shifted form, and the
division-free alternative softmax fed by either log-sum-exp.  Each runs
under an :class:`~lselab.precision.ArithmeticContext`; its ``fp64`` format
is native binary64, the others simulate lower precision.

Each kernel takes one vector or a batch of equal-length vectors (a 2-D
array, one vector per row).  Elementwise steps run on the whole batch; each
row's sum is accumulated strictly left to right, one rounded addition at a
time, as the paper's error analysis assumes.  A batch gives a
:class:`BatchResult`, one vector an :class:`EvalResult`.

Numeric pathologies never raise: infinities and NaNs propagate with IEEE
semantics and are reported through the result's flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .precision import ArithmeticContext, FloatFormat, round_to_format
from .quantities import KERNELS

__all__ = [
    "BatchResult",
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


@dataclass
class BatchResult:
    """Results for a batch: ``y`` per row, ``g`` one row per vector, and
    each flag the kernel can raise as a boolean column."""

    y: np.ndarray
    g: np.ndarray
    flags: dict[str, np.ndarray]
    algorithm_id: str

    def row(self, i: int) -> EvalResult:
        flags = {name for name, col in self.flags.items() if col[i]}
        return EvalResult(float(self.y[i]), self.g[i].tolist(), flags, self.algorithm_id)


def _batch(x) -> tuple[np.ndarray, bool]:
    """The input as a 2-D float64 batch, and whether it was a single vector."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim not in (1, 2) or xs.shape[-1] == 0:
        raise ValueError("input vector must have length >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("input vector entries must be finite")
    return xs.reshape(-1, xs.shape[-1]), xs.ndim == 1


def _result(
    single: bool, y: np.ndarray, g: np.ndarray, flags: dict[str, np.ndarray], algorithm_id: str
) -> BatchResult | EvalResult:
    flags[FLAG_PRODUCED_INF] = np.isinf(y) | np.isinf(g).any(axis=1)
    flags[FLAG_PRODUCED_NAN] = np.isnan(y) | np.isnan(g).any(axis=1)
    res = BatchResult(y, g, flags, algorithm_id)
    return res.row(0) if single else res


def _sum_left_to_right(s: float, terms: Sequence[float], fmt: FloatFormat) -> float:
    for w in terms:
        s = round_to_format(s + w, fmt)
    return s


def lse_softmax_basic(x, ctx: ArithmeticContext) -> BatchResult | EvalResult:
    """Unshifted evaluation: exponentiate, sum left to right, log, divide."""
    xs, single = _batch(x)
    w = ctx.exp(xs)
    s = np.array([_sum_left_to_right(row[0], row[1:], ctx.fmt) for row in w.tolist()])
    flags = {
        FLAG_OVERFLOWED: np.isinf(w).any(axis=1) | np.isinf(s),
        FLAG_SUM_UNDERFLOWED: s == 0.0,
    }
    y = ctx.log(s)
    g = ctx.div(w, s[:, None])
    return _result(single, y, g, flags, "basic")


def lse_softmax_shifted(x, ctx: ArithmeticContext) -> BatchResult | EvalResult:
    """Max-shifted evaluation; every exponential argument is <= 0.

    The pivot (first index attaining the maximum) is excluded from the sum
    and re-enters exactly through log1p(s) and 1 + s, so the n = 1 case is
    exact and overflow cannot occur for finite inputs.
    """
    xs, single = _batch(x)
    k = xs.argmax(axis=1)
    a = xs[np.arange(len(xs)), k]
    w = ctx.exp(ctx.sub(xs, a[:, None]))
    s = np.array([
        _sum_left_to_right(0.0, row[:p] + row[p + 1:], ctx.fmt)
        for row, p in zip(w.tolist(), k.tolist())
    ])
    y = ctx.add(a, ctx.log1p(s))
    g = ctx.div(w, ctx.add(1.0, s)[:, None])
    return _result(single, y, g, {}, "shifted")


def softmax_alt(
    x,
    y,
    ctx: ArithmeticContext,
    from_shifted: bool = False,
) -> BatchResult | EvalResult:
    """Division-free softmax g_j = exp(x_j - y) for a precomputed log-sum-exp.

    ``y`` holds one log-sum-exp per row (a scalar for one vector).
    ``from_shifted`` says which algorithm produced ``y``; it only sets the
    result's ``algorithm_id`` (``alt_shifted`` or ``alt_basic``).
    """
    xs, single = _batch(x)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    g = ctx.exp(ctx.sub(xs, y[:, None]))
    flags = {FLAG_OVERFLOWED: np.isinf(g).any(axis=1)}
    algorithm_id = "alt_shifted" if from_shifted else "alt_basic"
    return _result(single, y, g, flags, algorithm_id)


def evaluate(algorithm_id: str, x, ctx: ArithmeticContext) -> BatchResult | EvalResult:
    """Run one algorithm by id; ``alt_*`` first runs the log-sum-exp feeding it."""
    if algorithm_id not in KERNELS:
        raise ValueError(f"unknown algorithm id: {algorithm_id!r}")
    from_shifted = algorithm_id.endswith("shifted")
    res = lse_softmax_shifted(x, ctx) if from_shifted else lse_softmax_basic(x, ctx)
    if algorithm_id.startswith("alt_"):
        res = softmax_alt(x, res.y, ctx, from_shifted=from_shifted)
    return res

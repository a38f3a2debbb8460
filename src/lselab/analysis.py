"""Condition numbers, softmax Jacobian, y-range and error-bound leading terms.

All quantities are evaluated in binary64 from oracle-grade reference values;
the bound formulas give the coefficient of the unit roundoff u in the
first-order relative error bound of each algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .oracle import lse_softmax_reference
from .quantities import QUANTITIES

__all__ = [
    "BoundReport",
    "ConditionReport",
    "ALGORITHM_IDS",
    "cond_lse",
    "softmax_jacobian",
    "cond_softmax",
    "y_range",
    "bound_leading_term",
    "condition_report",
]

# Bound ids grouped by the log-sum-exp that feeds them (basic, then shifted).
ALGORITHM_IDS = tuple(
    q.bound_id for q in sorted(QUANTITIES, key=lambda q: q.kernel.endswith("shifted"))
)


@dataclass(frozen=True)
class BoundReport:
    algorithm_id: str
    leading_factor: float
    n: int
    y: float
    x_max: float
    x_min: float
    max_dev: float  # max_j |x_j - y|


@dataclass(frozen=True)
class ConditionReport:
    cond_f: float
    cond_g_exact: float
    cond_g_upper: float
    jacobian: np.ndarray


def cond_lse(x: Sequence[float]) -> float:
    """Condition number of log-sum-exp in the infinity norm; +inf when y = 0."""
    y = lse_softmax_reference(x).y_ref
    xnorm = max(abs(v) for v in x)
    if y == 0.0:
        return math.inf
    return xnorm / abs(y)


def softmax_jacobian(x: Sequence[float]) -> np.ndarray:
    """Jacobian of softmax: diag(g) - g g^T, built from oracle-grade g."""
    g = np.array(lse_softmax_reference(x).g_ref)
    return np.diag(g) - np.outer(g, g)


def cond_softmax(x: Sequence[float]) -> tuple[float, float]:
    """(exact, upper) infinity-norm condition numbers of softmax.

    exact = ||G||_inf * ||x||_inf / ||g||_inf; upper = n * ||x||_inf.
    """
    ref = lse_softmax_reference(x)
    G = softmax_jacobian(x)
    xnorm = max(abs(v) for v in x)
    gnorm = max(abs(v) for v in ref.g_ref)
    norm_G = float(np.max(np.sum(np.abs(G), axis=1)))
    exact = norm_G * xnorm / gnorm
    upper = len(x) * xnorm
    return exact, upper


def y_range(x: Sequence[float]) -> tuple[float, float]:
    """A-priori bracket for log-sum-exp: [x_max, x_max + log n]."""
    x_max = max(x)
    return x_max, x_max + math.log(len(x))


def _leading_factor(
    algorithm_id: str, n: int, y: float, x_max: float, x_min: float, max_dev: float
) -> float:
    if algorithm_id == "basic_lse":
        return math.inf if y == 0.0 else 1.0 + (n + 1) / abs(y)
    if algorithm_id == "basic_softmax":
        return float(n + 3)
    if algorithm_id == "alt_softmax":
        return abs(y) + max_dev + n + 2
    if algorithm_id == "shifted_lse":
        return math.inf if y == 0.0 else abs(y + n - x_min) / abs(y)
    if algorithm_id == "shifted_softmax":
        return n + 2 + 2.0 * (x_max - x_min)
    if algorithm_id == "alt_shifted_softmax":
        return 1.0 + max_dev + abs(y + n - x_min)
    raise ValueError(f"unknown algorithm id: {algorithm_id!r}")


def bound_leading_term(
    algorithm_id: str, x: Sequence[float], y: float | None = None
) -> BoundReport:
    """Leading error-bound factor (coefficient of u) for one algorithm.

    ``y`` defaults to the oracle reference log-sum-exp of ``x``; passing a
    precomputed reference avoids re-running the oracle.
    """
    if y is None:
        y = lse_softmax_reference(x).y_ref
    n = len(x)
    x_max = max(x)
    x_min = min(x)
    max_dev = max(abs(xj - y) for xj in x)
    factor = _leading_factor(algorithm_id, n, y, x_max, x_min, max_dev)
    return BoundReport(algorithm_id, factor, n, y, x_max, x_min, max_dev)


def condition_report(x: Sequence[float]) -> ConditionReport:
    exact, upper = cond_softmax(x)
    return ConditionReport(cond_lse(x), exact, upper, softmax_jacobian(x))

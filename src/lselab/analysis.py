"""Condition numbers, softmax Jacobian, y-range and error-bound leading terms.

All quantities are evaluated in binary64 from oracle-grade reference values;
the bound formulas give the coefficient of the unit roundoff u in the
first-order relative error bound of each algorithm.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .oracle import Reference, lse_softmax_reference
from .precision import as_batch, per_row
from .quantities import QUANTITIES

__all__ = [
    "ALGORITHM_IDS",
    "cond_lse",
    "softmax_jacobian",
    "cond_softmax",
    "y_range",
    "bound_leading_term",
]

# Bound ids grouped by the log-sum-exp that feeds them (basic, then shifted).
ALGORITHM_IDS = tuple(
    q.bound_id for q in sorted(QUANTITIES, key=lambda q: q.kernel.endswith("shifted"))
)


def cond_lse(x: Sequence[float], ref: Reference | None = None) -> float:
    """Condition number of log-sum-exp in the infinity norm; +inf when y = 0.

    ``ref`` is the oracle reference of ``x``, computed when not given.
    """
    y = float((ref or lse_softmax_reference(x)).y_ref[0])
    xnorm = max(abs(v) for v in x)
    if y == 0.0:
        return math.inf
    return xnorm / abs(y)


def softmax_jacobian(x: Sequence[float], ref: Reference | None = None) -> np.ndarray:
    """Jacobian of softmax: diag(g) - g g^T, built from oracle-grade g."""
    g = (ref or lse_softmax_reference(x)).g_ref[0]
    # one n x n array, bit for bit diag(g) - outer(g, g): -(g_i g_j) + 0.0
    # is 0 - g_i g_j (a product that underflows gives +0.0, not -0.0), and
    # the diagonal then adds g_i, since a - b is a + (-b)
    G = np.multiply.outer(-g, g)
    G += 0.0
    G.flat[:: len(g) + 1] += g
    return G


def cond_softmax(x: Sequence[float], ref: Reference | None = None) -> tuple[float, float]:
    """(exact, upper) infinity-norm condition numbers of softmax.

    exact = ||G||_inf * ||x||_inf / ||g||_inf; upper = n * ||x||_inf.
    """
    ref = ref or lse_softmax_reference(x)
    G = softmax_jacobian(x, ref)
    xnorm = max(abs(v) for v in x)
    gnorm = max(abs(v) for v in ref.g_ref[0].tolist())
    norm_G = float(np.max(np.sum(np.abs(G), axis=1)))
    exact = norm_G * xnorm / gnorm
    upper = len(x) * xnorm
    return exact, upper


def y_range(x: Sequence[float]) -> tuple[float, float]:
    """A-priori bracket for log-sum-exp: [x_max, x_max + log n]."""
    x_max = max(x)
    return x_max, x_max + math.log(len(x))


def _leading_factor(
    algorithm_id: str,
    n: int,
    y: np.ndarray,
    x_max: np.ndarray,
    x_min: np.ndarray,
    max_dev: np.ndarray,
) -> np.ndarray:
    """The factor of each vector of length ``n``; the other arguments are
    columns with one entry per vector.

    y = 0 makes both log-sum-exp factors +inf through the division: the
    shifted numerator is at least n because x_min <= x_max <= y.
    """
    if algorithm_id == "basic_lse":
        return 1.0 + (n + 1) / np.abs(y)
    if algorithm_id == "basic_softmax":
        return np.full_like(y, n + 3)
    if algorithm_id == "alt_softmax":
        return np.abs(y) + max_dev + n + 2
    if algorithm_id == "shifted_lse":
        return np.abs(y + n - x_min) / np.abs(y)
    if algorithm_id == "shifted_softmax":
        return n + 2 + 2.0 * (x_max - x_min)
    if algorithm_id == "alt_shifted_softmax":
        return 1.0 + max_dev + np.abs(y + n - x_min)
    raise ValueError(f"unknown algorithm id: {algorithm_id!r}")


def bound_leading_term(
    algorithm_id: str, x: Sequence[float] | np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """Leading error-bound factor (coefficient of u) for one algorithm, one
    entry per row of ``x``.

    ``x`` is a (rows x n) batch or one vector, a one-row batch.  ``y`` holds
    one log-sum-exp per row (any other length raises ``ValueError``) and
    defaults to the oracle reference of ``x``; passing a precomputed
    reference avoids re-running the oracle.
    """
    rows = as_batch(x)
    if y is None:
        y = lse_softmax_reference(rows).y_ref
    y = per_row(y, rows)
    n = rows.shape[1]
    x_max = rows.max(axis=1)
    x_min = rows.min(axis=1)
    # y = 0 divides by zero, and x_j - y or a factor beyond binary64's range
    # overflows: both give +inf, the right value
    with np.errstate(divide="ignore", over="ignore"):
        max_dev = np.abs(rows - y[:, None]).max(axis=1)  # max_j |x_j - y|
        return _leading_factor(algorithm_id, n, y, x_max, x_min, max_dev)

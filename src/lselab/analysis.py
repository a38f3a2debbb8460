"""Condition numbers, y-range and error-bound leading terms.

All quantities are evaluated in binary64 from oracle-grade reference values.
``cond_softmax`` takes the infinity norm of the softmax Jacobian
G = diag(g) - g g^T from its closed form 2 max_i g_i (1 - g_i), in O(n) and
within 16u (u = 2^-53) of the exact value for the oracle's g.  The bound
formulas give the coefficient of the unit roundoff u in the first-order
relative error bound of each algorithm.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .oracle import Reference, lse_softmax_reference
from .precision import as_batch, per_row

__all__ = [
    "cond_lse",
    "cond_softmax",
    "y_range",
    "bound_leading_term",
]

def _one_row(x: Sequence[float]) -> np.ndarray:
    """``x`` as a float64 array; ``ValueError`` if it holds more than one row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim > 1 and a.size > a.shape[-1]:
        raise ValueError(f"expected one vector, got {len(a)} rows")
    return a


def _one_vector(x: Sequence[float], ref: Reference | None) -> tuple[np.ndarray, Reference]:
    """``x`` as a float64 array and its oracle reference: ``ref``, or computed
    when not given.  ``ValueError`` if either holds more than one row."""
    a = _one_row(x)
    ref = ref or lse_softmax_reference(a)
    if len(ref.y_ref) != 1:
        raise ValueError(f"expected one vector, got a reference of {len(ref.y_ref)} rows")
    return a, ref


def cond_lse(x: Sequence[float], ref: Reference | None = None) -> float:
    """Condition number of log-sum-exp in the infinity norm; +inf when y = 0.

    ``x`` is one vector and ``ref`` its oracle reference, computed when not
    given; a batch of more rows raises ``ValueError``.
    """
    a, ref = _one_vector(x, ref)
    y = float(ref.y_ref[0])
    xnorm = float(np.abs(a).max())
    if y == 0.0:
        return math.inf
    return xnorm / abs(y)


def cond_softmax(x: Sequence[float], ref: Reference | None = None) -> tuple[float, float]:
    """(exact, upper) infinity-norm condition numbers of softmax of one vector.

    exact = ||G||_inf * ||x||_inf / ||g||_inf; upper = n * ||x||_inf.

    G = diag(g) - g g^T, and row i of |G| sums to 2 g_i (1 - g_i) because
    the other g_j sum to 1 - g_i, so ||G||_inf = 2 max_i g_i (1 - g_i).
    Only the pivot k, the entry the oracle shifts by, can have g_k near 1;
    its 1 - g_k is s/(1 + s) from the oracle's pivot-zeroed sum s, which
    does not cancel.  Every other g_i is at most 1/2, so 1 - g_i is one
    correct rounding.  Unless some g_i or the result is subnormal, the
    result is within 16u of the exact value for the oracle's g.
    """
    a, ref = _one_vector(x, ref)
    g = ref.g_ref[0]
    s = float(ref.s[0])
    k = a.argmax()  # the oracle's pivot: the first index of the maximum
    h = g * (1.0 - g)
    h[k] = g[k] * (s / (1.0 + s))
    xnorm = float(np.abs(a).max())
    gnorm = float(g.max())
    # 2 max h / ||g|| <= 2, so only the result itself can overflow or be subnormal
    exact = 2.0 * float(h.max()) / gnorm * xnorm
    upper = g.size * xnorm
    return exact, upper


def y_range(x: Sequence[float]) -> tuple[float, float]:
    """A-priori bracket for log-sum-exp: [x_max, x_max + log n].

    ``x`` is one vector; a batch of more rows raises ``ValueError``."""
    a = _one_row(x).ravel()
    x_max = float(a[a.argmax()])  # the first of equal maxima: -0.0 for (-0.0, 0.0)
    return x_max, x_max + math.log(a.size)


def bound_leading_term(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> dict[str, np.ndarray]:
    """Leading error-bound factor (coefficient of u) of every algorithm, as
    ``{bound id: factor column}`` with one entry per row of ``x``.

    ``x`` is a (rows x n) batch or one vector, a one-row batch.  ``y`` holds
    one oracle log-sum-exp per row; any other length raises ``ValueError``.
    The keys come in analyze's print order: the ids fed by the basic
    log-sum-exp, then those fed by the shifted one.

    y = 0 makes both log-sum-exp factors +inf through the division: the
    shifted numerator is at least n because x_min <= x_max <= y.
    """
    rows = as_batch(x)
    y = per_row(y, rows)
    n = rows.shape[1]
    x_max = rows.max(axis=1)
    x_min = rows.min(axis=1)
    abs_y = np.abs(y)
    # y = 0 divides by zero, and x_j - y or a factor beyond binary64's range
    # overflows: both give +inf, the right value
    with np.errstate(divide="ignore", over="ignore"):
        max_dev = np.abs(rows - y[:, None]).max(axis=1)  # max_j |x_j - y|
        shifted_num = np.abs(y + n - x_min)
        return {
            "basic_lse": 1.0 + (n + 1) / abs_y,
            "basic_softmax": np.full_like(y, n + 3),
            "alt_softmax": abs_y + max_dev + n + 2,
            "shifted_lse": shifted_num / abs_y,
            "shifted_softmax": n + 2 + 2.0 * (x_max - x_min),
            "alt_shifted_softmax": 1.0 + max_dev + shifted_num,
        }

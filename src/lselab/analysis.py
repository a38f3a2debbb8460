"""Condition numbers, y-range and error-bound leading terms.

Every function reads one oracle ``Reference``: its validated input ``x``,
its pivots ``k`` and its binary64 results, so nothing here validates input,
picks a pivot or runs the oracle again.  ``bound_leading_term`` takes a
reference of any number of rows; ``cond_lse``, ``cond_softmax`` and
``y_range`` take the reference of one vector.  ``cond_softmax`` takes the
infinity norm of the softmax Jacobian G = diag(g) - g g^T from its closed
form 2 max_i g_i (1 - g_i), in O(n) and within 16u (u = 2^-53) of the exact
value for the oracle's g.  The bound formulas give the coefficient of the
unit roundoff u in the first-order relative error bound of each algorithm.
"""

from __future__ import annotations

import math

import numpy as np

from .oracle import Reference

__all__ = [
    "cond_lse",
    "cond_softmax",
    "y_range",
    "bound_leading_term",
]


def _one_vector(ref: Reference) -> np.ndarray:
    """The input vector of ``ref``; ``ValueError`` if it holds more than one row."""
    if len(ref.x) != 1:
        raise ValueError(f"expected one vector, got a reference of {len(ref.x)} rows")
    return ref.x[0]


def cond_lse(ref: Reference) -> float:
    """Condition number of log-sum-exp in the infinity norm; +inf when y = 0."""
    a = _one_vector(ref)
    y = float(ref.y_ref[0])
    xnorm = float(np.abs(a).max())
    if y == 0.0:
        return math.inf
    return xnorm / abs(y)


def cond_softmax(ref: Reference) -> tuple[float, float]:
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
    a = _one_vector(ref)
    g = ref.g_ref[0]
    s = float(ref.s[0])
    k = ref.k[0]
    h = g * (1.0 - g)
    h[k] = g[k] * (s / (1.0 + s))
    xnorm = float(np.abs(a).max())
    gnorm = float(g.max())
    # 2 max h / ||g|| <= 2, so only the result itself can overflow or be subnormal
    exact = 2.0 * float(h.max()) / gnorm * xnorm
    upper = g.size * xnorm
    return exact, upper


def y_range(ref: Reference) -> tuple[float, float]:
    """A-priori bracket for log-sum-exp of one vector: [x_max, x_max + log n],
    x_max the pivot's entry, the first of equal maxima: -0.0 for (-0.0, 0.0)."""
    a = _one_vector(ref)
    x_max = float(a[ref.k[0]])
    return x_max, x_max + math.log(a.size)


def bound_leading_term(ref: Reference) -> dict[str, np.ndarray]:
    """Leading error-bound factor (coefficient of u) of every algorithm, as
    ``{bound id: factor column}`` with one entry per row of ``ref.x``, each
    fed the row's oracle log-sum-exp.  The keys come in analyze's print
    order: the ids fed by the basic log-sum-exp, then those fed by the
    shifted one.

    y = 0 makes both log-sum-exp factors +inf through the division: the
    shifted numerator is at least n because x_min <= x_max <= y.
    """
    rows, y = ref.x, ref.y_ref
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

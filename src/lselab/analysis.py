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

__all__ = [
    "cond_lse",
    "softmax_jacobian",
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


def _jacobian_rows(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of diag(g) - g g^T as one C-contiguous (len(rows) x n) array.

    Bit for bit the rows of diag(g) - outer(g, g): -(g_i g_j) + 0.0 is
    0 - g_i g_j (a product that underflows gives +0.0, not -0.0), and each
    row's diagonal entry then adds g_i, since a - b is a + (-b).
    """
    gr = g[rows]
    J = np.multiply.outer(-gr, g)
    J += 0.0
    J[np.arange(len(rows)), rows] += gr
    return J


def softmax_jacobian(x: Sequence[float], ref: Reference | None = None) -> np.ndarray:
    """Jacobian of softmax of one vector: diag(g) - g g^T, from oracle-grade g."""
    g = _one_vector(x, ref)[1].g_ref[0]
    return _jacobian_rows(g, np.arange(len(g)))


_U = math.ldexp(1.0, -53)  # unit roundoff of binary64
_ETA = math.ldexp(1.0, -1074)  # smallest subnormal of binary64


def _row_sum_bounds(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo_i <= r_i <= hi_i, in O(n), where r_i is row i of
    ``np.sum(np.abs(G), axis=1)`` for G = diag(g) - g g^T as built by
    :func:`_jacobian_rows`, or its sum in any other order.

    For 0 <= g_j <= 1 and n u <= 2^-30, with u = 2^-53, eta = 2^-1074 and
    M = 1 + sum_j g_j, so that E_i = g_i (M - 2 g_i) is the exact row sum of
    |diag(g) - g g^T|:
    - row i of |G| holds fl(g_i - fl(g_i^2)) and fl(g_i g_j), j != i, all
      >= 0; a product is ab(1 + d) + e with |d| <= u and |e| <= eta/2, so
      the entries' exact sum T_i is within u g_i M + n eta/2 of E_i;
    - n nonnegative terms added in any order give r_i within
      gamma_{n-1} T_i of T_i (gamma_k = ku/(1 - ku); a sum that is
      subnormal is exact, and T_i <= n cannot overflow);
    - s = fl(1 + g.sum()), summed in any order, is within
      (u + gamma_{n-1}) M of M.
    So |r_i - g_i (s - 2 g_i)| <= 2n u g_i s + (n + 1) eta/2 to first
    order in nu.  hi_i = fl(fl(fl(s + k) - 2 g_i) g_i) + c and lo_i, from
    s - k and - c, lose at most 3u g_i (s + k) + eta/2 more, so
    k = (2n + 8)u s and c = (n + 2) eta bound r_i.  Adding or taking c
    rounds to nearest, which cannot cross the float r_i.
    """
    n = g.size
    s = 1.0 + float(g.sum())
    k = (2 * n + 8) * _U * s
    c = (n + 2) * _ETA
    hi = g * -2.0
    lo = hi + (s - k)
    lo *= g
    lo -= c
    hi += s + k
    hi *= g
    hi += c
    return lo, hi


def cond_softmax(x: Sequence[float], ref: Reference | None = None) -> tuple[float, float]:
    """(exact, upper) infinity-norm condition numbers of softmax of one vector.

    exact = ||G||_inf * ||x||_inf / ||g||_inf; upper = n * ||x||_inf.

    ||G||_inf is the largest row sum of |G|, G = diag(g) - g g^T, bit for
    bit as summed over the whole matrix, but only the rows that can hold it
    are built: those whose upper bound from :func:`_row_sum_bounds` reaches
    the largest lower bound.  The row with the largest sum is always among
    them.  On a typical vector that is one row, so the cost is O(n); when
    every g_i is equal every row is a candidate, O(n^2).
    """
    a, ref = _one_vector(x, ref)
    g = ref.g_ref[0]
    lo, hi = _row_sum_bounds(g)
    J = _jacobian_rows(g, (hi >= lo.max()).nonzero()[0])
    xnorm = float(np.abs(a).max())
    gnorm = float(abs(g).max())
    norm_G = float(abs(J).sum(axis=1).max())
    exact = norm_G * xnorm / gnorm
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

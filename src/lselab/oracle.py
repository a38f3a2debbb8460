"""High-accuracy reference evaluation and scaled-error measurement.

The reference runs the shifted algorithm in binary64 with exact
(Shewchuk-style) compensated summation of the exponential terms.  Each
shift x_j - x_k is one binary64 subtraction, off by up to half an ulp of
the difference, so g_j carries up to 2^-45 relative error for
|x_j - x_k| in [256, 512), and up to 2^-44 beyond.  That still leaves, only
just, the 2^20 precision headroom over fp32 (u = 2^-24) that ``measurable``
requires, so scaled errors of g measured against it are meaningful for
fp16, bfloat16 and fp32 -- but not for fp64 itself.

For y the headroom holds only away from y = 0.  y = a + log1p(s) carries
an absolute error of about 2^-53 (|a| + log1p(s)), a relative one that
grows like 1/|y|: near-singular fp32 suites (n = 1000, |y| down to 4e-10)
measured oracle errors up to 12.5 u|y|.  The fp16 and bfloat16 grids keep
|y| far enough from 0 (below 3e-9 u|y| on such suites).

``lse_softmax_reference`` takes a (rows x n) batch, one vector being a
one-row batch; the experiment engine calls it once per batch of
equal-length vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import FloatFormat, as_batch

__all__ = [
    "Reference",
    "lse_softmax_reference",
    "scaled_error",
    "scaled_error_vec",
    "measurable",
]

# A target format qualifies for scaled-error measurement only if the
# binary64 reference has at least 2^20 precision headroom over it.
_MIN_MEASURABLE_U = math.ldexp(1.0, 20 - 53)


@dataclass(frozen=True)
class Reference:
    """The oracle's input and results for a (rows x n) batch: ``x`` the
    validated batch, ``k`` each row's pivot, the first index of its maximum,
    ``y_ref`` the log-sum-exp, one entry per row, ``g_ref`` the softmax, one
    row per vector, and ``s`` each row's pivot-zeroed sum sum_{j != k}
    exp(x_j - x_k), so that g_k = 1/(1 + s) and 1 - g_k = s/(1 + s)."""

    x: np.ndarray
    k: np.ndarray
    y_ref: np.ndarray
    g_ref: np.ndarray
    s: np.ndarray


def lse_softmax_reference(x) -> Reference:
    """Binary64 shifted evaluation with compensated summation.

    ``x`` is a (rows x n) batch or one vector, a one-row batch.  Every
    x_i - a is one binary64 subtraction and every exp a C-library ``exp``,
    and the two sums are exact (``math.fsum``), so a row's result does not
    depend on the batch.  The subtraction bounds the accuracy of g: up to
    2^-45 relative error where |x_i - a| is in [256, 512), up to 2^-44
    beyond (see the module docstring).
    """
    rows = as_batch(x)
    n = rows.shape[1]
    k = rows.argmax(axis=1)  # the pivot: the first index attaining the maximum
    a = rows[np.arange(len(rows)), k]
    with np.errstate(over="ignore"):  # x_i - a below binary64's range is -inf
        shifted = (rows - a[:, None]).ravel().tolist()
    w = list(map(math.exp, shifted))
    s = []
    denom = []
    for i, p in enumerate(k.tolist()):
        row = w[i * n:(i + 1) * n]
        # the pivot's term is exp(0) = 1 exactly: the row as it is sums to
        # 1 + s, and with the pivot zeroed to s
        denom.append(math.fsum(row))
        row[p] = 0.0
        s.append(math.fsum(row))
    y = a + np.array(list(map(math.log1p, s)))
    g = np.array(w).reshape(rows.shape) / np.array(denom)[:, None]
    return Reference(rows, k, y, g, np.array(s))


def measurable(fmt: FloatFormat) -> bool:
    """Whether the oracle has 2^20 precision headroom over ``fmt``: u >= 2^-33.
    That covers g, and y only away from y = 0 (see the module docstring)."""
    return fmt.unit_roundoff >= _MIN_MEASURABLE_U


def scaled_error(computed: np.ndarray, reference: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """|computed - reference| / (u * |reference|) entrywise on two arrays of
    one shape, u the unit roundoff of ``fmt``; +inf where computed is inf or
    NaN or reference is 0."""
    with np.errstate(all="ignore"):
        err = np.abs(computed - reference) / (fmt.unit_roundoff * np.abs(reference))
    return np.where((reference == 0.0) | ~np.isfinite(computed), np.inf, err)


def scaled_error_vec(computed: np.ndarray, reference: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """max |computed - reference| / (u * max |reference|) of each row of two
    (rows x n) arrays of one shape, u the unit roundoff of ``fmt``; +inf where
    a computed row has an inf or NaN entry or a reference row is 0."""
    norm_ref = np.abs(reference).max(axis=1)
    with np.errstate(all="ignore"):
        err = np.abs(computed - reference).max(axis=1) / (fmt.unit_roundoff * norm_ref)
    return np.where((norm_ref == 0.0) | ~np.isfinite(computed).all(axis=1), np.inf, err)

"""High-accuracy reference evaluation and scaled-error measurement.

The reference runs the shifted algorithm in binary64 with exact
(Shewchuk-style) compensated summation of the exponential terms, giving
roughly full binary64 accuracy.  That leaves >= 2^20 precision headroom
over every sub-double target format, so scaled errors measured against it
are meaningful for fp16, bfloat16 and fp32 -- but not for fp64 itself.

``lse_softmax_reference`` takes one vector or a (rows x n) batch; the
experiment engine calls it once per batch of equal-length vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .precision import FloatFormat

__all__ = [
    "Reference",
    "lse_softmax_reference",
    "scaled_error",
    "scaled_error_vec",
    "scaled_errors",
    "scaled_errors_vec",
    "measurable",
]

# A target format qualifies for scaled-error measurement only if the
# binary64 reference has at least 2^20 precision headroom over it.
_MIN_MEASURABLE_U = math.ldexp(1.0, 20 - 53)


@dataclass(frozen=True)
class Reference:
    """The oracle's log-sum-exp and softmax: a float and a tuple for one
    vector, arrays for a batch."""

    y_ref: float | np.ndarray
    g_ref: tuple[float, ...] | np.ndarray


def lse_softmax_reference(x) -> Reference:
    """Binary64 shifted evaluation with compensated summation.

    ``x`` is one vector or a (rows x n) batch.  For a batch, ``y_ref`` is an
    array with one entry per row and ``g_ref`` a (rows x n) array.  Each row
    gets the same operations as a single vector: every x_i - a is one
    binary64 subtraction and every exp a C-library ``exp``, and the two sums
    are exact (``math.fsum``), so a row's result does not depend on the batch.
    """
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim not in (1, 2) or xs.shape[-1] == 0:
        raise ValueError("input vector must have length >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("input vector entries must be finite")
    rows = xs.reshape(-1, xs.shape[-1])
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
    if xs.ndim == 1:
        return Reference(float(y[0]), tuple(g[0].tolist()))
    return Reference(y, g)


def measurable(fmt: FloatFormat) -> bool:
    return fmt.unit_roundoff >= _MIN_MEASURABLE_U


def scaled_error(computed: float, reference: float, fmt: FloatFormat) -> float:
    """|computed - reference| / (u * |reference|); +inf for inf/NaN results."""
    if reference == 0.0 or reference != reference:
        raise ValueError("scaled error is undefined for a zero reference")
    return float(scaled_errors(np.array([computed]), np.array([reference]), fmt)[0])


def scaled_error_vec(
    computed: Sequence[float], reference: Sequence[float], fmt: FloatFormat
) -> float:
    """Infinity-norm analogue of :func:`scaled_error`."""
    if len(computed) != len(reference):
        raise ValueError(
            f"length mismatch: {len(computed)} computed vs {len(reference)} reference"
        )
    norm_ref = max(abs(r) for r in reference)
    if norm_ref == 0.0 or norm_ref != norm_ref:
        raise ValueError("scaled error is undefined for a zero reference vector")
    return float(scaled_errors_vec(np.array([computed]), np.array([reference]), fmt)[0])


def scaled_errors(computed: np.ndarray, reference: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """:func:`scaled_error` of each entry; +inf where the reference is 0."""
    with np.errstate(all="ignore"):
        err = np.abs(computed - reference) / (fmt.unit_roundoff * np.abs(reference))
    return np.where((reference == 0.0) | ~np.isfinite(computed), np.inf, err)


def scaled_errors_vec(
    computed: np.ndarray, reference: np.ndarray, fmt: FloatFormat
) -> np.ndarray:
    """:func:`scaled_error_vec` of each row of two (rows x n) arrays; +inf
    where a reference row is 0."""
    norm_ref = np.abs(reference).max(axis=1)
    with np.errstate(all="ignore"):
        err = np.abs(computed - reference).max(axis=1) / (fmt.unit_roundoff * norm_ref)
    return np.where((norm_ref == 0.0) | ~np.isfinite(computed).all(axis=1), np.inf, err)

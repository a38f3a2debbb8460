"""High-accuracy reference evaluation and scaled-error measurement.

The reference runs the shifted algorithm in binary64 with exact
(Shewchuk-style) compensated summation of the exponential terms, giving
roughly full binary64 accuracy.  That leaves >= 2^20 precision headroom
over every sub-double target format, so scaled errors measured against it
are meaningful for fp16, bfloat16 and fp32 -- but not for fp64 itself.
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
    y_ref: float
    g_ref: tuple[float, ...]
    method: str = "compensated-shifted"


def lse_softmax_reference(x: Sequence[float]) -> Reference:
    """Binary64 shifted evaluation with compensated summation."""
    if len(x) == 0:
        raise ValueError("input vector must have length >= 1")
    for v in x:
        if not math.isfinite(v):
            raise ValueError("input vector entries must be finite")
    a = max(x)
    k = list(x).index(a)
    w = [math.exp(xi - a) for xi in x]
    s = math.fsum(wi for i, wi in enumerate(w) if i != k)
    y = a + math.log1p(s)
    denom = math.fsum([1.0, *(wi for i, wi in enumerate(w) if i != k)])
    g = tuple(wi / denom for wi in w)
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

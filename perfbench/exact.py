"""Independent model of lselab's record columns, used to check its outputs.

Nothing here imports lselab.  Rounding is done on exact rationals
(``fractions.Fraction``) to the nearest representable value, ties to even;
``+``, ``-`` and ``/`` are computed exactly and rounded once, so the model does not rely
on lselab's claim that rounding a binary64 intermediate is harmless.
``exp``, ``log`` and ``log1p`` have no exact rational value: the model takes
binary64 libm results and rounds those, as the paper's standard model does.
The reference is the max-shifted evaluation with ``math.fsum`` sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np


class Format(NamedTuple):
    t: int  # significand bits, implicit bit included
    emin: int
    emax: int
    subnormals: bool

    @property
    def u(self) -> float:
        return math.ldexp(1.0, -self.t)


# IEEE 754 binary16 and binary32, and bfloat16 without subnormals (as lselab models it).
FORMATS = {
    "fp16": Format(11, -14, 15, True),
    "bfloat16": Format(8, -126, 127, False),
    "fp32": Format(24, -126, 127, True),
}


def round_exact(q: Fraction | float, fmt: Format) -> float:
    """Round a finite exact value (or pass a non-finite float) to ``fmt``."""
    if isinstance(q, float):
        if not math.isfinite(q):
            return q
        sign = math.copysign(1.0, q)
        q = Fraction(q)
    else:
        sign = -1.0 if q < 0 else 1.0
    mag = abs(q)
    if mag == 0:
        return math.copysign(0.0, sign)
    e = mag.numerator.bit_length() - mag.denominator.bit_length()
    if mag < Fraction(2) ** e:
        e -= 1  # now 2^e <= mag < 2^(e+1)
    r_min = Fraction(2) ** fmt.emin
    if e < fmt.emin and not fmt.subnormals:
        # Representable neighbours are 0 and r_min; the tie goes to 0 (even).
        return math.copysign(0.0 if mag <= r_min / 2 else float(r_min), sign)
    qexp = max(e, fmt.emin) - (fmt.t - 1)
    k = round(mag / Fraction(2) ** qexp)  # Fraction.__round__ ties to even
    r_max = (2 - Fraction(2) ** (1 - fmt.t)) * Fraction(2) ** fmt.emax
    if k * Fraction(2) ** qexp > r_max:
        return math.copysign(math.inf, sign)
    return math.copysign(math.ldexp(k, qexp), sign)


class Arith:
    """One format's rounded operations."""

    def __init__(self, fmt: Format):
        self.fmt = fmt

    def round(self, x: float) -> float:
        return round_exact(x, self.fmt)

    def add(self, a: float, b: float) -> float:
        if not (math.isfinite(a) and math.isfinite(b)):
            return a + b
        if a == 0.0 and b == 0.0:
            return a + b  # signed-zero rule
        return round_exact(Fraction(a) + Fraction(b), self.fmt)

    def sub(self, a: float, b: float) -> float:
        return self.add(a, -b)

    def div(self, a: float, b: float) -> float:
        if b == 0.0:
            if a != a or a == 0.0:
                return math.nan
            return math.copysign(math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
        if math.isfinite(a) and math.isfinite(b) and a != 0.0:
            return round_exact(Fraction(a) / Fraction(b), self.fmt)
        return a / b  # exact IEEE results: a zero, infinite or NaN operand

    def exp(self, a: float) -> float:
        try:
            v = math.exp(a)
        except OverflowError:
            v = math.inf
        return round_exact(v, self.fmt)

    def log(self, a: float) -> float:
        if a == 0.0:
            return -math.inf
        return round_exact(math.log(a) if math.isfinite(a) else a, self.fmt)

    def log1p(self, a: float) -> float:
        return round_exact(math.log1p(a) if math.isfinite(a) else a, self.fmt)


def basic(x: Sequence[float], ar: Arith) -> tuple[float, list[float]]:
    """exp, left-to-right sum, log, divide."""
    w = [ar.exp(v) for v in x]
    s = w[0]
    for v in w[1:]:
        s = ar.add(s, v)
    return ar.log(s), [ar.div(v, s) for v in w]


def shifted(x: Sequence[float], ar: Arith) -> tuple[float, list[float]]:
    """Shift by the first maximum; the pivot's exp(0) = 1 re-enters via log1p and 1 + s."""
    a = max(x)
    k = list(x).index(a)
    w = [ar.exp(ar.sub(v, a)) for v in x]
    s = 0.0
    for i, v in enumerate(w):
        if i != k:
            s = ar.add(s, v)
    y = ar.add(a, ar.log1p(s))
    d = ar.add(1.0, s)
    return y, [ar.div(v, d) for v in w]


def alt(x: Sequence[float], y: float, ar: Arith) -> list[float]:
    """Division-free softmax exp(x_j - y)."""
    return [ar.exp(ar.sub(v, y)) for v in x]


def reference(x: Sequence[float]) -> tuple[float, list[float]]:
    """binary64 shifted evaluation with exactly rounded (fsum) sums."""
    a = max(x)
    k = list(x).index(a)
    w = [math.exp(v - a) for v in x]
    rest = [v for i, v in enumerate(w) if i != k]
    y = a + math.log1p(math.fsum(rest))
    d = math.fsum([1.0, *rest])
    return y, [v / d for v in w]


def _err(c: float, r: float, u: float) -> float:
    if r == 0.0 or not math.isfinite(c):
        return math.inf
    return abs(c - r) / (u * abs(r))


def _err_vec(c: Sequence[float], r: Sequence[float], u: float) -> float:
    norm = max(abs(v) for v in r)
    if norm == 0.0 or any(not math.isfinite(v) for v in c):
        return math.inf
    return max(abs(a - b) for a, b in zip(c, r)) / (u * norm)


def _sum_dev(g: Sequence[float], u: float) -> float:
    if any(not math.isfinite(v) for v in g):
        return math.inf
    return abs(math.fsum(g) - 1.0) / u


# The record columns the model reproduces; bnd_* and flags are not modelled.
CHECKED_COLUMNS = (
    "xmax", "xmin", "y_ref",
    "err_lse_basic", "err_lse_shift", "err_sm_basic", "err_sm_shift",
    "err_sm_alt", "err_sm_altshift",
    "sum_dev_basic", "sum_dev_shift", "sum_dev_alt", "sum_dev_altshift",
)


def record_columns(x: Sequence[float], fmt_name: str) -> dict[str, float]:
    """Model values of :data:`CHECKED_COLUMNS` for one input vector."""
    fmt = FORMATS[fmt_name]
    ar = Arith(fmt)
    u = fmt.u
    xr = [ar.round(float(v)) for v in x]
    y_ref, g_ref = reference(xr)
    yb, gb = basic(xr, ar)
    ys, gs = shifted(xr, ar)
    ga, gas = alt(xr, yb, ar), alt(xr, ys, ar)
    return {
        "xmax": max(xr),
        "xmin": min(xr),
        "y_ref": y_ref,
        "err_lse_basic": _err(yb, y_ref, u),
        "err_lse_shift": _err(ys, y_ref, u),
        "err_sm_basic": _err_vec(gb, g_ref, u),
        "err_sm_shift": _err_vec(gs, g_ref, u),
        "err_sm_alt": _err_vec(ga, g_ref, u),
        "err_sm_altshift": _err_vec(gas, g_ref, u),
        "sum_dev_basic": _sum_dev(gb, u),
        "sum_dev_shift": _sum_dev(gs, u),
        "sum_dev_alt": _sum_dev(ga, u),
        "sum_dev_altshift": _sum_dev(gas, u),
    }


def evaluate(alg: str, x: Sequence[float], fmt_name: str) -> tuple[float, list[float]]:
    """Model of ``lselab eval --alg <alg>``: round the input, then evaluate."""
    ar = Arith(FORMATS[fmt_name])
    xr = [ar.round(float(v)) for v in x]
    if alg == "basic":
        return basic(xr, ar)
    if alg == "shifted":
        return shifted(xr, ar)
    y = (shifted if alg == "alt-shifted" else basic)(xr, ar)[0]
    return y, alt(xr, y, ar)


def philox_uniform(seed: int, trial_id: int, lo: float, hi: float, n: int) -> list[float]:
    """The documented ``--gen uniform:lo,hi`` stream: Philox(seed) jumped by trial id."""
    rng = np.random.Generator(np.random.Philox(seed).jumped(trial_id))
    return [float(v) for v in rng.uniform(lo, hi, n)]


def same(a: float, b: float) -> bool:
    """Value equality, with NaN equal to NaN (signed zeros compare equal)."""
    return a == b or (a != a and b != b)

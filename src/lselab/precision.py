"""Reduced-precision binary floating-point simulation on top of binary64.

Every elementary operation and math function is computed in binary64 and its
result rounded to the target format (round-to-nearest, ties-to-even).
``FloatFormat`` accepts only formats for which that is correct rounding.
``ArithmeticContext`` holds every operation the kernels run, a row's
left-to-right ``sum`` included, so no other module rounds.

``chop`` rounds a whole float64 array, ``round_to_format`` one value, bit for
bit alike, as Higham & Pranesh's ``chop`` rounds ("Simulating low precision
floating-point arithmetic", SIAM J. Sci. Comput., 2019).  There is one table
path for every binade of every format: one lookup of the constant C of x's
binade, copysign((x + C) - C, x), and one comparison, |r| > r_max, which
sends every result above r_max, and only those, to +-inf in both roundings.
In a binade whose spacing exceeds 2^971 (possible when emax > 970 + t), x
is first scaled by the binade's P, a power of two, and scaled back after;
only a format with such a binade reads P, and no named format has one.
``FloatFormat.binade_table`` holds C and P for every binade and derives
them, and ``FloatFormat.frexp_entries`` lists them for one scalar; for
binary64 every C is 0.0, the identity.

exp, log and log1p round the C library's value, as ``chop`` would.
``ArithmeticContext`` computes them with numpy's vector functions and the
same table, and calls the C library only for the entries that the table's
tie certificate cannot vouch for: numpy's value may differ from the C
library's in the last binary64 bit, which changes the rounded result only
within about 2^-40 |v| of a rounding tie of the format.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "ArithmeticContext",
    "format_params",
    "round_to_format",
    "chop",
    "as_batch",
    "NAMED_FORMATS",
]

# (precision_bits, emin, emax, subnormals_enabled)
NAMED_FORMATS = {
    "fp16": (11, -14, 15, True),
    "bfloat16": (8, -126, 127, False),
    "fp32": (24, -126, 127, True),
    "fp64": (53, -1022, 1023, True),
}

# With t <= 26 a binary64 result carries more than twice the format's
# precision, so operate-then-round is correctly rounded (see FloatFormat).
MAX_CUSTOM_PRECISION = 26

_CUSTOM_RE = re.compile(
    r"^custom:t=(-?\d+),emin=(-?\d+),emax=(-?\d+),subnormals=([01])$"
)


@dataclass(frozen=True)
class FloatFormat:
    """Parameters of a binary floating-point format that binary64 can simulate.

    ``precision_bits`` counts the significand bits including the implicit
    leading bit; ``emin``/``emax`` are the minimum/maximum exponents of
    normalized values (value range [2^emin, 2^emax * (2 - 2^(1-t))]).

    Construction raises ``ValueError`` unless the parameters are binary64's
    or 2 <= t <= 26, emin < emax <= 1023 and the grid near zero has spacing
    ``r_min_subnormal`` >= 2^-1022.  With t <= 26 a binary64 result carries
    more than twice the format's precision, so rounding it once more is
    correct rounding.  Below 2^-1022 binary64 itself loses precision, and a
    finer grid would round twice: with t = 11 and emin = -1060 the product
    478.5234375 * 2^-1070 becomes the tie 478.5 * 2^-1070 in binary64, and
    then 478 * 2^-1070 instead of 479 * 2^-1070.
    """

    name: str
    precision_bits: int
    emin: int
    emax: int
    subnormals_enabled: bool

    def __post_init__(self):
        t, emin, emax = self.precision_bits, self.emin, self.emax
        if (t, emin, emax, self.subnormals_enabled) == NAMED_FORMATS["fp64"]:
            return
        if not 2 <= t <= MAX_CUSTOM_PRECISION:
            raise ValueError(f"format needs 2 <= precision_bits <= {MAX_CUSTOM_PRECISION}, got {t}")
        if emin >= emax:
            raise ValueError(f"format needs emin < emax, got {emin} >= {emax}")
        if emax > 1023:
            raise ValueError(f"format needs emax <= 1023, got {emax}")
        if self.r_min_subnormal < 2.0**-1022:
            raise ValueError(
                "format needs spacing >= 2^-1022 near zero: emin - t + 1 >= -1022 "
                f"with subnormals, emin >= -1022 without; got t={t}, emin={emin}"
            )

    @functools.cached_property
    def unit_roundoff(self) -> float:
        return math.ldexp(1.0, -self.precision_bits)

    @functools.cached_property
    def r_min(self) -> float:
        return math.ldexp(1.0, self.emin)

    @functools.cached_property
    def r_min_subnormal(self) -> float:
        if not self.subnormals_enabled:
            return self.r_min
        return math.ldexp(1.0, self.emin - self.precision_bits + 1)

    @functools.cached_property
    def r_max(self) -> float:
        return math.ldexp(2.0 - math.ldexp(1.0, 1 - self.precision_bits), self.emax)

    @functools.cached_property
    def binade_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constants C, thresholds T and scales P that every rounding reads.

        Each column is a 2048-entry float64 array indexed by a double's biased
        exponent b: ``x.view(np.int64) >> 52`` is b for a positive x and
        b - 2048 for a negative one, which indexes from the end to entry b.
        Biased exponent b holds the binade [2^(e-1), 2^e) with e = b - 1022;
        b = 0 holds the zeros and binary64's subnormals, all below 2^emin,
        and b = 2047 holds +-inf and NaN.  ``frexp_entries`` holds the same
        P and C indexed by ``math.frexp`` exponent, for one scalar.

        *C and P.* Let 2^s be the format's spacing in the binade: s = e - t
        above 2^emin; below it s = emin - t + 1 (the subnormal spacing) with
        gradual underflow and s = emin (the grid {0, r_min}) when subnormals
        are flushed.  P = 2^-max(0, s - 971) and C = 1.5 * 2^(s + 52) * P,
        and copysign(((x * P + C) - C) / P, x) is x rounded to that grid,
        ties to even:

        * x * P is exact and maps the grid and its ties onto those of spacing
          2^s * P, the binary64 spacing of C's binade; or x * P < 2^-1022,
          so |x| < 2^(s - 1993) lies far below half the spacing, and both
          x rounded and (x * P + C) - C are 0;
        * |x * P| < 2^e * P <= C/3 (true for t <= 51), so x * P + C stays in
          C's binade;
        * that one addition rounds to nearest, ties to even, and
          C / (2^s * P) = 1.5 * 2^52 is even, so a tie goes to the same
          neighbour that ties-to-even rounding of x itself picks; below the
          smallest subnormal (or below r_min/2 when flushing) that neighbour
          is 0;
        * (x * P + C) - C is exact (both operands lie in one binade), and so
          is dividing it by P, which gives +-inf only for 2^1024 > r_max;
        * copysign gives a zero result x's sign (+0.0 would be wrong for a
          negative x).

        P = 1 wherever 1.5 * 2^(s + 52) is a finite double (s <= 971); a
        format with emax <= 970 + t, and emin <= 971 if it flushes, has it in
        every binade, and there multiplying and dividing by P change
        nothing, so the rounding leaves them out (``prescaled``).  On this
        grid the tie r_max + ulp/2 rounds above r_max, and the caller turns
        every result above r_max into +-inf.  One entry serves all of b = 0
        because the grid near zero is no finer than 2^-1022.

        *T.* T = ulp/2 - 2^(e-40), ulp the format's spacing in the binade.
        A value v of the binade whose rounding r lies closer than T lies
        farther than 2^(e-40) > 2^-40 |v| from every tie of the format;
        ``ArithmeticContext`` rests its exp, log and log1p on that.  Where
        binary64 cannot hold T it is rounded down.  At b = 0, T = 2^-1074:
        a zero passes (|v - r| = 0) and a binary64 subnormal, off the grid,
        does not.

        *Other regions.*  Every binade up to the top one is rounded by one
        table path, whatever the format.  Above the top binade (b = 2047
        included) C = 0.0, P = 1 and T = +inf: every finite value there
        overflows, and +-inf and NaN pass as they are.  binary64 has C = 0.0
        and P = 1, the identity, and T = -inf everywhere.
        """
        c, threshold, p = np.zeros(2048), np.full(2048, -np.inf), np.ones(2048)
        t, emin, emax = self.precision_bits, self.emin, self.emax
        if t <= MAX_CUSTOM_PRECISION:  # binary64 is the only format with more
            e = np.arange(-1022, 1026)
            s = np.where(e > emin, e - t, emin - t + 1 if self.subnormals_enabled else emin)
            c, p = np.ldexp(1.5, np.minimum(s, 971) + 52), np.ldexp(1.0, np.minimum(971 - s, 0))
            half_ulp = np.ldexp(1.0, s - 1)
            # where binary64 cannot hold 2^(s-1) - 2^(e-40), subtract half_ulp's last bit
            threshold = half_ulp - np.maximum(np.ldexp(1.0, e - 40), np.ldexp(half_ulp, -52))
            threshold[0] = 2.0**-1074
            above = e > emax + 1
            c[above], threshold[above], p[above] = 0.0, np.inf, 1.0
        return c, threshold, p

    @functools.cached_property
    def prescaled(self) -> bool:
        """Whether some binade of ``binade_table`` has P < 1: false exactly
        when emax <= 970 + t, and emin <= 971 if the format flushes, which
        every named format meets.  Without it a rounding is (x + C) - C."""
        return bool((self.binade_table[2] != 1.0).any())

    @functools.cached_property
    def frexp_entries(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """(P, C, lo, hi, quarter) for the scalar roundings, indexed by the
        ``math.frexp`` exponent e of a value v in [2^(e-1), 2^e): entries
        0..1024 and then -1073..-1, so that Python's negative indexing maps
        e to its own entry.  P and C are ``binade_table``'s for v's binade;
        frexp gives +-0, +-inf and NaN e = 0, whose entry rounds them to
        themselves.  lo, hi and quarter serve ``ArithmeticContext.sum``:
        where the binade [lo, hi) = [2^(e-1), 2^e) lies below the top one
        and has P = 1, quarter is 2^(s-2) = C / 1.5 * 2^-54 of binade
        max(e, emin + 1), 2^s its spacing; elsewhere lo = hi = quarter = 0.
        v's rounding r is 0 or a format value in [2^(e-1), 2^e], or for
        e <= emin in [0, r_min] (flushed or not), so a nonzero r has a
        spacing of at least 4 * quarter."""
        c, _, p = self.binade_table
        e = np.concatenate((np.arange(1025), np.arange(-1073, 0)))
        b = np.maximum(e + 1022, 0)  # the biased exponent of [2^(e-1), 2^e); 0 below 2^-1022
        quarter = np.ldexp(c[np.maximum(b, self.emin + 1023)], -54) / 1.5
        cached = (e <= self.emax) & (p[b] == 1.0)
        with np.errstate(over="ignore"):  # hi = 2^1024 at e = 1024, never cached
            lo, hi, quarter = np.where(cached, [np.ldexp(0.5, e), np.ldexp(1.0, e), quarter], 0.0).tolist()
        return tuple(zip(p[b].tolist(), c[b].tolist(), lo, hi, quarter))


@functools.lru_cache(maxsize=32)
def format_params(name: str) -> FloatFormat:
    """Resolve a format identifier to a fully populated :class:`FloatFormat`.

    Accepted identifiers: ``fp16``, ``bfloat16``, ``fp32``, ``fp64`` and
    ``custom:t=<bits>,emin=<e>,emax=<e>,subnormals=<0|1>``, with parameters
    that ``FloatFormat`` accepts.
    """
    if name in NAMED_FORMATS:
        return FloatFormat(name, *NAMED_FORMATS[name])
    m = _CUSTOM_RE.match(name)
    if m is None:
        raise ValueError(f"unknown floating-point format: {name!r}")
    t, emin, emax = int(m.group(1)), int(m.group(2)), int(m.group(3))
    return FloatFormat(name, t, emin, emax, m.group(4) == "1")


def round_to_format(x: float, fmt: FloatFormat) -> float:
    """Round a binary64 value to the nearest ``fmt``-representable value.

    Ties to even.  Magnitudes beyond the overflow threshold map to +-inf,
    magnitudes below the underflow threshold to +-0 (or the nearest
    subnormal when the format supports them).  NaN maps to NaN.  The result
    is carried in binary64 and the map is idempotent.
    """
    p, c, _, _, _ = fmt.frexp_entries[math.frexp(x)[1]]
    r = math.copysign(((x * p + c) - c) / p, x)  # see FloatFormat.binade_table
    return math.copysign(math.inf, x) if abs(r) > fmt.r_max else r


def chop(x, fmt: FloatFormat):
    """Round every entry of a float64 array to the nearest ``fmt`` value.

    Normal and subnormal values round to the nearest grid point (ties to
    even), magnitudes below the normal range of a format without subnormals
    flush to +-0 or +-r_min, overflow gives +-inf, and signed zeros,
    infinities and NaN pass through.  A scalar argument gives a
    ``numpy.float64``.

    Every entry is rounded as ``round_to_format`` rounds one value, with the
    (P, C) of x's binade in ``FloatFormat.binade_table``, then +-inf above
    r_max: one table path for every binade of every format.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _chop(x, fmt)


def _chop(x, fmt: FloatFormat):
    """``chop`` without its ``errstate``, for callers inside their own."""
    x = np.asarray(x, dtype=np.float64)
    r = _saturate(_round_by_table(x, x.view(np.int64) >> 52, fmt), x, fmt)
    return r[()]  # the array itself, or the scalar of a 0-d array


def _round_by_table(x: np.ndarray, field: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """((x * P + C) - C) / P with the P and C of each entry's binade, read at
    ``field = x.view(np.int64) >> 52`` in ``fmt.binade_table``: x rounded,
    before ``_saturate``; a zero result may carry the wrong sign.  Where
    every P is 1 (not ``fmt.prescaled``) it is (x + C) - C, the same bits
    with one table lookup."""
    c, _, p = fmt.binade_table
    c = c.take(field)
    if not fmt.prescaled:
        return (x + c) - c
    p = p.take(field)
    return ((x * p + c) - c) / p


def _saturate(r, x, fmt: FloatFormat) -> np.ndarray:
    """r with +-inf where |r| > r_max and the sign of x, which a zero r lacks; r is overwritten."""
    r = np.abs(r, out=np.asarray(r))  # a 0-d array, not a scalar, for the in-place steps
    r[r > fmt.r_max] = np.inf
    return np.copysign(r, x, out=r)


def as_batch(x) -> np.ndarray:
    """One vector or a (rows x n) batch as a (rows x n) float64 array.

    One vector is a one-row batch.  An empty vector, an array of any other
    shape, or a non-finite entry raises ``ValueError``.
    """
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim not in (1, 2) or xs.shape[-1] == 0:
        raise ValueError("input vector must have length >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("input vector entries must be finite")
    return xs.reshape(-1, xs.shape[-1])


def _libm(fast, a) -> np.ndarray:
    """``fast`` (a ``math`` function) on each entry of ``a``: the C library's
    exp, log or log1p, the reference value (see ``ArithmeticContext``)."""
    a = np.asarray(a, dtype=np.float64)
    values = a.ravel().tolist()
    return np.fromiter(map(fast, values), np.float64, len(values)).reshape(a.shape)


@dataclass(frozen=True)
class ArithmeticContext:
    """Arithmetic used by the evaluation kernels, on scalars or whole arrays.

    Every operation is computed in binary64 and its result rounded to
    ``fmt`` (round-to-nearest, ties-to-even), as :func:`chop` rounds.
    ``+ - /`` are IEEE numpy operations, rounded by ``chop``.  ``exp``,
    ``log`` and ``log1p`` give ``chop`` of the C library's value, bit for
    bit, and compute it with the tie certificate of ``fmt.binade_table``:

    * v is numpy's vector function and r its rounding ((v * P + C) - C) / P,
      with the P and C of v's binade [2^(e-1), 2^e), before r's sign is set
      and values above r_max become +-inf;
    * where |v - r| < T, the binade's threshold, v lies farther than
      2^(e-40) > 2^-40 |v| from every tie of the format.  Rounding to
      nearest is a step function whose only jumps are at ties, so the C
      library's value, which differs from v by at most 2^-40 |v| (a few
      binary64 ulps in practice; the tests check the bound on every fp16
      and bfloat16 argument), rounds to r as well;
    * +-inf and NaN pass as they are: where numpy's value is +-inf or NaN,
      so is the C library's (exp's largest finite value lies 213 binary64
      ulps below the largest double).  A finite v above the top binade
      passes too: every value within 2^-40 |v| of it overflows.  A zero
      passes: the C library's value is then the same zero or below 2^-1023,
      which the grid near zero, no finer than 2^-1022, rounds to it (the
      tests check all of these);
    * every other entry (near a tie, a binary64 subnormal, or any finite
      entry in binary64, whose T is -inf) is ``chop`` of the C library's
      value.  numpy's value there is finite, so the C library's is too and
      ``math`` does not raise.

    ``sum`` is ``add`` applied left to right along each row.

    Rounding to ``fp64`` leaves every binary64 value unchanged, so that
    context is native binary64.
    """

    fmt: FloatFormat

    def _binop(self, op, a, b):
        with np.errstate(all="ignore"):  # inf and NaN results are the point
            return _chop(op(a, b), self.fmt)

    def _transcendental(self, fast, ieee, a):
        """``chop`` of ``fast``'s value, with ``ieee``'s value where certified."""
        a = np.asarray(a, dtype=np.float64)
        with np.errstate(all="ignore"):
            v = ieee(a)
            field = v.view(np.int64) >> 52
            r = _round_by_table(v, field, self.fmt)  # |v - r| ignores the sign of a zero r
            # tested before _saturate, whose inf would fail every v that overflows;
            # False where v is +-inf or NaN: v - r is NaN there.  In a prescaled
            # top binade (emax = 1023) r is already +-inf where v rounds up to
            # 2^1024 and the division by P overflows: those go uncertified to _libm
            uncertified = np.abs(v - r) >= self.fmt.binade_table[1].take(field)
            r = _saturate(r, v, self.fmt)
            if uncertified.any():
                r[uncertified] = _chop(_libm(fast, a[uncertified]), self.fmt)
        return r[()]  # the array itself, or the scalar of a 0-d array

    def add(self, a, b):
        return self._binop(np.add, a, b)

    def sub(self, a, b):
        return self._binop(np.subtract, a, b)

    def div(self, a, b):
        return self._binop(np.divide, a, b)

    def sum(self, w) -> np.ndarray:
        """Each row's sum of a (rows x n) array ``w`` of terms >= +0, rounded
        after every addition, left to right: ``add`` swept along the row, bit
        for bit.  Any other shape, n = 0, or a term that is negative or NaN
        raises ``ValueError``.

        A partial sum v in a cached binade [lo, hi) = [2^(e-1), 2^e) is
        rounded with that binade's constant C as (v + C) - C, bit for bit
        what ``round_to_format`` gives there (see ``FloatFormat.binade_table``)
        without the lookup.  Any other v is a miss: it goes to
        ``round_to_format`` and re-keys the cache to v's binade with one
        entry of ``FloatFormat.frexp_entries``.  Only binades with P = 1
        below the top one are cached, so a hit needs no scaling and never
        overflows; in the top binade (v + C) - C can give 2^(emax+1), where
        +inf is right.
        A row stops once its sum is +inf, which every later term (>= 0) keeps.

        *Skipped additions.*  A term w < quarter is not added: s + w rounds
        back to s.  quarter is at most q/4, q the format's spacing at the
        partial sum s, a format value, and t <= 26.  Let s lie in
        [2^(e-1), 2^e) (for s below 2^emin, q = 2^(emin+1-t) >= 2^(e+1-t)).
        Then s <= 2^e - q and s + w < s + q/4 < 2^e, so the binary64 sum
        s + w is at most s + w + 2^(e-53) < s + q/4 + 2^(e-53) <= s + q/2,
        because 2^(e-53) <= 2^(e-t-2) <= q/4 for t <= 51.  It lies in
        [s, s + q/2), strictly nearer s than any other format value, so it
        rounds to s and is never a tie.  quarter starts at 0, so the first
        addition always runs: the first term enters unrounded.  It is 0 in
        the binades that are not cached, and for fp64, whose C are 0.
        Three traps:

        * quarter is read for s, not for v.  With flush to zero a v below
          r_min rounds up to r_min, whose spacing 2^(emin+1-t) is finer than
          v's binade suggests; every entry below 2^emin holds r_min's
          quarter.  In bfloat16 the row (0.375, 0.375, 0.24, 0.24) * r_min
          sums to 1.484375 * r_min; a quarter read at v gives r_min.
        * v = 0 has frexp exponent 0, whose entry is the binade [1/2, 1).
          quarter stays 0 while s = 0: a zero s keeps the state it has.
        * q/2 would not do, because s + w rounds twice.  In fp16 the row
          (1, 2^-10, 2^-11 - 2^-60) sums to 1 + 2^-9: the binary64 sum is
          the tie 1 + 2^-10 + 2^-11, which goes to even.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] == 0 or not (w >= 0.0).all():
            raise ValueError("sum needs a (rows x n) array, n >= 1, of terms >= +0")
        fmt = self.fmt
        entries = fmt.frexp_entries
        sums = []
        for row in w.tolist():
            terms = iter(row)
            s = next(terms)
            lo = hi = c = quarter = 0.0  # no binade yet: the first addition misses
            for term in terms:
                if term < quarter:
                    continue
                v = s + term
                if lo <= v < hi:
                    s = (v + c) - c
                    continue
                s = round_to_format(v, fmt)
                if s == math.inf:
                    break
                if s:  # while s = 0 quarter stays 0 (see the second trap)
                    _, c, lo, hi, quarter = entries[math.frexp(v)[1]]
            sums.append(s)
        return np.array(sums)

    def exp(self, a):
        return self._transcendental(math.exp, np.exp, a)

    def log(self, a):
        return self._transcendental(math.log, np.log, a)

    def log1p(self, a):
        return self._transcendental(math.log1p, np.log1p, a)

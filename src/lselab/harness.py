"""Experiment engine: data generation, trial execution, summaries, CSV I/O.

Reproduces the scaled-error-vs-bound methodology at desk scale: generate or
ingest input vectors, run all four algorithms in a simulated format, measure
scaled errors against the binary64 oracle, attach the corresponding bound
leading factors, and tally softmax-sum deviations and overflow events.

Generated vectors use per-trial Philox substreams (counter-based: trial i
draws from ``Philox(seed).jumped(i)``), and a trial's record depends only
on its vector and trial id, so any slice of a suite reproduces the matching
slice of its records.

Trials run as batches: the vectors of one length form a (trials x n) array
that the kernels take whole, and each record column is computed for the
batch at once.  The records stay columns: :class:`Records` holds one array
per CSV column and one boolean array per kernel flag.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .analysis import bound_leading_term
from .kernels import (
    FLAG_OVERFLOWED,
    FLAG_PRODUCED_INF,
    lse_softmax_basic,
    lse_softmax_shifted,
    softmax_alt,
)
from .oracle import lse_softmax_reference, scaled_error, scaled_error_vec
from .precision import ArithmeticContext, FloatFormat, chop
from .quantities import KERNELS, QUANTITIES, SUM_DEV_COLUMNS, Quantity

__all__ = [
    "DataSpec",
    "Records",
    "Summary",
    "PairStats",
    "generate",
    "ingest_csv",
    "run_experiment",
    "run_trial",
    "summarize",
    "emit_csv",
    "CSV_HEADER",
]

GENERATOR_KINDS = ("uniform", "near_singular", "wide_spread", "constant")

# Float record columns after trial_id and n: the input summary, an error and
# bound per quantity, then each kernel's softmax-sum deviation.
_FLOAT_COLUMNS = (
    "xmax",
    "xmin",
    "y_ref",
    *(c for q in QUANTITIES for c in (q.err, q.bnd)),
    *SUM_DEV_COLUMNS.values(),
)
_COLUMNS = ("trial_id", "n", *_FLOAT_COLUMNS)
CSV_HEADER = ",".join((*_COLUMNS, "flags"))


@dataclass(frozen=True)
class DataSpec:
    """Deterministic description of a synthetic input-vector suite.

    kind/params:
      uniform(lo, hi)   -- i.i.d. entries in [lo, hi)
      near_singular(eps) -- entries -log n + U(-eps, eps) (ill-conditioned)
      wide_spread(delta) -- x_max - x_min forced to approximately delta
      constant(c)        -- all entries equal to c
    """

    kind: str
    params: tuple[float, ...]
    n: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind} generator parameters must be finite")
        if self.kind == "uniform":
            if len(self.params) != 2 or not self.params[0] < self.params[1]:
                raise ValueError("uniform generator needs params (lo, hi) with lo < hi")
            width = self.params[1] - self.params[0]
        elif self.kind in ("near_singular", "wide_spread"):
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError(f"{self.kind} generator needs one positive parameter")
            # entries are drawn from U(-eps, eps) or from a range delta wide
            width = 2.0 * self.params[0] if self.kind == "near_singular" else self.params[0]
        else:  # constant
            if len(self.params) != 1:
                raise ValueError("constant generator needs one parameter")
            width = 0.0
        if not math.isfinite(width):
            raise ValueError(f"{self.kind} generator range is wider than binary64 can hold")


@dataclass(frozen=True, eq=False)
class Records:
    """An experiment's results as columns, one entry per trial in trial-id order.

    ``columns`` holds ``trial_id``, ``n`` and every float CSV column;
    ``flags`` maps each kernel to its flag columns, one per flag it can
    raise (its ``BatchResult.flags``).
    """

    columns: dict[str, np.ndarray]
    flags: dict[str, dict[str, np.ndarray]]

    def __len__(self) -> int:
        return len(self.columns["trial_id"])

    def excluded(self, kernel: str) -> np.ndarray:
        """The trials that hit a numeric pathology on ``kernel``'s path.

        Every flag a kernel raises is one (overflow, an infinite or NaN
        result, a sum underflowed to zero).  Such trials are left out of the
        error statistics and the bound-conformance tally.
        """
        return reduce(np.logical_or, self.flags[kernel].values())


@dataclass(frozen=True)
class PairStats:
    """Ratio statistics for a designated pair of error columns."""

    numerator: str
    denominator: str
    count: int
    mean: float | None
    geometric_mean: float | None
    min: float | None
    max: float | None
    identical_fraction: float | None


@dataclass(frozen=True)
class AlgStats:
    finite_count: int
    max: float | None
    mean: float | None
    median: float | None
    bound_violations: int
    overflow_count: int


@dataclass(frozen=True)
class Summary:
    trials: int
    per_algorithm: dict[str, AlgStats]
    pairs: tuple[PairStats, ...]

    @property
    def total_bound_violations(self) -> int:
        return sum(s.bound_violations for s in self.per_algorithm.values())


def _wide_spread(delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One wide_spread vector: U(-delta/2, delta/2) with an entry pinned near each end."""
    lo = -delta / 2.0
    v = rng.uniform(lo, lo + delta, n)
    if n >= 2:
        # pin one entry near each end so x_max - x_min lands in
        # [0.9*delta, delta]
        v[0] = lo + rng.uniform(0.0, 0.05 * delta)
        v[1] = lo + delta - rng.uniform(0.0, 0.05 * delta)
        v = rng.permutation(v)
    return v


def generate(spec: DataSpec) -> list[list[float]]:
    """Seed-reproducible input vectors: trial i draws from ``Philox(seed).jumped(i)``.

    The uniform kinds take each trial's n raw Philox words and map the whole
    block at once with ``Generator.uniform``'s own formula,
    lo + (hi - lo) * ((w >> 11) * 2^-53), so they give its values bit for bit.
    """
    n, count = spec.n, spec.count
    if spec.kind == "constant":
        return np.full((count, n), float(spec.params[0])).tolist()
    bitgen = np.random.Philox(spec.seed)
    # the seed's key, counter 0, nothing buffered; the state setter reads
    # plain lists faster than the uint64 arrays the getter returns
    fresh = bitgen.state
    state = {
        **fresh,
        "state": {k: v.tolist() for k, v in fresh["state"].items()},
        "buffer": fresh["buffer"].tolist(),
    }
    counter = state["state"]["counter"]
    rng = np.random.Generator(bitgen)
    draws = []
    for i in range(count):
        # Philox(seed).jumped(i) is the fresh state with the counter at i * 2^128
        counter[2] = i
        bitgen.state = state
        if spec.kind == "wide_spread":
            draws.append(_wide_spread(spec.params[0], n, rng))
        else:
            draws.append(bitgen.random_raw(n))
    if spec.kind == "wide_spread":
        return np.array(draws).tolist()
    words = np.array(draws)
    if spec.kind == "uniform":
        lo, hi = spec.params
    else:  # near_singular: -log n + U(-eps, eps)
        lo, hi = -spec.params[0], spec.params[0]
    v = lo + (hi - lo) * ((words >> 11) * 2.0**-53)
    if spec.kind == "near_singular":
        v = -math.log(n) + v
    return v.tolist()


def _bad_field(path, lineno: int, line: str) -> ValueError:
    """The error for the first field of ``line`` that is not a finite number."""
    for col, tok in enumerate(line.split(","), start=1):
        tok = tok.strip()
        try:
            v = float(tok)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            break
    return ValueError(f"{path}: {tok!r} at line {lineno}, field {col} is not a finite number")


def _not_utf8(path, err: UnicodeDecodeError) -> ValueError:
    """The error for a file that is not UTF-8, at the file offset of its
    first such byte (``err`` counts from the start of a read buffer)."""
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            err = whole
    return ValueError(f"{path}: not UTF-8 at byte offset {err.start} ({err.reason})")


def ingest_csv(path: str | os.PathLike) -> list[list[float]]:
    """Read one comma-separated vector per line; empty lines are skipped.

    A value that is not a finite number, or a file without vectors, raises.
    """
    vectors: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = list(map(float, line.split(",")))
                    finite = all(map(math.isfinite, row))
                except ValueError:
                    finite = False
                if not finite:
                    raise _bad_field(path, lineno, line)
                vectors.append(row)
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None
    if not vectors:
        raise ValueError(f"{path}: no input vectors")
    return vectors


def _sum_deviations(g: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """|sum(g) - 1| / u per row, with an exact sum; +inf for a non-finite row.

    Every entry of ``g`` is a ``fmt`` value with t significant bits.  One
    whose binary64 biased exponent is b lies in the binade [2^(e-1), 2^e),
    e = b - 1022, and is a multiple of 2^(max(e, emin+1) - t): the format's
    spacing there, or below 2^emin the spacing 2^(emin+1-t) of the binade
    of r_min (with subnormals flushed, only zero lies there).  So a set of
    entries that are all multiples of some q and all below 2^(53-m) q, with
    m = ceil(log2 n), sums to a multiple of q below 2^53 q in every partial
    sum, in any order: each partial sum is a binary64 number, and the plain
    sum is exact.

    Bands of L = 54 - t - m binades meet that, counted from emin + 1: the
    band of binade e is clip(floor((e - emin - 1) / L), 0, floor((emax -
    emin) / L)).  Band j holds the binades from emin + 1 + jL up to emin +
    (j+1)L; band 0 also every binade below (zeros included), the last band
    every binade above (+-inf and NaN, whose rows come out non-finite).
    Its entries are multiples of q_j = 2^(emin + 1 + jL - t), and its
    finite ones lie below 2^(emin + (j+1)L) = 2^(53-m) q_j (in the last
    band, below 2^(emax+1) <= that), so each (row, band) total is exact.
    A row's correctly rounded sum is ``math.fsum`` of its band totals.

    * *One band* (emax - emin < L; fp16 up to n = 8192): the plain sum is
      that total.
    * *Bands*: one ``np.bincount`` gives every (row, band) total; the bands
      that are empty in every row are dropped before the ``fsum``.
    * *L < 1* (t = 26 and n > 2^27, or binary64 and n > 1): no band is
      exact, and every finite row takes ``math.fsum``.
    """
    width = 54 - fmt.precision_bits - (g.shape[1] - 1).bit_length()
    if width < 1:
        finite = np.isfinite(g).all(axis=1)
        sums = np.array([math.fsum(row) if ok else math.inf
                         for row, ok in zip(g.tolist(), finite.tolist())])
    else:
        sums = _exact_sums(g, fmt, width)
    sums[~np.isfinite(sums)] = math.inf
    return np.abs(sums - 1.0) / fmt.unit_roundoff


@functools.lru_cache(maxsize=None)
def _band_table(emin: int, emax: int, width: int) -> np.ndarray:
    """The band of each biased exponent b for bands of ``width`` binades
    (see ``_sum_deviations``), indexed as ``FloatFormat.binade_table``."""
    e = np.arange(-1022, 1026)
    return np.clip((e - emin - 1) // width, 0, (emax - emin) // width)


def _exact_sums(g: np.ndarray, fmt: FloatFormat, width: int) -> np.ndarray:
    """Each row's correctly rounded sum from its totals over bands of
    ``width`` binades (see ``_sum_deviations``); inf or NaN for a non-finite row."""
    bands, rows = (fmt.emax - fmt.emin) // width + 1, len(g)
    if bands == 1:
        return np.add.reduce(g, axis=1)
    b = _band_table(fmt.emin, fmt.emax, width)[g.view(np.int64) >> 52]
    if rows > 1:
        b += np.arange(0, rows * bands, bands)[:, None]
    totals = np.bincount(b.ravel(), weights=g.ravel(), minlength=rows * bands).reshape(rows, bands)
    totals = totals.compress(np.logical_or.reduce(totals), axis=1)  # the bands some row fills
    return np.array(list(map(math.fsum, totals.tolist())))


def _run_batch(
    xs: np.ndarray, fmt: FloatFormat
) -> tuple[dict[str, np.ndarray], dict[str, dict[str, np.ndarray]]]:
    """The float record columns and each kernel's flag columns for a batch
    of equal-length vectors, already rounded to ``fmt``."""
    ref = lse_softmax_reference(xs)
    y_ref, g_ref = ref.y_ref, ref.g_ref

    ctx = ArithmeticContext(fmt)
    basic = lse_softmax_basic(xs, ctx)
    shifted = lse_softmax_shifted(xs, ctx)
    alt_basic = softmax_alt(xs, basic.y, ctx)
    # softmax_alt depends only on (xs, y): equal log-sum-exps give equal results
    if basic.y.tobytes() == shifted.y.tobytes():
        alt_shifted = alt_basic
    else:
        alt_shifted = softmax_alt(xs, shifted.y, ctx)
    runs = dict(basic=basic, shifted=shifted, alt_basic=alt_basic, alt_shifted=alt_shifted)

    # the oracle's pivot and the first minimum: a signed zero comes out as max() gives it
    rows = np.arange(len(xs))
    columns = {
        "xmax": xs[rows, ref.k],
        "xmin": xs[rows, xs.argmin(axis=1)],
        "y_ref": y_ref,
    }
    factors = bound_leading_term(ref)
    # alt_shifted may be alt_basic itself: measure each distinct softmax once
    g_errors, sum_devs = {}, {}
    for res in runs.values():
        if id(res) not in g_errors:
            g_errors[id(res)] = scaled_error_vec(res.g, g_ref, fmt)
            sum_devs[id(res)] = _sum_deviations(res.g, fmt)
    for q in QUANTITIES:
        res = runs[q.kernel]
        if q.lse:
            columns[q.err] = scaled_error(res.y, y_ref, fmt)
        else:
            columns[q.err] = g_errors[id(res)]
        columns[q.bnd] = factors[q.bound_id]
    for kernel, column in SUM_DEV_COLUMNS.items():
        columns[column] = sum_devs[id(runs[kernel])]
    return columns, {kernel: runs[kernel].flags for kernel in KERNELS}


def run_experiment(data: Sequence[Sequence[float]], fmt: FloatFormat) -> Records:
    """Run all trials; records are in trial-id order.

    Vectors of one length run as one batch; a vector's record does not
    depend on which others share its batch.
    """
    if len(data) == 0:
        raise ValueError("experiment needs at least one input vector")
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(data):
        groups.setdefault(len(x), []).append(i)
    batches = []
    bad = []
    for ids in groups.values():
        xs = chop(np.array([data[i] for i in ids], dtype=np.float64), fmt)
        bad += [ids[r] for r in np.flatnonzero(~np.isfinite(xs).all(axis=1)).tolist()]
        batches.append((ids, xs))
    if bad:
        raise ValueError(f"vector {min(bad)} is not finite when rounded to {fmt.name}")
    parts = []
    for ids, xs in batches:
        columns, flags = _run_batch(xs, fmt)
        ids = np.array(ids)
        parts.append(({"trial_id": ids, "n": np.full_like(ids, xs.shape[1]), **columns}, flags))
    if len(parts) == 1:
        return Records(*parts[0])
    # ragged input: join the batches, then restore trial-id order
    order = np.argsort(np.concatenate([c["trial_id"] for c, _ in parts]))

    def joined(cols: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(cols)[order]

    columns = {name: joined([c[name] for c, _ in parts]) for name in parts[0][0]}
    flags = {
        kernel: {name: joined([f[kernel][name] for _, f in parts]) for name in kernel_flags}
        for kernel, kernel_flags in parts[0][1].items()
    }
    return Records(columns, flags)


def run_trial(trial_id: int, x: Sequence[float], fmt: FloatFormat) -> Records:
    """The one-trial records ``run_experiment`` gives vector ``x`` as trial ``trial_id``.

    Nothing in lselab calls it: it stays while ``perfbench/spans.py`` wraps
    ``harness.run_trial`` by name (ROADMAP item 5 counts trials from the
    records instead).
    """
    records = run_experiment([x], fmt)
    records.columns["trial_id"] += trial_id
    return records


# (numerator, denominator) quantity of each summary ratio
_RATIO_PAIRS = tuple(
    (q, next(d for d in QUANTITIES if d.stem == q.ratio_to))
    for q in QUANTITIES
    if q.ratio_to is not None
)


def _mean(values: list[float]) -> float:
    """The mean, summed left to right from 0.0 as the builtin ``sum()`` adds
    floats up to Python 3.11 (from 3.12 it compensates, so its last bit can differ)."""
    return reduce(add, values, 0.0) / len(values)


def _median(values: list[float]) -> float:
    """The sorted middle value, or the mean of the middle two, as ``statistics.median``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _pair_stats(
    num: Quantity, den: Quantity, cols: dict[str, np.ndarray], counted: dict[str, np.ndarray]
) -> PairStats:
    """Ratio statistics of two quantities' errors over the trials counted for both."""
    both = counted[num.stem] & counted[den.stem]
    a_col, b_col = cols[num.err][both], cols[den.err][both]
    comparable = len(a_col)
    identical = int(np.count_nonzero(a_col == b_col))
    positive = (a_col > 0.0) & (b_col > 0.0)
    ratios = (a_col[positive] / b_col[positive]).tolist()
    if not ratios:
        return PairStats(num.err, den.err, 0, None, None, None, None,
                         identical / comparable if comparable else None)
    gm = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))
    return PairStats(
        num.err,
        den.err,
        len(ratios),
        _mean(ratios),
        gm,
        min(ratios),
        max(ratios),
        identical / comparable if comparable else None,
    )


def summarize(records: Records) -> Summary:
    if len(records) == 0:
        raise ValueError("cannot summarize an empty record list")
    cols = records.columns
    excluded = {kernel: records.excluded(kernel) for kernel in KERNELS}
    # per quantity, whether each trial's error counts: finite and not excluded
    counted = {q.stem: np.isfinite(cols[q.err]) & ~excluded[q.kernel] for q in QUANTITIES}
    per_alg: dict[str, AlgStats] = {}
    for q in QUANTITIES:
        errors = cols[q.err][counted[q.stem]]
        bounds = cols[q.bnd][counted[q.stem]]
        finite = errors.tolist()
        flags = records.flags[q.kernel]
        overflow = flags.get(FLAG_OVERFLOWED, False) | flags[FLAG_PRODUCED_INF]
        per_alg[q.stem] = AlgStats(
            finite_count=len(finite),
            max=max(finite) if finite else None,
            mean=_mean(finite) if finite else None,
            median=_median(finite) if finite else None,
            bound_violations=int(np.count_nonzero(errors > bounds)),
            overflow_count=int(np.count_nonzero(overflow)),
        )
    pairs = tuple(_pair_stats(a, b, cols, counted) for a, b in _RATIO_PAIRS)
    return Summary(len(records), per_alg, pairs)


def _flag_cells(records: Records) -> list[str]:
    """Each trial's CSV flags cell: ``kernel:flag+flag`` for every kernel that
    raised a flag, in kernel order, joined by ``;``."""
    cells: list[list[str]] = [[] for _ in range(len(records))]
    for kernel in KERNELS:
        raised: dict[int, list[str]] = {}
        for name, column in sorted(records.flags[kernel].items()):
            for i in np.flatnonzero(column).tolist():
                raised.setdefault(i, []).append(name)
        for i, names in raised.items():
            cells[i].append(f"{kernel}:" + "+".join(names))
    return [";".join(c) for c in cells]


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``'s old bytes, then cut a longer
    regular file to length.  Like ``open(path, "w")`` it follows symlinks and
    keeps an existing file's inode and mode, but it never truncates to zero
    first, which on ext4 (``auto_da_alloc``) starts writeback at close.
    Nothing is fsynced: after a crash, rerun the command.  A failed write
    empties the file, so no new bytes are left before a stale tail."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            if regular and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def emit_csv(records: Records | Summary, path: str | os.PathLike) -> None:
    """Write trial records (or a summary) as CSV; floats round-trip exactly.

    The file's text is built whole, a column at a time, and written once."""
    if isinstance(records, Summary):
        lines = ["key,value", f"trials,{records.trials}"]
        for name, st in records.per_algorithm.items():
            lines += [f"{name}.{k},{getattr(st, k)}" for k in (
                "finite_count", "max", "mean", "median", "bound_violations", "overflow_count")]
        for p in records.pairs:
            tag = f"ratio[{p.numerator}/{p.denominator}]"
            lines += [f"{tag}.{k},{getattr(p, k)}" for k in (
                "count", "mean", "geometric_mean", "min", "max", "identical_fraction")]
    else:
        # repr gives the two int columns as str does, and each float exactly
        columns = (map(repr, records.columns[name].tolist()) for name in _COLUMNS)
        lines = [CSV_HEADER, *map(",".join, zip(*columns, _flag_cells(records)))]
    _write_text(path, "\n".join(lines) + "\n")

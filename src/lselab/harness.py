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

import math
import os
import statistics
from dataclasses import dataclass
from functools import reduce
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
from .oracle import lse_softmax_reference, scaled_errors, scaled_errors_vec
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
    error_field: str
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


def _generate_one(spec: DataSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.n
    if spec.kind == "uniform":
        lo, hi = spec.params
        v = rng.uniform(lo, hi, n)
    elif spec.kind == "near_singular":
        (eps,) = spec.params
        c = -math.log(n)
        v = c + rng.uniform(-eps, eps, n)
    elif spec.kind == "wide_spread":
        (delta,) = spec.params
        lo = -delta / 2.0
        v = rng.uniform(lo, lo + delta, n)
        if n >= 2:
            # pin one entry near each end so x_max - x_min lands in
            # [0.9*delta, delta]
            v[0] = lo + rng.uniform(0.0, 0.05 * delta)
            v[1] = lo + delta - rng.uniform(0.0, 0.05 * delta)
            v = rng.permutation(v)
    else:  # constant
        (c,) = spec.params
        v = np.full(n, float(c))
    return v


def generate(spec: DataSpec) -> list[list[float]]:
    """Seed-reproducible input vectors."""
    bitgen = np.random.Philox(spec.seed)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # the seed's key, counter 0, nothing buffered
    vectors = []
    for i in range(spec.count):
        # Philox(seed).jumped(i) is the fresh state with the counter at i * 2^128
        fresh["state"]["counter"] = np.array([0, 0, i, 0], dtype=np.uint64)
        bitgen.state = fresh
        vectors.append(_generate_one(spec, rng))
    return np.array(vectors).tolist()


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


def ingest_csv(path: str | os.PathLike) -> list[list[float]]:
    """Read one comma-separated vector per line; empty lines are skipped.

    A value that is not a finite number, or a file without vectors, raises.
    """
    vectors: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
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
    if not vectors:
        raise ValueError(f"{path}: no input vectors")
    return vectors


def _sum_deviations(g: np.ndarray, u: float) -> np.ndarray:
    """|sum(g) - 1| / u per row, with an exact sum; +inf for a non-finite row."""
    finite = np.isfinite(g).all(axis=1)
    sums = [math.fsum(row) if ok else math.inf for row, ok in zip(g.tolist(), finite.tolist())]
    return np.abs(np.array(sums) - 1.0) / u


def _run_batch(
    xs: np.ndarray, fmt: FloatFormat
) -> tuple[dict[str, np.ndarray], dict[str, dict[str, np.ndarray]]]:
    """The float record columns and each kernel's flag columns for a batch
    of equal-length vectors, already rounded to ``fmt``."""
    ref = lse_softmax_reference(xs)
    y_ref, g_ref = ref.y_ref, ref.g_ref
    u = fmt.unit_roundoff

    ctx = ArithmeticContext(fmt)
    basic = lse_softmax_basic(xs, ctx)
    shifted = lse_softmax_shifted(xs, ctx)
    alt_basic = softmax_alt(xs, basic.y, ctx)
    # softmax_alt depends only on (xs, y): equal log-sum-exps give equal results
    if basic.y.tobytes() == shifted.y.tobytes():
        alt_shifted = alt_basic
    else:
        alt_shifted = softmax_alt(xs, shifted.y, ctx)
    runs = {
        "basic": basic,
        "shifted": shifted,
        "alt_basic": alt_basic,
        "alt_shifted": alt_shifted,
    }

    # the first index of each extreme, so a signed zero comes out as max() gives it
    rows = np.arange(len(xs))
    columns = {
        "xmax": xs[rows, xs.argmax(axis=1)],
        "xmin": xs[rows, xs.argmin(axis=1)],
        "y_ref": y_ref,
    }
    factors = bound_leading_term(xs, y_ref)
    # alt_shifted may be alt_basic itself: measure each distinct softmax once
    g_errors, sum_devs = {}, {}
    for res in runs.values():
        if id(res) not in g_errors:
            g_errors[id(res)] = scaled_errors_vec(res.g, g_ref, fmt)
            sum_devs[id(res)] = _sum_deviations(res.g, u)
    for q in QUANTITIES:
        res = runs[q.kernel]
        if q.lse:
            columns[q.err] = scaled_errors(res.y, y_ref, fmt)
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
        sum(ratios) / len(ratios),
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
            error_field=q.err,
            finite_count=len(finite),
            max=max(finite) if finite else None,
            mean=sum(finite) / len(finite) if finite else None,
            median=statistics.median(finite) if finite else None,
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
        flags = records.flags[kernel]
        names = sorted(flags)
        for i in np.flatnonzero(records.excluded(kernel)).tolist():
            cells[i].append(f"{kernel}:" + "+".join(n for n in names if flags[n][i]))
    return [";".join(c) for c in cells]


def emit_csv(records: Records | Summary, path: str | os.PathLike) -> None:
    """Write trial records (or a summary) as CSV; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(records, Summary):
            fh.write("key,value\n")
            fh.write(f"trials,{records.trials}\n")
            for name, st in records.per_algorithm.items():
                for k in ("finite_count", "max", "mean", "median",
                          "bound_violations", "overflow_count"):
                    fh.write(f"{name}.{k},{getattr(st, k)}\n")
            for p in records.pairs:
                tag = f"ratio[{p.numerator}/{p.denominator}]"
                for k in ("count", "mean", "geometric_mean", "min", "max",
                          "identical_fraction"):
                    fh.write(f"{tag}.{k},{getattr(p, k)}\n")
            return
        fh.write(CSV_HEADER + "\n")
        # repr gives the two int columns as str does, and each float exactly
        columns = (records.columns[name].tolist() for name in _COLUMNS)
        for *values, flags in zip(*columns, _flag_cells(records)):
            fh.write(",".join((*map(repr, values), flags)) + "\n")

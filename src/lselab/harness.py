"""Experiment engine: data generation, trial execution, summaries, CSV I/O.

Reproduces the scaled-error-vs-bound methodology at desk scale: generate or
ingest input vectors, run all four algorithms in a simulated format, measure
scaled errors against the binary64 oracle, attach the corresponding bound
leading factors, and tally softmax-sum deviations and overflow events.

Generated vectors use per-trial Philox substreams (counter-based, jumped by
trial id), and a trial's record depends only on its vector and trial id, so
any slice of a suite reproduces the matching slice of its records.

Trials run as batches: the vectors of one length form a (trials x n) array
that the kernels take whole, and each record column is computed for the
batch at once.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field, make_dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .analysis import bound_leading_term
from .kernels import lse_softmax_basic, lse_softmax_shifted, softmax_alt
from .oracle import lse_softmax_reference, scaled_errors, scaled_errors_vec
from .precision import ArithmeticContext, FloatFormat, chop
from .quantities import KERNELS, QUANTITIES, SUM_DEV_COLUMNS

__all__ = [
    "DataSpec",
    "TrialRecord",
    "Summary",
    "PairStats",
    "generate",
    "ingest_csv",
    "run_experiment",
    "run_trial",
    "summarize",
    "emit_csv",
    "emit_vectors_csv",
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
CSV_HEADER = ",".join(("trial_id", "n", *_FLOAT_COLUMNS, "flags"))


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
        if self.kind == "uniform":
            if len(self.params) != 2 or not self.params[0] < self.params[1]:
                raise ValueError("uniform generator needs params (lo, hi) with lo < hi")
        elif self.kind in ("near_singular", "wide_spread"):
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError(f"{self.kind} generator needs one positive parameter")
        elif self.kind == "constant":
            if len(self.params) != 1:
                raise ValueError("constant generator needs one parameter")


def _flags_str(self) -> str:
    parts = []
    for alg in KERNELS:
        fl = self.flags.get(alg)
        if fl:
            parts.append(f"{alg}:" + "+".join(sorted(fl)))
    return ";".join(parts)


# One trial's results: the CSV columns as fields, plus each kernel's flags.
TrialRecord = make_dataclass(
    "TrialRecord",
    [
        ("trial_id", int),
        ("n", int),
        *((c, float) for c in _FLOAT_COLUMNS),
        ("flags", dict[str, frozenset[str]], field(default_factory=dict)),
    ],
    namespace={"__module__": __name__, "flags_str": _flags_str},
)
_float_values = attrgetter(*_FLOAT_COLUMNS)


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


def _trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed).jumped(trial_id))


def _generate_one(spec: DataSpec, trial_id: int) -> np.ndarray:
    rng = _trial_rng(spec.seed, trial_id)
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


def generate(spec: DataSpec, fmt: FloatFormat | None = None) -> list[list[float]]:
    """Seed-reproducible input vectors, pre-rounded to ``fmt`` when given."""
    vectors = np.array([_generate_one(spec, i) for i in range(spec.count)])
    if fmt is not None:
        vectors = chop(vectors, fmt)
    return vectors.tolist()


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
            row: list[float] = []
            for col, tok in enumerate(line.split(","), start=1):
                tok = tok.strip()
                try:
                    v = float(tok)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ValueError(
                        f"{path}: {tok!r} at line {lineno}, field {col} "
                        "is not a finite number"
                    )
                row.append(v)
            vectors.append(row)
    if not vectors:
        raise ValueError(f"{path}: no input vectors")
    return vectors


def _sum_deviations(g: np.ndarray, u: float) -> np.ndarray:
    """|sum(g) - 1| / u per row, with an exact sum; +inf for a non-finite row."""
    finite = np.isfinite(g).all(axis=1)
    sums = [math.fsum(row) if ok else math.inf for row, ok in zip(g.tolist(), finite.tolist())]
    return np.abs(np.array(sums) - 1.0) / u


def _run_batch(trial_ids: list[int], xs: np.ndarray, fmt: FloatFormat) -> list[TrialRecord]:
    """Oracle reference plus all four simulated algorithms for a batch of
    equal-length vectors, already rounded to ``fmt``."""
    refs = [lse_softmax_reference(x) for x in xs.tolist()]
    y_ref = np.array([r.y_ref for r in refs])
    g_ref = np.array([r.g_ref for r in refs])
    u = fmt.unit_roundoff

    ctx = ArithmeticContext(fmt)
    basic = lse_softmax_basic(xs, ctx)
    shifted = lse_softmax_shifted(xs, ctx)
    alt_b = softmax_alt(xs, basic.y, ctx, from_shifted=False)
    alt_s = softmax_alt(xs, shifted.y, ctx, from_shifted=True)
    runs = {r.algorithm_id: r for r in (basic, shifted, alt_b, alt_s)}

    # the first index of each extreme, so a signed zero comes out as max() gives it
    rows = np.arange(len(xs))
    columns = {
        "xmax": xs[rows, xs.argmax(axis=1)],
        "xmin": xs[rows, xs.argmin(axis=1)],
        "y_ref": y_ref,
    }
    for q in QUANTITIES:
        res = runs[q.kernel]
        if q.lse:
            columns[q.err] = scaled_errors(res.y, y_ref, fmt)
        else:
            columns[q.err] = scaled_errors_vec(res.g, g_ref, fmt)
        columns[q.bnd] = bound_leading_term(q.bound_id, xs, y_ref).leading_factor
    for kernel, column in SUM_DEV_COLUMNS.items():
        columns[column] = _sum_deviations(runs[kernel].g, u)

    values = zip(*(np.asarray(columns[name]).tolist() for name in _FLOAT_COLUMNS))
    flags = [dict(zip(runs, fl)) for fl in zip(*(r.flag_sets() for r in runs.values()))]
    n = xs.shape[1]
    return [TrialRecord(tid, n, *v, fl) for tid, v, fl in zip(trial_ids, values, flags)]


def run_trial(trial_id: int, x: Sequence[float], fmt: FloatFormat) -> TrialRecord:
    """The record ``run_experiment`` gives vector ``x`` as trial ``trial_id``."""
    xs = chop(np.array([x], dtype=np.float64), fmt)
    if not np.isfinite(xs).all():
        raise ValueError(f"vector {trial_id} is not finite when rounded to {fmt.name}")
    return _run_batch([trial_id], xs, fmt)[0]


def run_experiment(
    data: Sequence[Sequence[float]], fmt: FloatFormat
) -> list[TrialRecord]:
    """Run all trials; records are ordered by trial id.

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
    records: list[TrialRecord] = [None] * len(data)
    for ids, xs in batches:
        for rec in _run_batch(ids, xs, fmt):
            records[rec.trial_id] = rec
    return records


_RATIO_PAIRS = tuple(
    (q.err, "err_" + q.ratio_to) for q in QUANTITIES if q.ratio_to is not None
)

_PATHOLOGY_FLAGS = frozenset(
    {"overflowed", "produced_inf", "produced_nan", "sum_underflowed_to_zero"}
)

# error column -> the kernel whose flags exclude it
_ERR_FLAG_KEY = {q.err: q.kernel for q in QUANTITIES}


def trial_excluded(record: TrialRecord, error_field: str) -> bool:
    """True when the trial hit a numeric pathology on this algorithm's path.

    Such trials are counted (overflow census) but excluded from error
    statistics and bound-conformance tallies.
    """
    flags = record.flags.get(_ERR_FLAG_KEY[error_field], frozenset())
    return bool(flags & _PATHOLOGY_FLAGS)


def _pair_stats(records: Sequence[TrialRecord], num: str, den: str) -> PairStats:
    ratios = []
    identical = 0
    comparable = 0
    for r in records:
        a = getattr(r, num)
        b = getattr(r, den)
        if trial_excluded(r, num) or trial_excluded(r, den):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        comparable += 1
        if a == b:
            identical += 1
        if a > 0.0 and b > 0.0:
            ratios.append(a / b)
    if not ratios:
        return PairStats(num, den, 0, None, None, None, None,
                         identical / comparable if comparable else None)
    gm = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))
    return PairStats(
        num,
        den,
        len(ratios),
        sum(ratios) / len(ratios),
        gm,
        min(ratios),
        max(ratios),
        identical / comparable if comparable else None,
    )


def summarize(records: Sequence[TrialRecord]) -> Summary:
    if len(records) == 0:
        raise ValueError("cannot summarize an empty record list")
    per_alg: dict[str, AlgStats] = {}
    for q in QUANTITIES:
        finite = []
        violations = 0
        overflow = 0
        for r in records:
            err = getattr(r, q.err)
            if "overflowed" in r.flags.get(q.kernel, ()) or "produced_inf" in r.flags.get(
                q.kernel, ()
            ):
                overflow += 1
            if trial_excluded(r, q.err):
                continue
            if math.isfinite(err):
                finite.append(err)
                if err > getattr(r, q.bnd):
                    violations += 1
        per_alg[q.stem] = AlgStats(
            error_field=q.err,
            finite_count=len(finite),
            max=max(finite) if finite else None,
            mean=sum(finite) / len(finite) if finite else None,
            median=statistics.median(finite) if finite else None,
            bound_violations=violations,
            overflow_count=overflow,
        )
    pairs = tuple(_pair_stats(records, a, b) for a, b in _RATIO_PAIRS)
    return Summary(len(records), per_alg, pairs)


def emit_csv(records: Iterable[TrialRecord] | Summary, path: str | os.PathLike) -> None:
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
        for r in records:
            fields = [str(r.trial_id), str(r.n), *map(repr, _float_values(r))]
            fields.append(r.flags_str())
            fh.write(",".join(fields) + "\n")


def emit_vectors_csv(
    vectors: Sequence[Sequence[float]], path: str | os.PathLike
) -> None:
    """Write input vectors, one per line; round-trips through ingest_csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x in vectors:
            fh.write(",".join(repr(float(v)) for v in x) + "\n")

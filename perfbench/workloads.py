"""The benchmark's workloads: the CLI calls each one makes and how to check them.

A workload is a fixed cycle of distinct ``lselab.cli.main`` calls built from
the workload seed.  The runner makes one untimed pass over the cycle, then
repeats whole passes while it measures; every repeat must reproduce the
output digest of the first pass, and a seed-derived sample of the distinct
calls is checked against the independent model in ``exact.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

import exact


@dataclass(frozen=True)
class Call:
    key: int  # position in the workload's cycle of distinct calls
    argv: list[str]
    elements: int  # trial elements processed: the sum of n over its vectors
    vectors: int


@dataclass(frozen=True)
class Observation:
    """What the runner keeps of one call's output."""

    digest: str
    artifact: str  # output text the model check reads
    violations: int = 0  # bound violations the call reported (exit 1)
    excluded: int = 0  # (trial, error column) pairs excluded from conformance
    problems: tuple[str, ...] = ()  # output defects found without the model


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv(x: Sequence[float]) -> str:
    return ",".join(repr(float(v)) for v in x)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# Error columns and the algorithm whose flags exclude them from conformance.
_ERR_ALG = {
    "err_lse_basic": "basic", "err_lse_shift": "shifted",
    "err_sm_basic": "basic", "err_sm_shift": "shifted",
    "err_sm_alt": "alt_basic", "err_sm_altshift": "alt_shifted",
}


class Suite:
    """``lselab experiment`` calls; each writes ``<out>.csv`` and a summary."""

    name = ""
    fmt = ""
    n = 0
    trials_per_call = 0
    distinct = 0  # calls in the cycle
    checked_calls = 0  # calls in the cycle checked against the model
    checked_trials = 0  # trials per checked call

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = str(workdir / "run")
        self.calls = [self._call(j) for j in range(self.distinct)]
        pick = _rng(seed, 1)
        self.sample = sorted(int(k) for k in pick.choice(self.distinct, self.checked_calls, replace=False))
        self.sample_trials = {
            k: sorted(int(t) for t in pick.choice(self.trials_per_call, self.checked_trials, replace=False))
            for k in self.sample
        }

    def _call(self, j: int) -> Call:
        raise NotImplementedError

    def vectors(self, key: int) -> list[list[float]]:
        raise NotImplementedError

    def observe(self, call: Call, stdout: str) -> Observation:
        records = Path(f"{self.out}.csv").read_text(encoding="utf-8")
        summary = dict(
            line.split(",", 1)
            for line in Path(f"{self.out}_summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        problems = []
        if summary.get("trials") != str(call.vectors):
            problems.append(f"summary trials {summary.get('trials')} != {call.vectors}")
        if f"trials: {call.vectors}\n" not in stdout:
            problems.append("stdout does not report the trial count")
        violations = sum(int(v) for k, v in summary.items() if k.endswith(".bound_violations"))
        return Observation(_sha256(records), records, violations, _excluded(records), tuple(problems))

    def check(self, call: Call, records: str) -> list[str]:
        rows = list(_parse_records(records))
        if len(rows) != call.vectors:
            return [f"{len(rows)} records for {call.vectors} trials"]
        problems = []
        vectors = self.vectors(call.key)
        for t in self.sample_trials[call.key]:
            model = exact.record_columns(vectors[t], self.fmt)
            row = rows[t]
            for col in exact.CHECKED_COLUMNS:
                if not exact.same(float(row[col]), model[col]):
                    problems.append(f"call {call.key} trial {t} {col}: {row[col]} != model {model[col]!r}")
        return problems


def _parse_records(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        yield dict(zip(header, line.split(",")))


def _excluded(records: str) -> int:
    count = 0
    for row in _parse_records(records):
        flagged = {part.split(":", 1)[0] for part in row["flags"].split(";") if part}
        count += sum(alg in flagged for alg in _ERR_ALG.values())
    return count


class Fp16Short(Suite):
    """README shape: many 10-element fp16 trials, generated by the CLI, with SVGs."""

    name = "fp16-short"
    fmt = "fp16"
    n = 10
    trials_per_call = 50
    distinct = 40
    checked_calls = 20
    checked_trials = 5

    def _seed(self, j: int) -> int:
        return int(_rng(self.seed, 0, j).integers(2**31))

    def _call(self, j: int) -> Call:
        argv = ["experiment", "--gen", "uniform:-20,20", "--n", str(self.n),
                "--count", str(self.trials_per_call), "--seed", str(self._seed(j)),
                "--format", self.fmt, "--out", self.out, "--svg", "--log-axes"]
        return Call(j, argv, self.n * self.trials_per_call, self.trials_per_call)

    def vectors(self, key: int) -> list[list[float]]:
        return [exact.philox_uniform(self._seed(key), t, -20.0, 20.0, self.n)
                for t in range(self.trials_per_call)]


class Bf16Long(Suite):
    """1000-element bfloat16 vectors written by the benchmark and read with --csv."""

    name = "bf16-long"
    fmt = "bfloat16"
    n = 1000
    trials_per_call = 1
    distinct = 16
    checked_calls = 3
    checked_trials = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = [workdir / f"vectors{j}.csv" for j in range(self.distinct)]
        for j, path in enumerate(self.inputs):
            path.write_text("".join(_csv(x) + "\n" for x in self.vectors(j)), encoding="utf-8")
        super().__init__(seed, workdir)

    def _call(self, j: int) -> Call:
        argv = ["experiment", "--csv", str(self.inputs[j]), "--format", self.fmt, "--out", self.out]
        return Call(j, argv, self.n * self.trials_per_call, self.trials_per_call)

    def vectors(self, key: int) -> list[list[float]]:
        rng = _rng(self.seed, 0, key)
        return [[float(v) for v in rng.uniform(-20.0, 20.0, self.n)] for _ in range(self.trials_per_call)]


_BOUND_IDS = ("basic_lse", "basic_softmax", "alt_softmax",
              "shifted_lse", "shifted_softmax", "alt_shifted_softmax")


class SingleVector:
    """Alternating ``eval --json`` and ``analyze --json`` on one vector each.

    Pair p evaluates vector p with n = 8, 64, 512 (p mod 3), algorithm p mod 4
    and format (p div 12) mod 2, so 24 pairs cover every combination.
    """

    name = "single-vector"
    SIZES = (8, 64, 512)
    ALGS = ("basic", "shifted", "alt-basic", "alt-shifted")
    FORMATS = ("fp16", "bfloat16")
    pairs = 24

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.x = [[float(v) for v in _rng(seed, 0, p).uniform(-20.0, 20.0, self.SIZES[p % 3])]
                  for p in range(self.pairs)]
        self.spec = [(self.ALGS[p % 4], self.FORMATS[(p // 12) % 2]) for p in range(self.pairs)]
        self.calls = []
        for p, (x, (alg, fmt)) in enumerate(zip(self.x, self.spec)):
            arg = "--x=" + _csv(x)
            self.calls.append(Call(2 * p, ["eval", "--alg", alg, "--format", fmt, "--json", arg], len(x), 1))
            self.calls.append(Call(2 * p + 1, ["analyze", "--json", arg], len(x), 1))
        self.sample = [c.key for c in self.calls]

    def observe(self, call: Call, stdout: str) -> Observation:
        return Observation(_sha256(stdout), stdout)

    def check(self, call: Call, stdout: str) -> list[str]:
        p = call.key // 2
        x = self.x[p]
        try:
            out = json.loads(stdout)
        except ValueError:
            return [f"call {call.key}: output is not JSON"]
        problems = []
        if call.key % 2 == 0:
            alg, fmt = self.spec[p]
            y, g = exact.evaluate(alg, x, fmt)
            if not exact.same(out.get("y"), y):
                problems.append(f"call {call.key} eval y: {out.get('y')!r} != model {y!r}")
            got = out.get("g") or []
            if len(got) != len(g) or not all(exact.same(a, b) for a, b in zip(got, g)):
                problems.append(f"call {call.key} eval g differs from the model")
        else:
            y_ref, _ = exact.reference(x)
            cond = math.inf if y_ref == 0.0 else max(abs(v) for v in x) / abs(y_ref)
            if not exact.same(out.get("cond_lse"), cond):
                problems.append(f"call {call.key} cond_lse: {out.get('cond_lse')!r} != model {cond!r}")
            if out.get("y_range") != [max(x), max(x) + math.log(len(x))]:
                problems.append(f"call {call.key} y_range: {out.get('y_range')!r}")
            if sorted(out.get("bounds", {})) != sorted(_BOUND_IDS):
                problems.append(f"call {call.key} bounds keys: {sorted(out.get('bounds', {}))}")
        return problems


WORKLOADS = {w.name: w for w in (Fp16Short, Bf16Long, SingleVector)}

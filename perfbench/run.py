"""Benchmark for lselab: CLI workloads timed end to end, or traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload fp16-short --seed 1 --seconds 30 --trace 0

Every call goes in-process through ``lselab.cli.main``, one caller, no
threads.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps lselab's public functions (see ``spans.py``) and prints
per-module metrics.  Either way the outputs are checked against the
independent model in ``exact.py``, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads are described in ``workloads.py`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import spans
from workloads import WORKLOADS, Call, Observation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # inputs and CLI outputs, removed at exit
TRACES = ROOT / ".perfbench_out"  # span files of traced runs, kept

SETUP_RUNS = 11
# A traced run first times this share of --seconds untraced, then traces the
# same passes; the ratio of the two is the tracing overhead.  At the usual
# overhead (0.1-0.4) the two together fill about --seconds.
UNTRACED_SHARE = 0.4

END_TO_END = {
    "setup_s": "s",
    "elements_per_s": "elem/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> (unit, tally key, tally field, denominator, scale)
# Denominators: "elements" (sum of n) and "vectors" over the traced calls,
# "trials" (run_trial calls), or "calls" of the tally itself.
LAYER_RATIOS = {
    "precision.round.calls_per_elem": ("calls/elem", "precision.round", "calls", "elements", 1),
    "precision.round.noop_frac": ("ratio", "precision.round", "unchanged", "calls", 1),
    "precision.round.self_ns_per_elem": ("ns/elem", "precision.round", "self_ns", "elements", 1),
    "kernels.basic.self_ns_per_elem": ("ns/elem", "kernels.basic", "self_ns", "elements", 1),
    "kernels.shifted.self_ns_per_elem": ("ns/elem", "kernels.shifted", "self_ns", "elements", 1),
    "kernels.alt.self_ns_per_elem": ("ns/elem", "kernels.alt", "self_ns", "elements", 1),
    "oracle.reference.calls_per_vector": ("calls/vector", "oracle.reference", "calls", "vectors", 1),
    "oracle.reference.self_ns_per_elem": ("ns/elem", "oracle.reference", "self_ns", "elements", 1),
    "oracle.scaled_error.self_ns_per_elem": ("ns/elem", "oracle.scaled_error", "self_ns", "elements", 1),
    "analysis.bound.calls_per_vector": ("calls/vector", "analysis.bound", "calls", "vectors", 1),
    "analysis.bound.self_ns_per_elem": ("ns/elem", "analysis.bound", "self_ns", "elements", 1),
    "analysis.cond.self_us_per_call": ("us/call", "analysis.cond", "self_ns", "calls", 1e-3),
    "harness.input.self_ns_per_elem": ("ns/elem", "harness.input", "self_ns", "elements", 1),
    "harness.run_trial.self_ns_per_trial": ("ns/trial", "harness.run_trial", "self_ns", "calls", 1),
    "harness.summarize.self_ms": ("ms/call", "harness.summarize", "self_ns", "calls", 1e-6),
    "harness.emit_csv.self_ns_per_trial": ("ns/trial", "harness.emit_csv", "self_ns", "trials", 1),
    "harness.emit_csv.bytes": ("bytes/trial", "harness.emit_csv", "bytes", "trials", 1),
    "svgplot.emit.self_ms": ("ms/call", "svgplot.emit", "self_ns", "calls", 1e-6),
    "svgplot.bytes": ("bytes/call", "svgplot.emit", "bytes", "calls", 1),
    "cli.self_us_per_call": ("us/call", "cli", "self_ns", "calls", 1e-3),
}
LAYER_UNITS = {
    **{name: spec[0] for name, spec in LAYER_RATIOS.items()},
    "harness.excluded_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# The result line carries only the per-layer metrics that every workload
# reaches and that are never 0 when reached, so a 0 there means "not
# observed" (a wrapped name gone).  The others, which some workload never
# reaches (harness and svgplot on single-vector, analysis.cond on the suites)
# or which can be 0 (excluded_frac on bf16-long), are printed only.
PER_LAYER = {name: LAYER_UNITS[name] for name in (
    "precision.round.calls_per_elem",
    "precision.round.noop_frac",
    "precision.round.self_ns_per_elem",
    "kernels.basic.self_ns_per_elem",
    "kernels.shifted.self_ns_per_elem",
    "kernels.alt.self_ns_per_elem",
    "oracle.reference.calls_per_vector",
    "oracle.reference.self_ns_per_elem",
    "analysis.bound.calls_per_vector",
    "analysis.bound.self_ns_per_elem",
    "cli.self_us_per_call",
    "trace.overhead_frac",
)}

# Set-up is timed in fresh child interpreters, scaled the same way as the calls
# but with a reference that does the same kind of work: importing a fixed set
# of stdlib modules.  The reference runs in children of its own, alternating
# with the lselab children, so neither import warms the other (both load re,
# enum and other shared modules).  REF_IMPORT_BASELINE_S is the reference
# child's median time on the baseline machine.
REF_IMPORT_BASELINE_S = 0.030
_REF_IMPORT = "import configparser, html.parser, gettext, ftplib, wave, shlex, cProfile, socketserver, ssl"
_LSELAB_IMPORT = "sys.path.insert(0, sys.argv[1])\nimport lselab\nlselab.format_params('fp16')"


@dataclass
class Runner:
    """Makes CLI calls and keeps the ledger of attempted and failed ones.

    The first output of each distinct call is kept; a later call that does
    not reproduce it fails.  When the model check finds a kept output wrong,
    every call that reproduced it fails too.
    """

    workload: object
    cli: object  # the lselab.cli module, looked up per call so a tracer can patch main
    first: dict[int, Observation] = field(default_factory=dict)
    matched: Counter = field(default_factory=Counter)
    attempted: int = 0
    direct_failures: int = 0
    bad_keys: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    violations: int = 0

    def call(self, c: Call) -> float:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = thread_time()
            try:
                rc = self.cli.main(list(c.argv))
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a failed operation; the run goes on
                rc, exc = None, e
            dt = thread_time() - t0
        self.attempted += 1
        if rc not in (0, 1):
            why = f"raised {exc!r}" if exc is not None else f"exited {rc}: {err.getvalue().strip()[:200]}"
            self.fail(f"call {c.key} {why}")
            return dt
        try:
            obs = self.workload.observe(c, out.getvalue())
        except (OSError, ValueError, KeyError) as e:
            self.fail(f"call {c.key}: unreadable output: {e!r}")
            return dt
        first = self.first.setdefault(c.key, obs)
        if obs.problems:
            self.fail(f"call {c.key}: " + "; ".join(obs.problems))
        elif obs.digest != first.digest:
            self.fail(f"call {c.key}: output differs from its first run")
        else:
            self.matched[c.key] += 1
            self.violations += obs.violations
        return dt

    def fail(self, problem: str) -> None:
        self.direct_failures += 1
        self.problems.append(problem)

    def verify(self) -> int:
        """Check the sampled calls' first outputs against the model; returns the calls checked."""
        checked = 0
        for key in self.workload.sample:
            obs = self.first.get(key)
            if obs is None:
                continue  # its calls already failed
            try:
                problems = self.workload.check(self.workload.calls[key], obs.artifact)
            except (ValueError, KeyError, IndexError) as e:
                problems = [f"call {key}: unreadable output: {e!r}"]
            checked += 1
            if problems:
                self.bad_keys.add(key)
                self.problems.extend(problems)
        return checked

    @property
    def failed(self) -> int:
        return self.direct_failures + sum(self.matched[k] for k in self.bad_keys)

    def records_digest(self) -> str:
        """sha256 over the first outputs of the whole cycle, in cycle order."""
        keys = [c.key for c in self.workload.calls]
        if any(k not in self.first for k in keys):
            return "incomplete"
        return hashlib.sha256("".join(self.first[k].digest for k in keys).encode()).hexdigest()


# Machine-speed reference.  On a shared machine the CPU's speed drifts by tens
# of percent within seconds, and lselab's calls slow down with it.  A fixed
# pure-Python loop with the same kind of work as lselab's per-element path
# (frexp, ldexp, round, exp on floats) is timed between consecutive calls; each
# call's time is scaled by REF_BASELINE_S over the mean of the reference times
# on either side of it.  REF_BASELINE_S is the loop's median time on the
# baseline machine (README.md), so scaled times read as times at that speed.
# Calls and loop are timed in thread CPU time: time the thread spends
# descheduled for other tenants would otherwise make the tail percentiles of
# the suites, whose calls run for milliseconds, mostly noise.
REF_BASELINE_S = 0.000100
_REF_DATA = [math.sin(i) * 40.0 for i in range(250)]


def reference_seconds() -> float:
    t0 = thread_time()
    acc = 0.0
    for v in _REF_DATA:
        _, e = math.frexp(v)
        acc += math.ldexp(round(math.ldexp(v, 10 - e)), e - 10) + math.exp(-abs(v))
    return thread_time() - t0


@dataclass
class Sample:
    latencies: list[float] = field(default_factory=list)  # CPU seconds per call, scaled
    raw: list[float] = field(default_factory=list)  # CPU seconds per call, as measured
    refs: list[float] = field(default_factory=list)  # reference times, CPU seconds
    wall: float = 0.0  # seconds the window took, reference loops included
    pass_rates: list[float] = field(default_factory=list)  # elements per scaled second, per pass
    calls: list[Call] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def measure(runner: Runner, seconds: float | None = None, passes: int | None = None) -> Sample:
    """Repeat whole passes over the cycle until ``passes`` are done or ``seconds`` have passed."""
    calls = runner.workload.calls
    per_pass = sum(c.elements for c in calls)
    s = Sample()
    start = perf_counter()
    while True:
        refs = [reference_seconds()]
        dts = []
        for c in calls:
            dts.append(runner.call(c))
            refs.append(reference_seconds())
        scaled = [dt * 2 * REF_BASELINE_S / (a + b) for dt, a, b in zip(dts, refs, refs[1:])]
        s.latencies += scaled
        s.raw += dts
        s.refs += refs
        s.calls += calls
        s.pass_rates.append(per_pass / sum(scaled))
        s.wall = perf_counter() - start
        if passes is not None and len(s.pass_rates) >= passes:
            return s
        if passes is None and perf_counter() - start >= seconds:
            return s


def _child_seconds(body: str, env: dict[str, str]) -> float:
    """Time ``body`` inside a fresh interpreter, from its first line to its last."""
    script = f"import sys, time\nt = time.perf_counter()\n{body}\nprint(time.perf_counter() - t)\n"
    done = subprocess.run([sys.executable, "-c", script, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def setup_seconds() -> tuple[list[float], list[float], list[float]]:
    """Scaled and unscaled times of a fresh ``import lselab`` plus ``format_params``,
    and the reference imports timed before, between and after them."""
    env = {k: v for k, v in os.environ.items() if k != "LSE_THREADS"}
    refs = [_child_seconds(_REF_IMPORT, env)]
    raw = []
    for _ in range(SETUP_RUNS):
        raw.append(_child_seconds(_LSELAB_IMPORT, env))
        refs.append(_child_seconds(_REF_IMPORT, env))
    scaled = [t * 2 * REF_IMPORT_BASELINE_S / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw, refs


def environment() -> str:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "lselab").glob("*.py"))
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}, src/lselab {lines} lines")


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setup, setup_raw, setup_refs = setup_seconds()
    measure(runner, passes=1)  # first outputs of every distinct call; warms caches
    s = measure(runner, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [t * 1e3 for t in s.latencies]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": statistics.median(setup),
        "elements_per_s": statistics.median(s.pass_rates),
        "call_p50_ms": statistics.median(ms),
        "call_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"setup_s: {metrics['setup_s']:.4f} s (median of {len(setup)} child interpreters; "
          f"unscaled {statistics.median(setup_raw):.4f} s; reference import median "
          f"{statistics.median(setup_refs) * 1e3:.1f} ms, baseline {REF_IMPORT_BASELINE_S * 1e3:.1f} ms)")
    print(f"elements_per_s: {metrics['elements_per_s']:.1f} elem/s "
          f"(median of {len(s.pass_rates)} passes of {len(runner.workload.calls)} calls)")
    print(f"call_p50_ms: {metrics['call_p50_ms']:.4f} ms ({len(ms)} calls)")
    print(f"call_p99_ms: {p99:.4f} ms ({len(ms)} calls, {sum(v > p99 for v in ms)} beyond p99)")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    print(f"machine speed: reference loop median {statistics.median(s.refs) * 1e6:.1f} us CPU "
          f"(baseline {REF_BASELINE_S * 1e6:.1f} us) over {len(s.refs)} samples; unscaled "
          f"call p50 {statistics.median(s.raw) * 1e3:.4f} ms CPU, "
          f"{sum(c.elements for c in s.calls) / sum(s.raw):.1f} elem/s CPU, "
          f"{sum(c.elements for c in s.calls) / s.wall:.1f} elem/s wall (reference loops included)")
    return metrics


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict[str, float]:
    """Per-layer metrics; one the run did not observe is 0 and printed with the reason."""
    measure(runner, passes=1)
    untraced = measure(runner, seconds=seconds * UNTRACED_SHARE)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(runner, passes=len(untraced.pass_rates))
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(str(trace_path))

    totals = {
        "elements": sum(c.elements for c in traced.calls),
        "vectors": sum(c.vectors for c in traced.calls),
        "trials": tracer.tallies["harness.run_trial"].calls,
    }
    metrics, unobserved = {}, {}
    for name, (unit, key, fld, denom, scale) in LAYER_RATIOS.items():
        tally = tracer.tallies[key]
        base = tally.calls if denom == "calls" else totals[denom]
        if tally.calls == 0 or base == 0:
            names = [f"lselab.{m}.{f}" for m, f in spans.WRAPPED[key]]
            gone = [n for n in names if n in tracer.missing]
            unobserved[name] = (f"{', '.join(gone)} not found" if gone
                                else f"{runner.workload.name} makes no call to {', '.join(names)}")
            metrics[name] = 0.0
        else:
            metrics[name] = getattr(tally, fld) * scale / base
    pairs = 6 * totals["trials"]
    excluded = sum(runner.first[c.key].excluded for c in traced.calls if c.key in runner.first)
    if pairs:
        metrics["harness.excluded_frac"] = excluded / pairs
    else:
        unobserved["harness.excluded_frac"] = f"{runner.workload.name} writes no records"
        metrics["harness.excluded_frac"] = 0.0
    metrics["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0
    print(f"trace: {len(traced.calls)} traced calls, {len(tracer.spans)} spans kept, "
          f"{tracer.dropped} dropped, written to {trace_path.relative_to(ROOT)}")
    for name, unit in LAYER_UNITS.items():
        if name in unobserved:
            print(f"{name}: 0 {unit} (not observed: {unobserved[name]})")
        else:
            print(f"{name}: {metrics[name]:.6g} {unit}")
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> int:
    import lselab.cli

    if Path(lselab.cli.__file__).resolve().parent != (SRC / "lselab").resolve():
        print(f"error: imported lselab from {lselab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(workload, lselab.cli)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"environment: {environment()}")
    if args.trace:
        trace_path = TRACES / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, units = per_layer(runner, args.seconds, trace_path), PER_LAYER
    else:
        metrics, units = end_to_end(runner, args.seconds), END_TO_END
    checked = runner.verify()
    failed = runner.failed
    print(f"failed_frac: {failed / runner.attempted:.6g} ({failed} of {runner.attempted} calls failed)")
    print(f"bound violations reported (exit 1): {runner.violations}")
    print(f"records_sha256: {runner.records_digest()}")
    print(f"output check: {checked} of {len(workload.calls)} distinct calls checked against the model, "
          f"{len(runner.bad_keys)} wrong; every repeat compared with its first output")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lselab" / "__init__.py").is_file():
        print(f"error: no lselab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("LSE_THREADS", None)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())

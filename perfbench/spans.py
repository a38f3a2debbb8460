"""Span-recording proxies installed around lselab's public functions.

The program is not changed: for the duration of a traced run, each wrapped
function is replaced by a proxy in every ``lselab`` module namespace that
holds it, so calls nest the way the real run makes them.  Each proxy keeps
a stack frame; a call's self time is its duration minus the time covered by
wrapped calls made inside it.

``round_to_format`` runs about a dozen times per trial element, so it is
tallied (calls, unchanged results, time) but not kept as individual spans.
Other calls are kept as spans ``(name, start_ns, end_ns, parent, request)``
up to ``SPAN_CAP``; totals always cover every call.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# (module, function) pairs the tracer wraps, grouped by the key used in metrics.
WRAPPED = {
    "precision.round": [("precision", "round_to_format")],
    "kernels.basic": [("kernels", "lse_softmax_basic")],
    "kernels.shifted": [("kernels", "lse_softmax_shifted")],
    "kernels.alt": [("kernels", "softmax_alt")],
    "oracle.reference": [("oracle", "lse_softmax_reference")],
    "oracle.scaled_error": [("oracle", "scaled_error"), ("oracle", "scaled_error_vec")],
    "analysis.bound": [("analysis", "bound_leading_term")],
    "analysis.cond": [("analysis", "cond_lse"), ("analysis", "cond_softmax")],
    "harness.input": [("harness", "generate"), ("harness", "ingest_csv")],
    "harness.run_trial": [("harness", "run_trial")],
    "harness.summarize": [("harness", "summarize")],
    "harness.emit_csv": [("harness", "emit_csv")],
    "svgplot.emit": [("svgplot", "emit_svg_scatter")],
    "cli": [("cli", "main")],
}

# Spans kept per traced run; later calls are tallied but not kept as spans.
# A suite call makes about 900 spans, so a 30-second traced suite run makes
# several times this many; the cap keeps memory and the trace file (about
# 6 MB) the same size however long the run.
SPAN_CAP = 50_000

# Keys whose calls write a file, and the position of its path argument.
_PATH_ARG = {"harness.emit_csv": 1, "svgplot.emit": 3}


@dataclass
class Tally:
    calls: int = 0
    self_ns: int = 0
    unchanged: int = 0  # precision.round only: result equals the argument
    bytes: int = 0  # file writers only


@dataclass
class Tracer:
    tallies: dict[str, Tally] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    dropped: int = 0
    missing: list[str] = field(default_factory=list)  # wrapped names not found
    request: int = 0
    _stack: list[list] = field(default_factory=list)  # [span index or -1, child ns]
    _patches: list[tuple] = field(default_factory=list)

    def install(self) -> None:
        """Replace every wrapped function in all loaded lselab modules."""
        modules = [m for n, m in sys.modules.items() if n == "lselab" or n.startswith("lselab.")]
        for key, targets in WRAPPED.items():
            self.tallies.setdefault(key, Tally())
            for mod_name, fn_name in targets:
                try:
                    mod = importlib.import_module(f"lselab.{mod_name}")
                except ImportError:
                    mod = None
                orig = getattr(mod, fn_name, None)
                if not callable(orig):
                    self.missing.append(f"lselab.{mod_name}.{fn_name}")
                    continue
                proxy = self._proxy(key, fn_name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, proxy)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _proxy(self, key: str, name: str, fn):
        tally = self.tallies[key]
        stack = self._stack
        if key == "precision.round":
            def round_proxy(x, fmt):
                t0 = perf_counter_ns()
                r = fn(x, fmt)
                dt = perf_counter_ns() - t0
                tally.calls += 1
                tally.self_ns += dt
                if r == x or (r != r and x != x):
                    tally.unchanged += 1
                if stack:
                    stack[-1][1] += dt
                return r
            return round_proxy

        spans = self.spans
        path_arg = _PATH_ARG.get(key)

        def proxy(*args, **kwargs):
            if key == "cli":
                self.request += 1
            parent = stack[-1][0] if stack else -1
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                tally.calls += 1
                tally.self_ns += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent, self.request)
                if path_arg is not None:
                    path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
                    try:
                        tally.bytes += os.path.getsize(path)
                    except (OSError, TypeError):
                        pass

        proxy.__wrapped__ = fn
        return proxy

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines, then one line of totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "request": req}) + "\n")
            fh.write(json.dumps({
                "totals": {k: vars(t) for k, t in self.tallies.items()},
                "spans_dropped": self.dropped,
                "missing": self.missing,
            }) + "\n")

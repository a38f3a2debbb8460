"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import exact  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import lselab.cli  # noqa: E402
from lselab import format_params, round_to_format  # noqa: E402
from workloads import WORKLOADS, Fp16Short, Observation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,listed", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace, listed):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"}
        assert isinstance(v["value"], float) and math.isfinite(v["value"]) and v["value"] > 0
    printed = run.LAYER_UNITS if trace == "1" else expected
    for name, unit in printed.items():
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines[:-1]), name


def test_result_line_layers_are_a_subset_of_the_printed_ones():
    assert run.PER_LAYER == {k: run.LAYER_UNITS[k] for k in run.PER_LAYER}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fp16-short", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_one_ulp_nudge_fails_the_output_check(tmp_path):
    wl = Fp16Short(5, tmp_path)
    runner = run.Runner(wl, lselab.cli)
    run.measure(runner, passes=1)
    runner.verify()
    assert runner.failed == 0 and not runner.problems

    key = wl.sample[0]
    trial = wl.sample_trials[key][0]
    obs = runner.first[key]
    lines = obs.artifact.splitlines()
    header = lines[0].split(",")
    row = lines[1 + trial].split(",")
    col = header.index("err_sm_shift")
    row[col] = repr(math.nextafter(float(row[col]), math.inf))
    lines[1 + trial] = ",".join(row)
    tampered = "\n".join(lines) + "\n"

    problems = wl.check(wl.calls[key], tampered)
    assert len(problems) == 1 and "err_sm_shift" in problems[0]
    runner.first[key] = Observation(obs.digest, tampered)
    runner.verify()
    assert runner.bad_keys == {key}
    assert runner.failed == runner.matched[key] >= 1


def test_exact_rounding_matches_round_to_format():
    rng = random.Random(7)
    for name in ("fp16", "bfloat16", "fp32"):
        fmt = format_params(name)
        for _ in range(3000):
            x = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-150, 140)
            assert exact.same(exact.round_exact(x, exact.FORMATS[name]), round_to_format(x, fmt)), (name, x)


def test_missing_function_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(spans.WRAPPED, "kernels.alt", [("kernels", "no_such_kernel")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lselab.cli.main(["eval", "--alg", "basic", "--format", "fp16", "--x=1,2"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == ["lselab.kernels.no_such_kernel"]
    assert tracer.tallies["kernels.basic"].calls == 1
    assert tracer.tallies["cli"].calls == 1
    assert not hasattr(lselab.cli.main, "__wrapped__")


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])

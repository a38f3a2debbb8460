"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fp16-short --seeds 1-10 [--seconds 30]

Runs one after another (never in parallel, which would distort timings) and
prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of that median, next to a
third of the metric's bound from BENCHMARK.json.  Results are appended as
JSON lines to ``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{m['name']}: median {med:.5g} {m['unit']}, spread {(q3 - q1) / med:.4f} "
              f"(a third of the bound: {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload synth --seeds 1-10 [--trace 0]

Runs the benchmark once per seed, one run after another, and prints for each
metric its median and the distance between the first and third quartile as a
share of the median, next to the bound from BENCHMARK.json, and the failed
and attempted ops summed over the seeds, which two sets of runs of the same
seeds must give alike. Each run's result line is also appended to ``.perfbench-out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = ROOT / ".perfbench-out" / f"spread-{args.workload}.jsonl"
    out.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        with out.open("a") as fh:
            fh.write(json.dumps({"seed": seed, "details": json.loads(lines[-2])["details"],
                                 "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"correct={result['correct']}", file=sys.stderr)
    print(f"all seeds: failed {failed}/{attempted}")
    for name, vals in values.items():
        spread = stats.relative_iqr(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} median {statistics.median(vals):12.6g}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

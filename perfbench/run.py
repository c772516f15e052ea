#!/usr/bin/env python3
"""entlab benchmark: synth, protocol and sweeps workloads.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 15 --trace 0

``--workload all`` runs the three workloads in turn and also prints each
metric on a line of its own. Run from the root of a source checkout. The launcher itself imports only the
standard library. It starts fresh interpreters, one after another, that
import entlab from ``src/`` and build the seeded inputs; the last of them
then runs the workload as a closed loop with one client for ``--seconds``
seconds of op time and checks every output against an oracle, outside the
timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the details
of the run: environment, input digest, tail percentile, failures by class.
``--trace 1`` also writes every span to ``.perfbench-out/``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402  (standard library only)

SRC = ROOT / "src"
WORKLOADS = ("synth", "protocol", "sweeps")
# Fresh interpreters whose set-up time is measured; the last one also runs
# the workload. setup_s is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="entlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference-before", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child(args: argparse.Namespace, role: str) -> tuple[float, float, dict]:
    """Run one fresh interpreter; return its calibrated set-up time, the
    calibrated time it took to reach its first line, and its result."""
    env = dict(os.environ)
    env.pop("ENTLAB_THREADS", None)  # entlab's default, single-threaded path
    # One process, one thread: BLAS gets no thread pool of its own.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--role", role,
        "--reference-before", repr(stats.reference_seconds(env)),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {role} child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    scale = result["setup_scale"]
    return result["setup_wall_s"] * scale, (result["started"] - spawned) * scale, result


def launch(args: argparse.Namespace) -> tuple[dict, dict]:
    """Set up SETUP_SAMPLES times, measure once; return details and result."""
    setups = [_child(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    setups.append(_child(args, "measure"))
    _, spawn_s, result = setups[-1]
    digests = {r["digest"] for _, _, r in setups}
    details = result["details"]
    details["setup_s_samples"] = [s for s, _, _ in setups]
    details["setup_wall_s_samples"] = [r["setup_wall_s"] for _, _, r in setups]
    details["identical_inputs"] = len(digests) == 1
    metrics = result["metrics"]
    if args.trace:
        metrics["setup.spawn_ms"] = {"value": 1000.0 * spawn_s, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": statistics.median(s for s, _, _ in setups), "unit": "s"}
    return details, {
        "correct": bool(result["correct"] and len(digests) == 1),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.role == "launch":
        if not (SRC / "entlab" / "__init__.py").is_file():
            print(f"perfbench: no entlab sources under {SRC}", file=sys.stderr)
            return 2
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            details, result = launch(argparse.Namespace(**{**vars(args), "workload": workload}))
            if args.workload == "all":
                for name, metric in result["metrics"].items():
                    print(f"{workload:9s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
            print(json.dumps({"details": details}))
            print(json.dumps(result))
        return 0
    begin_import = time.monotonic()
    from harness import child_main  # imports NumPy and entlab: part of set-up

    return child_main(args, STARTED, time.monotonic() - begin_import)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

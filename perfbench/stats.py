"""Latency summaries, and the reference that calibrates set-up time.

Standard library only: the launcher, which never imports NumPy, uses it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Sequence

# Set-up is mostly process start, imports of compiled extensions (a third of
# it system time: mapping files, page faults) and NumPy work. A fresh
# interpreter that imports NumPy does the same kind of work, is owned by the
# benchmark, and takes about REFERENCE_S of wall time on a 2-vCPU x86-64 VM
# in its fast state. Set-up times are multiplied by REFERENCE_S over the
# reference's measured time, so they read as seconds at that host speed.
REFERENCE_CMD = (sys.executable, "-c", "import numpy")
REFERENCE_S = 0.15


def reference_seconds(env: dict | None = None, runs: int = 2) -> float:
    """Mean wall time of ``runs`` fresh reference interpreters."""
    total = 0.0
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(REFERENCE_CMD, env=env, check=True, stdout=subprocess.DEVNULL)
        total += time.perf_counter() - start
    return total / runs


# Candidate tail percentiles in per-mille (p50, p90, p99, p99.9). Integer
# arithmetic keeps the nearest-rank index exact.
TAIL_LADDER_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10


def _rank(permille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return max(1, -(-permille * n // 1000))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no ladder percentile qualifies and the
    maximum (reported as percentile 100) is used instead.
    """
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n - _rank(permille, n) >= MIN_BEYOND:
            best = permille
    return 100.0 if best is None else best / 10.0


def tail_value(values: Sequence[float]) -> tuple[float, float]:
    """(percentile, value) of the tail statistic, by nearest rank."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct == 100.0:
        return pct, ordered[-1]
    return pct, ordered[_rank(round(pct * 10), len(ordered)) - 1]


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

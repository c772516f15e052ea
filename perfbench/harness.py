"""In-process part of the benchmark: build inputs, run the closed loop, check.

Imported only by the child interpreters that ``run.py`` starts, because
importing it imports NumPy and entlab, and that import is part of set-up.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

import stats
from tracer import ROOT_CHECK, ROOT_OP, Tracer, wrapper_cost_seconds
from workloads import BUILD_CORPUS, Corpus, Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _terms_per_dim(args, kwargs, result) -> float:
    rho_psi, rho_phi = args[0], args[1]
    return len(result.weights) / max(rho_psi.dim, rho_phi.dim)


def _bytes_out(args, kwargs, result) -> float:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8")) + (0 if text.endswith("\n") else 1)


# Public functions the traced run wraps, with an optional observer of each
# call's arguments and result.
TRACED = {
    "cli.dispatch": None,
    "cli.emit_sweep": None,
    "io.load_document": None,
    "io.protocol_from_json": None,
    "io.one_way_to_json": None,
    "io.canonical_json": None,
    "io.write_text": _bytes_out,
    "locc.nielsen_synthesize": None,
    "locc.mixing_decomposition": _terms_per_dim,
    "locc.simulate": None,
    "locc.one_way_reduce": None,
    "locc.instrument": None,
    "locc.verify_protocol": None,
    "locc.one_way_branches": None,
    "quantum.sorted_eigh": None,
    "quantum.connect_purifications": None,
    "quantum.schmidt": None,
    "quantum.pure_state": None,
    "spectra.majorizes": None,
    "spectra.l1_distance": None,
    "spectra.tv_distance": None,
    "spectra.atomic_measure": None,
    "spectra.spectral_state": None,
    "spectra.flow_deviation": None,
    "embezzle.embezzle_report": None,
    "embezzle.lambda_family_measure": None,
}
# Run only inside the oracle checks, so they get no op-side metric.
CHECK_ONLY = ("locc.verify_protocol", "locc.one_way_branches")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in output order."""
    names = []
    for qualname in TRACED:
        if qualname not in CHECK_ONLY:
            names.append((f"{qualname}.calls", "count", "lower"))
            names.append((f"{qualname}.self_ms", "cal-ms", "lower"))
    names += [
        ("locc.mixing_decomposition.terms_per_dim", "terms/d", "lower"),
        ("io.bytes_out", "bytes", "lower"),
        ("bench.capture.self_ms", "cal-ms", "lower"),
        ("setup.import_ms", "ms", "lower"),
        ("setup.inputs_ms", "ms", "lower"),
        ("setup.spawn_ms", "ms", "lower"),
        ("trace.ops_per_s", "1/cal-s", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return names


# --------------------------------------------------------------------------- #
#                                 environment                                  #
# --------------------------------------------------------------------------- #

def _blas() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ENTLAB_THREADS": os.environ.get("ENTLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------- #
#                                 calibration                                  #
# --------------------------------------------------------------------------- #
# On a shared 2-vCPU virtual machine the CPU alternates between a fast and a
# slow state, about 1.7x apart, for seconds at a time, and the same op's wall
# time swings by that much between runs. A fixed kernel of interpreted
# Python, small LAPACK calls and JSON (the mix entlab's ops run) is timed
# before and after every op, and each op's time is divided by the mean of
# the two, so reported times are in units where this kernel takes 1 ms
# (unit names cal-ms and 1/cal-s; the kernel takes 0.6-1.1 ms of wall time).
# The kernel is benchmark code, so a change to entlab cannot move it.

_CAL_MATRIX = np.random.default_rng(0).standard_normal((6, 6))
_CAL_MATRIX = _CAL_MATRIX @ _CAL_MATRIX.T
_CAL_DOC = {"x": [[0.1234567891234, 1.5]] * 50}


def calibration_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(20):
        np.linalg.eigh(_CAL_MATRIX)
    json.loads(json.dumps(_CAL_DOC))
    return time.perf_counter() - start


# --------------------------------------------------------------------------- #
#                                 closed loop                                  #
# --------------------------------------------------------------------------- #

@dataclass
class Record:
    index: int  # op index in the corpus
    seconds: float  # wall time
    scale: float  # calibration factor for this op's time
    ok: bool
    reason: str


def _payload_key(payload) -> str:
    data = payload if isinstance(payload, str) else repr(payload)
    return hashlib.sha256(data.encode()).hexdigest()


def run_loop(corpus: Corpus, seconds: float, tracer: Tracer | None,
             whole_passes: bool) -> tuple[list[Record], float, int, set]:
    """Run ops in the corpus's seeded order until ``seconds`` of op time
    have elapsed, and at least one full pass. A traced run finishes its
    last pass so that per-pass counts are exact.

    Each op's output is checked after its timed region; the verdict is
    cached by output digest, since identical output gets the same verdict.
    """
    records: list[Record] = []
    outputs: set = set()
    verdicts: dict[tuple[int, str], tuple[bool, str]] = {}
    timed = 0.0
    passes = 0
    clock = time.perf_counter
    cal_before = calibration_seconds()

    def root(kind: str, seq: int):
        return tracer.root(kind, seq) if tracer else contextlib.nullcontext()

    while True:
        for index in corpus.order:
            op = corpus.ops[index]
            seq = len(records)
            with root(ROOT_OP, seq):
                start = clock()
                try:
                    outcome = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    outcome = Outcome(-1, None, f"{type(exc).__name__}: {exc}")
                elapsed = clock() - start
            timed += elapsed
            cal_after = calibration_seconds()
            scale = 2e-3 / (cal_before + cal_after)
            cal_before = cal_after
            if outcome.code != 0:
                ok, reason = False, f"exit {outcome.code}: {outcome.message.strip()[:200]}"
            else:
                key = (index, _payload_key(outcome.payload))
                if key not in verdicts:
                    with root(ROOT_CHECK, seq):
                        try:
                            verdicts[key] = (bool(op.check(outcome.payload)), "oracle rejected output")
                        except Exception as exc:  # unparsable output fails its check
                            verdicts[key] = (False, f"oracle raised {type(exc).__name__}: {exc}")
                ok, reason = verdicts[key]
            outputs.add((index, outcome.code, key[1] if outcome.code == 0 else ""))
            records.append(Record(index, elapsed, scale, ok, "" if ok else reason))
            if passes >= 1 and timed >= seconds and not whole_passes:
                return records, timed, passes, outputs
        passes += 1
        if timed >= seconds:
            return records, timed, passes, outputs


def per_op_means(records: list[Record]) -> tuple[list[float], float]:
    """Mean calibrated time of each distinct op over its runs, and the
    passed share summed over distinct ops (the passed ops of one corpus
    pass)."""
    times: dict[int, list[float]] = defaultdict(list)
    oks: dict[int, list[bool]] = defaultdict(list)
    for r in records:
        times[r.index].append(r.seconds * r.scale)
        oks[r.index].append(r.ok)
    means = [math.fsum(v) / len(v) for v in times.values()]
    return means, math.fsum(sum(v) / len(v) for v in oks.values())


def ops_per_s(records: list[Record]) -> float:
    """Passed ops per calibrated second of op time, for one corpus pass."""
    means, passed = per_op_means(records)
    return passed / math.fsum(means)


def end_to_end(records: list[Record]) -> tuple[dict, dict]:
    """End-to-end metrics, and the tail percentile used.

    Every distinct op counts once, at its mean time and pass rate over the
    run, so a partly run last pass does not change the mix the statistics
    see; every corpus holds at least 100 distinct ops.
    """
    means, passed = per_op_means(records)
    pct, tail = stats.tail_value(means)
    metrics = {
        "ops_per_s": {"value": ops_per_s(records), "unit": "1/cal-s"},
        "lat_p50_ms": {"value": 1000.0 * statistics.median(means), "unit": "cal-ms"},
        "lat_tail_ms": {"value": 1000.0 * tail, "unit": "cal-ms"},
        "passed_frac": {"value": passed / len(means), "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return metrics, {
        "tail_percentile": pct,
        "samples": len(means),
        "executions": len(records),
        # Wall time of the calibration kernel: calibrated ms times this is
        # roughly wall ms. Each op's own factor is in the trace file.
        "calibration_ms_median": 1.0 / statistics.median([r.scale for r in records]),
    }


def first_pass_counts(records: list[Record], distinct_ops: int) -> tuple[int, int]:
    """(attempted, failed) over the first corpus pass, which every run
    completes: each distinct op once, so the counts depend on the seed alone
    and not on how far the time limit lets a run reach into a second pass."""
    first = records[:distinct_ops]
    return len(first), sum(not r.ok for r in first)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer: Tracer, records: list[Record], timed: float, passes: int,
              setup: dict) -> tuple[dict, dict]:
    """Per-layer metrics per corpus pass, from op-rooted spans."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    check_self: dict[str, float] = defaultdict(float)
    subtree: dict[tuple, float] = defaultdict(float)
    durations: dict[tuple, float] = {}
    for _, _, start, end, parent, op, kind in tracer.spans:
        if parent < 0:
            durations[op, kind] = end - start
    for name, self_time, op, kind in tracer.self_times():
        subtree[op, kind] += self_time
        if kind == ROOT_OP:
            calls[name] += 1
            self_s[name] += self_time * records[op].scale
        else:
            check_self[name] += self_time
    self_sum_err = max(abs(subtree[k] - durations[k]) for k in durations)

    metrics = {}
    for metric, unit, _ in per_layer_names():
        qualname, stat = metric.rsplit(".", 1)
        if qualname in TRACED and stat == "calls":
            value = calls[qualname] / passes
        elif qualname in TRACED and stat == "self_ms":
            value = 1000.0 * self_s[qualname] / passes
        else:
            continue
        metrics[metric] = {"value": value, "unit": unit}
    terms = tracer.observed.get("locc.mixing_decomposition", [])
    wrapped_calls = sum(n for name, n in calls.items() if name != ROOT_OP)
    per_call = wrapper_cost_seconds()
    metrics.update({
        "locc.mixing_decomposition.terms_per_dim": {
            "value": sum(terms) / len(terms) if terms else 0.0, "unit": "terms/d"},
        "io.bytes_out": {"value": sum(tracer.observed.get("io.write_text", [])) / passes,
                         "unit": "bytes"},
        "bench.capture.self_ms": {"value": 1000.0 * self_s[ROOT_OP] / passes, "unit": "cal-ms"},
        "setup.import_ms": {"value": 1000.0 * setup["import_s"], "unit": "ms"},
        "setup.inputs_ms": {"value": 1000.0 * setup["inputs_s"], "unit": "ms"},
        "trace.ops_per_s": {"value": ops_per_s(records), "unit": "1/cal-s"},
        "trace.spans": {"value": wrapped_calls / passes, "unit": "count"},
        "trace.overhead_pct": {"value": 100.0 * per_call * wrapped_calls / timed, "unit": "%"},
    })
    details = {
        "passes": passes,
        "self_sum_max_err_s": self_sum_err,
        "wrapper_cost_us": 1e6 * per_call,
        "check_self_ms": {k: 1000.0 * v for k, v in sorted(check_self.items())},
    }
    return metrics, details


def _write_trace(path: str, tracer: Tracer, records: list[Record], corpus: Corpus,
                 details: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "details": details,
            "op_fields": ["seq", "label", "wall_s", "scale", "ok"],
            "ops": [[seq, corpus.ops[r.index].label, r.seconds, r.scale, r.ok]
                    for seq, r in enumerate(records)],
            "span_fields": ["id", "name", "start", "end", "parent", "op", "root"],
            "spans": tracer.spans,
        }, fh)


# --------------------------------------------------------------------------- #
#                                    entry                                     #
# --------------------------------------------------------------------------- #

def child_main(args, started: float, import_s: float) -> int:
    """Build the inputs, then either report set-up or run the workload.

    Set-up time is calibrated by the reference interpreter, timed by the
    launcher just before this process started and here just after the
    inputs are built (see ``stats.REFERENCE_S``).
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        t0 = time.monotonic()
        corpus = BUILD_CORPUS[args.workload](args.seed, work)
        ready = time.monotonic()
        scale = 2 * stats.REFERENCE_S / (args.reference_before + stats.reference_seconds())
        setup = {"import_s": import_s * scale, "inputs_s": (ready - t0) * scale}
        base = {"ready": ready, "started": started, "digest": corpus.digest,
                "setup_scale": scale}
        if args.role == "setup":
            print(json.dumps(base))
            return 0
        return _measure(args, corpus, setup, base)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, corpus: Corpus, setup: dict, base: dict) -> int:
    rss_before_loop = peak_rss_mb()
    tracer = Tracer() if args.trace else None
    install = tracer.install(TRACED) if tracer else contextlib.nullcontext()
    with install:
        records, timed, passes, outputs = run_loop(corpus, args.seconds, tracer,
                                                   whole_passes=bool(tracer))
    failures = Counter(corpus.ops[r.index].label for r in records if not r.ok)
    reasons = {}
    for r in records:
        if not r.ok:
            reasons.setdefault(corpus.ops[r.index].label, r.reason)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": corpus.digest,
        "distinct_ops": len(corpus.ops),
        "timed_s": timed,
        "passes_completed": passes,
        "failures": dict(sorted(failures.items())),
        "failure_reasons": dict(sorted(reasons.items())),
        "env": environment(),
        "setup_import_s": setup["import_s"],
        "setup_inputs_s": setup["inputs_s"],
        # Peak memory once the inputs are built, before any op or check ran.
        "rss_before_loop_mb": rss_before_loop,
        # Distinct (op, exit code, output digest) triples: equal between a
        # traced and an untraced run of the same seed.
        "outputs_digest": hashlib.sha256(json.dumps(sorted(outputs)).encode()).hexdigest(),
    }
    correct = True
    if tracer:
        metrics, trace_details = per_layer(tracer, records, timed, passes, setup)
        details.update(trace_details)
        correct = trace_details["self_sum_max_err_s"] <= 1e-9
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        _write_trace(path, tracer, records, corpus, details)
        details["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics, summary = end_to_end(records)
        details.update(summary)
    attempted, failed = first_pass_counts(records, len(corpus.ops))
    print(json.dumps(dict(base, details=details, correct=correct, attempted=attempted,
                          failed=failed, metrics=metrics)))
    sys.stdout.flush()
    return 0

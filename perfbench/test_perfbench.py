"""Tests of the benchmark itself: tail percentile, oracles, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT_OP, Tracer  # noqa: E402


# --------------------------------------------------------------------------- #
#                               tail percentile                                #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "n, pct",
    [(1, 100.0), (19, 100.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_value_is_nearest_rank_with_ten_beyond():
    values = list(range(1, 201))  # 200 samples: p90 is the 180th, 20 beyond
    assert stats.tail_value(values) == (90.0, 180)
    values = list(range(1, 101))  # 100 samples: p90 is the 90th, exactly 10 beyond
    assert stats.tail_value(values[::-1]) == (90.0, 90)
    assert stats.tail_value([3.0, 1.0, 2.0]) == (100.0, 3.0)


# --------------------------------------------------------------------------- #
#                       oracles reject perturbed outputs                       #
# --------------------------------------------------------------------------- #

def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _perturb_csv(text: str, row: int, column: str, new) -> str:
    rows = _csv_rows(text)
    col = rows[0].index(column)
    rows[row][col] = new(rows[row][col])
    return _csv_text(rows)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return {
        name: build(7, str(tmp_path_factory.mktemp(name)))
        for name, build in workloads.BUILD_CORPUS.items()
    }


def _first(corpus, prefix):
    return next(op for op in corpus.ops if op.label.startswith(prefix))


def _rejects(op, payload) -> bool:
    """The harness counts an oracle that raises as a failed check."""
    try:
        return not op.check(payload)
    except Exception:
        return True


def _passing_output(op):
    outcome = op.run()
    assert outcome.code == 0, outcome.message
    assert op.check(outcome.payload)
    return outcome.payload


def test_synth_oracle_rejects_perturbed_protocol(corpora):
    op = _first(corpora["synth"], "synth/d4/")
    doc = json.loads(_passing_output(op))
    doc["alice_kraus"][0][0][0][0] += 1e-4
    assert _rejects(op, json.dumps(doc))
    doc = json.loads(_passing_output(op))
    del doc["bob_unitaries"][-1]
    assert _rejects(op, json.dumps(doc))
    assert _rejects(op, json.dumps({"feasible": False}))


def test_simulate_oracle_rejects_perturbed_probabilities(corpora):
    op = _first(corpora["protocol"], "protocol/simulate/")
    text = _passing_output(op)
    assert _rejects(op, _perturb_csv(text, 1, "probability", lambda v: repr(float(v) + 1e-6)))
    rows = _csv_rows(text)
    assert _rejects(op, _csv_text(rows[:-1]))  # a leaf is missing


def test_reduce_oracle_rejects_perturbed_kraus(corpora):
    ops = [op for op in corpora["protocol"].ops if op.label.startswith("protocol/reduce/d4/r6/")]
    for op in ops:
        outcome = op.run()
        if outcome.code == 0:
            break
    else:
        pytest.fail("no 64-leaf reduction succeeded")
    assert op.check(outcome.payload)
    doc = json.loads(outcome.payload)
    doc["bob_unitaries"][0][0][0][1] += 1e-3
    assert _rejects(op, json.dumps(doc))
    doc = json.loads(outcome.payload)
    doc["alice_kraus"][0] = [[[0.0, 0.0] for _ in row] for row in doc["alice_kraus"][0]]
    assert _rejects(op, json.dumps(doc))


def test_kappa_oracle_rejects_wrong_profiles(corpora):
    op = _first(corpora["sweeps"], "sweeps/kappa/0.25/")
    text = _passing_output(op)
    assert _rejects(op, _perturb_csv(text, 1, "deviation", lambda v: "0.001"))
    assert _rejects(op, _perturb_csv(text, 3, "deviation", lambda v: "2.5"))
    assert _rejects(op, _perturb_csv(text, 5, "deviation", lambda v: repr(float(v) + 1e-9)))


def test_catalysis_oracle_rejects_perturbed_deviation(corpora):
    op = _first(corpora["sweeps"], "sweeps/catalysis/")
    text = _passing_output(op)
    assert _rejects(op, _perturb_csv(text, 1, "deviation", lambda v: repr(float(v) + 1e-9)))


def test_embezzle_oracle_rejects_perturbed_error_and_bound(corpora):
    op = _first(corpora["sweeps"], "sweeps/embezzle/")
    text = _passing_output(op)
    assert _rejects(op, _perturb_csv(text, 1, "trace_error", lambda v: repr(float(v) + 1e-6)))
    assert _rejects(op, _perturb_csv(text, 2, "meets_bound", lambda v: "false"))


def test_flow_oracle_rejects_perturbed_value(corpora):
    op = _first(corpora["sweeps"], "sweeps/flow/300")
    value = _passing_output(op)
    assert _rejects(op, value + 1e-9)


def test_catalysis_reference_is_the_binomial_step_sum():
    # m = 1: masses (q, p); steps |q - 0| + |p - q| + |0 - p|.
    p = 0.25 / 1.25
    assert math.isclose(workloads.binomial_step_l1(0.25, 1), (1 - p) + abs(1 - 2 * p) + p)


# --------------------------------------------------------------------------- #
#                              metrics and mixes                               #
# --------------------------------------------------------------------------- #

def test_passed_frac_counts_each_distinct_op_once():
    # Op 0 ran three times and failed every time; op 1 ran once and passed.
    records = [harness.Record(0, 0.01, 1.0, False, "x") for _ in range(3)]
    records.append(harness.Record(1, 0.03, 1.0, True, ""))
    metrics, details = harness.end_to_end(records)
    assert metrics["passed_frac"]["value"] == 0.5
    assert math.isclose(metrics["ops_per_s"]["value"], 1 / 0.04)
    assert details["samples"] == 2 and details["executions"] == 4


def test_attempted_and_failed_count_the_first_pass_only():
    # Two ops, one pass plus part of a second: the second pass adds nothing.
    records = [harness.Record(0, 0.01, 1.0, False, "x"), harness.Record(1, 0.01, 1.0, True, ""),
               harness.Record(0, 0.01, 1.0, False, "x")]
    assert harness.first_pass_counts(records, 2) == (2, 1)
    assert harness.first_pass_counts(records[:2], 2) == (2, 1)


def test_each_size_class_gets_about_an_equal_time_share():
    assert workloads.per_class(3000.0, 18.3, 3) == 165
    assert workloads.per_class(100.0, 1000.0, 3) == 3  # never empty
    for (d, count), (_, ms) in zip(workloads.SYNTH_MIX, workloads.SYNTH_CLASSES):
        cycle_ms = len(workloads.SYNTH_SHAPES) * ms
        assert abs(count * ms - workloads.SYNTH_SHARE_MS) <= cycle_ms / 2 + 1e-9, d


# --------------------------------------------------------------------------- #
#                                   inputs                                     #
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("shape", workloads.SYNTH_SHAPES)
def test_targets_majorize_their_sources(shape):
    rng = np.random.default_rng(5)
    for d in (4, 8, 16):
        s = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        t = workloads.target_spectrum(s, shape)
        assert abs(t.sum() - 1.0) < 1e-12
        assert np.all(np.cumsum(t) >= np.cumsum(s) - 1e-12)
    if shape == "tie_heavy":
        assert np.unique(np.round(t, 15)).size < t.size


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build_sweeps(3, str(tmp_path / "a"))
    b = workloads.build_sweeps(3, str(tmp_path / "b"))
    c = workloads.build_sweeps(4, str(tmp_path / "c"))
    assert a.digest == b.digest != c.digest
    assert a.order == b.order


def test_scripted_protocol_reaches_its_leaf_cap():
    rng = np.random.default_rng(0)
    for d, rounds, cap in ((3, 6, 64), (4, 10, 1024)):
        doc = workloads.scripted_protocol(rng, d, rounds, cap)
        leaves = workloads.reference_leaves(doc, np.eye(d) / math.sqrt(d))
        assert len(leaves) == cap
        assert abs(math.fsum(p for p, _, _ in leaves) - 1.0) < 1e-12


# --------------------------------------------------------------------------- #
#                                   tracing                                    #
# --------------------------------------------------------------------------- #

def _sample_ops(corpora):
    picks = []
    for corpus in corpora.values():
        seen = set()
        for op in corpus.ops:
            cls = op.label.rsplit("/", 1)[0]
            if cls not in seen and "cap1024" not in op.label and "d16" not in op.label \
                    and "2000" not in op.label and "embezzle" not in op.label:
                seen.add(cls)
                picks.append(op)
    return picks


def test_traced_and_untraced_runs_give_identical_outputs(corpora):
    ops = _sample_ops(corpora)
    plain = [op.run() for op in ops]
    tracer = Tracer()
    with tracer.install(harness.TRACED):
        traced = []
        for seq, op in enumerate(ops):
            with tracer.root(ROOT_OP, seq):
                traced.append(op.run())
    for op, a, b in zip(ops, plain, traced):
        assert (a.code, a.payload, a.message) == (b.code, b.payload, b.message), op.label
    names = {name for _, name, *_ in tracer.spans}
    assert {"cli.dispatch", "locc.mixing_decomposition", "locc.simulate",
            "spectra.l1_distance", "embezzle.lambda_family_measure"} <= names


def test_install_restores_every_module():
    import entlab.cli
    import entlab.locc
    import entlab.spectra

    before = (entlab.cli.nielsen_synthesize, entlab.locc.majorizes, entlab.spectra.l1_distance)
    tracer = Tracer()
    with tracer.install(harness.TRACED):
        assert entlab.cli.nielsen_synthesize is not before[0]
        assert entlab.locc.majorizes is not before[1]
    assert (entlab.cli.nielsen_synthesize, entlab.locc.majorizes,
            entlab.spectra.l1_distance) == before


def test_self_times_add_up_to_each_op(corpora):
    ops = _sample_ops(corpora)[:6]
    tracer = Tracer()
    with tracer.install(harness.TRACED):
        for seq, op in enumerate(ops):
            with tracer.root(ROOT_OP, seq):
                op.run()
    totals: dict = {}
    for name, self_time, op_id, kind in tracer.self_times():
        assert self_time >= -1e-12
        totals[op_id] = totals.get(op_id, 0.0) + self_time
    for sid, name, start, end, parent, op_id, kind in tracer.spans:
        if parent < 0:
            assert abs(totals[op_id] - (end - start)) < 1e-9


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == harness.per_layer_names()

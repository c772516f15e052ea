"""Round-trip tests for the JSON schemas and end-to-end CLI checks.

Most CLI runs go through ``dispatch`` in-process (fast); a handful of
subprocess calls pin the module entry point and the process exit codes.
"""

from __future__ import annotations

import csv
import io as stdio
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entlab
from entlab import (
    LambdaFamilySpec,
    TypeLabel,
    bell_state,
    catalytic_deviation,
    density,
    family_kappa_profile,
    instrument,
    locc_protocol,
    locc_round,
    nielsen_synthesize,
    one_way_branches,
    one_way_reduce,
    product_basis_state,
    pure_state,
    random_density,
    simulate,
    spectrum,
    state_from_schmidt,
)
from entlab import io as eio
from entlab.cli import CommandConfig, dispatch, emit_sweep
from entlab.errors import InvalidInputError


# --------------------------------------------------------------------------- #
#                                   Helpers                                    #
# --------------------------------------------------------------------------- #

def run_cli(argv, capsys):
    capsys.readouterr()  # drop anything pending
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    eio.write_text(str(path), eio.canonical_json(doc))
    return str(path)


@pytest.fixture
def state_files(tmp_path):
    return {
        "bell": write_doc(tmp_path, "bell.json", eio.state_to_json(bell_state(2))),
        "phi73": write_doc(
            tmp_path,
            "phi73.json",
            eio.state_to_json(state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])),
        ),
        "prod": write_doc(tmp_path, "prod.json", eio.state_to_json(product_basis_state(2, 2))),
    }


def correction_protocol():
    """Two rounds: Alice measures in the computational basis, Bob flips
    conditionally.  On a Bell pair both branches land on product states."""
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    eye = np.eye(2)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    return locc_protocol(
        [
            locc_round("A", {(): instrument([p0, p1], ["zero", "one"])}),
            locc_round(
                "B",
                {
                    ("zero",): instrument([eye], ["u"]),
                    ("one",): instrument([flip], ["u"]),
                },
            ),
        ]
    )


# --------------------------------------------------------------------------- #
#                            Canonical serialization                           #
# --------------------------------------------------------------------------- #

def test_float_format_round_trips_exactly():
    awkward = [1 / 3, 0.1, 2 / 7, 1e-300, 123456.78901234567, -0.0, 4 / 3, math.pi]
    for x in awkward:
        assert float(eio.format_float(x)) == x
    assert eio.format_float(0.5) == "0.5"
    with pytest.raises(InvalidInputError):
        eio.format_float(float("nan"))
    with pytest.raises(InvalidInputError):
        eio.format_float(float("inf"))


def test_canonical_json_is_deterministic_and_typed():
    doc = {"b": 1.0, "a": [1, 2.5, True, None, "x"], "nested": {"k": [0.1]}}
    text = eio.canonical_json(doc)
    assert text == eio.canonical_json(doc)
    assert text.index('"b"') < text.index('"a"')  # insertion order, not sorted
    parsed = json.loads(text)
    assert parsed["a"] == [1, 2.5, True, None, "x"]
    assert parsed["nested"]["k"][0] == 0.1
    assert eio.canonical_json(np.float64(0.25)) == "0.25"
    assert eio.canonical_json(np.int64(7)) == "7"
    with pytest.raises(InvalidInputError):
        eio.canonical_json({1: "non-string key"})
    with pytest.raises(InvalidInputError):
        eio.canonical_json(object())


def test_state_density_operator_round_trips():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    amps /= np.linalg.norm(amps)
    psi = pure_state((2, 3), amps)
    back = eio.state_from_json(json.loads(eio.canonical_json(eio.state_to_json(psi))))
    assert back.dims == psi.dims
    # Serialized floats round-trip exactly; the constructors renormalize,
    # which may move the entries by one ulp.
    assert np.allclose(back.amplitudes, psi.amplitudes, rtol=0, atol=1e-15)

    rho = random_density(3, seed=5)
    back_rho = eio.density_from_json(json.loads(eio.canonical_json(eio.density_to_json(rho))))
    assert np.allclose(back_rho.entries, rho.entries, rtol=0, atol=1e-15)

    op = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    back_op = eio.operator_from_json(json.loads(eio.canonical_json(eio.operator_to_json(op))))
    assert np.array_equal(back_op, op)


def test_spectrum_stepfn_measure_round_trips():
    from entlab import atomic_measure, spectral_scale, spectrum

    s = spectrum([0.5, 0.3, 0.2])
    assert eio.spectrum_from_json(json.loads(eio.canonical_json(eio.spectrum_to_json(s)))) == s
    f = spectral_scale(s)
    back_f = eio.step_function_from_json(
        json.loads(eio.canonical_json(eio.step_function_to_json(f)))
    )
    assert back_f == f
    m = atomic_measure([0.5, 0.25], [0.75, 0.25])
    back_m = eio.measure_from_json(json.loads(eio.canonical_json(eio.measure_to_json(m))))
    assert back_m.atoms == m.atoms and back_m.masses == m.masses


def test_protocol_round_trip_preserves_simulation():
    protocol = correction_protocol()
    doc = json.loads(eio.canonical_json(eio.protocol_to_json(protocol)))
    back = eio.protocol_from_json(doc)
    bell = bell_state(2)
    original = simulate(protocol, bell)
    restored = simulate(back, bell)
    assert len(original) == len(restored) == 2
    for b1, b2 in zip(original, restored):
        assert b1.history == b2.history
        assert b1.probability == b2.probability
        assert np.array_equal(b1.state.amplitudes, b2.state.amplitudes)
    # Serialization itself is stable byte-for-byte.
    assert eio.canonical_json(eio.protocol_to_json(back)) == eio.canonical_json(
        eio.protocol_to_json(protocol)
    )


def test_one_way_round_trip_with_rectangular_bob_ops():
    psi = bell_state(2)
    phi = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)], dims=(2, 3))
    protocol = nielsen_synthesize(psi, phi)
    assert any(u.shape[0] != u.shape[1] for u in protocol.bob_unitaries)
    back = eio.one_way_from_json(json.loads(eio.canonical_json(eio.one_way_to_json(protocol))))
    for k1, k2 in zip(protocol.alice_kraus, back.alice_kraus):
        assert np.array_equal(k1, k2)
    for u1, u2 in zip(protocol.bob_unitaries, back.bob_unitaries):
        assert np.array_equal(u1, u2)


def test_malformed_documents_are_rejected():
    good_state = eio.state_to_json(bell_state(2))
    wrong_kind = dict(good_state, kind="density")
    with pytest.raises(InvalidInputError):
        eio.state_from_json(wrong_kind)
    missing = {k: v for k, v in good_state.items() if k != "amplitudes"}
    with pytest.raises(InvalidInputError):
        eio.state_from_json(missing)
    with pytest.raises(InvalidInputError):
        eio.state_from_json(dict(good_state, amplitudes=[[1.0, 0.0, 0.0]] * 4))
    with pytest.raises(InvalidInputError):
        eio.operator_from_json(
            {"kind": "operator", "shape": [2, 2], "entries": [[[1, 0], [0, 0]], [[0, 0]]]}
        )
    with pytest.raises(InvalidInputError):
        eio.one_way_from_json(
            {"kind": "one_way", "alice_kraus": [[[[1, 0]]]], "bob_unitaries": []}
        )
    with pytest.raises(InvalidInputError):
        eio.spectrum_from_json({"kind": "spectrum", "values": ["a"]})


def test_type_label_json_shapes():
    assert eio.type_label_to_json(TypeLabel("III_lambda", 0.5)) == {
        "family": "III_lambda",
        "lambda": 0.5,
    }
    assert eio.type_label_to_json(TypeLabel("II_1")) == {"family": "II_1"}


# --------------------------------------------------------------------------- #
#                                 emit_sweep                                   #
# --------------------------------------------------------------------------- #

def test_emit_sweep_empty_rows_gives_header_only_csv(tmp_path, capsys):
    emit_sweep([], ["a", "b"], CommandConfig())
    out = capsys.readouterr().out
    assert out.splitlines() == ["a,b"]
    path = tmp_path / "table.csv"
    emit_sweep([], ["a", "b"], CommandConfig(out=str(path)))
    assert path.read_bytes() == b"a,b\r\n"


def test_emit_sweep_quotes_per_rfc4180(capsys):
    emit_sweep(
        [{"name": 'needs, "quoting"', "v": 1.5}],
        ["name", "v"],
        CommandConfig(),
    )
    out = capsys.readouterr().out
    assert '"needs, ""quoting"""' in out
    reader = csv.DictReader(stdio.StringIO(out))
    row = next(reader)
    assert row["name"] == 'needs, "quoting"' and float(row["v"]) == 1.5


def test_emit_sweep_rejects_ragged_rows():
    with pytest.raises(InvalidInputError):
        emit_sweep([{"a": 1}, {"a": 1, "b": 2}], ["a"], CommandConfig())


def test_command_config_validation():
    with pytest.raises(InvalidInputError):
        CommandConfig(format="yaml")


# --------------------------------------------------------------------------- #
#                              CLI: record commands                            #
# --------------------------------------------------------------------------- #

def test_cli_locc_decide_both_ways(state_files, capsys):
    code, out, _ = run_cli(["locc", "decide", state_files["bell"], state_files["phi73"]], capsys)
    assert code == 0 and json.loads(out) == {"feasible": True}
    code, out, _ = run_cli(["locc", "decide", state_files["phi73"], state_files["bell"]], capsys)
    assert code == 0 and json.loads(out) == {"feasible": False}


def test_cli_schmidt_and_monotones(state_files, capsys):
    code, out, _ = run_cli(["schmidt", state_files["bell"]], capsys)
    record = json.loads(out)
    assert code == 0 and record["rank"] == 2
    assert record["coefficients"] == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)

    code, out, _ = run_cli(["monotones", state_files["bell"], "--alpha", "0.5,2.0"], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["H"] == pytest.approx(math.log(2), abs=1e-12)
    assert record["H_alpha"]["0.5"] == pytest.approx(math.log(2), abs=1e-12)
    assert record["H_alpha"]["2"] == pytest.approx(math.log(2), abs=1e-12)
    assert record["schmidt_rank"] == 2


def test_cli_distinguish_hand_values(tmp_path, capsys):
    rho = write_doc(tmp_path, "rho.json", eio.density_to_json(density(np.diag([0.7, 0.3]))))
    sig = write_doc(tmp_path, "sig.json", eio.density_to_json(density(np.diag([0.5, 0.5]))))
    code, out, _ = run_cli(["distinguish", rho, sig], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["trace_distance"] == pytest.approx(0.4, abs=1e-12)
    expected_fid = (math.sqrt(0.35) + math.sqrt(0.15)) ** 2
    assert record["fidelity"] == pytest.approx(expected_fid, abs=1e-12)


def test_cli_oneshot_and_slocc(state_files, capsys):
    code, out, _ = run_cli(["oneshot", state_files["bell"]], capsys)
    assert code == 0 and json.loads(out) == {"n_max": 2, "ebits": 1}
    code, out, _ = run_cli(["oneshot", state_files["prod"]], capsys)
    assert code == 0 and json.loads(out) == {"n_max": 1, "ebits": 0}

    code, out, _ = run_cli(["slocc", state_files["bell"], state_files["phi73"]], capsys)
    record = json.loads(out)
    assert code == 0 and record["feasible"] is True
    assert record["success_prob"] == pytest.approx(5 / 7, abs=1e-12)
    filt = eio.operator_from_json(record["filter"]["a_A"])
    assert filt.shape == (2, 2)
    code, out, _ = run_cli(["slocc", state_files["prod"], state_files["bell"]], capsys)
    record = json.loads(out)
    assert code == 0 and record["feasible"] is False and "filter" not in record


def test_cli_classify_examples_and_validation(capsys):
    code, out, _ = run_cli(["classify", "--spectrum", "0.5,0.5"], capsys)
    assert code == 0 and json.loads(out) == {"family": "II_1"}
    code, out, _ = run_cli(["classify", "--spectrum", "0.66666666666666663,0.33333333333333331"], capsys)
    record = json.loads(out)
    assert code == 0 and record["family"] == "III_lambda"
    assert record["lambda"] == pytest.approx(0.5, abs=1e-9)
    code, _, err = run_cli(["classify", "--spectrum", "0.5,0.5,0"], capsys)
    assert code == 2 and "positive" in err
    code, _, _ = run_cli(["classify", "--spectrum", "0.5,oops"], capsys)
    assert code == 2


# --------------------------------------------------------------------------- #
#                               CLI: sweeps                                    #
# --------------------------------------------------------------------------- #

def test_cli_embezzle_sweep_csv_contract(capsys):
    argv = ["embezzle", "sweep", "--d", "2", "--n-list", "256,16,65536"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert [row["n"] for row in rows] == ["16", "256", "65536"]  # sorted by n
    for row in rows:
        assert float(row["fidelity"]) >= float(row["fidelity_bound"])
        assert row["meets_bound"] == "true"
    # rerun is byte-identical
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == 0 and out2 == out
    # json format carries the same numbers
    code3, out3, _ = run_cli(argv + ["--format", "json"], capsys)
    records = json.loads(out3)
    assert code3 == 0
    assert [r["n"] for r in records] == [16, 256, 65536]
    for row, rec in zip(rows, records):
        assert float(row["fidelity"]) == rec["fidelity"]


def test_cli_embezzle_sweep_with_files_and_out(tmp_path, state_files, capsys):
    out_path = tmp_path / "sweep.csv"
    argv = [
        "embezzle", "sweep", "--d", "2", "--n-list", "16,64",
        "--target", state_files["phi73"], "--start", state_files["prod"],
        "--out", str(out_path),
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out == ""
    rows = list(csv.DictReader(stdio.StringIO(out_path.read_text())))
    assert len(rows) == 2
    from entlab import embezzle_report

    expected = embezzle_report(
        16, product_basis_state(2, 2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    )
    assert float(rows[0]["fidelity"]) == expected.fidelity


def test_cli_kappa_profile_columns_sorted_by_t(capsys):
    argv = [
        "kappa", "profile", "--family", "lambda", "--lambda", "0.5",
        "--m", "2", "--t-min", "0.1", "--t-max", "0.9", "--steps", "5",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    ts = [float(row["t"]) for row in rows]
    assert len(ts) == 5 and ts == sorted(ts)
    expected = family_kappa_profile(LambdaFamilySpec(0.5, 2), ts)
    assert [float(row["deviation"]) for row in rows] == pytest.approx(expected, abs=0)
    code, _, _ = run_cli(argv[:-1] + ["0"], capsys)  # steps = 0
    assert code == 2


def test_cli_catalysis_decay_hand_values(capsys):
    code, out, _ = run_cli(["catalysis", "decay", "--lambda", "0.5", "--m-list", "2,1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert [row["m"] for row in rows] == ["1", "2"]
    assert float(rows[0]["deviation"]) == catalytic_deviation(LambdaFamilySpec(0.5, 1), math.log(2))
    assert float(rows[0]["deviation"]) == pytest.approx(4 / 3, abs=1e-12)
    assert float(rows[1]["deviation"]) == pytest.approx(8 / 9, abs=1e-12)


# --------------------------------------------------------------------------- #
#                        CLI: synthesis / simulation flow                      #
# --------------------------------------------------------------------------- #

def test_cli_synth_simulate_reduce_flow(tmp_path, state_files, capsys):
    protocol_path = tmp_path / "p.json"
    code, out, _ = run_cli(
        ["locc", "synth", state_files["bell"], state_files["phi73"], "--out", str(protocol_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(protocol_path.read_text())
    assert doc["kind"] == "one_way"

    code, out, _ = run_cli(["locc", "simulate", str(protocol_path), state_files["bell"]], capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    probs = [float(row["probability"]) for row in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    protocol = nielsen_synthesize(
        bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    )
    expected = {
        eio.HISTORY_SEP.join(b.history): b.probability
        for b in one_way_branches(protocol, bell_state(2))
    }
    got = {row["history"]: float(row["probability"]) for row in rows}
    assert set(got) == set(expected)
    for history, prob in got.items():
        assert prob == pytest.approx(expected[history], abs=1e-12)


def test_cli_synth_refusal_is_data(state_files, capsys):
    code, out, _ = run_cli(["locc", "synth", state_files["phi73"], state_files["bell"]], capsys)
    assert code == 0 and json.loads(out) == {"feasible": False}


def test_cli_simulate_and_reduce_scripted_protocol(tmp_path, state_files, capsys):
    protocol = correction_protocol()
    protocol_path = write_doc(tmp_path, "corr.json", eio.protocol_to_json(protocol))
    code, out, _ = run_cli(["locc", "simulate", protocol_path, state_files["bell"]], capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert [row["history"] for row in rows] == ["one,u", "zero,u"]
    assert [float(row["probability"]) for row in rows] == pytest.approx([0.5, 0.5], abs=1e-12)

    code, out, _ = run_cli(["locc", "reduce", protocol_path, state_files["bell"]], capsys)
    assert code == 0
    reduced = eio.one_way_from_json(json.loads(out))
    direct = simulate(protocol, bell_state(2))
    mirrored = one_way_branches(reduced, bell_state(2))
    assert len(direct) == len(mirrored)
    for b1, b2 in zip(direct, mirrored):
        assert b1.probability == pytest.approx(b2.probability, abs=1e-10)
        overlap = abs(np.vdot(b1.state.amplitudes, b2.state.amplitudes))
        assert overlap >= 1 - 1e-7


def test_one_way_branches_validation():
    protocol = nielsen_synthesize(
        bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    )
    with pytest.raises(InvalidInputError):
        one_way_branches(protocol, product_basis_state(3, 2))
    branches = one_way_branches(protocol, bell_state(2))
    assert [b.history for b in branches] == [("0",), ("1",)]
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)


# --------------------------------------------------------------------------- #
#                            CLI: errors and process                           #
# --------------------------------------------------------------------------- #

def test_cli_error_exit_codes(tmp_path, state_files, capsys):
    code, _, _ = run_cli(["oneshot", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["oneshot", str(bad)], capsys)
    assert code == 2
    code, _, _ = run_cli(["oneshot", state_files["bell"], "--tol", "0.1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["oneshot", state_files["bell"], "--out", "/nonexistent-dir/x.json"], capsys)
    assert code == 3
    wrong_kind = write_doc(tmp_path, "wrong.json", eio.spectrum_to_json(spectrum([1.0])))
    code, _, _ = run_cli(["oneshot", wrong_kind], capsys)
    assert code == 2


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--tol", "1e-9"]], ids=["seed", "tol"])
def test_cli_removed_global_flags_are_usage_errors(state_files, capsys, flag):
    code, out, err = run_cli(["oneshot", state_files["bell"], *flag], capsys)
    assert code == 2 and out == ""
    assert "usage:" in err and f"unrecognized arguments: {' '.join(flag)}" in err


def test_cli_commands_back_to_back_in_one_process(state_files, capsys):
    """The parser is built once per process; one command's flags, defaults
    and usage errors do not leak into the next."""
    kappa = ["kappa", "profile", "--family", "lambda", "--lambda", "0.5",
             "--m", "2", "--t-min", "0", "--t-max", "0.5", "--steps", "3"]
    code, first, _ = run_cli(kappa + ["--format", "json"], capsys)
    assert code == 0 and json.loads(first)[0] == {"deviation": 0.0, "t": 0.0}
    code, out, _ = run_cli(["classify", "--spectrum", "0.5,0.5"], capsys)
    assert code == 0 and json.loads(out) == {"family": "II_1"}
    code, out, err = run_cli(["oneshot", state_files["bell"], "--m", "2"], capsys)
    assert code == 2 and out == "" and "unrecognized arguments: --m 2" in err
    code, out, _ = run_cli(kappa, capsys)
    assert code == 0 and out.startswith("t,deviation\r\n")  # csv again
    assert [float(r["deviation"]) for r in csv.DictReader(stdio.StringIO(out))] == [
        r["deviation"] for r in json.loads(first)
    ]
    code, out, _ = run_cli(["locc", "decide", state_files["bell"], state_files["phi73"]], capsys)
    assert code == 0 and json.loads(out) == {"feasible": True}


def test_cli_subprocess_entry_point(state_files):
    base = [sys.executable, "-m", "entlab.cli"]
    # the child imports the same entlab as this process, installed or not
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        base + ["locc", "decide", state_files["bell"], state_files["phi73"]],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"feasible": True}

    done = subprocess.run(
        base + ["classify", "--spectrum", "0.5,0.5"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0 and json.loads(done.stdout) == {"family": "II_1"}

    done = subprocess.run(base + ["bogus"], capture_output=True, text=True, env=env)
    assert done.returncode == 2 and "usage" in done.stderr.lower()


@pytest.mark.parametrize(
    "t_min, t_max, text",
    [("0", "800", "flow time t=800.0 "), ("-800", "0", "flow time t=-800.0 "),
     ("-720", "0", "overflows float64")],
    ids=["forward", "backward", "subnormal"],
)
def test_cli_kappa_profile_out_of_float_range_is_a_usage_error(t_min, t_max, text):
    """A flow time that leaves float64 exits 2 with one line naming it: no
    traceback, no NumPy warning."""
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "4",
            "--t-min", t_min, "--t-max", t_max, "--steps", "3"]
    done = subprocess.run(
        [sys.executable, "-m", "entlab.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("entlab: ") and text in done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr

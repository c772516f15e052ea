"""Round-trip tests for the JSON schemas and end-to-end CLI checks.

Most CLI runs go through ``dispatch`` in-process (fast); a handful of
subprocess calls pin the module entry point and the process exit codes.
"""

from __future__ import annotations

import csv
import hashlib
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
    random_pure_state,
    simulate,
    spectrum,
    state_from_schmidt,
    vdh_bound,
)
from entlab import io as eio
from entlab.cli import CommandConfig, dispatch, emit_sweep
from entlab.errors import InvalidInputError
from entlab.locc import Instrument, OneWayProtocol


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


def test_documents_round_trip_without_json_text():
    """The *_to_json documents hold complex fields as arrays; the parsers
    take them back as they are."""
    psi = random_pure_state((2, 3), 4)
    assert np.array_equal(eio.state_from_json(eio.state_to_json(psi)).amplitudes, psi.amplitudes)
    rho = random_density(3, seed=5)
    assert np.allclose(eio.density_from_json(eio.density_to_json(rho)).entries, rho.entries,
                       rtol=0, atol=1e-15)
    op = np.arange(6.0).reshape(2, 3) * (1 + 2j)
    assert np.array_equal(eio.operator_from_json(eio.operator_to_json(op)), op)
    protocol = correction_protocol()
    back = eio.protocol_from_json(eio.protocol_to_json(protocol))
    assert eio.canonical_json(eio.protocol_to_json(back)) == eio.canonical_json(
        eio.protocol_to_json(protocol))
    one_way = one_way_reduce(protocol, bell_state(2))
    again = eio.one_way_from_json(eio.one_way_to_json(one_way))
    assert all(map(np.array_equal, one_way.alice_kraus + one_way.bob_unitaries,
                   again.alice_kraus + again.bob_unitaries))


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


def _one_instrument_protocol(kraus):
    branch = {"kraus": kraus, "labels": ["0"]}
    return {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": {"": branch}}]}


@pytest.mark.parametrize(
    "kraus, offender",
    [
        ([[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]], "got [True, 0] at kraus[0][0][0]"),
        ([[[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]], "got ['0', 0] at kraus[0][0][1]"),
        ([[[[1, 0], [0, 0]], [[0, None], [1, 0]]]], "got [0, None] at kraus[0][1][0]"),
        ([[[[1, 0], [0, 0]], [None, [1, 0]]]], "got None at kraus[0][1][0]"),
        ([[[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]]], "got [1, 0, 0] at kraus[0][1][1]"),
        ([[[[1, 0], [0, 0]], [[1, 0]]]], "kraus[0][1] has 1 entries, kraus[0][0] has 2"),
        ([], "got [] at kraus"),
    ],
    ids=["bool", "string", "null-number", "null-pair", "three-long-pair", "ragged-rows",
         "no-outcomes"],
)
def test_array_parser_names_the_offending_entry(kraus, offender):
    with pytest.raises(InvalidInputError) as info:
        eio.protocol_from_json(_one_instrument_protocol(kraus))
    assert str(info.value).startswith("kraus ") and offender in str(info.value)


def test_array_parser_refuses_a_shape_that_does_not_match_the_entries():
    entries = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    good = eio.operator_from_json({"kind": "operator", "shape": [2, 2], "entries": entries})
    assert np.array_equal(good, np.diag([1.0, 1.0]))
    with pytest.raises(InvalidInputError, match=r"shape \[2, 3\] does not match entries \[2, 2\]"):
        eio.operator_from_json({"kind": "operator", "shape": [2, 3], "entries": entries})


_EYE_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_P0_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
_P1_PAIRS = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]


def _measure_then(branches):
    """Alice measures a/b, then Bob applies ``branches`` (history key ->
    instrument document)."""
    first = {"kraus": [_P0_PAIRS, _P1_PAIRS], "labels": ["a", "b"]}
    return {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": {"": first}},
                                                {"party": "B", "branches": branches}]}


_IDENTITY = {"kraus": [_EYE_PAIRS], "labels": ["i"]}
_NAN_KRAUS = {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]], "labels": ["i"]}
_IDENTITY3 = {"kraus": [np.stack([np.eye(3), np.zeros((3, 3))], axis=-1).tolist()],
              "labels": ["i"]}
_SIMULATE = ["locc", "simulate", "{doc}", "{bell}"]
_REDUCE = ["locc", "reduce", "{doc}", "{bell}"]

# name -> (document, parser, command reading it or None, refusal); the
# documents go through JSON text, which json.loads reads NaN and Infinity from
REFUSED_DOCUMENTS = {
    "state-nan": (
        {"kind": "pure_bipartite", "dims": [1, 2], "amplitudes": [[math.nan, 0], [1, 0]]},
        eio.state_from_json, ["schmidt", "{doc}"],
        "amplitudes entries must be finite, got [nan, 0] at amplitudes[0]"),
    "density-inf": (
        {"kind": "density", "dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, math.inf]]]},
        eio.density_from_json, ["distinguish", "{doc}", "{doc}"],
        "entries entries must be finite, got [0, inf] at entries[1][1]"),
    "kraus-nan": (
        _measure_then({"a": _IDENTITY, "b": _NAN_KRAUS}), eio.protocol_from_json, _SIMULATE,
        "kraus entries must be finite, got [nan, 0] at kraus[0][1][1]"),
    "labels-string": (
        {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": {
            "": {"kraus": [_P0_PAIRS, _P1_PAIRS], "labels": "01"}}}]},
        eio.protocol_from_json, _REDUCE, "instrument 'labels' must be a list of strings, got '01'"),
    "aliased-keys": (
        _measure_then({"a": _IDENTITY, "a,": _IDENTITY, "b": _IDENTITY}),
        eio.protocol_from_json, _SIMULATE,
        "history key 'a,' must be '' or non-empty labels joined by ','"),
    "empty-key-parts": (
        {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": {",,": _IDENTITY}}]},
        eio.protocol_from_json, _SIMULATE,
        "history key ',,' must be '' or non-empty labels joined by ','"),
    "two-dimensions": (
        _measure_then({"a": _IDENTITY, "b": _IDENTITY3}), eio.protocol_from_json, _REDUCE,
        "one dimension, got [2, 3]"),
    "depth-17": (
        {"kind": "locc_protocol", "rounds": [
            {"party": "A", "branches": {",".join(["i"] * k): _IDENTITY}} for k in range(17)]},
        eio.protocol_from_json, _SIMULATE, "protocol depth 17 exceeds the cap 16"),
    "operator-nan": (
        {"kind": "operator", "shape": [1, 1], "entries": [[[math.nan, 0]]]},
        eio.operator_from_json, None,
        "entries entries must be finite, got [nan, 0] at entries[0][0]"),
    "measure-nan": (
        {"kind": "measure", "atoms": [math.nan], "masses": [1.0]},
        eio.measure_from_json, None, "atoms entry 0 is nan, not a finite number"),
    "step-function-nan": (
        {"kind": "step_function", "breakpoints": [math.nan], "levels": [1.0, 0.0]},
        eio.step_function_from_json, None, "breakpoints entry 0 is nan, not a finite number"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_DOCUMENTS))
def test_malformed_document_is_refused_by_parser_and_cli(name, tmp_path, state_files, capsys):
    """Each document parses from JSON text (NaN and Infinity included) and
    is refused by its parser, naming the offending entry, key or field; the
    command that reads it exits 2 with the same message."""
    doc, parse, command, message = REFUSED_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError) as info:
        parse(json.loads(path.read_text()))
    assert message in str(info.value)
    if command is not None:
        argv = [arg.format(doc=path, bell=state_files["bell"]) for arg in command]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and message in err


def test_non_finite_complex_array_from_memory_is_refused():
    """A complex array left in a document by the ``*_to_json`` helpers is
    taken as it is only when it is finite."""
    entries = np.array([[1.0, complex(0.0, math.nan)]])
    with pytest.raises(InvalidInputError) as info:
        eio.operator_from_json({"kind": "operator", "shape": [1, 2], "entries": entries})
    assert "entries entries must be finite, got [0.0, nan] at entries[0][1]" in str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_kraus_entries_are_refused_on_emit(bad):
    k = np.eye(2, dtype=complex)
    k[1, 0] = complex(0.0, bad)
    protocol = OneWayProtocol((k,), (np.eye(2),))
    with pytest.raises(InvalidInputError, match="NaN/Inf"):
        eio.canonical_json(eio.one_way_to_json(protocol))
    with pytest.raises(InvalidInputError, match="NaN/Inf"):
        eio.canonical_json(eio.protocol_to_json(
            locc_protocol([locc_round("A", {(): Instrument((k,), ("0",))})])))


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


def test_cli_monotones_large_and_non_finite_alpha(state_files, capsys):
    code, out, _ = run_cli(["monotones", state_files["phi73"], "--alpha", "3000"], capsys)
    assert code == 0
    assert json.loads(out)["H_alpha"]["3000"] == pytest.approx(-3000 / 2999 * math.log(0.7), rel=1e-12)
    for bad in ("inf", "nan"):
        code, out, err = run_cli(["monotones", state_files["phi73"], "--alpha", bad], capsys)
        assert code == 2 and out == "" and "Renyi order" in err


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


@pytest.mark.parametrize(
    "values, entry",
    [("inf,1", "entry 0 is inf"), ("nan", "entry 0 is nan"), ("0.5,nan,0.5", "entry 1 is nan")],
)
def test_cli_classify_refuses_non_finite_entries(values, entry, capsys):
    code, out, err = run_cli(["classify", "--spectrum", values], capsys)
    assert code == 2 and out == ""
    assert err == f"entlab: spectrum {entry}, not a finite number\n"


def test_spectrum_document_with_non_finite_values_is_refused():
    """json.loads reads NaN and Infinity; the spectrum refuses them."""
    for raw in ('[NaN, 1.0]', '[1.0, Infinity]'):
        doc = json.loads('{"kind": "spectrum", "values": %s}' % raw)
        with pytest.raises(InvalidInputError, match="not a finite number"):
            eio.spectrum_from_json(doc)


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


def test_cli_embezzle_sweep_prints_the_readme_table(capsys):
    """The README's `embezzle sweep` example, byte for byte, with the CSV
    writer's CRLF line ends in place of the README's newlines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "$ entlab embezzle sweep --d 2 --n-list 16,256 --target bell\n"
    lines = readme.split(command, 1)[1].split("\n\n", 1)[0].split("\n")
    expect = "".join(line + "\r\n" for line in lines)
    assert len(lines) == 3
    code, out, _ = run_cli(command[len("$ entlab "):].split(), capsys)
    assert code == 0 and out == expect


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


def test_cli_embezzle_sweep_bound_uses_target_rank(tmp_path, capsys):
    """--d 2 with a rank-3 target: the bound columns and meets_bound both
    use d = 3, the target's Schmidt rank."""
    bell3 = write_doc(tmp_path, "bell3.json", eio.state_to_json(bell_state(3)))
    argv = ["embezzle", "sweep", "--d", "2", "--n-list", "16,256", "--target", bell3]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert rows[0]["fidelity_bound"] == "0.36452538268268825"
    for row in rows:
        bound = vdh_bound(3, int(row["n"]))
        assert float(row["epsilon"]) == bound.epsilon
        assert float(row["fidelity_bound"]) == bound.fidelity_bound
        meets = math.sqrt(float(row["fidelity"])) >= 1.0 - math.log(3) / math.log(int(row["n"]))
        assert row["meets_bound"] == ("true" if meets else "false")


# Schmidt coefficients (0.8, 0.6, 0) in Haar frames, in 17-digit text; the
# SVD of these amplitudes returns a third coefficient of rounding size, not 0
RANK2_STATE = (
    '{"kind": "pure_bipartite", "dims": [3, 3], "amplitudes": ['
    '[0.21753336285688224, 0.2278021182412038], '
    '[0.12108403358445996, -0.0051750365464698226], '
    '[0.052832148768463219, -0.12604733098996559], '
    '[0.24471014383853842, 0.3768736764039462], '
    '[-0.19567170326730998, -0.4496576065432481], '
    '[0.15940527872441712, -0.2022431267977888], '
    '[-0.061238938796872852, 0.44438477574748042], '
    '[-0.060001019036623665, 0.34918586961834386], '
    '[0.16367980325317591, -0.07183040132994499]]}'
)


def test_cli_reads_the_support_rank_of_a_rank_lost_to_rounding(tmp_path, capsys):
    """schmidt, monotones, slocc and embezzle sweep all count the support,
    rank 2, where the SVD leaves a third coefficient of rounding size."""
    path = tmp_path / "rank2.json"
    path.write_text(RANK2_STATE)
    bell3 = write_doc(tmp_path, "bell3.json", eio.state_to_json(bell_state(3)))
    code, out, _ = run_cli(["schmidt", str(path)], capsys)
    record = json.loads(out)
    assert code == 0 and record["rank"] == 2 and len(record["spectrum"]) == 2
    assert len(record["coefficients"]) == 3 and record["coefficients"][2] < 1e-15
    code, out, _ = run_cli(["monotones", str(path)], capsys)
    assert code == 0 and json.loads(out)["schmidt_rank"] == 2
    code, out, _ = run_cli(["slocc", str(path), bell3], capsys)
    assert code == 0 and json.loads(out) == {"feasible": False, "success_prob": 0}
    argv = ["embezzle", "sweep", "--d", "3", "--n-list", "1024", "--target", str(path)]
    code, out, _ = run_cli(argv, capsys)
    (row,) = csv.DictReader(stdio.StringIO(out))
    assert code == 0
    assert float(row["epsilon"]) == pytest.approx(math.sqrt(2 * math.log(2) / math.log(1024)),
                                                  rel=1e-14)


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


@pytest.mark.parametrize("lam", ["0", "-0.5", "1.5"])
def test_cli_catalysis_decay_refuses_lambda_outside_the_unit_interval(lam, capsys):
    """The period log(1/lambda) is taken only after the family spec accepts
    lambda, so a bad one is a one-line refusal, not a traceback."""
    code, out, err = run_cli(["catalysis", "decay", "--lambda", lam, "--m-list", "1"], capsys)
    assert code == 2 and out == ""
    assert err == f"entlab: lambda must lie strictly between 0 and 1, got {float(lam)!r}\n"


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


def _one_way_inputs(name):
    if name == "bell-phi73":
        psi = bell_state(2)
        return nielsen_synthesize(psi, state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])), psi
    if name == "rectangular":
        psi = random_pure_state((4, 4), 8)
        phi = state_from_schmidt([math.sqrt(0.8), math.sqrt(0.2)], dims=(2, 3))
        return nielsen_synthesize(psi, phi), psi
    doc, state = golden_protocol(4, 10, 1024, "A", seed=[4, 1024, 1])
    psi = eio.state_from_json(state)
    return one_way_reduce(eio.protocol_from_json(doc), psi), psi


@pytest.mark.parametrize("name", ["bell-phi73", "rectangular", "reduced-1024"])
def test_one_way_branches_match_the_per_branch_formula(name):
    """Branch by branch: k @ M @ v.T, its vdot, pruned at MASS_CUT; the
    probabilities and histories are the formula's bits, each state is its
    vector over the root of that probability."""
    protocol, psi = _one_way_inputs(name)
    expected = []
    for x, (k, v) in enumerate(zip(protocol.alice_kraus, protocol.bob_unitaries)):
        new = k @ psi.matrix @ v.T
        prob = float(np.vdot(new, new).real)
        if prob > 1e-12:
            expected.append((prob, new, (str(x),)))
    branches = one_way_branches(protocol, psi)
    assert [(b.probability, b.history) for b in branches] == [(p, h) for p, _, h in expected]
    for branch, (prob, new, _) in zip(branches, expected):
        assert branch.state.dims == new.shape
        assert np.abs(branch.state.amplitudes - new.ravel() / math.sqrt(prob)).max() < 1e-15
    if name == "reduced-1024":
        assert len(protocol.alice_kraus) == len(branches) == 1024
    elif name == "rectangular":
        assert new.shape == (2, 3) and len(branches) > 1


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

def test_one_way_document_with_mixed_shapes_is_refused(tmp_path, state_files, capsys):
    """One complex stack per side: a Bob operator of another shape is a ragged
    stack, refused naming the entry, where it used to run with branches of
    different dimensions."""
    doc = {"kind": "one_way", "alice_kraus": _golden_pairs(np.array([np.diag([1.0, 0.0]),
                                                                     np.diag([0.0, 1.0])])),
           "bob_unitaries": [_golden_pairs(np.eye(2)), _golden_pairs(np.eye(2, 3))]}
    with pytest.raises(InvalidInputError) as info:
        eio.one_way_from_json(doc)
    assert str(info.value) == ("bob_unitaries is ragged: bob_unitaries[1][0] has 3 entries, "
                               "bob_unitaries[0][0] has 2")
    code, out, err = run_cli(["locc", "simulate", write_doc(tmp_path, "mixed.json", doc),
                              state_files["bell"]], capsys)
    assert code == 2 and out == "" and "ragged" in err


def test_unpaired_one_way_document_is_refused(tmp_path, state_files, capsys):
    doc = {"kind": "one_way", "alice_kraus": _golden_pairs(np.array([np.diag([1.0, 0.0]),
                                                                     np.diag([0.0, 1.0])])),
           "bob_unitaries": [_golden_pairs(np.eye(2))]}
    code, out, err = run_cli(["locc", "simulate", write_doc(tmp_path, "unpaired.json", doc),
                              state_files["bell"]], capsys)
    assert code == 2 and out == ""
    assert err == "entlab: alice_kraus and bob_unitaries must pair up, one or more: got 2 and 1\n"


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run_cli(["schmidt", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"entlab: {path} is not UTF-8 text")


@pytest.mark.parametrize(
    "dims", [["a", 2], [2.9, 1], [2.0, 2], [True, 4], [2], "22"],
    ids=["string", "fraction", "integral-float", "bool", "one-entry", "not-a-list"],
)
def test_state_dims_must_be_two_json_integers(dims):
    doc = dict(eio.state_to_json(bell_state(2)), dims=dims)
    with pytest.raises(InvalidInputError, match=r"dims must be a \[dA, dB\] pair of integers"):
        eio.state_from_json(doc)


@pytest.mark.parametrize("dim", ["x", 2.0, True, None], ids=["string", "float", "bool", "null"])
def test_density_dim_must_be_a_json_integer(dim):
    doc = dict(eio.density_to_json(random_density(2, seed=1)), dim=dim)
    with pytest.raises(InvalidInputError, match="density 'dim' must be an integer"):
        eio.density_from_json(doc)


def test_non_integer_dims_exit_2_on_the_cli(tmp_path, capsys):
    """``"dims": [2.9, 1]`` used to be read as (2, 1) and succeed, and
    ``["a", 2]`` to end in a ValueError traceback."""
    amplitudes = [[1.0, 0.0], [0.0, 0.0]]
    for dims in ([2.9, 1], ["a", 2], [2.5, 2]):
        doc = {"kind": "pure_bipartite", "dims": dims, "amplitudes": amplitudes}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["schmidt", str(path)], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1


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


# a key repeated in one JSON object: plain json.load keeps the last value
REPEATED_KEYS = {
    "state": (["schmidt", "{doc}"], "dims",
              '{"kind": "pure_bipartite", "dims": [1, 1], "dims": [2, 2], '
              '"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}'),
    "protocol": (_SIMULATE, "a",
                 json.dumps(_measure_then({"a": _IDENTITY, "b": _IDENTITY}))
                 .replace('"b": {', '"a": {')),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_repeated_json_key_is_refused(name, tmp_path, state_files, capsys):
    """A repeated key (two ``"a"`` branches in one round would keep only the
    last instrument) is refused by the loader, naming the key and the file,
    and the command reading the document exits 2."""
    command, key, text = REPEATED_KEYS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    message = f"{path} repeats the key {key!r} in one object"
    with pytest.raises(InvalidInputError) as info:
        eio.load_document(str(path))
    assert str(info.value) == message
    argv = [arg.format(doc=path, bell=state_files["bell"]) for arg in command]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--tol", "1e-9"]], ids=["seed", "tol"])
def test_cli_removed_global_flags_are_usage_errors(state_files, capsys, flag):
    code, out, err = run_cli(["oneshot", state_files["bell"], *flag], capsys)
    assert code == 2 and out == ""
    assert "usage:" in err and f"unrecognized arguments: {' '.join(flag)}" in err


def test_cli_format_only_on_table_commands(tmp_path, state_files, capsys):
    """--format is a usage error on record commands; the four table commands
    take it."""
    for argv in (
        ["classify", "--spectrum", "0.5,0.5"],
        ["oneshot", state_files["bell"]],
        ["locc", "decide", state_files["bell"], state_files["prod"]],
    ):
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --format json" in err
    synth = ["locc", "synth", state_files["bell"], state_files["phi73"]]
    path = str(tmp_path / "synth.json")
    assert run_cli(synth + ["--out", path], capsys)[0] == 0
    for argv in (
        ["locc", "simulate", path, state_files["bell"]],
        ["embezzle", "sweep", "--d", "2", "--n-list", "16"],
        ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "2",
         "--t-min", "0", "--t-max", "0.5", "--steps", "3"],
        ["catalysis", "decay", "--lambda", "0.5", "--m-list", "1,2"],
    ):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and isinstance(json.loads(out), list)


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


def _run_entlab(argv):
    """``python -m entlab.cli`` in a fresh process, so warnings show on stderr."""
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "entlab.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "t_min, t_max",
    [("0", "800"), ("-800", "0"), ("-720", "0")],
    ids=["forward", "backward", "subnormal"],
)
def test_cli_kappa_profile_out_of_float_range_is_a_usage_error(t_min, t_max):
    """Flow times whose real atoms would leave float64 are ordinary times on
    log-positions: exit 0, one row per step, values in [0, 2], and nothing on
    stderr (no traceback, no NumPy warning)."""
    done = _run_entlab(["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "4",
                        "--t-min", t_min, "--t-max", t_max, "--steps", "3"])
    assert done.returncode == 0 and done.stderr == ""
    rows = list(csv.DictReader(stdio.StringIO(done.stdout)))
    assert len(rows) == 3
    assert all(0.0 <= float(row["deviation"]) <= 2.0 for row in rows)


def test_cli_kappa_profile_accepts_extreme_finite_times(capsys):
    argv = ["kappa", "profile", "--family", "lambda", "--lambda", "0.9", "--m", "20000",
            "--t-min=-1e308", "--t-max=-1e308", "--steps", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert [float(row["deviation"]) for row in rows] == pytest.approx([2.0, 2.0], abs=1e-15)


@pytest.mark.parametrize("t_min", ["-1e-5", "-1e3", "-1e308"])
def test_cli_negative_float_values_parse_space_separated(t_min, capsys):
    """A negative value written apart from its option reaches the command
    (argparse alone reads -1e-5 as an option and exits 2)."""
    argv = ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "2",
            "--t-min", t_min, "--t-max", "0.5", "--steps", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert float(rows[0]["t"]) == float(t_min) and float(rows[-1]["t"]) == 0.5
    assert all(0.0 <= float(row["deviation"]) <= 2.0 for row in rows)


def test_cli_space_separated_minus_inf_keeps_the_finite_span_refusal():
    done = _run_entlab(["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "2",
                        "--t-min", "-inf", "--t-max", "0.5", "--steps", "3"])
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("entlab: ") and "--t-min" in lines[0]


@pytest.mark.parametrize(
    "t_min, t_max",
    [("nan", "1"), ("0", "inf"), ("-inf", "0"), ("-1e308", "1e308"), ("1", "0")],
    ids=["nan", "inf", "minus-inf", "span-overflow", "descending"],
)
def test_cli_kappa_profile_non_finite_grid_is_a_usage_error(t_min, t_max):
    """A grid that is not a finite, ascending span exits 2 with one line."""
    done = _run_entlab(["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "4",
                        f"--t-min={t_min}", f"--t-max={t_max}", "--steps", "3"])
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("entlab: ") and "--t-max" in lines[0]


# --------------------------------------------------------------------------- #
#                  Golden bytes of `locc simulate` / `locc reduce`             #
# --------------------------------------------------------------------------- #

def _golden_haar(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _golden_pairs(mat):
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def golden_protocol(d, rounds, leaves, first, seed):
    """A seeded protocol document and source state, built with NumPy and
    ``json`` alone so the input bytes do not depend on entlab's emitter.

    Every branch of a round gets one instrument: rank-one projective,
    coarse two-outcome projective, a mixture of two unitaries, a lone
    subnormalized ``sqrt(0.6) u`` (completed by ``__rest__``), or one
    unitary, as the room left under a geometric leaf budget allows.
    Parties alternate starting with ``first``."""
    rng = np.random.default_rng(seed)
    parties = ("A", "B") if first == "A" else ("B", "A")
    histories = [()]
    doc_rounds = []
    for r in range(rounds):
        budget = min(leaves, round(leaves ** ((r + 1) / rounds)))
        branches, grown = {}, []
        for i, history in enumerate(histories):
            room = budget - len(grown) - (len(histories) - i - 1)
            u = _golden_haar(rng, d)
            kind = int(rng.integers(0, 4)) if room >= 2 else -1
            if kind == 0 and room >= d:
                kraus = [np.outer(u[:, j], u[:, j].conj()) for j in range(d)]
                labels = made = [str(j) for j in range(d)]
            elif kind in (0, 1):
                top = u[:, :2] @ u[:, :2].conj().T
                kraus, labels = [top, np.eye(d) - top], ["lo", "hi"]
                made = labels
            elif kind == 2:
                q = float(rng.uniform(0.2, 0.8))
                kraus = [math.sqrt(q) * u, math.sqrt(1.0 - q) * _golden_haar(rng, d)]
                labels = made = ["p", "q"]
            elif kind == 3:
                kraus, labels = [math.sqrt(0.6) * u], ["s"]
                made = ["s", "__rest__"]
            else:
                kraus, labels = [u], ["u"]
                made = labels
            branches[",".join(history)] = {"kraus": [_golden_pairs(k) for k in kraus],
                                           "labels": labels}
            grown.extend(history + (label,) for label in made)
        doc_rounds.append({"party": parties[r % 2], "branches": branches})
        histories = grown
    psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    psi /= np.linalg.norm(psi)
    state = {"kind": "pure_bipartite", "dims": [d, d], "amplitudes": _golden_pairs(psi.ravel())}
    return {"kind": "locc_protocol", "rounds": doc_rounds}, state


# (d, rounds, leaf budget, first party) -> sha256 of the protocol input and
# of `locc simulate` and `locc reduce` stdout.  The digests were taken
# before the array-native parser and emitter replaced the per-entry ones,
# with NumPy 2.4 and its bundled OpenBLAS on x86-64.  Where LAPACK builds
# other inputs, the byte checks do not apply and are skipped.
GOLDEN_DIGESTS = {
    (3, 6, 64, 'A'): (
        '0e93a1e5160cf8c4048dbd88fd41606992c644a60a26df5cb7bc113ca55dec3c',
        '34ef5f9db846d4c3dd4552a0624ba22feb69cfb246f500c10725548b7536b096',
        '9f6364d6d4ec7f8fe3e799e069190f281a4fcd7f6c87e1e8fadc129e5e399696'),
    (3, 6, 64, 'B'): (
        '92cd929452a6478f5104be7139f16784fd8527ba4d23f66ae05221e9905c52e3',
        '227e7ad3e5b002181f519024bdd114acd13af42b0d2b3ffb4645cf5089f21149',
        '9bd4fcbc962706b888205346f3e3b5df2f84a2f28cc28ef25cc3f2d4be7d570a'),
    (3, 8, 256, 'A'): (
        'd8b66a8607f545bd13d792415ea5cef96ddf8e269bb19dbe2b4d2d9c62c9c337',
        '64948b842d090ee9991141330521a2b7eb429c5ec93b83bb6e75c62ed3d1e3bd',
        'b0b292d5c776a60031545c69104ddebdb8b8df7a9d41b4f85ed68f5b2ba217a2'),
    (3, 8, 256, 'B'): (
        '95bea74dc3c345e0668619eada99b1262eb1184c4804dfc06870fc03eead5623',
        '4295bdf28ad3c4e56a87003a22b6276f985e81538de4d83fd6b40da7ffa06506',
        '847691f9690690118625a405125190e35a16302bed902410c7987b4e01c9e3b1'),
    (4, 6, 64, 'A'): (
        '83e602ea25ddfd6205bcfed7ee8e32900f3f1f139c106c0f27dd6706bd3d6403',
        '5cf1d323bba49ca442b8e221189228315a207f7584016882dd1f1d4db82ab78c',
        '56521b7ed3e5ee5aabaa902fe024a6c49dc65475a0b23d5b4be87ad0fbf2a38c'),
    (4, 6, 64, 'B'): (
        '17e880471c87eec7226c3be5a273f9c32124f014e0dc4183d49c249bd3bedd44',
        '5d0e8c042f8fc657028297f4c7d77b2595ee235cccf38f0f49c95291707a5653',
        'c40dd83ebbb5e343667b21291d689e55220e5fc0ab803ad5f66dc2e10a54778c'),
    (4, 8, 256, 'A'): (
        'ff0dd7c9d58dec3862fed354d940c859127473cd0b7ae1221907dd2a1a1ca993',
        '396014a5fe89ca14b33dddd365c3f3b7961086eaf6d154870d6c7986bf07cf41',
        '054e76116178061da39f12a3070c4a5dedd0147c46c05c1d7fab20ff5887cf3c'),
    (4, 8, 256, 'B'): (
        '6723aad5f438de5913f40f91e6f81cc0fdcd43494d695e5df3e104298cca50a4',
        '9a264a13a27be8d1bed558ea4bc63fe22122323701f441ba2f0592b432a5150a',
        'fd53d71cca43f7bfb6c4ea08edeba1af530ad6468bb3c42b7370bf14f06d4391'),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS),
                         ids=lambda c: "d{}-r{}-leaves{}-{}".format(*c))
def test_locc_simulate_and_reduce_stdout_bytes_are_pinned(tmp_path, capsys, case):
    d, rounds, leaves, first = case
    doc, state = golden_protocol(d, rounds, leaves, first, seed=[d, leaves, ord(first)])
    reduced = one_way_reduce(eio.protocol_from_json(doc), eio.state_from_json(state))
    again = eio.one_way_from_json(json.loads(eio.canonical_json(eio.one_way_to_json(reduced))))
    for ours, theirs in ((reduced.alice_kraus, again.alice_kraus),
                         (reduced.bob_unitaries, again.bob_unitaries)):
        assert len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))

    protocol_path, psi_path = tmp_path / "protocol.json", tmp_path / "psi.json"
    protocol_path.write_text(json.dumps(doc))
    psi_path.write_text(json.dumps(state))
    pinned_input, pinned_simulate, pinned_reduce = GOLDEN_DIGESTS[case]
    if _sha(protocol_path.read_text() + psi_path.read_text()) != pinned_input:
        # the inputs' Haar unitaries come from LAPACK's QR
        pytest.skip("this platform's LAPACK builds other golden inputs")
    code, simulated, _ = run_cli(["locc", "simulate", str(protocol_path), str(psi_path)], capsys)
    assert code == 0 and _sha(simulated) == pinned_simulate
    code, reduced_text, _ = run_cli(["locc", "reduce", str(protocol_path), str(psi_path)], capsys)
    assert code == 0 and _sha(reduced_text) == pinned_reduce

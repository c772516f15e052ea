"""Round-trip tests for the JSON schemas and end-to-end CLI checks.

Most CLI runs go through ``dispatch`` in-process (fast); a handful of
subprocess calls pin the module entry point and the process exit codes.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io as stdio
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entlab
from entlab import (
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
from entlab import cli
from entlab.cli import dispatch, emit_sweep
from entlab.errors import InvalidInputError, NotReducibleError
from entlab.locc import Instrument, LoccRound, OneWayProtocol


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
        "rho": write_doc(tmp_path, "rho.json", eio.density_to_json(density(np.diag([0.7, 0.3])))),
        "sigma": write_doc(tmp_path, "sigma.json",
                           eio.density_to_json(density([[0.5, 0.25], [0.25, 0.5]]))),
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


_EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308]


def _nested_format(arr: np.ndarray) -> str:
    if arr.ndim == 0 and arr.dtype.kind != "c":
        return eio.format_float(arr)
    if arr.ndim == 0:
        return f"[{eio.format_float(arr.real)}, {eio.format_float(arr.imag)}]"
    return "[" + ", ".join(map(_nested_format, arr)) + "]"


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    data=st.data(),
    view=st.sampled_from(["plain", "reversed", "transposed", "strided"]),
)
def test_complex_array_text_is_format_float_of_every_float(shape, data, view):
    """The template emitter writes the bytes of formatting every float on
    its own, for any shape (zero-length axes too) and any memory layout."""
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]),
                       st.floats(allow_nan=False, allow_infinity=False))
    count = 2 * math.prod(shape)
    values = data.draw(st.lists(floats, min_size=count, max_size=count))
    arr = np.array(values, dtype=float).view(complex).reshape(shape)
    arr = {"plain": arr, "reversed": arr[..., ::-1], "transposed": arr.T,
           "strided": np.repeat(arr, 2, axis=0)[::2]}[view]
    assert eio.canonical_json(arr) == _nested_format(arr)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 3), min_size=0, max_size=3),
    data=st.data(),
    view=st.sampled_from(["plain", "reversed", "transposed", "strided"]),
)
def test_real_array_text_is_format_float_of_every_float(shape, data, view):
    """A real array goes through the same writer as a complex one: nested
    lists of what format_float gives each float, for any shape (0-d and
    zero-length axes too) and any memory layout."""
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]),
                       st.floats(allow_nan=False, allow_infinity=False))
    count = math.prod(shape)
    arr = np.array(data.draw(st.lists(floats, min_size=count, max_size=count)),
                   dtype=float).reshape(shape)
    if arr.ndim:
        arr = {"plain": arr, "reversed": arr[..., ::-1], "transposed": arr.T,
               "strided": np.repeat(arr, 2, axis=0)[::2]}[view]
    assert eio.canonical_json(arr) == _nested_format(arr)


def _assert_written_as_format_float(values) -> None:
    """``values`` and their negatives, as one real array, are written as
    format_float writes each float."""
    arr = np.array(values, dtype=float)
    arr = np.concatenate([arr, -arr])
    assert eio.canonical_json(arr) == _nested_format(arr)


def test_writer_on_a_seeded_log_uniform_stack():
    """10^5 floats of both signs, log-uniform over [1e-6, 10]: every decade
    the NumPy writer covers and the ranges on both sides of it."""
    rng = np.random.default_rng(2024)
    count = 3200 * 4 * 4 * 2
    floats = np.exp(rng.uniform(math.log(1e-6), math.log(10.0), count)) * rng.choice([-1, 1], count)
    stack = floats.view(complex).reshape(3200, 4, 4)
    assert eio.canonical_json(stack) == _nested_format(stack)


def test_writer_at_each_decade_edge():
    """Each power of ten that bounds a decade, and its neighbours."""
    edges = [1e-4, 1e-3, 0.01, 0.1, 1.0]
    _assert_written_as_format_float([v for e in edges
                                     for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))])


def test_writer_on_zeros_subnormals_and_the_fallback_ranges():
    _assert_written_as_format_float([
        0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-5, 9.9999999999999991e-05, 1.0, 1.5,
        10.0, 123456.78901234567, 1e17, 1e300, 1.7976931348623157e308,
    ])
    assert eio.canonical_json(np.array([0.0, -0.0])) == "[0, -0]"


def test_writer_on_exact_ties():
    """Odd multiples of 2^-18 in [0.1, 1), of 2^-19, 2^-20 and 2^-21 in the
    three lower decades, lie exactly halfway between two 17-digit decimals;
    %.17g rounds them half to even."""
    assert eio.canonical_json(np.array([26215 / 2**18, 26217 / 2**18])) == (
        "[0.10000228881835938, 0.10000991821289062]")
    for bits, low in ((18, 0.1), (19, 0.01), (20, 1e-3), (21, 1e-4)):
        ties = np.arange(1, 2**bits, 2) / 2**bits
        _assert_written_as_format_float(ties[(ties >= low) & (ties < 10 * low)])


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-less-one", "chunk", "chunk-plus-one"])
def test_writer_across_the_chunk_size(extra):
    """Stacks one matrix either side of a chunk, alone and as two arrays of
    one document, whose floats then span a chunk boundary."""
    rng = np.random.default_rng(9)
    count = eio._CHUNK // 32 + extra  # 32 floats per 4 x 4 complex matrix
    stack = (rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))) * 0.3
    assert eio.canonical_json(stack) == _nested_format(stack)
    doc = {"kind": "one_way", "alice_kraus": stack, "bob_unitaries": stack[::-1]}
    assert eio.canonical_json(doc) == ('{"kind": "one_way", "alice_kraus": ' + _nested_format(stack)
                                       + ', "bob_unitaries": ' + _nested_format(stack[::-1]) + "}")


@pytest.mark.parametrize("case", ["after-three-floats", "rows-across-chunks"])
def test_writer_cuts_a_chunk_inside_a_separator_period(case):
    """Chunk cuts away from every matrix and row edge: three real floats
    ahead of a (300, 4, 4) complex stack put the stack's first cut inside an
    [re, im] pair, and a real array with rows of 3000 floats is cut inside
    its rows."""
    rng = np.random.default_rng(11)
    if case == "after-three-floats":
        head = rng.normal(size=3)
        stack = (rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))) * 0.3
        assert (eio._CHUNK - head.size) % 32 and stack.size * 2 + head.size > eio._CHUNK
        assert eio.canonical_json({"head": head, "stack": stack}) == (
            '{"head": ' + _nested_format(head) + ', "stack": ' + _nested_format(stack) + "}")
    else:
        rows = rng.normal(size=(7, 3000)) * 0.3
        assert eio._CHUNK % 3000 and rows.size > 2 * eio._CHUNK
        assert eio.canonical_json(rows) == _nested_format(rows)


def test_a_small_document_is_one_kernel_pass(monkeypatch):
    """The floats of all the arrays in a document go through the kernel
    together: a d = 4 one_way document (two stacks of 128 floats) and a
    Schmidt record (two real arrays) are one pass each."""
    passes = []
    kernel = eio._float_fields

    def counted(floats):
        passes.append(floats.size)
        return kernel(floats)

    monkeypatch.setattr(eio, "_float_fields", counted)
    maximal = pure_state((4, 4), np.eye(4).ravel() / 2)
    doc = eio.one_way_to_json(nielsen_synthesize(maximal, random_pure_state((4, 4), 3)))
    text = eio.canonical_json(doc)
    assert passes == [256]
    monkeypatch.setattr(eio, "_float_fields", kernel)
    assert text == eio.canonical_json(doc)
    monkeypatch.setattr(eio, "_float_fields", counted)
    eio.canonical_json({"coefficients": np.full(4, 0.5), "rank": 4, "spectrum": np.full(4, 0.25)})
    assert passes == [256, 8]


def test_writing_a_large_stack_keeps_one_chunk_in_hand():
    """Memory in hand beyond the text and one copy of it stays at a chunk's
    worth: formatting the 131 072 floats of a (4096, 4, 4) stack in one pass
    would hold some 18 MB of strings."""
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(4096, 4, 4)) + 1j * rng.normal(size=(4096, 4, 4))
    eio.canonical_json(stack[:1])
    tracemalloc.start()
    try:
        text = eio.canonical_json(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + 4_000_000


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
    assert back_m == m


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


# (second instrument of a round, refusal): refused while its entries are read
PARSE_OFFENDERS = [
    ({"kraus": [], "labels": []},
     "kraus must be non-empty lists nested 3 deep, got [] at kraus"),
    ({"kraus": [[[[1, 0], [0, 0]], [[1, 0]]]], "labels": ["i"]},
     "kraus is ragged: kraus[0][1] has 1 entries, kraus[0][0] has 2"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [True, 0]]]], "labels": ["i"]},
     "kraus entries must be [re, im] pairs, got [True, 0] at kraus[0][1][1]"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]], "labels": ["i"]},
     "kraus entries must be [re, im] pairs of finite floats"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": "i"},
     "instrument 'labels' must be a list of strings, got 'i'"),
    (3, "each instrument must be a JSON object, got 3"),
    ("x", "each instrument must be a JSON object, got 'x'"),
    ([1], "each instrument must be a JSON object, got [1]"),
]
PARSE_OFFENDER_IDS = ["no-outcomes", "ragged-rows", "bool", "too-large-int", "labels-string",
                      "instrument-number", "instrument-string", "instrument-list"]


@pytest.mark.parametrize("second, message", PARSE_OFFENDERS, ids=PARSE_OFFENDER_IDS)
def test_round_refusal_names_the_entry_in_the_second_instrument(second, message):
    """A round's instruments are parsed as one stack; when the second one
    would be refused, the refusal is the one the instrument gets on its own."""
    doc = json.loads(json.dumps(_measure_then({"a": _IDENTITY, "b": second})))
    with pytest.raises(InvalidInputError) as info:
        eio.protocol_from_json(doc)
    assert str(info.value) == message


# (second instrument of a round, refusal): refused by the instrument and round rules
CHECK_OFFENDERS = [
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
      "labels": ["x", "x"]},
     "labels must be distinct and match the outcome count"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
      "labels": ["x"]},
     "labels must be distinct and match the outcome count"),
    ({"kraus": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]], "labels": ["i"]},
     "instrument Kraus operators must be equal square matrices"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": [""]},
     "label '' must be non-empty and free of ',', which joins histories"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": ["x,y"]},
     "label 'x,y' must be non-empty and free of ',', which joins histories"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]], "labels": ["i"]},
     "kraus entries must be finite, got [nan, 0] at kraus[0][1][1]"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "labels": ["__rest__"]},
     "label '__rest__' is reserved for the completion outcome"),
    ({"kraus": [[[[1.5, 0], [0, 0]], [[0, 0], [1, 0]]]], "labels": ["i"]},
     "instrument is super-normalized: max eigenvalue 2.25 exceeds 1 + 1e-09"),
]
CHECK_OFFENDER_IDS = ["repeated-label", "label-count", "non-square", "empty-label", "comma-label",
                      "nan", "rest-on-short", "super-normalized"]


@pytest.mark.parametrize("second, message", CHECK_OFFENDERS, ids=CHECK_OFFENDER_IDS)
def test_round_checked_as_one_stack_refuses_as_each_instrument(second, message):
    """A round is checked once as a stack; whatever its second instrument
    breaks, the refusal is the one recorded when each instrument was
    checked on its own."""
    doc = json.loads(json.dumps(_measure_then({"a": _IDENTITY, "b": second})))
    with pytest.raises(InvalidInputError) as info:
        eio.protocol_from_json(doc)
    assert str(info.value) == message


def test_round_checked_as_one_stack_keeps_its_outcomes():
    """A valid round of a short and a complete instrument: the round's
    stack, labels and rows, and each instrument's operators and labels, are
    the values recorded when each instrument was checked on its own."""
    x6 = [[[0, 0], [0.6, 0]], [[0.6, 0], [0, 0]]]
    y6 = [[[0, 0], [0, 0]], [[0, 0], [0.6, 0]]]
    z8 = [[[0, 0], [0, 0]], [[0, 0], [0, 0.8]]]
    doc = _measure_then({"a": {"kraus": [x6], "labels": ["s"]},
                         "b": {"kraus": [_P0_PAIRS, y6, z8], "labels": ["x", "y", "z"]}})
    bob = eio.protocol_from_json(json.loads(json.dumps(doc))).rounds[1]
    x, p0, y, z = [[0, 0.6], [0.6, 0]], np.diag([1, 0]), np.diag([0, 0.6]), np.diag([0, 0.8j])
    assert np.array_equal(bob._kraus, [x, 0.8 * np.eye(2), p0, y, z])
    assert bob._labels == ("s", "__rest__", "x", "y", "z")
    assert bob._rows == {("a",): range(0, 2), ("b",): range(2, 5)}
    assert bob.branches[("a",)].labels == ("s",)
    assert np.array_equal(bob.branches[("a",)].kraus, [x])
    assert bob.branches[("b",)].labels == ("x", "y", "z")
    assert np.array_equal(bob.branches[("b",)].kraus, [p0, y, z])
    assert all(instr.kraus.dtype == complex for instr in bob.branches.values())


@pytest.mark.parametrize("short", [False, True], ids=["all-complete", "one-short"])
def test_round_stack_gives_each_instrument_its_own_outcomes(short):
    """Each instrument keeps its own outcomes; the round's stack adds the
    completion after a short one's and nothing when every one is complete."""
    first = ({"kraus": [_P0_PAIRS], "labels": ["x"]} if short
             else {"kraus": [_P0_PAIRS, _P1_PAIRS], "labels": ["x", "y"]})
    doc = _measure_then({"a": first,
                         "b": {"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]], "labels": ["s"]}})
    bob = eio.protocol_from_json(doc).rounds[1]
    stack = [np.diag([1, 0]), np.diag([0, 1]), [[0, 1], [1, 0]]]
    assert bob.branches[("a",)].labels == tuple(first["labels"])
    assert np.array_equal(bob.branches[("a",)].kraus, stack[: len(first["labels"])])
    assert np.array_equal(bob.branches[("b",)].kraus, [[[0, 1], [1, 0]]])
    labels = ("x", "__rest__", "s") if short else ("x", "y", "s")
    assert bob._labels == labels and np.array_equal(bob._kraus, stack)


def _random_protocol(rng, dims, rounds):
    """A seeded protocol document on ``dims``, parties alternating from a
    random first, and the instruments behind it as ``(party, {key: (kraus,
    labels)})`` per round.  Every reachable history gets an instrument:
    while there are at most 8 histories, 1 to d outcomes, a mixture of
    unitaries that is complete or, scaled below 1, short; after that one
    unitary."""
    parties = "AB" if rng.integers(2) else "BA"
    histories, doc_rounds, rounds_made = [()], [], []
    for r in range(rounds):
        party = parties[r % 2]
        d = dims[party == "B"]
        branches, grown = {}, []
        for history in histories:
            few = len(histories) <= 8
            count = int(rng.integers(1, d + 1)) if few else 1
            short = few and bool(rng.integers(2))
            weights = rng.dirichlet(np.ones(count)) * (rng.uniform(0.3, 0.9) if short else 1.0)
            gauss = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
            kraus = np.sqrt(weights)[:, None, None] * np.linalg.qr(gauss)[0]
            labels = [f"o{j}" for j in rng.permutation(count)]
            branches[",".join(history)] = (kraus, labels)
            grown += [history + (label,) for label in labels + ["__rest__"] * short]
        rounds_made.append((party, branches))
        doc_rounds.append({"party": party, "branches": {
            key: {"kraus": np.stack([kraus.real, kraus.imag], axis=-1).tolist(), "labels": labels}
            for key, (kraus, labels) in branches.items()}})
        histories = grown
    return json.loads(json.dumps({"kind": "locc_protocol", "rounds": doc_rounds})), rounds_made


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _run(call, *args):
    """``call(*args)``, or the refusal it raises."""
    try:
        return call(*args)
    except NotReducibleError as exc:
        return str(exc)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)], ids=["2x3", "3x3"])
@pytest.mark.parametrize("rounds", [1, 2, 3, 6, 11, 16])
def test_stacked_read_equals_the_public_constructor(rounds, dims, monkeypatch):
    """A protocol document is read in one stacked pass per party (one
    ``_pair_stack`` call each) and its rounds are assembled without
    ``LoccRound``'s checks, yet every round equals the one built from its
    instruments with ``LoccRound``: its stack bit for bit, its labels,
    rows, history order and instruments; ``simulate`` and
    ``one_way_reduce`` give the same bits on both."""
    rng = np.random.default_rng([rounds, *dims])
    doc, made = _random_protocol(rng, dims, rounds)
    want = locc_protocol([
        LoccRound(party, {eio._history(key): Instrument(kraus, tuple(labels))
                          for key, (kraus, labels) in branches.items()})
        for party, branches in made])
    calls = []
    pair_stack = eio._pair_stack

    def counted(nodes, depth):
        calls.append(depth)
        return pair_stack(nodes, depth)

    def checked(rnd):
        calls.append("LoccRound")
        check(rnd)

    check = LoccRound.__post_init__
    monkeypatch.setattr(eio, "_pair_stack", counted)
    monkeypatch.setattr(LoccRound, "__post_init__", checked)
    got = eio.protocol_from_json(doc)
    monkeypatch.undo()
    assert calls == [2] * len({party for party, _ in made})
    for rnd, ref in zip(got.rounds, want.rounds, strict=True):
        assert rnd.party == ref.party
        assert _bits(rnd._kraus) == _bits(ref._kraus)
        assert rnd._labels == ref._labels and rnd._rows == ref._rows
        assert list(rnd.branches) == list(ref.branches)
        for instr, ref_instr in zip(rnd.branches.values(), ref.branches.values()):
            assert _bits(instr.kraus) == _bits(ref_instr.kraus)
            assert instr.labels == ref_instr.labels
    psi = random_pure_state(dims, rounds)
    leaves, ref_leaves = simulate(got, psi), simulate(want, psi)
    assert [(b.history, b.probability, _bits(b.state.amplitudes)) for b in leaves] == [
        (b.history, b.probability, _bits(b.state.amplitudes)) for b in ref_leaves]
    reduced, ref_reduced = _run(one_way_reduce, got, psi), _run(one_way_reduce, want, psi)
    if isinstance(ref_reduced, str):
        assert reduced == ref_reduced
    else:
        assert list(map(_bits, reduced.alice_kraus + reduced.bob_unitaries)) == list(
            map(_bits, ref_reduced.alice_kraus + ref_reduced.bob_unitaries))


def _four_rounds(second=None, third=None):
    """Alice measures a/b; Bob applies ``{"a": identity, "b": second}``;
    Alice ``{"a,i": identity, "b,i": third}``; Bob an identity on each
    history.  An instrument left out is the identity."""
    first = {"kraus": [_P0_PAIRS, _P1_PAIRS], "labels": ["a", "b"]}
    return {"kind": "locc_protocol", "rounds": [
        {"party": "A", "branches": {"": first}},
        {"party": "B", "branches": {"a": _IDENTITY, "b": second or _IDENTITY}},
        {"party": "A", "branches": {"a,i": _IDENTITY, "b,i": third or _IDENTITY}},
        {"party": "B", "branches": {"a,i,i": _IDENTITY, "b,i,i": _IDENTITY}}]}


_SUPER4 = {"kraus": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]], "labels": ["i"]}
_SUPER4_REFUSAL = "instrument is super-normalized: max eigenvalue 4.0 exceeds 1 + 1e-09"


@pytest.mark.parametrize("offender, message", PARSE_OFFENDERS + CHECK_OFFENDERS,
                         ids=PARSE_OFFENDER_IDS + CHECK_OFFENDER_IDS)
def test_the_first_offending_round_is_the_one_refused(offender, message):
    """A protocol is read in one stacked pass per party, yet a refusal is
    the first offending round's, in the words the round gets on its own:
    an offender in round 3 is refused alone, and beside another offender
    in round 2 the refusal is round 2's, whichever of the two it is."""
    assert len(simulate(eio.protocol_from_json(_four_rounds()), bell_state(2))) == 2
    for doc, want in [(_four_rounds(third=offender), message),
                      (_four_rounds(second=_SUPER4, third=offender), _SUPER4_REFUSAL),
                      (_four_rounds(second=offender, third=_SUPER4), message)]:
        with pytest.raises(InvalidInputError) as info:
            eio.protocol_from_json(json.loads(json.dumps(doc)))
        assert str(info.value) == want


def test_a_refusal_in_round_one_comes_before_a_non_object_round_four():
    doc = _four_rounds()
    doc["rounds"][0]["branches"][""] = CHECK_OFFENDERS[-1][0]
    doc["rounds"][3] = ["B"]
    with pytest.raises(InvalidInputError) as info:
        eio.protocol_from_json(doc)
    assert str(info.value) == "instrument is super-normalized: max eigenvalue 2.25 exceeds 1 + 1e-09"


def test_a_party_on_two_dimensions_parses_and_is_refused_by_the_run(tmp_path, state_files, capsys):
    """Alice's rounds on 2 x 2 and on 3 x 3: no state runs the protocol,
    but it parses as each round does on its own; running it is refused at
    the first round on the wrong dimension, in the CLI as in the API."""
    doc = _four_rounds()
    doc["rounds"][2]["branches"] = {"a,i": _IDENTITY3, "b,i": _IDENTITY3}
    protocol = eio.protocol_from_json(doc)
    assert [rnd._kraus.shape[1:] for rnd in protocol.rounds] == [(2, 2), (2, 2), (3, 3), (2, 2)]
    message = "instrument acts on dimension 3, state has 2"
    with pytest.raises(InvalidInputError) as info:
        simulate(protocol, bell_state(2))
    assert str(info.value) == message
    path = write_doc(tmp_path, "two_dims.json", doc)
    code, out, err = run_cli(["locc", "simulate", path, state_files["bell"]], capsys)
    assert code == 2 and out == "" and message in err


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
    "rounds-not-list": (
        {"kind": "locc_protocol", "rounds": {"party": "A"}}, eio.protocol_from_json, _SIMULATE,
        "'rounds' must be a list"),
    "round-not-object": (
        {"kind": "locc_protocol", "rounds": [["A"]]}, eio.protocol_from_json, _SIMULATE,
        "each round must be a JSON object"),
    "instrument-null": (
        _measure_then({"a": _IDENTITY, "b": None}), eio.protocol_from_json, _SIMULATE,
        "each instrument must be a JSON object, got None"),
    "branches-not-object": (
        {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": [_IDENTITY]}]},
        eio.protocol_from_json, _REDUCE, "round 'branches' must be an object keyed by history"),
    "density-dim-mismatch": (
        {"kind": "density", "dim": 3, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
        eio.density_from_json, ["distinguish", "{doc}", "{doc}"],
        "density 'dim' does not match the entry grid"),
    "spectrum-values-number": (
        {"kind": "spectrum", "values": 0.5}, eio.spectrum_from_json, None,
        "values must be a list of numbers"),
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


@pytest.mark.parametrize("labels", [[0, 1], [None, "b"], ["a", 1.5]],
                         ids=["numbers", "null", "float"])
def test_labels_that_are_not_strings_are_refused_in_the_documents_words(
        labels, tmp_path, state_files, capsys):
    """The stacked read leaves the label rule to :class:`Instrument`'s
    check and hands a document it refuses to the round-by-round read, so a
    label that is not a string is refused in the document's own words."""
    doc = {"kind": "locc_protocol", "rounds": [{"party": "A", "branches": {
        "": {"kraus": [_P0_PAIRS, _P1_PAIRS], "labels": labels}}}]}
    assert eio._stacked_rounds_from_json(doc["rounds"]) is None
    message = f"instrument 'labels' must be a list of strings, got {labels!r}"
    with pytest.raises(InvalidInputError) as info:
        eio.protocol_from_json(doc)
    assert str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["locc", "simulate", str(path), str(state_files["bell"])], capsys)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_operator_to_json_refuses_a_vector():
    with pytest.raises(InvalidInputError, match="^operators must be 2-dimensional$"):
        eio.operator_to_json(np.ones(3))


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
    emit_sweep([], ["a", "b"])
    out = capsys.readouterr().out
    assert out.splitlines() == ["a,b"]
    path = tmp_path / "table.csv"
    emit_sweep([], ["a", "b"], out=str(path))
    assert path.read_bytes() == b"a,b\r\n"


def test_emit_sweep_quotes_per_rfc4180(capsys):
    emit_sweep(
        [{"name": 'needs, "quoting"', "v": 1.5}],
        ["name", "v"],
    )
    out = capsys.readouterr().out
    assert '"needs, ""quoting"""' in out
    reader = csv.DictReader(stdio.StringIO(out))
    row = next(reader)
    assert row["name"] == 'needs, "quoting"' and float(row["v"]) == 1.5


def test_emit_sweep_rejects_ragged_rows():
    with pytest.raises(InvalidInputError):
        emit_sweep([{"a": 1}, {"a": 1, "b": 2}], ["a"])


def test_command_config_validation():
    with pytest.raises(InvalidInputError):
        emit_sweep([], ["a"], format="yaml")


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


def test_cli_classify_merges_a_chain_of_near_equal_entries(capsys):
    code, out, _ = run_cli(["classify", "--spectrum", "1,0.9999999999993,0.9999999999986"], capsys)
    assert code == 0 and out == '{"family": "II_1"}\n'


@pytest.mark.parametrize("values", ["0.5,0.3,0.2", "0.4,0.3,0.2,0.1"])
def test_cli_classify_generic_spectra_are_iii_one(values, capsys):
    code, out, _ = run_cli(["classify", "--spectrum", values], capsys)
    assert code == 0 and out == '{"family": "III_1"}\n'


@pytest.mark.parametrize("values, top, bottom",
                         [("1,1e-320", "1.0", "1e-320"), ("1e300,1e-20", "1e+300", "1e-20")])
def test_cli_classify_refuses_a_ratio_that_overflows(values, top, bottom, capsys):
    code, out, err = run_cli(["classify", "--spectrum", values], capsys)
    assert code == 2 and out == ""
    assert err == (f"entlab: cannot classify: the ratio of the largest entry {top} "
                   f"to the smallest {bottom} overflows float64\n")


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


@pytest.mark.parametrize(
    "command, line_end",
    [("schmidt phi73.json", "\n"),
     ("monotones phi73.json --alpha 2", "\n"),
     ("classify --spectrum 0.5,0.5", "\n"),
     ("classify --spectrum 0.6666666666666666,0.3333333333333333", "\n"),
     ("catalysis decay --lambda 0.5 --m-list 1,2,4", "\r\n"),
     ("embezzle sweep --d 2 --n-list 16,256 --target bell", "\r\n"),
     ("kappa profile --family lambda --lambda 0.5 --m 2 --t-min 0 --t-max 0.693147 --steps 3",
      "\r\n"),
     ("locc decide bell.json phi73.json", "\n"),
     ("locc decide phi73.json bell.json", "\n"),
     ("oneshot bell.json", "\n"),
     ("distinguish rho.json sigma.json", "\n")],
    ids=["schmidt", "monotones", "classify-II_1", "classify-III_lambda", "catalysis-decay",
         "embezzle-sweep", "kappa-profile", "locc-decide-feasible", "locc-decide-infeasible",
         "oneshot", "distinguish"],
)
def test_cli_prints_the_readme_examples(command, line_end, state_files, capsys):
    """Each README example's output, byte for byte: a record command prints
    one JSON line, a table command the CSV writer's CRLF line ends in place
    of the README's newlines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(f"$ entlab {command}\n", 1)[1]
    lines = re.split(r"\n(?:\n|```)", block, maxsplit=1)[0].split("\n")
    argv = [state_files[arg.removesuffix(".json")] if arg.endswith(".json") else arg
            for arg in command.split()]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out == "".join(line + line_end for line in lines)


def test_readme_python_quick_start_runs(capsys):
    """The README's Python quick start runs as written: every name it
    imports exists, its asserts hold, and its last print shows the type
    label its comment gives."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Python quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[1] == "TypeLabel(family='III_lambda', parameter=0.5)"


KAPPA_ARGS = "--family lambda --lambda 0.5 --m 2 --t-min 0 --t-max 0.693147 --steps 3"


@pytest.mark.parametrize(
    "command, code, expected",
    [("distinguish rho sigma", 0,
      '{"trace_distance": 0.64031242374328479, "fidelity": 0.8968626966596881}\n'),
     ("slocc bell phi73", 0,
      '{"feasible": true, "success_prob": 0.7142857142857143, "filter": {'
      '"a_A": {"kind": "operator", "shape": [2, 2], '
      '"entries": [[[1, 0], [0, 0]], [[0, 0], [0.65465367070797709, 0]]]}, '
      '"b_B": {"kind": "operator", "shape": [2, 2], '
      '"entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}}\n'),
     ("locc synth phi73 bell", 0, '{"feasible": false}\n'),
     ("locc simulate corr bell --format json", 0,
      '[{"history": "one,u", "probability": 0.50000000000000011}, '
      '{"history": "zero,u", "probability": 0.50000000000000011}]\n'),
     (f"kappa profile {KAPPA_ARGS} --format json", 0,
      '[{"t": 0, "deviation": 0}, {"t": 0.34657349999999998, "deviation": 0.46677881785840197}, '
      '{"t": 0.69314699999999996, "deviation": 0.66666662654220177}]\n'),
     ("catalysis decay --lambda 0.5 --m-list 1,2,4 --format json", 0,
      '[{"m": 1, "t": 0.69314718055994529, "deviation": 1.3333333333333333}, '
      '{"m": 2, "t": 0.69314718055994529, "deviation": 0.88888888888888884}, '
      '{"m": 4, "t": 0.69314718055994529, "deviation": 0.79012345679012341}]\n'),
     ("oneshot bell --format json", 2, ""),
     ("distinguish rho sigma --out", 0,
      '{"trace_distance": 0.64031242374328479, "fidelity": 0.8968626966596881}\n'),
     ("locc simulate corr bell --out", 0,
      'history,probability\r\n"one,u",0.50000000000000011\r\n"zero,u",0.50000000000000011\r\n')],
    ids=["distinguish", "slocc-filter", "synth-infeasible", "simulate-json", "kappa-json",
         "catalysis-json", "record-refuses-format", "record-out", "table-out"],
)
def test_cli_bytes_are_pinned(command, code, expected, tmp_path, state_files, capsys):
    """Record and table bytes of commands the README does not show; a
    command ending in ``--out`` writes the same bytes to a file and none to
    stdout."""
    files = dict(
        state_files,
        rho=write_doc(tmp_path, "rho.json", eio.density_to_json(density(np.diag([0.7, 0.3])))),
        sigma=write_doc(tmp_path, "sigma.json",
                        eio.density_to_json(density(np.array([[0.5, 0.25], [0.25, 0.5]])))),
        corr=write_doc(tmp_path, "corr.json", eio.protocol_to_json(correction_protocol())),
    )
    argv = [files.get(arg, arg) for arg in command.split()]
    out_path = tmp_path / "out.txt"
    if argv[-1] == "--out":
        argv.append(str(out_path))
    got_code, out, err = run_cli(argv, capsys)
    assert got_code == code
    if code:
        assert out == "" and "unrecognized arguments: --format json" in err
    elif argv[-2] == "--out":
        assert out == "" and out_path.read_bytes() == expected.encode()
        assert run_cli(argv[:-2], capsys)[1] == expected  # the bytes stdout gets
    else:
        assert out == expected and err == ""


def test_csv_cells_share_the_json_scalar_format(capsys):
    row = {"b": True, "i": 3, "n": np.int64(-7), "f": np.float64(0.1), "z": -0.0, "s": "x,y"}
    emit_sweep([row], list(row))
    assert capsys.readouterr().out == 'b,i,n,f,z,s\r\ntrue,3,-7,0.10000000000000001,-0,"x,y"\r\n'


def test_spectral_json_bytes_of_a_fixed_spectrum():
    """The canonical JSON of a spectrum with a tie, its scale, distribution
    function, spectral state and the state smeared by the spectrum itself,
    byte for byte."""
    from entlab import distribution_function, smear, spectral_scale, spectral_state

    s = spectrum([0.05, 0.4, 0.2, 0.15, 0.2])
    hat = spectral_state(s)
    docs = [eio.spectrum_to_json(s), eio.step_function_to_json(spectral_scale(s)),
            eio.step_function_to_json(distribution_function(s)), eio.measure_to_json(hat),
            eio.measure_to_json(smear(hat, s))]
    assert [eio.canonical_json(doc) for doc in docs] == [
        '{"kind": "spectrum", "values": [0.40000000000000002, 0.20000000000000001, '
        '0.20000000000000001, 0.14999999999999999, 0.050000000000000003]}',
        '{"kind": "step_function", "breakpoints": [1, 3, 4, 5], "levels": [0.40000000000000002, '
        '0.20000000000000001, 0.14999999999999999, 0.050000000000000003, 0]}',
        '{"kind": "step_function", "breakpoints": [0.050000000000000003, 0.14999999999999999, '
        '0.20000000000000001, 0.40000000000000002], "levels": [5, 4, 3, 1, 0]}',
        '{"kind": "measure", "atoms": [0.050000000000000003, 0.14999999999999999, '
        '0.20000000000000001, 0.40000000000000002], "masses": [0.050000000000000003, '
        '0.14999999999999999, 0.40000000000000002, 0.40000000000000002]}',
        '{"kind": "measure", "atoms": [0.0025000000000000005, 0.0074999999999999997, '
        '0.010000000000000002, 0.020000000000000004, 0.022499999999999999, 0.029999999999999999, '
        '0.040000000000000008, 0.059999999999999998, 0.080000000000000016, 0.16000000000000003], '
        '"masses": [0.0025000000000000005, 0.014999999999999999, 0.040000000000000008, '
        '0.040000000000000008, 0.022499999999999999, 0.12, 0.16000000000000003, 0.12, '
        '0.32000000000000006, 0.16000000000000003]}',
    ]


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


def test_cli_embezzle_sweep_of_two_files_needs_no_d(state_files, capsys):
    """--d builds only the default Bell target and |00> start, so with both
    states from files it may be left out; the table is the one --d 2 gives."""
    files = ["--target", state_files["phi73"], "--start", state_files["prod"]]
    code, out, err = run_cli(["embezzle", "sweep", "--n-list", "16,64", *files], capsys)
    assert (code, err) == (0, "") and out.count("\r\n") == 3
    assert run_cli(["embezzle", "sweep", "--d", "2", "--n-list", "16,64", *files], capsys) == (0, out, "")


@pytest.mark.parametrize("files", [[], ["--start", "{prod}"], ["--target", "{phi73}"]],
                         ids=["defaults", "bell-target", "product-start"])
def test_cli_embezzle_sweep_with_a_default_state_needs_d(files, state_files, capsys):
    argv = ["embezzle", "sweep", "--n-list", "16", *(f.format(**state_files) for f in files)]
    assert run_cli(argv, capsys) == (
        2, "", "entlab: --d is needed unless --target and --start are both files\n")


def test_cli_embezzle_sweep_dimension_numpy_cannot_index_exits_3(capsys):
    """A Bell dimension whose d x d amplitudes NumPy cannot index is out of
    memory: one stderr line, exit code 3, nothing on stdout."""
    code, out, err = run_cli(["embezzle", "sweep", "--d", str(10**20), "--n-list", "4"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("entlab: out of memory: ") and err.count("\n") == 1


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
    expected = family_kappa_profile(0.5, 2, ts)
    assert [float(row["deviation"]) for row in rows] == pytest.approx(expected, abs=0)
    code, _, _ = run_cli(argv[:-1] + ["0"], capsys)  # steps = 0
    assert code == 2


def test_cli_catalysis_decay_hand_values(capsys):
    code, out, _ = run_cli(["catalysis", "decay", "--lambda", "0.5", "--m-list", "2,1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(stdio.StringIO(out)))
    assert [row["m"] for row in rows] == ["1", "2"]
    assert float(rows[0]["deviation"]) == catalytic_deviation(0.5, 1, math.log(2))
    assert float(rows[0]["deviation"]) == pytest.approx(4 / 3, abs=1e-12)
    assert float(rows[1]["deviation"]) == pytest.approx(8 / 9, abs=1e-12)


@pytest.mark.parametrize("lam", ["0", "-0.5", "1.5"])
def test_cli_catalysis_decay_refuses_lambda_outside_the_unit_interval(lam, capsys):
    """The period log(1/lambda) is taken only after the family spec accepts
    lambda, so a bad one is a one-line refusal, not a traceback."""
    code, out, err = run_cli(["catalysis", "decay", "--lambda", lam, "--m-list", "1"], capsys)
    assert code == 2 and out == ""
    assert err == f"entlab: lambda must lie strictly between 0 and 1, got {float(lam)!r}\n"


@pytest.mark.parametrize("lam", ["1e-320", "5e-324", "5e-309"])
def test_cli_catalysis_decay_where_the_inverse_of_lambda_overflows(lam, capsys):
    """Below 1 / sys.float_info.max, 1/lambda is inf and the period is
    -log(lambda): the row is printed, not refused as a flow time t=inf."""
    code, out, err = run_cli(["catalysis", "decay", "--lambda", lam, "--m-list", "1"], capsys)
    assert (code, err) == (0, "")
    assert out == f"m,t,deviation\r\n1,{eio.format_float(-math.log(float(lam)))},2\r\n"


@pytest.mark.parametrize("lam", ["0.5", "0.3", "1e-300", "1e-308", "6e-309"])
def test_cli_catalysis_decay_period_is_log_of_the_finite_inverse(lam, capsys):
    code, out, _ = run_cli(["catalysis", "decay", "--lambda", lam, "--m-list", "1"], capsys)
    (row,) = csv.DictReader(stdio.StringIO(out))
    assert code == 0 and row["t"] == eio.format_float(math.log(1.0 / float(lam)))


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["embezzle", "sweep", "--d", "2", "--n-list", ""], "--n-list"),
        (["embezzle", "sweep", "--d", "2", "--n-list", " , "], "--n-list"),
        (["catalysis", "decay", "--lambda", "0.5", "--m-list", ","], "--m-list"),
        (["classify", "--spectrum", ","], "--spectrum"),
    ],
    ids=["embezzle-empty", "embezzle-blank", "catalysis", "classify"],
)
def test_cli_empty_list_flag_is_a_usage_error(argv, flag, capsys):
    """A list flag with no value is refused in one line, not answered with
    a bare CSV header."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"entlab: {flag} needs at least one value\n"


@pytest.mark.parametrize(
    ("argv", "flag", "entry"),
    [
        (["embezzle", "sweep", "--d", "2", "--n-list", "inf"], "--n-list", "inf"),
        (["embezzle", "sweep", "--d", "2", "--n-list", "nan"], "--n-list", "nan"),
        (["catalysis", "decay", "--lambda", "0.5", "--m-list", "1e400"], "--m-list", "inf"),
    ],
    ids=["n-inf", "n-nan", "m-overflow"],
)
def test_cli_integer_list_refuses_non_finite_entries(argv, flag, entry):
    """int() of inf or nan raised OverflowError or ValueError; the entry is
    refused like a fraction, in one line, by the process itself."""
    done = _run_entlab(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"entlab: {flag} entries must be integers, got {entry}\n"
    assert "Traceback" not in done.stderr


def test_cli_kappa_profile_non_numeric_negative_t_min_is_a_usage_error(capsys):
    """``-x`` is not a negative number, so it is left as an option token and
    --t-min has no value: a usage error, exit 2."""
    code, out, err = run_cli(["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "2",
                              "--t-min", "-x", "--t-max", "0.5", "--steps", "3"], capsys)
    assert (code, out) == (2, "")
    assert "argument --t-min: expected one argument" in err


def test_cli_monotones_of_a_product_state_prints_zero_not_minus_zero(tmp_path, capsys):
    path = write_doc(tmp_path, "product.json", eio.state_to_json(product_basis_state(2, 2)))
    code, out, _ = run_cli(["monotones", path, "--alpha", "2"], capsys)
    assert code == 0
    assert out == '{"H": 0, "H_alpha": {"2": 0}, "schmidt_rank": 1}\n'


@pytest.mark.parametrize("alpha", ["", ","])
def test_cli_monotones_empty_alpha_asks_for_no_orders(alpha, state_files, capsys):
    code, out, _ = run_cli(["monotones", state_files["bell"], "--alpha", alpha], capsys)
    assert code == 0 and json.loads(out)["H_alpha"] == {}


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


def test_cli_synth_then_simulate_prints_the_readme_table(tmp_path, state_files, capsys):
    """The README's synthesis round trip, byte for byte: ``locc synth``
    writes the protocol file and nothing to stdout, and ``locc simulate``
    prints the README's table with the CSV writer's CRLF line ends."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ entlab locc simulate protocol.json bell.json\n", 1)[1]
    table = "".join(line + "\r\n" for line in block.split("\n```", 1)[0].split("\n"))
    protocol = str(tmp_path / "protocol.json")
    code, out, _ = run_cli(["locc", "synth", state_files["bell"], state_files["phi73"],
                            "--out", protocol], capsys)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["locc", "simulate", protocol, state_files["bell"]], capsys)
    assert code == 0 and out == table


def exact_norm_state(profile, counts):
    """A (d, d) state document in its Schmidt frames whose coefficients are
    j / 2^26 for integers j: profile[i], scaled, repeated counts[i] times.
    Every square and partial sum of squares is exact, so the norm entlab
    divides by does not depend on the order a BLAS adds in; the first two
    values are tuned until it misses 1 by less than ``INPUT_TOL``."""
    unit = 4**26
    scale = 2**26 / math.sqrt(math.fsum(k * p * p for p, k in zip(profile, counts)))
    js = [round(p * scale) for p in profile]
    rest = unit - sum(k * j * j for j, k in zip(js[2:], counts[2:]))
    for step in range(4096):
        j0 = js[0] + (step + 1) // 2 * (-1) ** step
        left = rest - counts[0] * j0 * j0
        j1 = round(math.sqrt(left / counts[1]))
        if abs(left - counts[1] * j1 * j1) * 10**10 < unit:
            break
    else:
        raise AssertionError("no exact norm near the profile")
    coeffs = np.repeat(np.array([j0, j1] + js[2:]) / 2**26, counts)
    d = coeffs.size
    amplitudes = np.zeros((d, d))
    amplitudes[np.diag_indices(d)] = coeffs
    return {"kind": "pure_bipartite", "dims": [d, d],
            "amplitudes": [[x, 0.0] for x in amplitudes.ravel().tolist()]}


def synth_pair(d, shape):
    """Seeded source and target documents: the source's Schmidt
    coefficients p lie in [0.5, 1) before scaling; the target's are p^2
    (generic), the same on the top half and 0 below (rank_deficient), or
    one value, then triples, of p squared until the target majorizes the
    source (tie_heavy)."""
    p = sorted(np.random.default_rng([d, 18]).uniform(0.5, 1.0, d).tolist(), reverse=True)
    if shape == "generic":
        profile, counts = [x * x for x in p], [1] * d
    elif shape == "rank_deficient":
        profile, counts = [x * x for x in p[: d // 2]] + [0.0], [1] * (d // 2) + [d - d // 2]
    else:
        counts = [1] + [3] * ((d - 1) // 3) + [(d - 1) % 3] * ((d - 1) % 3 > 0)
        source = np.cumsum(np.square(p))[:-1] / math.fsum(np.square(p))
        profile = p[:1] + p[1::3]
        while True:
            profile = [x * x for x in profile]
            target = np.repeat(np.square(profile), counts)
            if np.all(np.cumsum(target)[:-1] / math.fsum(target) > source + 1e-6):
                break
    return exact_norm_state(p, [1] * d), exact_norm_state(profile, counts)


# sha256 of `locc synth` stdout, as the earlier synthesis computed it; a
# faster set-up or mixing must keep every byte
SYNTH_DIGESTS = {
    (4, "generic"): "c5e2dd23e75419df7140a1451a782e60334c95bbb5d58b6152ad7394847fc620",
    (4, "rank_deficient"): "bb30cca2b327ffaa8555032561ba0cc1fe9ddf60a7ec884c37ff443fbf6507c1",
    (4, "tie_heavy"): "ea15cee4d0cae05c93bf8c9010f22fec18abff1da9d055748ea606949cd900ac",
    (8, "generic"): "83b07afd88beec4acc8918aa0b9e2171caf5fc9bb0f5781f4837e0e07d1f4b57",
    (8, "rank_deficient"): "d562a2e5601c8e58f1963aa112ab4565ebfc3ef0c049394d83e7845af6ef294b",
    (8, "tie_heavy"): "95871d149d2775eeeeffbf4f871954d59fd238fe779a36306a63db2c2321456f",
    (16, "generic"): "493173ff9063a9e85cc997925b24c14424487bbbaa4e3d7ecc0bfc0c22f56d07",
    (16, "rank_deficient"): "02097b6fcddf25000b2c0b3cdedccb4d334d408f4163688dfbfcb6a8c817023b",
    (16, "tie_heavy"): "c9eefa1244d6590eee2fc6fcfa2a2e1afeb2bef6ee4f3fc02f2c4409bfb2e801",
}


@pytest.mark.parametrize("shape", ["generic", "rank_deficient", "tie_heavy"])
@pytest.mark.parametrize("d", [4, 8, 16])
def test_cli_synth_bytes(tmp_path, d, shape, capsys):
    """``locc synth`` prints the same protocol bytes for seeded pairs whose
    Schmidt frames are the computational bases, so that the bytes depend on
    entlab's arithmetic only."""
    psi, phi = synth_pair(d, shape)
    argv = ["locc", "synth", write_doc(tmp_path, "psi.json", psi),
            write_doc(tmp_path, "phi.json", phi)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == SYNTH_DIGESTS[d, shape]


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


def test_one_way_branches_refuses_a_non_finite_branch():
    """A branch whose probability is NaN is refused, not pruned as if it
    carried no mass."""
    eye = np.eye(2)
    protocol = OneWayProtocol((np.diag([1.0, math.nan]), np.diag([0.0, 1.0])), (eye, eye))
    with pytest.raises(InvalidInputError, match="branch 0 has probability nan"):
        one_way_branches(protocol, bell_state(2))


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


def test_cli_out_of_memory_exits_3_with_one_line(capsys):
    """An n whose harmonic list cannot be allocated (2**50 terms, 8 PiB) is
    refused at once: one stderr line, exit code 3, nothing on stdout."""
    code, out, err = run_cli(["embezzle", "sweep", "--d", "2", "--n-list", f"16,{2**50}"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("entlab: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["embezzle", "sweep", "--d", "2", "--n-list", "1e30"],
        ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", str(10**20),
         "--t-min", "0", "--t-max", "1", "--steps", "3"],
        ["catalysis", "decay", "--lambda", "0.5", "--m-list", str(10**20)],
        ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "3",
         "--t-min", "0", "--t-max", "1", "--steps", str(10**20)],
    ],
    ids=["embezzle", "kappa", "catalysis", "kappa-steps"],
)
def test_cli_sizes_numpy_cannot_index_exit_3_with_one_line(argv, capsys):
    """A size past NumPy's address space is out of memory, as 2**50 is: one
    stderr line, exit code 3, nothing on stdout."""
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("entlab: out of memory: ") and err.count("\n") == 1


def test_cli_numerical_failure_exits_3_with_one_line(tmp_path, capsys):
    """A synthesis refused as ill-conditioned exits 3 with the refusal, tagged
    as a numerical failure, as the only stderr line and nothing on stdout."""
    from test_tolerances import ILL_CONDITIONED

    psi = write_doc(tmp_path, "psi.json", eio.state_to_json(state_from_schmidt(ILL_CONDITIONED)))
    phi = write_doc(tmp_path, "phi.json", eio.state_to_json(product_basis_state(3, 3)))
    code, out, err = run_cli(["locc", "synth", psi, phi], capsys)
    assert (code, out) == (3, "")
    assert err == ("entlab: numerical failure: support eigenvalue 9.000e-13 below 1e-12: "
                   "ill-conditioned (d = 3)\n")


def test_cli_other_entlab_errors_exit_3_with_one_line(state_files, monkeypatch, capsys):
    def refuse(psi, phi):
        raise NotReducibleError("branch operator could not be mirrored")

    # the parser, and so its handler, is built once per process: patch what the handler calls
    monkeypatch.setattr(cli, "nielsen_synthesize", refuse)
    code, out, err = run_cli(["locc", "synth", state_files["bell"], state_files["bell"]], capsys)
    assert (code, out) == (3, "")
    assert err == "entlab: branch operator could not be mirrored\n"


CLI_REFUSALS = {
    "d-zero": (["embezzle", "sweep", "--d", "0", "--n-list", "16"],
               "--d must be a positive integer, got 0"),
    "t-span": (["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "2",
                "--t-min", "1", "--t-max", "0", "--steps", "3"],
               "need --t-min <= --t-max, a finite span apart: 1.0, 0.0"),
    "n-fraction": (["embezzle", "sweep", "--d", "2", "--n-list", "2.5"],
                   "--n-list entries must be integers, got 2.5"),
    "state-as-protocol": (["locc", "simulate", "{bell}", "{bell}"],
                          "expected a locc_protocol or one_way document, got kind 'pure_bipartite'"),
}


@pytest.mark.parametrize("name", sorted(CLI_REFUSALS))
def test_cli_refusals_exit_2_with_one_line(name, state_files, capsys):
    command, message = CLI_REFUSALS[name]
    code, out, err = run_cli([arg.format(bell=state_files["bell"]) for arg in command], capsys)
    assert (code, out, err) == (2, "", f"entlab: {message}\n")


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


# documents json.load itself cannot read: too deep for its recursion, or an
# integer past Python's int conversion limit; and JSON that is not an object
# with a "kind"
UNREADABLE_DOCUMENTS = {
    "deep": (_SIMULATE, "[" * 100_000 + "]" * 100_000, "is nested too deeply to read"),
    "long-int": (["schmidt", "{doc}"],
                 '{"kind": "pure_bipartite", "dims": [' + "9" * 5000 + ', 2], "amplitudes": []}',
                 "holds an integer of more than "),
    "list": (["schmidt", "{doc}"], "[1]", "must be a JSON object with a 'kind' field"),
    "no-kind": (_SIMULATE, '{"x": 1}', "must be a JSON object with a 'kind' field"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_DOCUMENTS))
def test_unreadable_json_is_refused_naming_the_file(name, tmp_path, state_files, capsys):
    """The loader refuses such a document, naming the file, and the command
    reading it exits 2 with that one line rather than a traceback."""
    command, text, reason = UNREADABLE_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        eio.load_document(str(path))
    assert str(info.value).startswith(f"{path} {reason}")
    argv = [arg.format(doc=path, bell=state_files["bell"]) for arg in command]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and err.startswith(f"entlab: {path} {reason}")
    assert err.count("\n") == 1


# one document per way a read can end: (command, document text)
READ_OUTCOMES = {
    "read": (["schmidt", "{doc}"], eio.canonical_json(eio.state_to_json(bell_state(2)))),
    "bad-json": (["schmidt", "{doc}"], '{"kind": '),
    "repeated-key": (_SIMULATE, REPEATED_KEYS["protocol"][2]),
    "nan-entry": (_SIMULATE, json.dumps(_measure_then({"a": _IDENTITY, "b": _NAN_KRAUS}))),
    "deep": UNREADABLE_DOCUMENTS["deep"][:2],
    "long-int": UNREADABLE_DOCUMENTS["long-int"][:2],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", sorted(READ_OUTCOMES))
def test_document_read_leaves_the_collector_as_it_found_it(name, enabled, tmp_path,
                                                           state_files, capsys):
    """A document is read and parsed with the cyclic collector paused; read
    or refused, by the reader or by a command, the collector is left on or
    off as the caller had it."""
    command, text = READ_OUTCOMES[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    parse = eio.protocol_from_json if command is _SIMULATE else eio.state_from_json
    argv = [arg.format(doc=path, bell=state_files["bell"]) for arg in command]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert eio.read_document(state_files["bell"], lambda doc: gc.isenabled()) is False
        assert gc.isenabled() is enabled
        if name == "read":
            eio.read_document(str(path), parse)
        else:
            with pytest.raises(InvalidInputError):
                eio.read_document(str(path), parse)
        assert gc.isenabled() is enabled
        code, _, _ = run_cli(argv, capsys)
        assert gc.isenabled() is enabled and code == (0 if name == "read" else 2)
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


def _run_entlab(argv, **env_vars):
    """``python -m entlab.cli`` in a fresh process, so warnings show on stderr;
    keyword arguments are added to its environment."""
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "entlab.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("d", ["2", "3"])
def test_cli_embezzle_sweep_bytes_do_not_depend_on_blas_threads(d):
    """One and two BLAS threads print the same fidelities, up to n = 2**19:
    every dot of the overlap is too short for OpenBLAS to split."""
    argv = ["embezzle", "sweep", "--d", d, "--n-list", "50000,524288"]
    outs = []
    for threads in ("1", "2"):
        done = _run_entlab(
            argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads
        )
        assert done.returncode == 0 and done.stderr == ""
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 3


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

"""JSON schemas for states, operators, measures, and protocols.

Every document is a JSON object with a ``kind`` discriminator.  Complex
numbers are ``[re, im]`` pairs; matrices are row-major nested lists.  All
floats are emitted in one canonical format (17 significant digits, enough
for exact float64 round trips), so identical data always serializes to
identical bytes.  Parsing goes through :func:`json.load`; any structural
problem is reported as :class:`InvalidInputError`, and so is a document
``json`` cannot read (nested past its recursion limit, or an integer past
Python's digit limit).  The CLI reads every document with
:func:`read_document`, which decodes and parses with the cyclic garbage
collector paused: the tens of thousands of lists a large protocol decodes to
are freed by reference counting when the parse returns, before the collector
resumes, so no collection scans them.

Complex data (amplitudes, density and operator entries, Kraus stacks) moves
as whole arrays.  The ``*_to_json`` functions put complex NumPy arrays into
the documents, and :func:`canonical_json` writes each with one ``%.17g``
template shaped like one matrix of it (its last two axes), filled once per
matrix; the outer axes are joined as strings.  The bytes are those of
formatting every float on its own.  The parsers read each such field with
one flat build: one type and one length check per nesting level, one type
pass over the numbers (bools, strings and null are refused), one
``np.array`` call on the flat list of floats, a reshape and a finiteness
check (``json.load`` reads ``NaN`` and ``Infinity``; both are refused).  A
protocol round is read the same way as one stack of all its Kraus
operators, and :class:`Instrument`'s rule is applied once to that stack
(square matrices; per instrument distinct labels, as many as its outcomes;
every label one a history can carry); each instrument is a view of the
stack and is not checked again.  Only a refusal walks the entries in
Python, to name the offending one; a round with anything to refuse is read
one instrument at a time, so the refusal names the same entry in the same
words.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from itertools import chain
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .embezzle import TypeLabel
from .errors import InvalidInputError
from .locc import (
    HISTORY_SEP,
    Instrument,
    LoccProtocol,
    LoccRound,
    OneWayProtocol,
    _stacked_instruments,
)
from .quantum import DensityMatrix, PureBipartiteState, density, pure_state
from .spectra import (
    AtomicMeasure,
    Spectrum,
    StepFunction,
    _is_integer,
    atomic_measure,
    spectrum,
    step_function,
)

__all__ = [
    "canonical_json",
    "format_float",
    "write_text",
    "load_document",
    "read_document",
    "state_to_json",
    "state_from_json",
    "density_to_json",
    "density_from_json",
    "operator_to_json",
    "operator_from_json",
    "spectrum_to_json",
    "spectrum_from_json",
    "step_function_to_json",
    "step_function_from_json",
    "measure_to_json",
    "measure_from_json",
    "protocol_to_json",
    "protocol_from_json",
    "one_way_to_json",
    "one_way_from_json",
    "type_label_to_json",
    "HISTORY_SEP",
]

T = TypeVar("T")


# --------------------------------------------------------------------------- #
#                          Canonical JSON emission                             #
# --------------------------------------------------------------------------- #

def format_float(x: float) -> str:
    """One canonical float format: 17 significant digits (exact round trip)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InvalidInputError("refusing to serialize NaN/Inf")
    return format(x, ".17g")


def canonical_json(value: Any) -> str:
    """Serialize to JSON with deterministic bytes.

    Mapping keys keep insertion order (schemas fix it), floats go through
    :func:`format_float`, complex arrays become nested ``[re, im]`` pairs,
    and no whitespace depends on the platform.
    """
    if isinstance(value, float):  # a table cell: skip the list and the join
        return format_float(value)
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(value: Any, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        parts.append(format_float(float(value)))
    elif isinstance(value, Mapping):
        parts.append("{")
        for i, (key, sub) in enumerate(value.items()):
            if not isinstance(key, str):
                raise InvalidInputError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(sub, parts)
        parts.append("}")
    elif isinstance(value, np.ndarray) and value.dtype.kind == "c":
        parts.append(_complex_json(value))
    elif isinstance(value, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, sub in enumerate(list(value)):
            if i:
                parts.append(", ")
            _emit(sub, parts)
        parts.append("]")
    else:
        raise InvalidInputError(f"cannot serialize {type(value).__name__} to JSON")


def write_text(path: Optional[str], text: str) -> None:
    """Write to a file, or to stdout when ``path`` is None.

    A trailing newline is added only when the text does not already end in
    one, so CSV output (which carries its own CRLF terminators) is emitted
    byte-identically to both destinations.
    """
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _unique_object(pairs: list[tuple[str, Any]], path: str) -> dict:
    """One JSON object as a dict, refusing a repeated key (plain
    ``json.load`` would keep its last value and drop the others unseen)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInputError(f"{path} repeats the key {key!r} in one object")
            seen.add(key)
    return obj


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=lambda pairs: _unique_object(pairs, path))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"{path} is nested too deeply to read: {exc}") from exc
    except InvalidInputError:
        raise
    except ValueError as exc:  # the one left: an integer past Python's conversion limit
        raise InvalidInputError(f"{path} holds an integer of more than "
                                f"{sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError(f"{path} must be a JSON object with a 'kind' field")
    return doc


def read_document(path: str, parse: Callable[[dict], T]) -> T:
    """``parse(load_document(path))`` with the cyclic garbage collector
    paused.  The decoded tree is tens of thousands of lists for a large
    protocol; reference counting frees all of them once ``parse`` returns,
    before the collector resumes, so no collection ever scans them.  The
    collector's state is restored on every exit, a refusal included, and
    stays off when it was off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(load_document(path))
    finally:
        if enabled:
            gc.enable()


def _expect_kind(doc: Mapping, kind: str) -> None:
    got = doc.get("kind")
    if got != kind:
        raise InvalidInputError(f"expected a {kind!r} document, got kind {got!r}")


def _field(doc: Mapping, name: str) -> Any:
    if name not in doc:
        raise InvalidInputError(f"document is missing field {name!r}")
    return doc[name]


def _float_list(raw: Any, name: str) -> list[float]:
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise InvalidInputError(f"{name} must be a list of numbers")
    out = []
    for v in raw:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InvalidInputError(f"{name} must contain only numbers, got {v!r}")
        out.append(float(v))
    return out


# --------------------------------------------------------------------------- #
#                         Complex scalars and matrices                         #
# --------------------------------------------------------------------------- #

def _complex_json(arr: np.ndarray) -> str:
    """JSON text of a complex array (at least 1-d) as nested lists of
    ``[re, im]`` pairs, byte for byte what :func:`format_float` gives each
    float (``%.17g`` and ``format(x, ".17g")`` share one C routine).  One
    ``%`` template shaped like one matrix (the last two axes, or the one
    axis of a vector) is filled once per matrix of the stack, so neither the
    template nor the floats in hand outgrow a matrix; the outer axes are
    joined as strings."""
    if not np.isfinite(arr).all():
        raise InvalidInputError("refusing to serialize NaN/Inf")
    inner = arr.shape[-2:]
    template = "[%.17g, %.17g]"
    for width in reversed(inner):
        template = "[" + ", ".join([template] * width) + "]"
    mats = np.ascontiguousarray(arr).view(float).reshape(math.prod(arr.shape[:-2]),
                                                          2 * math.prod(inner))
    items = [template % tuple(mat.tolist()) for mat in mats]
    for axis in range(arr.ndim - 3, -1, -1):
        n = arr.shape[axis]
        items = ["[" + ", ".join(items[i * n : (i + 1) * n]) + "]"
                 for i in range(math.prod(arr.shape[:axis]))]
    return items[0]


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list(v: Any) -> bool:
    return isinstance(v, (list, tuple, np.ndarray))


def _pair_stack(nodes: list, depth: int) -> Optional[np.ndarray]:
    """``nodes``, each non-empty lists nested ``depth`` deep around finite
    ``[re, im]`` pairs, all of one shape, as one float array of shape
    ``(len(nodes), ..., 2)``; None when anything in them would be refused.
    Built flat: per nesting level one type and one length check, then one
    type pass over the numbers, one ``np.array`` call on the flat list, a
    reshape and one finiteness check."""
    shape = [len(nodes)]
    level = nodes
    try:
        for _ in range(depth + 1):
            if not (set(map(type, level)) <= {list} or all(map(_is_list, level))):
                return None
            widths = set(map(len, level))
            if len(widths) != 1 or 0 in widths:
                return None
            shape.extend(widths)
            level = list(chain.from_iterable(level))
        if shape[-1] != 2 or not (set(map(type, level)) <= {float, int}
                                  or all(map(_is_number, level))):
            return None
        flat = np.array(level, dtype=float)
    except (TypeError, OverflowError):
        return None
    return flat.reshape(shape) if np.isfinite(flat).all() else None


def _complex_array(raw: Any, name: str, ndim: int) -> np.ndarray:
    """Parse field ``name``: non-empty lists nested ``ndim`` deep around
    finite ``[re, im]`` pairs, as one complex array with ``ndim`` axes.  A
    finite complex array of that rank (as the ``*_to_json`` functions leave
    it) passes.  The check is :func:`_pair_stack`'s flat build; only a
    refusal walks the entries (:func:`_complex_refusal`) to name the
    offending one."""
    if isinstance(raw, np.ndarray) and raw.dtype == complex and raw.ndim == ndim and raw.size:
        if np.isfinite(raw).all():
            return raw
        raw = np.stack((raw.real, raw.imag), axis=-1).tolist()
    pairs = _pair_stack([raw], ndim)
    if pairs is None:
        raise InvalidInputError(_complex_refusal(raw, name, ndim))
    return pairs.view(complex)[0, ..., 0]


def _complex_refusal(raw: Any, name: str, ndim: int) -> str:
    """Why ``raw`` failed :func:`_complex_array`, naming the first offending
    entry (``name[i][j]...``)."""
    widths: dict[int, tuple[int, str]] = {}

    def walk(node: Any, level: int, path: str) -> Optional[str]:
        if level == ndim:
            if not (isinstance(node, (list, tuple)) and len(node) == 2 and all(map(_is_number, node))):
                return f"{name} entries must be [re, im] pairs, got {node!r} at {path}"
            if all(math.isfinite(v) for v in node if isinstance(v, float)):
                return None
            return f"{name} entries must be finite, got {node!r} at {path}"
        if not isinstance(node, (list, tuple)) or not node:
            return f"{name} must be non-empty lists nested {ndim} deep, got {node!r} at {path}"
        width, first = widths.setdefault(level, (len(node), path))
        if len(node) != width:
            return f"{name} is ragged: {path} has {len(node)} entries, {first} has {width}"
        for i, sub in enumerate(node):
            found = walk(sub, level + 1, f"{path}[{i}]")
            if found:
                return found
        return None

    return walk(raw, 0, name) or f"{name} entries must be [re, im] pairs of finite floats"


def operator_to_json(op: np.ndarray) -> dict:
    mat = np.array(op, dtype=complex)
    if mat.ndim != 2:
        raise InvalidInputError("operators must be 2-dimensional")
    return {
        "kind": "operator",
        "shape": [int(mat.shape[0]), int(mat.shape[1])],
        "entries": mat,
    }


def operator_from_json(doc: Mapping) -> np.ndarray:
    _expect_kind(doc, "operator")
    mat = _complex_array(_field(doc, "entries"), "entries", 2)
    shape = _field(doc, "shape")
    if not isinstance(shape, (list, tuple)) or list(shape) != list(mat.shape):
        raise InvalidInputError(f"operator shape {shape!r} does not match "
                                f"entries {list(mat.shape)}")
    return mat


# --------------------------------------------------------------------------- #
#                              States and spectra                              #
# --------------------------------------------------------------------------- #

def state_to_json(psi: PureBipartiteState) -> dict:
    return {
        "kind": "pure_bipartite",
        "dims": [int(psi.dims[0]), int(psi.dims[1])],
        "amplitudes": psi.amplitudes,
    }


def state_from_json(doc: Mapping) -> PureBipartiteState:
    _expect_kind(doc, "pure_bipartite")
    dims = _field(doc, "dims")
    if not isinstance(dims, (list, tuple)) or len(dims) != 2 or not all(map(_is_integer, dims)):
        raise InvalidInputError(f"dims must be a [dA, dB] pair of integers, got {dims!r}")
    amps = _complex_array(_field(doc, "amplitudes"), "amplitudes", 1)
    return pure_state((dims[0], dims[1]), amps)


def density_to_json(rho: DensityMatrix) -> dict:
    return {
        "kind": "density",
        "dim": int(rho.dim),
        "entries": rho.entries,
    }


def density_from_json(doc: Mapping) -> DensityMatrix:
    _expect_kind(doc, "density")
    dim = _field(doc, "dim")
    if not _is_integer(dim):
        raise InvalidInputError(f"density 'dim' must be an integer, got {dim!r}")
    mat = _complex_array(_field(doc, "entries"), "entries", 2)
    if mat.shape[0] != mat.shape[1] or mat.shape[0] != dim:
        raise InvalidInputError("density 'dim' does not match the entry grid")
    return density(mat)


def spectrum_to_json(s: Spectrum) -> dict:
    return {"kind": "spectrum", "values": s.values}


def spectrum_from_json(doc: Mapping) -> Spectrum:
    _expect_kind(doc, "spectrum")
    return spectrum(_float_list(_field(doc, "values"), "values"))


def step_function_to_json(f: StepFunction) -> dict:
    return {
        "kind": "step_function",
        "breakpoints": f.breakpoints,
        "levels": f.levels,
    }


def step_function_from_json(doc: Mapping) -> StepFunction:
    _expect_kind(doc, "step_function")
    return step_function(
        _float_list(_field(doc, "breakpoints"), "breakpoints"),
        _float_list(_field(doc, "levels"), "levels"),
    )


def measure_to_json(m: AtomicMeasure) -> dict:
    return {"kind": "measure", "atoms": m.atoms, "masses": m.masses}


def measure_from_json(doc: Mapping) -> AtomicMeasure:
    _expect_kind(doc, "measure")
    return atomic_measure(
        _float_list(_field(doc, "atoms"), "atoms"),
        _float_list(_field(doc, "masses"), "masses"),
    )


# --------------------------------------------------------------------------- #
#                                  Protocols                                   #
# --------------------------------------------------------------------------- #

def _instrument_to_json(instr: Instrument) -> dict:
    return {"kraus": instr.kraus, "labels": list(instr.labels)}


def _history(key: str) -> tuple[str, ...]:
    history = tuple(key.split(HISTORY_SEP)) if key else ()
    if not all(history):
        raise InvalidInputError(f"history key {key!r} must be '' or non-empty labels "
                                f"joined by {HISTORY_SEP!r}")
    return history


def _labels(doc: Mapping) -> tuple[str, ...]:
    labels = _field(doc, "labels")
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise InvalidInputError(f"instrument 'labels' must be a list of strings, got {labels!r}")
    return tuple(labels)


def _instrument_from_json(doc: Mapping) -> Instrument:
    kraus = _complex_array(_field(doc, "kraus"), "kraus", 3)
    return Instrument(kraus, _labels(doc))


def _round_branches(raw: Mapping) -> dict[tuple[str, ...], Instrument]:
    """A round's ``branches`` object, its Kraus operators parsed as one
    stack (:func:`_pair_stack`) and checked once as a stack
    (:func:`locc._stacked_instruments`), each instrument a view of it.  When
    anything in the round would be refused, the round is parsed one
    instrument at a time instead, so the refusal names the same entry."""
    try:
        docs = list(raw.values())
        kraus = [doc["kraus"] for doc in docs]
        labels = [doc["labels"] for doc in docs]
        counts = list(map(len, kraus))
        if (all(map(_is_list, kraus)) and set(map(type, labels)) <= {list}
                and set(map(type, chain.from_iterable(labels))) <= {str}):
            pairs = _pair_stack(list(chain.from_iterable(kraus)), 2)
            if pairs is not None:
                instrs = _stacked_instruments(pairs.view(complex)[..., 0], counts, labels)
                return dict(zip(map(_history, raw), instrs))
    except (TypeError, KeyError, AttributeError, InvalidInputError):
        pass
    return {_history(key): _instrument_from_json(doc) for key, doc in raw.items()}


def protocol_to_json(protocol: LoccProtocol) -> dict:
    rounds = []
    for rnd in protocol.rounds:
        branches = {}
        for history in sorted(rnd.branches):
            branches[HISTORY_SEP.join(history)] = _instrument_to_json(rnd.branches[history])
        rounds.append({"party": rnd.party, "branches": branches})
    return {"kind": "locc_protocol", "rounds": rounds}


def protocol_from_json(doc: Mapping) -> LoccProtocol:
    _expect_kind(doc, "locc_protocol")
    rounds_raw = _field(doc, "rounds")
    if not isinstance(rounds_raw, Sequence) or isinstance(rounds_raw, str):
        raise InvalidInputError("'rounds' must be a list")
    rounds = []
    for entry in rounds_raw:
        if not isinstance(entry, Mapping):
            raise InvalidInputError("each round must be a JSON object")
        branches_raw = _field(entry, "branches")
        if not isinstance(branches_raw, Mapping):
            raise InvalidInputError("round 'branches' must be an object keyed by history")
        rounds.append(LoccRound(str(_field(entry, "party")), _round_branches(branches_raw)))
    return LoccProtocol(tuple(rounds))


def one_way_to_json(protocol: OneWayProtocol) -> dict:
    return {
        "kind": "one_way",
        "alice_kraus": np.array(protocol.alice_kraus, dtype=complex),
        "bob_unitaries": np.array(protocol.bob_unitaries, dtype=complex),
    }


def one_way_from_json(doc: Mapping) -> OneWayProtocol:
    _expect_kind(doc, "one_way")
    return OneWayProtocol(
        tuple(_complex_array(_field(doc, "alice_kraus"), "alice_kraus", 3)),
        tuple(_complex_array(_field(doc, "bob_unitaries"), "bob_unitaries", 3)),
    )


# --------------------------------------------------------------------------- #
#                                Type labels                                   #
# --------------------------------------------------------------------------- #

def type_label_to_json(label: TypeLabel) -> dict:
    out: dict[str, Any] = {"family": label.family}
    if label.parameter is not None:
        out["lambda"] = float(label.parameter)
    return out

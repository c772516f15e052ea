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

Complex data (amplitudes, density and operator entries, Kraus stacks) and
real data (spectra, step functions, measures, Schmidt coefficients) move as
whole arrays.  The ``*_to_json`` functions put NumPy arrays into the
documents, and :func:`canonical_json` writes the floats of all the float and
complex arrays of a document through one NumPy kernel,
:func:`_float_fields`, in chunks of ``_CHUNK`` floats: it computes the
``%.17g`` digits of zeros and of every float with 1e-4 <= |x| < 1 exactly
(a Dekker product by a power of ten), and leaves the others to ``%.17g``
itself, with no Python object per float: a chunk is one byte buffer of
NUL-padded rows from small tables, each float's after its separator's, and
one ``bytes.translate`` drops the padding.  The bytes are those of
formatting every float on its own with :func:`format_float`.  The parsers
read each complex field with one flat build: one type and one length check
per nesting level, one type pass over the numbers (bools, strings and null
are refused), one ``np.fromiter`` call on the flat list of floats, a
reshape and a finiteness check (``json.load`` reads ``NaN`` and
``Infinity``; both are refused).  A
protocol is read the same way in one stacked pass per party: the Kraus
operators of all of Alice's rounds are one stack and those of all of Bob's
another, since a protocol that can run has one dimension per party.  The
stacked pass refuses nothing and reads only JSON lists; any other document
is read round by round and one instrument at a time: one with anything to
refuse, so that a refusal is the first offending round's and names the same
entry in the same words, a party whose rounds act on two dimensions, and an
in-memory document whose Kraus fields are NumPy arrays, as
:func:`protocol_to_json` leaves them.  Only a refusal walks the entries in
Python, to name the offending one.  Each protocol rule has one home: the
entries' in :func:`_pair_stack` (:func:`_complex_refusal` names the
entry), the history keys' in :func:`_history`, a document's labels' (a
JSON list of strings) in :func:`_labels`, :class:`Instrument`'s (square
matrices; labels strings, never converted, distinct, one per outcome, each
one a history can carry) in :func:`locc._checked_stack`, once per stack,
and the completeness rule in :func:`locc._completions`, also once per
stack; :func:`locc._build_rounds` gives each round its slice of the
completed stack, each instrument a view of that slice.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from itertools import accumulate, chain
from operator import itemgetter, mul
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .embezzle import TypeLabel
from .errors import InvalidInputError
from .locc import (
    HISTORY_SEP,
    Instrument,
    LoccProtocol,
    LoccRound,
    OneWayProtocol,
    _stacked_rounds,
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
    :func:`format_float`, real arrays become nested lists and complex arrays
    nested ``[re, im]`` pairs, and no whitespace depends on the platform.
    The floats of all the arrays in the document are formatted together by
    :func:`_float_fields`, one pass per ``_CHUNK`` floats, so a small
    document is one pass however many arrays it holds.
    """
    if isinstance(value, float):  # a table cell: skip the list and the join
        return format_float(value)
    parts: list[str] = []
    arrays: list[tuple[int, np.ndarray]] = []
    _emit(value, parts, arrays)
    if arrays:
        _write_arrays(parts, arrays)
    return "".join(parts)


def _emit(value: Any, parts: list[str], arrays: list[tuple[int, np.ndarray]]) -> None:
    """Append the JSON text of ``value`` to ``parts``.  A float or complex
    array gets an empty placeholder, and its place and the array go to
    ``arrays``, for :func:`_write_arrays` to fill."""
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
    elif isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        arrays.append((len(parts), value))
        parts.append("")
    elif isinstance(value, Mapping):
        parts.append("{")
        for i, (key, sub) in enumerate(value.items()):
            if not isinstance(key, str):
                raise InvalidInputError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(sub, parts, arrays)
        parts.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, sub in enumerate(list(value)):
            if i:
                parts.append(", ")
            _emit(sub, parts, arrays)
        parts.append("]")
    else:
        raise InvalidInputError(f"cannot serialize {type(value).__name__} to JSON")


# Floats per kernel pass, which bounds the arrays and byte buffers in hand:
# 2^13 writes a 65 536-float document as fast as 2^14 with half the memory.
_CHUNK = 1 << 13


def _write_arrays(parts: list[str], arrays: list[tuple[int, np.ndarray]]) -> None:
    """Put the JSON text of each array in ``arrays`` at its place in
    ``parts``: nested lists, of ``[re, im]`` pairs for a complex array.

    Floats go in row-major order, each row of :func:`_float_fields` after
    that of its separator: of the n axes (``[re, im]`` included), z = #{k :
    i mod prod(shape[k:]) = 0} wrap at float i, and the separator is
    ``"]" * z + ", " + "[" * z``, or ``"[" * n`` at i = 0.  An array's piece
    of a chunk loses its NUL padding in one ``bytes.translate``."""
    shapes = [arr.shape + (2,) if arr.dtype.kind == "c" else arr.shape for _, arr in arrays]
    width = 2 * max(map(len, shapes))
    tables = {n: _separator_table(n, width) for n in set(map(len, shapes))}
    texts: list[list[str]] = [[] for _ in arrays]
    for chunk, pieces in _float_chunks([arr for _, arr in arrays]):
        buf = np.empty((chunk.size, width + _FIELD), np.uint8)
        buf[:, width:] = _float_fields(chunk)
        for i, start, stop, offset in pieces:
            z = np.zeros(stop - start, np.intp)
            for size in accumulate(reversed(shapes[i]), mul):
                z[-start % size :: size] += 1  # the j with (start + j) mod size = 0
            rows = buf[offset : offset + stop - start]
            rows[:, :width] = tables[len(shapes[i])].take(z, axis=0)
            texts[i].append(rows.tobytes().translate(None, b"\0").decode())
    for (at, arr), shape, text in zip(arrays, shapes, texts):
        if text:
            text.append("]" * len(shape))
            parts[at] = "".join(text)
            text.clear()
        else:  # no floats: only empty lists
            parts[at] = json.dumps(np.empty(arr.shape).tolist())


def _separator_table(n: int, width: int) -> np.ndarray:
    """Row z: an n-axis array's separator where z axes wrap, NUL-padded."""
    seps = ["]" * z + ", " + "[" * z for z in range(n)] + ["[" * n]
    text = "".join(sep.ljust(width, "\0") for sep in seps)
    return np.frombuffer(text.encode(), np.uint8).reshape(n + 1, width)


def _float_chunks(arrays: list[np.ndarray]) -> Iterator[tuple[np.ndarray, list[tuple[int, ...]]]]:
    """The floats of ``arrays`` in row-major order, ``[re, im]`` per complex
    entry, one array after the other, cut into float64 chunks of ``_CHUNK``
    floats (the last one shorter).  Yields each chunk with its pieces:
    ``(i, start, stop, offset)`` for floats ``start:stop`` of array i."""
    pending, pieces, count = [], [], 0
    for i, arr in enumerate(arrays):
        flat = np.ascontiguousarray(arr, complex if arr.dtype.kind == "c" else float).view(float).ravel()
        start = 0
        while start < flat.size:
            stop = min(flat.size, start + _CHUNK - count)
            pending.append(flat[start:stop])
            pieces.append((i, start, stop, count))
            count += stop - start
            start = stop
            if count == _CHUNK:
                yield np.concatenate(pending), pieces
                pending, pieces, count = [], [], 0
    if pending:
        yield np.concatenate(pending), pieces


# The kernel's tables, indexed by decade j = 1..4 for 10^(j-5) <= |x| <
# 10^(j-4); j = 0 (below 1e-4) and j = 5 (1 and above) scale by 0.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])[:, None]
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _veltkamp_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _VELTKAMP
    high = c - (c - v)
    return high, v - high


_SCALE = np.array([0.0, 1e20, 1e19, 1e18, 1e17, 0.0])  # 10^q, q = 16 - k
_SCALES = np.stack([_SCALE, *_veltkamp_split(_SCALE)])
# "%.17g" of a float in decade j starts with this head (j + 6 for a
# negative float); j = 0 heads an exact zero.
_HEADS = ["0", "0.000", "0.00", "0.0", "0.", "", "-0", "-0.000", "-0.00", "-0.0", "-0.", ""]
# head h and D's leading digit t (none for t = 0) at 10 h + t, 8 bytes as one uint64
_LEADS = np.array([h + str(t or "") for h in _HEADS for t in range(10)], "S8").view(np.uint64)
_FIELD = 24  # bytes per float: 8 of lead and 16 of digits, or the longest "%.17g" text


def _group_table() -> np.ndarray:
    """At g < 10^4, g's four digits NUL from its trailing zeros on; at 10^4 + g, all four."""
    g = np.arange(10**4)[:, None]
    digits = (g // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    kept = g % [10**4, 1000, 100, 10] != 0  # a nonzero digit here or later
    return np.concatenate([digits * kept, digits]).view(np.uint32).ravel()


_GROUPS = _group_table()


def _float_fields(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of every float ``v`` of the 1-d float64 array ``x``,
    as one NUL-padded row of ``_FIELD`` bytes per float.

    NumPy writes zeros and every v with 1e-4 <= |v| < 1.  For such a v in
    decade k (10^k <= |v| < 10^(k+1), k = -4..-1), ``%.17g`` writes "0."
    (after a "-" when v < 0), -k-1 zeros, and the 17 significant digits
    D = round(|v| * 10^q), q = 16 - k, without trailing zeros
    (:func:`_significands`): the head ("0.", "0.000", "-0.0", ...) and D's
    leading digit from ``_LEADS``, its other 16 digits from ``_GROUPS``
    (:func:`_digit_groups`).  A zero is "0" or "-0".  Every other float gets
    ``"%.17g" % v`` (:func:`format_float`).  NaN and infinities are refused."""
    if not np.isfinite(x).all():
        raise InvalidInputError("refusing to serialize NaN/Inf")
    decade, significand, fallback = _significands(x)
    significand[fallback] = 0  # their rows are written below; keeps the indices in range
    top, groups = _digit_groups(significand)
    fields = np.empty((x.size, _FIELD), np.uint8)
    fields.view(np.uint64)[:, 0] = _LEADS.take((decade + 6 * np.signbit(x)) * 10 + top)
    fields.view(np.uint32)[:, 2:] = _GROUPS.take(groups).T
    if fallback.size:
        fields.view(f"S{_FIELD}")[fallback, 0] = ["%.17g" % v for v in x[fallback].tolist()]
    return fields


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the finite floats ``x``: each one's decade j (see ``_DECADES``),
    its 17 significant digits D = round(|v| * 10^q) as an int64 (0 for a
    zero), and the indices of the nonzero floats whose D is not computed.

    D is exact for 1e-4 <= |v| < 1, in decade k = -4..-1, q = 16 - k = 17..20:
      * 10^q is an exact double, because 5^20 < 2^53;
      * Dekker's product with Veltkamp's splitting gives |v| * 10^q = p + e
        exactly (Dekker, Numer. Math. 18 (1971) 224), each step its own
        NumPy ufunc, so nothing is fused or held in extended precision; p
        is an integer at least 10^16 > 2^53, so even, and |e| <= 8;
      * D = p + rint(e), summed in int64 (a float sum would round).  At an
        exact half rint rounds e to even, so D is the even neighbour, as
        ``%.17g`` rounds.
    A D outside [10^16, 10^17) (a wrong decade) is left out, and so is
    every float outside that range of magnitudes, zeros apart."""
    a = np.minimum(np.abs(x), 1.0)
    decade = (a >= _DECADES).sum(axis=0)
    b, bh, bl = _SCALES.take(decade, axis=1)
    p = a * b
    ah, al = _veltkamp_split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    significand = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fallback = (((significand - 10**16).view(np.uint64) >= 9 * 10**16) & (x != 0)).nonzero()[0]
    return decade, significand, fallback


def _digit_groups(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each entry of ``n`` (int64, 0 <= n < 10^17, 17
    digits but for zero): the leading one, and the other 16 as four groups
    of four, each an index into ``_GROUPS``: g where all later groups are 0,
    so that the number's trailing zeros are dropped, else 10^4 + g."""
    hi = n // 10**8
    top = hi // 10**8
    part = np.array([hi - top * 10**8, n - hi * 10**8], np.uint32)  # digits 2-9 and 10-17
    high = part // 10**4
    groups = np.empty((4, n.size), np.uint32)
    groups[0::2] = high
    groups[1::2] = part - high * 10**4
    later = groups[1:] != 0  # row j: a group after group j is nonzero
    later[1] |= later[2]
    later[0] |= later[1]
    np.add(groups[:3], 10**4, out=groups[:3], where=later)
    return top, groups


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

def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list(v: Any) -> bool:
    return isinstance(v, (list, tuple, np.ndarray))


def _pair_stack(nodes: list, depth: int) -> Optional[np.ndarray]:
    """``nodes``, each non-empty lists nested ``depth`` deep around finite
    ``[re, im]`` pairs, all of one shape, as one float array of shape
    ``(len(nodes), ..., 2)``; None when anything in them would be refused.
    Built flat: per nesting level one type and one length check, then one
    type pass over the numbers, one ``np.fromiter`` call on the flat list, a
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
        flat = np.fromiter(level, dtype=float, count=len(level))
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


def _instrument_from_json(doc: Any) -> Instrument:
    if not isinstance(doc, Mapping):
        raise InvalidInputError(f"each instrument must be a JSON object, got {doc!r}")
    kraus = _complex_array(_field(doc, "kraus"), "kraus", 3)
    return Instrument(kraus, _labels(doc))


def _round_branches(raw: Mapping) -> dict[tuple[str, ...], Instrument]:
    """A round's ``branches`` object, read one instrument at a time, so that
    a refusal names the offending entry."""
    return {_history(key): _instrument_from_json(doc) for key, doc in raw.items()}


def _stacked_rounds_from_json(rounds_raw: Sequence) -> Optional[list[LoccRound]]:
    """The rounds of a protocol document, read in one stacked pass per
    party: the Kraus operators of all of a party's rounds parsed as one
    stack (:func:`_pair_stack`), then checked, completed and cut into rounds
    once (:func:`locc._stacked_rounds`).  None when anything in the rounds
    would be refused, or when a party's rounds act on more than one
    dimension; the rounds are then read one at a time, which refuses in
    its own order and words."""
    try:
        parties = list(map(itemgetter("party"), rounds_raw))
        branches = list(map(itemgetter("branches"), rounds_raw))
        if not (set(parties) <= {"A", "B"} and all(branches)):
            return None
        rounds: list = [None] * len(rounds_raw)
        for party in dict.fromkeys(parties):  # each party once, in the order of its first round
            at = [i for i, p in enumerate(parties) if p == party]
            docs = list(chain.from_iterable(branches[i].values() for i in at))
            kraus = list(map(itemgetter("kraus"), docs))
            labels = list(map(itemgetter("labels"), docs))
            if not set(map(type, kraus)) | set(map(type, labels)) <= {list}:
                return None
            pairs = _pair_stack(list(chain.from_iterable(kraus)), 2)
            if pairs is None:
                return None
            histories = [list(map(_history, branches[i])) for i in at]
            for i, rnd in zip(at, _stacked_rounds(party, pairs.view(complex)[..., 0],
                                                  list(map(len, kraus)), labels, histories)):
                rounds[i] = rnd
        return rounds
    except (TypeError, KeyError, AttributeError, InvalidInputError):
        return None


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
    rounds = _stacked_rounds_from_json(rounds_raw)
    if rounds is None:
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

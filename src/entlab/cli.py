"""Command-line front end: file I/O, decisions, and experiment sweeps.

Exit codes: 0 for success (a negative decision is data, not an error),
2 for parse/validation problems (including unknown commands and bad flag
values), 3 for numerical failures inside core operations, unwritable
output paths, or a computation too large for memory.  The experiment
scripts in ``scripts/`` exit by the same policy (:func:`_exit_code`) and
build their rows with the table commands' code.

Each handler is a function of the parsed arguments alone and returns what
the command prints; :func:`dispatch` writes it.  A record command returns a
dict, printed as one canonical JSON object.  A table command (``embezzle
sweep``, ``kappa profile``, ``catalysis decay``, ``locc simulate``: the
ones the parser gives ``--format``) returns ``(rows, columns)``, printed
as CSV (default) or a JSON array of records, deterministically ordered by
their parameter tuple.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stdio
import math
import sys
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import io as eio
from .embezzle import (
    _lambda_family,
    catalytic_deviation,
    classify_itpfi,
    embezzle_report,
    family_kappa_profile,
    vdh_bound,
)
from .errors import (
    EntlabError,
    InfeasibleError,
    InvalidInputError,
    NumericalFailureError,
)
from .locc import (
    OneWayProtocol,
    locc_feasible,
    nielsen_synthesize,
    one_shot_entanglement,
    one_way_branches,
    one_way_reduce,
    simulate,
    slocc,
)
from .quantum import bell_state, fidelity, product_basis_state, schmidt, trace_distance
from .spectra import _allocatable, entanglement_entropies, spectrum

__all__ = ["emit_sweep", "dispatch", "main"]

TABLE_FORMATS = ("csv", "json")  # record commands always write JSON


# --------------------------------------------------------------------------- #
#                                Table emission                                #
# --------------------------------------------------------------------------- #

def _cell(value: Any) -> str:
    """A CSV cell: a string as it is, any other value as its canonical JSON."""
    return value if isinstance(value, str) else eio.canonical_json(value)


def emit_sweep(rows: Sequence[dict], columns: Sequence[str], out: Optional[str] = None,
               format: str = "csv") -> None:
    """Write a homogeneous table to the path ``out`` (stdout when None) in
    ``format``, ``"csv"`` or ``"json"``.

    CSV uses RFC-4180 quoting with a single header row; JSON is an array of
    records.  Rows are emitted in the order given — callers sort by their
    parameter tuple first — and a CSV cell that is not a string is written as
    its canonical JSON, so both formats share one scalar format (floats with
    17 digits) and reruns are byte-identical.
    """
    if format not in TABLE_FORMATS:
        raise InvalidInputError(f"format must be {' or '.join(TABLE_FORMATS)}, got {format!r}")
    for name, value in (("rows", rows), ("columns", columns)):
        if not isinstance(value, Sequence):
            raise InvalidInputError(f"sweep {name} must be a sequence, got {type(value).__name__}")
    schema = set(columns)
    if any(not isinstance(row, dict) or row.keys() != schema for row in rows):
        raise InvalidInputError("sweep rows must share one schema")
    if format == "json":
        text = eio.canonical_json([{c: row[c] for c in columns} for row in rows])
    else:
        buf = _stdio.StringIO()
        writer = csv.writer(buf)  # default lineterminator is RFC-4180 CRLF
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        text = buf.getvalue()
    eio.write_text(out, text)


# --------------------------------------------------------------------------- #
#                                Input parsing                                 #
# --------------------------------------------------------------------------- #

def _parse_float_list(raw: str, name: str, required: bool = True) -> list[float]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError as exc:
            raise InvalidInputError(f"{name} entry {piece!r} is not a number") from exc
    if required and not out:
        raise InvalidInputError(f"{name} needs at least one value")
    return out


def _parse_int_list(raw: str, name: str) -> list[int]:
    out = []
    for value in _parse_float_list(raw, name):
        if not math.isfinite(value) or value != int(value):
            raise InvalidInputError(f"{name} entries must be integers, got {value!r}")
        out.append(int(value))
    return out


def _load_state(path: str):
    return eio.read_document(path, eio.state_from_json)


def _load_density(path: str):
    return eio.read_document(path, eio.density_from_json)


def _either_protocol(doc: dict):
    """A ``locc_protocol`` or ``one_way`` document, parsed by its kind."""
    kind = doc.get("kind")
    if kind == "one_way":
        return eio.one_way_from_json(doc)
    if kind == "locc_protocol":
        return eio.protocol_from_json(doc)
    raise InvalidInputError(f"expected a locc_protocol or one_way document, got kind {kind!r}")


# --------------------------------------------------------------------------- #
#                                   Handlers                                   #
# --------------------------------------------------------------------------- #

# A table command's result: its rows, in print order, and its columns.
Table = tuple[list[dict], list[str]]


def _cmd_schmidt(args) -> dict:
    decomposition = schmidt(_load_state(args.file))
    return {
        "coefficients": decomposition.coefficients,
        "rank": decomposition.rank,
        "spectrum": decomposition.spectrum.values,
    }


def _cmd_distinguish(args) -> dict:
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    return {"trace_distance": trace_distance(rho, sigma), "fidelity": fidelity(rho, sigma)}


def _cmd_monotones(args) -> dict:
    alphas = _parse_float_list(args.alpha, "--alpha", required=False)
    report = entanglement_entropies(schmidt(_load_state(args.file)).spectrum, alphas)
    return {
        "H": report.H,
        "H_alpha": {eio.format_float(a): v for a, v in sorted(report.H_alpha.items())},
        "schmidt_rank": report.schmidt_rank,
    }


def _cmd_locc_decide(args) -> dict:
    return {"feasible": locc_feasible(_load_state(args.psi), _load_state(args.phi))}


def _cmd_locc_synth(args) -> dict:
    psi = _load_state(args.psi)
    phi = _load_state(args.phi)
    try:
        protocol = nielsen_synthesize(psi, phi)
    except InfeasibleError:
        return {"feasible": False}  # a refusal is a decision, not an error
    return eio.one_way_to_json(protocol)


def _cmd_locc_simulate(args) -> Table:
    protocol = eio.read_document(args.protocol, _either_protocol)
    psi = _load_state(args.psi)
    if isinstance(protocol, OneWayProtocol):
        branches = one_way_branches(protocol, psi)
    else:
        branches = simulate(protocol, psi)
    rows = [
        {"history": eio.HISTORY_SEP.join(branch.history), "probability": branch.probability}
        for branch in branches
    ]
    rows.sort(key=lambda row: row["history"])
    return rows, ["history", "probability"]


def _cmd_locc_reduce(args) -> dict:
    protocol = eio.read_document(args.protocol, eio.protocol_from_json)
    return eio.one_way_to_json(one_way_reduce(protocol, _load_state(args.psi)))


def _cmd_slocc(args) -> dict:
    result = slocc(_load_state(args.psi), _load_state(args.phi))
    record: dict[str, Any] = {
        "feasible": result.feasible,
        "success_prob": result.success_prob,
    }
    if result.filter is not None:
        record["filter"] = {
            "a_A": eio.operator_to_json(result.filter.op_A),
            "b_B": eio.operator_to_json(result.filter.op_B),
        }
    return record


def _cmd_oneshot(args) -> dict:
    report = one_shot_entanglement(_load_state(args.psi))
    return {"n_max": report.n_max, "ebits": report.ebits}


def _embezzle_rows(n_list: Sequence[int], start, target) -> list[dict]:
    """The ``embezzle sweep`` rows: one per distinct n, ascending, from
    ``embezzle_report`` and the ``vdh_bound`` at the target's Schmidt rank."""
    rank = schmidt(target).rank  # the bound columns and meets_bound share the target's d
    rows = []
    for n in sorted(set(n_list)):
        report = embezzle_report(n, start, target)
        bound = vdh_bound(rank, n)
        rows.append({"n": n, "fidelity": report.fidelity, "trace_error": report.trace_error,
                     "epsilon": bound.epsilon, "fidelity_bound": bound.fidelity_bound,
                     "meets_bound": report.meets_bound})
    return rows


def _cmd_embezzle_sweep(args) -> Table:
    if args.d is None and (args.target == "bell" or not args.start):
        raise InvalidInputError("--d is needed unless --target and --start are both files")
    if args.d is not None and args.d < 1:
        raise InvalidInputError(f"--d must be a positive integer, got {args.d}")
    n_list = _parse_int_list(args.n_list, "--n-list")
    target = bell_state(args.d) if args.target == "bell" else _load_state(args.target)
    start = _load_state(args.start) if args.start else product_basis_state(args.d, args.d)
    columns = ["n", "fidelity", "trace_error", "epsilon", "fidelity_bound", "meets_bound"]
    return _embezzle_rows(n_list, start, target), columns


def _cmd_kappa_profile(args) -> Table:
    if args.steps < 1:
        raise InvalidInputError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 <= args.t_max - args.t_min < math.inf:  # NaN and infinities fail too
        raise InvalidInputError(f"need --t-min <= --t-max, a finite span apart: {args.t_min!r}, {args.t_max!r}")
    grid = [float(t) for t in np.linspace(args.t_min, args.t_max, _allocatable(args.steps))]
    deviations = family_kappa_profile(args.lam, args.m, grid)
    return [{"t": t, "deviation": d} for t, d in zip(grid, deviations)], ["t", "deviation"]


def _catalysis_rows(lam: float, m_list: Sequence[int]) -> list[dict]:
    """The ``catalysis decay`` rows: one ``(m, t, deviation)`` per distinct
    m, ascending, at the flow period t = log(1/lambda)."""
    rows = []
    for m in sorted(set(m_list)):
        lam, m = _lambda_family(lam, m)  # a bad lambda or m is refused before the period
        inverse = 1.0 / lam  # inf for lambda below 1 / sys.float_info.max
        period = math.log(inverse) if inverse < math.inf else -math.log(lam)
        rows.append({"m": m, "t": period, "deviation": catalytic_deviation(lam, m, period)})
    return rows


def _cmd_catalysis_decay(args) -> Table:
    return _catalysis_rows(args.lam, _parse_int_list(args.m_list, "--m-list")), ["m", "t", "deviation"]


def _cmd_classify(args) -> dict:
    values = _parse_float_list(args.spectrum, "--spectrum")
    if any(v <= 0.0 for v in values):
        raise InvalidInputError(
            "spectrum entries must be strictly positive (truncate zeros first)"
        )
    return eio.type_label_to_json(classify_itpfi(spectrum(values)))


# --------------------------------------------------------------------------- #
#                              Parser and dispatch                             #
# --------------------------------------------------------------------------- #

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not mutate it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    table = argparse.ArgumentParser(add_help=False, parents=[common])
    table.add_argument("--format", choices=TABLE_FORMATS, default="csv", help="table format")

    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Bipartite entanglement workbench: decisions, synthesis, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[common], help="Schmidt data of a pure state")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_schmidt)

    p = sub.add_parser("distinguish", parents=[common], help="trace distance and fidelity")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser("monotones", parents=[common], help="entanglement entropies")
    p.add_argument("file")
    p.add_argument("--alpha", default="", help="comma-separated Renyi orders")
    p.set_defaults(handler=_cmd_monotones)

    locc_parser = sub.add_parser("locc", help="LOCC decisions, synthesis, simulation")
    locc_sub = locc_parser.add_subparsers(dest="locc_command", required=True)

    p = locc_sub.add_parser("decide", parents=[common], help="is psi -> phi feasible?")
    p.add_argument("psi")
    p.add_argument("phi")
    p.set_defaults(handler=_cmd_locc_decide)

    p = locc_sub.add_parser("synth", parents=[common], help="one-way protocol for psi -> phi")
    p.add_argument("psi")
    p.add_argument("phi")
    p.set_defaults(handler=_cmd_locc_synth)

    p = locc_sub.add_parser("simulate", parents=[table], help="run a protocol file on a state")
    p.add_argument("protocol")
    p.add_argument("psi")
    p.set_defaults(handler=_cmd_locc_simulate)

    p = locc_sub.add_parser("reduce", parents=[common], help="collapse to Alice-then-Bob form")
    p.add_argument("protocol")
    p.add_argument("psi")
    p.set_defaults(handler=_cmd_locc_reduce)

    p = sub.add_parser("slocc", parents=[common], help="stochastic-LOCC filter for psi -> phi")
    p.add_argument("psi")
    p.add_argument("phi")
    p.set_defaults(handler=_cmd_slocc)

    p = sub.add_parser("oneshot", parents=[common], help="one-shot entanglement of a state")
    p.add_argument("psi")
    p.set_defaults(handler=_cmd_oneshot)

    embezzle_parser = sub.add_parser("embezzle", help="embezzlement sweeps")
    embezzle_sub = embezzle_parser.add_subparsers(dest="embezzle_command", required=True)
    p = embezzle_sub.add_parser("sweep", parents=[table], help="fidelity vs resource size")
    p.add_argument("--d", type=int, default=None,
                   help="Bell target and |00> start dimension (needed unless both are files)")
    p.add_argument("--n-list", required=True, help="comma-separated resource sizes")
    p.add_argument("--target", default="bell", help="'bell' or a pure_bipartite file")
    p.add_argument("--start", default=None, help="pure_bipartite file (default |00>)")
    p.set_defaults(handler=_cmd_embezzle_sweep)

    kappa_parser = sub.add_parser("kappa", help="flow-deviation profiles")
    kappa_sub = kappa_parser.add_subparsers(dest="kappa_command", required=True)
    p = kappa_sub.add_parser("profile", parents=[table], help="deviation over a time grid")
    p.add_argument("--family", choices=("lambda",), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t-min", dest="t_min", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(handler=_cmd_kappa_profile)

    catalysis_parser = sub.add_parser("catalysis", help="catalytic deviation sweeps")
    catalysis_sub = catalysis_parser.add_subparsers(dest="catalysis_command", required=True)
    p = catalysis_sub.add_parser("decay", parents=[table], help="deviation at the period vs m")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m-list", required=True, help="comma-separated tensor powers")
    p.set_defaults(handler=_cmd_catalysis_decay)

    p = sub.add_parser("classify", parents=[common], help="factor-type label of a spectrum")
    p.add_argument("--spectrum", required=True, help="comma-separated positive values")
    p.set_defaults(handler=_cmd_classify)

    return parser


# Options that take a float.  argparse reads a value such as -1e-5, -1e3 or
# -inf after an option as an option of its own (only -3 and -0.5 pass as
# numbers), so dispatch joins a negative value to its option first.
_FLOAT_OPTIONS = ("--lambda", "--t-min", "--t-max")


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_floats(argv: Sequence[str]) -> list[str]:
    """``--t-min -1e-5`` becomes ``--t-min=-1e-5``; other tokens pass."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and token.startswith("-") and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _exit_code(prog: str, entry: Callable[..., Any], *args: Any) -> int:
    """Run the entry point ``entry(*args)`` and return its exit code: 0, or 2 for
    invalid input and 3 for a numerical failure, any other entlab error, a
    size too large for memory or an unwritable output, each refusal one
    stderr line prefixed with ``prog``.  ``dispatch`` and the experiment
    scripts share this policy."""
    try:
        entry(*args)
        return 0
    except InvalidInputError as exc:
        code, message = 2, str(exc)
    except NumericalFailureError as exc:
        code, message = 3, f"numerical failure: {exc}"
    except EntlabError as exc:
        code, message = 3, str(exc)
    except MemoryError as exc:
        code, message = 3, f"out of memory: {exc}"
    except OSError as exc:
        # Input-file problems surface as InvalidInputError above; reaching
        # here means an unwritable output path.
        code, message = 3, f"cannot write output: {exc}"
    print(f"{prog}: {message}", file=sys.stderr)
    return code


def _run(args) -> None:
    """Run the parsed command and write what its handler returns."""
    result = args.handler(args)
    if hasattr(args, "format"):  # only the table parent gives a command --format
        emit_sweep(*result, args.out, args.format)
    else:
        eio.write_text(args.out, eio.canonical_json(result))


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_floats(argv))
    except SystemExit as exc:
        # argparse already printed usage/help; normalize the code.
        return exc.code if isinstance(exc.code, int) else 2
    return _exit_code("entlab", _run, args)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

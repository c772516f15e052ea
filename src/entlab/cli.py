"""Command-line front end: file I/O, decisions, and experiment sweeps.

Exit codes: 0 for success (a negative decision is data, not an error),
2 for parse/validation problems (including unknown commands and bad flag
values), 3 for numerical failures inside core operations or unwritable
output paths.  Record-style commands print one canonical JSON object;
sweep-style commands (``embezzle sweep``, ``kappa profile``,
``catalysis decay``, ``locc simulate``) emit a table as CSV (default) or a
JSON array of records, deterministically ordered by their parameter tuple.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _stdio
import math
import sys
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from . import io as eio
from .embezzle import (
    LambdaFamilySpec,
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
    locc_feasible,
    nielsen_synthesize,
    one_shot_entanglement,
    one_way_branches,
    one_way_reduce,
    simulate,
    slocc,
)
from .quantum import bell_state, fidelity, product_basis_state, schmidt, trace_distance
from .spectra import entanglement_entropies, spectrum

__all__ = ["CommandConfig", "emit_sweep", "dispatch", "main"]


@dataclass(frozen=True)
class CommandConfig:
    """Output flags: ``--out`` on every subcommand, ``--format`` on the table
    commands (record commands always write JSON)."""

    out: Optional[str] = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise InvalidInputError(f"format must be csv or json, got {self.format!r}")


# --------------------------------------------------------------------------- #
#                                Table emission                                #
# --------------------------------------------------------------------------- #

def _cell(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (float, np.floating)):
        return eio.format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_sweep(
    rows: Sequence[dict],
    columns: Sequence[str],
    config: CommandConfig,
) -> None:
    """Write a homogeneous table to ``config.out`` (or stdout).

    CSV uses RFC-4180 quoting with a single header row; JSON is an array of
    records.  Rows are emitted in the order given — callers sort by their
    parameter tuple first — and floats use the canonical 17-digit format, so
    reruns are byte-identical.
    """
    for row in rows:
        if set(row) != set(columns):
            raise InvalidInputError("sweep rows must share one schema")
    if config.format == "json":
        text = eio.canonical_json([{c: row[c] for c in columns} for row in rows])
    else:
        buf = _stdio.StringIO()
        writer = csv.writer(buf)  # default lineterminator is RFC-4180 CRLF
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        text = buf.getvalue()
    eio.write_text(config.out, text)


def _emit_record(record: dict, config: CommandConfig) -> None:
    eio.write_text(config.out, eio.canonical_json(record))


# --------------------------------------------------------------------------- #
#                                Input parsing                                 #
# --------------------------------------------------------------------------- #

def _parse_float_list(raw: str, name: str) -> list[float]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError as exc:
            raise InvalidInputError(f"{name} entry {piece!r} is not a number") from exc
    return out


def _parse_int_list(raw: str, name: str) -> list[int]:
    out = []
    for value in _parse_float_list(raw, name):
        if value != int(value):
            raise InvalidInputError(f"{name} entries must be integers, got {value!r}")
        out.append(int(value))
    return out


def _load_state(path: str):
    return eio.state_from_json(eio.load_document(path))


def _load_density(path: str):
    return eio.density_from_json(eio.load_document(path))


# --------------------------------------------------------------------------- #
#                                   Handlers                                   #
# --------------------------------------------------------------------------- #

def _cmd_schmidt(args, config: CommandConfig) -> int:
    decomposition = schmidt(_load_state(args.file))
    _emit_record(
        {
            "coefficients": [float(c) for c in decomposition.coefficients],
            "rank": decomposition.rank,
            "spectrum": list(decomposition.spectrum.values),
        },
        config,
    )
    return 0


def _cmd_distinguish(args, config: CommandConfig) -> int:
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    _emit_record(
        {
            "trace_distance": trace_distance(rho, sigma),
            "fidelity": fidelity(rho, sigma),
        },
        config,
    )
    return 0


def _cmd_monotones(args, config: CommandConfig) -> int:
    alphas = _parse_float_list(args.alpha, "--alpha") if args.alpha else []
    report = entanglement_entropies(schmidt(_load_state(args.file)).spectrum, alphas)
    _emit_record(
        {
            "H": report.H,
            "H_alpha": {eio.format_float(a): v for a, v in sorted(report.H_alpha.items())},
            "schmidt_rank": report.schmidt_rank,
        },
        config,
    )
    return 0


def _cmd_locc_decide(args, config: CommandConfig) -> int:
    psi = _load_state(args.psi)
    phi = _load_state(args.phi)
    _emit_record({"feasible": locc_feasible(psi, phi)}, config)
    return 0


def _cmd_locc_synth(args, config: CommandConfig) -> int:
    psi = _load_state(args.psi)
    phi = _load_state(args.phi)
    try:
        protocol = nielsen_synthesize(psi, phi)
    except InfeasibleError:
        # A refusal is a decision, not an error.
        _emit_record({"feasible": False}, config)
        return 0
    _emit_record(eio.one_way_to_json(protocol), config)
    return 0


def _branch_rows(branches) -> list[dict]:
    rows = [
        {
            "history": eio.HISTORY_SEP.join(branch.history),
            "probability": branch.probability,
        }
        for branch in branches
    ]
    rows.sort(key=lambda row: row["history"])
    return rows


def _cmd_locc_simulate(args, config: CommandConfig) -> int:
    doc = eio.load_document(args.protocol)
    psi = _load_state(args.psi)
    kind = doc.get("kind")
    if kind == "one_way":
        branches = one_way_branches(eio.one_way_from_json(doc), psi)
    elif kind == "locc_protocol":
        branches = simulate(eio.protocol_from_json(doc), psi)
    else:
        raise InvalidInputError(
            f"expected a locc_protocol or one_way document, got kind {kind!r}"
        )
    emit_sweep(_branch_rows(branches), ["history", "probability"], config)
    return 0


def _cmd_locc_reduce(args, config: CommandConfig) -> int:
    protocol = eio.protocol_from_json(eio.load_document(args.protocol))
    psi = _load_state(args.psi)
    _emit_record(eio.one_way_to_json(one_way_reduce(protocol, psi)), config)
    return 0


def _cmd_slocc(args, config: CommandConfig) -> int:
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
    _emit_record(record, config)
    return 0


def _cmd_oneshot(args, config: CommandConfig) -> int:
    report = one_shot_entanglement(_load_state(args.psi))
    _emit_record({"n_max": report.n_max, "ebits": report.ebits}, config)
    return 0


def _cmd_embezzle_sweep(args, config: CommandConfig) -> int:
    if args.d < 1:
        raise InvalidInputError(f"--d must be a positive integer, got {args.d}")
    n_list = sorted(set(_parse_int_list(args.n_list, "--n-list")))
    target = bell_state(args.d) if args.target == "bell" else _load_state(args.target)
    start = _load_state(args.start) if args.start else product_basis_state(args.d, args.d)
    rank = schmidt(target).rank  # the bound columns and meets_bound share the target's d
    rows = []
    for n in n_list:
        report = embezzle_report(n, start, target)
        bound = vdh_bound(rank, n)
        rows.append(
            {
                "n": n,
                "fidelity": report.fidelity,
                "trace_error": report.trace_error,
                "epsilon": bound.epsilon,
                "fidelity_bound": bound.fidelity_bound,
                "meets_bound": report.meets_bound,
            }
        )
    emit_sweep(
        rows,
        ["n", "fidelity", "trace_error", "epsilon", "fidelity_bound", "meets_bound"],
        config,
    )
    return 0


def _cmd_kappa_profile(args, config: CommandConfig) -> int:
    if args.steps < 1:
        raise InvalidInputError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 <= args.t_max - args.t_min < math.inf:  # NaN and infinities fail too
        raise InvalidInputError(f"need --t-min <= --t-max, a finite span apart: {args.t_min!r}, {args.t_max!r}")
    spec = LambdaFamilySpec(args.lam, args.m)
    grid = [float(t) for t in np.linspace(args.t_min, args.t_max, args.steps)]
    deviations = family_kappa_profile(spec, grid)
    rows = [{"t": t, "deviation": d} for t, d in zip(grid, deviations)]
    emit_sweep(rows, ["t", "deviation"], config)
    return 0


def _cmd_catalysis_decay(args, config: CommandConfig) -> int:
    # each spec refuses a bad lambda or m before the period is taken from it
    m_list = sorted(set(_parse_int_list(args.m_list, "--m-list")))
    specs = [LambdaFamilySpec(args.lam, m) for m in m_list]
    rows = []
    for spec in specs:
        period = math.log(1.0 / spec.lambda_)
        rows.append({"m": spec.m, "t": period, "deviation": catalytic_deviation(spec, period)})
    emit_sweep(rows, ["m", "t", "deviation"], config)
    return 0


def _cmd_classify(args, config: CommandConfig) -> int:
    values = _parse_float_list(args.spectrum, "--spectrum")
    if not values:
        raise InvalidInputError("--spectrum needs at least one value")
    if any(v <= 0.0 for v in values):
        raise InvalidInputError(
            "spectrum entries must be strictly positive (truncate zeros first)"
        )
    label = classify_itpfi(spectrum(values))
    _emit_record(eio.type_label_to_json(label), config)
    return 0


# --------------------------------------------------------------------------- #
#                              Parser and dispatch                             #
# --------------------------------------------------------------------------- #

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not mutate it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    table = argparse.ArgumentParser(add_help=False, parents=[common])
    table.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")

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
    p.add_argument("--d", type=int, required=True, help="Bell target and |00> start dimension")
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


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_floats(argv))
    except SystemExit as exc:
        # argparse already printed usage/help; normalize the code.
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        config = CommandConfig(out=args.out, format=getattr(args, "format", "csv"))
        return args.handler(args, config)
    except InvalidInputError as exc:
        print(f"entlab: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"entlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except EntlabError as exc:
        print(f"entlab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Input-file problems surface as InvalidInputError above; reaching
        # here means an unwritable output path.
        print(f"entlab: cannot write output: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

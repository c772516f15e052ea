"""Seeded inputs, ops and oracles for the synth, protocol and sweeps workloads.

Inputs are generated with NumPy alone and written in entlab's documented
JSON schemas, so a change to entlab cannot change what the benchmark feeds
it. Every op is one user-facing call; its oracle runs outside the timed
region and must reject a wrong answer without trusting the code path that
produced it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as stdio
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from entlab import cli, embezzle, locc, quantum, spectra
from entlab import io as eio

# --------------------------------------------------------------------------- #
#                      Workload mixes (ops per corpus pass)                    #
# --------------------------------------------------------------------------- #
# Every size class a workload is defined with gets an equal share of a
# corpus pass's op time, so each class weighs the same in ops_per_s. A
# class's op count is its share divided by its mean op time, rounded to a
# whole number of cycles (shapes, dimensions or parties). The mean times
# below are wall milliseconds measured once at the first benchmarked commit
# on a 2-vCPU x86-64 VM; they are constants, so a later speed-up never
# changes the mix. Latency percentiles count ops, not time, so they sit in
# the cheaper classes; the costly classes show in ops_per_s and passed_frac.


def per_class(share_ms: float, op_ms: float, cycle: int = 1) -> int:
    """Ops of one size class: whole cycles whose time is nearest the share."""
    return cycle * max(1, round(share_ms / op_ms / cycle))


SYNTH_SHARE_MS = 4500.0
SYNTH_SHAPES = ("generic", "rank_deficient", "tie_heavy")
# (dimension, mean op ms); shapes cycle generic, rank-deficient, tie-heavy.
SYNTH_CLASSES = ((4, 18.3), (8, 118.0), (12, 470.0), (16, 930.0))
SYNTH_MIX = tuple((d, per_class(SYNTH_SHARE_MS, ms, len(SYNTH_SHAPES))) for d, ms in SYNTH_CLASSES)

# Leaf scales (rounds, leaf cap, mean ms of one simulate plus one reduce),
# all at d = 4. Cycling d over 3, 4 and 6 inside each scale put both latency
# percentiles on edges between per-d clusters of op times, where they moved
# by 11% and 21% between seeds. The first party alternates; each protocol
# is run once through `locc simulate` and once through `locc reduce`.
PROTOCOL_SHARE_MS = 5000.0
PROTOCOL_DIM = 4
PROTOCOL_CLASSES = ((6, 64, 86.7), (8, 256, 341.0), (10, 1024, 1120.0))
PROTOCOL_MIX = tuple(
    (rounds, cap, per_class(PROTOCOL_SHARE_MS, ms, 2)) for rounds, cap, ms in PROTOCOL_CLASSES
)

SWEEPS_SHARE_MS = 1200.0
# (lambda, m, mean op ms) for `kappa profile`.
KAPPA_CLASSES = ((0.25, 64, 18.2), (0.5, 256, 94.6), (0.9, 512, 264.0))
KAPPA_MIX = tuple((lam, m, per_class(SWEEPS_SHARE_MS, ms)) for lam, m, ms in KAPPA_CLASSES)
# One profile at m = 1000, lambda = 0.5, whose atoms underflow in float64,
# kept so that the failure shows.
KAPPA_UNDERFLOW = (0.5, 1000)
KAPPA_STEPS = 9
CATALYSIS_LAMBDAS = (0.25, 0.5, 0.9)
CATALYSIS_OPS = per_class(SWEEPS_SHARE_MS, 7.1, len(CATALYSIS_LAMBDAS))
# (d, largest n, mean op ms) for `embezzle sweep`; both reach 2**21 terms.
EMBEZZLE_CLASSES = ((2, 2**20, 298.0), (4, 2**19, 339.0))
EMBEZZLE_MIX = tuple((d, n, per_class(SWEEPS_SHARE_MS, ms)) for d, n, ms in EMBEZZLE_CLASSES)
# (rank, mean op ms) for direct flow_deviation at t = log 2.
FLOW_CLASSES = ((300, 27.7), (600, 88.4), (1000, 204.0), (2000, 721.0))
FLOW_MIX = tuple((rank, per_class(SWEEPS_SHARE_MS, ms)) for rank, ms in FLOW_CLASSES)

# Oracle tolerances.
SUM_TOL = 1e-9  # probabilities sum to one
LEAF_P_TOL = 1e-8  # same as the test suite's reduction check
LEAF_OVERLAP_TOL = 1e-7
COMPLETENESS_TOL = 1e-9
CATALYSIS_TOL = 1e-12
KAPPA_TOL = 1e-12
FLOW_TOL = 1e-12
EMBEZZLE_TOL = 1e-9


# --------------------------------------------------------------------------- #
#                                  Op model                                    #
# --------------------------------------------------------------------------- #

@dataclass
class Outcome:
    """What one op returned: exit code, output and stderr text."""

    code: int
    payload: Any
    message: str = ""


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Any], bool]


@dataclass
class Corpus:
    workload: str
    ops: list[Op]
    order: list[int]
    digest: str


@dataclass
class _Writer:
    """Writes input files and folds every input into one digest."""

    root: str
    sha: Any = field(default_factory=hashlib.sha256)
    count: int = 0

    def add(self, *parts: Any) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else repr(part).encode()
            self.sha.update(len(data).to_bytes(8, "little"))
            self.sha.update(data)

    def write(self, doc: dict) -> str:
        text = json.dumps(doc).encode()
        path = os.path.join(self.root, f"in{self.count:05d}.json")
        self.count += 1
        with open(path, "wb") as fh:
            fh.write(text)
        self.add(text)
        return path


def run_cli(argv: list[str]) -> Outcome:
    """One `entlab` command in-process, with stdout and stderr captured."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(stdio.StringIO(text)))


# --------------------------------------------------------------------------- #
#                          NumPy-only input helpers                            #
# --------------------------------------------------------------------------- #

def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _pairs(mat: np.ndarray) -> list:
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _state_doc(mat: np.ndarray) -> dict:
    return {
        "kind": "pure_bipartite",
        "dims": [int(mat.shape[0]), int(mat.shape[1])],
        "amplitudes": _pairs(mat.ravel()),
    }


def _state(mat: np.ndarray) -> quantum.PureBipartiteState:
    return quantum.pure_state(mat.shape, mat.ravel())


def _complex(raw: list) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _one_way(doc: dict) -> locc.OneWayProtocol:
    """Parse a one_way document with NumPy, independently of entlab.io."""
    if doc.get("kind") != "one_way":
        raise ValueError(f"expected a one_way document, got {doc.get('kind')!r}")
    return locc.OneWayProtocol(
        tuple(_complex(doc["alice_kraus"])), tuple(_complex(doc["bob_unitaries"]))
    )


# --------------------------------------------------------------------------- #
#                                   synth                                      #
# --------------------------------------------------------------------------- #

def target_spectrum(s: np.ndarray, shape: str) -> np.ndarray:
    """A target Schmidt spectrum that majorizes the descending spectrum s.

    generic: s**1.5 renormalized. rank_deficient: the same, cut to the top
    half. tie_heavy: the chord through every third partial sum of a
    sharpened s**p, so the target repeats each value three times; p grows
    until the chord still dominates s.
    """
    d = s.size
    if shape == "generic":
        t = s**1.5
    elif shape == "rank_deficient":
        t = np.zeros(d)
        t[: (d + 1) // 2] = s[: (d + 1) // 2] ** 1.5
    elif shape == "tie_heavy":
        knots = np.unique(np.r_[0, np.arange(1, d + 1, 3), d])
        power = 1.5
        for _ in range(64):
            sharp = (s / s[0]) ** power
            sharp /= sharp.sum()
            chord = np.interp(np.arange(d + 1), knots, np.r_[0.0, np.cumsum(sharp)][knots])
            if np.all(chord[1:] >= np.cumsum(s) - 1e-12):
                t = np.diff(chord)
                break
            power *= 1.5
        else:
            raise RuntimeError("no tie-heavy target majorizes the source")
    else:
        raise ValueError(f"unknown target shape {shape!r}")
    t = t / t.sum()
    if not np.all(np.cumsum(t) >= np.cumsum(s) - 1e-12):
        raise RuntimeError(f"{shape} target does not majorize its source")
    return t


def check_synth(stdout: str, psi_mat: np.ndarray, phi_mat: np.ndarray) -> bool:
    """verify_protocol passes, and re-serializing the parsed protocol gives
    back identical arrays. Protocol bytes are never compared to a reference."""
    protocol = _one_way(json.loads(stdout))
    if not locc.verify_protocol(protocol, _state(psi_mat), _state(phi_mat)).passed:
        return False
    again = _one_way(json.loads(eio.canonical_json(eio.one_way_to_json(protocol))))
    ours = protocol.alice_kraus + protocol.bob_unitaries
    theirs = again.alice_kraus + again.bob_unitaries
    return len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))


def build_synth(seed: int, root: str) -> Corpus:
    rng = np.random.default_rng([seed, 1])
    out = _Writer(root)
    ops = []
    for d, count in SYNTH_MIX:
        for i in range(count):
            shape = SYNTH_SHAPES[i % len(SYNTH_SHAPES)]
            psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psi /= np.linalg.norm(psi)
            s = np.linalg.svd(psi, compute_uv=False) ** 2
            t = target_spectrum(s / s.sum(), shape)
            phi = _haar(rng, d) @ np.diag(np.sqrt(t)) @ _haar(rng, d).T
            phi /= np.linalg.norm(phi)
            argv = ["locc", "synth", out.write(_state_doc(psi)), out.write(_state_doc(phi))]
            ops.append(
                Op(
                    f"synth/d{d}/{shape}",
                    lambda argv=argv: run_cli(argv),
                    lambda text, psi=psi, phi=phi: check_synth(text, psi, phi),
                )
            )
    return _corpus("synth", ops, seed, out)


# --------------------------------------------------------------------------- #
#                                  protocol                                    #
# --------------------------------------------------------------------------- #

def _instrument(rng: np.random.Generator, d: int, room: int) -> tuple[dict, list[str]]:
    """One instrument that adds as many leaves as ``room`` allows (up to d),
    as its JSON form and the labels of the leaves it creates."""
    u = _haar(rng, d)
    kind = int(rng.integers(0, 4)) if room >= 2 else -1
    if kind == 0 and room >= d:  # rank-one projective measurement
        kraus = [np.outer(u[:, j], u[:, j].conj()) for j in range(d)]
        labels = leaves = [str(j) for j in range(d)]
    elif kind in (0, 1):  # coarse two-outcome projective
        first = u[:, :2] @ u[:, :2].conj().T
        kraus, labels = [first, np.eye(d) - first], ["lo", "hi"]
        leaves = labels
    elif kind == 2:  # mixture of two unitaries
        q = float(rng.uniform(0.2, 0.8))
        kraus = [math.sqrt(q) * u, math.sqrt(1.0 - q) * _haar(rng, d)]
        labels = leaves = ["p", "q"]
    elif kind == 3:  # subnormalized: entlab completes it
        kraus, labels = [math.sqrt(0.6) * u], ["s"]
        leaves = ["s", "__rest__"]
    else:  # one unitary, no new leaf
        kraus, labels = [u], ["u"]
        leaves = labels
    return {"kraus": [_pairs(k) for k in kraus], "labels": labels}, leaves


def scripted_protocol(rng: np.random.Generator, d: int, rounds: int, cap: int,
                      first: str = "A") -> dict:
    """A multi-round protocol document whose leaf count grows geometrically
    to exactly ``cap`` (cap**(1/rounds) <= 2); parties alternate, starting
    with ``first``."""
    parties = ("A", "B") if first == "A" else ("B", "A")
    histories: list[tuple[str, ...]] = [()]
    doc_rounds = []
    for r in range(rounds):
        budget = min(cap, round(cap ** ((r + 1) / rounds)))
        branches = {}
        grown: list[tuple[str, ...]] = []
        for i, history in enumerate(histories):
            room = budget - len(grown) - (len(histories) - i - 1)
            instr, leaves = _instrument(rng, d, room)
            branches[",".join(history)] = instr
            grown.extend(history + (label,) for label in leaves)
        doc_rounds.append({"party": parties[r % 2], "branches": branches})
        histories = grown
    return {"kind": "locc_protocol", "rounds": doc_rounds}


def reference_leaves(doc: dict, psi_mat: np.ndarray) -> list[tuple[float, np.ndarray, str]]:
    """Brute-force breadth-first run of a protocol document in NumPy:
    (probability, normalized branch matrix, history) per leaf, in expansion
    order. As documented for `simulate`, a subnormalized instrument gets the
    completion sqrt(1 - sum k^dag k) labelled __rest__, and branches of
    probability at most 1e-12 are dropped."""
    leaves = [(1.0, psi_mat, ())]
    for rnd in doc["rounds"]:
        grown = []
        for p, mat, history in leaves:
            instr = rnd["branches"][",".join(history)]
            kraus = [_complex(k) for k in instr["kraus"]]
            labels = list(instr["labels"])
            vals, vecs = np.linalg.eigh(np.eye(mat.shape[0 if rnd["party"] == "A" else 1])
                                        - sum(k.conj().T @ k for k in kraus))
            if vals.max() > 1e-9:
                kraus.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
                labels.append("__rest__")
            for k, label in zip(kraus, labels):
                out = k @ mat if rnd["party"] == "A" else mat @ k.T
                q = float(np.vdot(out, out).real)
                if q > 1e-12:
                    grown.append((p * q, out / math.sqrt(q), history + (label,)))
        leaves = grown
    return [(p, mat, ",".join(history)) for p, mat, history in leaves]


def check_simulate(text: str, leaves) -> bool:
    """Probabilities sum to one and match the brute-force leaves by history."""
    rows = _rows(text)
    probs = [float(row["probability"]) for row in rows]
    expected = {history: p for p, _, history in leaves}
    return (
        abs(math.fsum(probs) - 1.0) <= SUM_TOL
        and [row["history"] for row in rows] == sorted(expected)
        and all(abs(expected[row["history"]] - p) < LEAF_P_TOL for row, p in zip(rows, probs))
    )


def check_reduce(text: str, leaves, psi_mat: np.ndarray) -> bool:
    """Branch probabilities (squared norms after Alice's Kraus operators) sum
    to one, Alice's operators are complete on the source support, and
    one_way_branches of the reduced protocol reproduces the brute-force
    leaves within the test suite's tolerances."""
    reduced = _one_way(json.loads(text))
    psi = _state(psi_mat)
    alice = [k @ psi_mat for k in reduced.alice_kraus]
    if abs(math.fsum(float(np.vdot(a, a).real) for a in alice) - 1.0) > SUM_TOL:
        return False
    total = sum(k.conj().T @ k for k in reduced.alice_kraus)
    support = locc.support_projector(quantum.marginal(psi, "A"))
    if float(np.abs(np.linalg.eigvalsh(total - support)).max()) >= COMPLETENESS_TOL:
        return False
    branches = locc.one_way_branches(reduced, psi)
    return len(branches) == len(leaves) and all(
        abs(branch.probability - p) < LEAF_P_TOL
        and abs(np.vdot(mat.ravel(), branch.state.amplitudes)) >= 1.0 - LEAF_OVERLAP_TOL
        for branch, (p, mat, _) in zip(branches, leaves)
    )


def _read_leaves(path: str, psi_mat: np.ndarray):
    """Reference leaves of the protocol document written at ``path``. The
    document is read again for each check rather than kept in memory, so
    the oracle adds little to the measuring process's peak memory."""
    with open(path, encoding="utf-8") as fh:
        return reference_leaves(json.load(fh), psi_mat)


def build_protocol(seed: int, root: str) -> Corpus:
    rng = np.random.default_rng([seed, 2])
    out = _Writer(root)
    ops = []
    for rounds, cap, count in PROTOCOL_MIX:
        for i in range(count):
            d = PROTOCOL_DIM
            doc = scripted_protocol(rng, d, rounds, cap, first="AB"[i % 2])
            psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psi /= np.linalg.norm(psi)
            path, psi_path = out.write(doc), out.write(_state_doc(psi))
            tag = f"d{d}/r{rounds}/cap{cap}"
            ops.append(Op(f"protocol/simulate/{tag}",
                          lambda argv=["locc", "simulate", path, psi_path]: run_cli(argv),
                          lambda text, path=path, psi=psi:
                              check_simulate(text, _read_leaves(path, psi))))
            ops.append(Op(f"protocol/reduce/{tag}",
                          lambda argv=["locc", "reduce", path, psi_path]: run_cli(argv),
                          lambda text, path=path, psi=psi:
                              check_reduce(text, _read_leaves(path, psi), psi)))
    return _corpus("protocol", ops, seed, out)


# --------------------------------------------------------------------------- #
#                                   sweeps                                     #
# --------------------------------------------------------------------------- #

def kappa_reference(lam: float, m: int, t: float) -> float:
    """Flow deviation of the m-fold lambda family at time t, in NumPy.

    The spectral state has atoms a_k = lam**k / (1 + lam)**m carrying
    C(m, k) eigenvalues each, so its distribution density is the step
    function D(x) = sum of C(m, k) over a_k > x; the flow moves the atoms to
    a_k e^t and scales D by e^-t. The value is the exact integral of
    |D - D_t| over the merged breakpoints.
    """
    if t == 0.0:
        return 0.0
    k = np.arange(m + 1)
    atoms = np.exp(k * math.log(lam) - m * math.log1p(lam))[::-1]  # ascending
    counts = np.array([float(math.comb(m, int(j))) for j in k])[::-1]
    above = np.append(np.cumsum(counts[::-1])[::-1], 0.0)  # sum over atoms[i:]
    moved = atoms * math.exp(t)
    grid = np.unique(np.concatenate([atoms, moved]))
    left = np.concatenate([[0.0], grid[:-1]])
    here = above[np.searchsorted(atoms, left, side="right")]
    there = above[np.searchsorted(moved, left, side="right")] * math.exp(-t)
    return math.fsum((grid - left) * np.abs(here - there))


def check_kappa(text: str, lam: float, m: int, steps: int) -> bool:
    """Profile on a grid from t = 0: zero at t = 0, every value in [0, 2]
    and equal to the NumPy reference."""
    rows = _rows(text)
    ts = [float(row["t"]) for row in rows]
    devs = [float(row["deviation"]) for row in rows]
    return (
        len(rows) == steps
        and ts[0] == 0.0
        and devs[0] == 0.0
        and all(0.0 <= v <= 2.0 for v in devs)
        and all(abs(v - kappa_reference(lam, m, t)) <= KAPPA_TOL for t, v in zip(ts, devs))
    )


def binomial_step_l1(lam: float, m: int) -> float:
    """sum_k |B(k) - B(k-1)| for the Binomial(m, lam / (1 + lam)) masses."""
    p = lam / (1.0 + lam)
    log_p, log_q = math.log(p), math.log1p(-p)
    masses = [0.0] + [
        math.exp(
            math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * log_p + (m - k) * log_q
        )
        for k in range(m + 1)
    ] + [0.0]
    return math.fsum(abs(b - a) for a, b in zip(masses, masses[1:]))


def check_catalysis(text: str, lam: float, m_list: list[int]) -> bool:
    rows = _rows(text)
    if [int(row["m"]) for row in rows] != m_list:
        return False
    return all(
        abs(float(row["t"]) - math.log(1.0 / lam)) <= 1e-15
        and abs(float(row["deviation"]) - binomial_step_l1(lam, int(row["m"]))) <= CATALYSIS_TOL
        for row in rows
    )


def check_embezzle(text: str, d: int, n_list: list[int]) -> bool:
    """trace_error agrees with orbit_trace_defect and the bound holds."""
    rows = _rows(text)
    if [int(row["n"]) for row in rows] != n_list:
        return False
    start, target = quantum.product_basis_state(d, d), quantum.bell_state(d)
    return all(
        row["meets_bound"] == "true"
        and abs(
            float(row["trace_error"])
            - embezzle.orbit_trace_defect(int(row["n"]), start, target)
        ) <= EMBEZZLE_TOL
        for row in rows
    )


def flow_reference(values: np.ndarray) -> float:
    """Orbit distance between s (x) flat(1) and s (x) flat(2), in NumPy:
    at t = log 2 the flow deviation of s's spectral state equals it."""
    a = np.sort(values)[::-1]
    padded = np.zeros(2 * a.size)
    padded[: a.size] = a
    return math.fsum(np.abs(padded - np.repeat(a / 2.0, 2)))


def flow_op(s: spectra.Spectrum) -> Outcome:
    return Outcome(0, spectra.flow_deviation(spectra.spectral_state(s), math.log(2.0)))


def build_sweeps(seed: int, root: str) -> Corpus:
    rng = np.random.default_rng([seed, 3])
    out = _Writer(root)
    ops = []
    for lam, m, count in KAPPA_MIX + (KAPPA_UNDERFLOW + (1,),):
        for _ in range(count):
            t_max = float(rng.uniform(0.5, 1.5)) * math.log(1.0 / lam)
            argv = [
                "kappa", "profile", "--family", "lambda", "--lambda", repr(lam),
                "--m", str(m), "--t-min", "0", "--t-max", repr(t_max),
                "--steps", str(KAPPA_STEPS),
            ]
            out.add(argv)
            ops.append(
                Op(
                    f"sweeps/kappa/{lam}/{m}",
                    lambda argv=argv: run_cli(argv),
                    lambda text, lam=lam, m=m: check_kappa(text, lam, m, KAPPA_STEPS),
                )
            )
    for i in range(CATALYSIS_OPS):
        lam = CATALYSIS_LAMBDAS[i % len(CATALYSIS_LAMBDAS)]
        m_list = sorted({int(m) for m in rng.integers(8, 321, size=3)})
        argv = ["catalysis", "decay", "--lambda", repr(lam), "--m-list", ",".join(map(str, m_list))]
        out.add(argv)
        ops.append(
            Op(
                f"sweeps/catalysis/{lam}",
                lambda argv=argv: run_cli(argv),
                lambda text, lam=lam, m_list=m_list: check_catalysis(text, lam, m_list),
            )
        )
    for d, n_max, count in EMBEZZLE_MIX:
        for _ in range(count):
            n_list = [int(rng.integers(2**8, 2**12 + 1)), int(rng.integers(2**14, 2**16 + 1)), n_max]
            argv = ["embezzle", "sweep", "--d", str(d), "--n-list", ",".join(map(str, n_list))]
            out.add(argv)
            ops.append(
                Op(
                    f"sweeps/embezzle/d{d}",
                    lambda argv=argv: run_cli(argv),
                    lambda text, d=d, n_list=n_list: check_embezzle(text, d, n_list),
                )
            )
    for rank, count in FLOW_MIX:
        for _ in range(count):
            values = rng.dirichlet(np.ones(rank))
            out.add(values.tobytes())
            s = spectra.spectrum(values)
            ops.append(
                Op(
                    f"sweeps/flow/{rank}",
                    lambda s=s: flow_op(s),
                    lambda value, values=values: abs(value - flow_reference(values)) <= FLOW_TOL,
                )
            )
    return _corpus("sweeps", ops, seed, out)


# --------------------------------------------------------------------------- #

def _corpus(workload: str, ops: list[Op], seed: int, out: _Writer) -> Corpus:
    out.add(workload, seed, [op.label for op in ops])
    order = [int(i) for i in np.random.default_rng([seed, 0]).permutation(len(ops))]
    return Corpus(workload, ops, order, out.sha.hexdigest())


BUILD_CORPUS = {"synth": build_synth, "protocol": build_protocol, "sweeps": build_sweeps}

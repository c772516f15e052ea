"""LOCC/SLOCC decision procedures, one-way protocol synthesis, multi-round
protocol simulation, one-way reduction, and one-shot entanglement.

Feasibility of pure-state LOCC conversion is classical majorization of the
Schmidt spectra (target majorizes source).  Synthesis works in the two
states' Schmidt frames, psi = E diag(s) F^T and phi = G diag(t) H^T
(Nielsen; Jensen and Schack): the source weights s^2 are a mixture of at
most d permutations p_x of the target weights t^2, Alice measures with
``k_x = G[:, p_x] diag(sqrt(w_x) t[p_x] / s) E^dagger`` and Bob applies
the gathered partial isometry ``v_x = H[:, p_x] F^dagger``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InfeasibleError,
    InvalidInputError,
    NotReducibleError,
    NumericalFailureError,
)
from .quantum import (
    DensityMatrix,
    LocalIsometryPair,
    PureBipartiteState,
    _in_support,
    _padded_eigendata,
    marginal,
    schmidt,
)
from .spectra import majorizes, spectrum, tensor_spectrum
from .tolerances import (BRANCH_TOL, COMPLETENESS_TOL, FLOOR_SLACK, MASS_CUT, POLAR_CUT,
                         SUPPORT_FLOOR)

MAX_ROUNDS = 16
REST_LABEL = "__rest__"
# Histories (tuples of outcome labels) are joined with this into one string:
# a JSON object key, a CSV cell.
HISTORY_SEP = ","


# --------------------------------------------------------------------------- #
#                                    types                                     #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class Instrument:
    """One Kraus operator per outcome, stacked as an (outcomes, d, d) finite
    complex array, and distinct labels; may be subnormalized (sum k^dag k <= 1)."""

    kraus: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.kraus) == 0:
            raise InvalidInputError("instrument needs at least one outcome")
        try:
            ks = np.asarray(self.kraus, dtype=complex)
        except (TypeError, ValueError):
            ks = None
        if ks is None or ks.ndim != 3 or ks.shape[1] != ks.shape[2]:
            raise InvalidInputError("instrument Kraus operators must be equal square matrices")
        if not np.isfinite(ks).all():
            raise InvalidInputError("instrument Kraus operators must be finite, got NaN/Inf")
        labels = tuple(map(str, self.labels))
        if len(labels) != len(ks) or len(set(labels)) != len(ks):
            raise InvalidInputError("labels must be distinct and match the outcome count")
        for label in labels:
            if not label or HISTORY_SEP in label:
                raise InvalidInputError(f"label {label!r} must be non-empty and free of "
                                        f"{HISTORY_SEP!r}, which joins histories")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "labels", labels)


def instrument(kraus: Sequence, labels: Optional[Sequence[str]] = None) -> Instrument:
    """Validate an instrument: an :class:`Instrument` whose sum k^dag k is
    at most 1 within ``COMPLETENESS_TOL``.  ``kraus`` may be a sequence of
    matrices or a stack; labels default to the outcome indices."""
    instr = Instrument(kraus, [str(i) for i in range(len(kraus))] if labels is None else labels)
    _completions(instr.kraus, np.array([len(instr.kraus)]))
    return instr


def _completions(kraus: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The completeness rule for the instruments stacked in ``kraus``,
    ``counts`` outcomes each: sum k^dag k may exceed 1 by at most
    ``COMPLETENESS_TOL``, and one short of 1 by more gains the outcome
    sqrt(1 - sum k^dag k) after its own, with one stacked ``eigh`` for all.
    Returns which instruments are short and the completed stack."""
    ends = np.cumsum(counts)
    # reduceat adds each instrument's terms in outcome order, so the totals
    # (and the complements) carry the bits of a running sum over operators
    totals = np.add.reduceat(kraus.conj().transpose(0, 2, 1) @ kraus, ends - counts, axis=0)
    gaps = np.eye(kraus.shape[1]) - totals
    # a gap's largest absolute row sum bounds its eigenvalues, so only the
    # instruments that may be incomplete or super-normalized need the eigh
    loose = np.flatnonzero(np.abs(gaps).sum(axis=2).max(axis=1) > COMPLETENESS_TOL)
    vals, vecs = np.linalg.eigh(gaps[loose])
    over = np.flatnonzero(vals[:, 0] < -COMPLETENESS_TOL)
    if over.size:
        top = 1.0 - float(vals[over[0], 0])
        raise InvalidInputError(f"instrument is super-normalized: max eigenvalue {top!r} "
                                f"exceeds 1 + {COMPLETENESS_TOL:.0e}")
    incomplete = vals[:, -1] > COMPLETENESS_TOL
    vals, vecs = vals[incomplete], vecs[incomplete]
    short = np.zeros(len(counts), dtype=bool)
    short[loose[incomplete]] = True
    comps = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return short, np.insert(kraus, ends[short], comps, axis=0)


@dataclass(frozen=True, eq=False)
class LoccRound:
    """One communication round: the acting party and, per message history (a
    tuple of label strings), the instrument it applies.  The round checks its
    instruments once, when built (one or more, one dimension, none over
    complete), and keeps them completed in one stack, with every outcome's
    label and each history's rows."""

    party: str
    branches: Mapping[tuple[str, ...], Instrument]
    _kraus: np.ndarray = field(init=False, repr=False)
    _labels: tuple[str, ...] = field(init=False, repr=False)
    _rows: Mapping[tuple[str, ...], range] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.party not in ("A", "B"):
            raise InvalidInputError(f"party must be 'A' or 'B', got {self.party!r}")
        branches = dict(self.branches)
        for hist in branches:
            if not (isinstance(hist, tuple) and all(isinstance(label, str) for label in hist)):
                raise InvalidInputError(f"history key {hist!r} must be a tuple of label strings")
        instrs = list(branches.values())
        if not all(isinstance(instr, Instrument) for instr in instrs):
            raise InvalidInputError("branch values must be Instruments")
        dims = sorted({instr.kraus.shape[1] for instr in instrs})
        if len(dims) != 1:
            raise InvalidInputError(f"a round needs instruments on one dimension, got {dims}")
        counts = np.array([len(instr.labels) for instr in instrs])
        short, kraus = _completions(np.concatenate([instr.kraus for instr in instrs]), counts)
        labels = []
        for instr, rest in zip(instrs, short.tolist()):
            if rest and REST_LABEL in instr.labels:
                raise InvalidInputError(f"label {REST_LABEL!r} is reserved for the completion outcome")
            labels.extend(instr.labels + (REST_LABEL,) if rest else instr.labels)
        stops = np.cumsum(counts + short).tolist()
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "_kraus", kraus)
        object.__setattr__(self, "_labels", tuple(labels))
        object.__setattr__(self, "_rows", dict(zip(branches, map(range, [0] + stops[:-1], stops))))


def locc_round(party: str, branches: Mapping) -> LoccRound:
    return LoccRound(party, branches)


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Rounds run in order, at most ``MAX_ROUNDS`` of them."""

    rounds: tuple[LoccRound, ...]

    def __post_init__(self) -> None:
        if len(self.rounds) > MAX_ROUNDS:
            raise InvalidInputError(f"protocol depth {len(self.rounds)} exceeds the cap {MAX_ROUNDS}")


def locc_protocol(rounds: Sequence[LoccRound]) -> LoccProtocol:
    return LoccProtocol(tuple(rounds))


@dataclass(frozen=True, eq=False)
class OneWayProtocol:
    """Alice measures (one Kraus per outcome), Bob applies the matching
    partial isometry.  Probabilities are implied by the Kraus norms.  Each
    side is one or more matrices of one shape, equally many on both sides."""

    alice_kraus: tuple[np.ndarray, ...]
    bob_unitaries: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not 0 < len(self.alice_kraus) == len(self.bob_unitaries):
            raise InvalidInputError("alice_kraus and bob_unitaries must pair up, one or more: got "
                                    f"{len(self.alice_kraus)} and {len(self.bob_unitaries)}")
        for name, ops in (("alice_kraus", self.alice_kraus), ("bob_unitaries", self.bob_unitaries)):
            shapes = sorted(set(map(np.shape, ops)))
            if len(shapes) > 1 or len(shapes[0]) != 2:
                raise InvalidInputError(f"{name} must be matrices of one shape, got {shapes}")


@dataclass(frozen=True, eq=False)
class MixingDecomposition:
    """weights (p_x) and partial isometries (u_x) with
    sum_x p_x u_x rho_phi u_x^dagger = rho_psi."""

    weights: tuple[float, ...]
    unitaries: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Branch:
    probability: float
    state: PureBipartiteState
    history: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    completeness_residual: float
    overlaps: tuple[float, ...]
    probabilities: tuple[float, ...]
    probability_sum: float
    passed: bool


@dataclass(frozen=True, eq=False)
class SloccResult:
    feasible: bool
    filter: Optional[LocalIsometryPair]
    success_prob: float


@dataclass(frozen=True)
class OneShotReport:
    n_max: int
    ebits: float


# --------------------------------------------------------------------------- #
#                                  decisions                                   #
# --------------------------------------------------------------------------- #

def locc_feasible(psi: PureBipartiteState, phi: PureBipartiteState) -> bool:
    """Deterministic LOCC conversion psi -> phi is possible iff the target's
    Schmidt spectrum classically majorizes the source's."""
    return majorizes(schmidt(phi).spectrum, schmidt(psi).spectrum)


def locc_embezzle_feasible(
    psi: PureBipartiteState, phi1: PureBipartiteState, phi2: PureBipartiteState
) -> bool:
    """Exact feasibility of psi (x) phi1 -> psi (x) phi2 by LOCC.

    Decided through majorization of the tensor spectra.  Any target whose
    top Schmidt weight exceeds the start's is refused automatically (the
    first partial sum already fails), which is the finite no-go for exact
    embezzlement.
    """
    sp = schmidt(psi).spectrum
    t1 = tensor_spectrum(sp, schmidt(phi1).spectrum)
    t2 = tensor_spectrum(sp, schmidt(phi2).spectrum)
    return majorizes(t2, t1)


# --------------------------------------------------------------------------- #
#                  permutohedron mixing (Carathéodory, <= d terms)             #
# --------------------------------------------------------------------------- #

def _edge_sums(x: np.ndarray) -> np.ndarray:
    """z = [0, prefix sums of x, suffix sums of x, 0] along the last axis
    (length n): x[i..j] sums to z[j + 1] - z[i] from the head and to
    z[n + 1 + i] - z[n + 2 + j] from the tail."""
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * n + 2,))
    np.cumsum(x, axis=-1, out=z[..., 1 : n + 1])
    np.cumsum(x[..., ::-1], axis=-1, out=z[..., 2 * n : n : -1])
    return z


def _permutohedron_terms(a: np.ndarray, b: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Weights w_x > 0 and permutations p_x with a = sum_x w_x b[p_x], at
    most m = a.size terms (a majorized by b, both descending, equal length).

    The residual r, weight t still to place, lies in t * permutohedron(b).
    Its tight sets (sum_S r = t * sum of the |S| largest b) form a chain,
    kept as blocks of positions 0..m-1 that each own that run of b.  Each
    step takes the vertex v giving every block its b sorted like r and the
    largest lam with r - lam v in (t - lam) * permutohedron(b), by a
    Dinkelbach search over block-local top-k sums.  The set that stops the
    step splits its block, so after at most m - 1 splits the next step
    places all of t.  A top-k sum is taken over the head of its block, or
    as minus the tail when that holds less of b, so rounding stays relative
    to the smaller side; r is never rescaled by 1 / t.  Partial sums beyond
    t times b's by more than rounding (majorizes() allows ``INPUT_TOL``)
    are clipped to them.
    """
    m = a.size
    t = float(a.sum() / b.sum())
    slack_tol = 8 * m * np.finfo(float).eps
    positions = np.arange(m)
    blk = np.zeros(m, dtype=int)
    end = positions == m - 1
    zb = _edge_sums(b)
    r = np.array(a, dtype=float)
    terms: list[tuple[float, np.ndarray]] = []
    for _ in range(m):
        order = np.lexsort((-r, blk))
        start = np.maximum.accumulate(np.where(np.r_[True, end[:-1]], positions, 0))
        stop = np.minimum.accumulate(np.where(end, positions, m)[::-1])[::-1]
        sides = np.array([[positions + 1, start], [m + 2 + stop, m + 2 + positions]])
        b_head, b_tail = zb[sides[:, 0]] - zb[sides[:, 1]]
        plus, minus = np.where(b_head <= -b_tail, sides[0], sides[1])
        b_side = zb[plus] - zb[minus]
        z = _edge_sums(r[order])
        r_side = z[plus] - z[minus]
        slack = t * b_side - r_side
        tol = slack_tol * np.abs(r_side)
        excess = np.where((slack < -tol) & ~end, -slack, 0.0)
        r[order] -= np.diff(excess, prepend=0.0)
        tight = (slack <= tol) & ~end
        if tight.any():
            end |= tight
            blk[order] = np.cumsum(end) - end
            continue
        perm = np.argsort(order)
        v = b[perm]
        lam = t
        for _ in range(64):
            o = np.lexsort((-(r - lam * v), blk))
            z = _edge_sums(np.stack((r[o], v[o])))
            r_side, v_side = z[:, plus] - z[:, minus]
            h = (t - lam) * b_side - (r_side - lam * v_side)
            h[end] = np.inf
            p = int(np.argmin(h))
            if h[p] >= -slack_tol * (abs(r_side[p]) + lam * abs(v_side[p])):
                break
            g = b_side[p] - v_side[p]
            nxt = max((t * b_side[p] - r_side[p]) / g, 0.0) if g > 0 else 0.0
            if nxt >= lam:
                break
            lam = nxt
        else:
            raise NumericalFailureError(f"mixing step search did not converge in 64 rounds (d = {m})")
        if lam > 0.0:
            terms.append((lam, perm))
            r -= lam * v
        if lam == t:
            break
        t -= lam
        end[p] = True
        blk[o] = np.cumsum(end) - end
    leftover = float(np.abs(r).max())
    if leftover > MASS_CUT:
        raise NumericalFailureError(f"mixing residual {leftover:.3e} exceeds {MASS_CUT:.0e} (d = {m})")
    return terms


def _mixing_terms(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Source weights a cut to their support, and the permutohedron terms
    (w_x, p_x) with the cut a = sum_x w_x b[p_x].  a and b are descending and
    of equal length; a majorized by b is decided on them first, raising
    :class:`InfeasibleError`."""
    if not majorizes(spectrum(b), spectrum(a)):
        raise InfeasibleError("source spectrum is not majorized by the mixed state's")
    # no term may move weight outside the source's support
    a = np.where(_in_support(a), a, 0.0)
    return a, _permutohedron_terms(a, b)


def mixing_decomposition(rho_psi: DensityMatrix, rho_phi: DensityMatrix) -> MixingDecomposition:
    """Express rho_psi as a probabilistic unitary (partial-isometry) mixture
    of rho_phi.  Requires spectrum(rho_psi) to be majorized by
    spectrum(rho_phi), decided on the eigenvalues the mixing uses."""
    m = max(rho_psi.dim, rho_phi.dim)
    a, va = _padded_eigendata(rho_psi, m)
    b, vb = _padded_eigendata(rho_phi, m)
    _, terms = _mixing_terms(a, b)
    return MixingDecomposition(
        tuple(w for w, _ in terms),
        tuple(va @ vb[:, perm].conj().T for _, perm in terms),
    )


# --------------------------------------------------------------------------- #
#                             one-way synthesis                                #
# --------------------------------------------------------------------------- #

def support_projector(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = _padded_eigendata(rho, rho.dim)
    basis = vecs[:, _in_support(vals)]
    return basis @ basis.conj().T


def _completeness_residual(kraus: Sequence[np.ndarray], support: np.ndarray) -> float:
    """Largest |eigenvalue| of sum_x k_x^dagger k_x minus the support projector."""
    return float(np.abs(np.linalg.eigvalsh(sum(k.conj().T @ k for k in kraus) - support)).max())


def nielsen_synthesize(psi: PureBipartiteState, phi: PureBipartiteState) -> OneWayProtocol:
    """One-way protocol for a feasible pure-state conversion.

    In the Schmidt frames psi = E diag(s) F^T and phi = G diag(t) H^T,
    zero-padded to one length, the support weights s^2 are
    sum_x w_x t^2[p_x] over at most that many permutations p_x.  Branch x
    is ``k_x = G[:, p_x] diag(sqrt(w_x) t[p_x] / s) E^dagger`` for Alice and
    the partial isometry ``v_x = H[:, p_x] F^dagger`` for Bob, on the support
    columns, so (k_x (x) v_x) psi = sqrt(w_x) phi.  Alice's s is taken as
    the square root of the weights the terms rebuild, so her operators are
    complete to rounding.  A support weight below ``SUPPORT_FLOOR``, a
    branch probability off w_x by more than ``BRANCH_TOL``, or a rebuilt
    weight or completeness residual off by more than ``COMPLETENESS_TOL``
    (relative to s^2, or 64 m eps relative to the largest) is refused with
    :class:`NumericalFailureError`.
    """
    src, tgt = schmidt(psi), schmidt(phi)
    m = max(src.coefficients.size, tgt.coefficients.size)
    pad = (0, m - tgt.coefficients.size)
    t2 = np.pad(tgt.coefficients**2, pad)
    a, terms = _mixing_terms(np.pad(src.coefficients**2, (0, m - src.coefficients.size)), t2)
    keep = np.flatnonzero(a)
    s2 = a[keep]
    if float(s2.min()) < SUPPORT_FLOOR:
        raise NumericalFailureError(f"support eigenvalue {float(s2.min()):.3e} below "
                                    f"{SUPPORT_FLOOR:g}: ill-conditioned (d = {psi.dims[0]})")
    weights = np.array([w for w, _ in terms])
    perms = np.array([perm for _, perm in terms])[:, keep]
    # Alice divides by the weights the terms rebuild, a_hat = sum_x w_x t^2[p_x],
    # not by s^2, so her operators are complete to rounding however small s^2
    # is; a zero a_hat (a term leaving the support) keeps s^2 for the leak check
    a_hat = weights @ t2[perms]
    e_dag = src.basis_A[:, keep].conj().T
    # (G diag(t))[:, p_x] diag(a_hat^-1/2) E^dagger, from the gathered rows of (G diag(t))^T
    alice = (np.pad(tgt.basis_A * tgt.coefficients, ((0, 0), pad)).T[perms].transpose(0, 2, 1)
             @ (e_dag / np.sqrt(np.where(a_hat > 0.0, a_hat, s2))[:, None]))
    alice *= np.sqrt(weights)[:, None, None]
    # squared branch norms from the real and imaginary parts, with no conjugated copy
    parts = (alice @ psi.matrix).reshape(len(alice), -1).view(float)
    q = np.einsum("xi,xi->x", parts, parts)
    leaked = np.flatnonzero(np.abs(q - weights) > BRANCH_TOL)
    if leaked.size:
        x = leaked[0]
        raise NumericalFailureError(f"branch probability leaked: expected {float(weights[x])!r}, "
                                    f"got {float(q[x])!r}, off by more than {BRANCH_TOL:.0e} "
                                    f"(d = {psi.dims[0]})")
    # a_hat off s^2 by more than the mixing's rounding is a majorization miss,
    # refused as the completeness residual the division by s^2 would have left
    miss = np.abs(a_hat - s2)
    over = miss > np.maximum(COMPLETENESS_TOL * s2, 64 * m * np.finfo(float).eps * s2.max())
    residual = (float((miss[over] / s2[over]).max()) if over.any()
                else _completeness_residual(alice, e_dag.conj().T @ e_dag))
    if residual > COMPLETENESS_TOL:
        raise NumericalFailureError(
            f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e} (d = {psi.dims[0]})"
        )
    bob = (np.pad(tgt.basis_B, ((0, 0), pad)).T[perms].transpose(0, 2, 1)
           @ src.basis_B[:, keep].conj().T)
    return OneWayProtocol(tuple(alice), tuple(bob))


def verify_protocol(
    protocol: OneWayProtocol, psi: PureBipartiteState, phi: PureBipartiteState
) -> VerificationReport:
    """Check completeness on the source support, per-branch target overlap,
    and total probability; the report carries failures instead of raising.
    Operators that do not map psi's dims to phi's raise InvalidInputError."""
    (a_out, a_in), (b_out, b_in) = protocol.alice_kraus[0].shape, protocol.bob_unitaries[0].shape
    if ((a_in, b_in), (a_out, b_out)) != (psi.dims, phi.dims):
        raise InvalidInputError(f"protocol maps {(a_in, b_in)} to {(a_out, b_out)}, "
                                f"not {psi.dims} to {phi.dims}")
    overlaps = []
    probs = []
    for k, v in zip(protocol.alice_kraus, protocol.bob_unitaries):
        mid = k @ psi.matrix
        probs.append(float(np.einsum("xy,xy->", mid.conj(), mid).real))
        out = (mid @ v.T).ravel()
        norm = float(np.linalg.norm(out))
        overlaps.append(
            0.0 if norm == 0.0 else float(abs(np.vdot(phi.amplitudes, out)) / norm)
        )
    residual = _completeness_residual(protocol.alice_kraus, support_projector(marginal(psi, "A")))
    prob_sum = float(math.fsum(probs))
    passed = (
        residual <= COMPLETENESS_TOL
        and all(o >= 1.0 - BRANCH_TOL for o in overlaps)
        and abs(prob_sum - 1.0) <= COMPLETENESS_TOL
    )
    return VerificationReport(residual, tuple(overlaps), tuple(probs), prob_sum, passed)


# --------------------------------------------------------------------------- #
#                                 simulation                                   #
# --------------------------------------------------------------------------- #

def _round_outcomes(
    rnd: LoccRound, dims: tuple[int, int], hists: Sequence[tuple[str, ...]], vecs: np.ndarray
) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Run one round on every branch (hists[i], vecs[i]) at once.

    Returns, per outcome with probability above ``MASS_CUT`` given its
    branch: the branch index, the label, the Kraus operator, that
    probability q, and the normalized post-measurement vector (the last
    three stacked).  Each branch takes its history's rows of the round's
    completed stack.  All outcomes go through one stacked product; each q
    is the ``vdot`` of its own vector.
    """
    runs = []
    for hist in hists:
        run = rnd._rows.get(hist)
        if run is None:
            raise InvalidInputError(f"no instrument for reachable history {hist!r}")
        runs.append(run)
    alice = rnd.party == "A"
    dim = dims[0] if alice else dims[1]
    if rnd._kraus.shape[1] != dim:
        raise InvalidInputError(f"instrument acts on dimension {rnd._kraus.shape[1]}, state has {dim}")
    branch = np.repeat(np.arange(len(hists)), list(map(len, runs)))
    rows = np.array([i for run in runs for i in run])
    kraus = rnd._kraus[rows]
    mats = vecs.reshape((-1,) + dims)[branch]
    new = (kraus @ mats if alice else mats @ kraus.transpose(0, 2, 1)).reshape(len(branch), -1)
    q = np.array([np.vdot(v, v).real for v in new])
    kept = np.flatnonzero(q > MASS_CUT)
    q = q[kept]
    return (branch[kept], [rnd._labels[i] for i in rows[kept].tolist()], kraus[kept], q,
            new[kept] / np.sqrt(q)[:, None])


def simulate(protocol: LoccProtocol, psi: PureBipartiteState) -> tuple[Branch, ...]:
    """Exact breadth-first expansion of the protocol on a pure state.

    Subnormalized instruments take the completion their round built;
    branches of probability at most ``MASS_CUT`` are pruned.  Leaves come
    back in deterministic label order.
    """
    probs, hists, vecs = np.ones(1), [()], psi.amplitudes[None]
    for rnd in protocol.rounds:
        branch, labels, _, q, vecs = _round_outcomes(rnd, psi.dims, hists, vecs)
        probs = probs[branch] * q
        hists = [hists[i] + (label,) for i, label in zip(branch.tolist(), labels)]
    # every row is a unit vector already (divided by the root of its vdot)
    vecs.flags.writeable = False
    return tuple(Branch(p, PureBipartiteState(psi.dims, vec), hist)
                 for p, vec, hist in zip(probs.tolist(), vecs, hists))


# --------------------------------------------------------------------------- #
#                              one-way reduction                               #
# --------------------------------------------------------------------------- #

def _mirror_bob(vecs: np.ndarray, dims: tuple[int, int], d_ops: np.ndarray):
    """Alice operators m and Bob partial isometries w with
    (m (x) w) sigma = (1 (x) d) sigma, one pair per pure state sigma (a row
    of ``vecs``, or a single vector) and Bob operator d (``d_ops``, stacked
    alike).

    Through the Schmidt frame sigma = E diag(s) F^T: with
    X = diag(s) (d F)^T = H Omega (polar), take
    m = E H diag(s)^+ E^dagger and w = Omega^T F^dagger.  The SVDs and
    products run stacked over the states of one support rank r, and
    Omega over those of one polar rank, so each keeps the shapes of the
    one-state form.
    """
    mats = np.reshape(vecs, (-1,) + tuple(dims))
    d_ops = np.reshape(d_ops, (-1, dims[1], dims[1]))
    u, s, vh = np.linalg.svd(mats, full_matrices=False)
    ranks = _in_support(s).sum(axis=1)
    m_ops = np.empty((len(mats), dims[0], dims[0]), dtype=complex)
    w_ops = np.empty((len(mats), dims[1], dims[1]), dtype=complex)
    for r in np.unique(ranks).tolist():
        group = np.flatnonzero(ranks == r)
        e_b = u[group][:, :, :r]
        f_b = vh[group].transpose(0, 2, 1)[:, :, :r]
        sr = s[group][:, :r]
        x = sr[:, :, None] * (d_ops[group] @ f_b).transpose(0, 2, 1)
        xu, xs, xvh = np.linalg.svd(x, full_matrices=False)
        h = (xu * xs[:, None, :]) @ xu.conj().transpose(0, 2, 1)
        inv = np.zeros((len(group), r, r))
        inv[:, np.arange(r), np.arange(r)] = 1.0 / sr
        m_ops[group] = e_b @ h @ inv @ e_b.conj().transpose(0, 2, 1)
        keeps = (xs > xs.max(axis=1, keepdims=True) * POLAR_CUT).sum(axis=1)
        for keep in np.unique(keeps).tolist():
            sub = np.flatnonzero(keeps == keep)
            omega = xu[sub][:, :, :keep] @ xvh[sub][:, :keep]
            # sliced from vh again, not gathered from f_b, so every product
            # sees its operands laid out as in the one-state form
            f_sub = vh[group[sub]].transpose(0, 2, 1)[:, :, :r]
            w_ops[group[sub]] = omega.transpose(0, 2, 1) @ f_sub.conj().transpose(0, 2, 1)
    lhs = m_ops @ mats @ w_ops.transpose(0, 2, 1)
    rhs = mats @ d_ops.transpose(0, 2, 1)
    residual = np.abs(lhs - rhs).reshape(len(mats), -1).max(axis=1)
    bad = np.flatnonzero(residual > BRANCH_TOL)
    if bad.size:
        raise NotReducibleError(f"branch operator could not be mirrored within tolerance: "
                                f"residual {residual[bad[0]]:.3e} exceeds {BRANCH_TOL:.0e} "
                                f"(dims = {tuple(dims)})")
    return m_ops, w_ops


def one_way_reduce(protocol: LoccProtocol, psi: PureBipartiteState) -> OneWayProtocol:
    """Collapse a multi-round protocol on psi into Alice-then-Bob form with
    identical branch probabilities and states.

    Alice rounds compose directly; each Bob operator is mirrored through the
    current branch state into an Alice operator and a Bob partial isometry.
    Every round runs stacked over its branches.
    """
    alice = support_projector(marginal(psi, "A"))[None]
    bob = support_projector(marginal(psi, "B"))[None]
    hists, vecs = [()], psi.amplitudes[None]
    for rnd in protocol.rounds:
        branch, labels, kraus, _, new = _round_outcomes(rnd, psi.dims, hists, vecs)
        if rnd.party == "A":
            alice, bob = kraus @ alice[branch], bob[branch]
        else:
            m_ops, w_ops = _mirror_bob(vecs[branch], psi.dims, kraus)
            alice, bob = m_ops @ alice[branch], w_ops @ bob[branch]
        hists = [hists[i] + (label,) for i, label in zip(branch.tolist(), labels)]
        vecs = new
    return OneWayProtocol(tuple(alice), tuple(bob))


def one_way_branches(
    protocol: OneWayProtocol, psi: PureBipartiteState
) -> tuple[Branch, ...]:
    """Run an Alice-then-Bob protocol on a pure state.

    Outcome ``x`` applies ``alice_kraus[x] (x) bob_unitaries[x]``; the branch
    probability is the squared norm of the resulting vector, after both
    Alice's Kraus operator and Bob's operator.  It equals the norm after
    Alice's Kraus alone only when Bob's operator is an isometry on the
    branch support.  Branches at or below ``MASS_CUT`` are pruned; labels are
    the outcome indices.  Operators not acting on psi's dims are refused.
    """
    (a_out, a_in), (b_out, b_in) = protocol.alice_kraus[0].shape, protocol.bob_unitaries[0].shape
    if (a_in, b_in) != psi.dims:
        raise InvalidInputError(f"protocol acts on {(a_in, b_in)}, the state has {psi.dims}")
    mat = psi.matrix
    out = np.empty((len(protocol.alice_kraus), a_out, b_out), dtype=complex)
    probs, hists = [], []
    for x, (k_op, w_op) in enumerate(zip(protocol.alice_kraus, protocol.bob_unitaries)):
        # a pruned branch's row is taken by the next branch
        new = np.matmul(k_op @ mat, w_op.T, out=out[len(probs)])
        prob = float(np.vdot(new, new).real)
        if prob > MASS_CUT:
            probs.append(prob)
            hists.append((str(x),))
    vecs = out[: len(probs)].reshape(len(probs), a_out * b_out)
    vecs /= np.sqrt(probs)[:, None]
    vecs.flags.writeable = False
    return tuple(Branch(p, PureBipartiteState((a_out, b_out), vec), hist)
                 for p, vec, hist in zip(probs, vecs, hists))


# --------------------------------------------------------------------------- #
#                                   SLOCC                                      #
# --------------------------------------------------------------------------- #

def slocc(psi: PureBipartiteState, phi: PureBipartiteState) -> SloccResult:
    """Single-filter SLOCC conversion: feasible iff the target Schmidt rank
    does not exceed the source's; the canonical filter rescales Schmidt
    weights with success probability 1/max_i(phi_i/psi_i)."""
    dp, df = schmidt(psi), schmidt(phi)
    r = df.rank
    if r > dp.rank:
        return SloccResult(False, None, 0.0)
    ratios = df.coefficients[:r] ** 2 / dp.coefficients[:r] ** 2
    max_ratio = float(ratios.max())
    diag_vals = np.sqrt(ratios / max_ratio)
    a_filter = (df.basis_A[:, :r] * diag_vals) @ dp.basis_A[:, :r].conj().T
    b_filter = df.basis_B[:, :r] @ dp.basis_B[:, :r].conj().T
    return SloccResult(True, LocalIsometryPair(a_filter, b_filter), 1.0 / max_ratio)


# --------------------------------------------------------------------------- #
#                            one-shot entanglement                             #
# --------------------------------------------------------------------------- #

def one_shot_entanglement(psi: PureBipartiteState) -> OneShotReport:
    """Largest n such that psi (x) |00> -> residual (x) Phi_n is feasible:
    n_max = floor(min_k k / S_k) over the top-k Schmidt partial sums."""
    dec = schmidt(psi)
    partial = np.cumsum(dec.coefficients[: dec.rank] ** 2)
    ks = np.arange(1, partial.size + 1)
    # every S_k <= 1, so k / S_k >= 1 and n_max >= 1
    n_max = int(math.floor(float((ks / partial).min()) + FLOOR_SLACK))
    return OneShotReport(n_max, math.log2(n_max))

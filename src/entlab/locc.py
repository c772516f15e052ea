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
from itertools import accumulate, chain
from operator import attrgetter
from typing import Collection, Mapping, Optional, Sequence

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
    marginal,
    schmidt,
    sorted_eigh,
)
from .spectra import _numeric_array, majorizes, spectrum, tensor_spectrum
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

def _labels_ok(labels: Collection[str]) -> bool:
    """Whether every label can be part of a history: non-empty and free of
    ``HISTORY_SEP``, which joins histories.  One C-level pass."""
    return "" not in labels and HISTORY_SEP not in "".join(labels)


def _check_labels(labels: Collection[str], where: str = "") -> None:
    """Refuse the first label that no history can carry, saying ``where``."""
    if not _labels_ok(labels):
        bad = next(label for label in labels if not _labels_ok((label,)))
        raise InvalidInputError(f"label {bad!r}{where} must be non-empty and free of "
                                f"{HISTORY_SEP!r}, which joins histories")


@dataclass(frozen=True, eq=False)
class Instrument:
    """One Kraus operator per outcome, stacked as an (outcomes, d, d) finite
    complex array, and distinct labels; may be subnormalized (sum k^dag k <= 1)."""

    kraus: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        kraus, (labels,) = _checked_stack(self.kraus, None, [self.labels])
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "labels", labels)


def _is_sequence(x) -> bool:
    """A sequence, or an array with at least one axis: what ``len`` counts."""
    return isinstance(x, Sequence) or getattr(x, "ndim", 0) > 0


def _checked_stack(kraus: Sequence, counts: Optional[Sequence[int]],
                   labels: Sequence[Sequence]) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """:class:`Instrument`'s rule, once over instruments stacked in
    ``kraus``: the i-th has ``counts[i]`` outcomes (at least one; the counts
    add up to the stack; None is one instrument) and ``labels[i]``.  The
    stack must be a sequence of equal square finite matrices of numbers, and
    each instrument's labels distinct, as many as its outcomes and all ones
    a history can carry.  Returns the stack as one complex array and each
    instrument's labels as a tuple of strings."""
    if not _is_sequence(kraus):
        raise InvalidInputError("instrument Kraus operators must be a sequence of matrices, "
                                f"got {type(kraus).__name__}")
    counts = [len(kraus)] if counts is None else counts
    if 0 in counts:
        raise InvalidInputError("instrument needs at least one outcome")
    try:
        ks = np.asarray(kraus)
    except (TypeError, ValueError):  # a ragged stack, or entries NumPy cannot hold
        ks = None
    if ks is None or ks.ndim != 3 or ks.shape[1] != ks.shape[2]:
        raise InvalidInputError("instrument Kraus operators must be equal square matrices")
    ks = _numeric_array(ks, "instrument Kraus operators", complex)  # no copy of a complex stack
    if not np.isfinite(ks).all():
        raise InvalidInputError("instrument Kraus operators must be finite, got NaN/Inf")
    try:
        labels = [tuple(map(str, group)) for group in labels]
    except TypeError as exc:
        raise InvalidInputError(f"instrument labels must be a sequence of strings: {exc}") from exc
    if not list(map(len, labels)) == list(map(len, map(set, labels))) == list(counts):
        raise InvalidInputError("labels must be distinct and match the outcome count")
    _check_labels(list(chain.from_iterable(labels)))
    return ks, labels


def _stacked_instruments(kraus: np.ndarray, counts: Sequence[int],
                         labels: Sequence[Sequence]) -> list[Instrument]:
    """The instruments stacked in ``kraus`` (see :func:`_checked_stack`),
    checked once as a stack; each is a view of it and is not checked again."""
    kraus, labels = _checked_stack(kraus, counts, labels)
    out = []
    for stop, count, group in zip(accumulate(counts), counts, labels):
        instr = object.__new__(Instrument)
        object.__setattr__(instr, "kraus", kraus[stop - count : stop])
        object.__setattr__(instr, "labels", group)
        out.append(instr)
    return out


def instrument(kraus: Sequence, labels: Optional[Sequence[str]] = None) -> Instrument:
    """Validate an instrument: an :class:`Instrument` whose sum k^dag k is
    at most 1 within ``COMPLETENESS_TOL``.  ``kraus`` may be a sequence of
    matrices or a stack; labels default to the outcome indices."""
    if labels is None:  # Instrument refuses a kraus that is not a sequence
        labels = [str(i) for i in range(len(kraus))] if _is_sequence(kraus) else ()
    instr = Instrument(kraus, labels)
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
    short = np.zeros(len(counts), dtype=bool)
    if not loose.size:
        return short, kraus
    vals, vecs = np.linalg.eigh(gaps[loose])
    over = np.flatnonzero(vals[:, 0] < -COMPLETENESS_TOL)
    if over.size:
        top = 1.0 - float(vals[over[0], 0])
        raise InvalidInputError(f"instrument is super-normalized: max eigenvalue {top!r} "
                                f"exceeds 1 + {COMPLETENESS_TOL:.0e}")
    incomplete = vals[:, -1] > COMPLETENESS_TOL
    if not incomplete.any():
        return short, kraus
    vals, vecs = vals[incomplete], vecs[incomplete]
    short[loose[incomplete]] = True
    comps = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return short, np.insert(kraus, ends[short], comps, axis=0)


@dataclass(frozen=True, eq=False)
class LoccRound:
    """One communication round: the acting party and, per message history (a
    tuple of labels an outcome can carry), the instrument it applies.  The
    round checks its keys and instruments once, when built (one or more
    instruments, one dimension, none over complete), and keeps them
    completed in one stack, with every outcome's label and each history's
    rows."""

    party: str
    branches: Mapping[tuple[str, ...], Instrument]
    _kraus: np.ndarray = field(init=False, repr=False)
    _labels: tuple[str, ...] = field(init=False, repr=False)
    _rows: Mapping[tuple[str, ...], range] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.party not in ("A", "B"):
            raise InvalidInputError(f"party must be 'A' or 'B', got {self.party!r}")
        if not isinstance(self.branches, Mapping):
            raise InvalidInputError("branches must be a mapping from histories to Instruments, "
                                    f"got {type(self.branches).__name__}")
        branches = dict(self.branches)
        # one type pass over the keys, then a type pass and a label pass over
        # their distinct labels; a failure is walked key by key, to name the bad key
        tuples = set(map(type, branches)) <= {tuple}
        labels = set(chain.from_iterable(branches)) if tuples else set()
        if not (tuples and set(map(type, labels)) <= {str} and _labels_ok(labels)):
            for hist in branches:
                if not (isinstance(hist, tuple) and all(isinstance(label, str) for label in hist)):
                    raise InvalidInputError(f"history key {hist!r} must be a tuple of label strings")
                _check_labels(hist, f" in history key {hist!r}")
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
        try:
            rounds = tuple(self.rounds)
        except TypeError as exc:
            raise InvalidInputError("rounds must be a sequence of LoccRounds, "
                                    f"got {type(self.rounds).__name__}") from exc
        if len(rounds) > MAX_ROUNDS:
            raise InvalidInputError(f"protocol depth {len(rounds)} exceeds the cap {MAX_ROUNDS}")
        object.__setattr__(self, "rounds", rounds)
        for i, rnd in enumerate(rounds):
            if not isinstance(rnd, LoccRound):
                raise InvalidInputError(f"round {i} must be a LoccRound, got {type(rnd).__name__}")


def locc_protocol(rounds: Sequence[LoccRound]) -> LoccProtocol:
    return LoccProtocol(rounds)


@dataclass(frozen=True, eq=False)
class OneWayProtocol:
    """Alice measures (one Kraus per outcome), Bob applies the matching
    partial isometry.  A branch's probability is its squared norm after both
    operators.  Each side is one or more matrices of one shape, equally many;
    nested lists become complex arrays, and numeric arrays are kept as they are."""

    alice_kraus: tuple[np.ndarray, ...]
    bob_unitaries: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for name in ("alice_kraus", "bob_unitaries"):
            if not _is_sequence(getattr(self, name)):
                raise InvalidInputError(f"{name} must be a sequence of matrices, "
                                        f"got {type(getattr(self, name)).__name__}")
        if not 0 < len(self.alice_kraus) == len(self.bob_unitaries):
            raise InvalidInputError("alice_kraus and bob_unitaries must pair up, one or more: got "
                                    f"{len(self.alice_kraus)} and {len(self.bob_unitaries)}")
        for name in ("alice_kraus", "bob_unitaries"):
            ops = getattr(self, name)
            if not (set(map(type, ops)) <= {np.ndarray}
                    and {dtype.kind for dtype in set(map(attrgetter("dtype"), ops))} <= set("biufc")):
                ops = tuple(_numeric_array(op, name, complex) for op in ops)
                object.__setattr__(self, name, ops)
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
    """Per kept branch of the run protocol (probability above ``MASS_CUT``,
    squared norm after both operators): its overlap and probability."""

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
    are clipped to them.  The operands of each step's floating-point
    operations and their order are pinned bit for bit by
    ``test_permutohedron_terms_bit_for_bit``.
    """
    m = a.size
    t = float(a.sum() / b.sum())
    slack_tol = 8 * m * np.finfo(float).eps
    positions = np.arange(m)
    head_hi, tail_lo = positions + 1, 2 * m - positions
    # x[..., rev] reads x forward in one row and backward in the next, so one
    # running sum fills the edge sums of x: a row of 2m + 2, [0, prefix sums
    # of x, 0, prefix sums of reversed x], in which x[i..j] sums to
    # z[j + 1] - z[i] from the head and to z[2m + 1 - i] - z[2m - j] from the tail
    rev = np.array((positions, positions[::-1]))
    zb = np.zeros((2, m + 1))
    np.add.accumulate(b[rev], axis=-1, out=zb[:, 1:])
    zb = zb.ravel()
    zb_head, zb_tail = zb[head_hi], zb[tail_lo]
    # the edge sums of r (row 0) and of v (row 1)
    z = np.zeros((2, 2, m + 1))
    z_sums, z_rows = z[..., 1:], z.reshape(2, -1)
    # cut[k] starts a block at sorted position k, and cut[m] closes the last;
    # blk is the block of each entry of r, in the order that placed it
    cut = np.zeros(m + 1, dtype=bool)
    cut[0] = cut[m] = True
    end = cut[1:]
    blk = np.zeros(m, dtype=int)
    placed = positions
    rv = np.array((a, a), dtype=float)
    r, v = rv
    terms: list[tuple[float, np.ndarray]] = []
    for _ in range(m):
        edges = cut.nonzero()[0]
        ids = edges.searchsorted(positions, "right")
        blk[placed] = ids
        start, tail = edges[ids - 1], 2 * m + 1 - edges[ids]
        b_head = zb_head - zb[start]
        b_tail = zb[tail] - zb_tail
        head = b_head <= -b_tail
        b_side = np.where(head, b_head, b_tail)
        plus = np.where(head, head_hi, tail)
        minus = np.where(head, start, tail_lo)
        order = placed = np.lexsort((-r, blk))
        np.add.accumulate(r.take(order[rev]), axis=-1, out=z_sums[0])
        r_side = z_rows[0].take(plus) - z_rows[0].take(minus)
        slack = t * b_side - r_side
        tol = slack_tol * np.abs(r_side)
        slack[end] = np.inf
        over = slack < -tol
        if np.count_nonzero(over):
            r[order] -= np.diff(np.where(over, -slack, 0.0), prepend=0.0)
        tight = slack <= tol
        if np.count_nonzero(tight):
            end |= tight
            continue
        perm = order.argsort()
        b.take(perm, out=v)
        lam = t
        for _ in range(64):
            o = placed = np.lexsort((-(r - lam * v), blk))
            np.add.accumulate(rv.take(o[rev], axis=1), axis=-1, out=z_sums)
            r_side, v_side = z_rows.take(plus, axis=1) - z_rows.take(minus, axis=1)
            h = (t - lam) * b_side - (r_side - lam * v_side)
            h[end] = np.inf
            p = int(h.argmin())
            r_p, v_p, b_p = r_side.item(p), v_side.item(p), b_side.item(p)
            if h.item(p) >= -slack_tol * (abs(r_p) + lam * abs(v_p)):
                break
            g = b_p - v_p
            nxt = max((t * b_p - r_p) / g, 0.0) if g > 0 else 0.0
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
    (a, va), (b, vb) = sorted_eigh(rho_psi), sorted_eigh(rho_phi)
    # the smaller side's weights and basis columns are zero-padded to m
    a, b = (np.pad(x, (0, m - x.size)) for x in (a, b))
    va, vb = (np.pad(v, ((0, 0), (0, m - v.shape[1]))) for v in (va, vb))
    _, terms = _mixing_terms(a, b)
    return MixingDecomposition(
        tuple(w for w, _ in terms),
        tuple(va @ vb[:, perm].conj().T for _, perm in terms),
    )


# --------------------------------------------------------------------------- #
#                             one-way synthesis                                #
# --------------------------------------------------------------------------- #

def support_projector(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = sorted_eigh(rho)
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
    n = tgt.coefficients.size
    m = max(src.coefficients.size, n)
    a, t2 = np.zeros((2, m))
    a[: src.coefficients.size] = src.coefficients**2
    t2[:n] = tgt.coefficients**2
    a, terms = _mixing_terms(a, t2)
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
    # (G diag(t))[:, p_x] diag(a_hat^-1/2) E^dagger, from the gathered rows of
    # (G diag(t))^T, zero past n
    rows = np.zeros((m, tgt.basis_A.shape[0]), tgt.basis_A.dtype)
    rows[:n] = (tgt.basis_A * tgt.coefficients).T
    alice = (rows[perms].transpose(0, 2, 1)
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
    rows = np.zeros((m, tgt.basis_B.shape[0]), tgt.basis_B.dtype)
    rows[:n] = tgt.basis_B.T
    bob = rows[perms].transpose(0, 2, 1) @ src.basis_B[:, keep].conj().T
    return OneWayProtocol(tuple(alice), tuple(bob))


def verify_protocol(
    protocol: OneWayProtocol, psi: PureBipartiteState, phi: PureBipartiteState
) -> VerificationReport:
    """Run the protocol on psi through :func:`one_way_branches` and check
    Alice's completeness on psi's support, each kept branch's overlap with
    phi and the kept probabilities' sum; the report carries failures instead
    of raising.  Operators that do not map psi's dims to phi's, or a branch
    of non-finite probability, raise InvalidInputError."""
    (a_out, a_in), (b_out, b_in) = protocol.alice_kraus[0].shape, protocol.bob_unitaries[0].shape
    if ((a_in, b_in), (a_out, b_out)) != (psi.dims, phi.dims):
        raise InvalidInputError(f"protocol maps {(a_in, b_in)} to {(a_out, b_out)}, "
                                f"not {psi.dims} to {phi.dims}")
    branches = one_way_branches(protocol, psi)
    overlaps = tuple(float(abs(np.vdot(phi.amplitudes, b.state.amplitudes))) for b in branches)
    probs = tuple(b.probability for b in branches)
    residual = _completeness_residual(protocol.alice_kraus, support_projector(marginal(psi, "A")))
    prob_sum = math.fsum(probs)
    passed = (
        residual <= COMPLETENESS_TOL
        and all(o >= 1.0 - BRANCH_TOL for o in overlaps)
        and abs(prob_sum - 1.0) <= COMPLETENESS_TOL
    )
    return VerificationReport(residual, overlaps, probs, prob_sum, passed)


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
    completed stack; all outcomes go through one stacked product and
    :func:`_kept_branches`.
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
    kept, q, new = _kept_branches(new)
    return branch[kept], [rnd._labels[i] for i in rows[kept].tolist()], kraus[kept], q, new


def _kept_branches(new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch step of every runner, on unnormalized branch vectors (the
    rows of ``new``): a row's probability is the ``vdot`` of its own vector,
    a non-finite one is refused naming its row, and rows at or below
    ``MASS_CUT`` are pruned.  Returns the kept rows' indices, probabilities
    and unit vectors: the head of ``new``, into which the kept rows are
    moved down one at a time (so no second copy is made), divided in place."""
    q = np.array([np.vdot(v, v).real for v in new])
    if not np.isfinite(q).all():  # NaN would be pruned as if it were zero
        x = int(np.flatnonzero(~np.isfinite(q))[0])
        raise InvalidInputError(f"branch {x} has probability {float(q[x])!r}, not a finite number")
    kept = np.flatnonzero(q > MASS_CUT)
    if kept.size < len(new):
        for j, i in enumerate(kept.tolist()):  # i >= j: a row is read before it is overwritten
            new[j] = new[i]
        new, q = new[: kept.size], q[kept]
    new /= np.sqrt(q)[:, None]
    return kept, q, new


def _leaves(dims: tuple[int, int], probs: list, vecs: np.ndarray, hists: list) -> tuple[Branch, ...]:
    """One read-only :class:`Branch` per unit row of ``vecs``."""
    vecs.flags.writeable = False
    return tuple(Branch(p, PureBipartiteState(dims, vec), hist)
                 for p, vec, hist in zip(probs, vecs, hists))


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
    return _leaves(psi.dims, probs.tolist(), vecs, hists)


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


def one_way_branches(protocol: OneWayProtocol, psi: PureBipartiteState) -> tuple[Branch, ...]:
    """Run an Alice-then-Bob protocol on a pure state: outcome ``x``
    applies ``alice_kraus[x] (x) bob_unitaries[x]``, and its probability is
    the squared norm after both operators (pruned at ``MASS_CUT``, as in
    every runner).  Labels are the outcome indices.  Operators not acting
    on psi's dims are refused."""
    (a_out, a_in), (b_out, b_in) = protocol.alice_kraus[0].shape, protocol.bob_unitaries[0].shape
    if (a_in, b_in) != psi.dims:
        raise InvalidInputError(f"protocol acts on {(a_in, b_in)}, the state has {psi.dims}")
    new = np.empty((len(protocol.alice_kraus), a_out, b_out), dtype=complex)
    for k_op, w_op, row in zip(protocol.alice_kraus, protocol.bob_unitaries, new):
        np.matmul(k_op @ psi.matrix, w_op.T, out=row)
    kept, q, vecs = _kept_branches(new.reshape(len(new), -1))
    return _leaves((a_out, b_out), q.tolist(), vecs, [(str(x),) for x in kept.tolist()])


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

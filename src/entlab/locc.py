"""LOCC/SLOCC decision procedures, one-way protocol synthesis, multi-round
protocol simulation, one-way reduction, and one-shot entanglement.

Feasibility of pure-state LOCC conversion is classical majorization of the
Schmidt spectra (target majorizes source).  Synthesis follows the standard
route: mix the source marginal out of the target marginal with at most d
partial isometries (the source spectrum as a mixture of permutations of the
target's), turn each term into an Alice Kraus operator
``k_x = sqrt(p_x) rho_phi^{1/2} u_x^dagger rho_psi^{-1/2}``, and align Bob
per branch by connecting purifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _padded_eigendata,
    _psd_sqrt,
    connect_purifications,
    marginal,
    pure_state,
    schmidt,
)
from .spectra import Spectrum, majorizes, tensor_spectrum
from .tolerances import (BRANCH_TOL, COMPLETENESS_TOL, FLOOR_SLACK, MASS_CUT, POLAR_CUT,
                         SUPPORT_CUT, SUPPORT_FLOOR)

MAX_ROUNDS = 16
REST_LABEL = "__rest__"


# --------------------------------------------------------------------------- #
#                                    types                                     #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class Instrument:
    """One Kraus operator per outcome; may be subnormalized (sum k^dag k <= 1)."""

    kraus: tuple[np.ndarray, ...]
    labels: tuple[str, ...]


def instrument(kraus: Sequence, labels: Optional[Sequence[str]] = None) -> Instrument:
    ks = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not ks:
        raise InvalidInputError("instrument needs at least one outcome")
    shape = ks[0].shape
    if any(k.ndim != 2 or k.shape != shape or k.shape[0] != k.shape[1] for k in ks):
        raise InvalidInputError("instrument Kraus operators must be equal square matrices")
    if labels is None:
        labels = tuple(str(i) for i in range(len(ks)))
    labels = tuple(str(label) for label in labels)
    if len(labels) != len(ks) or len(set(labels)) != len(ks):
        raise InvalidInputError("labels must be distinct and match the outcome count")
    total = sum(k.conj().T @ k for k in ks)
    top = float(np.linalg.eigvalsh(total)[-1])
    if top > 1.0 + COMPLETENESS_TOL:
        raise InvalidInputError(f"instrument is super-normalized: max eigenvalue {top!r}")
    return Instrument(ks, labels)


@dataclass(frozen=True, eq=False)
class LoccRound:
    """One communication round: the acting party and, per message history,
    the instrument it applies."""

    party: str
    branches: Mapping[tuple[str, ...], Instrument]


def locc_round(party: str, branches: Mapping) -> LoccRound:
    if party not in ("A", "B"):
        raise InvalidInputError(f"party must be 'A' or 'B', got {party!r}")
    fixed = {}
    for hist, instr in branches.items():
        key = tuple(str(x) for x in hist)
        if not isinstance(instr, Instrument):
            raise InvalidInputError("branch values must be Instruments")
        fixed[key] = instr
    return LoccRound(party, fixed)


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    rounds: tuple[LoccRound, ...]


def locc_protocol(rounds: Sequence[LoccRound]) -> LoccProtocol:
    return LoccProtocol(tuple(rounds))


@dataclass(frozen=True, eq=False)
class OneWayProtocol:
    """Alice measures (one Kraus per outcome), Bob applies the matching
    partial isometry.  Probabilities are implied by the Kraus norms."""

    alice_kraus: tuple[np.ndarray, ...]
    bob_unitaries: tuple[np.ndarray, ...]


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


def mixing_decomposition(rho_psi: DensityMatrix, rho_phi: DensityMatrix) -> MixingDecomposition:
    """Express rho_psi as a probabilistic unitary (partial-isometry) mixture
    of rho_phi.  Requires spectrum(rho_psi) to be majorized by
    spectrum(rho_phi)."""
    if not majorizes(rho_phi.spectrum(), rho_psi.spectrum()):
        raise InfeasibleError("source spectrum is not majorized by the mixed state's")
    m = max(rho_psi.dim, rho_phi.dim)
    a, va = _padded_eigendata(rho_psi, m)
    b, vb = _padded_eigendata(rho_phi, m)
    # no term may move weight outside rho_psi's support
    a[~_in_support(a)] = 0.0
    terms = _permutohedron_terms(a, b)
    return MixingDecomposition(
        tuple(w for w, _ in terms),
        tuple(va @ vb[:, perm].conj().T for _, perm in terms),
    )


# --------------------------------------------------------------------------- #
#                             one-way synthesis                                #
# --------------------------------------------------------------------------- #

def _in_support(vals: np.ndarray) -> np.ndarray:
    """Mask of the descending eigenvalues (or singular values) inside the
    support: above ``SUPPORT_CUT`` times the largest."""
    return vals > SUPPORT_CUT * vals[0]


def _support(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Support eigenvalues of rho, descending, and their eigenvectors."""
    vals, vecs = _padded_eigendata(rho, rho.dim)
    keep = _in_support(vals)
    return vals[keep], vecs[:, keep]


def support_projector(rho: DensityMatrix) -> np.ndarray:
    basis = _support(rho)[1]
    return basis @ basis.conj().T


def _completeness_residual(kraus: Sequence[np.ndarray], support: np.ndarray) -> float:
    """Largest |eigenvalue| of sum_x k_x^dagger k_x minus the support projector."""
    return float(np.abs(np.linalg.eigvalsh(sum(k.conj().T @ k for k in kraus) - support)).max())


def nielsen_synthesize(psi: PureBipartiteState, phi: PureBipartiteState) -> OneWayProtocol:
    """One-way protocol for a feasible pure-state conversion.

    Alice's Kraus operators are
    ``k_x = sqrt(p_x) rho_phi^{1/2} u_x^dagger rho_psi^{-1/2}``
    from the mixing decomposition of the marginals; each branch then has
    A-marginal exactly p_x rho_phi, and Bob's partial isometry connects the
    branch to the target purification.  At most max(d_A) branches; a
    protocol whose completeness residual on the source support exceeds
    ``COMPLETENESS_TOL`` is refused with :class:`NumericalFailureError`.
    """
    if not locc_feasible(psi, phi):
        raise InfeasibleError("target spectrum does not majorize the source spectrum")
    rho_psi = marginal(psi, "A")
    rho_phi = marginal(phi, "A")
    mix = mixing_decomposition(rho_psi, rho_phi)
    kept, basis = _support(rho_psi)
    if float(kept.min()) < SUPPORT_FLOOR:
        raise NumericalFailureError(f"support eigenvalue {float(kept.min()):.3e} below "
                                    f"{SUPPORT_FLOOR:g}: ill-conditioned (d = {rho_psi.dim})")
    inv_sqrt = (basis * kept**-0.5) @ basis.conj().T
    sqrt_phi = _psd_sqrt(rho_phi)
    d_b_psi = psi.dims[1]
    alice = []
    bob = []
    for p_x, u_x in zip(mix.weights, mix.unitaries):
        k = math.sqrt(p_x) * (sqrt_phi @ u_x.conj().T @ inv_sqrt)
        vec = (k @ psi.matrix).ravel()
        q = float(np.vdot(vec, vec).real)
        if abs(q - p_x) > BRANCH_TOL:
            raise NumericalFailureError(f"branch probability leaked: expected {p_x!r}, got {q!r}, "
                                        f"off by more than {BRANCH_TOL:.0e} (d = {rho_psi.dim})")
        branch = pure_state((phi.dims[0], d_b_psi), vec / math.sqrt(q))
        v = connect_purifications(phi, branch).op_B
        alice.append(k)
        bob.append(v)
    residual = _completeness_residual(alice, basis @ basis.conj().T)
    if residual > COMPLETENESS_TOL:
        raise NumericalFailureError(
            f"completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e} (d = {rho_psi.dim})"
        )
    return OneWayProtocol(tuple(alice), tuple(bob))


def verify_protocol(
    protocol: OneWayProtocol, psi: PureBipartiteState, phi: PureBipartiteState
) -> VerificationReport:
    """Check completeness on the source support, per-branch target overlap,
    and total probability; the report carries failures instead of raising."""
    overlaps = []
    probs = []
    for k, v in zip(protocol.alice_kraus, protocol.bob_unitaries):
        if k.shape[1] != psi.dims[0] or v.shape[1] != psi.dims[1]:
            raise InvalidInputError("protocol operator shapes do not match the source state")
        if k.shape[0] != phi.dims[0] or v.shape[0] != phi.dims[1]:
            raise InvalidInputError("protocol operator shapes do not match the target state")
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

def _completed(instr: Instrument, dim: int) -> Instrument:
    """Validate against the acting dimension and append the deterministic
    complement Kraus operator when the instrument is subnormalized."""
    if instr.kraus[0].shape[0] != dim:
        raise InvalidInputError(
            f"instrument acts on dimension {instr.kraus[0].shape[0]}, state has {dim}"
        )
    total = sum(k.conj().T @ k for k in instr.kraus)
    gap = np.eye(dim) - total
    vals, vecs = np.linalg.eigh(gap)
    if float(vals.min()) < -COMPLETENESS_TOL:
        raise InvalidInputError("instrument is super-normalized")
    if float(vals.max()) <= COMPLETENESS_TOL:
        return instr
    comp = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    if REST_LABEL in instr.labels:
        raise InvalidInputError(f"label {REST_LABEL!r} is reserved for the completion outcome")
    return Instrument(instr.kraus + (comp,), instr.labels + (REST_LABEL,))


def _check_depth(protocol: LoccProtocol) -> None:
    if len(protocol.rounds) > MAX_ROUNDS:
        raise InvalidInputError(f"protocol depth {len(protocol.rounds)} exceeds the cap {MAX_ROUNDS}")


def _round_outcomes(
    rnd: LoccRound, dims: tuple[int, int], hist: tuple[str, ...], vec: np.ndarray
):
    """Run one round on the branch (hist, vec): yields (label, k, q, new)
    per outcome, with q the outcome's probability given the branch and new
    the normalized post-measurement vector.  The instrument is completed;
    outcomes with q <= ``MASS_CUT`` are pruned."""
    instr = rnd.branches.get(hist)
    if instr is None:
        raise InvalidInputError(f"no instrument for reachable history {hist!r}")
    instr = _completed(instr, dims[0] if rnd.party == "A" else dims[1])
    mat = vec.reshape(dims)
    for k, label in zip(instr.kraus, instr.labels):
        new = (k @ mat if rnd.party == "A" else mat @ k.T).ravel()
        q = float(np.vdot(new, new).real)
        if q > MASS_CUT:
            yield label, k, q, new / math.sqrt(q)


def simulate(protocol: LoccProtocol, psi: PureBipartiteState) -> tuple[Branch, ...]:
    """Exact breadth-first expansion of the protocol on a pure state.

    Subnormalized instruments are completed; branches of probability at most
    ``MASS_CUT`` are pruned.  Leaves come back in deterministic label
    order.  Protocols deeper than ``MAX_ROUNDS`` are refused.
    """
    _check_depth(protocol)
    leaves: list[tuple[float, np.ndarray, tuple[str, ...]]] = [(1.0, psi.amplitudes, ())]
    for rnd in protocol.rounds:
        leaves = [
            (p * q, new, hist + (label,))
            for p, vec, hist in leaves
            for label, _, q, new in _round_outcomes(rnd, psi.dims, hist, vec)
        ]
    return tuple(Branch(p, pure_state(psi.dims, vec), hist) for p, vec, hist in leaves)


# --------------------------------------------------------------------------- #
#                              one-way reduction                               #
# --------------------------------------------------------------------------- #

def _mirror_bob(vec: np.ndarray, dims: tuple[int, int], d_op: np.ndarray):
    """Alice operator m and Bob partial isometry w with
    (m (x) w) sigma = (1 (x) d) sigma for the pure state sigma = vec.

    Through the Schmidt frame sigma = E diag(s) F^T: with
    X = diag(s) (d F)^T = H Omega (polar), take
    m = E H diag(s)^+ E^dagger and w = Omega^T F^dagger.
    """
    mat = vec.reshape(dims)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    r = int(_in_support(s).sum())
    e_b = u[:, :r]
    f_b = vh.T[:, :r]
    sr = s[:r]
    x = sr[:, None] * (d_op @ f_b).T
    xu, xs, xvh = np.linalg.svd(x, full_matrices=False)
    h = (xu * xs) @ xu.conj().T
    keep = int((xs > float(xs.max()) * POLAR_CUT).sum()) if xs.size else 0
    omega = xu[:, :keep] @ xvh[:keep]
    m_op = e_b @ h @ np.diag(1.0 / sr) @ e_b.conj().T
    w_op = omega.T @ f_b.conj().T
    lhs = (m_op @ mat @ w_op.T).ravel()
    rhs = (mat @ d_op.T).ravel()
    residual = float(np.abs(lhs - rhs).max())
    if residual > BRANCH_TOL:
        raise NotReducibleError(f"branch operator could not be mirrored within tolerance: "
                                f"residual {residual:.3e} exceeds {BRANCH_TOL:.0e} (dims = {dims})")
    return m_op, w_op


def one_way_reduce(protocol: LoccProtocol, psi: PureBipartiteState) -> OneWayProtocol:
    """Collapse a multi-round protocol on psi into Alice-then-Bob form with
    identical branch probabilities and states.

    Alice rounds compose directly; each Bob operator is mirrored through the
    current branch state into an Alice operator and a Bob partial isometry.
    Protocols deeper than ``MAX_ROUNDS`` are refused.
    """
    _check_depth(protocol)
    pi_a = support_projector(marginal(psi, "A"))
    pi_b = support_projector(marginal(psi, "B"))
    branches = [(psi.amplitudes, (), pi_a, pi_b)]
    for rnd in protocol.rounds:
        new_branches = []
        for vec, hist, a_acc, w_acc in branches:
            for label, k, _, new in _round_outcomes(rnd, psi.dims, hist, vec):
                if rnd.party == "A":
                    a_new, w_new = k @ a_acc, w_acc
                else:
                    m_op, w_op = _mirror_bob(vec, psi.dims, k)
                    a_new, w_new = m_op @ a_acc, w_op @ w_acc
                new_branches.append((new, hist + (label,), a_new, w_new))
        branches = new_branches
    return OneWayProtocol(
        tuple(a for _, _, a, _ in branches),
        tuple(w for _, _, _, w in branches),
    )


def one_way_branches(
    protocol: OneWayProtocol, psi: PureBipartiteState
) -> tuple[Branch, ...]:
    """Run an Alice-then-Bob protocol on a pure state.

    Outcome ``x`` applies ``alice_kraus[x] (x) bob_unitaries[x]``; the branch
    probability is the squared norm of the resulting vector, after both
    Alice's Kraus operator and Bob's operator.  It equals the norm after
    Alice's Kraus alone only when Bob's operator is an isometry on the
    branch support.  Labels are the outcome indices.
    """
    if len(protocol.alice_kraus) != len(protocol.bob_unitaries):
        raise InvalidInputError("alice_kraus and bob_unitaries must pair up one-to-one")
    mat = psi.matrix
    out: list[Branch] = []
    for x, (k_op, w_op) in enumerate(zip(protocol.alice_kraus, protocol.bob_unitaries)):
        if k_op.shape[1] != psi.dims[0] or w_op.shape[1] != psi.dims[1]:
            raise InvalidInputError(
                f"branch {x} operators do not act on a {psi.dims} state"
            )
        new = k_op @ mat @ w_op.T
        prob = float(np.vdot(new, new).real)
        if prob <= MASS_CUT:
            continue
        state = pure_state((k_op.shape[0], w_op.shape[0]), new.ravel() / math.sqrt(prob))
        out.append(Branch(probability=prob, state=state, history=(str(x),)))
    return tuple(out)


# --------------------------------------------------------------------------- #
#                                   SLOCC                                      #
# --------------------------------------------------------------------------- #

def slocc(psi: PureBipartiteState, phi: PureBipartiteState) -> SloccResult:
    """Single-filter SLOCC conversion: feasible iff the target Schmidt rank
    does not exceed the source's; the canonical filter rescales Schmidt
    weights with success probability 1/max_i(phi_i/psi_i)."""
    dp = schmidt(psi)
    df = schmidt(phi)
    s2 = np.asarray(dp.spectrum.values)
    t2 = np.asarray(df.spectrum.values)
    if t2.size > s2.size:
        return SloccResult(False, None, 0.0)
    r = t2.size
    ratios = t2 / s2[:r]
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
    values = np.asarray(schmidt(psi).spectrum.values)
    partial = np.cumsum(values)
    ks = np.arange(1, values.size + 1)
    # every S_k <= 1, so k / S_k >= 1 and n_max >= 1
    n_max = int(math.floor(float((ks / partial).min()) + FLOOR_SLACK))
    return OneShotReport(n_max, math.log2(n_max))

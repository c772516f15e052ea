"""Tests for LOCC decisions, mixing decompositions, one-way synthesis,
protocol simulation, one-way reduction, SLOCC, and one-shot entanglement.

Oracles: direct reconstruction for mixing decompositions, verify_protocol
for synthesized protocols, simulate-equality for one-way reduction, the
partial-sum inequality family for the one-shot closed form.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import locc
from entlab.errors import (
    InfeasibleError,
    InvalidInputError,
    NotReducibleError,
    NumericalFailureError,
)
from entlab.locc import (
    Instrument,
    OneWayProtocol,
    _mirror_bob,
    instrument,
    locc_embezzle_feasible,
    locc_feasible,
    locc_protocol,
    locc_round,
    mixing_decomposition,
    nielsen_synthesize,
    one_shot_entanglement,
    one_way_reduce,
    simulate,
    slocc,
    support_projector,
    verify_protocol,
)
from entlab.quantum import (
    apply_local,
    bell_state,
    density,
    haar_unitary,
    marginal,
    product_basis_state,
    pure_state,
    random_density,
    random_pure_state,
    schmidt,
    state_from_schmidt,
)
from entlab.spectra import entanglement_entropies

EYE2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


# --------------------------------------------------------------------------- #
#                                test helpers                                  #
# --------------------------------------------------------------------------- #


def weighted_state(weights, dims=None):
    w = np.asarray(weights, dtype=float)
    return state_from_schmidt(np.sqrt(np.sort(w)[::-1]), dims=dims)


def random_doubly_stochastic(rng, m, terms=4):
    """Convex combination of random permutation matrices."""
    w = rng.dirichlet(np.ones(terms))
    d = np.zeros((m, m))
    for x in range(terms):
        perm = rng.permutation(m)
        d[np.arange(m), perm] += w[x]
    return d


def random_feasible_pair(rng, dims_psi=(4, 4), dims_phi=(4, 4), rotate=True):
    """Target spectrum random; source spectrum a random doubly stochastic
    image of it, so the conversion source -> target is feasible."""
    r = rng.integers(1, min(dims_phi) + 1)
    t = rng.dirichlet(np.ones(r) * 2.0)
    m = min(dims_psi)
    t_pad = np.zeros(m)
    t_pad[: min(r, m)] = np.sort(t)[::-1][:m]
    t_pad /= t_pad.sum()  # guard: r <= m is arranged below
    a = random_doubly_stochastic(rng, m) @ t_pad
    psi = weighted_state(a, dims_psi)
    phi = weighted_state(t_pad[t_pad > 0], dims_phi)
    if rotate:
        u = haar_unitary(dims_psi[0], rng)
        v = haar_unitary(dims_psi[1], rng)
        psi = pure_state(dims_psi, apply_local(psi, u, v))
        u2 = haar_unitary(dims_phi[0], rng)
        v2 = haar_unitary(dims_phi[1], rng)
        phi = pure_state(dims_phi, apply_local(phi, u2, v2))
    return psi, phi


def one_way_leaves(protocol: OneWayProtocol, psi):
    out = []
    for a, w in zip(protocol.alice_kraus, protocol.bob_unitaries):
        vec = (a @ psi.matrix @ w.T).ravel()
        p = float(np.vdot(vec, vec).real)
        out.append((p, vec / math.sqrt(p) if p > 0 else vec))
    return out


# --------------------------------------------------------------------------- #
#                                  decisions                                   #
# --------------------------------------------------------------------------- #


def test_locc_feasible_by_hand():
    b = bell_state(2)
    t = weighted_state([0.7, 0.3])
    assert locc_feasible(b, t) is True
    assert locc_feasible(t, b) is False
    assert locc_feasible(t, t) is True


def test_locc_feasible_mismatched_dims():
    """Spectra are zero-padded: Bell on (2,2) vs Bell on (3,3)."""
    assert locc_feasible(bell_state(3), bell_state(2)) is True
    assert locc_feasible(bell_state(2), bell_state(3)) is False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_locc_feasible_reflexive(seed):
    psi = random_pure_state((3, 4), seed)
    assert locc_feasible(psi, psi)


def test_locc_feasible_transitive_on_constructed_triples():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        c = rng.dirichlet(np.ones(m))
        b = random_doubly_stochastic(rng, m) @ np.sort(c)[::-1]
        a = random_doubly_stochastic(rng, m) @ b
        sa, sb, sc = weighted_state(a), weighted_state(b), weighted_state(c)
        assert locc_feasible(sa, sb)
        assert locc_feasible(sb, sc)
        assert locc_feasible(sa, sc)


def test_locc_embezzle_feasible_by_hand():
    b = bell_state(2)
    t = weighted_state([0.7, 0.3])
    assert locc_embezzle_feasible(b, t, t) is True
    assert locc_embezzle_feasible(b, product_basis_state(2, 2), b) is False
    # ... for any finite helper state, not just Bell
    assert locc_embezzle_feasible(random_pure_state((4, 4), 3), product_basis_state(2, 2), b) is False
    assert locc_embezzle_feasible(b, b, product_basis_state(2, 2)) is True


# --------------------------------------------------------------------------- #
#                            mixing decompositions                             #
# --------------------------------------------------------------------------- #


def test_mixing_decomposition_by_hand():
    mix = mixing_decomposition(density(EYE2 / 2), density(np.diag([0.7, 0.3])))
    assert np.allclose(mix.weights, (0.5, 0.5), atol=1e-12)
    assert np.abs(mix.unitaries[0] - EYE2).max() < 1e-12
    assert np.abs(mix.unitaries[1] - SWAP).max() < 1e-12


def test_mixing_decomposition_identity():
    rho = density(np.diag([0.7, 0.3]))
    mix = mixing_decomposition(rho, rho)
    assert len(mix.weights) == 1
    assert abs(mix.weights[0] - 1.0) < 1e-12
    assert np.abs(mix.unitaries[0] - EYE2).max() < 1e-12


def test_mixing_decomposition_infeasible():
    with pytest.raises(InfeasibleError):
        mixing_decomposition(density(np.diag([0.7, 0.3])), density(EYE2 / 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mixing_decomposition_reconstructs(seed):
    """Random feasible 4-dim pair: the weighted conjugations of rho_phi
    rebuild rho_psi to 1e-9, weights are a distribution, and the term count
    respects the (d-1)^2 + 1 bound."""
    rng = np.random.default_rng(seed)
    rho_phi = random_density(4, rng)
    spec = np.sort(np.linalg.eigvalsh(rho_phi.entries))[::-1]
    mixed = random_doubly_stochastic(rng, 4) @ spec
    u = haar_unitary(4, rng)
    rho_psi = density(u @ np.diag(np.clip(mixed, 0, None) / mixed.sum()) @ u.conj().T)
    mix = mixing_decomposition(rho_psi, rho_phi)
    recon = sum(p * (w @ rho_phi.entries @ w.conj().T) for p, w in zip(mix.weights, mix.unitaries))
    assert np.abs(recon - rho_psi.entries).max() < 1e-9
    assert abs(math.fsum(mix.weights) - 1.0) < 1e-9
    assert all(p > 0 for p in mix.weights)
    assert len(mix.weights) <= 3 * 3 + 1


def test_mixing_decomposition_rectangular_dims():
    """Mixing a rank-2 marginal out of a 2-dim one across different spaces."""
    rho_psi = density(np.diag([0.5, 0.5, 0.0, 0.0]))
    rho_phi = density(np.diag([0.7, 0.3]))
    mix = mixing_decomposition(rho_psi, rho_phi)
    recon = sum(p * (w @ rho_phi.entries @ w.conj().T) for p, w in zip(mix.weights, mix.unitaries))
    assert np.abs(recon - rho_psi.entries).max() < 1e-9
    for w in mix.unitaries:
        assert w.shape == (4, 2)
        prod = w.conj().T @ w
        assert np.abs(prod @ prod - prod).max() < 1e-10  # partial isometry


# --------------------------------------------------------------------------- #
#                              one-way synthesis                               #
# --------------------------------------------------------------------------- #


def test_nielsen_bell_to_weighted_by_hand():
    b = bell_state(2)
    t = weighted_state([0.7, 0.3])
    proto = nielsen_synthesize(b, t)
    assert len(proto.alice_kraus) == 2
    k1, k2 = proto.alice_kraus
    v1, v2 = proto.bob_unitaries
    assert np.abs(k1 - np.diag([math.sqrt(0.7), math.sqrt(0.3)])).max() < 1e-10
    assert np.abs(k2 - SWAP @ np.diag([math.sqrt(0.3), math.sqrt(0.7)])).max() < 1e-10
    assert np.abs(v1 - EYE2).max() < 1e-10
    assert np.abs(v2 - SWAP).max() < 1e-10
    rep = verify_protocol(proto, b, t)
    assert rep.passed
    assert np.allclose(rep.probabilities, (0.5, 0.5), atol=1e-12)


def test_nielsen_identity_conversion():
    t = weighted_state([0.7, 0.3])
    proto = nielsen_synthesize(t, t)
    assert len(proto.alice_kraus) == 1
    assert np.abs(proto.alice_kraus[0] - EYE2).max() < 1e-10
    out = (proto.alice_kraus[0] @ t.matrix @ proto.bob_unitaries[0].T).ravel()
    assert np.abs(out - t.amplitudes).max() < 1e-10


def test_nielsen_infeasible_raises():
    with pytest.raises(InfeasibleError):
        nielsen_synthesize(weighted_state([0.7, 0.3]), bell_state(2))


def test_nielsen_branch_equality_direct():
    """Each branch's output vector equals sqrt(p_x) Phi, not just up to
    normalization."""
    rng = np.random.default_rng(21)
    psi, phi = random_feasible_pair(rng, (4, 4), (4, 4))
    proto = nielsen_synthesize(psi, phi)
    total = math.fsum(
        float(np.vdot((k @ psi.matrix).ravel(), (k @ psi.matrix).ravel()).real)
        for k in proto.alice_kraus
    )
    assert abs(total - 1.0) < 1e-9
    for k, v in zip(proto.alice_kraus, proto.bob_unitaries):
        out = (k @ psi.matrix @ v.T).ravel()
        p = float(np.vdot(out, out).real)
        assert np.abs(out - math.sqrt(p) * phi.amplitudes).max() < 1e-8


def test_nielsen_mismatched_dims():
    """(4,4) source to (2,3) target: rectangular Kraus and Bob maps."""
    psi = bell_state(4)
    phi = weighted_state([0.7, 0.3], dims=(2, 3))
    assert locc_feasible(psi, phi)
    proto = nielsen_synthesize(psi, phi)
    rep = verify_protocol(proto, psi, phi)
    assert rep.passed
    for k, v in zip(proto.alice_kraus, proto.bob_unitaries):
        assert k.shape == (2, 4)
        assert v.shape == (3, 4)


def in_haar_frames(weights, dims, rng):
    """State with the given Schmidt weights on ``dims``, in Haar local frames."""
    state = weighted_state(weights, dims)
    return pure_state(dims, apply_local(state, haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)))


@pytest.mark.parametrize(
    "dims_psi, a, dims_phi, b",
    [((6, 3), [0.5, 0.3, 0.2], (4, 2), [0.8, 0.2]),
     ((5, 2), [0.6, 0.4], (2, 5), [0.7, 0.3]),
     ((4, 4), [0.4, 0.3, 0.2, 0.1], (6, 2), [0.75, 0.25])],
    ids=["6x3_to_4x2", "5x2_to_2x5", "4x4_to_6x2"],
)
def test_nielsen_rectangular_schmidt_frames(dims_psi, a, dims_phi, b):
    """Sources and targets whose Schmidt frames are shorter than a local
    dimension (d_A > d_B included) synthesize, verify, and give Alice
    (d_A', d_A) and Bob (d_B', d_B) operators."""
    rng = np.random.default_rng(list(dims_psi + dims_phi))
    for _ in range(5):
        psi, phi = in_haar_frames(a, dims_psi, rng), in_haar_frames(b, dims_phi, rng)
        proto = nielsen_synthesize(psi, phi)
        assert verify_protocol(proto, psi, phi).passed
        assert len(proto.alice_kraus) <= max(min(dims_psi), min(dims_phi))
        for k, v in zip(proto.alice_kraus, proto.bob_unitaries):
            assert k.shape == (dims_phi[0], dims_psi[0])
            assert v.shape == (dims_phi[1], dims_psi[1])
            proj = v.conj().T @ v
            assert np.abs(proj @ proj - proj).max() < 1e-12


def test_nielsen_uses_one_schmidt_decomposition_per_state(monkeypatch):
    """Synthesis reads both parties' frames off one SVD per state: no
    marginal, eigendecomposition or explicit mixing unitaries."""
    calls = []
    monkeypatch.setattr(locc, "schmidt", lambda state: calls.append(state) or schmidt(state))
    for name in ("marginal", "mixing_decomposition"):
        monkeypatch.setattr(locc, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh called"))
    psi, phi = random_feasible_pair(np.random.default_rng(5), (5, 3), (4, 4))
    proto = nielsen_synthesize(psi, phi)
    assert calls == [psi, phi]
    monkeypatch.undo()
    assert verify_protocol(proto, psi, phi).passed


def test_nielsen_ill_conditioned_support():
    eps = 5e-13
    psi = state_from_schmidt(np.sqrt([0.4, 0.3, 0.3 - eps, eps]))
    phi = product_basis_state(4, 4)
    assert locc_feasible(psi, phi)
    with pytest.raises(NumericalFailureError):
        nielsen_synthesize(psi, phi)


def sized_pair(d, shape, seed=0):
    """Haar source on (d, d) with Schmidt spectrum s, and a target in a
    random local frame that majorizes it.  generic: s**1.5; zero_padded:
    the same cut to rank d/2; tie_heavy: each value repeated three times,
    the means of consecutive triples of s**p, with p = 1.5, 2.25, ...
    raised until the target majorizes s."""
    rng = np.random.default_rng([seed, d])
    psi = random_pure_state((d, d), rng)
    s = np.asarray(schmidt(psi).spectrum.padded(d))
    if shape == "generic":
        t = s**1.5
    elif shape == "zero_padded":
        t = np.r_[s[: d // 2] ** 1.5, np.zeros(d - d // 2)]
    else:
        starts = np.arange(0, d, 3)
        sizes = np.diff(np.r_[starts, d])
        for k in range(64):
            sharp = (s / s[0]) ** (1.5**(k + 1))
            t = np.repeat(np.add.reduceat(sharp, starts) / sizes, sizes) / sharp.sum()
            if np.all(np.cumsum(t)[:-1] >= np.cumsum(s)[:-1]):
                break
        else:
            raise AssertionError("no tie-heavy target majorizes the source")
    t = t / t.sum()
    phi = state_from_schmidt(np.sqrt(t))
    phi = pure_state((d, d), apply_local(phi, haar_unitary(d, rng), haar_unitary(d, rng)))
    return psi, phi


@pytest.mark.parametrize("shape", ["generic", "tie_heavy", "zero_padded"])
@pytest.mark.parametrize("d", [16, 32, 64])
def test_nielsen_synthesis_at_size(d, shape):
    """Synthesis verifies at the sizes users try, with at most d branches."""
    psi, phi = sized_pair(d, shape)
    proto = nielsen_synthesize(psi, phi)
    assert verify_protocol(proto, psi, phi).passed
    assert len(proto.alice_kraus) <= d


@pytest.mark.parametrize("shape", ["generic", "tie_heavy", "zero_padded"])
@pytest.mark.parametrize("d", [128, 256])
def test_nielsen_synthesis_large_d_verifies_or_refuses(d, shape):
    """At d = 128 and 256 a protocol is either verified or refused with the
    residual and the tolerance it broke; an unverified one is never
    returned."""
    psi, phi = sized_pair(d, shape)
    try:
        proto = nielsen_synthesize(psi, phi)
    except NumericalFailureError as exc:
        assert re.search(r"residual \S+ exceeds \S+", str(exc))
        return
    assert verify_protocol(proto, psi, phi).passed
    assert len(proto.alice_kraus) <= d


@pytest.mark.parametrize("shape", ["generic", "tie_heavy", "zero_padded"])
def test_nielsen_bob_operators_are_partial_isometries(shape):
    """Bob's operators are gathers of orthonormal Schmidt columns, so each
    is a partial isometry to rounding, whatever the spectrum's ties."""
    psi, phi = sized_pair(32, shape)
    for v in nielsen_synthesize(psi, phi).bob_unitaries:
        proj = v.conj().T @ v
        assert np.abs(proj @ proj - proj).max() < 1e-12


def test_nielsen_source_with_a_1e10_support_weight():
    """A source whose smallest support weight is 1e-10, in random local
    frames.  Alice's inverse square root amplifies rounding by 1e5 there,
    so a Bob map read off her branches (rho_psi^{-1/2} psi in place of the
    source's polar factor) is off a partial isometry by ~1e-7.  The protocol
    must verify with every Bob operator a partial isometry within 1e-12, or
    be refused as a numerical failure."""
    d = 8
    rng = np.random.default_rng([3, d])
    s = np.sort(rng.random(d))[::-1]
    s[-1] = 0.0
    s /= s.sum()
    s[-1] = 1e-10
    s /= s.sum()

    def in_random_frames(weights):
        state = state_from_schmidt(np.sqrt(weights))
        return pure_state((d, d), apply_local(state, haar_unitary(d, rng), haar_unitary(d, rng)))

    psi = in_random_frames(s)
    phi = in_random_frames(s**1.5 / (s**1.5).sum())
    try:
        proto = nielsen_synthesize(psi, phi)
    except NumericalFailureError:
        return
    assert verify_protocol(proto, psi, phi).passed
    for v in proto.bob_unitaries:
        proj = v.conj().T @ v
        assert np.abs(proj @ proj - proj).max() < 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_nielsen_sources_with_a_1e10_smallest_weight_verify(seed):
    """Alice divides by the weights the mixing rebuilds, so its absolute
    rounding (~1e-17) is never divided by a small source weight: Haar-frame
    sources with a smallest weight of 1e-10 and target s^1.5 all verify."""
    d = (4, 8, 16)[seed % 3]
    rng = np.random.default_rng([11, seed])
    s = np.sort(rng.random(d))[::-1]
    s[-1] = 0.0
    s /= s.sum()
    s[-1] = 1e-10
    s /= s.sum()

    def in_random_frames(weights):
        state = state_from_schmidt(np.sqrt(weights))
        return pure_state((d, d), apply_local(state, haar_unitary(d, rng), haar_unitary(d, rng)))

    psi = in_random_frames(s)
    phi = in_random_frames(s**1.5 / (s**1.5).sum())
    report = verify_protocol(nielsen_synthesize(psi, phi), psi, phi)
    assert report.passed and report.completeness_residual < 1e-13


def test_nielsen_just_outside_the_polytope():
    """A pair that misses majorization by 6e-11, which locc_feasible accepts,
    synthesizes and verifies."""
    psi = weighted_state([0.35 + 3e-11, 0.35 + 3e-11, 0.15 - 3e-11, 0.15 - 3e-11])
    phi = weighted_state([0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(4)
    psi = pure_state((4, 4), apply_local(psi, haar_unitary(4, rng), haar_unitary(4, rng)))
    assert not np.all(np.cumsum([0.4, 0.3, 0.2, 0.1]) >= np.cumsum(schmidt(psi).spectrum.padded(4)))
    assert locc_feasible(psi, phi)
    proto = nielsen_synthesize(psi, phi)
    assert verify_protocol(proto, psi, phi).passed
    assert len(proto.alice_kraus) <= 4


def test_nielsen_target_with_close_small_eigenvalues():
    """Target eigenvalues 2e-11 and 1e-11 lie within sorted_eigh's 1e-10
    cluster gap yet differ; the mixing must still pair each eigenvector
    with its own eigenvalue, or completeness on the 1e-4 source weight
    breaks (residual ~1e-8)."""
    rng = np.random.default_rng(0)
    psi = weighted_state([0.4, 0.3, 0.2, 0.0999, 0.0001])
    phi = weighted_state([0.5, 0.3, 0.2 - 3e-11, 2e-11, 1e-11])
    phi = pure_state((5, 5), apply_local(phi, haar_unitary(5, rng), haar_unitary(5, rng)))
    assert verify_protocol(nielsen_synthesize(psi, phi), psi, phi).passed


def test_nielsen_refuses_when_clipping_breaks_completeness():
    """Clipping a 4e-11 majorization miss onto a 1e-11 source eigenvalue
    cannot give a complete instrument: refused, naming the residual."""
    psi = state_from_schmidt(np.sqrt([0.5, 0.5 - 1e-11, 1e-11]))
    phi = state_from_schmidt(np.sqrt([0.5, 0.5 - 5e-11, 5e-11]))
    assert locc_feasible(psi, phi)
    with pytest.raises(NumericalFailureError, match=r"completeness residual \S+ exceeds 1e-09"):
        nielsen_synthesize(psi, phi)


def test_decision_synthesis_coherence_500_pairs():
    """locc_feasible(psi, phi) iff nielsen_synthesize succeeds; synthesized
    protocols verify."""
    rng = np.random.default_rng(20260817)
    dims_pool = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (4, 6)]
    checked_feasible = 0
    for trial in range(500):
        dims = dims_pool[trial % len(dims_pool)]
        if trial % 2 == 0:
            psi, phi = random_feasible_pair(rng, dims, dims)
        else:
            psi = random_pure_state(dims, rng)
            phi = random_pure_state(dims, rng)
        decided = locc_feasible(psi, phi)
        try:
            proto = nielsen_synthesize(psi, phi)
            built = True
        except InfeasibleError:
            built = False
        assert built == decided
        if built and trial % 10 == 0:
            assert verify_protocol(proto, psi, phi).passed
            checked_feasible += 1
    assert checked_feasible >= 20


def test_monotone_consistency_on_synthesized_transitions():
    """Entropy (von Neumann and Renyi 0.5, 2), the top Schmidt weight proxy,
    and the Schmidt rank all behave monotonically on feasible transitions."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        psi, phi = random_feasible_pair(rng, (5, 5), (5, 5))
        nielsen_synthesize(psi, phi)  # must succeed
        sp = schmidt(psi).spectrum
        st_ = schmidt(phi).spectrum
        ep = entanglement_entropies(sp, alphas=(0.5, 2.0))
        et = entanglement_entropies(st_, alphas=(0.5, 2.0))
        assert et.H <= ep.H + 1e-9
        assert et.H_alpha[0.5] <= ep.H_alpha[0.5] + 1e-9
        assert et.H_alpha[2.0] <= ep.H_alpha[2.0] + 1e-9
        assert st_.values[0] >= sp.values[0] - 1e-9  # H_inf proxy
        assert st_.rank <= sp.rank


def test_verify_protocol_zeroed_kraus():
    b = bell_state(2)
    t = weighted_state([0.7, 0.3])
    proto = nielsen_synthesize(b, t)
    broken = OneWayProtocol(
        (proto.alice_kraus[0], np.zeros_like(proto.alice_kraus[1])),
        proto.bob_unitaries,
    )
    rep = verify_protocol(broken, b, t)
    assert not rep.passed
    assert abs((1.0 - rep.probability_sum) - 0.5) < 1e-9  # the zeroed branch's p_x
    assert rep.completeness_residual > 0.1


def test_verify_protocol_shape_mismatch():
    b = bell_state(2)
    proto = nielsen_synthesize(b, b)
    with pytest.raises(InvalidInputError):
        verify_protocol(proto, b, bell_state(3))


@pytest.mark.parametrize(
    "alice, bob, message",
    [
        ((), (), "must pair up, one or more: got 0 and 0"),
        ((P0, P1), (EYE2,), "must pair up, one or more: got 2 and 1"),
        ((P0,), (np.ones(2),), "bob_unitaries must be matrices of one shape, got [(2,)]"),
        ((np.ones((1, 2, 2)),), (EYE2,), "alice_kraus must be matrices of one shape"),
        ((P0, np.eye(3)), (EYE2, EYE2), "alice_kraus must be matrices of one shape, "
                                        "got [(2, 2), (3, 3)]"),
        ((P0, P1), (EYE2, np.ones((2, 3))), "bob_unitaries must be matrices of one shape, "
                                            "got [(2, 2), (2, 3)]"),
    ],
    ids=["empty", "unpaired", "vector", "stack", "mixed-alice", "mixed-bob"],
)
def test_one_way_protocol_refuses_a_malformed_shape(alice, bob, message):
    """A one-way protocol is built only from paired matrices, one shape per
    side: verify_protocol on 2 Kraus operators and 1 Bob operator can no
    longer drop the unpaired branch."""
    with pytest.raises(InvalidInputError) as info:
        OneWayProtocol(alice, bob)
    assert message in str(info.value)


# --------------------------------------------------------------------------- #
#                                 simulation                                   #
# --------------------------------------------------------------------------- #


def test_instrument_validation():
    instrument([P0, P1])  # fine
    with pytest.raises(InvalidInputError):
        instrument([])
    with pytest.raises(InvalidInputError):
        instrument([P0, np.eye(3)])
    with pytest.raises(InvalidInputError):
        instrument([P0, P1], labels=["x", "x"])
    with pytest.raises(InvalidInputError):
        instrument([1.1 * EYE2])


@pytest.mark.parametrize("label", ["a,b", ""], ids=["separator", "empty"])
def test_instrument_refuses_a_label_that_breaks_a_history(label):
    """Histories are joined with HISTORY_SEP into JSON keys and CSV cells, so
    a label that is empty or holds the separator would not come back."""
    with pytest.raises(InvalidInputError) as info:
        instrument([P0, P1], labels=[label, "z"])
    assert repr(label) in str(info.value) and repr(locc.HISTORY_SEP) in str(info.value)


def test_simulate_empty_protocol():
    b = bell_state(2)
    leaves = simulate(locc_protocol([]), b)
    assert len(leaves) == 1
    assert leaves[0].probability == 1.0
    assert np.array_equal(leaves[0].state.amplitudes, b.amplitudes)
    assert leaves[0].history == ()


def test_simulate_bob_z_on_bell():
    leaves = simulate(
        locc_protocol([locc_round("B", {(): instrument([P0, P1], ["0", "1"])})]),
        bell_state(2),
    )
    assert len(leaves) == 2
    assert abs(leaves[0].probability - 0.5) < 1e-12
    assert abs(leaves[1].probability - 0.5) < 1e-12
    assert np.abs(np.abs(leaves[0].state.amplitudes) - product_basis_state(2, 2, 0, 0).amplitudes).max() < 1e-12
    assert np.abs(np.abs(leaves[1].state.amplitudes) - product_basis_state(2, 2, 1, 1).amplitudes).max() < 1e-12
    assert leaves[0].history == ("0",)
    assert leaves[1].history == ("1",)


def teleport_style_protocol():
    """Alice measures in the +/- basis while resetting her side to |0>,
    Bob rotates his conditional state back: both leaves land on |00>."""
    k_plus = np.array([[1.0, 1.0], [0.0, 0.0]]) / math.sqrt(2)
    k_minus = np.array([[1.0, -1.0], [0.0, 0.0]]) / math.sqrt(2)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    r1 = locc_round("A", {(): instrument([k_plus, k_minus], ["+", "-"])})
    r2 = locc_round(
        "B",
        {
            ("+",): instrument([hadamard], ["h"]),
            ("-",): instrument([SWAP @ hadamard], ["xh"]),
        },
    )
    return locc_protocol([r1, r2])


def test_simulate_teleport_style_correction():
    leaves = simulate(teleport_style_protocol(), bell_state(2))
    assert len(leaves) == 2
    want = product_basis_state(2, 2, 0, 0).amplitudes
    for leaf in leaves:
        assert abs(leaf.probability - 0.5) < 1e-12
        phase = np.vdot(want, leaf.state.amplitudes)
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(leaf.state.amplitudes - phase * want).max() < 1e-10
    assert abs(sum(l.probability for l in leaves) - 1.0) < 1e-8


def test_simulate_subnormalized_completion():
    """A lone sqrt(0.6)-unitary outcome gains a deterministic complement."""
    u = haar_unitary(2, 12)
    prot = locc_protocol([locc_round("A", {(): instrument([math.sqrt(0.6) * u], ["u"])})])
    leaves = simulate(prot, bell_state(2))
    assert [l.history[-1] for l in leaves] == ["u", "__rest__"]
    assert abs(leaves[0].probability - 0.6) < 1e-10
    assert abs(leaves[1].probability - 0.4) < 1e-10


@pytest.mark.parametrize("run", [simulate, one_way_reduce], ids=["simulate", "one_way_reduce"])
def test_simulate_error_paths(run):
    b = bell_state(2)
    ident = instrument([EYE2], ["0"])
    # depth cap
    rounds = [locc_round("A", {("0",) * k: ident}) for k in range(17)]
    with pytest.raises(InvalidInputError, match="exceeds the cap"):
        run(locc_protocol(rounds), b)
    # missing history for a reachable branch
    prot = locc_protocol(
        [
            locc_round("B", {(): instrument([P0, P1], ["0", "1"])}),
            locc_round("A", {("0",): ident}),
        ]
    )
    with pytest.raises(InvalidInputError, match="no instrument for reachable history"):
        run(prot, b)
    # wrong dimension
    with pytest.raises(InvalidInputError, match="acts on dimension 3"):
        run(locc_protocol([locc_round("A", {(): instrument([np.eye(3)])})]), b)
    # super-normalized instrument smuggled past the constructor
    bad = Instrument((1.2 * EYE2,), ("0",))
    with pytest.raises(InvalidInputError, match="super-normalized"):
        run(locc_protocol([locc_round("A", {(): bad})]), b)
    # reserved label
    sub = instrument([math.sqrt(0.5) * EYE2], ["__rest__"])
    with pytest.raises(InvalidInputError, match="reserved"):
        run(locc_protocol([locc_round("A", {(): sub})]), b)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instrument([math.nan * EYE2], ["0"]), "must be finite, got NaN/Inf"),
        (lambda: instrument([np.array([[1.0, math.inf], [0.0, 0.0]])]),
         "must be finite, got NaN/Inf"),
        (lambda: locc_round("A", {(): instrument([EYE2]), ("0",): instrument([np.eye(3)])}),
         "one dimension, got [2, 3]"),
        (lambda: locc_round("B", {}), "one dimension, got []"),
        (lambda: locc_round("A", {("z",): Instrument([1.2 * EYE2], ["0"])}), "super-normalized"),
        (lambda: locc_round("A", {(): instrument([0.5 * EYE2], ["__rest__"])}), "reserved"),
        (lambda: locc_protocol([locc_round("A", {("0",) * k: instrument([EYE2])})
                                for k in range(17)]),
         "protocol depth 17 exceeds the cap 16"),
        (lambda: locc_round("A", {"ab": instrument([EYE2])}),
         "history key 'ab' must be a tuple of label strings"),
        (lambda: locc_round("A", {(0,): instrument([EYE2]), ("0",): instrument([SWAP])}),
         "history key (0,) must be a tuple of label strings"),
    ],
    ids=["nan-kraus", "inf-kraus", "two-dimensions", "no-instrument", "super-normalized",
         "reserved-label", "depth-17", "string-history", "integer-label-history"],
)
def test_protocol_parts_are_checked_when_built(build, message):
    """An instrument, round or protocol that no run could complete is
    refused when it is built, also on a history no state reaches."""
    with pytest.raises(InvalidInputError) as info:
        build()
    assert message in str(info.value)


def test_simulate_and_reduce_complete_no_instrument_again(monkeypatch):
    """A round completes its instruments when it is built; running the
    protocol only looks the completed rows up."""
    u = haar_unitary(2, 12)
    prot = locc_protocol([
        locc_round("B", {(): instrument([P0, P1], ["0", "1"])}),
        locc_round("A", {("0",): instrument([math.sqrt(0.6) * u], ["u"]),
                         ("1",): instrument([SWAP], ["x"])}),
    ])
    psi = random_pure_state((2, 2), 5)
    leaves, reduced = simulate(prot, psi), one_way_reduce(prot, psi)

    def refuse(*args):
        raise AssertionError("an instrument was checked after its round was built")

    monkeypatch.setattr(locc, "_completions", refuse)
    again = simulate(prot, psi)
    assert [l.history for l in again] == [("0", "u"), ("0", "__rest__"), ("1", "x")]
    assert [l.probability for l in again] == [l.probability for l in leaves]
    assert all(np.array_equal(a.state.amplitudes, b.state.amplitudes)
               for a, b in zip(again, leaves))
    twice = one_way_reduce(prot, psi)
    assert all(map(np.array_equal, twice.alice_kraus, reduced.alice_kraus))
    assert all(map(np.array_equal, twice.bob_unitaries, reduced.bob_unitaries))


# --------------------------------------------------------------------------- #
#                              one-way reduction                               #
# --------------------------------------------------------------------------- #


def assert_reduction_matches(protocol, psi, p_tol=1e-8, o_tol=1e-7):
    leaves = simulate(protocol, psi)
    reduced = one_way_reduce(protocol, psi)
    mirrored = one_way_leaves(reduced, psi)
    assert len(leaves) == len(mirrored)
    for leaf, (p, vec) in zip(leaves, mirrored):
        assert abs(leaf.probability - p) < p_tol
        assert abs(np.vdot(leaf.state.amplitudes, vec)) >= 1.0 - o_tol
    total = sum(a.conj().T @ a for a in reduced.alice_kraus)
    supp = support_projector(marginal(psi, "A"))
    assert np.abs(np.linalg.eigvalsh(total - supp)).max() < 1e-9


def test_one_way_reduce_already_one_way():
    psi = random_pure_state((2, 2), 9)
    prot = locc_protocol([locc_round("A", {(): instrument([P0, P1], ["0", "1"])})])
    assert_reduction_matches(prot, psi)


def test_one_way_reduce_bob_then_alice_on_bell():
    prot = locc_protocol(
        [
            locc_round("B", {(): instrument([P0, P1], ["0", "1"])}),
            locc_round("A", {("0",): instrument([EYE2], ["i"]), ("1",): instrument([SWAP], ["x"])}),
        ]
    )
    assert_reduction_matches(prot, bell_state(2))


def test_one_way_reduce_teleport_style():
    assert_reduction_matches(teleport_style_protocol(), bell_state(2))


def test_one_way_reduce_three_round_alternating():
    rng = np.random.default_rng(31)
    u = haar_unitary(3, rng)
    proj = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
    coarse = [proj[0] + proj[1], proj[2]]
    v = haar_unitary(3, rng)
    mix = [math.sqrt(0.3) * v, math.sqrt(0.7) * haar_unitary(3, rng)]
    hists1 = [("0",), ("1",)]
    r1 = locc_round("B", {(): instrument(coarse, ["0", "1"])})
    r2 = locc_round("A", {h: instrument(mix, ["a", "b"]) for h in hists1})
    hists2 = [h + (l,) for h in hists1 for l in ("a", "b")]
    r3 = locc_round("B", {h: instrument(proj, ["0", "1", "2"]) for h in hists2})
    psi = random_pure_state((3, 3), rng)
    assert_reduction_matches(locc_protocol([r1, r2, r3]), psi)


def random_scripted_protocol(rng, d, n_rounds):
    """Seeded protocol over (d, d): projective, coarse, mixed-unitary, and
    subnormalized instruments, parties alternating from a random start."""
    def make_instrument():
        kind = rng.integers(0, 4)
        if kind == 0:
            u = haar_unitary(d, rng)
            ks = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
            return instrument(ks, [str(i) for i in range(d)]), [str(i) for i in range(d)]
        if kind == 1:
            u = haar_unitary(d, rng)
            first = u[:, :2] @ u[:, :2].conj().T
            rest = np.eye(d) - first
            return instrument([first, rest], ["lo", "hi"]), ["lo", "hi"]
        if kind == 2:
            q = float(rng.uniform(0.2, 0.8))
            ks = [math.sqrt(q) * haar_unitary(d, rng), math.sqrt(1 - q) * haar_unitary(d, rng)]
            return instrument(ks, ["p", "q"]), ["p", "q"]
        ks = [math.sqrt(0.6) * haar_unitary(d, rng)]
        return instrument(ks, ["s"]), ["s", "__rest__"]

    parties = ["A", "B"] if rng.integers(0, 2) == 0 else ["B", "A"]
    histories = [()]
    rounds = []
    for r in range(n_rounds):
        branches = {}
        new_histories = []
        for h in histories:
            instr, labels = make_instrument()
            branches[h] = instr
            new_histories.extend(h + (lab,) for lab in labels)
        rounds.append(locc_round(parties[r % 2], branches))
        histories = new_histories
    return locc_protocol(rounds)


def test_one_way_reduce_fifty_protocol_corpus():
    rng = np.random.default_rng(424242)
    for trial in range(50):
        d = 2 + trial % 2
        n_rounds = 1 + trial % 3
        prot = random_scripted_protocol(rng, d, n_rounds)
        psi = random_pure_state((d, d), rng)
        assert_reduction_matches(prot, psi)


def test_one_way_reduce_rank_two_bob_projector():
    """A rank-2 Bob projector on a generic d = 4 state mirrors into Alice's
    side; the polar factor of Bob's branch operator comes from its SVD, so
    the noise of a square root of eigenvalues cannot reach the tolerance."""
    rng = np.random.default_rng(295)
    u = haar_unitary(4, rng)
    first = u[:, :2] @ u[:, :2].conj().T
    prot = locc_protocol(
        [locc_round("B", {(): instrument([first, np.eye(4) - first], ["lo", "hi"])})]
    )
    assert_reduction_matches(prot, random_pure_state((4, 4), rng))


def test_mirror_guard_rejects_amplifying_operator():
    """The mirroring step refuses when mass hidden below the Schmidt cutoff
    is amplified past tolerance (only malformed, non-contractive operators
    can do this)."""
    eps = 1e-13
    sigma = state_from_schmidt([math.sqrt(1 - eps**2), eps])
    blowup = np.array([[0.0, 1e6], [0.0, 0.0]])
    with pytest.raises(NotReducibleError):
        _mirror_bob(sigma.amplitudes, (2, 2), blowup)


# --------------------------------------------------------------------------- #
#                                   SLOCC                                      #
# --------------------------------------------------------------------------- #


def test_slocc_by_hand():
    b = bell_state(2)
    t = weighted_state([0.7, 0.3])
    res = slocc(b, t)
    assert res.feasible
    assert abs(res.success_prob - 5.0 / 7.0) < 1e-12
    back = slocc(t, b)
    assert back.feasible
    assert abs(back.success_prob - 0.6) < 1e-12
    none = slocc(product_basis_state(2, 2), b)
    assert none.feasible is False
    assert none.filter is None
    assert none.success_prob == 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_slocc_filter_exactness(seed):
    """a_A psi, renormalized, overlaps the target to 1e-9; the reported
    success probability is the exact output mass; the filter is contractive
    with operator norm 1."""
    rng = np.random.default_rng(seed)
    psi = random_pure_state((3, 3), rng)
    phi = random_pure_state((3, 3), rng)
    res = slocc(psi, phi)
    assert res.feasible
    out = apply_local(psi, res.filter.op_A, res.filter.op_B)
    mass = float(np.vdot(out, out).real)
    assert abs(mass - res.success_prob) < 1e-10
    overlap = abs(np.vdot(phi.amplitudes, out / math.sqrt(mass)))
    assert overlap >= 1.0 - 1e-9
    top = float(np.linalg.svd(res.filter.op_A, compute_uv=False).max())
    assert abs(top - 1.0) < 1e-12


def test_slocc_cannot_raise_a_rank_lost_to_rounding():
    """Schmidt coefficients (0.8, 0.6, 0) in Haar frames have rank 2 though
    the SVD's third coefficient is rounding, not 0; SLOCC cannot reach the
    rank-3 Bell state."""
    m = haar_unitary(3, 0) @ np.diag([0.8, 0.6, 0.0]) @ haar_unitary(3, 100).T
    res = slocc(pure_state((3, 3), m.ravel()), bell_state(3))
    assert (res.feasible, res.filter, res.success_prob) == (False, None, 0.0)


def test_slocc_keeps_a_small_resolved_coefficient():
    """A Schmidt coefficient of 3.2e-7 is far above rounding, so the state
    has rank 2 and SLOCC reaches Bell_2 with probability 2 * 1e-13."""
    psi = state_from_schmidt([math.sqrt(1.0 - 1e-13), math.sqrt(1e-13)])
    res = slocc(psi, bell_state(2))
    assert res.feasible is True
    assert res.success_prob == pytest.approx(2e-13, rel=1e-9)


def test_slocc_rank_deficient_target():
    psi = bell_state(3)
    phi = weighted_state([0.8, 0.2], dims=(3, 3))
    res = slocc(psi, phi)
    assert res.feasible
    out = apply_local(psi, res.filter.op_A, res.filter.op_B)
    mass = float(np.vdot(out, out).real)
    assert abs(mass - res.success_prob) < 1e-10
    assert abs(abs(np.vdot(phi.amplitudes, out / math.sqrt(mass))) - 1.0) < 1e-9


# --------------------------------------------------------------------------- #
#                            one-shot entanglement                             #
# --------------------------------------------------------------------------- #


def one_shot_oracle(values, n_cap=8):
    """Feasibility family: n works iff S_k <= k/n for every k <= n."""
    partial = np.cumsum(values)
    best = 1
    for n in range(1, n_cap + 1):
        ok = True
        for k in range(1, n + 1):
            s_k = partial[min(k, len(values)) - 1]
            if s_k > k / n + 1e-12:
                ok = False
                break
        if ok:
            best = n
    return best


def test_one_shot_by_hand():
    assert one_shot_entanglement(bell_state(2)).n_max == 2
    assert one_shot_entanglement(bell_state(2)).ebits == 1.0
    assert one_shot_entanglement(product_basis_state(3, 3)).n_max == 1
    assert one_shot_entanglement(product_basis_state(3, 3)).ebits == 0.0
    assert one_shot_entanglement(weighted_state([0.5, 0.25, 0.25])).n_max == 2


def test_one_shot_flat_spectra():
    for d in range(1, 7):
        assert one_shot_entanglement(bell_state(d)).n_max == d


def test_one_shot_closed_form_equals_brute_force():
    """Exhaustive agreement for d <= 5 (n <= 8 covers every reachable value)."""
    rng = np.random.default_rng(55)
    for trial in range(300):
        d = 1 + trial % 5
        w = rng.dirichlet(np.ones(d) * rng.uniform(0.3, 3.0))
        psi = weighted_state(w, dims=(5, 5))
        got = one_shot_entanglement(psi).n_max
        assert got <= 8
        assert got == one_shot_oracle(np.sort(w)[::-1])
    # near-flat edge: epsilon above uniform drops n_max below d
    for d in (2, 3, 4, 5):
        w = np.full(d, 1.0 / d)
        w[0] += 1e-6
        w /= w.sum()
        psi = weighted_state(w, dims=(5, 5))
        assert one_shot_entanglement(psi).n_max == one_shot_oracle(np.sort(w)[::-1])

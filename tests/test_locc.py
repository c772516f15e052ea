"""Tests for LOCC decisions, mixing decompositions, one-way synthesis,
protocol simulation, one-way reduction, SLOCC, and one-shot entanglement.

Oracles: direct reconstruction for mixing decompositions, verify_protocol
for synthesized protocols, simulate-equality for one-way reduction, the
partial-sum inequality family for the one-shot closed form.
"""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import io as eio
from entlab import locc
from entlab.cli import emit_sweep
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
    one_way_branches,
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
from entlab.tolerances import COMPLETENESS_TOL

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


def permutohedron_pair(m, shape):
    """Seeded descending source weights a and a target b that majorizes it:
    generic b ~ a^2; zero_padded the same on the top half and 0 below;
    tie_heavy one value, then the means of consecutive triples, of a^(2^k),
    k raised until b majorizes a; flat_source the tie_heavy target with
    every source weight 1/m, whose ties leave the step's choice of the
    stopping set to the last bit.  Built from products, quotients and
    running sums only, so the inputs carry the same bits on every platform."""
    a = np.sort(np.random.default_rng([m, 23]).random(m))[::-1]
    a /= math.fsum(a)
    if shape == "generic":
        b = a * a
    elif shape == "zero_padded":
        b = np.r_[a[: m // 2] ** 2, np.zeros(m - m // 2)]
    else:
        starts = np.r_[0, np.arange(1, m, 3)]
        sizes = np.diff(np.r_[starts, m])
        sharp = a / a[0]
        while True:
            sharp = sharp * sharp
            b = np.repeat(np.add.reduceat(sharp, starts) / sizes, sizes)
            if np.all(np.cumsum(b / math.fsum(b))[:-1] >= np.cumsum(a)[:-1]):
                break
        if shape == "flat_source":
            a = np.full(m, 1.0 / m)
    return a, b / math.fsum(b)


# sha256 of the weights (float.hex) and permutations of each case, as the
# earlier step loop computed them; a faster loop must keep every bit
PERMUTOHEDRON_DIGESTS = {
    (4, "generic"): "fe897df140b7b386970a6a614d5107b3183e835f7339c34d3a7ecc5379824552",
    (4, "zero_padded"): "9fa6b82b71176d292bfd36354786689ed37418a538213110ed0b6c38a396c2a4",
    (4, "tie_heavy"): "1dcecbd7a5946f12ae5773ac7baf15c759b97e6339da37be21af6fcfa036ea76",
    (4, "flat_source"): "83363419c5b19f76a548b498ff18792d607f5cbaf795a3e4f522eef3127e98bd",
    (8, "generic"): "ba699ac1023518322bb2e4ce381bc4773fb81fcf485eecface13f7da4d1dbcef",
    (8, "zero_padded"): "ed36b5fefbf82c2497eba5f544c61e4b2264c23e37c1bb8b23b40f87c7a3c9ab",
    (8, "tie_heavy"): "d7e0e9da986610c12710fffc93c981a244ef1f5608cf739dbba9f2a82d777e21",
    (8, "flat_source"): "a7154ee76a7c4bb42d16b9fa27fee88cac3755c85c65a1b377ff132f20eebf92",
    (16, "generic"): "fc1d7eb268f15e42d8092a63ebdb75810e37436e62deccfbc553bb2751942dbd",
    (16, "zero_padded"): "3bd525982f927792996fe658d66739e997abf81036a5616d1f0be47aa8b9550f",
    (16, "tie_heavy"): "074968918dabf40eec04ab82b77b5ba6b34a68265ae63a97a54ee98db9a96665",
    (16, "flat_source"): "8f85cec7d7c69525bf5929f53a043d7e2455a3f34d3604a9fc9521c9d05be6e9",
    (64, "generic"): "84e3e614a430cb7a2d57d5e3f6bc4554dc69d96c31b27f135acb2854b01a4674",
    (64, "zero_padded"): "d51882470c5ac0c92fc1ebf2c7e8656e2afa460c6f919d646dffef24e3358044",
    (64, "tie_heavy"): "ac9bfddfecf4a6fb41fbdaa78e16be9d13c9da545232bad96350174e02bd67aa",
    (64, "flat_source"): "20c21f85b2b19b708a1f8ab45f77a7f70d920c63689ef97f3d769c456f2db08c",
    (256, "generic"): "11c56480faa33a3312af5d3c65003cb373d5b976185ad0ae691cfc4cfa0a45e2",
    (256, "zero_padded"): "0908a7c3380f16302e67476cca04be4425a8d118a3c68a48c7487c96362c79f4",
    (256, "tie_heavy"): "02df14c2a50217e8635d43b25e9b6b515736266ffcaf60f6e0e3f925f4014351",
    (256, "flat_source"): "b0f84aa27f809bfdbde1a38708f79aa3b8e92f0a3ac3537d25fec233af451391",
}


@pytest.mark.parametrize("shape", ["generic", "zero_padded", "tie_heavy", "flat_source"])
@pytest.mark.parametrize("m", [4, 8, 16, 64, 256])
def test_permutohedron_terms_bit_for_bit(m, shape):
    """The mixing terms keep every bit: each step's operands and the order
    of its floating-point operations are pinned, not only the mixture they
    rebuild."""
    digest = hashlib.sha256()
    for w, perm in locc._permutohedron_terms(*permutohedron_pair(m, shape)):
        digest.update(f"{float(w).hex()} {perm.tolist()}\n".encode())
    assert digest.hexdigest() == PERMUTOHEDRON_DIGESTS[m, shape]


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
    """Target eigenvalues 2e-11 and 1e-11 are close yet distinct; the mixing
    must still pair each eigenvector with its own eigenvalue, or
    completeness on the 1e-4 source weight breaks (residual ~1e-8)."""
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


def test_verify_protocol_fails_when_bob_operators_lose_norm():
    """Bob's operators scaled by 0.5 keep Alice's side complete and every
    branch on the target, but each branch keeps a quarter of its mass: the
    probabilities are those after both operators, so verification fails."""
    psi = bell_state(2)
    phi = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    proto = nielsen_synthesize(psi, phi)
    scaled = OneWayProtocol(proto.alice_kraus, tuple(0.5 * v for v in proto.bob_unitaries))
    rep = verify_protocol(scaled, psi, phi)
    assert not rep.passed
    assert abs(rep.probability_sum - 0.25) <= 1e-12
    assert rep.probabilities == tuple(b.probability for b in one_way_branches(scaled, psi))
    assert rep.completeness_residual <= COMPLETENESS_TOL
    assert all(o >= 1 - 1e-8 for o in rep.overlaps)


def _verify_pair(name):
    if name == "bell-phi73":
        return bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    if name == "rectangular":
        return (random_pure_state((4, 4), 8),
                state_from_schmidt([math.sqrt(0.8), math.sqrt(0.2)], dims=(2, 3)))
    return sized_pair(16, name)


@pytest.mark.parametrize("name", ["bell-phi73", "generic", "tie_heavy", "zero_padded", "rectangular"])
def test_verify_protocol_probabilities_are_the_run_branches(name):
    """verify_protocol has no probability rule of its own: its probabilities
    are one_way_branches' to the bit."""
    psi, phi = _verify_pair(name)
    proto = nielsen_synthesize(psi, phi)
    rep = verify_protocol(proto, psi, phi)
    assert rep.passed
    assert list(rep.probabilities) == [b.probability for b in one_way_branches(proto, psi)]


@pytest.mark.parametrize("shape", ["generic", "tie_heavy", "zero_padded"])
def test_verify_protocol_peak_is_one_branch_buffer(shape):
    """At d = 128 some branches are pruned; the kept ones are moved down
    inside the n x d x d branch buffer, so one verify_protocol call peaks
    within 1.1 times that buffer (a copy of the kept rows would add up to
    another buffer)."""
    d = 128
    psi, phi = sized_pair(d, shape)
    proto = nielsen_synthesize(psi, phi)
    buffer = len(proto.alice_kraus) * d * d * 16
    tracemalloc.start()
    try:
        rep = verify_protocol(proto, psi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert len(rep.probabilities) < len(proto.alice_kraus)
    assert peak <= 1.1 * buffer


def test_verify_protocol_refuses_a_non_finite_branch():
    eye = np.eye(2)
    protocol = OneWayProtocol((P0, np.diag([0.0, math.nan])), (eye, eye))
    with pytest.raises(InvalidInputError, match="branch 1 has probability nan"):
        verify_protocol(protocol, bell_state(2), bell_state(2))


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


def test_one_way_protocol_runs_operators_given_as_lists():
    """Nested lists become complex arrays that the runners can run; text or
    object entries are refused, naming the side; numeric arrays are kept."""
    b, target = bell_state(2), product_basis_state(2, 2)
    synth = nielsen_synthesize(b, target)
    arrays = OneWayProtocol(synth.alice_kraus, synth.bob_unitaries)
    assert arrays.alice_kraus is synth.alice_kraus and arrays.bob_unitaries is synth.bob_unitaries
    lists = OneWayProtocol(*(tuple(op.tolist() for op in ops)
                             for ops in (synth.alice_kraus, synth.bob_unitaries)))
    assert isinstance(lists.alice_kraus, tuple) and isinstance(lists.bob_unitaries, tuple)
    assert all(op.dtype == complex for op in lists.alice_kraus + lists.bob_unitaries)
    assert [leaf.probability for leaf in one_way_branches(lists, b)] == \
        [leaf.probability for leaf in one_way_branches(synth, b)]
    assert verify_protocol(lists, b, target).passed
    for alice, bob, side in [(([["1", "0"], ["0", "0"]],), (EYE2,), "alice_kraus"),
                             ((P0,), (np.array([["1", "0"], ["0", "1"]]),), "bob_unitaries"),
                             (([[object(), 0], [0, 0]],), (EYE2,), "alice_kraus")]:
        with pytest.raises(InvalidInputError, match=f"^{side} must be an array of numbers"):
            OneWayProtocol(alice, bob)


@pytest.mark.parametrize("run", [simulate, one_way_reduce], ids=["simulate", "one_way_reduce"])
@pytest.mark.parametrize("bad", [object(), "x", EYE2], ids=["object", "text", "matrix"])
def test_locc_protocol_refuses_rounds_that_are_not_rounds(run, bad):
    good = locc_round("A", {(): instrument([EYE2])})
    with pytest.raises(InvalidInputError, match=f"^round 1 must be a LoccRound, got {type(bad).__name__}$"):
        run(locc_protocol([good, bad]), bell_state(2))


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


def test_a_complete_but_loose_instrument_gains_no_completion():
    """sum k^dag k = I + 0.6e-9 [[1, 1], [1, -1]]: the gap's absolute row
    sums (1.2e-9) exceed ``COMPLETENESS_TOL``, so it takes the eigh, but its
    eigenvalues (+-0.85e-9) lie within it, so it is complete: no ``__rest__``
    outcome, its operators kept bit for bit, one leaf per outcome."""
    vals, vecs = np.linalg.eigh(EYE2 + 0.6e-9 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    kraus = np.array([P0 @ root, P1 @ root])
    gap = EYE2 - sum(k.T @ k for k in kraus)
    assert np.abs(gap).sum(axis=1).max() > COMPLETENESS_TOL
    assert np.abs(np.linalg.eigvalsh(gap)).max() <= COMPLETENESS_TOL
    rnd = locc_round("A", {(): instrument(kraus, ["a", "b"])})
    assert rnd._labels == ("a", "b")
    assert np.array_equal(rnd._kraus, kraus)
    leaves = simulate(locc_protocol([rnd]), bell_state(2))
    assert [leaf.history for leaf in leaves] == [("a",), ("b",)]


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
        (lambda: Instrument([], []), "instrument needs at least one outcome"),
        (lambda: Instrument([EYE2, np.eye(3)], ["0", "1"]),
         "instrument Kraus operators must be equal square matrices"),
        (lambda: Instrument([P0, P1], ["0", "0"]),
         "labels must be distinct and match the outcome count"),
        (lambda: Instrument([EYE2], [""]), "label '' must be non-empty and free of ','"),
        (lambda: locc_round("C", {(): instrument([EYE2])}), "party must be 'A' or 'B', got 'C'"),
        (lambda: locc_round("A", {(): EYE2}), "branch values must be Instruments"),
    ],
    ids=["nan-kraus", "inf-kraus", "two-dimensions", "no-instrument", "super-normalized",
         "reserved-label", "depth-17", "string-history", "integer-label-history",
         "no-outcome", "unequal-matrices", "repeated-label", "empty-label", "party-c",
         "matrix-branch"],
)
def test_protocol_parts_are_checked_when_built(build, message):
    """An instrument, round or protocol that no run could complete is
    refused when it is built, also on a history no state reaches."""
    with pytest.raises(InvalidInputError) as info:
        build()
    assert message in str(info.value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instrument([[["1", "0"], ["0", "1"]]], ("a",)),
         "instrument Kraus operators must be an array of numbers: entries of dtype <U1"),
        (lambda: Instrument([[[1, 0], [0, 10**400]]], ("a",)),
         "instrument Kraus operators must be an array of numbers"),
        (lambda: instrument(5), "instrument Kraus operators must be a sequence of matrices, got int"),
        (lambda: Instrument(None, ("a",)),
         "instrument Kraus operators must be a sequence of matrices, got NoneType"),
        (lambda: Instrument([EYE2], None), "instrument labels must be a sequence of strings"),
        (lambda: OneWayProtocol(5, 5), "alice_kraus must be a sequence of matrices, got int"),
        (lambda: locc.LoccRound("A", 5),
         "branches must be a mapping from histories to Instruments, got int"),
        (lambda: locc.LoccProtocol(5), "rounds must be a sequence of LoccRounds, got int"),
        (lambda: emit_sweep(5, ["a"]), "sweep rows must be a sequence, got int"),
    ],
    ids=["text-kraus", "huge-int-kraus", "int-kraus", "none-kraus", "none-labels",
         "int-one-way", "int-branches", "int-rounds", "int-sweep-rows"],
)
def test_protocol_constructors_refuse_what_is_not_a_sequence_of_numbers(build, message):
    """Text is not read as numbers, an integer past float64 is refused, and
    an argument of the wrong kind is named, all as ``InvalidInputError``."""
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "kraus, labels, shown",
    [
        ([P0, P1], "01", "'01'"),
        ([EYE2], [None], "[None]"),
        ([EYE2], [0], "[0]"),
        ([EYE2], [1.5], "[1.5]"),
        ([EYE2], [b"a"], "[b'a']"),
    ],
    ids=["bare-string", "none-label", "int-label", "float-label", "bytes-label"],
)
def test_instrument_labels_are_strings_and_never_converted(kraus, labels, shown):
    """Labels are a sequence of strings, as in a document: a bare string is
    not read as one label per character, and None, a number or bytes is
    not turned into its text.  The refusal names the value."""
    message = f"instrument labels must be a sequence of strings, got {shown}"
    for build in (Instrument, instrument):
        with pytest.raises(InvalidInputError) as info:
            build(kraus, labels)
        assert str(info.value) == message


def test_instrument_keeps_string_subclass_labels_as_given():
    """A str subclass such as numpy.str_ is a string: kept, not converted."""
    instr = Instrument(np.stack([P0, P1]), np.array(["a", "b"]))
    assert instr.labels == ("a", "b")
    assert all(type(label) is np.str_ for label in instr.labels)
    text = eio.canonical_json(eio.protocol_to_json(locc_protocol([locc_round("A", {(): instr})])))
    assert eio.protocol_from_json(json.loads(text)).rounds[0].branches[()].labels == ("a", "b")


@pytest.mark.parametrize(
    "build",
    [lambda: Instrument([np.diag([1.0, math.nan])], ["0"]),
     lambda: Instrument(np.array([[[0.5, 0.0], [0.0, math.inf]]]), ("0",)),
     lambda: instrument([math.nan * EYE2])],
    ids=["nan-list", "inf-array", "nan-default-labels"],
)
def test_api_kraus_operators_must_be_finite(build):
    """The API checks finiteness where the operators enter, in
    :class:`Instrument`, with the message it has always given."""
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == "instrument Kraus operators must be finite, got NaN/Inf"


def test_locc_protocol_keeps_its_rounds_as_a_tuple():
    rnd = locc_round("A", {(): instrument([EYE2])})
    assert locc.LoccProtocol([rnd]).rounds == (rnd,)
    assert locc_protocol(r for r in [rnd]).rounds == (rnd,)


@pytest.mark.parametrize(
    "branches, message",
    [
        ({("a", "b"): instrument([EYE2]), ("a,b",): instrument([SWAP])},
         "label 'a,b' in history key ('a,b',) must be non-empty and free of ','"),
        ({("",): instrument([EYE2])}, "label '' in history key ('',) must be non-empty"),
        ({("a",): instrument([EYE2]), ("a", ""): instrument([SWAP])},
         "label '' in history key ('a', '') must be non-empty"),
    ],
    ids=["comma-aliases-two-labels", "empty-label", "empty-second-label"],
)
def test_history_keys_no_outcome_can_carry_are_refused(branches, message):
    """A history is a tuple of outcome labels, so a key whose label no outcome
    may carry is refused when the round is built: written out, ("a,b",)
    would alias ("a", "b") and ("",) would read back as ()."""
    with pytest.raises(InvalidInputError) as info:
        locc_round("B", branches)
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


def test_a_round_keeps_its_own_operators():
    """A round copies its instruments' operators into the one stack it runs,
    and its branches are views of that stack: editing the caller's array
    afterwards changes neither what the round runs nor what it writes.  A
    round read from a document holds its operators once in the same way."""
    arr = np.stack([math.sqrt(0.5) * EYE2, math.sqrt(0.5) * SWAP]).astype(complex)
    rnd = locc_round("A", {(): Instrument(arr, ("a", "b"))})
    prot = locc_protocol([rnd])
    psi = random_pure_state((2, 2), 3)
    before = simulate(prot, psi)
    arr[1] = P0
    written = eio.protocol_to_json(prot)["rounds"][0]["branches"][""]["kraus"]
    assert np.array_equal(written, rnd._kraus)
    assert np.array_equal(rnd._kraus, [math.sqrt(0.5) * EYE2, math.sqrt(0.5) * SWAP])
    after = simulate(prot, psi)
    assert [(b.history, b.probability) for b in after] == [(b.history, b.probability)
                                                           for b in before]
    assert all(np.array_equal(a.state.amplitudes, b.state.amplitudes)
               for a, b in zip(after, before))
    assert all(np.shares_memory(instr.kraus, rnd._kraus) for instr in rnd.branches.values())
    u, v = haar_unitary(2, 21), haar_unitary(2, 22)
    made = locc_protocol([
        locc_round("A", {(): instrument([math.sqrt(0.3) * u, math.sqrt(0.7) * v], ["0", "1"])}),
        locc_round("B", {("0",): instrument([math.sqrt(0.4) * v], ["s"]),
                         ("1",): instrument([P0, P1], ["x", "y"])}),
        locc_round("A", {("0", "s"): instrument([u], ["u"]),
                         ("0", "__rest__"): instrument([SWAP], ["w"]),
                         ("1", "x"): instrument([EYE2], ["i"]),
                         ("1", "y"): instrument([v], ["v"])}),
    ])
    read = eio.protocol_from_json(json.loads(eio.canonical_json(eio.protocol_to_json(made))))
    for rnd in read.rounds:
        assert all(np.shares_memory(instr.kraus, rnd._kraus) for instr in rnd.branches.values())


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

"""Tests for state objects, Schmidt data, distances, fidelity, and the
local-unitary orbit machinery.

The closed-form claims (lu_orbit_fidelity, uhlmann_optimizer, align_unitary)
are each gated by an independent oracle: alternating optimization over local
unitaries, large batches of random unitaries that must never beat the closed
form, and the spectral orbit-distance formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.errors import InvalidInputError, NoConnectorError
from entlab.quantum import (
    DensityMatrix,
    align_unitary,
    apply_local,
    bell_state,
    complete_isometry,
    connect_purifications,
    coupling_constant,
    density,
    fidelity,
    haar_unitaries,
    haar_unitary,
    lu_align_unitaries,
    lu_orbit_fidelity,
    marginal,
    orbit_distance_matrices,
    product_basis_state,
    pure_state,
    purify,
    random_density,
    random_pure_state,
    schmidt,
    sorted_eigh,
    state_from_schmidt,
    trace_distance,
    uhlmann_optimizer,
)
from entlab.spectra import entanglement_entropies, orbit_distance

# --------------------------------------------------------------------------- #
#                         oracles (independent code paths)                     #
# --------------------------------------------------------------------------- #


def alternating_lu_overlap(psi, phi, iters=80, restarts=6, seed=0):
    """Oracle for lu_orbit_fidelity: alternating maximization of
    |<psi|(u (x) v)|phi>| over local unitaries.

    With v fixed the overlap is tr(u K) with K = phiM v^T psiM^dagger, whose
    modulus is maximized at u = V K U_K^dagger (sum of singular values); same
    for v with u fixed.  Each half-step is a global polar update, so the
    sequence of overlaps is non-decreasing.
    """
    pm, fm = psi.matrix, phi.matrix
    dA, dB = psi.dims
    rng = np.random.default_rng(seed)
    best = 0.0
    for r in range(restarts + 1):
        u = np.eye(dA, dtype=complex) if r == 0 else haar_unitary(dA, rng)
        v = np.eye(dB, dtype=complex) if r == 0 else haar_unitary(dB, rng)
        for _ in range(iters):
            k = fm @ v.T @ pm.conj().T
            uu, _, vh = np.linalg.svd(k)
            u = (uu @ vh).conj().T
            k2 = pm.conj().T @ u @ fm
            uu2, _, vh2 = np.linalg.svd(k2)
            v = ((uu2 @ vh2).conj().T).T
        best = max(best, abs(np.einsum("xy,xa,ab,yb->", pm.conj(), u, fm, v)) ** 2)
    return best


def batched_lu_overlaps(psi, phi, count, seed):
    """|<psi|(u_n (x) v_n)|phi>|^2 for `count` random local unitary pairs."""
    us = haar_unitaries(psi.dims[0], count, seed)
    vs = haar_unitaries(psi.dims[1], count, seed + 1)
    ov = np.einsum("xy,nxa,ab,nyb->n", psi.matrix.conj(), us, phi.matrix, vs)
    return np.abs(ov) ** 2


# --------------------------------------------------------------------------- #
#                              constructors                                    #
# --------------------------------------------------------------------------- #


def test_density_validates_and_clips():
    rho = density(np.diag([0.7, 0.3]))
    assert rho.dim == 2
    # tiny negative eigenvalue is clipped and the trace renormalized
    aok = density(np.diag([1.0 + 5e-11, -5e-11]))
    vals = np.linalg.eigvalsh(aok.entries)
    assert vals.min() >= 0.0
    assert abs(np.trace(aok.entries).real - 1.0) < 1e-14
    with pytest.raises(InvalidInputError):
        density(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidInputError):
        density(np.diag([1.1, -0.1]))  # eigenvalue below the clip window
    with pytest.raises(InvalidInputError):
        density(np.diag([0.7, 0.7]))  # trace off
    with pytest.raises(InvalidInputError):
        density(np.ones((2, 3)))


def test_pure_state_validates():
    psi = pure_state((2, 2), [1.0, 0.0, 0.0, 0.0])
    assert psi.dims == (2, 2)
    with pytest.raises(InvalidInputError):
        pure_state((2, 2), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        pure_state((2, 2), [1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        pure_state((2, 2), [1.0, 0.1, 0.0, 0.0])


@pytest.mark.parametrize(
    "build, text",
    [(lambda: pure_state((1, 2), [math.nan, 1.0]), "amplitudes entry 0 is (nan+0j)"),
     (lambda: pure_state((1, 2), [1.0, complex(0.0, math.inf)]), "amplitudes entry 1 is infj"),
     (lambda: density([[1.0, 0.0], [0.0, math.nan]]), "density entry (1, 1) is (nan+0j)"),
     (lambda: density([[1.0, -math.inf], [0.0, 0.0]]), "density entry (0, 1) is (-inf+0j)")],
    ids=["state-nan", "state-inf", "density-nan", "density-minus-inf"],
)
def test_state_constructors_refuse_non_finite_entries(build, text):
    """A NaN amplitude passed the norm test (NaN compares false) and gave an
    all-NaN state; NaN and infinities are refused, naming the entry."""
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == f"{text}, not a finite number"


def test_product_and_bell_constructors():
    p = product_basis_state(2, 3, 1, 2)
    assert p.amplitudes[1 * 3 + 2] == 1.0
    b = bell_state(3)
    assert np.allclose(schmidt(b).coefficients, [1 / math.sqrt(3)] * 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: state_from_schmidt([0.6, 0.8], dims=(1, 2)), r"2 Schmidt coefficients .* \(1, 2\)"),
        (lambda: product_basis_state(2, 2, i=5), r"\(5, 0\) outside dims \(2, 2\)"),
        (lambda: product_basis_state(2, 2, i=-1), r"\(-1, 0\) outside dims \(2, 2\)"),
        (lambda: product_basis_state(2, 3, j=3), r"\(0, 3\) outside dims \(2, 3\)"),
    ],
    ids=["schmidt-too-long", "i-too-large", "i-negative", "j-too-large"],
)
def test_constructors_refuse_indices_outside_dims(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


# --------------------------------------------------------------------------- #
#                               Schmidt data                                   #
# --------------------------------------------------------------------------- #


def test_schmidt_bell_by_hand():
    d = schmidt(bell_state(2))
    assert np.allclose(d.coefficients, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    assert d.rank == 2
    assert np.allclose(d.spectrum.values, (0.5, 0.5), atol=1e-12)


def test_schmidt_weighted_by_hand():
    psi = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    d = schmidt(psi)
    assert np.allclose(d.coefficients, [math.sqrt(0.7), math.sqrt(0.3)], atol=1e-12)


def test_schmidt_product_state_rank_one():
    d = schmidt(product_basis_state(3, 4, 2, 1))
    assert d.rank == 1
    assert d.spectrum.values == (1.0,)


def rotated_rank_two_state():
    """Schmidt coefficients (0.8, 0.6, 0) in Haar frames; the SVD returns a
    third coefficient of rounding size instead of 0."""
    m = haar_unitary(3, 0) @ np.diag([0.8, 0.6, 0.0]) @ haar_unitary(3, 100).T
    return pure_state((3, 3), m.ravel())


def test_schmidt_rank_and_spectrum_count_the_support():
    """A coefficient at or below ``SUPPORT_CUT`` times the largest is outside
    the support: rank and spectrum drop it, the coefficients keep it."""
    d = schmidt(rotated_rank_two_state())
    assert d.coefficients.size == 3 and d.coefficients[2] < 1e-15
    assert d.rank == 2
    assert d.spectrum.values == pytest.approx((0.64, 0.36), abs=1e-15)
    assert len(d.spectrum.values) == 2
    report = entanglement_entropies(d.spectrum, [0.01])
    assert report.schmidt_rank == 2
    assert report.H_alpha[0.01] == pytest.approx(math.log(0.64**0.01 + 0.36**0.01) / 0.99,
                                                 rel=1e-12)


def test_schmidt_rank_keeps_a_small_resolved_coefficient():
    """The support is cut on the coefficients: 3.2e-7 is a real coefficient
    (the SVD resolves it to about 1e-16), so it stays in rank and spectrum."""
    d = schmidt(state_from_schmidt([math.sqrt(1.0 - 1e-13), math.sqrt(1e-13)]))
    assert d.rank == 2
    assert d.spectrum.values[1] == pytest.approx(1e-13, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
def test_schmidt_reconstructs_and_is_orthonormal(dA, dB, seed):
    psi = random_pure_state((dA, dB), seed)
    d = schmidt(psi)
    recon = d.basis_A @ np.diag(d.coefficients) @ d.basis_B.T
    assert np.abs(recon - psi.matrix).max() < 1e-9
    r = d.coefficients.size
    assert np.abs(d.basis_A.conj().T @ d.basis_A - np.eye(r)).max() < 1e-10
    assert np.abs(d.basis_B.conj().T @ d.basis_B - np.eye(r)).max() < 1e-10
    assert np.all(np.diff(d.coefficients) <= 1e-14)


def test_schmidt_marginal_symmetry_thousand_states():
    """The two marginals of a pure state share their nonzero spectrum."""
    rng = np.random.default_rng(20260817)
    dims = [(2, 2), (3, 5), (4, 9), (6, 7), (6, 9)]
    for k in range(1000):
        dA, dB = dims[k % len(dims)]
        psi = random_pure_state((dA, dB), rng)
        sa = marginal(psi, "A").spectrum()
        sb = marginal(psi, "B").spectrum()
        n = max(sa.rank, sb.rank)
        assert np.abs(sa.padded(n) - sb.padded(n)).max() < 1e-10


def test_marginal_values_by_hand():
    psi = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    ra = marginal(psi, "A")
    rb = marginal(psi, "B")
    assert np.abs(ra.entries - np.diag([0.7, 0.3])).max() < 1e-12
    assert np.abs(rb.entries - np.diag([0.7, 0.3])).max() < 1e-12
    with pytest.raises(InvalidInputError):
        marginal(psi, "C")


def test_purify_roundtrip():
    rho = random_density(4, 11)
    assert trace_distance(marginal(purify(rho), "A"), rho) < 1e-10


# --------------------------------------------------------------------------- #
#                          trace distance and fidelity                         #
# --------------------------------------------------------------------------- #


def test_trace_distance_by_hand():
    r1 = density(np.diag([0.7, 0.3]))
    r2 = density(np.diag([0.5, 0.5]))
    assert abs(trace_distance(r1, r2) - 0.4) < 1e-12
    assert trace_distance(r1, r1) == 0.0
    # orthogonal pure states sit at the diameter
    p0 = density(np.diag([1.0, 0.0]))
    p1 = density(np.diag([0.0, 1.0]))
    assert abs(trace_distance(p0, p1) - 2.0) < 1e-12
    with pytest.raises(InvalidInputError):
        trace_distance(r1, density(np.eye(3) / 3))


def test_fidelity_by_hand():
    """F(diag(1,0), I/2) = ||diag(1,0)^(1/2) diag(.5,.5)^(1/2)||_1^2
    = (1/sqrt 2)^2 = 1/2."""
    assert abs(fidelity(density(np.diag([1.0, 0.0])), density(np.eye(2) / 2)) - 0.5) < 1e-12


def test_fidelity_commuting_is_classical():
    """For commuting states F = (sum_i sqrt(p_i q_i))^2."""
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.2, 0.6])
    want = float(np.sqrt(p * q).sum()) ** 2
    assert abs(fidelity(density(np.diag(p)), density(np.diag(q))) - want) < 1e-12


def test_fidelity_unitary_invariance_and_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r1 = random_density(4, rng)
        r2 = random_density(4, rng)
        u = haar_unitary(4, rng)
        f = fidelity(r1, r2)
        fu = fidelity(
            density(u @ r1.entries @ u.conj().T), density(u @ r2.entries @ u.conj().T)
        )
        assert abs(f - fu) < 1e-10
        assert 0.0 <= f <= 1.0
    assert abs(fidelity(r1, r1) - 1.0) < 1e-12


def test_fuchs_van_de_graaf_thousand_pairs():
    """1 - sqrt(F) <= T/2 <= sqrt(1 - F) on random pairs of all dims <= 6."""
    rng = np.random.default_rng(99)
    for k in range(1000):
        d = 2 + k % 5
        r1 = random_density(d, rng)
        r2 = random_density(d, rng)
        f = fidelity(r1, r2)
        half_t = trace_distance(r1, r2) / 2.0
        assert 1.0 - math.sqrt(f) <= half_t + 1e-9
        assert half_t <= math.sqrt(max(1.0 - f, 0.0)) + 1e-9


# --------------------------------------------------------------------------- #
#                            Uhlmann optimization                              #
# --------------------------------------------------------------------------- #


def test_uhlmann_matches_fidelity_and_is_achieved():
    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 5):
        r1 = random_density(d, rng)
        r2 = random_density(d, rng)
        f, u = uhlmann_optimizer(r1, r2)
        assert abs(f - fidelity(r1, r2)) < 1e-10
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-10
        p1, p2 = purify(r1), purify(r2)
        achieved = abs(np.vdot(p1.amplitudes, apply_local(p2, None, u))) ** 2
        assert abs(achieved - f) < 1e-8


def test_uhlmann_sampled_unitaries_never_exceed():
    """10^4 random B-side unitaries on the canonical purifications never beat
    the closed-form fidelity by more than 1e-9."""
    rng = np.random.default_rng(17)
    r1 = random_density(4, rng)
    r2 = random_density(4, rng)
    f, _ = uhlmann_optimizer(r1, r2)
    p1, p2 = purify(r1), purify(r2)
    us = haar_unitaries(4, 10_000, 23)
    m1, m2 = p1.matrix, p2.matrix
    vals = np.abs(np.einsum("xy,xa,nya->n", m1.conj(), m2, us)) ** 2
    assert vals.max() <= f + 1e-9


# --------------------------------------------------------------------------- #
#                          local-unitary orbit fidelity                        #
# --------------------------------------------------------------------------- #


def test_lu_orbit_fidelity_by_hand():
    # Bell vs |00>: (s . t)^2 with s = (1/sqrt2, 1/sqrt2), t = (1, 0)
    assert abs(lu_orbit_fidelity(bell_state(2), product_basis_state(2, 2)) - 0.5) < 1e-12
    # (sqrt .7, sqrt .3) vs Bell: (sqrt .35 + sqrt .15)^2
    a = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    want = (math.sqrt(0.35) + math.sqrt(0.15)) ** 2
    assert abs(lu_orbit_fidelity(a, bell_state(2)) - want) < 1e-12
    # symmetric, and 1 on the diagonal
    assert abs(lu_orbit_fidelity(bell_state(2), a) - want) < 1e-12
    assert abs(lu_orbit_fidelity(a, a) - 1.0) < 1e-12


def test_lu_orbit_fidelity_of_identical_lists_is_exactly_one():
    """Equal coefficient lists give 1.0, not the dot product's last ulp."""
    psi = random_pure_state((3, 4), 9)
    assert lu_orbit_fidelity(psi, psi) == 1.0
    assert lu_orbit_fidelity(product_basis_state(3, 1), product_basis_state(1, 5)) == 1.0


def test_lu_orbit_fidelity_mismatched_shapes():
    """Zero-padding handles different dims and ranks."""
    a = state_from_schmidt([1.0], dims=(2, 2))
    b = bell_state(3)
    assert abs(lu_orbit_fidelity(a, b) - 1.0 / 3.0) < 1e-12


def test_lu_orbit_fidelity_alternating_oracle_gate():
    """Build-time gate: on every pair the alternating optimizer lands on the
    closed form to 1e-9, and no sampled local unitary pair beats it."""
    pairs = [
        (random_pure_state((2, 2), 1), random_pure_state((2, 2), 2)),
        (random_pure_state((2, 3), 3), random_pure_state((2, 3), 4)),
        (random_pure_state((3, 2), 5), random_pure_state((3, 2), 6)),
        (random_pure_state((3, 3), 7), random_pure_state((3, 3), 8)),
        (bell_state(2), random_pure_state((2, 2), 9)),
        (state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)]), bell_state(2)),
    ]
    for k, (psi, phi) in enumerate(pairs):
        closed = lu_orbit_fidelity(psi, phi)
        alt = alternating_lu_overlap(psi, phi, seed=100 + k)
        assert abs(alt - closed) < 1e-9, (k, alt, closed)


def test_lu_orbit_fidelity_hundred_thousand_random_pairs():
    """10^5 random local unitary pairs never exceed the closed form + 1e-9."""
    psi = random_pure_state((3, 3), 31)
    phi = random_pure_state((3, 3), 32)
    closed = lu_orbit_fidelity(psi, phi)
    worst = 0.0
    for chunk in range(4):
        vals = batched_lu_overlaps(psi, phi, 25_000, seed=1000 + 7 * chunk)
        worst = max(worst, float(vals.max()))
    assert worst <= closed + 1e-9
    # the sampled cloud should come reasonably close on a 3x3 problem
    assert worst > closed - 0.2


def test_lu_align_unitaries_achieve_the_bound():
    rng = np.random.default_rng(77)
    for dims in [(2, 2), (3, 3), (3, 4), (4, 3)]:
        psi = random_pure_state(dims, rng)
        phi = random_pure_state(dims, rng)
        f = lu_orbit_fidelity(psi, phi)
        w = lu_align_unitaries(psi, phi)
        got = abs(np.vdot(psi.amplitudes, apply_local(phi, w.op_A, w.op_B))) ** 2
        assert abs(got - f) < 1e-10
        dA, dB = dims
        assert np.abs(w.op_A @ w.op_A.conj().T - np.eye(dA)).max() < 1e-10
        assert np.abs(w.op_B @ w.op_B.conj().T - np.eye(dB)).max() < 1e-10


def test_lu_equivalence_iff_spectra_match():
    """Fidelity reaches 1 exactly on matching Schmidt spectra."""
    rng = np.random.default_rng(13)
    psi = random_pure_state((3, 4), rng)
    u = haar_unitary(3, rng)
    v = haar_unitary(4, rng)
    moved = pure_state((3, 4), apply_local(psi, u, v))
    assert lu_orbit_fidelity(psi, moved) > 1.0 - 1e-9
    other = random_pure_state((3, 4), rng)
    n = max(schmidt(psi).spectrum.rank, schmidt(other).spectrum.rank)
    gap = np.abs(schmidt(psi).spectrum.padded(n) - schmidt(other).spectrum.padded(n)).max()
    assert gap > 1e-6  # random pair: spectra differ
    assert lu_orbit_fidelity(psi, other) < 1.0 - 1e-9


def test_complete_isometry_properties():
    cols = schmidt(random_pure_state((4, 2), 3)).basis_A  # 4x2 isometry
    full = complete_isometry(cols, 4)
    assert np.abs(full @ full.conj().T - np.eye(4)).max() < 1e-10
    assert np.abs(full[:, :2] - cols).max() == 0.0


# --------------------------------------------------------------------------- #
#                    deterministic eigenbases / align_unitary                  #
# --------------------------------------------------------------------------- #


def test_sorted_eigh_descending_and_deterministic():
    rho = random_density(5, 2)
    v1, b1 = sorted_eigh(rho)
    v2, b2 = sorted_eigh(rho)
    assert np.all(np.diff(v1) <= 0)
    assert np.array_equal(b1, b2)
    assert np.abs(b1.conj().T @ b1 - np.eye(5)).max() < 1e-10
    recon = (b1 * v1) @ b1.conj().T
    assert np.abs(recon - rho.entries).max() < 1e-10


def test_sorted_eigh_degenerate_cluster():
    u = haar_unitary(4, 9)
    rho = density(u @ np.diag([0.4, 0.2, 0.2, 0.2]) @ u.conj().T)
    vals, basis = sorted_eigh(rho)
    recon = (basis * vals) @ basis.conj().T
    assert np.abs(recon - rho.entries).max() < 1e-9
    assert np.abs(basis.conj().T @ basis - np.eye(4)).max() < 1e-9


def test_align_unitary_achieves_orbit_distance():
    rng = np.random.default_rng(55)
    for k in range(30):
        d = 2 + k % 4
        r1 = random_density(d, rng)
        r2 = random_density(d, rng)
        u = align_unitary(r1, r2)
        moved = density(u @ r2.entries @ u.conj().T)
        assert abs(trace_distance(r1, moved) - orbit_distance(r1.spectrum(), r2.spectrum())) < 1e-10


def test_align_unitary_degenerate_spectra():
    u0 = haar_unitary(3, 3)
    r1 = density(np.diag([0.5, 0.25, 0.25]))
    r2 = density(u0 @ np.diag([0.5, 0.3, 0.2]) @ u0.conj().T)
    u = align_unitary(r1, r2)
    moved = density(u @ r2.entries @ u.conj().T)
    want = orbit_distance(r1.spectrum(), r2.spectrum())
    assert abs(trace_distance(r1, moved) - want) < 1e-10


def test_align_unitary_close_distinct_eigenvalues():
    """40 eigenvalues 0.9e-10 apart, interleaved with sigma's: each vector
    must keep its own eigenvalue, however close the next one is."""
    small = 1e-9 + 0.9e-10 * np.arange(40)[::-1]
    a = np.r_[1.0 - small.sum(), small]
    b = a.copy()
    b[1:] += 0.3e-10 * (-1.0) ** np.arange(40)
    b[0] = 1.0 - b[1:].sum()
    u1, u2 = haar_unitary(41, 1), haar_unitary(41, 2)
    r1 = density(u1 @ np.diag(a) @ u1.conj().T)
    r2 = density(u2 @ np.diag(b) @ u2.conj().T)
    u = align_unitary(r1, r2)
    moved = density(u @ r2.entries @ u.conj().T)
    want = orbit_distance(r1.spectrum(), r2.spectrum())
    assert abs(trace_distance(r1, moved) - want) <= 1e-12


def random_density_of_rank(d, r, rng):
    """Wishart density of rank r on C^d (``random_density`` is full rank)."""
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return density(g @ g.conj().T / np.linalg.norm(g) ** 2)


def test_orbit_distance_matrices_oracle():
    """On seeded pairs, d = 1-6 with full and deficient ranks, the spectral
    formula equals the trace distance after ``align_unitary`` and undercuts
    200 seeded Haar conjugations."""
    rng = np.random.default_rng(21)
    for d in range(1, 7):
        us = haar_unitaries(d, 200, 100 + d)
        for ranks in ((d, d), (1, d), (max(1, d - 1), max(1, d // 2))):
            r1, r2 = (random_density_of_rank(d, r, rng) for r in ranks)
            got = orbit_distance_matrices(r1, r2)
            u = align_unitary(r1, r2)
            assert abs(got - trace_distance(r1, density(u @ r2.entries @ u.conj().T))) <= 1e-12
            moved = np.einsum("nab,bc,ndc->nad", us, r2.entries, us.conj())
            sampled = np.abs(np.linalg.eigvalsh(moved - r1.entries[None])).sum(axis=1)
            assert got <= sampled.min() + 1e-12


def test_align_unitary_sampled_lower_bound():
    """10^4 random conjugations never undercut the spectral orbit distance."""
    rng = np.random.default_rng(4)
    r1 = random_density(4, rng)
    r2 = random_density(4, rng)
    want = orbit_distance(r1.spectrum(), r2.spectrum())
    us = haar_unitaries(4, 10_000, 8)
    moved = np.einsum("nab,bc,ndc->nad", us, r2.entries, us.conj())
    diffs = moved - r1.entries[None, :, :]
    dists = np.abs(np.linalg.eigvalsh(diffs)).sum(axis=1)
    assert dists.min() >= want - 1e-9


# --------------------------------------------------------------------------- #
#                           connecting purifications                           #
# --------------------------------------------------------------------------- #


def test_connect_purifications_bit_flip_by_hand():
    b = bell_state(2)
    other = pure_state((2, 2), np.array([0, 1, 1, 0]) / math.sqrt(2))
    v = connect_purifications(b, other).op_B
    assert np.abs(v - np.array([[0, 1], [1, 0]])).max() < 1e-10
    assert np.abs(apply_local(other, None, v) - b.amplitudes).max() < 1e-10


def test_connect_purifications_sign_flip_by_hand():
    b = bell_state(2)
    other = pure_state((2, 2), np.array([1, 0, 0, -1]) / math.sqrt(2))
    v = connect_purifications(b, other).op_B
    assert np.abs(v - np.diag([1.0, -1.0])).max() < 1e-10
    assert np.abs(apply_local(other, None, v) - b.amplitudes).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_connect_purifications_roundtrip(dA, dB, seed):
    """phi2 = (1 (x) w) phi1 for a random B isometry into a larger system;
    the connector restores phi1 exactly, and is a partial isometry."""
    rng = np.random.default_rng(seed)
    phi1 = random_pure_state((dA, dB), rng)
    big = dB + rng.integers(0, 3)
    w = haar_unitary(big, rng)[:, :dB]  # isometry C^dB -> C^big
    phi2 = pure_state((dA, big), apply_local(phi1, None, w))
    v = connect_purifications(phi1, phi2).op_B
    assert np.abs(apply_local(phi2, None, v) - phi1.amplitudes).max() < 1e-8
    assert np.abs(v @ v.conj().T @ v - v).max() < 1e-8


def test_connect_purifications_rank_deficient_rotated_frames():
    """phi2 is phi1 with Alice's frame turned by 0.5 rad between the 1e-5
    and the 0 Schmidt directions: the A-marginals agree within 1e-10, the
    overlap of the kept A-frames has a 1e-5 direction of length cos 0.5,
    and the connector must still be a partial isometry."""
    phi1 = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3 - 1e-10), 1e-5, 0.0])
    c, s = math.cos(0.5), math.sin(0.5)
    rot = np.eye(4)
    rot[2:, 2:] = [[c, -s], [s, c]]
    phi2 = pure_state((4, 4), apply_local(phi1, rot, None))
    v = connect_purifications(phi1, phi2).op_B
    proj = v.conj().T @ v
    assert np.abs(proj @ proj - proj).max() < 1e-12
    assert np.abs(apply_local(phi2, None, v) - phi1.amplitudes).max() < 1e-5


def test_connect_purifications_maps_every_support_coefficient():
    """A 1e-11 Schmidt coefficient is inside the support (above
    ``SUPPORT_CUT`` times the largest), so the connector maps it too and
    rebuilds phi1 to rounding."""
    phi1 = state_from_schmidt([math.sqrt(1.0 - 1e-22), 1e-11])
    phi2 = pure_state((2, 2), apply_local(phi1, None, np.array([[0.0, 1.0], [1.0, 0.0]])))
    v = connect_purifications(phi1, phi2).op_B
    assert np.abs(apply_local(phi2, None, v) - phi1.amplitudes).max() < 1e-15


def test_connect_purifications_rejects_different_marginals():
    a = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])
    with pytest.raises(NoConnectorError):
        connect_purifications(a, bell_state(2))
    with pytest.raises(NoConnectorError):
        connect_purifications(a, bell_state(3))


# --------------------------------------------------------------------------- #
#                                  utilities                                   #
# --------------------------------------------------------------------------- #


def test_coupling_constant():
    assert coupling_constant(2, 2) == 1.0
    assert coupling_constant(3, 6) == 0.5
    with pytest.raises(InvalidInputError):
        coupling_constant(0, 2)


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(4, 123)
    u2 = haar_unitary(4, 123)
    u3 = haar_unitary(4, 124)
    assert np.array_equal(u1, u2)
    assert np.abs(u1 - u3).max() > 1e-3
    assert np.abs(u1 @ u1.conj().T - np.eye(4)).max() < 1e-12


def test_haar_unitaries_batch_unitary():
    us = haar_unitaries(3, 64, 5)
    eye = np.eye(3)
    prods = np.einsum("nab,ncb->nac", us, us.conj())
    assert np.abs(prods - eye[None]).max() < 1e-12

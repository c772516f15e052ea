"""End-to-end acceptance suite.

Each test is one numbered release criterion and prints a single PASS summary
line on success, so ``pytest -v tests/test_acceptance.py`` reads as a
criterion-by-criterion report.  Tolerances and corpus sizes are stated
inline; every check is against either a closed form, an independent oracle,
or an exhaustive enumeration — never against the code under test.
"""

import math
import time

import numpy as np
import pytest

from test_locc import (
    assert_reduction_matches,
    one_shot_oracle,
    random_feasible_pair,
    random_scripted_protocol,
    weighted_state,
)

from entlab.embezzle import (
    catalytic_deviation,
    classify_itpfi,
    embezzle_report,
    kappa_max_formula,
    lambda_family_measure,
)
from entlab.errors import InfeasibleError
from entlab.locc import (
    locc_embezzle_feasible,
    locc_feasible,
    nielsen_synthesize,
    one_shot_entanglement,
    verify_protocol,
)
from entlab.quantum import (
    align_unitary,
    apply_local,
    bell_state,
    fidelity,
    haar_unitaries,
    haar_unitary,
    product_basis_state,
    pure_state,
    purify,
    random_density,
    random_pure_state,
    schmidt,
    trace_distance,
    uhlmann_optimizer,
)
from entlab.spectra import (
    atomic_measure,
    flat_spectrum,
    flow_deviation,
    orbit_distance,
    smear,
    spectral_state,
    spectrum,
    tensor_spectrum,
    tv_distance,
)


def random_spectrum(rng, d):
    return spectrum(rng.dirichlet(np.ones(d)))


def random_rotated_state(rng, dims):
    d = min(dims)
    psi = weighted_state(rng.dirichlet(np.ones(d)), dims)
    u = haar_unitary(dims[0], rng)
    v = haar_unitary(dims[1], rng)
    return pure_state(dims, apply_local(psi, u, v))


# --------------------------------------------------------------------------- #
#  1. universal-embezzler fidelity bound                                       #
# --------------------------------------------------------------------------- #


def test_criterion_01_embezzler_bound_on_bell_targets():
    """sqrt(fidelity) for |00> -> Bell embezzlement beats 1 - 1/log2(n) at
    n = 2^4, 2^8, 2^12, 2^16, fidelity is non-decreasing in n, and each
    report takes under a second."""
    start = product_basis_state(2, 2)
    target = bell_state(2)
    thresholds = {2**4: 0.75, 2**8: 0.875, 2**12: 1 - 1 / 12, 2**16: 0.9375}
    fidelities = []
    for n, lower in thresholds.items():
        t0 = time.perf_counter()
        report = embezzle_report(n, start, target)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"
        assert math.sqrt(report.fidelity) >= lower
        assert report.meets_bound
        fidelities.append(report.fidelity)
    assert all(b >= a for a, b in zip(fidelities, fidelities[1:]))
    print(
        "[criterion 1] PASS: sqrt-fidelity >= 1 - 1/log2(n) at n = 2^4..2^16, "
        f"monotone (F_16 = {fidelities[-1]:.6f})"
    )


# --------------------------------------------------------------------------- #
#  2. unitary-orbit trace distance                                             #
# --------------------------------------------------------------------------- #


def test_criterion_02_orbit_distance_alignment_and_sampling():
    """200 random density pairs (d in {2,3,4}): align_unitary lands on the
    spectral formula to 1e-10, and 10^4 random unitaries per pair never get
    more than 1e-9 below it.  Budget: 60 s."""
    rng = np.random.default_rng(20_2020)
    t0 = time.perf_counter()
    worst_align = 0.0
    worst_undercut = 0.0
    for trial in range(200):
        d = 2 + trial % 3
        rho = random_density(d, rng)
        sig = random_density(d, rng)
        formula = orbit_distance(rho.spectrum(), sig.spectrum())
        u = align_unitary(rho, sig)
        aligned = u @ sig.entries @ u.conj().T
        achieved = float(np.abs(np.linalg.eigvalsh(rho.entries - aligned)).sum())
        worst_align = max(worst_align, abs(achieved - formula))
        us = haar_unitaries(d, 10_000, rng)
        rotated = np.einsum("nij,jk,nlk->nil", us, sig.entries, us.conj())
        dists = np.abs(np.linalg.eigvalsh(rho.entries[None, :, :] - rotated)).sum(axis=1)
        worst_undercut = max(worst_undercut, float(formula - dists.min()))
    elapsed = time.perf_counter() - t0
    assert worst_align <= 1e-10
    assert worst_undercut <= 1e-9
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        "[criterion 2] PASS: 200 pairs aligned to the spectral formula "
        f"(worst {worst_align:.2e}), 10^4 sampled unitaries per pair never "
        f"undercut it (worst gap {worst_undercut:.2e}, {elapsed:.1f}s)"
    )


# --------------------------------------------------------------------------- #
#  3. smearing = spectral state of the tensor product                          #
# --------------------------------------------------------------------------- #


def test_criterion_03_smear_equals_tensor_spectral_state():
    """1000 random spectrum pairs with dims <= 6: smearing the spectral state
    by the second spectrum reproduces the tensor product's spectral state
    atom-for-atom to 1e-12."""
    rng = np.random.default_rng(33)
    for trial in range(1000):
        a = random_spectrum(rng, 1 + trial % 6)
        b = random_spectrum(rng, 1 + (trial // 6) % 6)
        via_smear = smear(spectral_state(a), b)
        direct = spectral_state(tensor_spectrum(a, b))
        assert len(via_smear.atoms) == len(direct.atoms)
        np.testing.assert_allclose(via_smear.atoms, direct.atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(via_smear.masses, direct.masses, rtol=0, atol=1e-12)
    print("[criterion 3] PASS: 1000 smear/tensor spectral states agree atom-for-atom (1e-12)")


# --------------------------------------------------------------------------- #
#  4. flow deviation = orbit distance between flat dressings                   #
# --------------------------------------------------------------------------- #


def test_criterion_04_flow_deviation_cross_check():
    """flow_deviation at t = log(m/n) equals the orbit distance between the
    state dressed with flat_n and flat_m, to 1e-10, exhaustively over
    n, m <= 8 for random spectra with d <= 5."""
    rng = np.random.default_rng(44)
    checked = 0
    for trial in range(15):
        d = 1 + trial % 5
        s = random_spectrum(rng, d)
        hat = spectral_state(s)
        for n in range(1, 9):
            for m in range(1, 9):
                lhs = flow_deviation(hat, math.log(m / n))
                rhs = orbit_distance(
                    tensor_spectrum(s, flat_spectrum(n)),
                    tensor_spectrum(s, flat_spectrum(m)),
                )
                assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-10), (d, n, m)
                checked += 1
    print(f"[criterion 4] PASS: flow deviation matches orbit distance on {checked} (state, n, m) triples (1e-10)")


# --------------------------------------------------------------------------- #
#  5. Nielsen synthesis round-trip on random pairs                             #
# --------------------------------------------------------------------------- #


def test_criterion_05_nielsen_synthesis_on_random_pairs():
    """200 random feasible pairs (dims <= 6): synthesized protocols verify
    (completeness residual <= 1e-9, branch overlaps >= 1 - 1e-8, total
    probability within 1e-9 of 1).  200 infeasible pairs are refused.
    Budget: 120 s."""
    rng = np.random.default_rng(55_555)
    t0 = time.perf_counter()

    def random_dims():
        return (int(rng.integers(2, 7)), int(rng.integers(2, 7)))

    feasible_done = 0
    while feasible_done < 200:
        psi, phi = random_feasible_pair(rng, random_dims(), random_dims())
        protocol = nielsen_synthesize(psi, phi)
        report = verify_protocol(protocol, psi, phi)
        assert report.passed
        assert report.completeness_residual <= 1e-9
        assert all(o >= 1 - 1e-8 for o in report.overlaps)
        assert abs(report.probability_sum - 1.0) <= 1e-9
        feasible_done += 1

    infeasible_done = 0
    while infeasible_done < 200:
        psi, phi = random_feasible_pair(rng, random_dims(), random_dims())
        if locc_feasible(phi, psi):  # degenerate draw: conversion also works backwards
            continue
        with pytest.raises(InfeasibleError):
            nielsen_synthesize(phi, psi)
        infeasible_done += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        "[criterion 5] PASS: 200 synthesized protocols verified "
        f"(residual<=1e-9, overlaps>=1-1e-8), 200 infeasible refused ({elapsed:.1f}s)"
    )


# --------------------------------------------------------------------------- #
#  6. one-way reduction corpus                                                 #
# --------------------------------------------------------------------------- #


def test_criterion_06_one_way_reduction_corpus():
    """50 scripted multi-round protocols: the one-way reduction reproduces
    every branch probability to 1e-8 and every conditional state overlap to
    1 - 1e-7."""
    rng = np.random.default_rng(424242)
    for trial in range(50):
        d = 2 + trial % 2
        protocol = random_scripted_protocol(rng, d, 1 + trial % 3)
        psi = random_pure_state((d, d), rng)
        assert_reduction_matches(protocol, psi, p_tol=1e-8, o_tol=1e-7)
    print("[criterion 6] PASS: 50-protocol corpus reduced (probabilities 1e-8, overlaps 1-1e-7)")


# --------------------------------------------------------------------------- #
#  7. catalytic deviation decay                                                #
# --------------------------------------------------------------------------- #


def binomial_shift_l1(lam, m):
    """Independent oracle: L1 distance between the binomial(m, 1/(1+lam))
    mass pattern and itself shifted by one index."""
    weights = np.array(
        [math.comb(m, k) * lam**k / (1 + lam) ** m for k in range(m + 1)]
    )
    padded = np.concatenate([weights, [0.0]])
    shifted = np.concatenate([[0.0], weights])
    return float(np.abs(padded - shifted).sum())


def test_criterion_07_catalytic_deviation_decay():
    """catalytic_deviation(0.5, m, ln 2) equals the binomial-shift oracle to
    1e-12 for every m <= 256 (4/3 at m=1, 8/9 at m=2), is monotone
    non-increasing, drops below 0.25 by m = 64, and stays above 1.5 at the
    off-period time 0.5 ln 2."""
    lam = 0.5
    period = math.log(1 / lam)
    previous = math.inf
    for m in range(1, 257):
        dev = catalytic_deviation(lam, m, period)
        assert math.isclose(dev, binomial_shift_l1(lam, m), rel_tol=0, abs_tol=1e-12), m
        assert dev <= previous + 1e-12, m
        previous = dev
        if m == 1:
            assert math.isclose(dev, 4 / 3, rel_tol=0, abs_tol=1e-12)
        if m == 2:
            assert math.isclose(dev, 8 / 9, rel_tol=0, abs_tol=1e-12)
        if m == 64:
            assert dev < 0.25
        assert catalytic_deviation(lam, m, 0.5 * period) > 1.5, m
    print(
        "[criterion 7] PASS: deviation matches the binomial-shift oracle for m <= 256 "
        f"(4/3, 8/9, ..., {previous:.4f}), monotone, < 0.25 by m=64, off-period > 1.5"
    )


# --------------------------------------------------------------------------- #
#  8. kappa closed form + type classification witnesses                        #
# --------------------------------------------------------------------------- #


def test_criterion_08_kappa_formula_and_classification():
    """kappa_max_formula is exact at the endpoints, matches both algebraic
    parametrizations to 1e-14 on a 1000-point grid, and classify_itpfi
    labels the three witness spectra I, II_1, and III_{1/2}."""
    assert kappa_max_formula(1.0) == 0.0
    assert kappa_max_formula(0.0) == 2.0
    grid = np.linspace(0.0, 1.0, 1000)
    for lam in grid:
        value = kappa_max_formula(float(lam))
        r = math.sqrt(lam)
        assert math.isclose(value, 2 * (1 - r) / (1 + r), rel_tol=0, abs_tol=1e-14)
        alternate = 2 * (1 - r) ** 2 / (1 - lam) if lam < 1 else 0.0
        assert math.isclose(value, alternate, rel_tol=0, abs_tol=1e-14)

    assert classify_itpfi(spectrum([1.0])).family == "I"
    assert classify_itpfi(spectrum([0.5, 0.5])).family == "II_1"
    label = classify_itpfi(spectrum([2 / 3, 1 / 3]))
    assert label.family == "III_lambda"
    assert math.isclose(label.parameter, 0.5, rel_tol=0, abs_tol=1e-9)
    print(
        "[criterion 8] PASS: kappa endpoints exact, parametrizations agree to 1e-14 "
        "on 1000 points; witnesses classify as I / II_1 / III_0.5"
    )


# --------------------------------------------------------------------------- #
#  9. Fuchs-van de Graaf + Uhlmann achievement                                 #
# --------------------------------------------------------------------------- #


def test_criterion_09_fidelity_trace_distance_properties():
    """1000 random density pairs: the Fuchs-van de Graaf sandwich
    1 - sqrt(F) <= T/2 <= sqrt(1 - F) holds, and the Uhlmann optimizer's
    unitary achieves the closed-form fidelity on canonical purifications.
    Zero violations allowed."""
    rng = np.random.default_rng(99)
    for trial in range(1000):
        d = 2 + trial % 4
        rho = random_density(d, rng)
        sig = random_density(d, rng)
        f = fidelity(rho, sig)
        t_half = trace_distance(rho, sig) / 2.0
        assert 1 - math.sqrt(f) <= t_half + 1e-12
        assert t_half <= math.sqrt(max(1 - f, 0.0)) + 1e-12
        f_opt, u = uhlmann_optimizer(rho, sig)
        assert abs(f_opt - f) <= 1e-10
        p1, p2 = purify(rho), purify(sig)
        achieved = abs(np.vdot(p1.amplitudes, apply_local(p2, None, u))) ** 2
        assert abs(achieved - f) <= 1e-8
    print("[criterion 9] PASS: 1000 pairs satisfy the fidelity/trace-distance sandwich; Uhlmann unitary achieves F")


# --------------------------------------------------------------------------- #
# 10. one-shot entanglement closed form                                        #
# --------------------------------------------------------------------------- #


def test_criterion_10_one_shot_closed_form():
    """The closed-form one-shot value equals brute-force feasibility search
    exhaustively for d <= 5 (n <= 8 covers every reachable value); Bell gives
    one ebit, product states give zero."""
    rng = np.random.default_rng(1010)
    for trial in range(500):
        d = 1 + trial % 5
        values = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        report = one_shot_entanglement(weighted_state(values))
        assert report.n_max == one_shot_oracle(values)
        assert math.isclose(report.ebits, math.log2(report.n_max), rel_tol=0, abs_tol=1e-12)
    assert one_shot_entanglement(bell_state(2)).ebits == 1.0
    assert one_shot_entanglement(product_basis_state(4, 3)).ebits == 0.0
    print("[criterion 10] PASS: closed form equals brute force on 500 spectra (d <= 5); Bell = 1 ebit, product = 0")


# --------------------------------------------------------------------------- #
# 11. finite exact-embezzlement no-go                                          #
# --------------------------------------------------------------------------- #


def test_criterion_11_finite_embezzlement_no_go():
    """For 100 random finite resource states, exact LOCC embezzlement of a
    Bell pair from |00> is decided infeasible every single time."""
    rng = np.random.default_rng(111)
    start = product_basis_state(2, 2)
    target = bell_state(2)
    for trial in range(100):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        psi = random_rotated_state(rng, dims)
        assert locc_embezzle_feasible(psi, start, target) is False
    print("[criterion 11] PASS: 100 random finite resources all refuse exact Bell embezzlement")

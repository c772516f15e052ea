"""Tests for spectral scales, distribution functions, majorization, spectral
states, the scaling flow, and entanglement monotone functionals.

Oracle conventions: exact rational hand values are frozen as literals;
integration is cross-checked against a dense Riemann-sum oracle; smearing is
cross-checked against eigenvalues of an explicit Kronecker product; the flow
deviation is cross-checked against the unitary-orbit distance of tensor
products with flat spectra, which is the identity the whole module exists to
reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.errors import InvalidInputError
from entlab.spectra import (
    AtomicMeasure,
    MonotoneFunctionSpec,
    Spectrum,
    ZERO_STEP,
    atomic_measure,
    distribution_function,
    entanglement_entropies,
    flat_spectrum,
    flow_act,
    flow_deviation,
    generalized_inverse,
    hs_distance,
    kappa_profile,
    l1_distance,
    majorizes,
    measure_distribution,
    monotone_Ef,
    orbit_distance,
    scale_from_distribution,
    smear,
    spectral_scale,
    spectral_state,
    spectrum,
    state_spectrum,
    step_function,
    tensor_spectrum,
    tv_distance,
)

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #

entries = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8)


def normalized(vals):
    arr = np.asarray(vals, dtype=float)
    return state_spectrum(arr / arr.sum())


state_spectra = entries.map(normalized)


@st.composite
def step_functions(draw):
    """Canonical step functions with 0-6 breakpoints, ZERO_STEP included."""
    bps = sorted(set(draw(st.lists(st.floats(1e-3, 10.0), max_size=6))))
    lvs = sorted(set(draw(st.lists(st.floats(1e-3, 5.0), min_size=len(bps), max_size=len(bps)))))
    if len(lvs) < len(bps):
        bps = bps[: len(lvs)]
    return step_function(bps, lvs[::-1] + [0.0])


# --------------------------------------------------------------------------- #
# independent oracles
# --------------------------------------------------------------------------- #

def riemann_l1(f, g, points=200_001):
    """Midpoint-rule |f-g| integral, independent of the merged-grid code."""
    hi = max(
        f.breakpoints[-1] if f.breakpoints else 0.0,
        g.breakpoints[-1] if g.breakpoints else 0.0,
    )
    if hi == 0.0:
        return 0.0
    ts = np.linspace(0.0, hi, points)
    mids = (ts[:-1] + ts[1:]) / 2.0
    h = ts[1] - ts[0]

    def levels_at(step):
        # the level after the last breakpoint <= t, as StepFunction.value reads it
        return np.asarray(step.levels)[np.searchsorted(step.breakpoints, mids, side="right")]

    return float(np.abs(levels_at(f) - levels_at(g)).sum() * h)


def loop_l1(f, g):
    """Per-segment loop over the merged grid, reading levels through
    ``StepFunction.value``: the same terms as the array kernel, so the two
    must agree bit for bit."""
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    pts = [0.0] + grid
    total = []
    for left, right in zip(pts, pts[1:]):
        total.append((right - left) * abs(f.value(left) - g.value(left)))
    return float(math.fsum(total))


def kron_spectrum(a: Spectrum, b: Spectrum) -> Spectrum:
    """Tensor spectrum via an honest matrix eigensolve."""
    m = np.kron(np.diag(a.as_array()), np.diag(b.as_array()))
    return spectrum(np.linalg.eigvalsh(m))


# --------------------------------------------------------------------------- #
# Spectrum canonicalization
# --------------------------------------------------------------------------- #

def test_spectrum_sorts_and_strips_zeros():
    s = spectrum([0.0, 0.3, 0.7, 0.0])
    assert s.values == (0.7, 0.3)
    assert s.rank == 2


def test_spectrum_clips_tiny_negatives_and_rejects_real_ones():
    s = spectrum([0.5, -1e-11, 0.5])
    assert s.values == (0.5, 0.5)
    with pytest.raises(InvalidInputError):
        spectrum([0.5, -1e-3])


def test_state_spectrum_normalization_gate():
    assert state_spectrum([0.5, 0.5]).is_state()
    with pytest.raises(InvalidInputError):
        state_spectrum([0.5, 0.4])


def test_tensor_and_flat():
    t = tensor_spectrum(state_spectrum([0.7, 0.3]), flat_spectrum(2))
    assert np.allclose(t.values, (0.35, 0.35, 0.15, 0.15))
    assert flat_spectrum(4).values == (0.25,) * 4


@given(entries)
def test_spectrum_canonicalization_is_idempotent(vals):
    s = spectrum(vals)
    assert spectrum(s.values).values == s.values
    assert all(x >= y for x, y in zip(s.values, s.values[1:]))


# --------------------------------------------------------------------------- #
# scales and distribution functions
# --------------------------------------------------------------------------- #

def test_scale_hand_values():
    f = spectral_scale(spectrum([0.7, 0.3]))
    assert f.breakpoints == (1.0, 2.0)
    assert f.levels == (0.7, 0.3, 0.0)
    assert spectral_scale(spectrum([1.0])).breakpoints == (1.0,)
    # equal eigenvalues merge into one plateau
    g = spectral_scale(spectrum([0.5, 0.5]))
    assert g.breakpoints == (2.0,)
    assert g.levels == (0.5, 0.0)


def test_distribution_hand_values():
    d = distribution_function(spectrum([0.7, 0.3]))
    assert d.breakpoints == (0.3, 0.7)
    assert d.levels == (2.0, 1.0, 0.0)
    d2 = distribution_function(spectrum([0.5, 0.5]))
    assert d2.breakpoints == (0.5,)
    assert d2.levels == (2.0, 0.0)


def test_step_function_rejects_increasing_levels():
    with pytest.raises(InvalidInputError):
        step_function((1.0, 2.0), (0.3, 0.7, 0.0))


def test_scale_and_distribution_integrals_agree_with_total():
    s = spectrum([0.4, 0.35, 0.25])
    assert math.isclose(spectral_scale(s).integral(), 1.0, abs_tol=1e-15)
    assert math.isclose(distribution_function(s).integral(), 1.0, abs_tol=1e-15)


@given(state_spectra)
def test_generalized_inverse_duality_is_structural(s):
    scale = spectral_scale(s)
    dist = distribution_function(s)
    assert generalized_inverse(dist) == scale
    assert generalized_inverse(scale) == dist
    assert scale_from_distribution(dist) == scale


def test_generalized_inverse_of_empty():
    assert generalized_inverse(ZERO_STEP) == ZERO_STEP


# --------------------------------------------------------------------------- #
# L1 distance
# --------------------------------------------------------------------------- #

def test_l1_hand_values():
    f = spectral_scale(spectrum([0.7, 0.3]))
    g = spectral_scale(spectrum([0.5, 0.5]))
    assert math.isclose(l1_distance(f, g), 0.4, abs_tol=1e-15)
    h = spectral_scale(spectrum([1.0]))
    assert math.isclose(l1_distance(h, g), 1.0, abs_tol=1e-15)
    assert l1_distance(f, f) == 0.0


@given(state_spectra, state_spectra)
@settings(max_examples=40, deadline=None)
def test_l1_matches_riemann_oracle(a, b):
    f, g = spectral_scale(a), spectral_scale(b)
    assert math.isclose(l1_distance(f, g), riemann_l1(f, g), abs_tol=5e-4)


@given(step_functions(), step_functions())
@settings(max_examples=200, deadline=None)
def test_l1_equals_loop_oracle_exactly(f, g):
    assert l1_distance(f, g) == loop_l1(f, g)
    assert l1_distance(f, ZERO_STEP) == loop_l1(f, ZERO_STEP) == f.integral()
    assert l1_distance(ZERO_STEP, g) == loop_l1(ZERO_STEP, g)


def test_l1_equals_loop_oracle_on_spectral_distributions():
    rng = np.random.default_rng(3)
    for rank in (1, 2, 300, 2000):
        hat = spectral_state(spectrum(rng.dirichlet(np.ones(rank))))
        for t in (math.log(2), -0.3, 5.0):
            f = measure_distribution(hat)
            g = measure_distribution(flow_act(hat, t))
            assert l1_distance(f, g) == loop_l1(f, g)
    assert l1_distance(ZERO_STEP, ZERO_STEP) == loop_l1(ZERO_STEP, ZERO_STEP) == 0.0


# --------------------------------------------------------------------------- #
# majorization and orbit distance
# --------------------------------------------------------------------------- #

def test_majorizes_hand_cases():
    a = state_spectrum([0.7, 0.3])
    b = state_spectrum([0.5, 0.5])
    assert majorizes(a, b)
    assert not majorizes(b, a)
    assert majorizes(a, a)
    pure = state_spectrum([1.0])
    assert majorizes(pure, a) and majorizes(pure, b)


def test_majorizes_rejects_unequal_totals():
    with pytest.raises(InvalidInputError):
        majorizes(spectrum([0.9]), spectrum([0.5, 0.5]))


def test_orbit_distance_hand_values():
    assert math.isclose(
        orbit_distance(spectrum([0.7, 0.3]), spectrum([0.5, 0.5])), 0.4, abs_tol=1e-15
    )
    assert math.isclose(
        orbit_distance(spectrum([1.0]), spectrum([0.5, 0.5])), 1.0, abs_tol=1e-15
    )
    s = spectrum([0.6, 0.4])
    assert orbit_distance(s, s) == 0.0


@given(state_spectra, state_spectra)
@settings(max_examples=100, deadline=None)
def test_orbit_distance_norm_identity(a, b):
    """Sorted-difference sum, scale L1 and distribution L1 all coincide."""
    d = orbit_distance(a, b)
    assert math.isclose(d, l1_distance(spectral_scale(a), spectral_scale(b)), abs_tol=1e-12)
    assert math.isclose(
        d,
        l1_distance(distribution_function(a), distribution_function(b)),
        abs_tol=1e-12,
    )


@given(state_spectra, state_spectra, state_spectra)
@settings(max_examples=50, deadline=None)
def test_orbit_distance_triangle(a, b, c):
    assert orbit_distance(a, c) <= orbit_distance(a, b) + orbit_distance(b, c) + 1e-12


# --------------------------------------------------------------------------- #
# spectral states (atomic avatars)
# --------------------------------------------------------------------------- #

def test_spectral_state_hand_values():
    m = spectral_state(state_spectrum([2 / 3, 1 / 3]))
    assert m.atoms == (1 / 3, 2 / 3)
    assert m.masses == (1 / 3, 2 / 3)
    merged = spectral_state(state_spectrum([0.5, 0.5]))
    assert merged.atoms == (0.5,)
    assert math.isclose(merged.masses[0], 1.0, abs_tol=1e-15)
    assert spectral_state(state_spectrum([1.0])).atoms == (1.0,)


def test_spectral_state_requires_state():
    with pytest.raises(InvalidInputError):
        spectral_state(spectrum([0.5, 0.4]))


@given(state_spectra)
def test_spectral_state_mass_is_one(s):
    assert math.isclose(spectral_state(s).total_mass, 1.0, abs_tol=1e-12)


def test_atomic_measure_rejects_garbage():
    with pytest.raises(InvalidInputError):
        atomic_measure([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(InvalidInputError):
        atomic_measure([1.0], [0.0])


def test_atomic_measure_merges_relative_neighbors():
    m = atomic_measure([1.0, 1.0 + 1e-14, 2.0], [0.2, 0.3, 0.5])
    assert len(m.atoms) == 2
    assert math.isclose(m.masses[0], 0.5, abs_tol=1e-15)


# --------------------------------------------------------------------------- #
# the flow
# --------------------------------------------------------------------------- #

def test_flow_hand_values():
    unit = atomic_measure([1.0], [1.0])
    moved = flow_act(unit, math.log(2.0))
    assert moved.atoms == (2.0,)
    assert moved.masses == (1.0,)
    m = spectral_state(state_spectrum([2 / 3, 1 / 3]))
    f = flow_act(m, math.log(2.0))
    assert np.allclose(f.atoms, (2 / 3, 4 / 3))
    assert f.masses == m.masses


def test_flow_identity_at_zero():
    m = spectral_state(state_spectrum([0.7, 0.3]))
    assert flow_act(m, 0.0) is m


@pytest.mark.parametrize("t", [800.0, -800.0, 1e308, math.inf, -math.inf, math.nan])
def test_flow_act_refuses_times_that_leave_float64(t):
    m = atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])
    with pytest.raises(InvalidInputError, match=r"moves atoms in \[0\.0625, 1\.0\] out of float64 range"):
        flow_act(m, t)


def test_flow_deviation_refuses_an_overflowing_density():
    """Atoms that stay positive but subnormal make the distribution density
    overflow; that is refused, while a flow that keeps it finite still runs."""
    m = atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])
    assert 0.0 < flow_deviation(m, -700.0) <= 2.0
    assert 0.0 < flow_act(m, -720.0).atoms[0] < 1e-308
    with pytest.raises(InvalidInputError, match=r"distribution density of atoms in \[.*\] overflows float64"):
        flow_deviation(m, -720.0)


@given(state_spectra, st.floats(-3, 3), st.floats(-3, 3))
def test_flow_group_law(s, t1, t2):
    m = spectral_state(s)
    once = flow_act(flow_act(m, t1), t2)
    direct = flow_act(m, t1 + t2)
    assert once.isclose(direct, tol=1e-9)
    assert math.isclose(once.total_mass, m.total_mass, abs_tol=1e-12)


# --------------------------------------------------------------------------- #
# smearing
# --------------------------------------------------------------------------- #

def test_smear_hand_values():
    unit = atomic_measure([1.0], [1.0])
    m = smear(unit, state_spectrum([0.5, 0.5]))
    assert m.atoms == (0.5,)
    assert math.isclose(m.masses[0], 1.0, abs_tol=1e-15)

    psi = spectral_state(state_spectrum([0.5, 0.5]))
    assert smear(psi, state_spectrum([1.0])).isclose(psi, tol=1e-15)

    third = state_spectrum([2 / 3, 1 / 3])
    got = smear(spectral_state(third), third)
    want = spectral_state(state_spectrum([4 / 9, 2 / 9, 2 / 9, 1 / 9]))
    assert got.isclose(want, tol=1e-12)


def test_smear_rejects_non_state_weight():
    with pytest.raises(InvalidInputError):
        smear(atomic_measure([1.0], [1.0]), spectrum([0.5, 0.4]))


@given(state_spectra, state_spectra)
@settings(max_examples=100, deadline=None)
def test_smear_equals_tensor_spectral_state(a, b):
    got = smear(spectral_state(a), b)
    want = spectral_state(tensor_spectrum(a, b))
    assert got.isclose(want, tol=1e-12)
    assert math.isclose(got.total_mass, 1.0, abs_tol=1e-12)


def test_smear_against_kron_eigensolve():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = normalized(rng.random(rng.integers(1, 6)))
        b = normalized(rng.random(rng.integers(1, 6)))
        got = smear(spectral_state(a), b)
        want = spectral_state(kron_spectrum(a, b))
        assert got.isclose(want, tol=1e-10)


# --------------------------------------------------------------------------- #
# deviation norms and the kappa cross-check
# --------------------------------------------------------------------------- #

def test_tv_distance_hand_values():
    unit = atomic_measure([1.0], [1.0])
    assert tv_distance(unit, flow_act(unit, 1.0)) == 2.0
    m = spectral_state(state_spectrum([2 / 3, 1 / 3]))
    assert math.isclose(tv_distance(m, flow_act(m, math.log(2))), 4 / 3, abs_tol=1e-12)
    assert tv_distance(m, m) == 0.0


def test_measure_distribution_matches_distribution_function():
    for vals in ([0.7, 0.3], [0.5, 0.5], [0.4, 0.35, 0.25], [1.0]):
        s = state_spectrum(vals)
        d1 = measure_distribution(spectral_state(s))
        d2 = distribution_function(s)
        assert l1_distance(d1, d2) <= 1e-12


def test_flow_deviation_hand_value():
    """Exact by-hand distribution-density integral for (2/3, 1/3) at log 2.

    D = 2 on [0,1/3), 1 on [1/3,2/3); the flow translate has density
    (1/2)D(s/2): 1 on [0,2/3), 1/2 on [2/3,4/3).  The pointwise gap is 1 on
    [0,1/3), 0 on [1/3,2/3), 1/2 on [2/3,4/3): total 1/3 + 1/3 = 2/3.
    """
    m = spectral_state(state_spectrum([2 / 3, 1 / 3]))
    assert math.isclose(flow_deviation(m, math.log(2)), 2 / 3, abs_tol=1e-12)


def test_flow_deviation_basics():
    m = spectral_state(state_spectrum([0.6, 0.4]))
    assert flow_deviation(m, 0.0) == 0.0
    assert flow_deviation(m, 40.0) <= 2.0 + 1e-12
    # approaches (never exceeds) the semifinite value 2
    assert flow_deviation(m, 40.0) >= 2.0 - 1e-12
    assert flow_deviation(m, 1.7) < 2.0


@given(state_spectra, st.floats(-4, 4))
@settings(max_examples=60, deadline=None)
def test_flow_deviation_symmetric_and_bounded(s, t):
    m = spectral_state(s)
    d = flow_deviation(m, t)
    assert -1e-12 <= d <= 2.0 + 1e-12
    assert math.isclose(d, flow_deviation(m, -t), abs_tol=1e-10)
    assert hs_distance(m, flow_act(m, t)) <= tv_distance(m, flow_act(m, t)) + 1e-12


def test_kappa_cross_check_exhaustive_small():
    """flow_deviation(psi_hat, log(m/n)) is the unitary-orbit distance between
    the state tensored with flat states of ranks n and m."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = normalized(rng.random(rng.integers(1, 5)))
        hat = spectral_state(s)
        for n in range(1, 6):
            for m in range(1, 6):
                lhs = flow_deviation(hat, math.log(m / n))
                rhs = orbit_distance(
                    tensor_spectrum(s, flat_spectrum(n)),
                    tensor_spectrum(s, flat_spectrum(m)),
                )
                assert math.isclose(lhs, rhs, abs_tol=1e-10)


def test_flow_deviation_rank_10k_matches_orbit_distance():
    """At rank 10^4, flow_deviation(psi_hat, log 2) is the orbit distance
    between s (x) flat(1) and s (x) flat(2)."""
    s = spectrum(np.random.default_rng(17).dirichlet(np.ones(10_000)))
    lhs = flow_deviation(spectral_state(s), math.log(2))
    rhs = orbit_distance(
        tensor_spectrum(s, flat_spectrum(1)), tensor_spectrum(s, flat_spectrum(2))
    )
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-12)


def test_kappa_profile_values():
    assert kappa_profile(state_spectrum([1.0]), [0.0]) == [0.0]
    prof = kappa_profile(state_spectrum([2 / 3, 1 / 3]), [0.0, math.log(2)])
    assert prof[0] == 0.0
    assert math.isclose(prof[1], 2 / 3, abs_tol=1e-12)


# --------------------------------------------------------------------------- #
# monotone functionals
# --------------------------------------------------------------------------- #

def test_monotone_Ef_hand_values():
    sq = MonotoneFunctionSpec.power(2.0)
    assert math.isclose(
        monotone_Ef(spectral_scale(state_spectrum([0.5, 0.5])), sq), 0.5, abs_tol=1e-15
    )
    assert math.isclose(
        monotone_Ef(spectral_scale(state_spectrum([1.0])), sq), 1.0, abs_tol=1e-15
    )
    for p in (0.5, 0.6, 0.9):
        scale = spectral_scale(state_spectrum([p, 1 - p]))
        assert math.isclose(monotone_Ef(scale, sq), p * p + (1 - p) * (1 - p), abs_tol=1e-15)


def test_monotone_Ef_purity_matches_trace_oracle():
    rng = np.random.default_rng(3)
    sq = MonotoneFunctionSpec.power(2.0)
    for _ in range(20):
        s = normalized(rng.random(4))
        rho = np.diag(s.padded(4))
        assert math.isclose(
            monotone_Ef(spectral_scale(s), sq), float(np.trace(rho @ rho)), abs_tol=1e-12
        )


def test_monotone_Ef_rejects_nonzero_origin():
    bad = MonotoneFunctionSpec.tabulated([0.0, 1.0], [0.5, 1.0])
    with pytest.raises(InvalidInputError):
        monotone_Ef(spectral_scale(state_spectrum([1.0])), bad)


def test_hinge_family_orientation():
    """Convex non-decreasing f with f(0)=0: the *less mixed* spectrum has the
    larger integral.  Explicit witness: b=(1,0) vs a=(1/2,1/2) at c=1/4."""
    hinge = MonotoneFunctionSpec.hinge(0.25)
    b = spectral_scale(state_spectrum([1.0]))
    a = spectral_scale(state_spectrum([0.5, 0.5]))
    assert math.isclose(monotone_Ef(b, hinge), 0.75, abs_tol=1e-15)
    assert math.isclose(monotone_Ef(a, hinge), 0.50, abs_tol=1e-15)


@given(state_spectra, state_spectra)
@settings(max_examples=100, deadline=None)
def test_hinge_family_is_complete_for_majorization(a, b):
    """majorizes(b, a)  <=>  E_hinge_c(b) >= E_hinge_c(a) at every kink c.

    The hinge integrals are piecewise linear in c with kinks only at spectrum
    entries, so checking those c (plus 0) decides the full family.
    """
    try:
        dominated = majorizes(b, a)
    except InvalidInputError:
        return
    cs = sorted(set(a.values) | set(b.values) | {0.0})
    fa = spectral_scale(a)
    fb = spectral_scale(b)
    hinge_ok = all(
        monotone_Ef(fb, MonotoneFunctionSpec.hinge(c))
        >= monotone_Ef(fa, MonotoneFunctionSpec.hinge(c)) - 1e-12
        for c in cs
    )
    assert dominated == hinge_ok


def test_hinge_direction_on_random_feasible_pairs():
    rng = np.random.default_rng(19)
    count = 0
    while count < 20:
        b = normalized(rng.random(4))
        a = normalized(rng.random(4))
        if not majorizes(b, a):
            continue
        count += 1
        for c in np.linspace(0.0, 1.0, 20):
            h = MonotoneFunctionSpec.hinge(float(c))
            assert (
                monotone_Ef(spectral_scale(b), h)
                >= monotone_Ef(spectral_scale(a), h) - 1e-12
            )


# --------------------------------------------------------------------------- #
# entropies
# --------------------------------------------------------------------------- #

def test_entropies_hand_values():
    rep = entanglement_entropies(state_spectrum([0.5, 0.5]), [0.5, 2.0])
    assert math.isclose(rep.H, math.log(2), abs_tol=1e-12)
    assert rep.schmidt_rank == 2
    assert math.isclose(rep.H_alpha[2.0], math.log(2), abs_tol=1e-12)

    rep1 = entanglement_entropies(state_spectrum([1.0]), [2.0])
    assert rep1.H == 0.0
    assert rep1.schmidt_rank == 1

    rep2 = entanglement_entropies(state_spectrum([0.5, 0.25, 0.25]), [2.0])
    assert math.isclose(rep2.H_alpha[2.0], -math.log(0.375), abs_tol=1e-12)
    assert rep2.schmidt_rank == 3


def test_entropies_reject_degenerate_alpha():
    s = state_spectrum([0.5, 0.5])
    for bad in (0.0, 1.0, -2.0):
        with pytest.raises(InvalidInputError):
            entanglement_entropies(s, [bad])


@given(state_spectra)
@settings(max_examples=60, deadline=None)
def test_renyi_ordering(s):
    """H_alpha is non-increasing in alpha; Shannon sits between 0.5 and 2."""
    rep = entanglement_entropies(s, [0.5, 2.0])
    assert rep.H_alpha[0.5] >= rep.H - 1e-10
    assert rep.H >= rep.H_alpha[2.0] - 1e-10
    assert rep.H <= math.log(rep.schmidt_rank) + 1e-10


def test_monotone_xlogx_recovers_negative_entropy():
    s = state_spectrum([0.6, 0.3, 0.1])
    e = monotone_Ef(spectral_scale(s), MonotoneFunctionSpec.xlogx())
    assert math.isclose(e, -entanglement_entropies(s, [2.0]).H, abs_tol=1e-12)

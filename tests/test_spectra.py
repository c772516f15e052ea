"""Tests for spectral scales, distribution functions, majorization, spectral
states, the scaling flow, and entanglement entropies.

Oracle conventions: exact rational hand values are frozen as literals;
integration is cross-checked against a dense Riemann-sum oracle; smearing is
cross-checked against eigenvalues of an explicit Kronecker product; the flow
deviation is cross-checked against the unitary-orbit distance of tensor
products with flat spectra, which is the identity the whole module exists to
reproduce.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.errors import InvalidInputError
from entlab.quantum import density, pure_state, state_from_schmidt
from entlab.spectra import (
    AtomicMeasure,
    Spectrum,
    StepFunction,
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
    orbit_distance,
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
        f.breakpoints[-1] if f.breakpoints.size else 0.0,
        g.breakpoints[-1] if g.breakpoints.size else 0.0,
    )
    if hi == 0.0:
        return 0.0
    ts = np.linspace(0.0, hi, points)
    mids = (ts[:-1] + ts[1:]) / 2.0
    h = ts[1] - ts[0]

    def levels_at(step):
        # the level after the last breakpoint <= t, as step_value reads it
        return np.asarray(step.levels)[np.searchsorted(step.breakpoints, mids, side="right")]

    return float(np.abs(levels_at(f) - levels_at(g)).sum() * h)


def step_value(step, t):
    """The level of a step function at t >= 0: the one after the last
    breakpoint <= t."""
    return step.levels[int(np.searchsorted(step.breakpoints, t, side="right"))]


def loop_l1(f, g):
    """Per-segment loop over the merged grid, reading levels through
    ``step_value``: the same terms as the array kernel, so the two must
    agree bit for bit."""
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    pts = [0.0] + grid
    total = []
    for left, right in zip(pts, pts[1:]):
        total.append((right - left) * abs(step_value(f, left) - step_value(g, left)))
    return float(math.fsum(total))


def kron_spectrum(a: Spectrum, b: Spectrum) -> Spectrum:
    """Tensor spectrum via an honest matrix eigensolve."""
    m = np.kron(np.diag(a.values), np.diag(b.values))
    return spectrum(np.linalg.eigvalsh(m))


# --------------------------------------------------------------------------- #
# Spectrum canonicalization
# --------------------------------------------------------------------------- #

def test_spectrum_sorts_and_strips_zeros():
    s = spectrum([0.0, 0.3, 0.7, 0.0])
    assert s.values.tolist() == [0.7, 0.3]
    assert s.rank == 2


def test_spectrum_clips_tiny_negatives_and_rejects_real_ones():
    s = spectrum([0.5, -1e-11, 0.5])
    assert s.values.tolist() == [0.5, 0.5]
    with pytest.raises(InvalidInputError):
        spectrum([0.5, -1e-3])


@pytest.mark.parametrize(
    "values, text",
    [([math.nan, 1.0], "spectrum entry 0 is nan"), ([1.0, math.inf], "spectrum entry 1 is inf"),
     ([0.5, -math.inf, 0.5], "spectrum entry 1 is -inf")],
    ids=["nan", "inf", "minus_inf"],
)
def test_spectrum_rejects_non_finite_entries(values, text):
    """NaN would be stripped as a zero and inf kept as a weight; both are
    refused, naming the entry, also where the total is checked."""
    for build in (spectrum, state_spectrum):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}, not a finite number$"):
            build(values)


@pytest.mark.parametrize(
    "build, text",
    [(lambda: atomic_measure([math.nan, 1.0], [0.5, 0.5]), "atoms entry 0 is nan"),
     (lambda: atomic_measure([1.0, math.inf], [0.5, 0.5]), "atoms entry 1 is inf"),
     (lambda: atomic_measure([1.0, 2.0], [math.inf, 0.5]), "masses entry 0 is inf"),
     (lambda: atomic_measure([1.0], [math.nan]), "masses entry 0 is nan"),
     (lambda: step_function([math.nan], [1.0, 0.0]), "breakpoints entry 0 is nan"),
     (lambda: step_function([1.0, math.inf], [2.0, 1.0, 0.0]), "breakpoints entry 1 is inf"),
     (lambda: step_function([1.0], [math.inf, 0.0]), "levels entry 0 is inf")],
    ids=["atom-nan", "atom-inf", "mass-inf", "mass-nan", "breakpoint-nan", "breakpoint-inf",
         "level-inf"],
)
def test_measure_and_step_function_reject_non_finite_entries(build, text):
    """A NaN atom was dropped by the merge (its mass moved to a neighbour),
    and infinite atoms, masses and breakpoints were kept; all are refused,
    naming the entry as the spectrum does."""
    with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}, not a finite number$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [(lambda: spectrum([[0.5], [0.5]]), "spectrum values must be a flat list"),
     (lambda: flat_spectrum(0), "flat spectrum needs n >= 1"),
     (lambda: StepFunction((1.0,), (1.0,)), "need exactly one more level than breakpoints"),
     (lambda: StepFunction((1.0,), (1.0, 0.5)), "a step function must vanish eventually"),
     (lambda: step_function([1.0], [1.0]), "need exactly one more level than breakpoints"),
     (lambda: step_function([0.0], [1.0, 0.0]), "breakpoints must be positive"),
     (lambda: step_function([2.0, 1.0], [2.0, 1.0, 0.0]), "breakpoints must be strictly increasing"),
     (lambda: step_function([1.0], [-1.0, 0.0]), "levels must be non-negative"),
     (lambda: step_function([1.0], [1.0, 0.5]), "final level must be zero"),
     (lambda: atomic_measure([1.0, 2.0], [1.0]), "atoms and masses must be flat lists of equal length"),
     (lambda: entanglement_entropies(spectrum([0.5])), "entropies are defined for state spectra")],
    ids=["spectrum-2d", "flat-zero", "step-class-count", "step-class-last-level", "step-count",
         "step-breakpoint-zero", "step-breakpoints-decrease", "step-level-negative",
         "step-last-level", "measure-lengths", "entropies-non-state"],
)
def test_spectral_objects_refuse_malformed_input(build, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        build()


def test_empty_spectra_and_measures_and_foreign_comparisons():
    """Two empty spectra majorize each other at orbit distance 0, an empty
    measure has the zero distribution, a spectrum never equals a number, and
    measures whose atom counts or positions differ are not close."""
    empty = spectrum([])
    assert majorizes(empty, empty) is True
    assert orbit_distance(empty, empty) == 0.0
    assert measure_distribution(atomic_measure([], [])) is ZERO_STEP
    assert (Spectrum([1.0]) == 1) is False
    m = atomic_measure([0.25, 1.0], [0.5, 0.5])
    assert not m.isclose(atomic_measure([1.0], [1.0]))
    assert not m.isclose(atomic_measure([0.5, 1.0], [0.5, 0.5]))


@pytest.mark.parametrize(
    "build, name",
    [(lambda: spectrum(5.0), "spectrum"),
     (lambda: atomic_measure(1.0, 1.0), "atoms"),
     (lambda: state_from_schmidt(0.5), "Schmidt coefficients"),
     (lambda: pure_state((1, 1), 1.0), "amplitudes"),
     (lambda: spectrum(["a"]), "spectrum"),
     (lambda: spectrum([[1], [2, 3]]), "spectrum"),
     (lambda: step_function(["a"], [1, 0]), "breakpoints"),
     (lambda: pure_state((1, 1), ["a"]), "amplitudes"),
     (lambda: density([["a"]]), "density"),
     (lambda: spectrum([1j]), "spectrum"),
     (lambda: spectrum("91"), "spectrum"),
     (lambda: spectrum(np.array([0.5 + 1j, 0.5])), "spectrum"),
     (lambda: atomic_measure([10**400], [1.0]), "atoms")],
    ids=["spectrum-scalar", "measure-scalar", "schmidt-scalar", "amplitudes-scalar",
         "spectrum-string", "spectrum-ragged", "breakpoint-string", "amplitude-string",
         "density-string", "spectrum-complex", "spectrum-text", "spectrum-complex-array",
         "atom-huge-int"],
)
def test_array_constructors_refuse_what_is_not_an_array_of_numbers(build, name):
    """A scalar, a text entry, a ragged list, an int beyond float64 or a
    complex entry where reals belong is malformed input: refused naming the
    argument, not NumPy's TypeError, ValueError or OverflowError, and text
    is not parsed nor an imaginary part dropped."""
    with pytest.raises(InvalidInputError, match=f"^{name} must be an array of numbers"):
        build()


def test_state_spectrum_normalization_gate():
    assert state_spectrum([0.5, 0.5]).is_state()
    with pytest.raises(InvalidInputError):
        state_spectrum([0.5, 0.4])


def test_tensor_and_flat():
    t = tensor_spectrum(state_spectrum([0.7, 0.3]), flat_spectrum(2))
    assert np.allclose(t.values, (0.35, 0.35, 0.15, 0.15))
    assert flat_spectrum(4).values.tolist() == [0.25] * 4


@given(entries)
def test_spectrum_canonicalization_is_idempotent(vals):
    s = spectrum(vals)
    assert spectrum(s.values) == s
    assert all(x >= y for x, y in zip(s.values, s.values[1:]))


# --------------------------------------------------------------------------- #
# scales and distribution functions
# --------------------------------------------------------------------------- #

def test_scale_hand_values():
    f = spectral_scale(spectrum([0.7, 0.3]))
    assert f.breakpoints.tolist() == [1.0, 2.0]
    assert f.levels.tolist() == [0.7, 0.3, 0.0]
    assert spectral_scale(spectrum([1.0])).breakpoints.tolist() == [1.0]
    # equal eigenvalues merge into one plateau
    g = spectral_scale(spectrum([0.5, 0.5]))
    assert g.breakpoints.tolist() == [2.0]
    assert g.levels.tolist() == [0.5, 0.0]


def test_distribution_hand_values():
    d = distribution_function(spectrum([0.7, 0.3]))
    assert d.breakpoints.tolist() == [0.3, 0.7]
    assert d.levels.tolist() == [2.0, 1.0, 0.0]
    d2 = distribution_function(spectrum([0.5, 0.5]))
    assert d2.breakpoints.tolist() == [0.5]
    assert d2.levels.tolist() == [2.0, 0.0]


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
    assert m.atoms.tolist() == [1 / 3, 2 / 3]
    assert m.masses.tolist() == [1 / 3, 2 / 3]
    merged = spectral_state(state_spectrum([0.5, 0.5]))
    assert merged.atoms.tolist() == [0.5]
    assert math.isclose(merged.masses[0], 1.0, abs_tol=1e-15)
    assert spectral_state(state_spectrum([1.0])).atoms.tolist() == [1.0]


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


def test_atomic_measure_chains_runs():
    """Consecutive log gaps of 0.7e-12 chain into one atom although the run
    spans 1.4e-12, more than ``MERGE_TOL``."""
    m = atomic_measure([1.0 + 1.4e-12, 1.0, 1.0 + 7e-13], [0.5, 0.2, 0.3])
    assert m.atoms == (1.0,)
    assert math.isclose(m.masses[0], 1.0, abs_tol=1e-15)


# --------------------------------------------------------------------------- #
# the flow
# --------------------------------------------------------------------------- #

def test_flow_hand_values():
    unit = atomic_measure([1.0], [1.0])
    moved = flow_act(unit, math.log(2.0))
    assert moved.atoms.tolist() == [2.0]
    assert moved.masses.tolist() == [1.0]
    m = spectral_state(state_spectrum([2 / 3, 1 / 3]))
    f = flow_act(m, math.log(2.0))
    assert np.allclose(f.atoms, (2 / 3, 4 / 3))
    assert np.array_equal(f.masses, m.masses)


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
    overflow; ``measure_distribution`` refuses it, while ``flow_deviation``,
    which never forms the density, still gives a value."""
    m = atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])
    assert 0.0 < flow_deviation(m, -700.0) <= 2.0
    assert 0.0 < flow_act(m, -720.0).atoms[0] < 1e-308
    assert 0.0 < flow_deviation(m, -720.0) <= 2.0
    with pytest.raises(InvalidInputError, match=r"distribution density of atoms in \[.*\] overflows float64"):
        measure_distribution(flow_act(m, -720.0))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_deviation_refuses_non_finite_times(t):
    m = atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])
    with pytest.raises(InvalidInputError, match=rf"flow time t={t!r} is not finite"):
        flow_deviation(m, t)


@pytest.mark.parametrize("t", [700.0, -700.0, 800.0, -800.0, 1e308, -1e308])
def test_flow_deviation_accepts_every_finite_time(t):
    """Past the atoms' log spread the translate no longer overlaps the state,
    so the deviation is 2 * total mass to rounding, and never above it."""
    rng = np.random.default_rng(23)
    measures = [atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])]
    measures += [spectral_state(normalized(rng.random(n))) for n in (1, 7, 300)]
    for m in measures:
        value = flow_deviation(m, t)
        assert 0.0 <= value <= 2.0 * m.total_mass
        assert value == pytest.approx(2.0 * m.total_mass, abs=2e-15)


def test_flow_deviation_matches_the_density_route_at_large_times():
    """Where the atoms and their densities stay inside float64, the
    log-domain kernel agrees with the step-function route of
    ``measure_distribution`` and ``l1_distance``, also when the flow moves
    atoms by hundreds of e-folds and the translate interleaves the state."""
    m = atomic_measure([1e-300, 1e-200, 1e-100, 1.0], [0.125, 0.125, 0.25, 0.5])
    for t in (0.1, 3.0, 100.0, 230.0, 460.0, 690.0, 700.0):
        route = l1_distance(measure_distribution(m), measure_distribution(flow_act(m, t)))
        assert flow_deviation(m, t) == pytest.approx(route, abs=1e-13), t
        assert flow_deviation(m, -t) == pytest.approx(flow_deviation(m, t), abs=1e-13), t


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


def test_smear_is_the_tensor_spectral_state_bit_for_bit():
    """Smearing multiplies the atoms by the weights, so on 600 seeded pairs
    of ranks 1-6 it is the spectral state of the tensor product spectrum
    under ``==``: atoms and masses to the last bit."""
    rng = np.random.default_rng(20)
    for _ in range(600):
        a, b = (state_spectrum(rng.dirichlet(np.ones(rng.integers(1, 7)))) for _ in range(2))
        assert smear(spectral_state(a), b) == spectral_state(tensor_spectrum(a, b))


def test_smear_refuses_a_product_that_underflows():
    """1e-300 * 1e-30 is 0 in float64: refused, naming the weight and the
    atoms, with no floating-point warning; a subnormal product is kept."""
    psi = atomic_measure([1e-300, 1.0], [0.5, 0.5])
    with pytest.raises(InvalidInputError, match=re.escape(
            "smearing weight w=1e-30 moves atoms in [1e-300, 1.0] out of float64 range")):
        smear(psi, state_spectrum([1.0, 1e-30]))
    assert smear(psi, state_spectrum([1.0, 1e-12])).atoms[0] == 1e-300 * 1e-12


def test_smear_refuses_a_mass_product_that_underflows():
    """A mass product that underflows to 0 is refused by the same rule as an
    atom product, naming the weight and the masses, with no floating-point
    warning; a subnormal mass product is kept."""
    psi = atomic_measure([1.0], [1e-300])
    with pytest.raises(InvalidInputError, match=re.escape(
            "smearing weight w=1e-30 moves masses in [1e-300, 1e-300] out of float64 range")):
        smear(psi, state_spectrum([1.0, 1e-30]))
    assert smear(psi, state_spectrum([1.0, 1e-12])).masses.min() == 1e-300 * 1e-12


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


def test_tv_distance_runs_bridge_the_other_measure():
    """An atom of one measure within ``MERGE_TOL`` of two atoms of the other,
    which are 1.4e-12 apart in log, joins them into one run."""
    two = atomic_measure([1.0, 1.0 + 1.4e-12, 2.0], [0.375, 0.375, 0.25])
    assert len(two.atoms) == 3
    bridge = atomic_measure([1.0 + 7e-13, 3.0], [0.75, 0.25])
    assert tv_distance(two, bridge) == tv_distance(bridge, two) == 0.5
    heavier = atomic_measure([1.0 + 7e-13], [1.0])
    assert tv_distance(two, heavier) == 0.25 + 0.25


grid_atoms = st.lists(
    st.tuples(st.sampled_from([0.125, 0.5, 1.0, 3.0, 7.0]), st.integers(1, 16)),
    min_size=1,
    max_size=8,
)


@given(grid_atoms, grid_atoms)
@settings(max_examples=100, deadline=None)
def test_tv_distance_matches_dict_oracle(pairs1, pairs2):
    """Grid atoms coincide exactly or sit far apart, and masses are multiples
    of 1/8, so every sum is exact and the oracle must match bit for bit."""
    oracle: dict[float, float] = {}
    for sign, pairs in ((1.0, pairs1), (-1.0, pairs2)):
        for atom, k in pairs:
            oracle[atom] = oracle.get(atom, 0.0) + sign * k / 8
    m1, m2 = (atomic_measure([a for a, _ in p], [k / 8 for _, k in p]) for p in (pairs1, pairs2))
    want = math.fsum(abs(v) for v in oracle.values())
    assert tv_distance(m1, m2) == tv_distance(m2, m1) == want


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
# hinge integrals: an independent majorization oracle
# --------------------------------------------------------------------------- #

def hinge_integral(s: Spectrum, c: float) -> float:
    """Integral of max(scale(t) - c, 0) over the spectral scale of s, whose
    steps have unit width."""
    return math.fsum(np.maximum(s.values - c, 0.0))


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
    hinge_ok = all(hinge_integral(b, c) >= hinge_integral(a, c) - 1e-12 for c in cs)
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
            assert hinge_integral(b, float(c)) >= hinge_integral(a, float(c)) - 1e-12


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


def test_entropies_of_a_rank_one_spectrum_are_positive_zero():
    """-sum v log v and log(1) / (1 - alpha) for alpha > 1 are -0.0 in
    floating point; the report gives 0.0, so JSON prints 0, not -0."""
    report = entanglement_entropies(spectrum([1.0]), [0.5, 2.0, 3000.0])
    values = [report.H, *report.H_alpha.values()]
    assert values == [0.0] * 4
    assert all(math.copysign(1.0, v) == 1.0 for v in values)


def test_entropies_reject_degenerate_alpha():
    s = state_spectrum([0.5, 0.5])
    for bad in (0.0, 1.0, -2.0):
        with pytest.raises(InvalidInputError):
            entanglement_entropies(s, [bad])


def test_renyi_large_and_non_finite_orders():
    """0.7**3000 underflows, so the sum is taken relative to the largest entry;
    non-finite orders are refused like the other excluded ones."""
    s = state_spectrum([0.7, 0.3])
    h = entanglement_entropies(s, [2.0, 2000.0, 3000.0, 1e6]).H_alpha
    assert math.isclose(h[3000.0], 3000 * math.log(0.7) / (1 - 3000), rel_tol=1e-15)
    assert h[2.0] >= h[2000.0] >= h[3000.0] >= h[1e6] >= -math.log(0.7)
    # alpha log v0 alone would overflow here
    assert math.isclose(entanglement_entropies(flat_spectrum(10), [1e308]).H_alpha[1e308], math.log(10))
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="Renyi order"):
            entanglement_entropies(s, [bad])


@given(state_spectra)
@settings(max_examples=60, deadline=None)
def test_renyi_ordering(s):
    """H_alpha is non-increasing in alpha; Shannon sits between 0.5 and 2."""
    rep = entanglement_entropies(s, [0.5, 2.0])
    assert rep.H_alpha[0.5] >= rep.H - 1e-10
    assert rep.H >= rep.H_alpha[2.0] - 1e-10
    assert rep.H <= math.log(rep.schmidt_rank) + 1e-10

"""Tests for the embezzlement / catalysis / factor-type module.

Oracles used here:
  * dense Kronecker construction + the bipartite closed-form orbit fidelity
    (for the coefficient-list embezzlement pipeline),
  * an exact binomial-shift l1 formula (for the catalytic deviation at the
    period),
  * the tensor-power spectral pipeline from the spectra module (for the
    closed-form binomial avatar),
  * a vectorized rotation-grid search (for the three-party alignment value).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import embezzle
from entlab.embezzle import (
    EmbezzleReport,
    LambdaFamilySpec,
    TypeLabel,
    VdhSpec,
    catalytic_deviation,
    classify_itpfi,
    embezzle_report,
    family_kappa_profile,
    kappa_max_formula,
    lambda_family_measure,
    multipartite_lu_fidelity,
    orbit_trace_defect,
    vdh_bound,
    vdh_coefficients,
    vdh_state,
)
from entlab.errors import InvalidInputError
from entlab.quantum import (
    _sorted_overlap,
    bell_state,
    lu_orbit_fidelity,
    product_basis_state,
    pure_state,
    schmidt,
    state_from_schmidt,
)
from entlab.spectra import (
    flow_deviation,
    kappa_profile,
    spectral_state,
    spectrum,
    tensor_spectrum,
)


# --------------------------------------------------------------------------- #
#                                   Oracles                                    #
# --------------------------------------------------------------------------- #

def dense_dressed_state(n, phi):
    """(harmonic n) (x) phi as an explicit bipartite state, via Kronecker."""
    grid = np.zeros((n, n))
    for i, ci in enumerate(vdh_coefficients(n)):
        grid[i, i] = ci
    amps = np.kron(grid, phi.matrix).ravel()
    return pure_state((n * phi.dims[0], n * phi.dims[1]), amps)


def binomial_shift_l1(lam, m):
    """l1 distance between Binomial(m, lam/(1+lam)) and its unit shift."""
    p = lam / (1.0 + lam)
    pmf = [math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]
    padded = [0.0] + pmf + [0.0]
    return math.fsum(abs(padded[k + 1] - padded[k]) for k in range(m + 2))


def lgamma_binomial_shift_l1(lam, m):
    """binomial_shift_l1 with the pmf taken from lgamma, for m where
    C(m, k) overflows a float."""
    log_p, log_q = math.log(lam) - math.log1p(lam), -math.log1p(lam)
    pmf = [
        math.exp(
            math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * log_p + (m - k) * log_q
        )
        for k in range(m + 1)
    ]
    padded = [0.0] + pmf + [0.0]
    return math.fsum(abs(b - a) for a, b in zip(padded, padded[1:]))


def lambda_distribution_l1(lam, m, t):
    """Integral of |D - D_t| for the m-fold lambda family, in NumPy.

    D(x) counts the m-fold eigenvalues above x (C(m, k) copies of
    lam^k / (1+lam)^m; those that underflow to 0 never count) and the flow
    translate is D_t(x) = e^-t D(x e^-t).  Both are evaluated at the left end
    of every segment of the merged breakpoint grid.
    """
    k = np.arange(m + 1)
    values = np.exp(k * math.log(lam) - m * math.log1p(lam))[::-1]  # ascending
    counts = np.array([float(math.comb(m, int(j))) for j in k])[::-1]
    tail = np.append(np.cumsum(counts[::-1])[::-1], 0.0)  # tail[i] = sum(counts[i:])
    moved = values * math.exp(t)
    pts = np.concatenate([[0.0], np.union1d(values, moved)])
    left, width = pts[:-1], np.diff(pts)
    here = tail[np.searchsorted(values, left, side="right")]
    there = tail[np.searchsorted(moved, left, side="right")] * math.exp(-t)
    return math.fsum(width * np.abs(here - there))


def half_kappa_oracle(m):
    """Exact flow deviation of the m-fold lambda = 1/2 family at t = log 2.

    On [2^-(k+1), 2^-k) the density of the flow-normalized avatar is
    (2/3)^m S_k with S_k = sum_{j <= k} C(m, j), and its flow translate is
    (2/3)^m S_{k+1} / 2; below 2^-m the two are (2/3)^m 2^m and half that.
    Summed in integers over the common denominator 2 * 3^m.
    """
    partial, c = [0], 1  # partial[k + 1] = S_k, so partial[0] = S_-1 = 0
    for j in range(m + 1):
        partial.append(partial[-1] + c)
        c = c * (m - j) // (j + 1)
    num = sum(abs(2 * partial[k + 1] - partial[k + 2]) << (m - k - 1) for k in range(-1, m))
    return (num + partial[m + 1]) / (2 * 3**m)


def half_catalysis_oracle(m):
    """Exact sum_k |B(k) - B(k-1)| with B(k) = C(m, k) 2^(m-k) / 3^m, the
    lambda = 1/2 binomial masses, in integers over the denominator 3^m."""
    scaled, c = [], 1
    for k in range(m + 1):
        scaled.append(c << (m - k))
        c = c * (m - k) // (k + 1)
    return sum(abs(a - b) for a, b in zip(scaled + [0], [0] + scaled)) / 3**m


def random_target(rng, d):
    """Random rank-d target state from a Dirichlet Schmidt spectrum."""
    probs = rng.dirichlet(np.ones(d)) + 1e-3
    probs = probs / probs.sum()
    return state_from_schmidt(np.sqrt(np.sort(probs)[::-1]))


# --------------------------------------------------------------------------- #
#                               Harmonic family                                #
# --------------------------------------------------------------------------- #

def test_vdh_coefficients_hand_values():
    assert np.allclose(vdh_coefficients(1), [1.0], atol=0)
    assert np.allclose(vdh_coefficients(2) ** 2, [2 / 3, 1 / 3], atol=1e-14)
    assert vdh_coefficients(4)[0] ** 2 == pytest.approx(12 / 25, abs=1e-14)
    for n in (1, 2, 3, 16, 1000, 2**16):
        c = vdh_coefficients(n)
        assert c.shape == (n,)
        assert np.all(np.diff(c) < 0) or n == 1
        assert math.fsum(c**2) == pytest.approx(1.0, abs=1e-12)


def test_vdh_normalization_is_math_fsum_bitwise():
    """The harmonic number is summed exactly and rounded once, so the list
    equals the one normalized by ``math.fsum`` bit for bit, across the
    boundaries of each binary-exponent run of the terms 1 / alpha."""
    sizes = list(range(1, 257)) + [2**k + j for k in range(1, 22) for j in (-1, 0, 1)]
    for n in sorted(set(sizes)):
        inv = 1.0 / np.arange(1, n + 1, dtype=float)
        expect = 1.0 / math.sqrt(math.fsum(inv)) * np.sqrt(inv)
        assert np.array_equal(vdh_coefficients(n), expect), n


def test_vdh_state_small_and_materialization_cap():
    s1 = vdh_state(1)
    assert s1.dims == (1, 1)
    assert np.allclose(s1.amplitudes, [1.0], atol=0)
    s2 = vdh_state(2)
    expect = np.diag([math.sqrt(2 / 3), math.sqrt(1 / 3)])
    assert np.allclose(s2.matrix, expect, atol=1e-14)
    with pytest.raises(InvalidInputError):
        vdh_state(4097)
    with pytest.raises(InvalidInputError):
        vdh_state(0)
    with pytest.raises(InvalidInputError):
        VdhSpec(-3)


def test_vdh_bound_hand_values():
    b = vdh_bound(1, 16)
    assert b.epsilon == 0.0 and b.fidelity_bound == 1.0
    b = vdh_bound(2, 4)
    assert b.epsilon == pytest.approx(1.0, abs=1e-15)
    assert b.fidelity_bound == pytest.approx(0.25, abs=1e-15)
    assert vdh_bound(2, 2**16).fidelity_bound == pytest.approx(0.87890625, abs=1e-15)
    # log d / log n >= 1 clips the fidelity bound to zero, never negative.
    b = vdh_bound(16, 2)
    assert b.fidelity_bound == 0.0
    assert b.epsilon == pytest.approx(math.sqrt(8.0), abs=1e-15)
    for bad in [(2, 1), (2, 0), (0, 4)]:
        with pytest.raises(InvalidInputError):
            vdh_bound(*bad)


def test_embezzle_report_product_to_bell_n4():
    report = embezzle_report(4, product_basis_state(2, 2), bell_state(2))
    # Frozen oracle from first principles: harmonic coefficients times the
    # target/start Schmidt lists, sorted, zero-padded, dotted, squared.
    c = [math.sqrt((12 / 25) / a) for a in (1, 2, 3, 4)]
    start = sorted((ci * t for ci in c for t in (1.0, 0.0)), reverse=True)
    target = sorted((ci * t for ci in c for t in (math.sqrt(0.5),) * 2), reverse=True)
    expect = math.fsum(s * t for s, t in zip(start, target)) ** 2
    assert report.fidelity == pytest.approx(expect, abs=1e-14)
    assert report.fidelity == pytest.approx(0.7022, abs=5e-4)
    assert report.trace_error == pytest.approx(2 * math.sqrt(1 - expect), abs=1e-12)
    # d = 2, n = 4 makes the guarantee threshold sqrt(0.25) = 0.5.
    assert report.meets_bound and math.sqrt(report.fidelity) > 0.5
    assert report.fidelity >= vdh_bound(2, 4).fidelity_bound


@pytest.mark.parametrize("n", [4, 8])
def test_embezzle_report_matches_dense_orbit_fidelity(n):
    pairs = [
        (product_basis_state(2, 2), bell_state(2)),
        (bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])),
        (state_from_schmidt([math.sqrt(0.84), math.sqrt(0.16)]), bell_state(3)),
    ]
    for start, target in pairs:
        report = embezzle_report(n, start, target)
        dense = lu_orbit_fidelity(dense_dressed_state(n, start), dense_dressed_state(n, target))
        assert report.fidelity == pytest.approx(dense, abs=1e-12)


def test_embezzle_fidelity_grid_meets_bound_and_is_monotone():
    start = product_basis_state(2, 2)
    target = bell_state(2)
    previous = 0.0
    for n in (2**4, 2**8, 2**12, 2**16):
        report = embezzle_report(n, start, target)
        assert math.sqrt(report.fidelity) >= 1.0 - math.log(2) / math.log(n)
        assert report.fidelity >= previous
        previous = report.fidelity
    assert embezzle_report(2**10, start, target).fidelity >= 0.81


def test_embezzle_report_runs_fast_for_huge_n():
    t0 = time.perf_counter()
    report = embezzle_report(2**20, product_basis_state(2, 2), bell_state(2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert 0.94 < report.fidelity < 0.95
    assert report.permutations[0].shape == (2**21,)


def test_embezzle_permutations_sort_the_product_lists():
    target = state_from_schmidt([math.sqrt(0.84), math.sqrt(0.16)])
    report = embezzle_report(4, product_basis_state(2, 2), target)
    perm_start, perm_target = report.permutations
    assert np.array_equal(np.sort(perm_target), np.arange(8))
    # Interleaving is non-trivial here: the big second coefficient of one
    # harmonic level beats the small first coefficient of the next.
    assert perm_target.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
    raw = np.multiply.outer(vdh_coefficients(4), np.array([math.sqrt(0.84), math.sqrt(0.16)])).ravel()
    assert np.all(np.diff(raw[perm_target]) <= 1e-15)
    assert np.array_equal(np.sort(perm_start), np.arange(8))


BIT_STARTS = [
    product_basis_state(2, 2),
    product_basis_state(3, 3),
    state_from_schmidt([0.8, 0.6, 0.0]),
    state_from_schmidt([1.0], dims=(2, 3)),
]
BIT_TARGETS = [
    bell_state(2),
    bell_state(3),
    state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)]),
    state_from_schmidt(np.sqrt([0.5, 0.3, 0.2])),
    state_from_schmidt([math.sqrt(0.5), math.sqrt(0.5), 0.0]),
    state_from_schmidt([math.sqrt(0.6), math.sqrt(0.4)], dims=(2, 5)),
]


@pytest.mark.parametrize("n", [1, 2, 4, 17, 256, 4097, 2**16 + 5])
def test_embezzle_report_is_the_argsort_formula_bitwise(n, monkeypatch):
    """The report sorts no raw list, yet gives the bits of stably argsorting
    the full product lists (exact zeros included) and taking their overlap;
    ``permutations`` is that argsort, built when read."""

    def refuse(*args, **kwargs):
        raise AssertionError("embezzle_report must not argsort")

    base = vdh_coefficients(n)
    for start in BIT_STARTS:
        for target in BIT_TARGETS:
            raws = [np.multiply.outer(base, schmidt(phi).coefficients).ravel() for phi in (start, target)]
            orders = [np.argsort(-raw, kind="stable") for raw in raws]
            fid = _sorted_overlap(*(raw[order] for raw, order in zip(raws, orders)))
            rank = schmidt(target).rank
            with monkeypatch.context() as patch:
                patch.setattr(np, "argsort", refuse)
                report = embezzle_report(n, start, target)
            assert report.fidelity == fid
            assert report.trace_error == 2.0 * math.sqrt(max(1.0 - fid, 0.0))
            meets = n < 2 or math.sqrt(fid) >= 1.0 - math.log(rank) / math.log(n)
            assert report.meets_bound == meets
            assert all(np.array_equal(p, o) for p, o in zip(report.permutations, orders))


def test_trace_error_and_marginal_defect_are_the_same_number():
    pairs = [
        (product_basis_state(2, 2), bell_state(2)),
        (bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])),
        (state_from_schmidt([math.sqrt(0.84), math.sqrt(0.16)]), bell_state(3)),
    ]
    for n in (4, 16, 256):
        for start, target in pairs:
            report = embezzle_report(n, start, target)
            defect = orbit_trace_defect(n, start, target)
            assert abs(report.trace_error - defect) <= 1e-9
        same = embezzle_report(n, bell_state(2), bell_state(2))
        assert same.fidelity == 1.0 and same.trace_error == 0.0
        assert orbit_trace_defect(n, bell_state(2), bell_state(2)) == 0.0


DEFECT_PAIRS = [
    (product_basis_state(2, 2), bell_state(2)),
    (bell_state(2), state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)])),
    (state_from_schmidt([math.sqrt(0.84), math.sqrt(0.16)]), bell_state(3)),
    (bell_state(2), bell_state(2)),
]


def test_orbit_trace_defect_matches_sorted_product_formula_bitwise():
    """The marginal-spectrum route squares the products before sorting; the
    squares of the sorted product lists give the same bits."""

    def sorted_squares(n, phi):
        raw = np.multiply.outer(vdh_coefficients(n), schmidt(phi).coefficients).ravel()
        return raw[np.argsort(-raw, kind="stable")] ** 2

    for n in (1, 4, 16, 256):
        for start, target in DEFECT_PAIRS:
            a, b = sorted_squares(n, start), sorted_squares(n, target)
            size = max(a.size, b.size)
            a, b = (np.pad(x, (0, size - x.size)) for x in (a, b))
            if np.array_equal(a, b):
                fid = 1.0
            else:
                fid = min(float(np.sum(np.sqrt(a) * np.sqrt(b))) ** 2, 1.0)
            assert orbit_trace_defect(n, start, target) == 2.0 * math.sqrt(max(1.0 - fid, 0.0))


def test_orbit_trace_defect_shares_no_code_with_the_report(monkeypatch):
    """The oracle runs without the report's sort, overlap routine or any
    argsort, and gives the same values."""
    want = [orbit_trace_defect(64, start, target) for start, target in DEFECT_PAIRS]

    def refuse(*args, **kwargs):
        raise AssertionError("orbit_trace_defect must not call this")

    for name in ("_sorted_products", "_sorted_overlap"):
        monkeypatch.setattr(embezzle, name, refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    assert [orbit_trace_defect(64, start, target) for start, target in DEFECT_PAIRS] == want


def test_embezzle_report_builds_each_list_once(monkeypatch):
    """One harmonic list and one Schmidt decomposition per state."""
    calls = {"vdh_coefficients": 0, "schmidt": 0}
    for name in calls:
        original = getattr(embezzle, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(embezzle, name, counted)
    report = embezzle_report(256, product_basis_state(2, 2), bell_state(3))
    assert calls == {"vdh_coefficients": 1, "schmidt": 2}
    assert report.meets_bound


@settings(max_examples=60, deadline=None)
@given(
    n_exp=st.sampled_from([4, 6, 8]),
    d=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_meets_bound_guarantee_for_product_starts(n_exp, d, seed):
    rng = np.random.default_rng(seed)
    target = random_target(rng, d)
    report = embezzle_report(2**n_exp, product_basis_state(d, d), target)
    assert report.meets_bound
    assert math.sqrt(report.fidelity) >= 1.0 - math.log(d) / math.log(2**n_exp)


def test_embezzle_report_n1_reduces_to_plain_orbit_fidelity():
    start = state_from_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
    target = bell_state(2)
    report = embezzle_report(1, start, target)
    assert report.fidelity == pytest.approx(lu_orbit_fidelity(start, target), abs=1e-14)
    assert report.meets_bound  # no finite threshold exists at n = 1


# --------------------------------------------------------------------------- #
#                          Lambda family / catalysis                           #
# --------------------------------------------------------------------------- #

def test_catalytic_deviation_hand_values():
    assert catalytic_deviation(LambdaFamilySpec(0.5, 1), math.log(2)) == pytest.approx(4 / 3, abs=1e-12)
    assert catalytic_deviation(LambdaFamilySpec(0.5, 2), math.log(2)) == pytest.approx(8 / 9, abs=1e-12)
    assert catalytic_deviation(LambdaFamilySpec(0.5, 3), 0.0) == 0.0
    for bad_lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidInputError):
            LambdaFamilySpec(bad_lam, 1)
    with pytest.raises(InvalidInputError):
        LambdaFamilySpec(0.5, 0)


@pytest.mark.parametrize("t", [-800.0, 800.0])
def test_catalytic_deviation_refuses_flow_out_of_float_range(t):
    """A flow far past float64's range for real atoms is still a flow: no
    atom lands on another, so the deviation is 2."""
    assert catalytic_deviation(LambdaFamilySpec(0.5, 4), t) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_lambda_family_diagnostics_refuse_non_finite_times(t):
    spec = LambdaFamilySpec(0.5, 4)
    with pytest.raises(InvalidInputError, match=rf"flow time t={t!r} is not finite"):
        family_kappa_profile(spec, [0.1, t])
    with pytest.raises(InvalidInputError, match=rf"flow time t={t!r} is not finite"):
        catalytic_deviation(spec, t)


@pytest.mark.parametrize("t", [700.0, -700.0, 800.0, -800.0, 1e308, -1e308])
def test_lambda_family_diagnostics_accept_every_finite_time(t):
    """Far from the atoms' log spread both diagnostics sit at 2 (the total
    mass is 1), and neither ever leaves [0, 2]."""
    for lam, m in ((0.5, 4), (0.9, 10**4), (0.1, 300)):
        spec = LambdaFamilySpec(lam, m)
        kappa = family_kappa_profile(spec, [t])[0]
        catalysis = catalytic_deviation(spec, t)
        assert 0.0 <= kappa <= 2.0 and 0.0 <= catalysis <= 2.0
        assert kappa == pytest.approx(2.0, abs=1e-15)
        assert catalysis == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_catalytic_deviation_matches_binomial_shift(lam):
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 32, 64):
        got = catalytic_deviation(LambdaFamilySpec(lam, m), math.log(1.0 / lam))
        assert got == pytest.approx(binomial_shift_l1(lam, m), abs=1e-12)


def test_catalytic_decay_monotone_and_small_by_m64():
    period = math.log(2)
    grid = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    values = [catalytic_deviation(LambdaFamilySpec(0.5, m), period) for m in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    by_m = dict(zip(grid, values))
    assert by_m[64] < 0.25
    assert by_m[64] == pytest.approx(0.2106082, abs=2e-5)
    # Off the period the shifted atoms interleave and the deviation saturates.
    for m in grid:
        off = catalytic_deviation(LambdaFamilySpec(0.5, m), 0.5 * period)
        assert off > 1.5
        assert off == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_lambda_measure_matches_tensor_power_pipeline(lam):
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power = base
    for m in range(1, 7):
        avatar = lambda_family_measure(LambdaFamilySpec(lam, m))
        reference = spectral_state(power)
        assert np.allclose(avatar.atoms, reference.atoms, rtol=1e-12, atol=0)
        assert np.allclose(avatar.masses, reference.masses, rtol=1e-10, atol=1e-15)
        assert math.fsum(avatar.masses) == pytest.approx(1.0, abs=1e-12)
        power = tensor_spectrum(power, base)


def test_lambda_measure_underflow_guard():
    with pytest.raises(InvalidInputError):
        lambda_family_measure(LambdaFamilySpec(0.5, 2000))


def test_lambda_family_limits_are_named():
    """The real-atom avatar's refusal names lambda, m and the largest m that
    fits, and that m does fit; the kappa and catalysis diagnostics, which
    never form an atom, run past it and match the exact oracles."""
    with pytest.raises(InvalidInputError, match=r"lambda=0\.5, m=2000; the largest m that fits is 678"):
        lambda_family_measure(LambdaFamilySpec(0.5, 2000))
    assert len(lambda_family_measure(LambdaFamilySpec(0.5, 678)).atoms) == 679
    kappa = family_kappa_profile(LambdaFamilySpec(0.5, 2000), [math.log(2)])[0]
    assert kappa == pytest.approx(half_kappa_oracle(2000), abs=1e-14)
    catalysis = catalytic_deviation(LambdaFamilySpec(0.5, 1253), math.log(2))
    assert catalysis == pytest.approx(half_catalysis_oracle(1253), abs=1e-15)
    assert catalytic_deviation(LambdaFamilySpec(0.5, 1252), math.log(2)) == pytest.approx(
        lgamma_binomial_shift_l1(0.5, 1252), abs=1e-12
    )


@pytest.mark.parametrize("m", [1, 2, 3, 2000, 10**4])
def test_lambda_family_matches_exact_integer_oracles(m):
    """At lambda = 1/2 and t = log 2 both diagnostics have exact integer
    oracles; kappa matches to 1e-14 and catalysis to the last bit."""
    spec = LambdaFamilySpec(0.5, m)
    assert family_kappa_profile(spec, [math.log(2)])[0] == pytest.approx(
        half_kappa_oracle(m), abs=1e-14
    )
    assert catalytic_deviation(spec, math.log(2)) == half_catalysis_oracle(m)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_half_period_kappa_at_m_1e5_matches_closed_form(lam):
    spec = LambdaFamilySpec(lam, 10**5)
    half = family_kappa_profile(spec, [-math.log(lam) / 2])[0]
    assert half == pytest.approx(kappa_max_formula(lam), abs=1e-12)


def test_family_kappa_profile_m1000_matches_distribution_integral():
    """At lambda = 0.5, m = 1000 (beyond where the true atoms underflow) the
    profile equals the NumPy integral of the two distribution functions."""
    lam, m = 0.5, 1000
    grid = [0.0, 0.05, 0.2, math.log(2) / 2, 0.5, math.log(2), 1.0]
    got = family_kappa_profile(LambdaFamilySpec(lam, m), grid)
    assert got[0] == 0.0
    for t, value in zip(grid[1:], got[1:]):
        assert value == pytest.approx(lambda_distribution_l1(lam, m, t), abs=1e-12), t


def test_family_kappa_profile_is_flow_invariant():
    """The flow-normalized avatar and the true measure give the same profile."""
    spec = LambdaFamilySpec(0.9, 300)
    grid = np.linspace(0.0, 0.2, 5)
    direct = [flow_deviation(lambda_family_measure(spec), float(t)) for t in grid]
    assert family_kappa_profile(spec, grid) == pytest.approx(direct, abs=1e-13)


def test_catalytic_deviation_m2000_matches_lgamma_oracle():
    lam, m = 0.9, 2000
    period = math.log(1.0 / lam)
    got = catalytic_deviation(LambdaFamilySpec(lam, m), period)
    assert got == pytest.approx(lgamma_binomial_shift_l1(lam, m), abs=1e-12)
    assert catalytic_deviation(LambdaFamilySpec(lam, m), period / 2) == pytest.approx(2.0, abs=1e-12)


def test_family_kappa_profile_matches_spectral_route():
    lam, m = 0.5, 3
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power = tensor_spectrum(tensor_spectrum(base, base), base)
    grid = np.linspace(0.05, 2.5, 23)
    fast = family_kappa_profile(LambdaFamilySpec(lam, m), grid)
    slow = kappa_profile(power, grid)
    assert np.allclose(fast, slow, atol=1e-12)


def test_half_period_deviation_converges_to_closed_form_peak():
    for lam in (0.25, 0.5):
        period = -math.log(lam)
        target = kappa_max_formula(lam)
        gaps = [
            abs(family_kappa_profile(LambdaFamilySpec(lam, m), [period / 2])[0] - target)
            for m in (16, 64, 256)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


# --------------------------------------------------------------------------- #
#                           Factor-type diagnostics                            #
# --------------------------------------------------------------------------- #

def test_classify_hand_labels():
    assert classify_itpfi(spectrum([1.0])) == TypeLabel("I")
    assert classify_itpfi(spectrum([0.25] * 4)) == TypeLabel("II_1")
    label = classify_itpfi(spectrum([2 / 3, 1 / 3]))
    assert label.family == "III_lambda"
    assert label.parameter == pytest.approx(0.5, abs=1e-12)
    label = classify_itpfi(spectrum([4 / 9, 2 / 9, 2 / 9, 1 / 9]))
    assert label.parameter == pytest.approx(0.5, abs=1e-12)
    lam = 0.7
    base = np.array([1 / (1 + lam), lam / (1 + lam)])
    label = classify_itpfi(spectrum(np.outer(base, base).ravel()))
    assert label.family == "III_lambda"
    assert label.parameter == pytest.approx(lam, abs=1e-9)
    with pytest.raises(InvalidInputError):
        classify_itpfi(spectrum([]))


def test_classify_falls_back_to_iii_one_when_ratios_defeat_the_budget():
    g = math.log(2)
    vals = np.exp([0.0, -g, -g * (1 + 1 / 1500), -g * (1 + 1 / 1499)])
    assert classify_itpfi(spectrum(vals)) == TypeLabel("III_1")


def test_classify_is_scale_and_permutation_invariant():
    ref = classify_itpfi(spectrum([2 / 3, 1 / 3]))
    scaled = classify_itpfi(spectrum([2.4 * 2 / 3, 2.4 * 1 / 3]))
    shuffled = classify_itpfi(spectrum([1 / 3, 2 / 3]))
    assert scaled == ref and shuffled == ref
    # Tensor powers of the same base never change the label.
    lam = 0.5
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power = base
    for _ in range(3):
        assert classify_itpfi(power).parameter == pytest.approx(lam, abs=1e-12)
        power = tensor_spectrum(power, base)


def test_classify_never_reports_iii_zero():
    # Extremely skewed ratios still come back as a (tiny) positive lambda.
    label = classify_itpfi(spectrum([1.0, 1e-12]))
    assert label.family == "III_lambda"
    assert label.parameter is not None and label.parameter > 0.0


def test_kappa_max_formula_endpoints_and_parametrizations():
    assert kappa_max_formula(0.0) == 2.0
    assert kappa_max_formula(1.0) == 0.0
    assert kappa_max_formula(0.25) == pytest.approx(2 / 3, abs=1e-15)
    lams = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    for lam in lams:
        period = -math.log(lam)
        alt = 2.0 * (1.0 - math.exp(-period / 2)) / (1.0 + math.exp(-period / 2))
        assert abs(kappa_max_formula(float(lam)) - alt) <= 1e-14
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidInputError):
            kappa_max_formula(bad)


# --------------------------------------------------------------------------- #
#                        Multipartite alignment estimator                      #
# --------------------------------------------------------------------------- #

def test_multipartite_matches_bipartite_closed_form():
    rng = np.random.default_rng(7)
    for dims in [(2, 2), (3, 3), (2, 3)]:
        size = int(np.prod(dims))
        for _ in range(4):
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            closed = lu_orbit_fidelity(pure_state(dims, a), pure_state(dims, b))
            estimate = multipartite_lu_fidelity(a, b, dims, iters=80, seed=1)
            assert estimate == pytest.approx(closed, abs=1e-6)
            assert estimate <= 1.0


def test_multipartite_ghz_value_pinned_by_grid_oracle():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    origin = np.zeros(8)
    origin[0] = 1.0
    estimate = multipartite_lu_fidelity(origin, ghz, (2, 2, 2), iters=60, seed=0)
    # Vectorized rotation grid: the GHZ amplitudes are real, so real
    # single-qubit rotations exhaust the orbit value for this pair.
    theta = np.linspace(0.0, np.pi, 181)
    a, b, c = np.meshgrid(theta, theta, theta, indexing="ij")
    grid_best = float(
        ((np.cos(a) * np.cos(b) * np.cos(c) + np.sin(a) * np.sin(b) * np.sin(c)) ** 2 / 2).max()
    )
    assert grid_best == pytest.approx(0.5, abs=1e-12)
    assert estimate >= grid_best - 1e-6
    assert estimate <= grid_best + 1e-9


def test_multipartite_estimator_is_monotone_and_reproducible():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    origin = np.zeros(8)
    origin[0] = 1.0
    values = [
        multipartite_lu_fidelity(origin, ghz, (2, 2, 2), iters=it, seed=3)
        for it in (10, 40, 80)
    ]
    assert values[0] <= values[1] + 1e-12 and values[1] <= values[2] + 1e-12
    again = multipartite_lu_fidelity(origin, ghz, (2, 2, 2), iters=40, seed=3)
    assert again == values[1]
    psi = (np.arange(12) + 1).astype(complex)
    psi = psi / np.linalg.norm(psi)
    self_value = multipartite_lu_fidelity(psi, psi, (2, 3, 2), iters=1, seed=0)
    assert self_value >= 1.0 - 1e-9 and self_value <= 1.0


def test_multipartite_validation_and_four_parties():
    rng = np.random.default_rng(11)
    size = 16
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    b = rng.normal(size=size) + 1j * rng.normal(size=size)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    value = multipartite_lu_fidelity(a, b, (2, 2, 2, 2), iters=30, seed=5)
    assert 0.0 <= value <= 1.0
    with pytest.raises(InvalidInputError):
        multipartite_lu_fidelity(a, b, (16,), iters=10, seed=0)
    with pytest.raises(InvalidInputError):
        multipartite_lu_fidelity(a, b, (2, 2, 2), iters=10, seed=0)
    with pytest.raises(InvalidInputError):
        multipartite_lu_fidelity(2 * a, b, (2, 2, 2, 2), iters=10, seed=0)
    with pytest.raises(InvalidInputError):
        multipartite_lu_fidelity(a, b, (2, 2, 2, 2), iters=0, seed=0)


def test_embezzle_report_type():
    report = embezzle_report(4, product_basis_state(2, 2), bell_state(2))
    assert isinstance(report, EmbezzleReport)
    assert isinstance(report.permutations, tuple) and len(report.permutations) == 2

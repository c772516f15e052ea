"""Tests for the embezzlement / catalysis / factor-type module.

Oracles used here:
  * dense Kronecker construction + the bipartite closed-form orbit fidelity
    (for the coefficient-list embezzlement pipeline),
  * an exact binomial-shift l1 formula (for the catalytic deviation at the
    period),
  * the tensor-power spectral pipeline from the spectra module (for the
    closed-form binomial avatar).
"""

from __future__ import annotations

import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import embezzle, quantum
from entlab.embezzle import (
    EmbezzleReport,
    TypeLabel,
    catalytic_deviation,
    classify_itpfi,
    embezzle_report,
    family_kappa_profile,
    kappa_max_formula,
    lambda_family_measure,
    orbit_trace_defect,
    vdh_bound,
    vdh_coefficients,
    vdh_state,
)
from entlab.errors import InvalidInputError
from entlab.quantum import (
    _sorted_overlap,
    bell_state,
    haar_unitaries,
    lu_orbit_fidelity,
    marginal,
    product_basis_state,
    pure_state,
    random_pure_state,
    schmidt,
    state_from_schmidt,
)
from entlab.spectra import (
    atomic_measure,
    entanglement_entropies,
    flat_spectrum,
    flow_act,
    flow_deviation,
    kappa_profile,
    spectral_state,
    spectrum,
    tensor_spectrum,
)
from test_quantum import blocked_dot_rule, blocked_dots


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


def _descending(rng, size, top_exp, bottom_exp):
    """``size`` seeded floats spread log-uniformly over the given binades,
    sorted descending."""
    return np.sort(np.exp2(rng.uniform(bottom_exp, top_exp, size)))[::-1].copy()


def test_fsum_descending_is_math_fsum_on_adversarial_arrays():
    """The per-binade exact sum equals ``math.fsum`` bit for bit where its
    int64 sums wrap many times over, where every binade holds one term, where
    binades are skipped, where the top term is near 2**52, and at lengths
    from 1 to 2**21."""
    rng = np.random.default_rng(22)
    cases = [np.full(2**20, np.nextafter(2.0**e, 0.0)) for e in (-30, 0, 1, 52)]
    cases += [
        np.exp2(-np.arange(64.0)),  # one term per binade
        np.nextafter(np.exp2(-np.arange(1.0, 64.0)), 0.0),
        np.array([3.0, 0.75, 2.0**-10, 1.5 * 2.0**-40, 2.0**-1000]),  # skipped binades
        np.array([np.nextafter(2.0**53, 0.0), 2.0**52 + 1.0, 0.5, 2.0**-60]),
        np.array([2.0**52, np.nextafter(2.0**52, 0.0), 1.0, 0.25]),
    ]
    cases += [
        np.concatenate([np.full(count, np.nextafter(2.0, 0.0)), np.full(count, 1.0 + 2.0**-52)])
        for count in (2047, 2048, 2049, 4097)
    ]
    cases += [_descending(rng, size, 40, -40) for size in (1, 2, 3, 1000, 2**16 + 1, 2**21)]
    cases += [_descending(rng, 2**21, 1, -2)]  # three long runs
    for x in cases:
        assert embezzle._fsum_descending(x) == math.fsum(x), (x.size, x[0], x[-1])


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
        vdh_coefficients(-3)


@pytest.mark.parametrize("make", [np.int64, np.int32, np.uint16, int])
def test_sizes_accept_any_integer_type_and_store_a_python_int(make):
    """NumPy integers (as from ``2 ** np.arange(4, 21)``) are integers: each
    size gives the same result as the Python int, and the records hold one."""
    assert np.array_equal(vdh_coefficients(make(16)), vdh_coefficients(16))
    assert vdh_bound(make(2), make(16)) == vdh_bound(2, 16)
    assert catalytic_deviation(0.5, make(3), math.log(2)) == \
        catalytic_deviation(0.5, 3, math.log(2))


@pytest.mark.parametrize("bad", [True, False, np.True_, 16.0, np.float64(16.0), "16", None])
def test_sizes_refuse_bool_and_non_integers(bad):
    with pytest.raises(InvalidInputError, match="harmonic family needs integer n >= 1"):
        vdh_coefficients(bad)
    with pytest.raises(InvalidInputError, match="tensor power m must be a positive integer"):
        lambda_family_measure(0.5, bad)
    with pytest.raises(InvalidInputError, match="target rank d must be a positive integer"):
        vdh_bound(bad, 16)
    with pytest.raises(InvalidInputError, match="the guarantee needs an integer n >= 2"):
        vdh_bound(2, bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: vdh_coefficients(10**30),
        lambda: embezzle_report(10**30, product_basis_state(2, 2), bell_state(2)),
        lambda: family_kappa_profile(0.5, 10**20, [0.1]),
        lambda: catalytic_deviation(0.5, 10**20, 0.1),
        lambda: flat_spectrum(10**30),
        lambda: haar_unitaries(2, 10**30, 0),
        lambda: haar_unitaries(10**30, 1, 0),
    ],
    ids=["vdh", "report", "kappa", "catalysis", "flat", "haar-count", "haar-dim"],
)
def test_sizes_numpy_cannot_index_raise_memory_error(call):
    """A size past NumPy's address space fails as one too large to allocate
    (2**50 terms) does: a MemoryError, not NumPy's ValueError."""
    with pytest.raises(MemoryError):
        call()


def test_lambda_family_measure_refuses_a_huge_m_by_the_float64_limit():
    with pytest.raises(InvalidInputError, match="the largest m that fits is 678"):
        lambda_family_measure(0.5, 10**30)


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


@pytest.mark.parametrize("d, n", [(2, 2**20), (4, 2**19)])
def test_embezzle_report_at_the_benchmark_sizes_is_the_argsort_formula_bitwise(d, n, monkeypatch):
    """At the sizes the sweeps benchmark reaches, a product start and a Bell
    target give the bits of the stable-argsort formula, and neither list is
    sorted: their order is read from the coefficients.  A target with unequal
    coefficients is still sorted."""
    sorts = []
    original = np.sort

    def counted(*args, **kwargs):
        sorts.append(args[0].size)
        return original(*args, **kwargs)

    start, target = product_basis_state(d, d), bell_state(d)
    with monkeypatch.context() as patch:
        patch.setattr(np, "sort", counted)
        report = embezzle_report(n, start, target)
        assert sorts == []
        skewed = state_from_schmidt([math.sqrt(0.7), math.sqrt(0.3)], dims=(d, d))
        embezzle_report(n, start, skewed)
        assert sorts == [2 * n]
    base = vdh_coefficients(n)
    lists = []
    for phi in (start, target):
        coefficients = schmidt(phi).coefficients
        raw = np.multiply.outer(base, coefficients).ravel()
        lists.append(raw[np.argsort(-raw, kind="stable")])
        assert np.array_equal(embezzle._sorted_products(base, coefficients), lists[-1])
    fid = _sorted_overlap(*lists)
    assert report.fidelity == fid
    assert report.trace_error == 2.0 * math.sqrt(max(1.0 - fid, 0.0))
    assert report.meets_bound


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


STREAM_CHUNK = 16 * 4096
# (start rank, target rank): product starts, and Bell starts with Bell targets
# of another rank
STREAM_RANKS = [(1, 2), (1, 3), (1, 8), (2, 5), (3, 4), (8, 6), (7, 5), (1, 12), (10, 9)]
STREAM_LENGTHS = [4095, 4096, 4097, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 4097]


@pytest.mark.parametrize("length", STREAM_LENGTHS)
def test_streamed_report_is_the_rule_on_the_full_lists_bitwise(length, monkeypatch):
    """Equal-coefficient product lists are streamed, never built in full, yet
    every block dot, and so the fidelity, has the bits of the overlap rule
    on the fully built lists, when the overlap's n * min(r) positions end
    just before, on or after a dot block or a stream chunk, or several
    chunks in.  The blocks past the streamed ones are zero blocks."""

    def refuse(*args, **kwargs):
        raise AssertionError("equal-coefficient lists must be streamed")

    def recording(s, t, _original=quantum._block_dots):
        dots = _original(s, t)
        streamed.extend(dots)
        return dots

    for rs, rt in STREAM_RANKS:
        start = bell_state(rs) if rs > 1 else product_basis_state(rt, rt)
        target = bell_state(rt)
        for n in sorted({length // min(rs, rt), -(-length // min(rs, rt))}):
            base = vdh_coefficients(n)
            lists = [embezzle._sorted_products(base, schmidt(phi).coefficients) for phi in (start, target)]
            want, dots = blocked_dot_rule(*lists), blocked_dots(*lists)
            assert _sorted_overlap(*lists) == want
            streamed = []
            with monkeypatch.context() as patch:
                patch.setattr(embezzle, "_sorted_products", refuse)
                patch.setattr(quantum, "_block_dots", recording)
                assert embezzle_report(n, start, target).fidelity == want, (rs, rt, n)
                assert embezzle_report(n, target, target).fidelity == 1.0
            assert streamed == dots[: len(streamed)] and not any(dots[len(streamed) :]), (rs, rt, n)


def test_embezzle_fidelity_is_the_exact_dot_of_its_lists_to_1e13():
    """On seeded d <= 5, n <= 2**13 cases, streamed or sorted, the fidelity
    is within 1e-13 relative of the exact (``fractions``) dot of the same
    float lists, squared."""
    rng = np.random.default_rng(34)
    for _ in range(10):
        d, n = int(rng.integers(1, 6)), int(rng.integers(1, 2**13 + 1))
        states = [product_basis_state(d, d), bell_state(d), random_pure_state((d, d), rng)]
        start, target = (states[i] for i in rng.integers(0, 3, size=2))
        report = embezzle_report(n, start, target)
        s, t = (
            embezzle._sorted_products(report.harmonic, c).tolist()
            for c in (report.start_coefficients, report.target_coefficients)
        )
        exact = float(sum(Fraction(x) * Fraction(y) for x, y in zip(s, t)) ** 2)
        assert abs(report.fidelity - min(exact, 1.0)) <= 1e-13 * exact, (d, n)


def test_embezzle_report_peak_memory_is_the_harmonic_list_and_two_chunks():
    """A product start and a Bell target at n = 2**19, d = 4 build no n * d
    list: the peak is the 4 MiB harmonic list, two stream buffers and small
    change, under 8 MB."""
    tracemalloc.start()
    try:
        report = embezzle_report(2**19, product_basis_state(4, 4), bell_state(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.meets_bound
    assert peak < 8_000_000


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
    assert catalytic_deviation(0.5, 1, math.log(2)) == pytest.approx(4 / 3, abs=1e-12)
    assert catalytic_deviation(0.5, 2, math.log(2)) == pytest.approx(8 / 9, abs=1e-12)
    assert catalytic_deviation(0.5, 3, 0.0) == 0.0
    for bad_lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidInputError):
            catalytic_deviation(bad_lam, 1, 0.0)
    with pytest.raises(InvalidInputError):
        catalytic_deviation(0.5, 0, 0.0)


@pytest.mark.parametrize("t", [-800.0, 800.0])
def test_catalytic_deviation_refuses_flow_out_of_float_range(t):
    """A flow far past float64's range for real atoms is still a flow: no
    atom lands on another, so the deviation is 2."""
    assert catalytic_deviation(0.5, 4, t) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_lambda_family_diagnostics_refuse_non_finite_times(t):
    with pytest.raises(InvalidInputError, match=rf"flow time t={t!r} is not finite"):
        family_kappa_profile(0.5, 4, [0.1, t])
    with pytest.raises(InvalidInputError, match=rf"flow time t={t!r} is not finite"):
        catalytic_deviation(0.5, 4, t)


_ATOMS = atomic_measure([0.0625, 0.25, 1.0], [0.25, 0.25, 0.5])


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: flow_act(_ATOMS, "0.5"), r"^a flow time must be one real number, got '0\.5'$"),
        (lambda: flow_act(_ATOMS, [0.1]), r"^a flow time must be one real number, got \[0\.1\]$"),
        (lambda: flow_act(_ATOMS, None), r"^a flow time must be one real number, got None$"),
        (lambda: flow_deviation(_ATOMS, [0.1, 0.2]), "a flow time must be one real number"),
        (lambda: flow_deviation(_ATOMS, [0.1]), "a flow time must be one real number"),
        (lambda: catalytic_deviation(0.5, 4, [0.1, 0.2]), "a flow time must be one real number"),
        (lambda: kappa_profile(spectrum([0.5, 0.5]), [[0.1], [0.2]]),
         r"^flow times must be a flat list of numbers, got shape \(2, 1\)$"),
        (lambda: family_kappa_profile(0.5, 4, [[0.1, 0.2]]), "flow times must be a flat list"),
    ],
    ids=["act-text", "act-list", "act-none", "deviation-pair", "deviation-list",
         "catalysis-pair", "profile-nested", "family-nested"],
)
def test_flow_times_are_one_real_number_or_a_flat_grid(call, message):
    """A single flow time is one real number and a grid is a flat list; NumPy
    scalars pass as single times."""
    with pytest.raises(InvalidInputError, match=message):
        call()
    t = np.float64(math.log(2))
    assert flow_act(_ATOMS, t) == flow_act(_ATOMS, math.log(2))
    assert flow_deviation(_ATOMS, t) == flow_deviation(_ATOMS, math.log(2))
    assert catalytic_deviation(0.5, np.int64(4), t) == catalytic_deviation(0.5, 4, math.log(2))


@pytest.mark.parametrize("t", [700.0, -700.0, 800.0, -800.0, 1e308, -1e308])
def test_lambda_family_diagnostics_accept_every_finite_time(t):
    """Far from the atoms' log spread both diagnostics sit at 2 (the total
    mass is 1), and neither ever leaves [0, 2]."""
    for lam, m in ((0.5, 4), (0.9, 10**4), (0.1, 300)):
        kappa = family_kappa_profile(lam, m, [t])[0]
        catalysis = catalytic_deviation(lam, m, t)
        assert 0.0 <= kappa <= 2.0 and 0.0 <= catalysis <= 2.0
        assert kappa == pytest.approx(2.0, abs=1e-15)
        assert catalysis == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_catalytic_deviation_matches_binomial_shift(lam):
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 32, 64):
        got = catalytic_deviation(lam, m, math.log(1.0 / lam))
        assert got == pytest.approx(binomial_shift_l1(lam, m), abs=1e-12)


def test_catalytic_decay_monotone_and_small_by_m64():
    period = math.log(2)
    grid = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    values = [catalytic_deviation(0.5, m, period) for m in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    by_m = dict(zip(grid, values))
    assert by_m[64] < 0.25
    assert by_m[64] == pytest.approx(0.2106082, abs=2e-5)
    # Off the period the shifted atoms interleave and the deviation saturates.
    for m in grid:
        off = catalytic_deviation(0.5, m, 0.5 * period)
        assert off > 1.5
        assert off == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_lambda_measure_matches_tensor_power_pipeline(lam):
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power = base
    for m in range(1, 7):
        avatar = lambda_family_measure(lam, m)
        reference = spectral_state(power)
        assert np.allclose(avatar.atoms, reference.atoms, rtol=1e-12, atol=0)
        assert np.allclose(avatar.masses, reference.masses, rtol=1e-10, atol=1e-15)
        assert math.fsum(avatar.masses) == pytest.approx(1.0, abs=1e-12)
        power = tensor_spectrum(power, base)


def test_lambda_measure_underflow_guard():
    with pytest.raises(InvalidInputError):
        lambda_family_measure(0.5, 2000)


def test_lambda_family_limits_are_named():
    """The real-atom avatar's refusal names lambda, m and the largest m that
    fits, and that m does fit; the kappa and catalysis diagnostics, which
    never form an atom, run past it and match the exact oracles."""
    with pytest.raises(InvalidInputError, match=r"lambda=0\.5, m=2000; the largest m that fits is 678"):
        lambda_family_measure(0.5, 2000)
    assert len(lambda_family_measure(0.5, 678).atoms) == 679
    kappa = family_kappa_profile(0.5, 2000, [math.log(2)])[0]
    assert kappa == pytest.approx(half_kappa_oracle(2000), abs=1e-14)
    catalysis = catalytic_deviation(0.5, 1253, math.log(2))
    assert catalysis == pytest.approx(half_catalysis_oracle(1253), abs=1e-15)
    assert catalytic_deviation(0.5, 1252, math.log(2)) == pytest.approx(
        lgamma_binomial_shift_l1(0.5, 1252), abs=1e-12
    )


def named_lambda_limit(lam: float) -> int:
    """The largest m that ``lambda_family_measure``'s refusal names; every
    limit is below 1076, since ``(1+lambda)/lambda > 2``."""
    try:
        lambda_family_measure(lam, 1076)
    except InvalidInputError as exc:
        return int(re.fullmatch(r".*; the largest m that fits is (\d+)", str(exc)).group(1))
    raise AssertionError(f"m = 1076 was not refused at lambda = {lam!r}")


def test_lambda_limit_equals_a_brute_force_scan_of_the_smallest_atom():
    """On 10^5 lambdas, uniform and log-uniform down to 1e-300, the named limit
    is the last j before the atom ``exp(j log lambda - j log1p lambda)`` is 0,
    scanning j = 1, 2, ... for every lambda."""
    rng = np.random.default_rng(29)
    lams = np.concatenate([rng.uniform(0.0, 1.0, 80_000), np.exp(-rng.uniform(0.0, 690.0, 20_000))])
    lams = lams[(lams > 0.0) & (lams < 1.0)]
    a, b = np.log(lams), np.log1p(lams)
    scan, live = np.zeros(lams.size, dtype=np.int64), np.arange(lams.size)
    for j in range(1, 1076):
        live = live[np.exp(j * a[live] - j * b[live]) > 0.0]
        scan[live] = j
    named = np.array([named_lambda_limit(lam) for lam in lams.tolist()])
    assert lams.size >= 99_990 and np.array_equal(named, scan)


@pytest.mark.parametrize(
    "lam",
    # 1/(2**k - 1) for k = 5, 25, 43, 215 (k divides 1075) puts the ratio
    # 1075 ln 2 / log((1 + lambda)/lambda) within rounding of an integer
    [1 / 31, 1 / (2**25 - 1), 1 / (2**43 - 1), 1 / (2**215 - 1), 0.5, 1 / 3, 0.1, 0.9, 0.99,
     1e-3, 1e-100, 1e-300, 2.0**-1022, 1e-320, 5e-324, 0.25, 0.75, 1 - 1e-9, 1 - 2.0**-53, 2.0**-60],
)
def test_lambda_limit_builds_and_the_next_m_is_refused(lam):
    """At the named limit L the measure builds; L + 1 is refused naming L; and
    L is exact: ``(lambda/(1+lambda))^L`` exceeds 2^-1075, half the smallest
    subnormal, and the next power does not (integer arithmetic)."""
    largest = named_lambda_limit(lam)
    assert lambda_family_measure(lam, largest).atoms.size >= 1
    with pytest.raises(InvalidInputError, match=rf"m={largest + 1}; the largest m that fits is {largest}$"):
        lambda_family_measure(lam, largest + 1)
    p, q = Fraction(lam).as_integer_ratio()  # lambda / (1 + lambda) = p / (p + q)
    assert p**largest << 1075 > (p + q) ** largest
    assert p ** (largest + 1) << 1075 <= (p + q) ** (largest + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 2000, 10**4])
def test_lambda_family_matches_exact_integer_oracles(m):
    """At lambda = 1/2 and t = log 2 both diagnostics have exact integer
    oracles; kappa matches to 1e-14 and catalysis to the last bit."""
    assert family_kappa_profile(0.5, m, [math.log(2)])[0] == pytest.approx(
        half_kappa_oracle(m), abs=1e-14
    )
    assert catalytic_deviation(0.5, m, math.log(2)) == half_catalysis_oracle(m)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_half_period_kappa_at_m_1e5_matches_closed_form(lam):
    half = family_kappa_profile(lam, 10**5, [-math.log(lam) / 2])[0]
    assert half == pytest.approx(kappa_max_formula(lam), abs=1e-12)


def test_family_kappa_profile_m1000_matches_distribution_integral():
    """At lambda = 0.5, m = 1000 (beyond where the true atoms underflow) the
    profile equals the NumPy integral of the two distribution functions."""
    lam, m = 0.5, 1000
    grid = [0.0, 0.05, 0.2, math.log(2) / 2, 0.5, math.log(2), 1.0]
    got = family_kappa_profile(lam, m, grid)
    assert got[0] == 0.0
    for t, value in zip(grid[1:], got[1:]):
        assert value == pytest.approx(lambda_distribution_l1(lam, m, t), abs=1e-12), t


def test_family_kappa_profile_is_flow_invariant():
    """The flow-normalized avatar and the true measure give the same profile."""
    grid = np.linspace(0.0, 0.2, 5)
    direct = [flow_deviation(lambda_family_measure(0.9, 300), float(t)) for t in grid]
    assert family_kappa_profile(0.9, 300, grid) == pytest.approx(direct, abs=1e-13)


def test_catalytic_deviation_m2000_matches_lgamma_oracle():
    lam, m = 0.9, 2000
    period = math.log(1.0 / lam)
    got = catalytic_deviation(lam, m, period)
    assert got == pytest.approx(lgamma_binomial_shift_l1(lam, m), abs=1e-12)
    assert catalytic_deviation(lam, m, period / 2) == pytest.approx(2.0, abs=1e-12)


def test_family_kappa_profile_matches_spectral_route():
    lam, m = 0.5, 3
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power = tensor_spectrum(tensor_spectrum(base, base), base)
    grid = np.linspace(0.05, 2.5, 23)
    fast = family_kappa_profile(lam, m, grid)
    slow = kappa_profile(power, grid)
    assert np.allclose(fast, slow, atol=1e-12)


def test_half_period_deviation_converges_to_closed_form_peak():
    for lam in (0.25, 0.5):
        period = -math.log(lam)
        target = kappa_max_formula(lam)
        gaps = [
            abs(family_kappa_profile(lam, m, [period / 2])[0] - target)
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


def test_classify_refuses_an_exponent_that_is_not_unique():
    """(1, e^-1e-9, e^-1), normalized: the wide gap is about 1e9 narrow ones,
    commensurate within the narrow gap's rounding, but that rounding times
    1e9 is wider than the narrow gap, so n and n + 1 both fit and there is
    no one lambda: III_1 from the exponent check.  Both inequalities are
    re-evaluated here in ``fractions`` (the three entries are three runs,
    so no spread enters), so the case cannot move to the first III_1 exit."""
    vals = np.array([1.0, math.exp(-1e-9), math.exp(-1.0)])
    s = spectrum(vals / vals.sum())
    assert classify_itpfi(s) == TypeLabel("III_1")
    assert spectral_state(s).atoms.size == 3
    top, *rest = s.values.tolist()
    gaps = [Fraction(math.log(top / x)) for x in rest]
    slack = [(1 + g) / 2**50 for g in gaps]
    fracs = [(g / gaps[0]).limit_denominator(embezzle.DENOMINATOR_CAP) for g in gaps]
    assert all(abs(f.denominator * g - f.numerator * gaps[0]) <= f.denominator * e + f.numerator * slack[0]
               for f, g, e in zip(fracs, gaps, slack))
    denom = math.lcm(*(f.denominator for f in fracs))
    assert 2 * denom * slack[-1] + (2 * fracs[-1] * denom + 1) * slack[0] >= gaps[0]


def test_classify_never_reports_iii_zero():
    # Extremely skewed ratios still come back as a (tiny) positive lambda.
    label = classify_itpfi(spectrum([1.0, 1e-12]))
    assert label.family == "III_lambda"
    assert label.parameter is not None and label.parameter > 0.0


LAMBDA_POWER_HEX = {
    0.1: ["0x1.9999999999998p-4", "0x1.999999999999bp-4", "0x1.9999999999998p-4",
          "0x1.999999999999bp-4", "0x1.999999999999bp-4", "0x1.9999999999998p-4"],
    0.5: ["0x1.0000000000000p-1"] * 6,
    2 / 3: ["0x1.5555555555554p-1", "0x1.5555555555554p-1", "0x1.5555555555555p-1",
            "0x1.5555555555555p-1", "0x1.5555555555556p-1", "0x1.5555555555556p-1"],
    0.9: ["0x1.ccccccccccccep-1", "0x1.ccccccccccccep-1", "0x1.cccccccccccd0p-1",
          "0x1.cccccccccccd1p-1", "0x1.cccccccccccd1p-1", "0x1.cccccccccccd0p-1"],
}


@pytest.mark.parametrize("lam", sorted(LAMBDA_POWER_HEX))
def test_classify_lambda_of_tensor_powers_bit_for_bit(lam):
    """lambda of the m-fold tensor power of (1, lam) / (1 + lam), m = 1-6,
    to the last bit: each run is represented by its largest entry.  At
    lam = 0.5, m = 1 is the README and CLI example (2/3, 1/3)."""
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    power, got = base, []
    for _ in range(6):
        label = classify_itpfi(power)
        assert label.family == "III_lambda"
        got.append(label.parameter.hex())
        power = tensor_spectrum(power, base)
    assert got == LAMBDA_POWER_HEX[lam]


def test_classify_merges_a_chain_of_near_equal_entries_like_spectral_state():
    """Consecutive log gaps of 7e-13 each lie within ``MERGE_TOL``, though the
    run spans 1.4e-12: one real under the chained rule, so one atom and II_1."""
    vals = np.exp([0.0, -7e-13, -1.4e-12])
    s = spectrum(vals / vals.sum())
    assert classify_itpfi(s) == TypeLabel("II_1")
    assert spectral_state(s).atoms.size == 1


@pytest.mark.parametrize("values, entries", [([1.0, 1e-309], "1.0 to the smallest 1e-309"),
                                             ([1.0, 1e-320], "1.0 to the smallest 1e-320"),
                                             ([1e300, 1e-20], "1e+300 to the smallest 1e-20")])
def test_classify_refuses_a_ratio_that_overflows(values, entries):
    with pytest.raises(InvalidInputError, match=re.escape(f"largest entry {entries} overflows")):
        classify_itpfi(spectrum(values))


def _classify_oracle(values) -> TypeLabel:
    """The commensurability rule in ``fractions`` arithmetic on the same float
    gaps, for spectra of rank >= 2 whose distinct entries lie far apart (no
    two merge into one run): each gap ``g`` may be off by ``8u (1 + g)``."""
    vals = sorted(set(values), reverse=True)
    gaps = [Fraction(math.log(vals[0] / v)) for v in vals[1:]]
    assert min(gaps) > 1e-9
    slack = [(1 + g) / 2**50 for g in gaps]
    fracs = [(g / gaps[0]).limit_denominator(embezzle.DENOMINATOR_CAP) for g in gaps]
    for g, e, fr in zip(gaps, slack, fracs):
        a, b = fr.numerator, fr.denominator
        if abs(b * g - a * gaps[0]) > b * e + a * slack[0]:
            return TypeLabel("III_1")
    denom = math.lcm(*(fr.denominator for fr in fracs))
    n = fracs[-1] * denom  # the largest gap's exponent: n + 1 must not fit as well
    if 2 * denom * slack[-1] + (2 * n + 1) * slack[0] >= gaps[0]:
        return TypeLabel("III_1")
    return TypeLabel("III_lambda", parameter=math.exp(-(float(gaps[0]) / denom)))


def _dirichlet_spectra():
    rng = np.random.default_rng(2026)
    return [rng.dirichlet(np.ones(rank)) for rank in (3, 4, 6) for _ in range(500)]


LAMBDA_EXPONENT_SETS = [(0, 3, 5, 7), (0, 5, 13), (0, 1, 2, 3)]


def _exponent_spectrum(lam, exponents):
    v = np.power(lam, np.array(exponents, dtype=float))
    return v / v.sum()


def _moved(entry):
    """(1, 1/2, 1/4, 1/8) normalized, with one entry scaled by 1 + 1e-13, then
    moved one ulp down, then one ulp up."""
    base = _exponent_spectrum(0.5, (0, 1, 2, 3))
    out = [base.copy() for _ in range(3)]
    out[0][entry] *= 1 + 1e-13
    out[1][entry] = np.nextafter(base[entry], 0.0)
    out[2][entry] = np.nextafter(base[entry], 1.0)
    return out


def test_classify_generic_spectra_are_iii_one():
    """Two incommensurate log-ratios give III_1.  500 seeded Dirichlet spectra
    of each of ranks 3, 4 and 6: none hides a relation with denominator at
    most ``DENOMINATOR_CAP`` within its rounding, so every one is III_1."""
    labels = [classify_itpfi(spectrum(p)) for p in _dirichlet_spectra()]
    assert labels == [TypeLabel("III_1")] * 1500
    assert classify_itpfi(spectrum([0.5, 0.3, 0.2])) == TypeLabel("III_1")
    assert classify_itpfi(spectrum([0.4, 0.3, 0.2, 0.1])) == TypeLabel("III_1")


@pytest.mark.parametrize("exponents", LAMBDA_EXPONENT_SETS)
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.7, 0.9])
def test_classify_lambda_exponent_sets_within_four_ulp(lam, exponents):
    label = classify_itpfi(spectrum(_exponent_spectrum(lam, exponents)))
    assert label.family == "III_lambda"
    assert abs(label.parameter - lam) <= 4 * math.ulp(lam)


@pytest.mark.parametrize("entry", range(4))
def test_classify_precision_follows_the_data(entry):
    """(1, 1/2, 1/4, 1/8) normalized is III_0.5; one entry moved by a relative
    1e-13, far beyond the gaps' rounding, breaks the relation (III_1), while
    one moved by an ulp either way is still III_0.5 within 4 ulp."""
    scaled, down, up = _moved(entry)
    assert classify_itpfi(spectrum(scaled)) == TypeLabel("III_1")
    for moved in (down, up):
        label = classify_itpfi(spectrum(moved))
        assert label.family == "III_lambda"
        assert abs(label.parameter - 0.5) <= 4 * math.ulp(0.5)


def test_classify_decisions_match_a_fractions_oracle():
    """Label and lambda's bits equal the ``fractions`` evaluation of the rule
    on every spectrum of the three tests above."""
    corpus = _dirichlet_spectra()
    corpus += [_exponent_spectrum(lam, e) for lam in (0.1, 0.5, 0.7, 0.9) for e in LAMBDA_EXPONENT_SETS]
    corpus += [moved for entry in range(4) for moved in _moved(entry)]
    for p in corpus:
        assert classify_itpfi(spectrum(p)) == _classify_oracle(p.tolist())


def test_classify_a_thousand_level_geometric_spectrum_quickly():
    """1 000 distinct levels 2**-k, exponents up to 999: III_0.5 in well under
    100 ms (the exact check is ``fractions`` arithmetic, one relation per
    level)."""
    s = spectrum(0.5 ** np.arange(1000.0))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        label = classify_itpfi(s)
        best = min(best, time.perf_counter() - start)
    assert label == TypeLabel("III_lambda", parameter=0.5)
    assert best < 0.1


@pytest.mark.parametrize("lam, levels", [(0.9, 1002), (0.9, 2000), (0.5, 1024)])
def test_classify_long_geometric_spectra_keep_their_lambda(lam, levels):
    """The generator's exponents are bounded by the data, not by a fixed cap:
    ``lam ** k`` for k below 2 000 fixes every exponent, so III_lam."""
    label = classify_itpfi(spectrum(np.power(lam, np.arange(float(levels)))))
    assert label.family == "III_lambda"
    assert abs(label.parameter - lam) <= 4 * math.ulp(lam)


@pytest.mark.parametrize("dup", [0.5 * (1 + 1e-13), 0.5 * (1 - 1e-13)])
def test_classify_a_moved_duplicate_keeps_the_label(dup):
    """Two entries 1e-13 apart are one level (``MERGE_TOL``), represented by
    the larger; the level may sit anywhere in the run's spread, so moving
    either copy leaves (1, 1/2, 1/2, 1/4) III_lambda, lambda the
    representative's ratio."""
    label = classify_itpfi(spectrum([1.0, dup, 0.5, 0.25]))
    assert label == TypeLabel("III_lambda", parameter=math.exp(-math.log(1.0 / max(dup, 0.5))))


def _tensor_power_levels(lam, m_max):
    """Distinct entries of the m-fold ``tensor_spectrum`` power of the lambda
    family for m = 1 .. m_max: a product of the distinct entries gives every
    distinct entry, so the m = 64 power needs no 2**64 array."""
    base = spectrum([1 / (1 + lam), lam / (1 + lam)])
    powers = [base]
    while len(powers) < m_max:
        powers.append(spectrum(np.unique(tensor_spectrum(powers[-1], base).values)))
    return powers


@pytest.mark.parametrize("lam", [0.9, 2 / 3])
def test_classify_repeated_tensor_powers_up_to_m_64(lam):
    """Each entry of the m-fold power carries m - 1 product roundings and each
    level's copies spread over a few ulp; the gaps' bound and the runs'
    spreads cover both, so every power up to m = 64 is III_lambda, lambda off
    by no more than the top entries' roundings.  The distinct-entry powers
    give the full ``tensor_spectrum`` power's label (checked up to m = 10)."""
    powers = _tensor_power_levels(lam, 64)
    full = powers[0]
    for m, levels in enumerate(powers[:10], start=1):
        assert classify_itpfi(levels) == classify_itpfi(full), m
        full = tensor_spectrum(full, powers[0])
    for m, levels in enumerate(powers, start=1):
        label = classify_itpfi(levels)
        assert label.family == "III_lambda", m
        assert abs(label.parameter - lam) <= 16 * math.ulp(lam), m


def _haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / abs(np.diag(r)))


def test_classify_numerically_computed_lambda_family_spectra():
    """The m-fold lambda-family state under seeded random local unitaries:
    its Schmidt spectrum by SVD and its marginal's eigenvalues carry errors of
    about u times the largest entry.  The label is III_lambda with the right
    lambda where those errors fit the gaps' bound and III_1 otherwise, never
    another lambda; at lambda = 0.1, m = 5 the eigensolver's smallest
    eigenvalues (about 6e-6 of the largest) are off by far more than their
    own rounding, so III_1."""
    rng = np.random.default_rng(17)
    for lam in (0.1, 0.5, 0.9):
        for m in range(1, 6):
            amplitudes = np.ones(1)
            for _ in range(m):
                amplitudes = np.kron(amplitudes, np.sqrt([1 / (1 + lam), lam / (1 + lam)]))
            d = amplitudes.size
            psi = pure_state((d, d), (_haar_unitary(d, rng) * amplitudes
                                      @ _haar_unitary(d, rng).T).ravel())
            labels = [classify_itpfi(schmidt(psi).spectrum),
                      classify_itpfi(marginal(psi, "A").spectrum())]
            for label in labels:
                assert label.family == "III_1" or \
                    abs(label.parameter - lam) <= 1e-12 * lam, (lam, m, label)
            if (lam, m) == (0.1, 5):
                assert labels[1] == TypeLabel("III_1")


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


def test_embezzle_report_type():
    report = embezzle_report(4, product_basis_state(2, 2), bell_state(2))
    assert isinstance(report, EmbezzleReport)
    assert isinstance(report.permutations, tuple) and len(report.permutations) == 2


# Each case gave a bare TypeError, IndexError or ValueError, or a silent cut.
MALFORMED_INPUTS = {
    "vdh_state-text": (lambda: vdh_state("8"), r"^harmonic family needs integer n >= 1, got '8'$"),
    "vdh_state-none": (lambda: vdh_state(None), "harmonic family needs integer n >= 1"),
    "haar-fraction-d": (lambda: haar_unitaries(2.5, 1, 0), "^dimension must be >= 1$"),
    "haar-fraction-count": (lambda: haar_unitaries(2, 1.5, 0), "count"),
    "haar-bool-d": (lambda: haar_unitaries(True, 1, 0), "^dimension must be >= 1$"),
    "haar-bool-count": (lambda: haar_unitaries(2, True, 0), "count"),
    "haar-negative-count": (lambda: haar_unitaries(2, -1, 0), "count"),
    "bell-0d-array": (lambda: bell_state(np.array(2.5)), "dimension"),
    "basis-fraction": (lambda: product_basis_state(2, 2, 0.5, 0), r"\(0\.5, 0\) outside dims \(2, 2\)"),
    "basis-bool": (lambda: product_basis_state(2, 2, True, 0), r"\(True, 0\) outside dims \(2, 2\)"),
    "pure-one-dim": (lambda: pure_state((2,), [1, 0]), "pair"),
    "pure-three-dims": (lambda: pure_state((2, 2, 7), [1, 0, 0, 0]), "pair"),
    "pure-scalar-dims": (lambda: pure_state(4, [1, 0, 0, 0]), "pair"),
    "random-one-dim": (lambda: random_pure_state((2,), 0), "pair"),
    "schmidt-one-dim": (lambda: state_from_schmidt([1.0], dims=(2,)), "pair"),
    "lambda-text": (lambda: lambda_family_measure("0.5", 3), r"^lambda must lie strictly between 0 and 1, got '0\.5'$"),
    "lambda-none": (lambda: lambda_family_measure(None, 3), "lambda must lie strictly between 0 and 1"),
    "kappa-text": (lambda: kappa_max_formula("x"), r"^lambda must lie in \[0, 1\], got 'x'$"),
    "renyi-text": (lambda: entanglement_entropies(spectrum([0.5, 0.5]), ["x"]), "Renyi orders"),
    "renyi-numeric-text": (lambda: entanglement_entropies(spectrum([0.5, 0.5]), ["2"]), "Renyi orders"),
    "renyi-nested": (lambda: entanglement_entropies(spectrum([0.5, 0.5]), [[2.0]]), "^Renyi orders must be a flat list$"),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_public_inputs_are_refused_by_the_shared_rules(name):
    """Sizes, counts and indices are integers (NumPy too, not bool or array),
    dims are exactly a pair, real parameters and amplitudes are numbers and
    not text; each refusal is an InvalidInputError.  NumPy scalars build."""
    build, message = MALFORMED_INPUTS[name]
    with pytest.raises(InvalidInputError, match=message):
        build()
    two, half = np.int64(2), np.float64(0.5)
    assert vdh_state(two).dims == (2, 2)
    assert haar_unitaries(two, two, 0).shape == (2, 2, 2) and haar_unitaries(2, 0, 0).shape == (0, 2, 2)
    assert product_basis_state(two, 2, np.int64(1), 0).amplitudes[2] == 1.0
    assert pure_state(np.array([2, 2]), [1, 0, 0, 0]).dims == (2, 2)
    assert random_pure_state([two, 3], 0).dims == (2, 3)
    assert catalytic_deviation(half, np.int64(3), 0.0) == 0.0 and kappa_max_formula(half) > 0.0
    assert entanglement_entropies(spectrum([0.5, 0.5]), [np.float64(2.0)]).H_alpha == {2.0: math.log(2)}

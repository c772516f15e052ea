"""Embezzlement families, catalytic flow deviation, and factor-type labels.

The harmonic ("van-Dam/Hayden style") family is handled entirely through
its sorted Schmidt-coefficient lists; dense state vectors are only materialized
on request for small ``n``.  A report builds the harmonic list in one
buffer, its harmonic number summed exactly by two whole-array reductions
into per-binade sums, and decomposes each state once.  Each product list
reaches the overlap rule in cache-sized chunks over the positions where
both lists are nonzero: a list whose nonzero Schmidt coefficients are
equal (a product start, a maximally entangled target) is in order by
construction and built a chunk at a time, and any other is sorted once and
sliced, so no list padded to ``n * d`` is built.  A report at
``n = 2**20`` with a Bell target takes about 5 ms on one core of a
2-vCPU VM; nothing is argsorted until ``permutations`` is read.  Its
oracle, ``orbit_trace_defect``, takes the A-marginal spectrum route on its
own code.
The lambda-family diagnostics use the binomial masses of the m-fold
spectral state instead of expanding ``2**m`` tensor-power entries, and
never form an atom: the kappa profile runs on centred log-positions and the
catalytic deviation is a closed form in the masses, so neither has a limit
on m.  Only ``lambda_family_measure``, which returns the true atoms, is
refused once they underflow float64 (m = 678 at lambda = 0.5).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .quantum import (
    _DOT_BLOCK,
    PureBipartiteState,
    _blocked_overlap,
    schmidt,
    state_from_schmidt,
)
from .spectra import (
    AtomicMeasure,
    Spectrum,
    _allocatable,
    _density_l1,
    _flow_times,
    _integer,
    _merge_runs,
    atomic_measure,
    flow_act,
)
from .tolerances import MERGE_TOL

__all__ = [
    "VdhBound",
    "EmbezzleReport",
    "TypeLabel",
    "vdh_coefficients",
    "vdh_state",
    "vdh_bound",
    "embezzle_report",
    "orbit_trace_defect",
    "lambda_family_measure",
    "family_kappa_profile",
    "catalytic_deviation",
    "classify_itpfi",
    "kappa_max_formula",
]

# Largest n for which vdh_state will build the dense (n, n) amplitude grid.
DENSE_STATE_CAP = 4096
# Largest denominator of a log-ratio relation classify_itpfi accepts.
DENOMINATOR_CAP = 10**3
# Product-list positions per streamed chunk: whole dot blocks, 512 KiB a
# list, so that the two chunks stay in a core's L2 cache.
_STREAM_CHUNK = 16 * _DOT_BLOCK
# Refusal of a harmonic-family size that is not an integer >= 1.
_HARMONIC_N_REFUSAL = "harmonic family needs integer n >= 1, got {!r}"


@dataclass(frozen=True)
class VdhBound:
    """Dimension-counting guarantee for the harmonic family: worst-case
    trace-norm error ``epsilon`` and the matching fidelity lower bound."""

    epsilon: float
    fidelity_bound: float


@dataclass(frozen=True, eq=False)
class EmbezzleReport:
    """Outcome of borrowing a target state against a harmonic resource.

    ``harmonic``, ``start_coefficients`` and ``target_coefficients`` are the
    lists the report was computed from: the harmonic Schmidt coefficients and
    each state's full Schmidt coefficient list, zeros included.
    """

    fidelity: float
    trace_error: float
    meets_bound: bool
    harmonic: np.ndarray = field(repr=False)
    start_coefficients: np.ndarray = field(repr=False)
    target_coefficients: np.ndarray = field(repr=False)

    @cached_property
    def permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """The two index maps (start side, target side) that stably sort the
        raw product coefficient lists ``outer(harmonic, coefficients).ravel()``
        into descending order; they are the combinatorial core of the
        witnessing local unitaries.  Built on first read, by a stable argsort
        of each raw list, and kept."""
        return tuple(
            np.argsort(-np.multiply.outer(self.harmonic, c).ravel(), kind="stable")
            for c in (self.start_coefficients, self.target_coefficients)
        )


@dataclass(frozen=True)
class TypeLabel:
    """Murray-von Neumann type of the infinite tensor-power factor attached
    to a (truncated) Schmidt spectrum.  ``parameter`` is set only for the
    ``III_lambda`` family."""

    family: str
    parameter: Optional[float] = None


# --------------------------------------------------------------------------- #
#                               Harmonic family                                #
# --------------------------------------------------------------------------- #

def _fsum_descending(x: np.ndarray) -> float:
    """``math.fsum(x)`` for a descending array of positive normal floats
    below 2**53, fewer than 2**31 of them in any binade: the exact sum,
    rounded once.

    The terms of biased exponent E are a contiguous run, each its int64 bit
    pattern minus ``(E - 1) * 2**52`` (an integer mantissa below 2**53) times
    ``2**(E - 1075)``.  One ``np.add.reduceat`` over the bit patterns sums
    every run exactly mod 2**64; a second over the floats gives each run's
    sum to within ``c**2 < 2**62`` mantissa units for a run of c terms, which
    fixes the multiple of 2**64.  The runs are combined as Python ints and the
    total is divided once by a power of two, which Python's int division
    rounds correctly.
    """
    top, bottom = (b >> 52 for b in x[[0, -1]].view(np.int64).tolist())
    exps = np.arange(top, bottom - 1, -1)
    stops = x.size - np.searchsorted(x[::-1], np.ldexp(1.0, exps - 1023))
    starts = np.concatenate(([0], stops[:-1]))
    runs = stops > starts  # a skipped binade has an empty run
    exps, starts, counts = exps[runs], starts[runs], (stops - starts)[runs]
    total, last = 0, top
    for e, c, bits, estimate in zip(
        exps.tolist(),
        counts.tolist(),
        np.add.reduceat(x.view(np.int64), starts).tolist(),
        np.add.reduceat(x, starts).tolist(),
    ):
        wrapped = (bits - c * ((e - 1) << 52)) % 2**64  # the run's mantissa sum mod 2**64
        near = int(math.ldexp(estimate, 1075 - e))  # the same sum, off by less than 2**62
        total = (total << (last - e)) + wrapped + ((near - wrapped + 2**63) >> 64 << 64)
        last = e
    return total / (1 << (1075 - bottom))


def vdh_coefficients(n: int) -> np.ndarray:
    """Descending Schmidt coefficients ``c_n / sqrt(alpha)``, alpha = 1..n,
    with ``c_n`` the inverse square root of the n-th harmonic number.  The
    harmonic number is the correctly rounded sum of the terms ``1 / alpha``,
    bit for bit ``math.fsum``'s.  The list is built in one buffer: the terms,
    then their square roots, then the scaling, each in place."""
    n = _integer(n, 1, _HARMONIC_N_REFUSAL)
    out = np.arange(1, _allocatable(n) + 1, dtype=float)
    np.divide(1.0, out, out=out)
    c = 1.0 / math.sqrt(_fsum_descending(out))
    np.sqrt(out, out=out)
    out *= c
    return out


def vdh_state(n: int) -> PureBipartiteState:
    """Dense harmonic-family state on ``C^n (x) C^n``.

    Only intended for small ``n`` (the amplitude grid has ``n**2`` entries);
    all large-``n`` analysis goes through :func:`vdh_coefficients` and
    :func:`embezzle_report`, which never materialize the state.
    """
    n = _integer(n, 1, _HARMONIC_N_REFUSAL)
    if n > DENSE_STATE_CAP:
        raise InvalidInputError(
            f"refusing to materialize a {n}x{n} amplitude grid; "
            "use vdh_coefficients / embezzle_report for large n"
        )
    return state_from_schmidt(vdh_coefficients(n))


def vdh_bound(d: int, n: int) -> VdhBound:
    """Worst-case guarantee for borrowing any Schmidt-rank-``d`` target from
    the size-``n`` harmonic resource: trace error at most
    ``sqrt(2 log d / log n)`` and fidelity at least ``(1 - log d / log n)^2``
    (clipped to [0, 1])."""
    d = _integer(d, 1, "target rank d must be a positive integer, got {!r}")
    n = _integer(n, 2, "the guarantee needs an integer n >= 2 (log n > 0), got {!r}")
    ratio = math.log(d) / math.log(n)
    eps = math.sqrt(2.0 * ratio)
    bound = (1.0 - ratio) ** 2 if ratio < 1.0 else 0.0
    return VdhBound(epsilon=eps, fidelity_bound=min(bound, 1.0))


def _products(base: np.ndarray, c: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Entries ``lo:hi`` of the interleaved product list of ``base`` with the
    ``r`` coefficients ``c``, ``base[k // r] * c[k % r]`` at position k,
    written into ``out`` (long enough for the whole rows of ``r`` that the
    span touches; ``hi - lo + 2 * r`` entries always are) and returned as a
    view."""
    r = c.size
    first, last = lo // r, -(-hi // r)
    grid = out[: (last - first) * r].reshape(last - first, r)
    for j in range(r):  # one long strided multiply per column beats broadcasting's short rows
        np.multiply(base[first:last], c[j], out=grid[:, j])
    return out[lo - first * r : hi - first * r]


def _sorted_products(base: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Descending Schmidt coefficients of ``(harmonic state) (x) phi``, from
    the harmonic list ``base`` and phi's coefficients: ``base.size *
    coefficients.size`` entries, the products with phi's exact zeros last.

    The nonzero products are built by ``_products`` and sorted by value
    unless phi's nonzero coefficients are equal, which puts their list in
    order by construction.  Ties hold equal values, so the list equals the
    raw list's stable descending sort bit for bit.
    """
    out = np.zeros(base.size * coefficients.size)
    nonzero = coefficients[coefficients > 0]
    head = _products(base, nonzero, 0, base.size * nonzero.size, out)
    if nonzero.min() != nonzero.max():
        head[:] = np.sort(head)[::-1]
    return out


def _product_chunks(base: np.ndarray, coefficients: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """The first ``size`` positions of the sorted product list of ``base``
    with the nonzero ``coefficients``, in ``_STREAM_CHUNK`` chunks.  Equal
    coefficients are built a chunk at a time into one fixed buffer; others
    are sorted once by ``_sorted_products`` and sliced."""
    spans = ((lo, min(lo + _STREAM_CHUNK, size)) for lo in range(0, size, _STREAM_CHUNK))
    if coefficients.min() == coefficients.max():
        buf = np.empty(_STREAM_CHUNK + 2 * coefficients.size)
        return (_products(base, coefficients, lo, hi, buf) for lo, hi in spans)
    full = _sorted_products(base, coefficients)
    return (full[lo:hi] for lo, hi in spans)


def embezzle_report(
    n: int, phi_start: PureBipartiteState, phi_target: PureBipartiteState
) -> EmbezzleReport:
    """Best local-unitary fidelity for turning ``(harmonic n) (x) phi_start``
    into ``(harmonic n) (x) phi_target``, with the trace-norm error and the
    dimension-counting bound check.

    The fidelity is ``_sorted_overlap``'s rule on the two sorted
    product-coefficient lists (lengths ``n * min(dims)``), from one harmonic
    list and one Schmidt decomposition per state: one BLAS dot per
    zero-padded block of ``_DOT_BLOCK`` entries, the blocks added by
    ``math.fsum``, so padding, chunking and the BLAS thread count cannot
    move its bits.  Only the first ``n * min(r_start, r_target)`` positions
    meet a nonzero product on both sides, and each list reaches the rule
    over them in ``_STREAM_CHUNK`` chunks, built in a fixed buffer when its
    nonzero coefficients are equal, else sliced from its one sorted list of
    ``n * r`` nonzero products.  The lists can be equal, and the fidelity
    exactly 1.0, only when the ranks are.  ``meets_bound`` compares
    ``sqrt(F)`` against ``1 - log d / log n`` with ``d`` the Schmidt rank of
    the target.  That comparison is a guarantee only when ``phi_start`` is
    a product state; for other starts it is reported as a plain boolean
    with no promise attached.
    """
    base = vdh_coefficients(n)
    start, target = schmidt(phi_start), schmidt(phi_target)
    s, t = (x.coefficients[x.coefficients > 0] for x in (start, target))
    size = n * min(s.size, t.size)
    chunks = zip(_product_chunks(base, s, size), _product_chunks(base, t, size))
    fid = _blocked_overlap(chunks, s.size == t.size)
    threshold = 1.0 - math.log(target.rank) / math.log(n) if n >= 2 else -math.inf
    return EmbezzleReport(
        fidelity=fid,
        trace_error=2.0 * math.sqrt(max(1.0 - fid, 0.0)),
        meets_bound=bool(math.sqrt(fid) >= threshold),
        harmonic=base,
        start_coefficients=start.coefficients,
        target_coefficients=target.coefficients,
    )


def orbit_trace_defect(
    n: int, phi_start: PureBipartiteState, phi_target: PureBipartiteState
) -> float:
    """Minimal trace distance between the two dressed states over local
    unitaries, computed through the A-marginal eigenvalue route: the dressed
    A-marginal spectra (squared harmonic-times-Schmidt products, sorted
    descending), their classical fidelity, then ``2 sqrt(1 - F)``.

    This is an independent code path from :func:`embezzle_report`: it builds
    its own harmonic list and shares neither the product sort nor the
    overlap routine; the two must agree to near machine precision, which the
    test suite pins at 1e-9.  The one piece they share is
    :func:`vdh_coefficients`, whose normalization the test suite pins to
    ``1 / sqrt(math.fsum(1 / alpha))`` bit for bit.  Each spectrum is
    squared and sorted in its own buffer, and lists of equal length are not
    padded, so the route holds at most three ``n * d`` lists at once.
    """
    base = vdh_coefficients(n)
    spectra = []
    for phi in (phi_start, phi_target):
        x = np.multiply.outer(base, schmidt(phi).coefficients).ravel()
        np.square(x, out=x)
        np.negative(x, out=x)  # ascending in -x is descending in x, kept in place
        x.sort()
        spectra.append(np.negative(x, out=x))
    size = max(x.size for x in spectra)
    a, b = (x if x.size == size else np.pad(x, (0, size - x.size)) for x in spectra)
    if np.array_equal(a, b):
        fid = 1.0
    else:
        fid = min(float(np.sum(np.sqrt(a, out=a) * np.sqrt(b, out=b))) ** 2, 1.0)
    return 2.0 * math.sqrt(max(1.0 - fid, 0.0))


# --------------------------------------------------------------------------- #
#                        Lambda family and catalysis                            #
# --------------------------------------------------------------------------- #

def _lambda_family(lam, m) -> tuple[float, int]:
    """``lam`` and ``m`` of the m-fold family on the base Schmidt spectrum
    ``(1, lam) / (1 + lam)``, refused unless ``0 < lam < 1`` and ``m >= 1``."""
    if not (isinstance(lam, numbers.Real) and 0.0 < lam < 1.0):
        raise InvalidInputError(f"lambda must lie strictly between 0 and 1, got {lam!r}")
    return float(lam), _integer(m, 1, "tensor power m must be a positive integer, got {!r}")


def _binomial_avatar(lam: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents ``k`` and masses ``Binomial(m, lambda/(1+lambda))(k)`` of the
    m-fold lambda family's spectral state, whose atom ``k`` sits at
    ``lambda^k / (1+lambda)^m``.

    Masses come from the ratio ``B(k+1)/B(k) = lambda (m-k)/(k+1)``
    multiplied outward from the mode and normalized to total 1, so no
    ``C(m, k)`` or ``(1+lambda)^-m`` is ever formed and each mass is exact to
    a few ulp of itself; exponents whose mass underflows to 0 are dropped.
    """
    mode = int((m + 1) * lam / (1.0 + lam))
    k = np.arange(_allocatable(m))
    masses = np.ones(m + 1)
    masses[mode + 1 :] = np.cumprod((m - k[mode:]) / (k[mode:] + 1.0) * lam)
    masses[:mode] = np.cumprod(((k[:mode] + 1.0) / ((m - k[:mode]) * lam))[::-1])[::-1]
    masses /= math.fsum(np.sort(masses)[::-1].tolist())  # largest first: fsum keeps few partials
    keep = np.flatnonzero(masses > 0.0)
    return keep, masses[keep]


def lambda_family_measure(lam: float, m: int) -> AtomicMeasure:
    """Spectral-state avatar of the m-fold lambda family, in closed form.

    The m-fold Schmidt spectrum has value ``lambda^k / (1+lambda)^m`` with
    multiplicity ``C(m, k)``, so the avatar carries mass
    ``Binomial(m, lambda/(1+lambda))(k)`` at that atom -- m+1 atoms instead
    of ``2**m`` tensor entries.  Refused once the smallest atom
    ``(lambda/(1+lambda))^m`` underflows float64: beyond the nearest integer
    to ``1075 ln 2 / log((1+lambda)/lambda)``, less one if its atom is 0.
    """
    lam, m = _lambda_family(lam, m)
    log_lam = math.log(lam)
    log_1p = math.log1p(lam)
    largest = round(1075 * math.log(2.0) / (log_1p - log_lam))
    if math.exp(largest * log_lam - largest * log_1p) == 0.0:
        largest -= 1
    if m > largest:
        raise InvalidInputError(
            f"atoms underflow float64 for lambda={lam!r}, m={m}; "
            f"the largest m that fits is {largest}"
        )
    k, masses = _binomial_avatar(lam, m)
    return flow_act(atomic_measure(np.power(lam, k), masses), -m * log_1p)


def family_kappa_profile(lam: float, m: int, t_grid: Sequence[float]) -> list[float]:
    """Flow-deviation profile of the m-fold lambda family over a time grid.

    The deviation is scale-free, so it is computed on the log-positions
    ``(k - k_heaviest) log lambda``, centred on the heaviest atom; no atom is
    formed, so every m and every finite ``t`` is accepted.  The times are
    checked and evaluated in one ``_density_l1`` grid pass.
    """
    lam, m = _lambda_family(lam, m)
    k, masses = _binomial_avatar(lam, m)
    u, w = ((k - k[np.argmax(masses)]) * math.log(lam))[::-1], masses[::-1]
    return _density_l1(u, w, u, w, t_grid)


def catalytic_deviation(lam: float, m: int, t: float) -> float:
    """Atom-mass total variation between the m-fold spectral avatar and its
    image under the scaling flow at time ``t``.

    When ``t`` lies within ``MERGE_TOL`` of ``s log(1/lambda)`` for an integer
    ``s``, the flow moves atom ``k`` onto atom ``k - s``, so the value is
    ``sum_k |B(k) - B(k-s)|`` for the binomial masses ``B``; at the period it
    decreases toward 0 as ``m`` grows.  Off the period the moved atoms
    interleave with the originals and the value is ``2 sum_k B(k)``.
    """
    lam, m = _lambda_family(lam, m)
    (t,) = _flow_times(t, single=True).tolist()
    _, masses = _binomial_avatar(lam, m)
    period = -math.log(lam)
    s = round(abs(t) / period) if abs(t) <= (m + 1) * period else 0
    # off the period no atom lands on another, as if shifted past the support
    s = s if abs(abs(t) - s * period) <= MERGE_TOL else masses.size
    terms = np.zeros(masses.size + s)
    terms[: masses.size] = masses
    terms[s:] -= masses
    np.abs(terms, out=terms)
    return math.fsum(np.sort(terms)[::-1].tolist())  # largest first: fsum keeps few partials


# --------------------------------------------------------------------------- #
#                            Factor-type diagnostics                           #
# --------------------------------------------------------------------------- #

def classify_itpfi(s: Spectrum) -> TypeLabel:
    """Murray-von Neumann type label of the infinite tensor power built from
    a (positive, finite) Schmidt spectrum.

    The decision is scale-invariant: only the ratios of the largest entry to
    the others enter, merged into runs by ``spectra._merge_runs`` as atoms
    are.  Rank one gives type I; one run gives II_1.  III_lambda with
    ``lambda = exp(-g_1 / lcm(b))`` needs every log-ratio ``g`` to be ``a / b``
    times the smallest ``g_1`` (``b <= DENOMINATOR_CAP``) within the gaps'
    rounding and the runs' spreads, checked exactly, and the largest exponent
    of that generator to be the one integer that fits; else III_1.  Entries
    count as exact to a few roundings, so an eigensolver's small eigenvalues
    may give III_1.  III_0 is never reported: a finite truncation cannot tell
    it from a drifting III_lambda sequence.  A ratio beyond float64 is refused.
    """
    vals = s.values
    if vals.size == 0:
        raise InvalidInputError("cannot classify an empty spectrum")
    if vals.size == 1:
        return TypeLabel("I")
    top, bottom = float(vals[0]), float(vals[-1])
    if top / bottom == math.inf:
        raise InvalidInputError(f"cannot classify: the ratio of the largest entry {top!r} "
                                f"to the smallest {bottom!r} overflows float64")
    # the ratios ascend, so each run is represented by its largest entry
    ratios, counts = _merge_runs(r := top / vals, np.ones(vals.size))
    if ratios.size == 1:
        return TypeLabel("II_1")
    lasts = r[np.cumsum(counts, dtype=np.int64) - 1].tolist()
    gaps = [Fraction(math.log(x)) for x in ratios[1:].tolist()]
    # a gap's error: 8u (1 + g) = (1 + g) / 2**50 for a division and a log, plus the runs' spread
    spreads = [Fraction(math.log(hi / lo)) for lo, hi in zip(ratios.tolist(), lasts)]
    slack = [(1 + g) / 2**50 + spreads[0] + w for g, w in zip(gaps, spreads[1:])]
    fracs = [(g / gaps[0]).limit_denominator(DENOMINATOR_CAP) for g in gaps]
    if any(abs(f.denominator * g - f.numerator * gaps[0]) > f.denominator * e + f.numerator * slack[0]
           for f, g, e in zip(fracs, gaps, slack)):
        return TypeLabel("III_1")
    denom = math.lcm(*(f.denominator for f in fracs))  # refines the base gap into the generator
    # the largest gap's exponent n = fracs[-1] * denom is unique: n + 1 does not fit
    if 2 * denom * slack[-1] + (2 * fracs[-1] * denom + 1) * slack[0] >= gaps[0]:
        return TypeLabel("III_1")
    return TypeLabel("III_lambda", parameter=math.exp(-(float(gaps[0]) / denom)))


def kappa_max_formula(lam: float) -> float:
    """Peak flow deviation of the two-level family in closed form:
    ``2 (1 - sqrt(lambda)) / (1 + sqrt(lambda))``.

    Equivalently ``2 (1 - e^{-T/2}) / (1 + e^{-T/2})`` with
    ``T = -log(lambda)`` the period of the ratio group.
    """
    if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
        raise InvalidInputError(f"lambda must lie in [0, 1], got {lam!r}")
    r = math.sqrt(lam)
    return 2.0 * (1.0 - r) / (1.0 + r)

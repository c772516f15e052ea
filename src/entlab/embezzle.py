"""Embezzlement families, catalytic flow deviation, and factor-type labels.

The harmonic ("van-Dam/Hayden style") family is handled entirely through its
sorted Schmidt-coefficient lists, so a report for ``n`` in the millions takes
tens of milliseconds; dense state vectors are only materialized on request
for small ``n``.  A report builds the harmonic list once, with its harmonic
number summed exactly, and decomposes each state once; it sorts a product
list only when the interleaved list is out of order, and argsorts nothing
until ``permutations`` is read.  Its oracle, ``orbit_trace_defect``, takes
the A-marginal spectrum route on its own code.  The lambda-family
diagnostics use the binomial masses of the m-fold spectral state instead of
expanding ``2**m`` tensor-power entries, and never form an atom: the kappa
profile runs on centred log-positions and the catalytic deviation is a
closed form in the masses, so neither has a limit on m.  Only
``lambda_family_measure``, which returns the true atoms, is refused once
they underflow float64 (m = 678 at lambda = 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .quantum import PureBipartiteState, _sorted_overlap, haar_unitary, schmidt, state_from_schmidt
from .spectra import (
    AtomicMeasure,
    Spectrum,
    _density_l1,
    _flow_time,
    atomic_measure,
    flow_act,
)
from .tolerances import MERGE_TOL, RATIO_TOL, UNIT_VECTOR_TOL

__all__ = [
    "VdhSpec",
    "VdhBound",
    "EmbezzleReport",
    "LambdaFamilySpec",
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
    "multipartite_lu_fidelity",
]

# Largest n for which vdh_state will build the dense (n, n) amplitude grid.
DENSE_STATE_CAP = 4096
# Continued-fraction rationalization budget for classify_itpfi.
RATIO_DENOMINATOR_CAP = 10**6


# --------------------------------------------------------------------------- #
#                                Config records                                #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class VdhSpec:
    """Harmonic-family size parameter."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidInputError(f"harmonic family needs integer n >= 1, got {self.n!r}")


@dataclass(frozen=True)
class LambdaFamilySpec:
    """Two-level tensor-power family: base Schmidt spectrum
    ``(1, lambda_) / (1 + lambda_)`` raised to the m-th tensor power."""

    lambda_: float
    m: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_ < 1.0):
            raise InvalidInputError(
                f"lambda must lie strictly between 0 and 1, got {self.lambda_!r}"
            )
        if not isinstance(self.m, int) or self.m < 1:
            raise InvalidInputError(f"tensor power m must be a positive integer, got {self.m!r}")


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
    """``math.fsum(x)`` for a descending array of positive floats below 2**53:
    the exact sum, rounded once.

    The terms with binary exponent e are a contiguous run, each an integer
    mantissa ``m < 2**53`` times ``2**(e - 53)``.  A run's mantissas are summed
    in int64 as 26-bit high and low halves, which cannot overflow below 2**36
    terms; the runs are combined as Python ints and the total is divided once
    by a power of two, which Python's int division rounds correctly.
    """
    top, bottom = math.frexp(x[0])[1], math.frexp(x[-1])[1]
    exponents = range(top, bottom - 1, -1)
    stops = x.size - np.searchsorted(x[::-1], [math.ldexp(1.0, e - 1) for e in exponents])
    total, start = 0, 0
    for e, stop in zip(exponents, stops.tolist()):
        m = np.ldexp(x[start:stop], 53 - e).astype(np.int64)
        total = 2 * total + (int(np.sum(m >> 26)) << 26) + int(np.sum(m & (2**26 - 1)))
        start = stop
    return total / (1 << (53 - bottom))


def vdh_coefficients(n: int) -> np.ndarray:
    """Descending Schmidt coefficients ``c_n / sqrt(alpha)``, alpha = 1..n,
    with ``c_n`` the inverse square root of the n-th harmonic number.  The
    harmonic number is the correctly rounded sum of the terms ``1 / alpha``,
    bit for bit ``math.fsum``'s."""
    spec = VdhSpec(n)
    inv = 1.0 / np.arange(1, spec.n + 1, dtype=float)
    c = 1.0 / math.sqrt(_fsum_descending(inv))
    return c * np.sqrt(inv)


def vdh_state(n: int) -> PureBipartiteState:
    """Dense harmonic-family state on ``C^n (x) C^n``.

    Only intended for small ``n`` (the amplitude grid has ``n**2`` entries);
    all large-``n`` analysis goes through :func:`vdh_coefficients` and
    :func:`embezzle_report`, which never materialize the state.
    """
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
    if not isinstance(d, int) or d < 1:
        raise InvalidInputError(f"target rank d must be a positive integer, got {d!r}")
    if not isinstance(n, int) or n < 2:
        raise InvalidInputError(
            f"the guarantee needs n >= 2 (log n > 0), got n = {n!r}"
        )
    ratio = math.log(d) / math.log(n)
    eps = math.sqrt(2.0 * ratio)
    bound = (1.0 - ratio) ** 2 if ratio < 1.0 else 0.0
    return VdhBound(epsilon=eps, fidelity_bound=min(bound, 1.0))


def _sorted_products(base: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Descending Schmidt coefficients of ``(harmonic state) (x) phi``, from
    the harmonic list ``base`` and phi's coefficients: ``base.size *
    coefficients.size`` entries, the products with phi's exact zeros last.

    Only the nonzero products are ordered.  Their interleaved outer-product
    list is already non-increasing when phi has one nonzero coefficient or
    equal ones (a product start, a maximally entangled target), and is then
    kept as it is; otherwise it is sorted by value.  Ties hold equal values,
    so the list equals the raw list's stable descending sort bit for bit.
    """
    out = np.zeros(base.size * coefficients.size)
    nonzero = coefficients[coefficients > 0]
    head = out[: base.size * nonzero.size]
    grid = head.reshape(base.size, nonzero.size)
    for j, c in enumerate(nonzero):  # one long multiply per column beats outer's short rows
        np.multiply(base, c, out=grid[:, j])
    if np.any(head[1:] > head[:-1]):
        head[:] = np.sort(head)[::-1]
    return out


def embezzle_report(
    n: int, phi_start: PureBipartiteState, phi_target: PureBipartiteState
) -> EmbezzleReport:
    """Best local-unitary fidelity for turning ``(harmonic n) (x) phi_start``
    into ``(harmonic n) (x) phi_target``, with the trace-norm error and the
    dimension-counting bound check.

    Everything is computed from the two sorted product-coefficient lists
    (lengths ``n * min(dims)``), built from one harmonic list and one Schmidt
    decomposition per state; ``meets_bound`` compares ``sqrt(F)`` against
    ``1 - log d / log n`` with ``d`` the Schmidt rank of the target.  That
    comparison is a guarantee only when ``phi_start`` is a product state; for
    other starts it is reported as a plain boolean with no promise attached.
    """
    base = vdh_coefficients(n)
    start, target = schmidt(phi_start), schmidt(phi_target)
    fid = _sorted_overlap(
        _sorted_products(base, start.coefficients), _sorted_products(base, target.coefficients)
    )
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
    ``1 / sqrt(math.fsum(1 / alpha))`` bit for bit.
    """
    base = vdh_coefficients(n)
    a, b = (
        np.sort(np.multiply.outer(base, schmidt(phi).coefficients).ravel() ** 2)[::-1]
        for phi in (phi_start, phi_target)
    )
    size = max(a.size, b.size)
    a, b = (np.pad(x, (0, size - x.size)) for x in (a, b))
    if np.array_equal(a, b):
        fid = 1.0
    else:
        fid = min(float(np.sum(np.sqrt(a) * np.sqrt(b))) ** 2, 1.0)
    return 2.0 * math.sqrt(max(1.0 - fid, 0.0))


# --------------------------------------------------------------------------- #
#                        Lambda family and catalysis                            #
# --------------------------------------------------------------------------- #

def _largest_fitting_m(fits, m: int) -> int:
    """Largest ``j < m`` with ``fits(j)``, by bisection; 0 if none does.
    ``fits`` must be monotone (true up to some j, false beyond)."""
    lo, hi = 0, m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


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
    k = np.arange(m)
    masses = np.ones(m + 1)
    masses[mode + 1 :] = np.cumprod((m - k[mode:]) / (k[mode:] + 1.0) * lam)
    masses[:mode] = np.cumprod(((k[:mode] + 1.0) / ((m - k[:mode]) * lam))[::-1])[::-1]
    masses /= math.fsum(np.sort(masses)[::-1])  # largest first: fsum keeps few partials
    keep = np.flatnonzero(masses > 0.0)
    return keep, masses[keep]


def lambda_family_measure(spec: LambdaFamilySpec) -> AtomicMeasure:
    """Spectral-state avatar of the m-fold lambda family, in closed form.

    The m-fold Schmidt spectrum has value ``lambda^k / (1+lambda)^m`` with
    multiplicity ``C(m, k)``, so the avatar carries mass
    ``Binomial(m, lambda/(1+lambda))(k)`` at that atom -- m+1 atoms instead
    of ``2**m`` tensor entries.  Refused once the smallest atom
    ``(lambda/(1+lambda))^m`` underflows float64.
    """
    lam, m = spec.lambda_, spec.m

    def fits(j: int) -> bool:
        return math.exp(j * math.log(lam) - j * math.log1p(lam)) > 0.0

    if not fits(m):
        raise InvalidInputError(
            f"atoms underflow float64 for lambda={lam!r}, m={m}; "
            f"the largest m that fits is {_largest_fitting_m(fits, m)}"
        )
    k, masses = _binomial_avatar(lam, m)
    return flow_act(atomic_measure(np.power(lam, k), masses), -m * math.log1p(lam))


def family_kappa_profile(spec: LambdaFamilySpec, t_grid: Sequence[float]) -> list[float]:
    """Flow-deviation profile of the m-fold lambda family over a time grid.

    The deviation is scale-free, so it is computed on the log-positions
    ``(k - k_heaviest) log lambda``, centred on the heaviest atom; no atom is
    formed, so every m and every finite ``t`` is accepted.
    """
    k, masses = _binomial_avatar(spec.lambda_, spec.m)
    u, w = ((k - k[np.argmax(masses)]) * math.log(spec.lambda_))[::-1], masses[::-1]
    return [_density_l1(u, w, u, w, _flow_time(t)) for t in t_grid]


def catalytic_deviation(spec: LambdaFamilySpec, t: float) -> float:
    """Atom-mass total variation between the m-fold spectral avatar and its
    image under the scaling flow at time ``t``.

    When ``t`` lies within ``MERGE_TOL`` of ``s log(1/lambda)`` for an integer
    ``s``, the flow moves atom ``k`` onto atom ``k - s``, so the value is
    ``sum_k |B(k) - B(k-s)|`` for the binomial masses ``B``; at the period it
    decreases toward 0 as ``m`` grows.  Off the period the moved atoms
    interleave with the originals and the value is ``2 sum_k B(k)``.
    """
    t = _flow_time(t)
    _, masses = _binomial_avatar(spec.lambda_, spec.m)
    period = -math.log(spec.lambda_)
    s = round(abs(t) / period) if abs(t) <= (spec.m + 1) * period else 0
    # off the period no atom lands on another, as if shifted past the support
    s = s if abs(abs(t) - s * period) <= MERGE_TOL else masses.size
    terms = np.abs(np.pad(masses, (0, s)) - np.pad(masses, (s, 0)))
    return math.fsum(np.sort(terms)[::-1])  # largest first, so that fsum keeps few partials


# --------------------------------------------------------------------------- #
#                            Factor-type diagnostics                           #
# --------------------------------------------------------------------------- #

def _merged_gaps(vals: np.ndarray) -> list[float]:
    """Distinct positive values of ``log(vals[0] / vals[i])``, deduplicated."""
    gaps = sorted(float(math.log(vals[0] / v)) for v in vals[1:])
    merged: list[float] = []
    for g in gaps:
        if g <= MERGE_TOL:
            continue
        if merged and abs(g - merged[-1]) <= MERGE_TOL * max(1.0, g):
            continue
        merged.append(g)
    return merged


def classify_itpfi(s: Spectrum) -> TypeLabel:
    """Murray-von Neumann type label of the infinite tensor power built from
    a (positive, finite) Schmidt spectrum.

    The decision is scale-invariant: only eigenvalue ratios enter.  Rank one
    gives type I; an equal-weight spectrum gives II_1; if every log-ratio is
    a rational multiple of the first one (continued-fraction rationalization,
    denominators capped at 10**6, tolerance ``RATIO_TOL``), the ratio group
    is cyclic with generator ``g`` and the label is III_lambda with
    ``lambda = exp(-g)``.  Anything that defeats the rationalization budget
    falls back to III_1.  III_0 is never reported: a finite truncation cannot
    distinguish it from a drifting III_lambda sequence, so the honest finite
    answer is the cyclic label or the fallback.
    """
    vals = s.as_array()
    if vals.size == 0:
        raise InvalidInputError("cannot classify an empty spectrum")
    if vals.size == 1:
        return TypeLabel("I")
    if vals[0] - vals[-1] <= MERGE_TOL * vals[0]:
        return TypeLabel("II_1")
    gaps = _merged_gaps(vals)
    base = gaps[0]
    fracs: list[Fraction] = []
    for g in gaps:
        q = g / base
        fr = Fraction(q).limit_denominator(RATIO_DENOMINATOR_CAP)
        if fr <= 0 or abs(q - float(fr)) > RATIO_TOL * max(1.0, q):
            return TypeLabel("III_1")
        fracs.append(fr)
    # The lcm of the denominators refines the base gap into a common unit.
    denom = 1
    for fr in fracs:
        denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
        if denom > RATIO_DENOMINATOR_CAP:
            return TypeLabel("III_1")
    multiples = [fr.numerator * (denom // fr.denominator) for fr in fracs]
    step = 0
    for mult in multiples:
        step = math.gcd(step, mult)
    generator = (base / denom) * step
    for g in gaps:
        ratio = g / generator
        if abs(ratio - round(ratio)) > RATIO_TOL * max(1.0, ratio):
            return TypeLabel("III_1")
    return TypeLabel("III_lambda", parameter=math.exp(-generator))


def kappa_max_formula(lam: float) -> float:
    """Peak flow deviation of the two-level family in closed form:
    ``2 (1 - sqrt(lambda)) / (1 + sqrt(lambda))``.

    Equivalently ``2 (1 - e^{-T/2}) / (1 + e^{-T/2})`` with
    ``T = -log(lambda)`` the period of the ratio group.
    """
    if not (0.0 <= lam <= 1.0):
        raise InvalidInputError(f"lambda must lie in [0, 1], got {lam!r}")
    r = math.sqrt(lam)
    return 2.0 * (1.0 - r) / (1.0 + r)


# --------------------------------------------------------------------------- #
#                       Multipartite alignment estimator                       #
# --------------------------------------------------------------------------- #

def _apply_except(
    tensor: np.ndarray, unitaries: list[np.ndarray], skip: int
) -> np.ndarray:
    out = tensor
    for j, u in enumerate(unitaries):
        if j == skip:
            continue
        out = np.moveaxis(np.tensordot(u, out, axes=([1], [j])), 0, j)
    return out


def multipartite_lu_fidelity(
    psi: np.ndarray,
    phi: np.ndarray,
    dims: Sequence[int],
    iters: int = 60,
    seed: int = 0,
) -> float:
    """Lower estimate of ``max |<psi| U_1 (x) ... (x) U_N |phi>|^2`` over
    local unitaries, by alternating single-party polar updates.

    One run starts from the identity; ``1 + iters // 25`` further runs start
    from seeded Haar unitaries.  Each block update is an exact ascent step,
    so the per-run value is non-decreasing and the reported maximum is
    monotone in ``iters`` (runs only get longer and more numerous) and
    reproducible for a fixed ``seed``.  The result is an estimate from below;
    it never exceeds 1.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidInputError(f"need at least two parties with positive dims, got {dims!r}")
    if iters < 1:
        raise InvalidInputError(f"iters must be >= 1, got {iters!r}")
    size = int(np.prod(dims))
    psi_t = np.asarray(psi, dtype=complex).reshape(-1)
    phi_t = np.asarray(phi, dtype=complex).reshape(-1)
    if psi_t.size != size or phi_t.size != size:
        raise InvalidInputError(
            f"state length must be prod(dims) = {size}, got {psi_t.size} and {phi_t.size}"
        )
    for vec in (psi_t, phi_t):
        if abs(np.linalg.norm(vec) - 1.0) > UNIT_VECTOR_TOL:
            raise InvalidInputError("states must be unit vectors")
    psi_t = psi_t.reshape(dims)
    phi_t = phi_t.reshape(dims)
    n_parties = len(dims)
    restarts = 1 + iters // 25

    best = 0.0
    for run in range(restarts + 1):
        if run == 0:
            unitaries = [np.eye(d, dtype=complex) for d in dims]
        else:
            rng = np.random.default_rng((seed, run))
            unitaries = [haar_unitary(d, rng) for d in dims]
        value = 0.0
        for _ in range(iters):
            for k in range(n_parties):
                dressed = _apply_except(phi_t, unitaries, skip=k)
                other_axes = [j for j in range(n_parties) if j != k]
                overlap_matrix = np.tensordot(
                    psi_t.conj(), dressed, axes=(other_axes, other_axes)
                )
                u_left, sing, v_right = np.linalg.svd(overlap_matrix)
                unitaries[k] = np.conj(u_left @ v_right)
                value = float(np.sum(sing)) ** 2
        best = max(best, min(value, 1.0))
    return best

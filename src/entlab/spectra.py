"""Step-function and atomic-measure kernel.

Spectral scales, distribution functions, majorization, unitary-orbit
distance, spectral states, the scaling-flow action, smearing, and the
flow-deviation functional.  Everything in here is exact piecewise
arithmetic on floats: no quadrature, no sampling.

Conventions
-----------
* A spectrum is a finite list of non-negative reals sorted non-increasing,
  trailing zeros stripped.  A *state* spectrum sums to 1 (within
  ``INPUT_TOL``).
* ``majorizes(a, b)`` uses the classical convention: partial sums of ``a``
  dominate those of ``b``, i.e. ``a`` is *less mixed* than ``b``.
* The spectral state of a spectrum puts an atom at each distinct
  eigenvalue ``v`` with mass ``v * multiplicity``; total mass is 1 for a
  state spectrum.  The scaling flow moves atom positions ``a -> a*e^t``
  and preserves masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .tolerances import INPUT_TOL, MERGE_TOL


# --------------------------------------------------------------------------- #
#                                   Spectrum                                   #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Spectrum:
    """Finite non-negative eigenvalue list, sorted non-increasing.

    Canonical form strips trailing zeros, so ``len(values)`` is the rank.
    Use :func:`spectrum` to construct one from arbitrary float data.
    """

    values: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(math.fsum(self.values))

    @property
    def rank(self) -> int:
        return len(self.values)

    def is_state(self) -> bool:
        return abs(self.total - 1.0) <= INPUT_TOL

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def padded(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[: len(self.values)] = self.values
        return out


def spectrum(values: Iterable[float]) -> Spectrum:
    """Build a canonical :class:`Spectrum` (sort, clip noise, strip zeros).

    Entries in ``[-INPUT_TOL, 0)`` are treated as roundoff and clipped to
    zero; anything more negative is rejected.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("spectrum values must be a flat list")
    if arr.size and arr.min() < -INPUT_TOL:
        raise InvalidInputError(
            f"negative spectrum entry {arr.min():.3e} below clip tolerance"
        )
    arr = np.clip(arr, 0.0, None)
    arr = np.sort(arr)[::-1]
    nz = arr > 0.0
    return Spectrum(tuple(float(v) for v in arr[nz]))


def state_spectrum(values: Iterable[float]) -> Spectrum:
    """Like :func:`spectrum` but insists the entries sum to 1."""
    s = spectrum(values)
    if not s.is_state():
        raise InvalidInputError(f"spectrum total {s.total!r} is not 1")
    return s


def tensor_spectrum(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of a tensor product: all pairwise eigenvalue products."""
    if not a.values or not b.values:
        return Spectrum(())
    prods = np.outer(a.as_array(), b.as_array()).ravel()
    return spectrum(prods)


def flat_spectrum(n: int) -> Spectrum:
    """The flat (maximally mixed) spectrum (1/n, ..., 1/n)."""
    if n < 1:
        raise InvalidInputError("flat spectrum needs n >= 1")
    return Spectrum((1.0 / n,) * n)


# --------------------------------------------------------------------------- #
#                                 StepFunction                                 #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class StepFunction:
    """Non-increasing right-continuous step function on [0, oo).

    ``levels[i]`` is the value on ``[t_i, t_{i+1})`` with ``t_0 = 0`` and
    ``t_{k+1} = oo``; the final level is always 0, so the function has
    compact support and finite integral.  Canonical instances have strictly
    increasing breakpoints and strictly decreasing levels, which makes
    structural equality the same thing as function equality.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.breakpoints) + 1:
            raise InvalidInputError("need exactly one more level than breakpoints")
        if self.levels and self.levels[-1] != 0.0:
            raise InvalidInputError("a step function must vanish eventually")

    def value(self, t: float) -> float:
        if t < 0:
            raise InvalidInputError("step functions live on [0, oo)")
        # index of the first breakpoint strictly above t
        i = int(np.searchsorted(self.breakpoints, t, side="right"))
        return self.levels[i]

    def integral(self) -> float:
        pts = (0.0,) + self.breakpoints
        seg = [(b - a) * v for a, b, v in zip(pts, pts[1:], self.levels[:-1])]
        return float(math.fsum(seg))

    @property
    def support_measure(self) -> float:
        """Lebesgue measure of {t : f(t) > 0}."""
        return self.breakpoints[-1] if self.breakpoints else 0.0


ZERO_STEP = StepFunction((), (0.0,))


def step_function(breakpoints: Sequence[float], levels: Sequence[float]) -> StepFunction:
    """Canonicalize raw breakpoint/level data into a :class:`StepFunction`.

    Adjacent equal levels are merged and zero-width segments dropped, so the
    result has strictly increasing breakpoints and strictly decreasing
    levels ending in 0.
    """
    bps = np.asarray(breakpoints, dtype=float)
    lvs = np.asarray(levels, dtype=float)
    if bps.ndim != 1 or lvs.ndim != 1 or lvs.size != bps.size + 1:
        raise InvalidInputError("need exactly one more level than breakpoints")
    if np.any(bps <= 0):
        raise InvalidInputError("breakpoints must be positive")
    if np.any(bps[1:] <= bps[:-1]):
        raise InvalidInputError("breakpoints must be strictly increasing")
    if np.any(lvs < 0):
        raise InvalidInputError("levels must be non-negative")
    if np.any(lvs[1:] > lvs[:-1]):
        raise InvalidInputError("levels must be non-increasing")
    if lvs[-1] != 0.0:
        raise InvalidInputError("final level must be zero")
    jumps = lvs[1:] != lvs[:-1]  # equal neighbours mean no jump there
    return StepFunction(
        tuple(bps[jumps].tolist()), (float(lvs[0]),) + tuple(lvs[1:][jumps].tolist())
    )


def spectral_scale(s: Spectrum) -> StepFunction:
    """The spectral scale: value ``values[n]`` on ``[n, n+1)``.

    Eigenvalues are repeated according to multiplicity, so the support
    measure equals the rank.
    """
    vals = list(s.values)
    if not vals:
        return ZERO_STEP
    return step_function(
        [float(i) for i in range(1, len(vals) + 1)], vals + [0.0]
    )


def distribution_function(s: Spectrum) -> StepFunction:
    """``D(t) = #{n : values[n] > t}``, the generalized inverse of the scale."""
    vals = s.as_array()
    if vals.size == 0:
        return ZERO_STEP
    distinct, counts = np.unique(vals, return_counts=True)  # ascending
    # level on [0, distinct[0]) is the full rank; each distinct value passed
    # removes its multiplicity from the count
    levels = [int(vals.size)]
    remaining = int(vals.size)
    for c in counts:
        remaining -= int(c)
        levels.append(remaining)
    return step_function([float(v) for v in distinct], [float(v) for v in levels])


def generalized_inverse(f: StepFunction) -> StepFunction:
    """Generalized inverse ``g(t) = inf{s > 0 : f(s) <= t}``.

    For canonical step functions this swaps the roles of breakpoints and
    levels; applying it twice gives back the original function exactly.
    """
    if not f.breakpoints:
        return ZERO_STEP
    new_bps = tuple(reversed(f.levels[:-1]))
    new_lvs = tuple(reversed(f.breakpoints)) + (0.0,)
    return StepFunction(new_bps, new_lvs)


# `scale_from` in property-test speak: the inverse of a distribution function
# is the spectral scale.
scale_from_distribution = generalized_inverse


def l1_distance(f: StepFunction, g: StepFunction) -> float:
    """Exact integral of |f - g| over the merged breakpoint grid.

    Each segment ``[left, right)`` of the merged grid contributes
    ``(right - left) * |f(left) - g(left)|``; both level lookups are one
    ``searchsorted`` over the whole grid, and ``math.fsum`` adds the terms
    with a single rounding.
    """
    fb = np.asarray(f.breakpoints, dtype=float)
    gb = np.asarray(g.breakpoints, dtype=float)
    pts = np.concatenate(([0.0], np.union1d(fb, gb)))
    left, right = pts[:-1], pts[1:]
    fv = np.asarray(f.levels)[np.searchsorted(fb, left, side="right")]
    gv = np.asarray(g.levels)[np.searchsorted(gb, left, side="right")]
    return float(math.fsum((right - left) * np.abs(fv - gv)))


# --------------------------------------------------------------------------- #
#                                 Majorization                                 #
# --------------------------------------------------------------------------- #

def majorizes(a: Spectrum, b: Spectrum) -> bool:
    """Classical majorization: partial sums of ``a`` dominate those of ``b``.

    True iff ``sum(a[:k]) >= sum(b[:k])`` for every ``k`` (descending order,
    zero-padded) with equal totals; i.e. ``a`` is less mixed than ``b``.
    Partial sums are compared within ``INPUT_TOL``, and totals differing
    by more than that are a usage error, not "false".
    """
    if abs(a.total - b.total) > INPUT_TOL:
        raise InvalidInputError(
            f"majorization compares equal-mass spectra: {a.total} vs {b.total}"
        )
    n = max(a.rank, b.rank)
    if n == 0:
        return True
    ca = np.cumsum(a.padded(n))
    cb = np.cumsum(b.padded(n))
    return bool(np.all(ca >= cb - INPUT_TOL))


def orbit_distance(a: Spectrum, b: Spectrum) -> float:
    """L1 distance of sorted spectra: ``sum |a_i - b_i|`` zero-padded.

    Equals the trace-norm distance between the unitary orbits of two
    density matrices with these spectra, and also the L1 distance of the
    two spectral scales and of the two distribution functions.
    """
    n = max(a.rank, b.rank)
    if n == 0:
        return 0.0
    return float(np.abs(a.padded(n) - b.padded(n)).sum())


# --------------------------------------------------------------------------- #
#                                AtomicMeasure                                 #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure on (0, oo): atoms + masses, atoms ascending.

    Construct through :func:`atomic_measure`, which merges positions that
    coincide up to ``MERGE_TOL`` in the log domain.
    """

    atoms: tuple[float, ...]
    masses: tuple[float, ...]

    @property
    def total_mass(self) -> float:
        return float(math.fsum(self.masses))

    def isclose(self, other: "AtomicMeasure", tol: float = MERGE_TOL) -> bool:
        """Atom-for-atom comparison: positions within relative ``tol`` (never
        finer than ``MERGE_TOL``), masses within ``tol`` (absolute and
        relative)."""
        if len(self.atoms) != len(other.atoms):
            return False
        a, b = np.asarray(self.atoms), np.asarray(other.atoms)
        m, w = np.asarray(self.masses), np.asarray(other.masses)
        if not np.allclose(np.log(a), np.log(b), rtol=0.0, atol=max(tol, MERGE_TOL)):
            return False
        return bool(np.allclose(m, w, rtol=tol, atol=tol))


def atomic_measure(atoms: Iterable[float], masses: Iterable[float]) -> AtomicMeasure:
    """Build an :class:`AtomicMeasure`, merging near-coincident atoms.

    Positions are compared in the log domain with absolute tolerance
    ``MERGE_TOL`` (= relative tolerance on the positions themselves), so
    the flow action cannot split atoms that started out equal.
    """
    pos = np.asarray(list(atoms), dtype=float)
    mass = np.asarray(list(masses), dtype=float)
    if pos.shape != mass.shape or pos.ndim != 1:
        raise InvalidInputError("atoms and masses must be flat lists of equal length")
    if pos.size == 0:
        return AtomicMeasure((), ())
    if pos.min() <= 0.0:
        raise InvalidInputError("atoms must be strictly positive")
    if mass.min() <= 0.0:
        raise InvalidInputError("masses must be strictly positive")
    order = np.argsort(pos)
    pos, mass = pos[order], mass[order]
    logs = np.log(pos)
    out_pos: list[float] = [float(pos[0])]
    out_mass: list[float] = [float(mass[0])]
    anchor = logs[0]
    for p, lp, m in zip(pos[1:], logs[1:], mass[1:]):
        if lp - anchor <= MERGE_TOL:
            out_mass[-1] += float(m)
        else:
            out_pos.append(float(p))
            out_mass.append(float(m))
            anchor = lp
    return AtomicMeasure(tuple(out_pos), tuple(out_mass))


def spectral_state(s: Spectrum) -> AtomicMeasure:
    """Atomic avatar of the spectral state of a state spectrum.

    An atom sits at each distinct eigenvalue ``v`` with mass
    ``v * multiplicity``; the total mass is the state's normalization, 1.
    """
    if not s.is_state():
        raise InvalidInputError("spectral_state needs a state spectrum (total 1)")
    vals = s.as_array()
    distinct, counts = np.unique(vals, return_counts=True)
    return atomic_measure(distinct, distinct * counts)


def flow_act(m: AtomicMeasure, t: float) -> AtomicMeasure:
    """Scaling-flow action: every atom ``a`` moves to ``a * e^t``, masses fixed.

    Refused when ``e^t`` overflows or a moved atom leaves float64 (becomes 0
    or inf).
    """
    if t == 0.0 or not m.atoms:
        return m
    try:
        scale = math.exp(t)
    except OverflowError:
        scale = math.inf
    # atoms ascend, so only the two ends can leave (0, inf)
    if not (m.atoms[0] * scale > 0.0 and m.atoms[-1] * scale < math.inf):
        raise InvalidInputError(
            f"flow time t={t!r} moves atoms in [{m.atoms[0]!r}, {m.atoms[-1]!r}] out of float64 range"
        )
    return AtomicMeasure(tuple((np.asarray(m.atoms) * scale).tolist()), m.masses)


def smear(psi_hat: AtomicMeasure, omega: Spectrum) -> AtomicMeasure:
    """Smear a spectral state by a second spectrum.

    Returns ``sum_i w_i * flow_act(psi_hat, log w_i)`` over the nonzero
    entries ``w_i`` of ``omega`` — exactly the spectral state of the tensor
    product spectrum.
    """
    if not omega.is_state():
        raise InvalidInputError("smearing weight must be a state spectrum")
    all_atoms: list[float] = []
    all_masses: list[float] = []
    for w in omega.values:
        moved = flow_act(psi_hat, math.log(w))
        all_atoms.extend(moved.atoms)
        all_masses.extend(w * m for m in moved.masses)
    return atomic_measure(all_atoms, all_masses)


def measure_distribution(m: AtomicMeasure) -> StepFunction:
    """Distribution density of the spectral functional behind an atomic avatar.

    The avatar of a spectrum puts mass ``v * multiplicity`` at each distinct
    eigenvalue ``v``; the functional it encodes has a step-function density
    ``D(t) = sum_{atoms a > t} mass_a / a`` with respect to Lebesgue measure.
    For the avatar of a spectrum this recovers the eigenvalue counting
    function exactly (mass/position = multiplicity).  Refused when the
    density overflows float64 (atoms too small for their masses).
    """
    if not m.atoms:
        return ZERO_STEP
    with np.errstate(over="ignore"):
        ratios = np.asarray(m.masses, dtype=float) / np.asarray(m.atoms, dtype=float)
        suffix = np.cumsum(ratios[::-1])[::-1]
    if suffix[0] == math.inf:
        raise InvalidInputError(
            f"distribution density of atoms in [{m.atoms[0]!r}, {m.atoms[-1]!r}] overflows float64"
        )
    return step_function(m.atoms, np.append(suffix, 0.0))


def hs_distance(m1: AtomicMeasure, m2: AtomicMeasure) -> float:
    """Norm distance between the spectral functionals of two atomic avatars.

    Computed as the exact L1 distance of their distribution densities.  This
    is the norm under which the distance between the spectral functionals of
    two density spectra equals the unitary-orbit distance of the densities
    themselves.  It is dominated by ``tv_distance`` of the avatars (each atom
    contributes ``|mass difference| / position * position``).
    """
    return l1_distance(measure_distribution(m1), measure_distribution(m2))


def tv_distance(m1: AtomicMeasure, m2: AtomicMeasure) -> float:
    """Total variation of the atom-mass pattern: sum of |mass difference|
    over the merged atom set.  An upper bound for ``hs_distance``."""
    diffs: list[float] = []
    i = j = 0
    a1, w1 = m1.atoms, m1.masses
    a2, w2 = m2.atoms, m2.masses
    while i < len(a1) and j < len(a2):
        if abs(math.log(a1[i]) - math.log(a2[j])) <= MERGE_TOL:
            diffs.append(abs(w1[i] - w2[j]))
            i += 1
            j += 1
        elif a1[i] < a2[j]:
            diffs.append(w1[i])
            i += 1
        else:
            diffs.append(w2[j])
            j += 1
    diffs.extend(w1[i:])
    diffs.extend(w2[j:])
    return float(math.fsum(diffs))


def flow_deviation(psi_hat: AtomicMeasure, t: float) -> float:
    """Norm deviation of a spectral state from its flow translate.

    ``||psi_hat - psi_hat o theta_t||`` in the spectral-functional norm
    (``hs_distance``), so that the value at ``t = log(m/n)`` coincides with
    the unitary-orbit distance between the underlying state tensored with
    flat states of ranks ``n`` and ``m``.  Lies in ``[0, 2 * total mass]``,
    is symmetric in ``t <-> -t``, vanishes at ``t = 0``, and climbs to
    ``2 * total mass`` as ``|t|`` grows — for a finite spectrum the supremum
    2 is approached but never attained, which is the truncation's honest
    stand-in for the semifinite value.
    """
    if t == 0.0:
        return 0.0
    return hs_distance(psi_hat, flow_act(psi_hat, t))


def kappa_profile(s: Spectrum, t_grid: Sequence[float]) -> list[float]:
    """Flow deviation of the spectral state of ``s`` at each grid point.

    The *profile* is window data; the supremum over all t for any finite
    spectrum is exactly ``2 * total mass`` (approached as t grows beyond the
    atom spread), which this function reports pointwise rather than claiming
    a truncated sup.
    """
    hat = spectral_state(s)
    return [flow_deviation(hat, float(t)) for t in t_grid]


# --------------------------------------------------------------------------- #
#                             Entanglement monotones                           #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MonotoneFunctionSpec:
    """A convex non-decreasing ``f : R+ -> R+`` with ``f(0) = 0``.

    ``kind`` is one of ``power`` (``x**alpha``), ``xlogx`` (the entropy
    generator, negative on (0,1)), ``support`` (indicator of ``x > 0``) or
    ``tabulated`` (piecewise-linear through given points, extrapolated with
    the final slope).  Convexity of custom tables is the caller's business;
    evaluation is exact either way.
    """

    kind: str
    alpha: float = 0.0
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    @classmethod
    def power(cls, alpha: float) -> "MonotoneFunctionSpec":
        if alpha <= 0:
            raise InvalidInputError("power monotone needs alpha > 0")
        return cls("power", alpha=alpha)

    @classmethod
    def xlogx(cls) -> "MonotoneFunctionSpec":
        return cls("xlogx")

    @classmethod
    def support_indicator(cls) -> "MonotoneFunctionSpec":
        return cls("support")

    @classmethod
    def tabulated(cls, xs: Sequence[float], ys: Sequence[float]) -> "MonotoneFunctionSpec":
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise InvalidInputError("tabulated monotone needs >= 2 points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidInputError("tabulated x grid must be strictly increasing")
        return cls("tabulated", xs=xs, ys=ys)

    @classmethod
    def hinge(cls, c: float) -> "MonotoneFunctionSpec":
        """``f(x) = max(x - c, 0)`` as an exact piecewise-linear table."""
        if c < 0:
            raise InvalidInputError("hinge offset must be >= 0")
        if c == 0.0:
            return cls.tabulated((0.0, 1.0), (0.0, 1.0))
        return cls.tabulated((0.0, c, c + 1.0), (0.0, 0.0, 1.0))

    def __call__(self, x: float) -> float:
        if x < 0:
            raise InvalidInputError("monotone functions are defined on R+")
        if self.kind == "power":
            return float(x**self.alpha)
        if self.kind == "xlogx":
            return 0.0 if x == 0.0 else float(x * math.log(x))
        if self.kind == "support":
            return 1.0 if x > 0.0 else 0.0
        if self.kind == "tabulated":
            xs, ys = self.xs, self.ys
            if x >= xs[-1]:  # extrapolate with the last slope
                slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                return float(ys[-1] + slope * (x - xs[-1]))
            i = int(np.searchsorted(xs, x, side="right")) - 1
            i = max(i, 0)
            frac = (x - xs[i]) / (xs[i + 1] - xs[i])
            return float(ys[i] + frac * (ys[i + 1] - ys[i]))
        raise InvalidInputError(f"unknown monotone kind {self.kind!r}")


def monotone_Ef(scale: StepFunction, f: MonotoneFunctionSpec | Callable[[float], float]) -> float:
    """Entanglement monotone ``E_f = integral of f(scale(t)) dt``.

    Exact piecewise evaluation; requires ``f(0) == 0`` since the scale has
    a zero tail of infinite length.
    """
    if f(0.0) != 0.0:
        raise InvalidInputError("monotone integrand must satisfy f(0) = 0")
    pts = (0.0,) + scale.breakpoints
    terms = [
        (right - left) * f(level)
        for left, right, level in zip(pts, pts[1:], scale.levels[:-1])
    ]
    return float(math.fsum(terms))


@dataclass(frozen=True)
class EntropyReport:
    H: float
    H_alpha: dict[float, float] = field(default_factory=dict)
    schmidt_rank: int = 0


def entanglement_entropies(s: Spectrum, alphas: Sequence[float] = ()) -> EntropyReport:
    """Von Neumann and Renyi entropies of a state spectrum (natural log).

    ``H = -sum v log v``; ``H_alpha = log(sum v**alpha) / (1 - alpha)`` for
    ``alpha`` in (0,1) or (1,oo); the Schmidt rank is the number of nonzero
    entries.
    """
    if not s.is_state():
        raise InvalidInputError("entropies are defined for state spectra")
    vals = s.as_array()
    h = float(-math.fsum(v * math.log(v) for v in vals if v > 0))
    out: dict[float, float] = {}
    for alpha in alphas:
        if alpha <= 0 or alpha == 1.0:
            raise InvalidInputError("Renyi order must lie in (0,1) or (1,oo)")
        out[float(alpha)] = float(math.log(math.fsum(vals**alpha)) / (1.0 - alpha))
    return EntropyReport(H=h, H_alpha=out, schmidt_rank=s.rank)

"""Step-function and atomic-measure kernel.

Spectral scales, distribution functions, majorization, unitary-orbit
distance, spectral states, the scaling-flow action, smearing, and the
flow-deviation functional.  Everything in here is exact piecewise
arithmetic on floats: no quadrature, no sampling.

Conventions
-----------
* ``Spectrum``, ``StepFunction`` and ``AtomicMeasure`` hold their data as
  read-only float64 arrays.  Two instances are equal when their arrays are
  (``np.array_equal``), so the types compare by value and are not hashable.
* A spectrum is a finite array of positive reals sorted non-increasing,
  zeros stripped.  A *state* spectrum sums to 1 (within ``INPUT_TOL``).
* ``majorizes(a, b)`` uses the classical convention: partial sums of ``a``
  dominate those of ``b``, i.e. ``a`` is *less mixed* than ``b``.
* The spectral state of a spectrum puts an atom at each distinct
  eigenvalue ``v`` with mass ``v * multiplicity``; total mass is 1 for a
  state spectrum.  The scaling flow moves atom positions ``a -> a*e^t``
  and preserves masses.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .tolerances import INPUT_TOL, MERGE_TOL


class _ArrayFields:
    """Base of the frozen dataclasses below: every field is stored as a
    read-only float64 copy of what it was given, and equality compares the
    arrays by value (so instances are not hashable)."""

    def __post_init__(self):
        for f in fields(self):
            arr = np.array(getattr(self, f.name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


# --------------------------------------------------------------------------- #
#                                   Spectrum                                   #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class Spectrum(_ArrayFields):
    """Finite positive eigenvalue array, sorted non-increasing.

    ``values`` is a read-only float64 array with the zeros stripped, so
    ``len(values)`` is the rank.  Use :func:`spectrum` to construct one from
    arbitrary float data.
    """

    values: np.ndarray

    @property
    def total(self) -> float:
        return math.fsum(self.values.tolist())

    @property
    def rank(self) -> int:
        return len(self.values)

    def is_state(self) -> bool:
        return abs(self.total - 1.0) <= INPUT_TOL

    def padded(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[: self.rank] = self.values
        return out


def _refuse_non_finite(arr: np.ndarray, name: str) -> None:
    """Refuse NaN and infinities in ``arr``, naming the first by its index."""
    if not np.isfinite(arr).all():
        at = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        raise InvalidInputError(f"{name} entry {at[0] if len(at) == 1 else at} is "
                                f"{arr[at].item()!r}, not a finite number")


def _numeric_array(x, name: str, dtype=float) -> np.ndarray:
    """``x`` (an array or any iterable) as an array of ``dtype``, or an
    ``InvalidInputError`` naming ``name`` when it does not convert.  Text
    entries are refused rather than parsed, and complex entries where reals
    are asked for rather than cut to their real part."""
    try:
        arr = np.asarray(x if isinstance(x, np.ndarray) else list(x))
        if arr.dtype.kind not in ("US" if dtype is complex else "USc"):
            return arr.astype(dtype, copy=False)
        reason = f"entries of dtype {arr.dtype} are not {np.dtype(dtype)}"
    except (TypeError, ValueError, OverflowError) as exc:
        reason = str(exc)
    raise InvalidInputError(f"{name} must be an array of numbers: {reason}")


def _is_integer(value) -> bool:
    """True for an int or a NumPy integer, not for a bool or an array."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, least: int, refusal: str) -> int:
    """``value`` as an int if it is an integer (``_is_integer``) >= ``least``, else refused."""
    if not _is_integer(value) or value < least:
        raise InvalidInputError(refusal.format(value))
    return int(value)


def _allocatable(entries: int) -> int:
    """``entries`` as an array size; past complex128's address space, NumPy's ``MemoryError``."""
    if entries > sys.maxsize // 16:
        raise MemoryError(f"cannot allocate an array of {entries} entries")
    return entries


def spectrum(values: Iterable[float]) -> Spectrum:
    """Build a canonical :class:`Spectrum` (sort, strip zeros).

    Entries in ``[-INPUT_TOL, 0)`` are treated as roundoff and stripped with
    the zeros; anything more negative, and NaN or an infinity, is rejected.
    """
    arr = _numeric_array(values, "spectrum")
    if arr.ndim != 1:
        raise InvalidInputError("spectrum values must be a flat list")
    _refuse_non_finite(arr, "spectrum")
    if arr.size and arr.min() < -INPUT_TOL:
        raise InvalidInputError(
            f"negative spectrum entry {arr.min():.3e} below clip tolerance {-INPUT_TOL:g}"
        )
    arr = np.sort(arr)[::-1]
    return Spectrum(arr[arr > 0.0])


def state_spectrum(values: Iterable[float]) -> Spectrum:
    """Like :func:`spectrum` but insists the entries sum to 1."""
    s = spectrum(values)
    if not s.is_state():
        raise InvalidInputError(f"spectrum total {s.total!r} is not 1")
    return s


def tensor_spectrum(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of a tensor product: all pairwise eigenvalue products."""
    return spectrum(np.outer(a.values, b.values).ravel())


def flat_spectrum(n: int) -> Spectrum:
    """The flat (maximally mixed) spectrum (1/n, ..., 1/n)."""
    n = _integer(n, 1, "flat spectrum needs n >= 1")
    return Spectrum(np.full(_allocatable(n), 1.0 / n))


# --------------------------------------------------------------------------- #
#                                 StepFunction                                 #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class StepFunction(_ArrayFields):
    """Non-increasing right-continuous step function on [0, oo).

    ``breakpoints`` and ``levels`` are read-only float64 arrays.
    ``levels[i]`` is the value on ``[t_i, t_{i+1})`` with ``t_0 = 0`` and
    ``t_{k+1} = oo``; the final level is always 0, so the function has
    compact support and finite integral.  Canonical instances have strictly
    increasing breakpoints and strictly decreasing levels, which makes
    equality of the arrays the same thing as function equality.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if len(self.levels) != len(self.breakpoints) + 1:
            raise InvalidInputError("need exactly one more level than breakpoints")
        if self.levels[-1] != 0.0:
            raise InvalidInputError("a step function must vanish eventually")

    def integral(self) -> float:
        return math.fsum((np.diff(self.breakpoints, prepend=0.0) * self.levels[:-1]).tolist())


ZERO_STEP = StepFunction((), (0.0,))


def step_function(breakpoints: Sequence[float], levels: Sequence[float]) -> StepFunction:
    """Canonicalize raw breakpoint/level data into a :class:`StepFunction`.

    Adjacent equal levels are merged and zero-width segments dropped, so the
    result has strictly increasing breakpoints and strictly decreasing
    levels ending in 0.  NaN and infinities are refused.
    """
    bps = _numeric_array(breakpoints, "breakpoints")
    lvs = _numeric_array(levels, "levels")
    if bps.ndim != 1 or lvs.ndim != 1 or lvs.size != bps.size + 1:
        raise InvalidInputError("need exactly one more level than breakpoints")
    _refuse_non_finite(bps, "breakpoints")
    _refuse_non_finite(lvs, "levels")
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
    return StepFunction(bps[jumps], np.append(lvs[0], lvs[1:][jumps]))


def spectral_scale(s: Spectrum) -> StepFunction:
    """The spectral scale: value ``values[n]`` on ``[n, n+1)``.

    Eigenvalues are repeated according to multiplicity, so the support
    measure equals the rank.
    """
    return step_function(np.arange(1.0, s.rank + 1), np.append(s.values, 0.0))


def distribution_function(s: Spectrum) -> StepFunction:
    """``D(t) = #{n : values[n] > t}``, the generalized inverse of the scale."""
    return generalized_inverse(spectral_scale(s))


def generalized_inverse(f: StepFunction) -> StepFunction:
    """Generalized inverse ``g(t) = inf{s > 0 : f(s) <= t}``.

    For canonical step functions this swaps the roles of breakpoints and
    levels; applying it twice gives back the original function exactly.
    """
    return StepFunction(f.levels[:-1][::-1], np.append(f.breakpoints[::-1], 0.0))


def l1_distance(f: StepFunction, g: StepFunction) -> float:
    """Exact integral of |f - g| over the merged breakpoint grid.

    Each segment ``[left, right)`` of the merged grid contributes
    ``(right - left) * |f(left) - g(left)|``; both level lookups are one
    ``searchsorted`` over the whole grid, and ``math.fsum`` adds the terms
    with a single rounding.
    """
    pts = np.concatenate(([0.0], np.union1d(f.breakpoints, g.breakpoints)))
    left = pts[:-1]
    fv = f.levels[np.searchsorted(f.breakpoints, left, side="right")]
    gv = g.levels[np.searchsorted(g.breakpoints, left, side="right")]
    return math.fsum((np.diff(pts) * np.abs(fv - gv)).tolist())


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

@dataclass(frozen=True, eq=False)
class AtomicMeasure(_ArrayFields):
    """Finite positive measure on (0, oo): atoms + masses, atoms ascending.

    ``atoms`` and ``masses`` are read-only float64 arrays.  Construct through
    :func:`atomic_measure`, which merges positions that coincide up to
    ``MERGE_TOL`` in the log domain, chaining runs of such neighbours into
    one atom.
    """

    atoms: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    def isclose(self, other: "AtomicMeasure", tol: float = MERGE_TOL) -> bool:
        """Atom-for-atom comparison: positions within relative ``tol`` (never
        finer than ``MERGE_TOL``), masses within ``tol`` (absolute and
        relative)."""
        if len(self.atoms) != len(other.atoms):
            return False
        if not np.allclose(np.log(self.atoms), np.log(other.atoms), rtol=0.0,
                           atol=max(tol, MERGE_TOL)):
            return False
        return bool(np.allclose(self.masses, other.masses, rtol=tol, atol=tol))


def _merge_runs(pos: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge atoms that are the same real under ``MERGE_TOL``.

    Sorted by position (stable), a new run starts wherever the log gap to
    the previous atom exceeds ``MERGE_TOL``, so runs chain: atoms at log
    offsets 0, 0.7e-12 and 1.4e-12 form one run.  Returns each run's first
    position and its total mass.
    """
    order = np.argsort(pos, kind="stable")
    pos, mass = pos[order], mass[order]
    starts = np.flatnonzero(np.diff(np.log(pos), prepend=-np.inf) > MERGE_TOL)
    return pos[starts], np.add.reduceat(mass, starts)


def atomic_measure(atoms: Iterable[float], masses: Iterable[float]) -> AtomicMeasure:
    """Build an :class:`AtomicMeasure`, merging near-coincident atoms.

    Positions are compared in the log domain with absolute tolerance
    ``MERGE_TOL`` (= relative tolerance on the positions themselves), so
    the flow action cannot split atoms that started out equal.  Merging
    chains: sorted atoms whose consecutive log gaps are each within
    ``MERGE_TOL`` become one atom at the smallest position, with their
    summed mass, even when the run spans more than ``MERGE_TOL``.  NaN and
    infinite atoms or masses are refused.
    """
    pos = _numeric_array(atoms, "atoms")
    mass = _numeric_array(masses, "masses")
    if pos.shape != mass.shape or pos.ndim != 1:
        raise InvalidInputError("atoms and masses must be flat lists of equal length")
    _refuse_non_finite(pos, "atoms")
    _refuse_non_finite(mass, "masses")
    if pos.size and pos.min() <= 0.0:
        raise InvalidInputError("atoms must be strictly positive")
    if mass.size and mass.min() <= 0.0:
        raise InvalidInputError("masses must be strictly positive")
    return AtomicMeasure(*_merge_runs(pos, mass))


def spectral_state(s: Spectrum) -> AtomicMeasure:
    """Atomic avatar of the spectral state of a state spectrum.

    An atom sits at each distinct eigenvalue ``v`` with mass
    ``v * multiplicity``; the total mass is the state's normalization, 1.
    """
    if not s.is_state():
        raise InvalidInputError("spectral_state needs a state spectrum (total 1)")
    distinct, counts = np.unique(s.values, return_counts=True)
    return atomic_measure(distinct, distinct * counts)


def flow_act(m: AtomicMeasure, t: float) -> AtomicMeasure:
    """Scaling-flow action: every atom ``a`` moves to ``a * e^t``, masses fixed.

    Refused when ``e^t`` overflows or a moved atom leaves float64 (becomes 0
    or inf).
    """
    (t,) = _flow_times(t, single=True, finite=False).tolist()
    if t == 0.0 or not m.atoms.size:
        return m
    try:
        scale = math.exp(t)
    except OverflowError:
        scale = math.inf
    # atoms ascend, so only the two ends can leave (0, inf)
    lo, hi = float(m.atoms[0]), float(m.atoms[-1])
    if not (lo * scale > 0.0 and hi * scale < math.inf):
        raise InvalidInputError(
            f"flow time t={t!r} moves atoms in [{lo!r}, {hi!r}] out of float64 range"
        )
    return AtomicMeasure(m.atoms * scale, m.masses)


def smear(psi_hat: AtomicMeasure, omega: Spectrum) -> AtomicMeasure:
    """Smear a spectral state by a second spectrum.

    Returns ``sum_i w_i * flow_act(psi_hat, log w_i)`` over the nonzero
    entries ``w_i`` of ``omega``: the atoms ``outer(omega, psi_hat.atoms)``
    and masses ``outer(omega, psi_hat.masses)``, merged by
    :func:`atomic_measure` — exactly the spectral state of the tensor product
    spectrum.  Refused when an atom or mass product underflows to 0.
    """
    if not omega.is_state():
        raise InvalidInputError("smearing weight must be a state spectrum")
    w = float(omega.values[-1])
    for what, x in (("atoms", psi_hat.atoms), ("masses", psi_hat.masses)):
        if x.size and w * float(x.min()) == 0.0:
            raise InvalidInputError(f"smearing weight w={w!r} moves {what} in [{float(x.min())!r}, "
                                    f"{float(x.max())!r}] out of float64 range")
    return atomic_measure(np.outer(omega.values, psi_hat.atoms).ravel(),
                          np.outer(omega.values, psi_hat.masses).ravel())


def measure_distribution(m: AtomicMeasure) -> StepFunction:
    """Distribution density of the spectral functional behind an atomic avatar.

    The avatar of a spectrum puts mass ``v * multiplicity`` at each distinct
    eigenvalue ``v``; the functional it encodes has a step-function density
    ``D(t) = sum_{atoms a > t} mass_a / a`` with respect to Lebesgue measure.
    For the avatar of a spectrum this recovers the eigenvalue counting
    function exactly (mass/position = multiplicity).  Refused when the
    density overflows float64 (atoms too small for their masses).
    """
    if not m.atoms.size:
        return ZERO_STEP
    with np.errstate(over="ignore"):
        suffix = np.cumsum((m.masses / m.atoms)[::-1])[::-1]
    if suffix[0] == math.inf:
        raise InvalidInputError(f"distribution density of atoms in [{float(m.atoms[0])!r}, "
                                f"{float(m.atoms[-1])!r}] overflows float64")
    return step_function(m.atoms, np.append(suffix, 0.0))


def _flow_times(times, single: bool = False, finite: bool = True) -> np.ndarray:
    """``times``, a flat list of flow times or (``single``) one real number, as a flat float
    array; anything else is refused, and so is the first NaN or infinity when ``finite``."""
    if single and not isinstance(times, numbers.Real):
        raise InvalidInputError(f"a flow time must be one real number, got {times!r}")
    t = _numeric_array([times] if single else times, "flow times")
    if t.ndim != 1:
        raise InvalidInputError(f"flow times must be a flat list of numbers, got shape {t.shape}")
    if finite and not np.isfinite(t).all():
        raise InvalidInputError(f"flow time t={float(t[~np.isfinite(t)][0])!r} is not finite")
    return t


_BLOCK_ENTRIES = 1 << 15  # merged entries per block of shifts: O(atoms) memory at any grid length


def _density_l1(u1, w1, u2, w2, shifts: Iterable[float]) -> list[float]:
    """L1 distances between the distribution densities of two atom sets, one
    per shift; the shifts are flow times, so NaN and infinities are refused.

    Each set is given by ascending log-positions ``u`` (arrays) and positive
    masses ``w``; for each shift the second set sits at ``u2 + shift``.  Over
    the merged log-atoms ``u_0 <= ... <= u_n`` with signed masses ``d_j``
    (positive for the first set), the segment below ``e^{u_k}`` contributes
    ``(1 - e^{u_{k-1} - u_k}) |T_k|`` with ``T_k = sum_{j >= k} d_j e^{u_k - u_j}``.
    The two signed parts of ``T_k`` are suffix log-sum-exps, each at most its
    set's total mass, so no position or density leaves float64.  Each part,
    and each gap inside the second set, is read in its own set's frame
    (``u1``, or ``u2`` without the shift), so a large ``shift`` rounds only
    what crosses between the sets.  A log-position of magnitude X is good to
    about X ulp, so mass sitting e^X away from 1 costs about X ulp relative;
    callers centre positions on the heavy atoms where they can.  Each sum is
    capped at the two total masses, the integrals of the two densities, which
    bound it.

    The grid is one pass: per-set work is done once (once in all for a flow,
    where both sets are the same arrays), and each block of shifts is one
    array of rows, each row getting a single shift's float operations.
    """
    def per_set(u, w):  # suffix log-sum-exps, -inf past the end; total, largest first for fsum
        return (np.append(np.logaddexp.accumulate((np.log(w) - u)[::-1])[::-1], -np.inf),
                math.fsum(np.sort(w)[::-1].tolist()))

    def part(suf, pos, mine):  # one set's part of T_k at every merged atom k
        return np.exp(pos + suf[mine.cumsum(axis=1) - mine])

    suffix1, total1 = per_set(u1, w1)
    suffix2, total2 = (suffix1, total1) if u1 is u2 and w1 is w2 else per_set(u2, w2)
    shifts = _flow_times(shifts).reshape(-1, 1)
    rows = max(1, _BLOCK_ENTRIES // max(1, len(u1) + len(u2)))
    out: list[float] = []
    for shift in (shifts[i:i + rows] for i in range(0, len(shifts), rows)):
        frame1 = np.concatenate((u1[None].repeat(len(shift), 0), u2 + shift), axis=1)
        order = frame1.argsort(axis=1, kind="stable")
        in2 = order >= len(u1)
        merged = (np.arange(len(shift))[:, None], order)
        # every merged log-atom, read in the first set's frame and in the second's
        frame1 = frame1[merged]
        frame2 = np.concatenate((u1 - shift, u2[None].repeat(len(shift), 0)), axis=1)[merged]
        gaps = np.where(in2[:, 1:] & in2[:, :-1],
                        frame2[:, 1:] - frame2[:, :-1], frame1[:, 1:] - frame1[:, :-1])
        widths = -np.expm1(-np.concatenate((np.full((len(shift), 1), np.inf), gaps), axis=1))
        terms = widths * np.abs(part(suffix1, frame1, ~in2) - part(suffix2, frame2, in2))
        out.extend(min(math.fsum(row.tolist()), total1 + total2)
                   for row in np.sort(terms, axis=1)[:, ::-1])
    return out


def hs_distance(m1: AtomicMeasure, m2: AtomicMeasure) -> float:
    """Norm distance between the spectral functionals of two atomic avatars.

    The exact L1 distance of their distribution densities
    ``D(s) = sum_{atoms a > s} mass_a / a``, computed on log-positions by
    ``_density_l1`` without forming a density.  This is the norm under which
    the distance between the spectral functionals of two density spectra
    equals the unitary-orbit distance of the densities themselves.  It is
    dominated by ``tv_distance`` of the avatars (each atom contributes
    ``|mass difference| / position * position``).
    """
    return _density_l1(np.log(m1.atoms), m1.masses, np.log(m2.atoms), m2.masses, [0.0])[0]


def tv_distance(m1: AtomicMeasure, m2: AtomicMeasure) -> float:
    """Total variation of the atom-mass pattern: the total mass of
    ``m1 - m2`` after merging the union of both atom sets under the
    ``MERGE_TOL`` rule of :func:`atomic_measure` (runs chain across both
    measures).  An upper bound for ``hs_distance``."""
    _, diffs = _merge_runs(
        np.concatenate((m1.atoms, m2.atoms)), np.concatenate((m1.masses, np.negative(m2.masses)))
    )
    return math.fsum(np.abs(diffs).tolist())


def flow_deviation(psi_hat: AtomicMeasure, t: float) -> float:
    """Norm deviation of a spectral state from its flow translate.

    ``||psi_hat - psi_hat o theta_t||`` in the spectral-functional norm
    (``hs_distance``), so that the value at ``t = log(m/n)`` coincides with
    the unitary-orbit distance between the underlying state tensored with
    flat states of ranks ``n`` and ``m``.  On log-positions the flow is the
    shift ``u -> u + t``, so no atom is moved in float64 and every finite
    ``t`` is accepted; NaN and infinite ``t`` are refused.  Lies in
    ``[0, 2 * total mass]``, is symmetric in ``t <-> -t``, vanishes at
    ``t = 0``, and climbs to ``2 * total mass`` as ``|t|`` grows — for a
    finite spectrum the supremum 2 is approached but never attained in exact
    arithmetic, which is the truncation's honest stand-in for the semifinite
    value.  A profile over many times is one grid pass in :func:`kappa_profile`.
    """
    u = np.log(psi_hat.atoms)
    return _density_l1(u, psi_hat.masses, u, psi_hat.masses, _flow_times(t, single=True))[0]


def kappa_profile(s: Spectrum, t_grid: Sequence[float]) -> list[float]:
    """Flow deviation of the spectral state of ``s`` at each grid point.

    The *profile* is window data; the supremum over all t for any finite
    spectrum is exactly ``2 * total mass`` (approached as t grows beyond the
    atom spread), which this function reports pointwise rather than claiming
    a truncated sup.  Times are checked as in :func:`flow_deviation`, whose
    values the one ``_density_l1`` pass over the grid gives bit for bit.
    """
    hat = spectral_state(s)
    u = np.log(hat.atoms)
    return _density_l1(u, hat.masses, u, hat.masses, t_grid)


# --------------------------------------------------------------------------- #
#                             Entanglement monotones                           #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class EntropyReport:
    H: float
    H_alpha: dict[float, float] = field(default_factory=dict)
    schmidt_rank: int = 0


def entanglement_entropies(s: Spectrum, alphas: Sequence[float] = ()) -> EntropyReport:
    """Von Neumann and Renyi entropies of a state spectrum (natural log).

    ``H = -sum v log v``; ``H_alpha = log(sum v**alpha) / (1 - alpha)`` for
    finite ``alpha`` in (0,1) or (1,oo); the Schmidt rank is the number of
    nonzero entries.  Where ``sum v**alpha`` falls below the normal float64
    range (large ``alpha``), the largest entry ``v0`` is factored out:
    ``H_alpha = alpha/(1 - alpha) log v0 + log(sum (v/v0)**alpha) / (1 - alpha)``.
    """
    if not s.is_state():
        raise InvalidInputError("entropies are defined for state spectra")
    vals = s.values
    # "+ 0.0" (here and for H_alpha) turns a rank-1 spectrum's -0.0 into 0.0
    # and leaves every other value's bits as they are
    h = -math.fsum(v * math.log(v) for v in vals.tolist() if v > 0) + 0.0
    out: dict[float, float] = {}
    orders = _numeric_array(alphas, "Renyi orders")
    if orders.ndim != 1:
        raise InvalidInputError("Renyi orders must be a flat list")
    for alpha in orders.tolist():
        if not (math.isfinite(alpha) and alpha > 0 and alpha != 1.0):
            raise InvalidInputError("Renyi order must lie in (0,1) or (1,oo)")
        total = math.fsum((vals**alpha).tolist())
        if total >= sys.float_info.min:
            out[alpha] = math.log(total) / (1.0 - alpha) + 0.0
        else:
            rest = math.fsum(((vals / vals[0]) ** alpha).tolist())
            out[alpha] = alpha / (1.0 - alpha) * math.log(vals[0]) + math.log(rest) / (1.0 - alpha)
    return EntropyReport(H=h, H_alpha=out, schmidt_rank=s.rank)

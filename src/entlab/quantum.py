"""Finite-dimensional state objects and distance/fidelity machinery.

Pure bipartite vectors use an A-major amplitude layout: the amplitude of
``|x>_A |y>_B`` sits at flat index ``x * d_B + y``, so reshaping to a
``(d_A, d_B)`` array is row-major and local operators act as
``a @ M @ b.T`` on the reshaped matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInputError, NoConnectorError
from .spectra import Spectrum, _refuse_non_finite, orbit_distance, spectrum
from .tolerances import BRANCH_TOL, CLUSTER_GAP, INPUT_TOL, SUPPORT_CUT


# --------------------------------------------------------------------------- #
#                                    types                                     #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    dim: int
    entries: np.ndarray

    def spectrum(self) -> Spectrum:
        return spectrum(np.linalg.eigvalsh(self.entries))


def density(entries: np.ndarray | Iterable[Iterable[complex]]) -> DensityMatrix:
    """Validate and canonicalize a density matrix.

    Hermiticity within ``INPUT_TOL`` is symmetrized away; eigenvalues in
    ``[-INPUT_TOL, 0)`` are clipped to zero and the matrix renormalized;
    anything worse is rejected.
    """
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError("density matrix must be square")
    _refuse_non_finite(arr, "density")
    if np.abs(arr - arr.conj().T).max() > INPUT_TOL:
        raise InvalidInputError(f"density matrix is not Hermitian within {INPUT_TOL:g}")
    arr = (arr + arr.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(arr)
    if vals.min() < -INPUT_TOL:
        raise InvalidInputError(f"density matrix has eigenvalue {vals.min():.3e} < {-INPUT_TOL:g}")
    vals = np.clip(vals, 0.0, None)
    tr = vals.sum()
    if abs(tr - 1.0) > INPUT_TOL:
        raise InvalidInputError(f"density matrix trace {float(tr)!r} is not 1 within {INPUT_TOL:g}")
    arr = (vecs * vals) @ vecs.conj().T / tr
    arr.flags.writeable = False
    return DensityMatrix(arr.shape[0], arr)


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Unit vector on C^{d_A} (x) C^{d_B}, amplitudes A-major."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def pure_state(dims: tuple[int, int], amplitudes: Iterable[complex]) -> PureBipartiteState:
    dA, dB = int(dims[0]), int(dims[1])
    arr = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes,
                     dtype=complex).ravel()
    if dA < 1 or dB < 1 or arr.size != dA * dB:
        raise InvalidInputError(f"amplitude length {arr.size} != {dA}*{dB}")
    _refuse_non_finite(arr, "amplitudes")
    n = np.linalg.norm(arr)
    if n == 0.0:
        raise InvalidInputError("zero vector is not a state")
    if abs(n - 1.0) > INPUT_TOL:
        raise InvalidInputError(f"state norm {float(n)!r} is not 1 within {INPUT_TOL:g}")
    arr = arr / n
    arr.flags.writeable = False
    return PureBipartiteState((dA, dB), arr)


def product_basis_state(dA: int, dB: int, i: int = 0, j: int = 0) -> PureBipartiteState:
    """The computational product state |i>_A |j>_B."""
    if not (0 <= i < dA and 0 <= j < dB):
        raise InvalidInputError(f"basis indices (i, j) = ({i}, {j}) outside dims ({dA}, {dB})")
    v = np.zeros(dA * dB, dtype=complex)
    v[i * dB + j] = 1.0
    return pure_state((dA, dB), v)


def bell_state(d: int = 2) -> PureBipartiteState:
    """Maximally entangled rank-d state on (C^d, C^d)."""
    m = np.eye(d, dtype=complex) / math.sqrt(d)
    return pure_state((d, d), m.ravel())


def state_from_schmidt(coeffs: Iterable[float], dims: Optional[tuple[int, int]] = None) -> PureBipartiteState:
    """Diagonal state with the given Schmidt coefficients."""
    c = np.asarray(list(coeffs), dtype=float)
    if dims is None:
        dims = (c.size, c.size)
    if c.size > min(dims):
        raise InvalidInputError(f"{c.size} Schmidt coefficients do not fit dims {tuple(dims)}")
    m = np.zeros(dims, dtype=complex)
    m[np.diag_indices(c.size)] = c
    return pure_state(dims, m.ravel())


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """``psi = sum_i s_i |a_i> (x) |b_i>`` with orthonormal column families.

    ``coefficients`` is the full descending singular-value list (length
    ``min(dims)``, zeros and rounding included).  ``rank`` counts the
    support, the coefficients that ``_in_support`` keeps, and ``spectrum``
    holds their weights s^2 only.
    """

    coefficients: np.ndarray
    basis_A: np.ndarray
    basis_B: np.ndarray

    @property
    def spectrum(self) -> Spectrum:
        return spectrum(self.coefficients[: self.rank] ** 2)

    @property
    def rank(self) -> int:
        return int(_in_support(self.coefficients).sum())


@dataclass(frozen=True, eq=False)
class LocalIsometryPair:
    """Local operators for the two parties; either side may be absent."""

    op_A: Optional[np.ndarray]
    op_B: Optional[np.ndarray]


# --------------------------------------------------------------------------- #
#                           Schmidt data and marginals                         #
# --------------------------------------------------------------------------- #

def _in_support(vals: np.ndarray) -> np.ndarray:
    """Mask of the descending eigenvalues (or singular values) inside the
    support: above ``SUPPORT_CUT`` times the largest (along the last axis)."""
    return vals > SUPPORT_CUT * vals[..., :1]


def schmidt(psi: PureBipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the (d_A, d_B) reshaping.

    Reconstruction: ``basis_A @ diag(s) @ basis_B.T`` equals ``psi.matrix``
    (note the plain transpose: basis_B columns are the B-side Schmidt
    vectors themselves).
    """
    u, s, vh = np.linalg.svd(psi.matrix, full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T)


def marginal(psi: PureBipartiteState, party: str) -> DensityMatrix:
    """Reduced density matrix of one party ("A" or "B")."""
    m = psi.matrix
    if party == "A":
        rho = m @ m.conj().T
    elif party == "B":
        rho = m.T @ m.conj()
    else:
        raise InvalidInputError(f"party must be 'A' or 'B', got {party!r}")
    rho = (rho + rho.conj().T) / 2.0
    rho.flags.writeable = False
    return DensityMatrix(rho.shape[0], rho)


# --------------------------------------------------------------------------- #
#                            distances and fidelity                            #
# --------------------------------------------------------------------------- #

def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise InvalidInputError(f"dimension mismatch {rho.dim} vs {sigma.dim}")


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``||rho - sigma||_1`` (unhalved), in [0, 2]."""
    _check_dims(rho, sigma)
    return float(np.abs(np.linalg.eigvalsh(rho.entries - sigma.entries)).sum())


def _psd_sqrt(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho.entries)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``||rho^{1/2} sigma^{1/2}||_1^2``, in [0, 1]."""
    _check_dims(rho, sigma)
    root = float(np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False).sum())
    return min(root * root, 1.0)


# --------------------------------------------------------------------------- #
#                       deterministic sorted eigenbases                        #
# --------------------------------------------------------------------------- #

def _phase_fix(col: np.ndarray) -> np.ndarray:
    """Rotate a unit column so its largest entry is real positive (that
    entry has modulus at least 1/sqrt(len(col)), never 0)."""
    pivot = col[int(np.argmax(np.abs(col)))]
    return col * (abs(pivot) / pivot)


def sorted_eigh(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition sorted descending with deterministic degenerate
    clusters.

    Within a cluster (eigenvalue gaps < ``CLUSTER_GAP``, chained) the
    subspace projector — which is basis-independent — is re-orthonormalized
    by QR, columns are phase-fixed, then ordered lexicographically on
    rounded components.  Two
    calls on the same matrix, or on matrices with the same degenerate
    subspaces, produce identical bases.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    d = vals.size
    start = 0
    out = vecs.copy()
    while start < d:
        stop = start + 1
        while stop < d and vals[stop - 1] - vals[stop] < CLUSTER_GAP:
            stop += 1
        if stop - start > 1:
            proj = vecs[:, start:stop] @ vecs[:, start:stop].conj().T
            _, pvecs = np.linalg.eigh(proj)
            block = pvecs[:, -(stop - start):]
            cols = [_phase_fix(block[:, k]) for k in range(block.shape[1])]
            keys = [
                (
                    int(np.argmax(np.abs(c))),
                    np.round(np.concatenate([c.real, c.imag]), 8).tobytes(),
                )
                for c in cols
            ]
            order = sorted(range(len(cols)), key=lambda k: keys[k])
            for j, k in enumerate(order):
                out[:, start + j] = cols[k]
        else:
            out[:, start] = _phase_fix(out[:, start])
        start = stop
    return vals, out


def _padded_eigendata(rho: DensityMatrix, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues (clipped at 0) and eigenbasis, zero-padded to
    m.  Plain eigh, not sorted_eigh: re-basing a cluster of close but
    distinct eigenvalues pairs vectors with the wrong eigenvalues."""
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(-vals, kind="stable")
    vals = np.clip(vals[order], 0.0, None)
    return np.pad(vals, (0, m - rho.dim)), np.pad(vecs[:, order], ((0, 0), (0, m - rho.dim)))


def align_unitary(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """Unitary u with ``||rho - u sigma u*||_1`` equal to the unitary-orbit
    distance of the spectra (sorted eigenbasis matching)."""
    _check_dims(rho, sigma)
    _, v = _padded_eigendata(rho, rho.dim)
    _, w = _padded_eigendata(sigma, sigma.dim)
    return v @ w.conj().T


def orbit_distance_matrices(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Spectral formula for ``inf_u ||rho - u sigma u*||_1``."""
    return orbit_distance(rho.spectrum(), sigma.spectrum())


# --------------------------------------------------------------------------- #
#                              local-unitary orbit                             #
# --------------------------------------------------------------------------- #

def _sorted_overlap(s: np.ndarray, t: np.ndarray) -> float:
    """Squared inner product of two descending coefficient lists, zero-padded
    to a common length and clipped at 1; exactly 1.0 for equal lists, so the
    dot product's last-ulp rounding cannot leak into ``1 - F``."""
    size = max(s.size, t.size)
    s, t = (np.pad(x, (0, size - x.size)) for x in (s, t))
    return 1.0 if np.array_equal(s, t) else min(float(s @ t) ** 2, 1.0)


def lu_orbit_fidelity(psi: PureBipartiteState, phi: PureBipartiteState) -> float:
    """``sup_{u,v} |<psi|(u (x) v)|phi>|^2``: squared inner product of the
    sorted, zero-padded Schmidt coefficient lists."""
    return _sorted_overlap(schmidt(psi).coefficients, schmidt(phi).coefficients)


def complete_isometry(cols: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full unitary on C^dim."""
    k = cols.shape[1]
    if k == dim:
        return cols
    basis = np.concatenate([cols, np.eye(dim, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(basis)
    out = np.concatenate([cols, q[:, k:dim]], axis=1)
    # Gram-Schmidt the tail against the head once more for safety.
    tail = out[:, k:] - cols @ (cols.conj().T @ out[:, k:])
    q2, _ = np.linalg.qr(tail)
    return np.concatenate([cols, q2[:, : dim - k]], axis=1)


def lu_align_unitaries(psi: PureBipartiteState, phi: PureBipartiteState) -> LocalIsometryPair:
    """Local unitaries (u, v) achieving lu_orbit_fidelity for equal dims:
    map phi's sorted Schmidt frame onto psi's."""
    if psi.dims != phi.dims:
        raise InvalidInputError("witness unitaries need equal dims on both sides")
    dA, dB = psi.dims
    dp, df = schmidt(psi), schmidt(phi)
    u = complete_isometry(dp.basis_A, dA) @ complete_isometry(df.basis_A, dA).conj().T
    v = complete_isometry(dp.basis_B, dB) @ complete_isometry(df.basis_B, dB).conj().T
    return LocalIsometryPair(u, v)


def apply_local(psi: PureBipartiteState, a: Optional[np.ndarray], b: Optional[np.ndarray]) -> np.ndarray:
    """(a (x) b) psi as a raw (possibly unnormalized) amplitude vector."""
    m = psi.matrix
    if a is not None:
        m = a @ m
    if b is not None:
        m = m @ b.T
    return m.ravel()


# --------------------------------------------------------------------------- #
#                         purifications and Uhlmann                            #
# --------------------------------------------------------------------------- #

def purify(rho: DensityMatrix) -> PureBipartiteState:
    """Canonical purification with matrix rho^{1/2} (A-major layout)."""
    return pure_state((rho.dim, rho.dim), _psd_sqrt(rho).ravel())


def uhlmann_optimizer(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, np.ndarray]:
    """Fidelity together with the B-side unitary aligning the canonical
    purifications: ``<Psi_rho|(1 (x) u)|Psi_sigma> = sum of singular values
    of rho^{1/2} sigma^{1/2}``."""
    _check_dims(rho, sigma)
    c = _psd_sqrt(rho) @ _psd_sqrt(sigma)
    uu, sv, vh = np.linalg.svd(c)
    u = (vh.conj().T @ uu.conj().T).T
    return min(float(sv.sum()) ** 2, 1.0), u


def connect_purifications(phi1: PureBipartiteState, phi2: PureBipartiteState) -> LocalIsometryPair:
    """B-side partial isometry v with ``(1 (x) v) phi2 = phi1``.

    Exists iff the A-marginals coincide (Uhlmann).  With the Schmidt
    decompositions phi_k = E_k diag(s_k) F_k^T cut to their supports
    (the Schmidt rank), ``v = F_1 polar(E_1^T conj(E_2)) F_2^dagger``:
    the two A-bases differ by a unitary inside each degenerate eigenspace,
    and the polar factor of their overlap is that unitary.
    """
    if phi1.dims[0] != phi2.dims[0]:
        raise NoConnectorError("A-side dimensions differ")
    dist = trace_distance(marginal(phi1, "A"), marginal(phi2, "A"))
    if dist > BRANCH_TOL:
        # "1e-8", not the "1e-08" that format spec "g" gives
        tol = np.format_float_scientific(BRANCH_TOL, trim="-", exp_digits=1)
        raise NoConnectorError(
            f"A-marginals differ beyond {tol}: trace distance {dist:.3e} (d_A = {phi1.dims[0]})"
        )
    d1, d2 = schmidt(phi1), schmidt(phi2)
    r1, r2 = d1.rank, d2.rank
    # polar factor of E_1^T conj(E_2), the nearest partial isometry
    uw, _, vwh = np.linalg.svd(d1.basis_A[:, :r1].T @ d2.basis_A[:, :r2].conj(),
                               full_matrices=False)
    v = d1.basis_B[:, :r1] @ uw @ vwh @ d2.basis_B[:, :r2].conj().T
    v.flags.writeable = False
    return LocalIsometryPair(None, v)


# --------------------------------------------------------------------------- #
#                                  utilities                                   #
# --------------------------------------------------------------------------- #

def coupling_constant(d_A: int, d_B: int) -> float:
    """Relative size of the two sides; 1 means a standard bipartite system."""
    if d_A < 1 or d_B < 1:
        raise InvalidInputError("dimensions must be positive")
    return d_A / d_B


def haar_unitary(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (Gaussian QR with phase correction)."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    return haar_unitaries(d, 1, seed)[0]


def haar_unitaries(d: int, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """Batch of Haar unitaries, shape (count, d, d)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.einsum("nii->ni", r).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def random_density(d: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Wishart-distributed random density matrix."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return density(rho)


def random_pure_state(dims: tuple[int, int], seed: int | np.random.Generator) -> PureBipartiteState:
    """Haar-random bipartite pure state."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal(dims[0] * dims[1]) + 1j * rng.standard_normal(dims[0] * dims[1])
    return pure_state(dims, v / np.linalg.norm(v))

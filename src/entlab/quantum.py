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
from .spectra import Spectrum, _allocatable, _integer, _is_integer, _numeric_array, _refuse_non_finite, spectrum
from .tolerances import BRANCH_TOL, INPUT_TOL, SUPPORT_CUT


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
    arr = _numeric_array(entries, "density", complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError("density matrix must be square")
    if not arr.size:
        raise InvalidInputError("density matrix must be at least 1 x 1")
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


def _dims(dims: tuple[int, int]) -> tuple[int, int]:
    """The two local dimensions: exactly a pair, each an integer >= 1 (NumPy too, not bool)."""
    try:
        dA, dB = dims
    except (TypeError, ValueError):
        raise InvalidInputError(f"dims must be a pair of integers >= 1, got {dims!r}") from None
    return tuple(_integer(d, 1, "dims must be integers >= 1, got {!r}") for d in (dA, dB))


def pure_state(dims: tuple[int, int], amplitudes: Iterable[complex]) -> PureBipartiteState:
    dA, dB = _dims(dims)
    arr = _numeric_array(amplitudes, "amplitudes", complex).ravel()
    if arr.size != dA * dB:
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
    dA, dB = _dims((dA, dB))
    if not (_is_integer(i) and _is_integer(j) and 0 <= i < dA and 0 <= j < dB):
        raise InvalidInputError(f"basis indices (i, j) = ({i}, {j}) outside dims ({dA}, {dB})")
    v = np.zeros(_allocatable(dA * dB), dtype=complex)
    v[i * dB + j] = 1.0
    return pure_state((dA, dB), v)


def bell_state(d: int = 2) -> PureBipartiteState:
    """Maximally entangled rank-d state on (C^d, C^d)."""
    d = _integer(d, 1, "dimension must be an integer >= 1, got {!r}")
    _allocatable(d * d)
    m = np.eye(d, dtype=complex) / math.sqrt(d)
    return pure_state((d, d), m.ravel())


def state_from_schmidt(coeffs: Iterable[float], dims: Optional[tuple[int, int]] = None) -> PureBipartiteState:
    """Diagonal state with the given Schmidt coefficients."""
    c = _numeric_array(coeffs, "Schmidt coefficients")
    dims = (c.size, c.size) if dims is None else _dims(dims)
    if c.size > min(dims):
        raise InvalidInputError(f"{c.size} Schmidt coefficients do not fit dims {tuple(dims)}")
    _allocatable(dims[0] * dims[1])
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
#                             descending eigendata                             #
# --------------------------------------------------------------------------- #

def sorted_eigh(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order, clipped at 0, and the eigenbasis
    columns in the same order: one ``eigh`` and a stable sort, so ties keep
    ``eigh``'s order and each column carries its own eigenvalue."""
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(-vals, kind="stable")
    return np.clip(vals[order], 0.0, None), vecs[:, order]


def align_unitary(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """Unitary u with ``||rho - u sigma u*||_1`` equal to the unitary-orbit
    distance of the spectra (sorted eigenbasis matching)."""
    _check_dims(rho, sigma)
    return sorted_eigh(rho)[1] @ sorted_eigh(sigma)[1].conj().T


# --------------------------------------------------------------------------- #
#                              local-unitary orbit                             #
# --------------------------------------------------------------------------- #

# Entries per BLAS dot of the overlap rule.  Every dot has exactly this
# length, so a list built in full, streamed in chunks of whole blocks or
# padded with zeros meets the same dots; and it is below the 10 000 entries
# up to which OpenBLAS's x86-64 ddot stays on one thread, so the BLAS thread
# count cannot change a dot's summation order.
_DOT_BLOCK = 4096


def _block_dots(s: np.ndarray, t: np.ndarray) -> list[float]:
    """One BLAS dot per consecutive ``_DOT_BLOCK``-entry block of two lists
    of one length, the last block zero-padded.  The whole blocks are read in
    place: a stacked ``(1, B) @ (B, 1)`` matmul is a ``ddot`` per block."""
    whole = s.size - s.size % _DOT_BLOCK
    dots = np.matmul(
        s[:whole].reshape(-1, 1, _DOT_BLOCK), t[:whole].reshape(-1, _DOT_BLOCK, 1)
    ).ravel().tolist()
    if whole < s.size:
        tail = np.zeros((2, _DOT_BLOCK))
        tail[0, : s.size - whole], tail[1, : s.size - whole] = s[whole:], t[whole:]
        dots.append(float(tail[0] @ tail[1]))
    return dots


def _blocked_overlap(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """``fsum`` of the block dots of consecutive chunk pairs, squared and
    clipped at 1.  Every chunk but the last must be whole blocks long, so
    that the blocks sit where they would in the full lists."""
    dots = []
    for s, t in chunks:
        dots += _block_dots(s, t)
    return min(math.fsum(dots) ** 2, 1.0)


def _sorted_overlap(s: np.ndarray, t: np.ndarray) -> float:
    """Squared inner product of two descending coefficient lists, zero-padded
    to a common length and clipped at 1; exactly 1.0 for equal lists, so the
    dot product's last-ulp rounding cannot leak into ``1 - F``.  Lists whose
    first entries differ skip the full comparison.

    The inner product is one BLAS dot per zero-padded block of
    ``_DOT_BLOCK`` entries, the block results added by ``math.fsum``.  Its
    bits cannot move with padding, chunking or BLAS threads: every block has
    one length, so a dot sees the same entries however the list was built; a
    block of zeros gives +0.0 and ``fsum`` is exact and order-free, so extra
    zero blocks and chunk boundaries add nothing; and a block is too short
    for OpenBLAS to split ``ddot`` across threads.  Past the shorter list
    every product is zero, so only its length is read, in place.
    """
    if s.size < t.size:
        s, t = t, s
    head = s[: t.size]
    if s[0] == t[0] and np.array_equal(head, t) and not s[t.size :].any():
        return 1.0
    return _blocked_overlap([(head, t)])


def lu_orbit_fidelity(psi: PureBipartiteState, phi: PureBipartiteState) -> float:
    """``sup_{u,v} |<psi|(u (x) v)|phi>|^2``: squared inner product of the
    sorted, zero-padded Schmidt coefficient lists."""
    return _sorted_overlap(schmidt(psi).coefficients, schmidt(phi).coefficients)


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

def haar_unitary(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (Gaussian QR with phase correction)."""
    return haar_unitaries(d, 1, seed)[0]


def haar_unitaries(d: int, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """Batch of Haar unitaries, shape (count, d, d)."""
    d = _integer(d, 1, "dimension must be >= 1")
    count = _integer(count, 0, "count must be >= 0")
    _allocatable(count * d * d)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.einsum("nii->ni", r).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def random_density(d: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Wishart-distributed random density matrix."""
    d = _integer(d, 1, "dimension must be an integer >= 1, got {!r}")
    _allocatable(d * d)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return density(rho)


def random_pure_state(dims: tuple[int, int], seed: int | np.random.Generator) -> PureBipartiteState:
    """Haar-random bipartite pure state."""
    dims = _dims(dims)
    n = _allocatable(dims[0] * dims[1])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return pure_state(dims, v / np.linalg.norm(v))

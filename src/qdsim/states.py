"""Density matrices, state vectors, and the qubit Bloch chart."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidityError
from .linalg import ID2, PAULI, as_operator, dagger, is_hermitian, pauli_components
from .tolerances import TOL


_CHUNK_ENTRIES = 1 << 14  # stack entries one validation pass reads at a time


def density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix, or each matrix of a stack (..., d, d):
    Hermitian, unit trace, positive to tolerance. Returns a copy."""
    return check_density_stack(as_operator(rho, stack=True))


def check_density_stack(rho: np.ndarray) -> np.ndarray:
    """density_matrix's checks on a finite complex array (..., d, d), read
    in place: no copy of the stack, and each temporary spans one chunk
    of about _CHUNK_ENTRIES entries. Returns rho."""
    flat = rho.reshape((-1,) + rho.shape[-2:])
    chunks = np.array_split(flat, max(1, -(-flat.size // _CHUNK_ENTRIES)))
    if not all(is_hermitian(c).all() for c in chunks):
        raise ValidityError("density matrix is not Hermitian to tolerance")
    tr = np.trace(flat, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TOL.trace_one
    if off.any():
        raise ValidityError(f"density matrix trace is {float(tr[off][0])!r}, expected 1")
    w = min(np.linalg.eigvalsh(0.5 * (c + dagger(c))).min(initial=np.inf) for c in chunks)
    if w < TOL.eigenvalue_floor:
        raise ValidityError(f"density matrix has eigenvalue {w:.3e} below the floor")
    return rho


def state_vector(psi: np.ndarray) -> np.ndarray:
    """Validate a normalized ket, returned as a complex 1-d array."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionError(f"expected a 1-d state vector, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValidityError("state vector contains non-finite entries")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > TOL.unit_norm:
        raise ValidityError(f"state vector norm is {nrm!r}, expected 1")
    return psi.copy()


def bloch_vectors(n) -> np.ndarray:
    """Validate real Bloch vectors of shape (..., 3): each |n| <= 1 to tolerance."""
    n = np.asarray(n, dtype=float)
    if n.ndim == 0 or n.shape[-1] != 3:
        raise DimensionError(f"expected 3-vectors, got shape {n.shape}")
    r = np.linalg.norm(n, axis=-1)
    if (r > 1.0 + TOL.bloch_ball).any():
        raise ValidityError(f"Bloch vector has length {float(r.max())!r} > 1")
    return n


def bloch_to_density(n) -> np.ndarray:
    """rho = (I + n.sigma)/2 for real Bloch vectors n of shape (..., 3),
    each with |n| <= 1; the states come back with shape (..., 2, 2)."""
    n = bloch_vectors(n)
    x, y, z = (n[..., k, None, None] for k in range(3))
    return 0.5 * (ID2 + x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors, shape (..., 3), of 2x2 density matrices (..., 2, 2)."""
    rho = density_matrix(rho)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError("Bloch coordinates are defined for 2x2 states only")
    return pauli_components(rho)


def purity(rho: np.ndarray) -> float:
    rho = density_matrix(rho)
    return float(np.trace(rho @ rho).real)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr(rho ln rho), clipping the tolerated slightly-negative eigenvalues."""
    rho = density_matrix(rho)
    w = np.linalg.eigh(0.5 * (rho + dagger(rho)))[0]
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))

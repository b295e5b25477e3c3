"""Density matrices, state vectors, and the qubit Bloch chart."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidityError
from .linalg import ID2, PAULI, as_operator, dagger, is_hermitian
from .tolerances import TOL


def density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive to tolerance."""
    rho = as_operator(rho)
    if not is_hermitian(rho):
        raise ValidityError("density matrix is not Hermitian to tolerance")
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > TOL.trace_one:
        raise ValidityError(f"density matrix trace is {tr!r}, expected 1")
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if w.min() < TOL.eigenvalue_floor:
        raise ValidityError(f"density matrix has eigenvalue {w.min():.3e} below the floor")
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


def projector(psi: np.ndarray) -> np.ndarray:
    psi = state_vector(psi)
    return np.outer(psi, np.conjugate(psi))


def bloch_to_density(n) -> np.ndarray:
    """rho = (I + n.sigma)/2 for a real 3-vector n with |n| <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise DimensionError(f"expected a 3-vector, got shape {n.shape}")
    r = float(np.linalg.norm(n))
    if r > 1.0 + TOL.bloch_ball:
        raise ValidityError(f"Bloch vector has length {r!r} > 1")
    rho = 0.5 * (ID2 + n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2])
    return rho


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    rho = density_matrix(rho)
    if rho.shape != (2, 2):
        raise DimensionError("Bloch coordinates are defined for 2x2 states only")
    return np.array([float(np.trace(rho @ s).real) for s in PAULI])


def purity(rho: np.ndarray) -> float:
    rho = density_matrix(rho)
    return float(np.trace(rho @ rho).real)


def is_pure(rho: np.ndarray) -> bool:
    return purity(rho) >= 1.0 - TOL.pure_state


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr(rho ln rho), clipping the tolerated slightly-negative eigenvalues."""
    rho = density_matrix(rho)
    w = np.linalg.eigh(0.5 * (rho + dagger(rho)))[0]
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def maximally_mixed(dim: int) -> np.ndarray:
    if dim < 1:
        raise DimensionError("dimension must be positive")
    return np.eye(dim, dtype=complex) / dim


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi|rho|psi> for a validated ket against a validated state."""
    psi = state_vector(psi)
    rho = density_matrix(rho)
    if rho.shape[0] != psi.shape[0]:
        raise DimensionError("state vector and density matrix dimensions differ")
    return float(np.real(np.conjugate(psi) @ rho @ psi))

"""Dense complex linear algebra for small Hilbert spaces.

Dimensions here are tiny (2 for a qubit, 4 for a Dirac spinor, a few tens
for coupled-oscillator blocks), so everything is plain dense numpy. The
closed-form 2x2 exponential of the paper is qubit.sl2c_coefficients;
matrix_exponential delegates every size to scipy's scaling-and-squaring
Pade routine, imported only when needed. dagger, frobenius and
is_hermitian also take stacks (..., d, d).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidityError
from .tolerances import TOL

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_operator(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """Validate shape and finiteness, return a complex ndarray copy; with
    stack=True a stack of square matrices (..., d, d) is accepted too."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2 or (arr.ndim > 2 and not stack) or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidityError("operator contains non-finite entries")
    return arr.copy()


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray):
    """A float for one matrix, an array of norms for a stack."""
    if a.ndim == 2:
        return float(np.linalg.norm(a, "fro"))
    return np.linalg.norm(a, axis=(-2, -1))


def pauli_dot(v) -> np.ndarray:
    """v . sigma for a real or complex 3-vector v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise DimensionError(f"expected a 3-vector, got shape {v.shape}")
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def pauli_components(a: np.ndarray) -> np.ndarray:
    """Real parts of tr(a sigma_k), k = 1, 2, 3, for 2x2 a of shape (..., 2, 2)."""
    return np.stack([np.trace(a @ s, axis1=-2, axis2=-1).real for s in PAULI], axis=-1)


def is_hermitian(a: np.ndarray):
    """||a - a^dag||_F <= TOL.hermitian_rel * max(||a||_F, 1): a bool for
    one matrix, a bool array for a stack."""
    return frobenius(a - dagger(a)) <= TOL.hermitian_rel * np.maximum(frobenius(a), 1.0)


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, refusing overflow-range arguments."""
    a = as_operator(a)
    norm2 = float(np.linalg.norm(a, 2))
    if norm2 > TOL.exp_argument_cap:
        raise ValidityError(
            f"matrix exponential argument has 2-norm {norm2:.3g}, "
            f"beyond the supported {TOL.exp_argument_cap:g}"
        )
    import scipy.linalg  # costs most of `import qdsim`; no shipped scenario needs it

    return scipy.linalg.expm(a)


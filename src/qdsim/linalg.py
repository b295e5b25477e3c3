"""Dense complex linear algebra for small Hilbert spaces.

Dimensions here are tiny (2 for a qubit, 4 for a Dirac spinor, a few tens
for coupled-oscillator blocks), so everything is plain dense numpy. The
one piece of real numerics owned by this module is the closed-form 2x2
matrix exponential through the Pauli decomposition; larger matrices are
delegated to scipy's scaling-and-squaring Pade routine.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, ValidityError
from .tolerances import TOL

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_operator(a: np.ndarray) -> np.ndarray:
    """Validate shape and finiteness, return a complex ndarray copy."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidityError("operator contains non-finite entries")
    return arr.copy()


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def pauli_dot(v) -> np.ndarray:
    """v . sigma for a real or complex 3-vector v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise DimensionError(f"expected a 3-vector, got shape {v.shape}")
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def is_hermitian(a: np.ndarray, rel: float = TOL.hermitian_rel) -> bool:
    return frobenius(a - dagger(a)) <= rel * max(frobenius(a), 1.0)


def _expm_2x2(a: np.ndarray) -> np.ndarray:
    # Split a = c*I + v.sigma; then exp(a) = e^c (cosh(s) I + sinh(s)/s v.sigma)
    # with s = sqrt(v.v), branch-independent because cosh and sinh(s)/s are even.
    c = 0.5 * (a[0, 0] + a[1, 1])
    v0 = 0.5 * (a[0, 1] + a[1, 0])
    v1 = 0.5j * (a[0, 1] - a[1, 0])
    v2 = 0.5 * (a[0, 0] - a[1, 1])
    z = v0 * v0 + v1 * v1 + v2 * v2
    if abs(z) < TOL.expm_pauli_split:
        # series in z = s^2 keeps full precision where sqrt would lose it
        ch = 1.0 + z / 2.0 + z * z / 24.0
        shc = 1.0 + z / 6.0 + z * z / 120.0
    else:
        s = np.sqrt(z)
        ch = np.cosh(s)
        shc = np.sinh(s) / s
    ec = np.exp(c)
    return ec * np.array(
        [
            [ch + shc * v2, shc * (v0 - 1.0j * v1)],
            [shc * (v0 + 1.0j * v1), ch - shc * v2],
        ],
        dtype=complex,
    )


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, refusing overflow-range arguments."""
    a = as_operator(a)
    norm2 = float(np.linalg.norm(a, 2))
    if norm2 > TOL.exp_argument_cap:
        raise ValidityError(
            f"matrix exponential argument has 2-norm {norm2:.3g}, "
            f"beyond the supported {TOL.exp_argument_cap:g}"
        )
    if a.shape == (2, 2):
        return _expm_2x2(a)
    return scipy.linalg.expm(a)


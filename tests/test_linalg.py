import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdsim.errors import DimensionError, ValidityError
from qdsim.linalg import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_operator,
    dagger,
    frobenius,
    is_hermitian,
    matrix_exponential,
    pauli_dot,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    for s in PAULI:
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s, dagger(s))


@given(u=vec3, v=vec3)
def test_pauli_dot_product_identity(u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    # (u.sigma)(v.sigma) = (u.v) I + i (u x v).sigma
    lhs = pauli_dot(u) @ pauli_dot(v)
    rhs = (u @ v) * np.eye(2) + 1j * pauli_dot(np.cross(u, v))
    assert frobenius(lhs - rhs) <= 1e-10 * max(1.0, frobenius(lhs))


def test_as_operator_rejects_nonsquare():
    with pytest.raises(DimensionError):
        as_operator(np.zeros((2, 3)))


def test_as_operator_rejects_nonfinite():
    with pytest.raises(ValidityError):
        as_operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@given(v=vec3)
def test_matrix_exponential_pauli_closed_form(v):
    # exp(i v.sigma) = cos|v| I + i sin|v| v_hat.sigma
    v = np.asarray(v)
    n = np.linalg.norm(v)
    got = matrix_exponential(1j * pauli_dot(v))
    if n == 0.0:
        want = np.eye(2, dtype=complex)
    else:
        want = np.cos(n) * np.eye(2) + 1j * np.sin(n) * pauli_dot(v / n)
    assert frobenius(got - want) <= 1e-9 * max(1.0, frobenius(want))


def test_matrix_exponential_inverse(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    prod = matrix_exponential(a) @ matrix_exponential(-a)
    assert frobenius(prod - np.eye(4)) <= 1e-8


def test_matrix_exponential_additivity_commuting(rng):
    a = rng.normal(size=(3, 3))
    a = a + a.T
    lhs = matrix_exponential((0.3 + 0.7) * a)
    rhs = matrix_exponential(0.3 * a) @ matrix_exponential(0.7 * a)
    assert frobenius(lhs - rhs) <= 1e-9 * frobenius(lhs)


def test_is_hermitian_tolerance():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_Y + 1e-6 * np.array([[0, 1], [0, 0]]))


def test_matrix_exponential_rejects_overflow_range():
    with pytest.raises(ValidityError):
        matrix_exponential(1e4 * SIGMA_Z)


import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdsim.errors import DimensionError, ValidityError
from qdsim.states import (
    bloch_to_density,
    density_matrix,
    density_to_bloch,
    maximally_mixed,
    projector,
    purity,
    state_vector,
    von_neumann_entropy,
)


unit_interval = st.floats(min_value=0.0, max_value=1.0)
angle = st.floats(min_value=0.0, max_value=2.0 * np.pi)


@given(r=unit_interval, theta=angle, phi=angle)
def test_bloch_round_trip(r, theta, phi):
    n = r * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    rho = bloch_to_density(n)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert np.allclose(density_to_bloch(rho), n, atol=1e-12)


def test_bloch_rejects_outside_ball():
    with pytest.raises(ValidityError):
        bloch_to_density((0.8, 0.8, 0.8))
    inside = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    stacked = bloch_to_density(inside)
    assert stacked.shape == (3, 2, 2)
    for n, rho in zip(inside, stacked):
        assert np.array_equal(rho, bloch_to_density(n))
    with pytest.raises(ValidityError):
        bloch_to_density(np.vstack([inside, [(0.8, 0.8, 0.8)]]))
    with pytest.raises(DimensionError):
        bloch_to_density(np.zeros((3, 2)))


def test_density_matrix_validation():
    with pytest.raises(ValidityError):
        density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValidityError):
        density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidityError):
        density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@given(r=st.floats(min_value=0.0, max_value=1.0))
def test_purity_matches_bloch_radius(r):
    rho = bloch_to_density((0.0, r, 0.0))
    assert abs(purity(rho) - 0.5 * (1.0 + r * r)) <= 1e-12


def test_entropy_limits():
    assert von_neumann_entropy(bloch_to_density((0, 0, 1))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(np.log(2.0), abs=1e-12)
    # entropy depends on the Bloch radius only
    s1 = von_neumann_entropy(bloch_to_density((0.3, 0.0, 0.4)))
    s2 = von_neumann_entropy(bloch_to_density((0.0, 0.5, 0.0)))
    assert abs(s1 - s2) <= 1e-12


def test_projector_and_fidelity(rng):
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = state_vector(raw / np.linalg.norm(raw))
    p = projector(psi)
    assert np.allclose(p @ p, p)


def test_state_vector_validates_norm():
    with pytest.raises(ValidityError):
        state_vector([3.0, 4.0])
    v = state_vector([0.6, 0.8j])
    assert v.dtype == complex

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdsim.errors import DimensionError, ValidityError
from qdsim.models import dirac
from qdsim.qubit import (
    QubitGeneratorParams,
    SingleLindbladParams,
    asymptote,
    bloch_trajectory_general,
    single_lindblad_trajectory,
)
from qdsim.states import (
    bloch_to_density,
    bloch_vectors,
    density_matrix,
    density_to_bloch,
    purity,
    state_vector,
    von_neumann_entropy,
)


unit_interval = st.floats(min_value=0.0, max_value=1.0)
angle = st.floats(min_value=0.0, max_value=2.0 * np.pi)


def test_every_xi_entry_point_refuses_a_vector_outside_the_ball_alike():
    xi = (0.8, 0.8, 0.8)
    params = QubitGeneratorParams((0.0, 0.0, 6.0), (4.0, 0.0, 1.0))
    refusals = (
        lambda: bloch_trajectory_general(params, xi, 1.0),
        lambda: asymptote(params, xi),
        lambda: single_lindblad_trajectory(SingleLindbladParams(0.5, 1.0, 0.3), xi, 1.0),
        lambda: dirac.polarization_fourvector(dirac.rest_momentum(1.0), xi, 1.0),
        lambda: bloch_to_density(xi),
    )
    messages = set()
    for refuse in refusals:
        with pytest.raises(ValidityError) as err:
            refuse()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_a_stack_longer_than_one_chunk_is_checked_as_a_whole():
    # density_matrix reads a long stack a chunk at a time; a bad matrix
    # past the first chunk is found, and the message names the worst one
    good = bloch_to_density(np.zeros((40000, 3)))
    assert np.array_equal(density_matrix(good), good)
    bad = good.copy()
    bad[30000] = [[1.2, 0.0], [0.0, -0.2]]
    bad[35000] = [[1.1, 0.0], [0.0, -0.1]]
    with pytest.raises(ValidityError, match="eigenvalue -2.000e-01 below the floor"):
        density_matrix(bad)
    bad[39999, 0, 1] = 0.5
    with pytest.raises(ValidityError, match="not Hermitian"):
        density_matrix(bad)


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
    outside = np.vstack([inside, [(0.8, 0.8, 0.8)]])
    with pytest.raises(ValidityError) as via_density:
        bloch_to_density(outside)
    # the runners check their Bloch columns without building states
    assert np.array_equal(bloch_vectors(inside), inside)
    with pytest.raises(ValidityError) as via_vectors:
        bloch_vectors(outside)
    assert str(via_vectors.value) == str(via_density.value)
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
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2.0), abs=1e-12)
    # entropy depends on the Bloch radius only
    s1 = von_neumann_entropy(bloch_to_density((0.3, 0.0, 0.4)))
    s2 = von_neumann_entropy(bloch_to_density((0.0, 0.5, 0.0)))
    assert abs(s1 - s2) <= 1e-12


def test_state_vector_validates_norm():
    with pytest.raises(ValidityError):
        state_vector([3.0, 4.0])
    v = state_vector([0.6, 0.8j])
    assert v.dtype == complex


def test_density_matrix_validates_every_matrix_of_a_stack(rng):
    blochs = rng.normal(size=(5, 3))
    blochs *= 0.9 / np.linalg.norm(blochs, axis=1).max()
    stack = bloch_to_density(blochs)
    assert np.array_equal(density_matrix(stack), stack)
    assert density_matrix(stack.reshape(5, 1, 2, 2)).shape == (5, 1, 2, 2)
    bad_cases = (
        np.array([[0.5, 0.5], [0.1, 0.5]]),  # not Hermitian
        np.diag([0.7, 0.7]),                 # trace 1.4
        np.diag([1.5, -0.5]),                # negative eigenvalue
    )
    for bad in bad_cases:
        with pytest.raises(ValidityError) as single:
            density_matrix(bad)
        broken = stack.copy()
        broken[3] = bad
        with pytest.raises(ValidityError) as stacked:
            density_matrix(broken)
        assert str(stacked.value) == str(single.value)
    with pytest.raises(DimensionError):
        density_matrix(np.zeros((5, 2, 3)))


def test_density_to_bloch_of_a_stack_equals_the_per_matrix_calls(rng):
    blochs = rng.normal(size=(40, 3))
    blochs /= np.linalg.norm(blochs, axis=1, keepdims=True) * rng.uniform(1.0, 3.0, size=(40, 1))
    stack = bloch_to_density(blochs)
    got = density_to_bloch(stack)
    assert got.shape == (40, 3)
    assert np.array_equal(got, np.array([density_to_bloch(rho) for rho in stack]))
    assert density_to_bloch(stack[0]).shape == (3,)
    with pytest.raises(DimensionError):
        density_to_bloch(np.stack([np.eye(3) / 3.0] * 2))

import numpy as np
import pytest

from qdsim.errors import (
    DimensionError,
    PreconditionError,
    SingularNormalizationError,
    ValidityError,
)
from qdsim.kraus import (
    EnsembleSplit,
    KrausFamily,
    reweighted_ensemble,
)
from qdsim.linalg import SIGMA_X
from qdsim.states import bloch_to_density

from conftest import random_density


def random_family(rng, dim=2, count=2):
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for _ in range(count)]
    return KrausFamily(tuple(ops))


def test_family_validation():
    with pytest.raises(PreconditionError):
        KrausFamily(())
    with pytest.raises(DimensionError):
        KrausFamily((np.eye(2), np.eye(3)))


def test_effect_operator_and_trace_preserving():
    fam = KrausFamily((SIGMA_X,))
    assert np.allclose(fam.effect_operator(), np.eye(2))
    fam2 = KrausFamily((0.5 * np.eye(2),))
    assert np.allclose(fam2.effect_operator(), 0.25 * np.eye(2))


def test_trace_preserving_family_is_linear(rng):
    # F = I collapses the reweighting to the identity on weights
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    fam = KrausFamily((u,))
    split = EnsembleSplit(
        (0.3, 0.7), (random_density(rng), random_density(rng))
    )
    w = reweighted_ensemble(fam, split)
    assert np.allclose(w, split.weights, atol=1e-12)


def test_normalized_image_has_unit_trace(rng):
    fam = random_family(rng, count=3)
    rho = random_density(rng)
    out = fam.apply_normalized(rho)
    assert abs(np.trace(out).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_annihilated_state_raises():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    fam = KrausFamily((lower,))
    ground = bloch_to_density((0.0, 0.0, 1.0))  # |0><0| annihilated by K+
    with pytest.raises(SingularNormalizationError):
        fam.apply_normalized(ground)


def test_quasilinear_coefficient_identity(rng):
    # Phi(sum p_i rho_i) = sum p_bar_i Phi(rho_i) with the reweighted p_bar
    fam = random_family(rng, count=2)
    states = tuple(random_density(rng) for _ in range(3))
    weights = rng.dirichlet(np.ones(3))
    split = EnsembleSplit(weights, states)
    direct = fam.apply_normalized(split.mixture())
    bar = reweighted_ensemble(fam, split)
    rebuilt = sum(bar[i] * fam.apply_normalized(states[i]) for i in range(3))
    assert np.abs(direct - rebuilt).max() <= 1e-12
    assert abs(bar.sum() - 1.0) <= 1e-12


def test_reweighting_refuses_a_split_of_another_dimension(rng):
    split = EnsembleSplit((0.5, 0.5), (random_density(rng, 3), np.eye(3) / 3))
    with pytest.raises(DimensionError):
        reweighted_ensemble(random_family(rng, dim=2), split)


def test_compose_order_and_semigroup(rng):
    first = random_family(rng)
    second = random_family(rng)
    rho = random_density(rng)
    via_compose = first.compose(second).apply_normalized(rho)
    sequential = first.apply_normalized(second.apply_normalized(rho))
    assert np.abs(via_compose - sequential).max() <= 1e-12


def test_compose_dimension_mismatch(rng):
    with pytest.raises(DimensionError):
        random_family(rng, dim=2).compose(random_family(rng, dim=3))


def test_ensemble_split_validation(rng):
    rho = random_density(rng)
    with pytest.raises(ValidityError):
        EnsembleSplit((0.5, 0.6), (rho, rho))
    with pytest.raises(DimensionError):
        EnsembleSplit((1.0,), (rho, rho))


def test_mixture_reconstructs(rng):
    states = (random_density(rng), np.eye(2) / 2)
    split = EnsembleSplit((0.25, 0.75), states)
    want = 0.25 * states[0] + 0.75 * states[1]
    assert np.abs(split.mixture() - want).max() <= 1e-15

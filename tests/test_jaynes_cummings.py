import math

import numpy as np
import pytest

from qdsim.errors import DomainError
from qdsim.models import jaynes_cummings as jc
from qdsim.qubit import CaseClass, bloch_trajectory_general
from qdsim.states import density_to_bloch

PARAMS = jc.JCParams(omega_f=1.0, omega_a=6.0, g=1.9, n_max=16)


def test_params_validation():
    with pytest.raises(DomainError):
        jc.JCParams(1.0, 6.0, 1.9, n_max=0)
    with pytest.raises(DomainError):
        PARAMS.block_rates(17)
    with pytest.raises(DomainError):
        PARAMS.block_rates(-1)


def test_block_rates_layout():
    w, g = PARAMS.block_rates(3)
    assert np.allclose(w, (0.0, 0.0, 6.0))
    assert np.allclose(g, (1.9 * 2.0, 0.0, 0.0))


def test_block_classification_crossover():
    # g sqrt(n+1) crosses omega_a between n = 8 and n = 9 for g = 1.9
    for n in range(PARAMS.n_max + 1):
        want = (
            CaseClass.HYPERBOLIC_DAMPED
            if 1.9 * np.sqrt(n + 1.0) > 6.0
            else CaseClass.OSCILLATORY
        )
        assert jc.block_case(PARAMS, n) is want
    assert jc.block_case(PARAMS, 8) is CaseClass.OSCILLATORY
    assert jc.block_case(PARAMS, 9) is CaseClass.HYPERBOLIC_DAMPED


def test_coherent_field_weights():
    s = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # truncated Poisson keeps the mode at n = 3, 4
    assert np.argmax(s.weights) in (3, 4)
    # exp(-nbar) nbar^n / n!, renormalized over the truncation
    poisson = np.array([math.exp(-4.0) * 4.0 ** n / math.factorial(n) for n in range(17)])
    assert np.abs(s.weights - poisson / poisson.sum()).max() <= 1e-15
    vacuum = jc.JCBlockState.coherent_field(PARAMS, 0.0, (0, 0, 1.0))
    assert vacuum.weights[0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        jc.JCBlockState.coherent_field(PARAMS, -1.0, (0, 0, 1.0))


def test_evolution_preserves_weight_sum():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    for t in (0.5, 2.0, 8.0):
        s = jc.jc_evolve(PARAMS, s0, t)
        assert abs(s.weights.sum() - 1.0) <= 1e-12
        assert s.weights.min() >= 0.0


def test_block_follows_qubit_closed_form():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    s = jc.jc_evolve(PARAMS, s0, 1.3)
    for n in (0, 5, 12):
        want = bloch_trajectory_general(PARAMS.block_params(n), (0, 0, 1.0), 1.3)
        assert np.linalg.norm(density_to_bloch(s.blocks[n]) - want) <= 1e-10


def test_damped_blocks_dominate_late():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    s = jc.jc_evolve(PARAMS, s0, 8.0)
    damped = sum(
        s.weights[n]
        for n in range(PARAMS.n_max + 1)
        if jc.block_case(PARAMS, n) is CaseClass.HYPERBOLIC_DAMPED
    )
    assert damped >= 0.999


def test_inversion_and_energy_bounds():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    assert s0.atomic_inversion() == pytest.approx(1.0)
    e0 = jc.jc_mean_energy(PARAMS, s0)
    # field term (nbar-weighted, truncated) plus atomic omega_a/2
    n = np.arange(PARAMS.n_max + 1)
    want = float((s0.weights * (n + 0.5)).sum()) * 1.0 + 0.5 * 6.0
    assert e0 == pytest.approx(want, rel=1e-12)
    s = jc.jc_evolve(PARAMS, s0, 3.0)
    assert -1.0 - 1e-9 <= s.atomic_inversion() <= 1.0 + 1e-9


def test_full_density_shape():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    rho = s0.full_density()
    assert rho.shape == (34, 34)
    assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_evolve_rejects_mismatched_state():
    other = jc.JCParams(1.0, 6.0, 1.9, n_max=4)
    s0 = jc.JCBlockState.coherent_field(other, 2.0, (0, 0, 1.0))
    with pytest.raises(DomainError):
        jc.jc_evolve(PARAMS, s0, 1.0)

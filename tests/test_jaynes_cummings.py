import math
from importlib import resources

import numpy as np
import pytest

from qdsim.errors import DomainError, ValidityError
from qdsim.models import jaynes_cummings as jc
from qdsim.qubit import CaseClass, bloch_trajectory_general
from qdsim.run import run
from qdsim.scenario import parse_scenario
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
    for nbar in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            jc.JCBlockState.coherent_field(PARAMS, nbar, (0, 0, 1.0))


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


def test_evolve_rejects_mismatched_state():
    other = jc.JCParams(1.0, 6.0, 1.9, n_max=4)
    s0 = jc.JCBlockState.coherent_field(other, 2.0, (0, 0, 1.0))
    with pytest.raises(DomainError):
        jc.jc_evolve(PARAMS, s0, 1.0)


def test_block_storage_is_refused_before_allocating():
    # 10^13 + 1 blocks would ask numpy for terabytes
    with pytest.raises(DomainError, match="block states"):
        jc.JCParams(1.0, 6.0, 1.9, n_max=10**13)
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    grid = np.linspace(0.0, 1.0, 60000)  # 60000 samples x 17 blocks
    with pytest.raises(DomainError, match="block states"):
        jc.jc_evolve(PARAMS, s0, grid)


def test_grid_matches_the_scalar_calls():
    # t = 0, a time inside the series window of every block, and late
    # times where blocks 9..16 have damped and 0..8 still oscillate
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0.6, 0.0, 0.8))
    grid = np.array([0.0, 1e-6, 0.3, 1.3, 4.0, 8.0])
    s = jc.jc_evolve(PARAMS, s0, grid)
    assert s.weights.shape == (6, 17) and s.blocks.shape == (6, 17, 2, 2)
    assert s.atomic_inversion().shape == (6,)
    assert jc.jc_mean_energy(PARAMS, s).shape == (6,)
    assert jc.jc_evolve(PARAMS, s0, np.zeros(0)).blocks.shape == (0, 17, 2, 2)
    for k, t in enumerate(grid):
        one = jc.jc_evolve(PARAMS, s0, t)
        assert np.abs(s.weights[k] - one.weights).max() <= 1e-15
        assert np.abs(s.blocks[k] - one.blocks).max() <= 1e-15
        assert abs(s.atomic_inversion()[k] - one.atomic_inversion()) <= 1e-15
        assert abs(jc.jc_mean_energy(PARAMS, s)[k] - jc.jc_mean_energy(PARAMS, one)) <= 1e-14


def test_grid_past_the_exponential_cap_raises_like_the_scalar_call():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    with pytest.raises(ValidityError) as scalar:
        jc.jc_evolve(PARAMS, s0, 1000.0)
    with pytest.raises(ValidityError) as grid:
        jc.jc_evolve(PARAMS, s0, np.array([0.0, 1.0, 1000.0]))
    assert str(grid.value) == str(scalar.value)


def test_stacked_state_validates_every_sample():
    s0 = jc.JCBlockState.coherent_field(PARAMS, 4.0, (0, 0, 1.0))
    s = jc.jc_evolve(PARAMS, s0, np.array([0.0, 1.0, 2.0]))
    blocks = s.blocks.copy()
    blocks[1, 5] = np.diag([1.5, -0.5])
    with pytest.raises(ValidityError):
        jc.JCBlockState(s.weights, blocks)
    weights = s.weights.copy()
    weights[2, 0] += 1e-6
    with pytest.raises(ValidityError):
        jc.JCBlockState(weights, s.blocks)
    with pytest.raises(DomainError):
        jc.JCBlockState(s.weights, s.blocks[:, :-1])


def test_shipped_scenario_makes_one_closed_form_call_per_block(tmp_path, monkeypatch):
    calls = []
    real = jc.sl2c_coefficients

    def counted(params, t):
        calls.append(np.shape(t))
        return real(params, t)

    monkeypatch.setattr(jc, "sl2c_coefficients", counted)
    text = resources.files("qdsim").joinpath("scenarios", "jc_collapse_blocks.scn").read_text()
    times, _, report = run(parse_scenario(text), out_dir=str(tmp_path), check=False)
    assert len(calls) == PARAMS.n_max + 1
    assert set(calls) == {(len(times),)}
    assert report.all_passed

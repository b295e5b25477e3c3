import math

import numpy as np
import pytest

from qdsim.dynamics import (
    Generator,
    IntegratorConfig,
    Trajectory,
    _coordinate_rhs,
    _from_coordinates,
    _to_coordinates,
    closed_form_propagate,
    evolve,
    evolve_state_vector,
    finite_difference_generator_check,
    gksl_rhs,
    inverted_morse_profile,
    qubit_rate_generator,
    sample_count,
    state_vector_rhs,
    whole_steps,
)
from qdsim.errors import (
    DimensionError,
    DomainError,
    IntegrationDivergedError,
    UnsupportedModeError,
    ValidityError,
)
from qdsim.linalg import SIGMA_X, SIGMA_Z, frobenius, pauli_dot
from qdsim.models import dirac
from qdsim.models import neutrino as nu
from qdsim.run import _grid
from qdsim.states import bloch_to_density, density_to_bloch

from qdsim.tolerances import TOL

from conftest import random_density

LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def test_generator_validation():
    with pytest.raises(ValidityError):
        Generator(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    gen = Generator.qubit((0, 0, 1), (0.5, 0, 0))
    assert gen.dim == 2
    assert np.allclose(gen.hamiltonian, 0.5 * SIGMA_Z)
    assert np.allclose(gen.damping, 0.25 * SIGMA_X)


def test_rhs_conserves_trace(rng):
    gen = Generator.qubit(rng.normal(size=3), rng.normal(size=3), (LOWER,))
    rho = random_density(rng)
    assert abs(np.trace(gksl_rhs(gen, rho))) <= 1e-12


def test_rhs_pure_hamiltonian_limit(rng):
    # with G = 0 and no jumps the flow is the commutator flow
    omega = rng.normal(size=3)
    gen = Generator.qubit(omega, np.zeros(3))
    rho = random_density(rng)
    h = gen.hamiltonian
    want = -1j * (h @ rho - rho @ h)
    assert frobenius(gksl_rhs(gen, rho) - want) <= 1e-12


def test_rhs_is_the_normalized_image_of_the_linear_generator(rng):
    # Lambda(rho) - tr Lambda(rho) rho against the form with
    # W = 2G + sum L^dag L written out, in two and three dimensions
    for dim in (2, 3):
        h, g, l = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                   for _ in range(3))
        h, g = h + h.conj().T, 0.3 * (g + g.conj().T)
        gen = Generator(h, g, (0.5 * l,))
        rho = random_density(rng, dim)
        m, lh = g - 1j * h, 0.5 * l.conj().T
        w = 2.0 * g + lh @ (0.5 * l)
        want = m @ rho + rho @ m.conj().T + 0.5 * l @ rho @ lh - np.trace(rho @ w).real * rho
        assert frobenius(gksl_rhs(gen, rho) - want) <= 1e-12
    gen = Generator.qubit(rng.normal(size=3), rng.normal(size=3))
    psi = np.array([0.6, 0.8j])
    gpsi = gen.damping @ psi
    want = -1j * (gen.hamiltonian @ psi) + gpsi - np.vdot(psi, gpsi).real * psi + 0.7j * psi
    assert np.linalg.norm(state_vector_rhs(gen, psi, 0.7) - want) <= 1e-14


@pytest.mark.parametrize("lindblads", [(), (0.4 * LOWER,)])
def test_evolve_samples_from_a_hermitian_start_are_exactly_hermitian(lindblads):
    # evolve steps real coordinates and writes each conjugate pair of a
    # sample from the same two reals, so no rounding drift from Hermiticity
    gen = Generator.qubit((0.3, -1.1, 0.8), (1.0, -0.3, -0.7), lindblads)
    traj = evolve(gen, bloch_to_density((0.1, -0.2, 0.3)),
                  IntegratorConfig(t_end=50.0, step=0.01, sample_stride=500))
    assert len(traj) == 11
    for rho in traj.states:
        assert np.array_equal(rho, rho.conj().T)


def _random_generator(rng, dim, jumps):
    h, g, l = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    return Generator(0.5 * (h + h.conj().T), 0.15 * (g + g.conj().T), (0.4 * l,) * jumps)


def _rk4_on_gksl_rhs(gen_at, rho, h, n_steps, stride):
    """Classical RK4 on the complex matrix with gksl_rhs, sampled as
    evolve samples: the reference for evolve's coordinate route."""
    samples = [rho]
    for i in range(n_steps):
        t = i * h
        k1 = gksl_rhs(gen_at(t), rho)
        k2 = gksl_rhs(gen_at(t + 0.5 * h), rho + (0.5 * h) * k1)
        k3 = gksl_rhs(gen_at(t + 0.5 * h), rho + (0.5 * h) * k2)
        k4 = gksl_rhs(gen_at(t + h), rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(rho)
    return np.array(samples)


@pytest.mark.parametrize("dim, jumps", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_evolve_agrees_with_rk4_on_the_complex_right_hand_side(rng, dim, jumps):
    gen = _random_generator(rng, dim, jumps)
    rho0 = random_density(rng, dim)
    traj = evolve(gen, rho0, IntegratorConfig(t_end=2.0, step=0.01, sample_stride=40))
    want = _rk4_on_gksl_rhs(lambda t: gen, rho0, 0.01, 200, 40)
    assert traj.states.shape == want.shape == (6, dim, dim)
    assert frobenius(traj.states - want).max() <= 1e-12


def test_evolve_of_a_rate_family_agrees_with_rk4_on_the_complex_right_hand_side():
    omega, g_dir = (0.00225, 0.0012990381056766578, -0.0015), (0.43, -0.75, -0.5)
    gen_at = qubit_rate_generator(omega, g_dir, inverted_morse_profile(0.007, 0.0005))
    rho0 = bloch_to_density((-0.5, -0.5, -0.5))
    traj = evolve(gen_at, rho0, IntegratorConfig(t_end=3000.0, step=5.0, sample_stride=100))
    want = _rk4_on_gksl_rhs(gen_at, rho0, 5.0, 600, 100)
    assert traj.states.shape == want.shape == (7, 2, 2)
    assert frobenius(traj.states - want).max() <= 1e-12


@pytest.mark.parametrize("dim, jumps", [(2, 0), (2, 2), (3, 1), (4, 1)])
def test_coordinate_generator_gives_the_complex_right_hand_side(rng, dim, jumps):
    # B = [A; c]: z = B y, then z[:-1] - z[-1] y are the coordinates of
    # gksl_rhs; a state is read as its Hermitian part, which its
    # coordinates rebuild bit for bit
    gen = _random_generator(rng, dim, jumps)
    assert gen._b.shape == (dim * dim + 1, dim * dim)
    for _ in range(5):
        rho = random_density(rng, dim)
        y = _to_coordinates(rho)
        assert np.array_equal(_from_coordinates(y, dim), 0.5 * (rho + rho.conj().T))
        rate = _from_coordinates(_coordinate_rhs(gen, y), dim)
        assert frobenius(rate - gksl_rhs(gen, rho)) <= 1e-13 * max(1.0, frobenius(rate))


def test_evolve_refuses_an_oversized_dimension_before_building_its_matrix():
    dim = TOL.max_coordinate_dim + 1
    gen = Generator(np.zeros((dim, dim)), np.zeros((dim, dim)))
    with pytest.raises(DomainError, match=f"at most d = {TOL.max_coordinate_dim}"):
        evolve(gen, np.eye(dim) / dim, IntegratorConfig(t_end=1.0, step=0.5))
    assert "_b" not in vars(gen)
    small = Generator.qubit((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(DimensionError, match="state dimension does not match"):
        evolve(small, np.eye(3) / 3, IntegratorConfig(t_end=1.0, step=0.5))


def test_closed_form_matches_short_ode(rng):
    gen = Generator.qubit((0.0, 0.0, 2.0), (1.0, 0.0, 0.5))
    rho0 = random_density(rng)
    traj = evolve(gen, rho0, IntegratorConfig(t_end=1.0, step=1e-3, sample_stride=1000))
    want = closed_form_propagate(gen, rho0, 1.0)
    assert frobenius(traj.final_state - want) <= 1e-9


def test_closed_form_rejects_lindblads():
    gen = Generator.qubit((0, 0, 1), (0, 0, 0), (LOWER,))
    with pytest.raises(UnsupportedModeError):
        closed_form_propagate(gen, bloch_to_density((0, 0, 1)), 1.0)


def test_finite_difference_residual_is_first_order(rng):
    gen = Generator.qubit(rng.normal(size=3), rng.normal(size=3), (0.5 * LOWER,))
    rho = random_density(rng)
    r1 = finite_difference_generator_check(gen, rho, 1e-3)
    r2 = finite_difference_generator_check(gen, rho, 5e-4)
    assert 0.4 <= r2 / r1 <= 0.6


def test_evolve_rejects_bad_config():
    gen = Generator.qubit((0, 0, 3.0), (1.0, 0, 0))
    rho0 = bloch_to_density((0, 0, 1))
    with pytest.raises(DomainError):
        evolve(gen, rho0, IntegratorConfig(t_end=1.0, step=0.0))
    with pytest.raises(DomainError):
        evolve(gen, rho0, IntegratorConfig(t_end=-1.0))
    with pytest.raises(DomainError):
        evolve(gen, rho0, IntegratorConfig(t_end=1.0, sample_stride=0))


def test_evolve_sampling_and_trace(rng):
    gen = Generator.qubit((0, 0, 3.0), (1.0, 0, 0))
    traj = evolve(gen, bloch_to_density((0, 0, 1)),
                  IntegratorConfig(t_end=0.5, step=1e-3, sample_stride=100))
    assert len(traj) == 6  # t = 0 plus five strides
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) <= 1e-8


def test_state_vector_route_matches_density_route():
    # pure-state flow: both forms must trace the same Bloch path
    gen = Generator.qubit((0.0, 0.0, 4.0), (1.5, 0.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    cfg = IntegratorConfig(t_end=1.0, step=1e-3, sample_stride=250)
    traj_psi = evolve_state_vector(gen, psi0, cfg)
    traj_rho = evolve(gen, np.outer(psi0, psi0.conj()), cfg)
    for psi, rho in zip(traj_psi.states, traj_rho.states):
        assert frobenius(np.outer(psi, psi.conj()) - rho) <= 1e-8


def test_kappa_gauge_invariance():
    # kappa only rotates the global phase; the projector is unchanged
    gen = Generator.qubit((0.0, 1.0, 2.0), (0.5, 0.0, 1.0))
    psi0 = np.array([0.6, 0.8], dtype=complex)
    cfg = IntegratorConfig(t_end=0.8, step=1e-3, sample_stride=200)
    base = evolve_state_vector(gen, psi0, cfg, kappa=0.0)
    gauged = evolve_state_vector(gen, psi0, cfg, kappa=1.7)
    for a, b in zip(base.states, gauged.states):
        assert frobenius(np.outer(a, a.conj()) - np.outer(b, b.conj())) <= 1e-8


def test_state_vector_rhs_rejects_lindblads():
    gen = Generator.qubit((0, 0, 1), (0, 0, 0), (LOWER,))
    with pytest.raises(UnsupportedModeError):
        state_vector_rhs(gen, np.array([1.0, 0.0], dtype=complex))


def test_inverted_morse_profile_shape():
    q, nu = 0.007, 0.0005
    profile = inverted_morse_profile(q, nu)
    assert profile(0.0) == pytest.approx(q)
    assert profile(1e7) == pytest.approx(0.0, abs=1e-12)
    # monotone decay on a coarse grid
    vals = [profile(t) for t in np.linspace(0.0, 20000.0, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        inverted_morse_profile(0.0, 1.0)


def test_time_dependent_generator_tracks_profile():
    profile = inverted_morse_profile(0.01, 0.001)
    gen_at = qubit_rate_generator((0, 0, 0.003), (1.0, 0.0, 0.0), profile)
    g_mat = gen_at(500.0).damping
    assert frobenius(g_mat - 0.5 * profile(500.0) * SIGMA_X) <= 1e-15


def test_rate_family_fills_the_caches_of_a_validated_generator():
    # validated once when the family is made, then the same arithmetic as
    # Generator(H, magnitude(t) * sigma_g), so RK4 samples stay bitwise equal
    omega, g_dir = (0.00225, 0.0012990381056766578, -0.0015), (0.43, -0.75, -0.5)
    profile = inverted_morse_profile(0.007, 0.0005)
    gen_at = qubit_rate_generator(omega, g_dir, profile)
    h, sig_g = 0.5 * pauli_dot(omega), 0.5 * pauli_dot(g_dir)
    for t in (0.0, 0.25, 2821.0, 35000.0):
        got, want = gen_at(t), Generator(h, profile(t) * sig_g)
        for attr in ("hamiltonian", "damping", "_m", "_b"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.lindblads == () and got._lpairs == ()
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidityError, match="operator contains non-finite entries"):
            qubit_rate_generator(omega, g_dir, lambda t: bad)(1.0)
    with pytest.raises(ValidityError):
        qubit_rate_generator(omega, (math.nan, 0.0, 0.0), profile)


def test_evolve_overflow_is_an_integration_error_without_warnings():
    # RK4 far past its stability limit overflows between two samples; under
    # the suite's filterwarnings = error a numpy RuntimeWarning would fail here
    gen = Generator.qubit((0.0, 0.0, 1.0), (1e3, 0.0, 0.0))
    cfg = IntegratorConfig(t_end=100.0, step=0.1, sample_stride=1000)
    with pytest.raises(IntegrationDivergedError, match="state has non-finite entries"):
        evolve(gen, bloch_to_density((0.0, 0.0, 1.0)), cfg)
    gen_at = qubit_rate_generator((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                  inverted_morse_profile(1e4, 0.0005))
    with pytest.raises(IntegrationDivergedError, match="state has non-finite entries"):
        evolve(gen_at, bloch_to_density((0.0, 0.0, 1.0)), cfg)


def test_time_dependent_generator_is_built_once_per_stage_time():
    # k2 and k3 share t + h/2 and the end generator starts the next step,
    # so n steps query the callable 1 + 2n times; a callable returning a
    # constant generator retraces the autonomous run bit for bit
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.5))
    times = []

    def gen_at(t):
        times.append(t)
        return gen

    rho0 = bloch_to_density((0.3, 0.0, 0.8))
    cfg = IntegratorConfig(t_end=1.0, step=0.1, sample_stride=3)
    varying = evolve(gen_at, rho0, cfg)
    assert len(times) == 1 + 2 * 10
    constant = evolve(gen, rho0, cfg)
    assert np.array_equal(varying.times, constant.times)
    assert all(np.array_equal(a, b) for a, b in zip(varying.states, constant.states))


# the last one is a whole number of steps, one past TOL.max_steps
BAD_HORIZONS = [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, 0.3), (10000.001, 1e-3)]


def test_whole_steps():
    assert whole_steps(20.0, 1e-3) == 20000
    assert whole_steps(0.0, 0.1) == 0
    for t_end, step in BAD_HORIZONS + [(1.0, math.inf), (1.0, math.nan), (-1.0, 0.5),
                                       (1.0, 0.0), (1e300, 1e-300), (1e-20, 1.0)]:
        with pytest.raises(DomainError):
            whole_steps(t_end, step)


@pytest.mark.parametrize("t_end, step", BAD_HORIZONS)
def test_steppers_reject_a_horizon_off_the_step_grid(t_end, step):
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.0))
    cfg = IntegratorConfig(t_end=t_end, step=step)
    with pytest.raises(DomainError):
        evolve(gen, bloch_to_density((0, 0, 1)), cfg)
    with pytest.raises(DomainError):
        evolve_state_vector(gen, np.array([1.0, 0.0], dtype=complex), cfg)


def test_sample_count():
    assert sample_count(0, 1) == 1
    assert sample_count(10, 3) == 5  # t = 0, steps 3, 6, 9 and the last
    assert sample_count(TOL.max_samples - 1, 1) == TOL.max_samples
    for n_steps, stride in ((TOL.max_samples, 1), (10**15, 1), (10**15, 10**8)):
        with pytest.raises(DomainError):
            sample_count(n_steps, stride)
    for n_steps, stride in ((10, 0), (10, -5), (0, 0)):
        with pytest.raises(DomainError, match="sample_stride must be at least 1"):
            sample_count(n_steps, stride)


def test_steppers_refuse_more_samples_than_the_cap():
    # one step past the cap at stride 1: rejected before the first step
    t_end = float(TOL.max_samples)
    cfg = IntegratorConfig(t_end=t_end, step=1.0)
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        evolve(gen, bloch_to_density((0, 0, 1)), cfg)
    with pytest.raises(DomainError):
        evolve_state_vector(gen, np.array([1.0, 0.0], dtype=complex), cfg)
    with pytest.raises(DomainError):
        nu.neutrino_evolve(nu.NeutrinoConfig(0.01), t_end, 1.0, sample_stride=1)
    fields = dirac.EMFieldConfig((0.001, 0.0, 0.0), (0.0, 0.0, 0.05))
    with pytest.raises(DomainError):
        dirac.bmt_evolve(fields, dirac.rest_momentum(1.0), (0, 0, 1.0), t_end, 1.0,
                         sample_stride=1)
    with pytest.raises(DomainError):
        _grid(1e15, 1.0)  # 7 PiB of sample times if it were allocated


def _rk4_density(h, stride, n=10):
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.0))
    rho0 = bloch_to_density((0.3, 0.0, 0.4))
    return evolve(gen, rho0, IntegratorConfig(t_end=n * h, step=h, sample_stride=stride)), rho0


def _rk4_ket(h, stride, n=10):
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.0))
    psi0 = np.array([0.6, 0.8], dtype=complex)
    cfg = IntegratorConfig(t_end=n * h, step=h, sample_stride=stride)
    return evolve_state_vector(gen, psi0, cfg), psi0


def _neutrino(h, stride, n=10):
    c = nu.NeutrinoConfig(energy_gev=0.01, mode="damping")
    return nu.neutrino_evolve(c, n * h, h, sample_stride=stride), np.array([1.0, 0.0])


def _bmt(h, stride, n=10):
    fields = dirac.EMFieldConfig((0.001, 0.0, 0.0), (0.0, 0.0, 0.05))
    p0, xi0 = dirac.rest_momentum(1.0), np.array([0.0, 0.0, 1.0])
    traj = dirac.bmt_evolve(fields, p0, xi0, n * h, h, sample_stride=stride)
    return traj, np.column_stack([p0, dirac.polarization_fourvector(p0, xi0, 1.0)])


STEPPERS = [_rk4_density, _rk4_ket, _neutrino, _bmt]


@pytest.mark.parametrize("run", STEPPERS)
def test_every_stepper_samples_on_the_shared_grid(run):
    # 10 steps at stride 3: t = 0, steps 3, 6, 9 and the last
    h = 0.01
    traj, y0 = run(h, 3)
    assert np.array_equal(traj.times, np.array([0, 3, 6, 9, 10]) * h)
    assert np.array_equal(traj.states[0], y0)
    assert traj.states.shape == (5,) + y0.shape


@pytest.mark.parametrize("run", STEPPERS)
def test_a_zero_horizon_is_the_single_start_sample(run):
    traj, y0 = run(0.01, 3, n=0)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.states, y0[None])


@pytest.mark.parametrize("run", STEPPERS)
@pytest.mark.parametrize("stride", [0, -5])
def test_every_stepper_refuses_a_stride_below_one(run, stride):
    with pytest.raises(DomainError, match="sample_stride must be at least 1"):
        run(0.01, stride)


def test_trajectory_validation():
    rho = bloch_to_density((0, 0, 1))
    with pytest.raises(Exception):
        Trajectory(times=np.array([0.0, 0.0]), states=(rho, rho))
    t = Trajectory(times=np.array([0.0, 1.0]), states=(rho, rho))
    assert len(t) == 2 and np.allclose(t.final_state, rho)

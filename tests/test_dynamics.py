import math
import tracemalloc

import numpy as np
import pytest

from qdsim import dynamics
from qdsim.dynamics import (
    Generator,
    IntegratorConfig,
    RateFamily,
    Trajectory,
    _coordinate_rate,
    _from_coordinates,
    _lift_chunks,
    _to_coordinates,
    closed_form_propagate,
    evolve,
    evolve_lift,
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
from qdsim.linalg import SIGMA_X, SIGMA_Z, dagger, frobenius, pauli_components, pauli_dot
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
        rate, at = _coordinate_rate(gen, dim)
        (b,) = at(np.zeros(1))
        rate = _from_coordinates(rate(b, y), dim)
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
    # validated once when the family is made; the B(t) that evolve steps
    # is that of Generator(H, magnitude(t) * sigma_g) bit for bit, and
    # family(t) is that Generator
    omega, g_dir = (0.00225, 0.0012990381056766578, -0.0015), (0.43, -0.75, -0.5)
    profile = inverted_morse_profile(0.007, 0.0005)
    family = qubit_rate_generator(omega, g_dir, profile)
    h, sig_g = 0.5 * pauli_dot(omega), 0.5 * pauli_dot(g_dir)
    times = (0.0, 0.25, 2821.0, 35000.0)
    stack = family._b_at(np.array(times))
    assert stack.shape == (4, 5, 4)
    for t, b in zip(times, stack):
        want = Generator(h, profile(t) * sig_g)
        assert np.array_equal(b, want._b)
        got = family(t)
        for attr in ("hamiltonian", "damping", "_m"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.lindblads == () and got._lpairs == ()
    for bad in (math.inf, -math.inf, math.nan):
        bad_family = qubit_rate_generator(omega, g_dir, lambda t: bad)
        with pytest.raises(ValidityError, match="operator contains non-finite entries"):
            bad_family._b_at(np.array([0.5, 1.0]))
        with pytest.raises(ValidityError, match="operator contains non-finite entries"):
            bad_family(1.0)
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


def test_rate_family_of_constant_magnitude_retraces_the_autonomous_run():
    omega, g_dir = (0.0, 0.0, 3.0), (1.0, 0.0, 0.5)
    family = qubit_rate_generator(omega, g_dir, lambda t: 1.0)
    rho0 = bloch_to_density((0.3, 0.0, 0.8))
    cfg = IntegratorConfig(t_end=1.0, step=0.1, sample_stride=3)
    varying = evolve(family, rho0, cfg)
    constant = evolve(Generator.qubit(omega, g_dir), rho0, cfg)
    assert np.array_equal(varying.times, constant.times)
    assert np.array_equal(varying.states, constant.states)


def _textbook_rk4(family, rho0, h, n_steps, stride):
    """RK4 on evolve's coordinates with family(t)._b built at each stage
    time i h, i h + h/2 and i h + h, sampled as evolve samples."""
    def rate(t, y):
        z = family(t)._b.dot(y)
        return z[:-1] - y * z[-1]

    y = _to_coordinates(rho0)
    samples = [y]
    for i in range(n_steps):
        t = i * h
        k1 = rate(t, y)
        k2 = rate(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rate(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rate(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(y)
    return _from_coordinates(np.array(samples), rho0.shape[0])


@pytest.mark.parametrize("stride, block_entries", [
    (1, None), (7, None),
    # 60 entries hold three steps of the qubit's 5 x 4 B: a stride of 7
    # spans three blocks and one of 40 fourteen
    (7, 60), (40, 60),
])
@pytest.mark.parametrize("constant", [False, True], ids=["morse", "constant"])
def test_evolve_of_a_rate_family_is_the_textbook_rk4_loop_bit_for_bit(
        monkeypatch, stride, block_entries, constant):
    if block_entries is not None:
        monkeypatch.setattr(dynamics, "_STAGE_BLOCK_ENTRIES", block_entries)
    omega, g_dir = (0.00225, 0.0012990381056766578, -0.0015), np.array([0.43, -0.75, -0.5])
    if constant:  # the Morse gain at t = 0
        family = qubit_rate_generator(omega, 0.007 * g_dir, lambda t: 1.0)
    else:
        family = qubit_rate_generator(omega, g_dir, inverted_morse_profile(0.007, 0.0005))
    rho0 = bloch_to_density((-0.5, -0.5, -0.5))
    h, n = 25.0, 40
    traj = evolve(family, rho0, IntegratorConfig(t_end=n * h, step=h, sample_stride=stride))
    assert np.array_equal(traj.states, _textbook_rk4(family, rho0, h, n, stride))


def test_a_rate_family_builds_its_matrices_on_first_use():
    family = qubit_rate_generator((0.0, 0.0, 3.0), (1.0, 0.0, 0.5),
                                  inverted_morse_profile(0.007, 0.0005))
    parts = (family.base, family.slope)
    assert not any("_b" in vars(gen) for gen in parts)
    family(2.0)
    assert not any("_b" in vars(gen) for gen in parts)
    evolve(family, bloch_to_density((0.3, 0.0, 0.8)), IntegratorConfig(t_end=1.0, step=0.5))
    assert all("_b" in vars(gen) for gen in parts)


def test_the_coordinate_maps_share_one_read_only_triangle_per_dimension():
    rows, cols = dynamics._upper_triangle(3)
    assert dynamics._upper_triangle(3)[0] is rows
    want_rows, want_cols = np.triu_indices(3, 1)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    for index in (rows, cols):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 2


def test_a_long_rate_family_run_holds_one_block_of_stage_matrices():
    # 20000 steps of the qubit's 5 x 4 B(t) at three stages are 9.6 MB of
    # stacks unblocked (a 13.2 MB peak); a block keeps it near 1 MB
    family = qubit_rate_generator((0.00225, 0.0012990381056766578, -0.0015), (0.43, -0.75, -0.5),
                                  inverted_morse_profile(0.007, 0.0005))
    rho0 = bloch_to_density((-0.5, -0.5, -0.5))
    cfg = IntegratorConfig(t_end=10000.0, step=0.5, sample_stride=10 ** 9)
    evolve(family, rho0, IntegratorConfig(t_end=1.0, step=0.5))  # B_base, B_slope built
    tracemalloc.start()
    try:
        evolve(family, rho0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


MORSE_XI = (-0.5773502691896258,) * 3


def _morse_family():
    """The shipped instability_morse family, with g a unit direction as run makes it."""
    g = np.array((0.4330127018922193, -0.75, -0.5))
    return qubit_rate_generator((0.00225, 0.0012990381056766578, -0.0015), g / np.linalg.norm(g),
                                inverted_morse_profile(0.007, 0.0005))


def test_the_lift_of_the_shipped_morse_run_is_evolve_to_rounding():
    # two discretisations of one flow: RK4 on the linear lift and RK4 on
    # the nonlinear density coordinates, 7.8e-13 apart over the shipped
    # 70000 steps; every lift sample is Hermitian bit for bit
    family, rho0 = _morse_family(), bloch_to_density(MORSE_XI)
    cfg = IntegratorConfig(t_end=35000.0, step=0.5, sample_stride=20)
    lift, ode = evolve_lift(family, rho0, cfg), evolve(family, rho0, cfg)
    assert np.array_equal(lift.times, ode.times)
    assert np.array_equal(lift.states, dagger(lift.states))
    gap = np.linalg.norm(pauli_components(lift.states) - pauli_components(ode.states), axis=1)
    assert gap.max() <= 1e-11


def test_the_morse_lift_is_fourth_order_against_evolve():
    # on a 500-unit grid to t = 10000, against evolve at step 1.25, the
    # gap reads 8.4e-7, 5.2e-8, 3.3e-9 and 2.0e-10 at steps 50, 25, 12.5
    # and 6.25: 16x per halved step. With the earlier step on the left of
    # the tree product the gap stays near 0.048 at every step
    family, rho0 = _morse_family(), bloch_to_density(MORSE_XI)
    ref = evolve(family, rho0, IntegratorConfig(t_end=10000.0, step=1.25, sample_stride=400))
    gaps = []
    for h in (50.0, 25.0, 12.5, 6.25):
        traj = evolve_lift(family, rho0, IntegratorConfig(10000.0, h, round(500.0 / h)))
        assert np.array_equal(traj.times, ref.times)
        gaps.append(np.linalg.norm(pauli_components(traj.states)
                                   - pauli_components(ref.states), axis=1).max())
    assert all(coarse >= 10.0 * fine for coarse, fine in zip(gaps, gaps[1:]))


def test_a_long_lift_run_holds_one_block_of_step_matrices():
    # 20000 steps in one stride multiply block by block: blocks of 1024
    # steps keep the peak near 0.44 MB, where all steps at once are 8 MB
    family, rho0 = _morse_family(), bloch_to_density((-0.5, -0.5, -0.5))
    evolve_lift(family, rho0, IntegratorConfig(t_end=1.0, step=0.5))
    tracemalloc.start()
    try:
        evolve_lift(family, rho0, IntegratorConfig(10000.0, 0.5, sample_stride=10 ** 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e5


def test_the_lift_reads_its_magnitude_through_the_family():
    # a constant magnitude is broadcast as evolve broadcasts it, bit for
    # bit its array-valued twin; a non-finite one is refused as evolve
    # refuses it
    omega, g_dir = (0.0, 0.0, 3.0), (1.0, 0.0, 0.5)
    rho0 = bloch_to_density((0.3, 0.0, 0.8))
    cfg = IntegratorConfig(t_end=1.0, step=0.01, sample_stride=7)
    scalar = qubit_rate_generator(omega, g_dir, lambda t: 1.5)
    array = qubit_rate_generator(omega, g_dir, lambda t: np.full(np.shape(t), 1.5))
    for stride in (1, 7, 100):
        assert (list(_lift_chunks(scalar, 0.01, 100, stride))
                == list(_lift_chunks(array, 0.01, 100, stride)))
    assert np.array_equal(evolve_lift(scalar, rho0, cfg).states,
                          evolve_lift(array, rho0, cfg).states)
    infinite = qubit_rate_generator(omega, g_dir, lambda t: math.inf)
    for step in (evolve, evolve_lift):
        with pytest.raises(ValidityError, match="^operator contains non-finite entries$"):
            step(infinite, rho0, cfg)


def test_the_lift_refuses_the_first_stiff_step():
    # M = (1 + t) sigma_x / 2 has the real pair +-(1 + t) / 2, so RK4's
    # decay ratio of the normalised image is resolved while h (1 + t) / 2
    # stays within 1.3926, half RK4's real stability interval. A constant
    # rate runs on either side of the amplitude guard's bound; the
    # growing one is refused at the end of its first step whose last
    # stage passes it (i h + h > 26.85 at h = 0.1), where it runs without
    # the stiff-step guard
    rho0 = bloch_to_density((0.0, 0.0, 1.0))
    unit = qubit_rate_generator((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), lambda t: 1.0)
    assert len(evolve_lift(unit, rho0, IntegratorConfig(2.78, 2.78))) == 2
    with pytest.raises(IntegrationDivergedError) as err:
        evolve_lift(unit, rho0, IntegratorConfig(2.79, 2.79))
    assert str(err.value) == ("stiff step: h times the spectral radius of M is 1.395e+00, "
                              "past 1.3926 (half RK4's real stability interval) (at t=2.79)")
    growing = qubit_rate_generator((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), lambda t: 1.0 + t)
    cfg = IntegratorConfig(t_end=100.0, step=0.1, sample_stride=50)
    with pytest.raises(IntegrationDivergedError, match="^stiff step") as err:
        evolve_lift(growing, rho0, cfg)
    assert err.value.time == pytest.approx(26.9)
    assert len(list(_lift_chunks(growing, 0.1, 1000, 50))) == 20


def test_steppers_refuse_what_they_cannot_step_in_one_line():
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.5))
    family = qubit_rate_generator((0.0, 0.0, 3.0), (1.0, 0.0, 0.5), lambda t: 1.0)
    cfg = IntegratorConfig(t_end=1.0, step=0.1)
    with pytest.raises(UnsupportedModeError,
                       match="^evolve steps a Generator or a RateFamily, not function$"):
        evolve(lambda t: gen, bloch_to_density((0.3, 0.0, 0.8)), cfg)
    three = RateFamily(Generator(np.zeros((3, 3)), np.eye(3)), Generator(np.eye(3), np.zeros((3, 3))),
                       lambda t: 1.0)
    for bad in (gen, three):
        with pytest.raises(UnsupportedModeError,
                           match="^evolve_lift steps a RateFamily of dimension 2$"):
            evolve_lift(bad, bloch_to_density((0.3, 0.0, 0.8)), cfg)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for bad, kind in ((family, "RateFamily"), (lambda t: gen, "function")):
        with pytest.raises(UnsupportedModeError,
                           match=f"^evolve_state_vector steps a Generator, not {kind}$"):
            evolve_state_vector(bad, psi0, cfg)


def test_rate_family_refuses_jump_operators_and_mixed_dimensions():
    gen = Generator.qubit((0.0, 0.0, 3.0), (1.0, 0.0, 0.5))
    jump = Generator.qubit((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), (np.eye(2),))
    three = Generator(np.zeros((3, 3)), np.eye(3))
    for base, slope in ((gen, jump), (jump, gen), (gen, three)):
        with pytest.raises(UnsupportedModeError, match="^a RateFamily takes two generators "
                                                       "of one dimension without jump operators$"):
            RateFamily(base, slope, lambda t: 1.0)


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


def _lift_density(h, stride, n=10):
    family = qubit_rate_generator((0.0, 0.0, 3.0), (1.0, 0.0, 0.0), lambda t: 1.0)
    rho0 = bloch_to_density((0.3, 0.0, 0.4))
    cfg = IntegratorConfig(t_end=n * h, step=h, sample_stride=stride)
    return evolve_lift(family, rho0, cfg), rho0


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


STEPPERS = [_rk4_density, _lift_density, _rk4_ket, _neutrino, _bmt]


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

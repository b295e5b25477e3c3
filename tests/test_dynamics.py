import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from qdsim import dynamics
from qdsim import run as qdsim_run
from qdsim.dynamics import (
    Generator,
    IntegratorConfig,
    RateFamily,
    Trajectory,
    _lift_chunks,
    closed_form_propagate,
    evolve,
    evolve_state_vector,
    finite_difference_generator_check,
    gksl_rhs,
    inverted_morse_profile,
    qubit_rate_generator,
    sample_count,
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
from qdsim.qubit import QubitGeneratorParams, bloch_trajectory_general
from qdsim.run import _grid, _oracle
from qdsim.scenario import parse_scenario
from qdsim.states import bloch_to_density, density_to_bloch

from qdsim.tolerances import TOL

from conftest import (check_density_sample, check_ket_sample, family_rhs, random_density,
                      rk4_on_gksl_rhs, rk4_on_gksl_rhs_2x2, rk4_on_state_vector,
                      state_vector_rhs)

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


@pytest.mark.parametrize("lindblads", [(), (0.4 * LOWER,), (0.0 * LOWER,)])
def test_evolve_samples_from_a_hermitian_start_are_exactly_hermitian(lindblads):
    # evolve takes each sample as (x + x^dag) / tr(...) of its stepped
    # image x, so no rounding drift from Hermiticity: on both eigen routes,
    # and on the jump fallback, which a zero jump operator with a
    # nilpotent M takes
    fallback = bool(lindblads) and not lindblads[0].any()
    omega, g = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) if fallback else ((0.3, -1.1, 0.8),
                                                                    (1.0, -0.3, -0.7))
    gen = Generator.qubit(omega, g, lindblads)
    assert _takes_successive_powers(gen, 0.01) == fallback
    traj = evolve(gen, bloch_to_density((0.1, -0.2, 0.3)),
                  IntegratorConfig(t_end=50.0, step=0.01, sample_stride=500))
    assert len(traj) == 11
    for rho in traj.states:
        assert np.array_equal(rho, rho.conj().T)


def _random_generator(rng, dim, jumps):
    h, g, l = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(3))
    return Generator(0.5 * (h + h.conj().T), 0.15 * (g + g.conj().T), (0.4 * l,) * jumps)


def _rk4_on_the_linear_lift(gen, rho0, h, n_steps, stride):
    """Classical RK4 on the linear equation of a Generator less its mean
    eigenvalue, written out: K' = (M - tr M / d) K, M = G - iH, from
    K = I without jump operators, each sample K rho0 K^dag / tr(...);
    with them x' = Lambda(x) - (tr Lambda / d^2) x, Lambda(x) = M x +
    x M^dag + sum_a L_a x L_a^dag and tr Lambda = 2 d Re tr M +
    sum_a |tr L_a|^2 its trace as a map, from x = rho0, each sample
    x / tr x. The reference for evolve's lift route."""
    d = rho0.shape[0]
    m = gen.damping - 1j * gen.hamiltonian
    unit_trace = lambda x: x / np.trace(x).real
    if gen.lindblads:
        x = rho0
        mean = (2 * d * np.trace(m).real + sum(abs(np.trace(l)) ** 2 for l in gen.lindblads)) / d ** 2
        rate = lambda x: (m @ x + x @ m.conj().T + sum(l @ x @ l.conj().T for l in gen.lindblads)
                          - mean * x)
        image = unit_trace
    else:
        x = np.eye(d, dtype=complex)
        rate = lambda k: (m - np.trace(m) / d * np.eye(d)) @ k
        image = lambda k: unit_trace(k @ rho0 @ k.conj().T)
    samples = [image(x)]
    for i in range(n_steps):
        k1 = rate(x)
        k2 = rate(x + (0.5 * h) * k1)
        k3 = rate(x + (0.5 * h) * k2)
        k4 = rate(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(image(x))
    return np.array(samples)


@pytest.mark.parametrize("dim, jumps", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 2)])
def test_evolve_agrees_with_rk4_on_the_complex_right_hand_side(rng, dim, jumps):
    # evolve of a Generator is RK4 on the linear lift, normalised per
    # sample: the textbook loop on the complex matrices to rounding
    gen = _random_generator(rng, dim, jumps)
    rho0 = random_density(rng, dim)
    traj = evolve(gen, rho0, IntegratorConfig(t_end=2.0, step=0.01, sample_stride=40))
    want = _rk4_on_the_linear_lift(gen, rho0, 0.01, 200, 40)
    assert traj.states.shape == want.shape == (6, dim, dim)
    assert frobenius(traj.states - want).max() <= 1e-12


@pytest.mark.parametrize("dim, jumps", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_evolve_is_fourth_order_against_rk4_on_gksl_rhs(rng, dim, jumps):
    # the lift and RK4 on the nonlinear equation are two fourth-order
    # discretisations of one flow: their gap falls about 16x per halved
    # step (3.5e-9 to 1.5e-5 over these steps on a draw of each kind)
    gen = _random_generator(rng, dim, jumps)
    rho0 = random_density(rng, dim)
    gaps = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        stride = round(0.4 / h)
        traj = evolve(gen, rho0, IntegratorConfig(t_end=2.0, step=h, sample_stride=stride))
        want = rk4_on_gksl_rhs(lambda t, rho: gksl_rhs(gen, rho), rho0, h, round(2.0 / h), stride)
        gaps.append(frobenius(traj.states - want).max())
    assert all(coarse >= 10.0 * fine for coarse, fine in zip(gaps, gaps[1:]))


def test_the_shipped_damped_rabi_oracle_from_a_pure_start_is_the_closed_form():
    # M of omega = 6, g = 5.95 is far from normal; exact powers of the
    # step of K keep the pure samples' lower eigenvalue at -3.8e-15 and
    # 5.5e-13 from the closed form (successive products: -1.1e-11 and
    # 3.2e-11), where stepping the density coordinates without jumps
    # dips to -3.0e-9 at t = 8.112, past the floor
    scn = parse_scenario(resources.files("qdsim").joinpath(
        "scenarios", "damped_rabi_w6_g595.scn").read_text())
    p = scn.parameters
    assert tuple(p["xi"]) == (0.0, 0.0, 1.0)
    params = QubitGeneratorParams(p["omega"], p["g"])
    traj = _oracle(params.generator(), p["xi"], scn.integrator)
    assert min(np.linalg.eigvalsh(rho).min() for rho in traj.states) >= TOL.eigenvalue_floor
    want = bloch_trajectory_general(params, np.asarray(p["xi"]), traj.times)
    assert np.linalg.norm(pauli_components(traj.states) - want, axis=1).max() <= 1e-9


def test_a_coarse_parabolic_leg_is_the_closed_form():
    # criterion 07's parabolic draws: M nilpotent, a fine leg through the
    # transient, then 5920 coarse steps in one sample. Stepping K, the run
    # ends within 3e-13 of the closed form at t = 3000/k (and 6.7e-4 from
    # the asymptote, the 1/t tail); binary powers of the 4x4 step of the
    # density coordinates end 1e-5 away or dip below the eigenvalue floor
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(5):
        k = rng.uniform(1.0, 2.5)
        e1 = rng.normal(size=3)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(e1, rng.normal(size=3))
        e2 /= np.linalg.norm(e2)
        params = QubitGeneratorParams(k * e1, k * e2)
        xi = rng.uniform(-0.5, 0.5, 3)
        gen = params.generator()
        leg1 = evolve(gen, bloch_to_density(xi),
                      IntegratorConfig(40.0 / k, 0.01 / k, sample_stride=10 ** 9))
        leg2 = evolve(gen, leg1.final_state,
                      IntegratorConfig(2960.0 / k, 0.5 / k, sample_stride=10 ** 9))
        want = bloch_trajectory_general(params, xi, np.array([3000.0 / k]))[0]
        worst = max(worst, float(np.linalg.norm(pauli_components(leg2.final_state) - want)))
    assert worst <= 1e-6


@pytest.mark.parametrize("dim, jumps", [(2, 0), (2, 2), (3, 1), (4, 1)])
def test_coordinate_generator_gives_the_complex_right_hand_side(rng, dim, jumps):
    # S is the Kronecker sum M (x) I + I (x) conj(M) + sum_a L_a (x)
    # conj(L_a) bit for bit; S vec(rho), rho read row by row, is the
    # linear image Lambda(rho) that evolve's lift steps, and less
    # tr Lambda(rho) rho it is gksl_rhs
    gen = _random_generator(rng, dim, jumps)
    m, eye = gen.damping - 1j * gen.hamiltonian, np.eye(dim)
    want = np.kron(m, eye) + np.kron(eye, m.conj())
    for l in gen.lindblads:
        want = want + np.kron(l, l.conj())
    assert gen._s.shape == (dim * dim, dim * dim)
    assert np.array_equal(gen._s, want)
    for _ in range(5):
        rho = random_density(rng, dim)
        lam = (gen._s @ rho.reshape(-1)).reshape(dim, dim)
        image = dynamics._linear_image(gen._m, gen._lpairs, rho)
        assert np.abs(lam - image).max() <= 1e-13 * max(1.0, np.abs(image).max())
        rate = lam - np.trace(lam).real * rho
        assert frobenius(rate - gksl_rhs(gen, rho)) <= 1e-13 * max(1.0, frobenius(rate))


def test_evolve_refuses_an_oversized_dimension_before_building_its_matrix():
    dim = TOL.max_coordinate_dim + 1
    gen = Generator(np.zeros((dim, dim)), np.zeros((dim, dim)))
    with pytest.raises(DomainError, match=f"at most d = {TOL.max_coordinate_dim}"):
        evolve(gen, np.eye(dim) / dim, IntegratorConfig(t_end=1.0, step=0.5))
    assert "_s" not in vars(gen)
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


def test_evolve_state_vector_rejects_lindblads():
    gen = Generator.qubit((0, 0, 1), (0, 0, 0), (LOWER,))
    with pytest.raises(UnsupportedModeError, match="^state-vector form requires empty lindblads$"):
        evolve_state_vector(gen, np.array([1.0, 0.0], dtype=complex),
                            IntegratorConfig(t_end=1.0, step=0.1))


_SHIFTED = Generator(0.5 * pauli_dot((0.0, 0.0, 4.0)) + 0.7 * np.eye(2),
                     0.5 * pauli_dot((1.5, 0.0, 0.0)) + 0.3 * np.eye(2))


@pytest.mark.parametrize("gen", [Generator.qubit((0.0, 0.0, 4.0), (1.5, 0.0, 0.0)), _SHIFTED],
                         ids=["traceless", "shifted"])
@pytest.mark.parametrize("kappa", [0.0, 1.7])
def test_the_state_vector_lift_is_fourth_order_against_rk4_on_the_ket(gen, kappa):
    # RK4 on the nonlinear ket equation, one step at a time, is another
    # discretisation of the same flow: the gap of the lift's kets, phase
    # included, falls about 16x per halved step on a 0.25-unit grid (15.8
    # to 16.1). The shifted generator has tr H = 1.4, whose phase the
    # lift's mean-eigenvalue shift must put back
    psi0 = np.array([0.6, 0.8j])
    gaps = []
    for h in (0.05, 0.025, 0.0125, 0.00625):
        stride = round(0.25 / h)
        got = evolve_state_vector(gen, psi0, IntegratorConfig(2.0, h, stride), kappa).states
        want = rk4_on_state_vector(gen, psi0, h, round(2.0 / h), stride, kappa)
        assert got.shape == want.shape == (9, 2)
        gaps.append(np.abs(got - want).max())
    assert all(15.0 < coarse / fine < 17.0 for coarse, fine in zip(gaps, gaps[1:])), gaps


def test_the_state_vector_lift_refuses_a_stiff_step_as_evolve_does():
    # M = sigma_x / 2 less its mean eigenvalue has the pair +-1/2: a step
    # of 2.79 passes half RK4's real stability interval, 1.3926, and both
    # forms refuse it before any step, where 2.78 runs; a 0-step run
    # refuses nothing
    gen = Generator.qubit((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    assert len(evolve_state_vector(gen, psi0, IntegratorConfig(2.78, 2.78))) == 2
    assert len(evolve_state_vector(gen, psi0, IntegratorConfig(0.0, 2.79))) == 1
    want = ("stiff step: h times the spectral radius of M is 1.395e+00, "
            "past 1.3926 (half RK4's real stability interval) (at t=2.79)", 2.79)
    assert _raised(lambda: evolve_state_vector(gen, psi0, IntegratorConfig(2.79, 2.79))) == want
    assert _raised(lambda: evolve(gen, np.outer(psi0, psi0), IntegratorConfig(2.79, 2.79))) == want


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
    # validated once when the family is made; family(t) is
    # Generator(H, magnitude(t) * sigma_g), caches included
    omega, g_dir = (0.00225, 0.0012990381056766578, -0.0015), (0.43, -0.75, -0.5)
    profile = inverted_morse_profile(0.007, 0.0005)
    family = qubit_rate_generator(omega, g_dir, profile)
    h, sig_g = 0.5 * pauli_dot(omega), 0.5 * pauli_dot(g_dir)
    for t in (0.0, 0.25, 2821.0, 35000.0):
        want = Generator(h, profile(t) * sig_g)
        got = family(t)
        for attr in ("hamiltonian", "damping", "_m"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.lindblads == () and got._lpairs == ()
    for bad in (math.inf, -math.inf, math.nan):
        bad_family = qubit_rate_generator(omega, g_dir, lambda t: bad)
        with pytest.raises(ValidityError, match="operator contains non-finite entries"):
            bad_family(1.0)
    with pytest.raises(ValidityError):
        qubit_rate_generator(omega, (math.nan, 0.0, 0.0), profile)


def test_evolve_overflow_is_an_integration_error_without_warnings():
    # RK4 far past its stability limit would overflow between two samples;
    # under the suite's filterwarnings = error a numpy RuntimeWarning would
    # fail here. A constant Generator's step is refused as stiff before it
    # runs, and a RateFamily's at the end of its first step
    gen = Generator.qubit((0.0, 0.0, 1.0), (1e3, 0.0, 0.0))
    cfg = IntegratorConfig(t_end=100.0, step=0.1, sample_stride=1000)
    with pytest.raises(IntegrationDivergedError) as err:
        evolve(gen, bloch_to_density((0.0, 0.0, 1.0)), cfg)
    assert str(err.value) == ("stiff step: h times the spectral radius of M is 5.000e+01, "
                              "past 1.3926 (half RK4's real stability interval) (at t=0.1)")
    gen_at = qubit_rate_generator((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                  inverted_morse_profile(1e4, 0.0005))
    with pytest.raises(IntegrationDivergedError) as err:
        evolve(gen_at, bloch_to_density((0.0, 0.0, 1.0)), cfg)
    assert str(err.value) == ("stiff step: h times the spectral radius of M is 5.000e+02, "
                              "past 1.3926 (half RK4's real stability interval) (at t=0.1)")


def test_evolve_refuses_a_stiff_constant_step_by_its_spectral_radius():
    # evolve refuses a Generator's step before any step runs, in the words of
    # a family's refusal (see test_the_lift_refuses_the_first_stiff_step): M = sigma_x / 2
    # runs at h = 2.78 and is refused at h = 2.79. A nilpotent M = 100
    # |0><1| has row sum 100 but spectral radius 0: it runs at h = 0.1,
    # where RK4's step is the exact I + hM, so every sample is the closed
    # form. With jumps the radius is that of S, Lambda on vec(rho),
    # 100 for L = 10 sigma_z
    rho0 = bloch_to_density((0.3, 0.0, 0.8))
    unit = Generator.qubit((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert len(evolve(unit, rho0, IntegratorConfig(2.78, 2.78))) == 2
    with pytest.raises(IntegrationDivergedError) as err:
        evolve(unit, rho0, IntegratorConfig(2.79, 2.79))
    assert str(err.value) == ("stiff step: h times the spectral radius of M is 1.395e+00, "
                              "past 1.3926 (half RK4's real stability interval) (at t=2.79)")
    m = np.array([[0.0, 100.0], [0.0, 0.0]], dtype=complex)
    nilpotent = Generator(0.5j * (m - m.conj().T), 0.5 * (m + m.conj().T))
    traj = evolve(nilpotent, rho0, IntegratorConfig(1.0, 0.1))
    for t, rho in zip(traj.times, traj.states):
        assert frobenius(rho - closed_form_propagate(nilpotent, rho0, t)) <= 1e-12
    jump = Generator.qubit((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (10.0 * SIGMA_Z,))
    assert len(evolve(jump, rho0, IntegratorConfig(0.02, 0.01))) == 3
    with pytest.raises(IntegrationDivergedError,
                       match=r"^stiff step: h times the spectral radius of Lambda is 2\.000e\+00, "):
        evolve(jump, rho0, IntegratorConfig(0.04, 0.02))


@pytest.mark.parametrize("lindblads", [(), (LOWER,)], ids=["K", "coordinates"])
def test_a_long_growing_constant_run_neither_overflows_nor_underflows(lindblads):
    # g = (10, 0, 0): the lift grows as e^(5 t) or faster, so 20000 steps
    # in one sample take K to e^(+-1000), and vec(rho) past e^1000,
    # unless each sample's powers are divided by the largest; the state
    # settles on the top eigenvector of S, Lambda on vec(rho), taken here
    # by numpy
    gen = Generator.qubit((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), lindblads)
    traj = evolve(gen, bloch_to_density((0.3, 0.0, 0.8)),
                  IntegratorConfig(t_end=200.0, step=0.01, sample_stride=10 ** 9))
    w, v = np.linalg.eig(gen._s)
    top = v[:, np.argmax(w.real)].reshape(2, 2)
    want = top / np.trace(top)
    assert frobenius(traj.final_state - want) <= 1e-12


@pytest.mark.parametrize("lindblads", [(), (LOWER,)], ids=["K", "coordinates"])
def test_a_multiple_of_the_identity_in_g_reaches_no_sample(lindblads):
    # G -> G + cI scales the lift by a number that the normalisation
    # divides out, and evolve steps the lift less its mean eigenvalue, so
    # no sample moves. Stepped unshifted at h = 0.1, c = 13 would turn
    # the state 0.0967 rad per step instead of 0.1, about 0.3 off by
    # t = 10, and c = 20 would be refused as stiff
    rho0 = bloch_to_density((0.6, 0.0, 0.3))
    cfg = IntegratorConfig(t_end=10.0, step=0.1)
    want = evolve(Generator(0.5 * SIGMA_Z, np.zeros((2, 2)), lindblads), rho0, cfg)
    for c in (13.0, 20.0):
        shifted = Generator(0.5 * SIGMA_Z, c * np.eye(2), lindblads)
        got = evolve(shifted, rho0, cfg)
        assert frobenius(got.states - want.states).max() <= 1e-14
        if not lindblads:
            for t, rho in zip(got.times, got.states):
                assert frobenius(rho - closed_form_propagate(shifted, rho0, t)) <= 1e-6


def test_rate_family_of_constant_magnitude_retraces_the_autonomous_run():
    # both step the same linear lift K' = M K with RK4 (M traceless, so
    # the Generator's mean-eigenvalue shift is zero): the family through
    # the entry arrays and trees of _lift_chunks, the Generator through
    # exact powers of one fixed step, which differ only in rounding
    omega, g_dir = (0.0, 0.0, 3.0), (1.0, 0.0, 0.5)
    family = qubit_rate_generator(omega, g_dir, lambda t: 1.0)
    gen = Generator.qubit(omega, g_dir)
    rho0 = bloch_to_density((0.3, 0.0, 0.8))
    cfg = IntegratorConfig(t_end=1.0, step=0.1, sample_stride=3)
    varying = evolve(family, rho0, cfg)
    constant = evolve(gen, rho0, cfg)
    assert np.array_equal(varying.times, constant.times)
    assert frobenius(varying.states - constant.states).max() <= 1e-14


def test_a_rate_family_builds_its_matrices_on_first_use():
    # evolve steps a family's lift from M_base and M_slope alone, so the
    # matrix S of either part is built only when read
    family = qubit_rate_generator((0.0, 0.0, 3.0), (1.0, 0.0, 0.5),
                                  inverted_morse_profile(0.007, 0.0005))
    parts = (family.base, family.slope)
    family(2.0)
    evolve(family, bloch_to_density((0.3, 0.0, 0.8)), IntegratorConfig(t_end=1.0, step=0.5))
    assert not any("_s" in vars(gen) for gen in parts)
    assert family.base._s.shape == (4, 4) and "_s" in vars(family.base)


MORSE_XI = (-0.5773502691896258,) * 3


def _morse_family():
    """The shipped instability_morse family, with g a unit direction as run makes it."""
    g = np.array((0.4330127018922193, -0.75, -0.5))
    return qubit_rate_generator((0.00225, 0.0012990381056766578, -0.0015), g / np.linalg.norm(g),
                                inverted_morse_profile(0.007, 0.0005))


def test_the_lift_of_the_shipped_morse_run_is_evolve_to_rounding():
    # two discretisations of one flow: RK4 on the linear lift (evolve) and
    # RK4 on the nonlinear equation (the test's reference), 7.8e-13 apart
    # over the shipped 70000 steps; every lift sample is Hermitian bit for
    # bit
    family, rho0 = _morse_family(), bloch_to_density(MORSE_XI)
    cfg = IntegratorConfig(t_end=35000.0, step=0.5, sample_stride=20)
    lift = evolve(family, rho0, cfg)
    ode = rk4_on_gksl_rhs_2x2(family, rho0, 0.5, 70000, 20)
    assert lift.states.shape == ode.shape
    assert np.array_equal(lift.states, dagger(lift.states))
    gap = np.linalg.norm(pauli_components(lift.states) - pauli_components(ode), axis=1)
    assert gap.max() <= 1e-11


def test_the_scalar_2x2_reference_is_rk4_on_the_complex_right_hand_side():
    # the Morse tests' reference on Python complex entries is the numpy
    # one to rounding, through the crossing near t = 2821
    family, rho0 = _morse_family(), bloch_to_density(MORSE_XI)
    scalar = rk4_on_gksl_rhs_2x2(family, rho0, 0.5, 8000, 100)
    assert np.abs(scalar - rk4_on_gksl_rhs(family_rhs(family), rho0, 0.5, 8000, 100)).max() <= 1e-13


def test_the_morse_lift_is_fourth_order_against_evolve():
    # on a 500-unit grid to t = 10000, against RK4 on the nonlinear
    # equation at step 1.25, the gap of evolve's lift falls about 16x per
    # halved step from 50 to 6.25. With the earlier step on the left of
    # the tree product the gap stays near 0.048 at every step
    family, rho0 = _morse_family(), bloch_to_density(MORSE_XI)
    ref = rk4_on_gksl_rhs_2x2(family, rho0, 1.25, 8000, 400)
    gaps = []
    for h in (50.0, 25.0, 12.5, 6.25):
        traj = evolve(family, rho0, IntegratorConfig(10000.0, h, round(500.0 / h)))
        assert traj.states.shape == ref.shape
        gaps.append(np.linalg.norm(pauli_components(traj.states)
                                   - pauli_components(ref), axis=1).max())
    assert all(coarse >= 10.0 * fine for coarse, fine in zip(gaps, gaps[1:]))


def _successive_route(gen, rho0, cfg):
    """The states of evolve of a Generator without jump operators by
    successive products of its RK4 step, written out from the parts
    _constant_powers falls back on and sampled here without its sampler:
    the product P of the steps so far is R^m P of the last sample, scaled
    by a power of two, and each sample is P rho0 P^dag / tr(...)."""
    h, stride = cfg.step, cfg.sample_stride
    step = dynamics._rk4_linear_step(h * dynamics._less_mean_eigenvalue(gen._m))
    power = dynamics._successive_powers(step, rescale=True)
    rho0 = 0.5 * (rho0 + dagger(rho0))
    p = np.eye(gen.dim, dtype=complex)
    samples = [rho0]
    n_steps = whole_steps(cfg.t_end, h)
    for done in range(0, n_steps, stride):
        p = dynamics._unit_scaled(power(min(stride, n_steps - done)) @ p)[0]
        samples.append(dynamics._normalised_image(p, rho0))
    return np.array(samples)


def _takes_successive_powers(gen, h):
    """Whether evolve of gen at step h falls back on successive powers."""
    name, x = ("Lambda", gen._s) if gen.lindblads else ("M", gen._m)
    return dynamics._step_eigenpowers(name, dynamics._less_mean_eigenvalue(x), h) is None


def test_a_nilpotent_m_takes_successive_powers_bit_for_bit():
    # g = omega with g perpendicular to omega: M - tr M / 2 is nilpotent,
    # its two computed eigenvectors nearly parallel, and exact powers
    # through them would carry cond(V) times the rounding; evolve falls
    # back on successive products, sample for sample as before
    gen = Generator.qubit((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    assert _takes_successive_powers(gen, 0.01)
    rho0 = bloch_to_density((0.3, -0.2, 0.5))
    cfg = IntegratorConfig(t_end=20.0, step=0.01, sample_stride=150)
    assert np.array_equal(evolve(gen, rho0, cfg).states, _successive_route(gen, rho0, cfg))


def _jordan_and_growing(lindblads=()):
    """A 3-level generator whose M = G - iH is a nilpotent qubit block
    (g = omega, perpendicular) beside the gain 1.5 of level 2: the Jordan
    block makes V ill-conditioned, and M less its mean eigenvalue grows
    level 2 by e^t against the block."""
    h, g = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    h[:2, :2], g[:2, :2], g[2, 2] = 0.5 * SIGMA_Z, 0.5 * SIGMA_X, 1.5
    return Generator(h, g, lindblads)


@pytest.mark.parametrize("stride, t_end", [(10, 1000.0), (10000, 3000.0)])
@pytest.mark.parametrize("lindblads", [(), (np.zeros((3, 3)),)], ids=["K", "coordinates"])
def test_a_fallback_rescales_what_it_steps(lindblads, stride, t_end):
    # successive products grow by e^t, past the double range by t = 710:
    # at stride 10 over the samples, which each sample's power of two
    # rescales, and at stride 10000 within one power, which
    # _successive_powers rescales every _RESCALE_EVERY steps. Rescaled,
    # the state runs to level 2's projector
    gen = _jordan_and_growing(lindblads)
    assert _takes_successive_powers(gen, 0.1)
    rho0 = (np.eye(3) + np.ones((3, 3))) / 6.0  # mixed: RK4 on S keeps it positive
    traj = evolve(gen, rho0, IntegratorConfig(t_end, 0.1, stride))
    assert np.abs(traj.final_state - np.diag([0.0, 0.0, 1.0])).max() <= 1e-12


def test_the_shipped_parabolic_oracle_falls_back_on_successive_powers(monkeypatch):
    # parabolic_equalization's closed-form-vs-ode oracle: at
    # TOL.eigenvector_cond = 1e6 it falls back and reads 8.1e-16 from the
    # closed form; exact powers would read it through nearly parallel
    # eigenvectors
    scn = parse_scenario(resources.files("qdsim").joinpath(
        "scenarios", "parabolic_equalization.scn").read_text())
    params = QubitGeneratorParams(scn.parameters["omega"], scn.parameters["g"])
    gen, xi = params.generator(), scn.parameters["xi"]
    cfgs = []
    monkeypatch.setattr(qdsim_run, "evolve",
                        lambda gen, rho0, cfg: cfgs.append(cfg) or evolve(gen, rho0, cfg))
    traj = _oracle(gen, xi, scn.integrator)
    (cfg,) = cfgs
    assert _takes_successive_powers(gen, cfg.step)
    assert np.array_equal(traj.states, _successive_route(gen, bloch_to_density(xi), cfg))


@pytest.mark.parametrize("lindblads", [(), (0.4 * LOWER,)], ids=["K", "coordinates"])
def test_a_long_constant_run_holds_one_block_of_samples(lindblads):
    # exact powers compute _SAMPLE_BLOCK samples at a time: 20001 samples
    # peak at 1.4 times the stored trajectory, where all samples at once
    # peak at 4.9 (K) and 4.4 (vec(rho), with jumps) times
    gen = Generator.qubit((0.3, -1.1, 0.8), (1.0, -0.3, -0.7), lindblads)
    rho0 = bloch_to_density((0.1, -0.2, 0.3))
    evolve(gen, rho0, IntegratorConfig(t_end=1.0, step=0.01))
    tracemalloc.start()
    try:
        traj = evolve(gen, rho0, IntegratorConfig(t_end=200.0, step=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not _takes_successive_powers(gen, 0.01) and len(traj) == 20001
    assert peak < 1.6 * traj.states.nbytes


def test_a_long_lift_run_holds_one_block_of_step_matrices():
    # 20000 steps in one stride multiply block by block: blocks of 1024
    # steps keep the peak near 0.44 MB, where all steps at once are 8 MB
    family, rho0 = _morse_family(), bloch_to_density((-0.5, -0.5, -0.5))
    evolve(family, rho0, IntegratorConfig(t_end=1.0, step=0.5))
    tracemalloc.start()
    try:
        evolve(family, rho0, IntegratorConfig(10000.0, 0.5, sample_stride=10 ** 9))
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
    assert np.array_equal(evolve(scalar, rho0, cfg).states,
                          evolve(array, rho0, cfg).states)
    infinite = qubit_rate_generator(omega, g_dir, lambda t: math.inf)
    with pytest.raises(ValidityError, match="^operator contains non-finite entries$"):
        evolve(infinite, rho0, cfg)


@pytest.mark.parametrize("stride", [1, 5, 7])
@pytest.mark.parametrize("family", ["msw", "damping", "morse"])
def test_the_lift_products_do_not_depend_on_the_block_size(monkeypatch, family, stride):
    # every step is built from its own stage times and every run of
    # stride steps multiplied by its own tree, so blocks of 7 steps, which
    # hold whole runs of 1, 5 or 7 steps, give the products of blocks of
    # 1024 bit for bit, the short last run of 2000 steps included
    if family == "morse":
        fam, h, refuse_stiff = _morse_family(), 0.5, True
    else:
        fam = nu.NeutrinoConfig(energy_gev=0.01, mode=family, v_scale=8e-5).generator()
        h, refuse_stiff = 1.0, False
    want = list(_lift_chunks(fam, h, 2000, stride, refuse_stiff))
    monkeypatch.setattr(dynamics, "_LIFT_BLOCK", 7)
    assert list(_lift_chunks(fam, h, 2000, stride, refuse_stiff)) == want


def _shipped_bmt_run(name):
    scn = parse_scenario(resources.files("qdsim").joinpath("scenarios", f"{name}.scn").read_text())
    fields = dirac.EMFieldConfig(scn.parameters["e"], scn.parameters["b"])
    return lambda: dirac.bmt_evolve(fields, dirac.rest_momentum(1.0), scn.parameters["xi"],
                                    50.0, scn.integrator["step"], 7)


_BLOCK_ROUTES = {
    # every run stores more than one block of 256 samples, the last one short
    "eigen": lambda: evolve(Generator.qubit((0.3, -1.1, 0.8), (1.0, -0.3, -0.7)),
                            bloch_to_density((0.1, -0.2, 0.3)), IntegratorConfig(20.0, 0.01, 3)),
    "eigen-jumps": lambda: evolve(
        Generator.qubit((0.3, -1.1, 0.8), (1.0, -0.3, -0.7), (0.4 * LOWER,)),
        bloch_to_density((0.1, -0.2, 0.3)), IntegratorConfig(20.0, 0.01, 3)),
    "nilpotent": lambda: evolve(
        Generator.qubit((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
        bloch_to_density((0.3, -0.2, 0.5)), IntegratorConfig(20.0, 0.01, 3)),
    # a zero jump operator keeps M nilpotent and steps vec(rho)
    "nilpotent-jumps": lambda: evolve(
        Generator.qubit((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0 * LOWER,)),
        bloch_to_density((0.3, -0.2, 0.5)), IntegratorConfig(20.0, 0.01, 3)),
    "morse": lambda: evolve(_morse_family(), bloch_to_density(MORSE_XI),
                            IntegratorConfig(3000.0, 0.5, 7)),
    "state-vector": lambda: evolve_state_vector(
        Generator.qubit((6.0, 0.0, 0.0), (0.0, 0.0, 4.0)), np.array([0.6, 0.8j]),
        IntegratorConfig(2.0, 1e-3, 3)),
    # past CUTOFF_KM both modes take powers of the vacuum step
    "neutrino-msw": lambda: nu.neutrino_evolve(
        nu.NeutrinoConfig(energy_gev=0.01, mode="msw", v_scale=8e-5), 600000.0, 10.0, 173),
    "neutrino-damping": lambda: nu.neutrino_evolve(
        nu.NeutrinoConfig(energy_gev=0.01, mode="damping", v_scale=8e-5), 600000.0, 10.0, 173),
    "bmt-a": _shipped_bmt_run("bmt_spin_damping_a"),
    "bmt-b": _shipped_bmt_run("bmt_spin_damping_b"),
    "bmt-null-field": lambda: dirac.bmt_evolve(
        dirac.EMFieldConfig((0.1, 0.0, 0.0), (0.0, 0.1, 0.0)), dirac.rest_momentum(1.0),
        (0.6, 0.0, 0.8), 50.0, 0.01, 7),
}


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("route", sorted(_BLOCK_ROUTES))
def test_no_route_depends_on_the_sample_block_size(monkeypatch, route, block):
    # a stepping route keeps its state from one block to the next, and a
    # from-start route takes one product per sample, so blocks of 1 or 7
    # samples give the times and states of blocks of 256 bit for bit
    want = _BLOCK_ROUTES[route]()
    assert len(want) > 256
    monkeypatch.setattr(dynamics, "_SAMPLE_BLOCK", block)
    got = _BLOCK_ROUTES[route]()
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)


def _raised(run):
    """(message, time) of the IntegrationDivergedError run() raises, or None."""
    try:
        run()
    except IntegrationDivergedError as err:
        assert type(err.time) is float
        return str(err), err.time
    return None


def _first_breach(check_sample, states, times):
    """_raised of the per-sample reference guard applied to each sample in turn."""
    def run():
        for y, t in zip(states, times.tolist()):
            check_sample(y, t)
    return _raised(run)


def _density_breaches(at):
    """(name, stack of 300 density matrices) with the named breaches: each
    kind at each index of at, two breaches in one stack, and none."""
    base = np.repeat(bloch_to_density((0.3, -0.2, 0.5))[None], 300, axis=0)
    nan, inf = base[0].copy(), base[0].copy()
    nan[0, 1] = nan[1, 0] = math.nan
    inf[1, 1] = math.inf  # and so a trace breach
    kinds = {"nan": nan, "inf": inf, "trace": base[0] * (1.0 + 3e-8),
             "eigenvalue": np.diag([1.0 + 2e-9, -2e-9]).astype(complex),
             "trace+eigenvalue": np.diag([1.1, -0.05]).astype(complex)}
    for name, bad in kinds.items():
        for k in at:
            states = base.copy()
            states[k] = bad
            yield f"{name}@{k}", states
    for (a, ka), (b, kb) in [(("eigenvalue", 3), ("trace", 9)), (("trace", 3), ("nan", 9)),
                             (("eigenvalue", 9), ("inf", 3)), (("nan", 200), ("trace", 250))]:
        states = base.copy()
        states[ka], states[kb] = kinds[a], kinds[b]
        yield f"{a}@{ka}+{b}@{kb}", states
    yield "none", base


def _ket_breaches(at):
    base = np.repeat(np.array([[0.6, 0.8j]]), 300, axis=0)
    kinds = {"nan": np.array([math.nan, 0.8j]), "inf": np.array([math.inf, 0.0]),
             "norm": np.array([0.6, 0.8j]) * (1.0 + 3e-8)}
    for name, bad in kinds.items():
        for k in at:
            states = base.copy()
            states[k] = bad
            yield f"{name}@{k}", states
    states = base.copy()
    states[40], states[90] = kinds["norm"], kinds["nan"]
    yield "norm@40+nan@90", states
    yield "none", base


@pytest.mark.parametrize("guard, reference, stacks", [
    (dynamics._check_density_block, check_density_sample, _density_breaches),
    (dynamics._check_ket_block, check_ket_sample, _ket_breaches),
], ids=["density", "ket"])
def test_the_block_guards_raise_as_the_per_sample_guards(guard, reference, stacks):
    # each block guard names the first bad sample with the message and
    # time of the per-sample guard applied in order; at one sample,
    # non-finite entries beat the trace, which beats the eigenvalue floor
    times = np.arange(300) * 0.25
    for name, states in stacks((0, 255, 256)):
        want = _first_breach(reference, states, times)
        assert (name == "none") == (want is None), name
        assert _raised(lambda: guard(states, times)) == want, name


def test_the_sampler_finds_a_breach_on_either_side_of_a_block_boundary():
    # sample 256 closes the first block of _SAMPLE_BLOCK samples and 257
    # opens the second; y0 at t = 0 is stored as given
    for name, states in _density_breaches((1, 256, 257)):
        want = _first_breach(check_density_sample, states[1:], np.arange(1, 300) * 0.5)
        got = _raised(lambda: dynamics._sampled(lambda ns: states[ns], states[0], 299, 0.5, 1,
                                                dynamics._check_density_block))
        assert got == want, name


def _failing_route(breach_at):
    """A stepping route whose advance raises at the end of step 9 and
    whose state leaves the trace bound at step breach_at."""
    rho0 = bloch_to_density((0.3, -0.2, 0.5))
    done = 0

    def advance(rho, m):
        nonlocal done
        done += m
        if done == 9:
            raise IntegrationDivergedError("amplitude norm left (0, 2)", 0.9)
        return rho * (1.0 + 3e-8) if done == breach_at else rho

    return _raised(lambda: dynamics._sampled(dynamics._stepped(advance, rho0), rho0, 20, 0.1, 1,
                                             dynamics._check_density_block))


def test_a_stepping_route_that_fails_partway_vets_its_block_first():
    # the breach at step 5 lies in the block that step 9 cuts short, and
    # is raised, as when each sample was vetted before the next step
    assert _failing_route(5) == ("trace drift 3.000e-08 (at t=0.5)", 0.5)
    assert _failing_route(None) == ("amplitude norm left (0, 2) (at t=0.9)", 0.9)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_stacked_eigvalsh_and_row_dots_round_as_one_matrix_at_a_time(rng, d):
    # the block guards read a stack where the per-sample guards read one
    # sample: eigvalsh, the trace, the ket norm and the Minkowski products
    # must round alike, or a breach could move by a sample
    rho = np.array([random_density(rng, d) for _ in range(200)])
    assert np.array_equal(np.linalg.eigvalsh(rho), [np.linalg.eigvalsh(r) for r in rho])
    assert np.array_equal(np.trace(rho, axis1=1, axis2=2), [np.trace(r) for r in rho])
    psi = rng.normal(size=(200, d)) + 1j * rng.normal(size=(200, d))
    norms = np.sqrt(dynamics._row_dots(psi.real, psi.real) + dynamics._row_dots(psi.imag, psi.imag))
    assert np.array_equal(norms, [np.linalg.norm(p) for p in psi])
    x, y = rng.normal(size=(2, 200, 4))
    minkowski = x[:, 0] * y[:, 0] - dynamics._row_dots(x[:, 1:], y[:, 1:])
    assert np.array_equal(minkowski, [dirac.minkowski_dot(a, b) for a, b in zip(x, y)])


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
    assert len(evolve(unit, rho0, IntegratorConfig(2.78, 2.78))) == 2
    with pytest.raises(IntegrationDivergedError) as err:
        evolve(unit, rho0, IntegratorConfig(2.79, 2.79))
    assert str(err.value) == ("stiff step: h times the spectral radius of M is 1.395e+00, "
                              "past 1.3926 (half RK4's real stability interval) (at t=2.79)")
    growing = qubit_rate_generator((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), lambda t: 1.0 + t)
    cfg = IntegratorConfig(t_end=100.0, step=0.1, sample_stride=50)
    with pytest.raises(IntegrationDivergedError, match="^stiff step") as err:
        evolve(growing, rho0, cfg)
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
    with pytest.raises(UnsupportedModeError, match="^evolve steps a RateFamily of dimension 2$"):
        evolve(three, bloch_to_density((0.3, 0.0, 0.8)), cfg)
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
    return evolve(family, rho0, cfg), rho0


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

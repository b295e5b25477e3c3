import math

import numpy as np
import pytest

from qdsim.errors import DomainError, IntegrationDivergedError, PreconditionError, ValidityError
from qdsim.models import dirac
from qdsim.qubit import bloch_trajectory_general, sl2c_coefficients


def boosted_momentum(mass, c, rapidity, direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return mass * c * np.array(
        [np.cosh(rapidity), *(np.sinh(rapidity) * d)]
    )


FIELDS = dirac.EMFieldConfig(
    np.array([0.001, 0.0, 0.0]),
    np.array([0.08660254037844387, 0.0, 0.05]),
)


def test_gamma_algebra():
    gammas = dirac.weyl_gammas()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        for nu in range(4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            assert np.allclose(anti, 2.0 * eta[mu, nu] * np.eye(4), atol=1e-12)


def test_sigma_map_round_trip(rng):
    x = rng.normal(size=4)
    assert np.allclose(dirac.sigma_to_four(dirac.four_to_sigma(x)), x, atol=1e-12)
    xs = rng.normal(size=(5, 4))
    stacked = np.array([dirac.four_to_sigma(v) for v in xs])
    assert np.array_equal(dirac.sigma_to_four(stacked),
                          [dirac.sigma_to_four(X) for X in stacked])
    with pytest.raises(DomainError):
        dirac.four_to_sigma(np.zeros(3))


def test_sigma_map_carries_minkowski_norm(rng):
    # det(sigma_mu x^mu) = x.x, so the conjugation preserves the interval
    x = rng.normal(size=4)
    X = dirac.four_to_sigma(x)
    assert np.linalg.det(X).real == pytest.approx(dirac.minkowski_dot(x, x), abs=1e-10)


def test_rest_momentum_on_shell():
    p = dirac.rest_momentum(2.0, 3.0)
    assert np.allclose(p, (6.0, 0.0, 0.0, 0.0))
    assert dirac.minkowski_dot(p, p) == pytest.approx(36.0)


def test_polarization_fourvector_identities(rng):
    mass, c = 1.3, 1.0
    for _ in range(10):
        xi = rng.normal(size=3)
        xi = xi / np.linalg.norm(xi) * rng.uniform(0.2, 1.0)
        p = boosted_momentum(mass, c, rng.uniform(0.0, 2.0), rng.normal(size=3))
        w = dirac.polarization_fourvector(p, xi, mass, c)
        # orthogonality and the fixed norm -(mc/2)^2 |xi|^2
        assert abs(dirac.minkowski_dot(p, w)) <= 1e-10
        want = -0.25 * (mass * c) ** 2 * float(xi @ xi)
        assert dirac.minkowski_dot(w, w) == pytest.approx(want, rel=1e-10)
        # reading the rest-frame vector back undoes the boost
        assert np.allclose(dirac.bloch_from_w(p, w, mass, c), xi, atol=1e-10)


def test_spinor_density_reduces_at_rest(rng):
    mass, c = 1.0, 1.0
    xi = np.array([0.3, -0.2, 0.5])
    theta = dirac.spinor_density(dirac.rest_momentum(mass, c), xi, mass, c)
    assert abs(np.trace(theta).real - 1.0) <= 1e-12
    assert np.allclose(dirac.bloch_from_chiral_block(theta), xi, atol=1e-12)
    assert np.allclose(
        dirac.bloch_from_spinor_density(theta, dirac.rest_momentum(mass, c), mass, c),
        xi,
        atol=1e-12,
    )


def test_spinor_density_round_trip_boosted(rng):
    mass, c = 1.0, 1.0
    for _ in range(5):
        xi = rng.normal(size=3)
        xi = xi / np.linalg.norm(xi) * 0.8
        p = boosted_momentum(mass, c, 1.2, rng.normal(size=3))
        theta = dirac.spinor_density(p, xi, mass, c)
        got = dirac.bloch_from_spinor_density(theta, p, mass, c)
        assert np.allclose(got, xi, atol=1e-10)


def test_boost_intertwiner_takes_rest_to_p(rng):
    mass, c = 1.0, 1.0
    p = boosted_momentum(mass, c, 0.9, (0.0, 1.0, 0.0))
    v = dirac.boost_intertwiner(p, mass, c)
    assert np.allclose(dirac.dirac_adjoint(v) @ v, np.eye(2), atol=1e-12)
    # the unimodular representative of the upper block boosts the
    # sigma-mapped rest momentum onto p
    ku = v[:2, :2]
    ku = ku / np.sqrt(np.linalg.det(ku))
    rest = dirac.four_to_sigma(dirac.rest_momentum(mass, c))
    got = ku @ rest @ ku.conj().T
    assert np.allclose(dirac.sigma_to_four(got), p, atol=1e-10)


def test_field_config_rates():
    # omega tracks B, g tracks E in the magnetic-moment coupling
    params = FIELDS.qubit_params
    assert np.allclose(np.cross(params.omega, FIELDS.b_field), 0.0, atol=1e-15)
    assert np.allclose(np.cross(params.g, FIELDS.e_field), 0.0, atol=1e-15)
    # omega = -(2 mu_B / hbar) B and g = (2 mu_B / (c hbar)) E, mu_B = e hbar / 2m
    mu_b = FIELDS.charge * FIELDS.hbar / (2.0 * FIELDS.mass)
    assert np.allclose(params.omega, -(2.0 * mu_b / FIELDS.hbar) * FIELDS.b_field)
    assert np.allclose(params.g, (2.0 * mu_b / (FIELDS.c * FIELDS.hbar)) * FIELDS.e_field)


def test_chiral_block_requires_positive_trace():
    with pytest.raises(ValidityError):
        dirac.bloch_from_chiral_block(np.diag([-1.0, 0.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(DomainError):
        dirac.bloch_from_chiral_block(np.eye(2, dtype=complex))
    stack = np.stack([np.eye(4, dtype=complex) / 4.0, np.diag([-1.0, 0.0, 1.0, 1.0])])
    with pytest.raises(ValidityError):
        dirac.bloch_from_chiral_block(stack)


def test_chiral_block_of_a_stack_equals_the_per_matrix_calls():
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    traj = dirac.bmt_evolve(FIELDS, p0, (0.6, 0.0, 0.8), tau_end=20.0, step=0.01,
                            sample_stride=50)
    theta = dirac.spinor_density_flow(FIELDS, p0, (0.6, 0.0, 0.8), traj.times)
    assert theta.shape == (len(traj), 4, 4)
    got = dirac.bloch_from_chiral_block(theta)
    assert got.shape == (len(traj), 3)
    assert np.array_equal(got, np.array([dirac.bloch_from_chiral_block(th) for th in theta]))


def test_bmt_evolution_routes_agree():
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    xi0 = np.array([0.0, 0.0, 1.0])
    traj = dirac.bmt_evolve(FIELDS, p0, xi0, tau_end=50.0, step=0.01, sample_stride=100)
    params = FIELDS.qubit_params
    theta = dirac.spinor_density_flow(FIELDS, p0, xi0, traj.times)

    # chiral block of Theta retraces the closed-form spin from rest
    for k, tau in enumerate(traj.times):
        want = bloch_trajectory_general(params, xi0, float(tau))
        got = dirac.bloch_from_chiral_block(theta[k])
        assert np.linalg.norm(got - want) <= 1e-10

    # four-vector transport equals the sigma-map conjugation
    xp0 = dirac.four_to_sigma(p0)
    for k, tau in enumerate(traj.times):
        ku = sl2c_coefficients(params, float(tau)).matrix()
        p_map = dirac.sigma_to_four(ku @ xp0 @ ku.conj().T)
        assert np.abs(p_map - traj.states[k, :, 0]).max() <= 1e-8


def test_bmt_invariants_short_run():
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    traj = dirac.bmt_evolve(FIELDS, p0, (0, 0, 1.0), tau_end=100.0, step=0.01,
                            sample_stride=500)
    assert traj.states.shape == (len(traj), 4, 2)
    p, w = traj.states[..., 0], traj.states[..., 1]
    mc2 = (FIELDS.mass * FIELDS.c) ** 2
    pp = p[:, 0] ** 2 - (p[:, 1:] ** 2).sum(axis=1)
    pw = p[:, 0] * w[:, 0] - (p[:, 1:] * w[:, 1:]).sum(axis=1)
    ww = w[:, 0] ** 2 - (w[:, 1:] ** 2).sum(axis=1)
    assert np.abs(pp - mc2).max() <= 1e-7 * mc2
    assert np.abs(pw).max() <= 1e-7 * mc2
    assert np.abs(ww - ww[0]).max() <= 1e-7 * mc2


def test_bmt_runs_the_shipped_horizon_within_the_invariant_guard():
    # bmt_spin_damping_a's fields to tau = 8000: R^100 built by binary
    # squaring drifts p.p, p.w and w.w past TOL.bmt_invariant_drift
    # before the end; built by successive products it does not
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    traj = dirac.bmt_evolve(FIELDS, p0, (0.0, 0.0, 1.0), tau_end=8000.0, step=0.01,
                            sample_stride=100)
    assert len(traj) == 8001 and traj.times[-1] == 8000.0


@pytest.mark.parametrize("stride, message", [
    (1000, "state has non-finite entries"),
    # p ~ 1e168 to 1e280 is finite, but p.p overflows to NaN
    pytest.param(60, "four-vector invariant drift nan beyond TOL.bmt_invariant_drift = 1e-06",
                 id="60-four-vector invariant drift nan"),
    pytest.param(100, "four-vector invariant drift nan beyond TOL.bmt_invariant_drift = 1e-06",
                 id="100-four-vector invariant drift nan"),
])
def test_bmt_refuses_an_overflowing_sample(stride, message):
    # the step grows the state by about 600 between samples; NaN used to
    # pass the invariant check (nan > tol is False), so the run stored it
    fields = dirac.EMFieldConfig((1e3, 0.0, 0.0), (0.0, 0.0, 0.05))
    tau_end = stride * 0.01
    with pytest.raises(IntegrationDivergedError) as err:
        dirac.bmt_evolve(fields, dirac.rest_momentum(1.0), (0, 0, 1.0), tau_end=tau_end,
                         step=0.01, sample_stride=stride)
    assert str(err.value) == f"{message} (at t={tau_end!r})"


def test_bmt_lab_time_outruns_proper_time():
    # an accelerating electric field makes t_lab grow faster than tau
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    traj = dirac.bmt_evolve(FIELDS, p0, (0, 0, 1.0), tau_end=200.0, step=0.01,
                            sample_stride=2000)
    t_lab = dirac.lab_time(FIELDS, traj.times, traj.states[..., 0])
    assert t_lab[-1] > traj.times[-1]
    assert (np.diff(t_lab) > 0.0).all()


def test_bmt_invariant_drift_aborts_at_the_sample():
    # a strong electric field at step 1 breaks p.p by the first stored sample
    fields = dirac.EMFieldConfig((0.5, 0.0, 0.0), (3.0, 0.0, 0.0))
    with pytest.raises(IntegrationDivergedError) as err:
        dirac.bmt_evolve(fields, dirac.rest_momentum(1.0), (0, 0, 1.0), tau_end=20.0,
                         step=1.0, sample_stride=5)
    assert str(err.value) == ("four-vector invariant drift 1.467e+01 beyond "
                              "TOL.bmt_invariant_drift = 1e-06 (at t=5.0)")
    assert type(err.value.time) is float and err.value.time == 5.0


def test_bmt_rejects_off_shell_start():
    with pytest.raises(PreconditionError):
        dirac.bmt_evolve(FIELDS, np.array([1.0, 0.9, 0.0, 0.0]), (0, 0, 1.0),
                         tau_end=1.0, step=0.01)
    with pytest.raises(PreconditionError):
        # negative-energy branch
        dirac.bmt_evolve(FIELDS, np.array([-1.0, 0.0, 0.0, 0.0]), (0, 0, 1.0),
                         tau_end=1.0, step=0.01)
    with pytest.raises(PreconditionError):
        # p.p = inf - inf: nan, which no tolerance accepts
        dirac.bmt_evolve(FIELDS, np.array([1e160, 1e160, 0.0, 0.0]), (0, 0, 1.0),
                         tau_end=1.0, step=0.01)


@pytest.mark.parametrize("mass", [1e200, 1e-200])
def test_a_mass_shell_outside_double_range_is_refused(mass):
    # (mc)^2 overflows to inf or underflows to 0: each function that
    # checks the shell raises DomainError, not OverflowError
    p = dirac.rest_momentum(mass)
    calls = (lambda: dirac.boost_intertwiner(p, mass),
             lambda: dirac.polarization_fourvector(p, (0, 0, 1.0), mass),
             lambda: dirac.bloch_from_w(p, np.zeros(4), mass),
             lambda: dirac.bmt_evolve(dirac.EMFieldConfig(FIELDS.e_field, FIELDS.b_field,
                                                          mass=mass), p, (0, 0, 1.0), 1.0, 0.01))
    for call in calls:
        with pytest.raises(DomainError, match="not a positive finite double"):
            call()


def test_a_mass_whose_boost_overflows_is_refused():
    # (mc)^2 is a finite double at mass 1e154, but 2 mc (p0 + mc) is not:
    # under filterwarnings = error an overflow warning would fail here
    for mass in (1e154, 7e153):
        with pytest.raises(DomainError, match="2 mc \\(p0 \\+ mc\\) overflows a double"):
            dirac.boost_intertwiner(dirac.rest_momentum(mass), mass)
    v = dirac.boost_intertwiner(dirac.rest_momentum(6e153), 6e153)
    assert np.isfinite(v).all()


@pytest.mark.parametrize("tau_end, step", [(math.inf, 0.01), (math.nan, 0.01), (1.0, 0.3)])
def test_bmt_rejects_a_horizon_off_the_step_grid(tau_end, step):
    p0 = dirac.rest_momentum(FIELDS.mass, FIELDS.c)
    with pytest.raises(DomainError):
        dirac.bmt_evolve(FIELDS, p0, (0, 0, 1.0), tau_end=tau_end, step=step)


def test_field_tensor_layout():
    m = dirac.field_tensor_mixed(FIELDS)
    e, b = FIELDS.e_field, FIELDS.b_field
    assert np.allclose(m[0, 1:], -e / FIELDS.c)
    assert np.allclose(m[1:, 0], -e / FIELDS.c)
    # magnetic block encodes dp/dtau = ... + p x B
    assert np.allclose(m[1:, 1:] @ np.array([1.0, 0.0, 0.0]),
                       np.cross([1.0, 0.0, 0.0], b))
    lowered = np.diag([1.0, -1.0, -1.0, -1.0]) @ m  # the metric lowers the first index
    assert np.allclose(lowered, -lowered.T, atol=1e-15)

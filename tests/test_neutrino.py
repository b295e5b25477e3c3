import math

import numpy as np
import pytest

from qdsim.errors import DomainError, IntegrationDivergedError
from qdsim.linalg import pauli_dot
from qdsim.models import neutrino as nu

# prefactor that puts the |g| = |omega| crossing at the published
# instability distance for 10 MeV
V_SCALE_CALIBRATED = 8.019782651241507e-05

MSW_10MEV = nu.NeutrinoConfig(energy_gev=0.01, mode="msw",
                              v_scale=V_SCALE_CALIBRATED)
DAMPING_10MEV = nu.NeutrinoConfig(energy_gev=0.01, mode="damping",
                                  v_scale=V_SCALE_CALIBRATED)


def test_config_validation():
    with pytest.raises(DomainError):
        nu.NeutrinoConfig(energy_gev=0.0)
    with pytest.raises(DomainError):
        nu.NeutrinoConfig(energy_gev=0.01, mode="adiabatic")
    with pytest.raises(DomainError):
        nu.NeutrinoConfig(energy_gev=0.01, v_scale=-1.0)
    with pytest.raises(DomainError):
        nu.NeutrinoConfig(energy_gev=0.01, g_orientation=0.5)


def test_vacuum_scales():
    assert MSW_10MEV.delta_nev == pytest.approx(4e-3)
    w = MSW_10MEV.vacuum_omega()
    assert np.linalg.norm(w) == pytest.approx(4e-3, rel=1e-12)
    assert w[1] == 0.0 and w[0] > 0.0 and w[2] < 0.0
    assert np.linalg.norm(MSW_10MEV.nu2_direction()) == pytest.approx(1.0)


def test_damping_direction_geometry():
    d = DAMPING_10MEV.g_direction()
    assert np.linalg.norm(d) == pytest.approx(1.0)
    # tilted toward nu_2 by the configured angle, so the angle to the
    # vacuum omega is 90 degrees minus the tilt
    what = MSW_10MEV.vacuum_omega()
    what = what / np.linalg.norm(what)
    assert float(d @ what) == pytest.approx(math.sin(DAMPING_10MEV.g_tilt_rad),
                                            abs=1e-12)


def test_potential_profile():
    c = nu.NeutrinoConfig(energy_gev=0.01)  # default prefactor 0.012
    assert nu.neutrino_potential(c, 0.0) == pytest.approx(0.012 * 154.910686)
    for L in (1e4, 1e5, 3e5):
        want = c.v_scale * np.polyval(nu.POLY_COEFFS, L / c.r_s_km)
        assert nu.neutrino_potential(c, L) == pytest.approx(want, rel=1e-12)
    assert nu.neutrino_potential(c, nu.CUTOFF_KM + 1.0) == 0.0
    with pytest.raises(DomainError):
        nu.neutrino_potential(c, -1.0)


def test_generator_assembly():
    gen = nu.neutrino_generator(MSW_10MEV, 0.0)
    want_omega = MSW_10MEV.vacuum_omega() + np.array(
        [0.0, 0.0, nu.neutrino_potential(MSW_10MEV, 0.0)])
    assert np.allclose(gen.hamiltonian,
                       0.5 * MSW_10MEV.eps * pauli_dot(want_omega), atol=1e-15)
    assert np.allclose(gen.damping, 0.0)

    gen_d = nu.neutrino_generator(DAMPING_10MEV, 1e5)
    v = nu.neutrino_potential(DAMPING_10MEV, 1e5)
    assert np.allclose(gen_d.hamiltonian,
                       0.5 * DAMPING_10MEV.eps
                       * pauli_dot(DAMPING_10MEV.vacuum_omega()), atol=1e-15)
    assert np.allclose(gen_d.damping,
                       0.5 * DAMPING_10MEV.eps * v
                       * pauli_dot(DAMPING_10MEV.g_direction()), atol=1e-15)


def test_level_crossing_distances():
    # calibrated profile: resonance and instability radii for 10 MeV
    l_res = nu.msw_resonance(MSW_10MEV)
    assert abs(l_res - 191173.0) <= 5.0
    target = MSW_10MEV.delta_nev * math.cos(2.0 * MSW_10MEV.theta12)
    assert nu.neutrino_potential(MSW_10MEV, l_res) == pytest.approx(
        target, rel=1e-4)

    l_in = nu.instability_locator(DAMPING_10MEV)
    assert abs(l_in - 117600.0) <= 5.0
    assert nu.neutrino_potential(DAMPING_10MEV, l_in) == pytest.approx(
        np.linalg.norm(DAMPING_10MEV.vacuum_omega()), rel=1e-4)


def test_evolve_msw_short_run():
    traj = nu.neutrino_evolve(MSW_10MEV, None, L_end=2000.0, step=1.0,
                              sample_stride=100)
    psi = traj.states
    assert psi.shape == (len(traj), 2)
    cols = nu.flavor_columns(psi)
    assert cols["survival"][0] == pytest.approx(1.0)
    assert traj.times[-1] == pytest.approx(2000.0)
    norms = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    assert np.abs(norms - 1.0).max() <= 1e-12
    # Bloch series are the amplitude bilinears
    assert np.allclose(cols["n3"], 2.0 * cols["survival"] - 1.0, atol=1e-12)
    assert np.allclose(cols["n1"] ** 2 + cols["n2"] ** 2 + cols["n3"] ** 2, 1.0, atol=1e-10)


def test_evolve_damping_counter_rate_keeps_norm():
    traj = nu.neutrino_evolve(DAMPING_10MEV, None, L_end=2000.0, step=1.0,
                              sample_stride=100)
    psi = traj.states
    norms = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    assert np.abs(norms - 1.0).max() <= 1e-12
    # deep inside the damping-dominated core the state must have moved
    assert abs(nu.flavor_columns(psi)["survival"][-1] - 1.0) > 1e-6


def _vacuum_rk4_step(c, h):
    """The RK4 step of the linear vacuum flow psi' = -i (eps/2) omega.sigma psi."""
    ha = h * (-0.5j * c.eps) * pauli_dot(c.vacuum_omega())
    return (np.eye(2) + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0
            + ha @ ha @ ha @ ha / 24.0)


@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV], ids=["msw", "damping"])
def test_evolve_past_the_cutoff_retraces_the_per_step_vacuum_map(config):
    # from the first step whose stages all lie past the cutoff, the run
    # must agree with the vacuum RK4 step applied one step at a time with
    # per-step renormalization; stride 7 makes one chunk straddle it
    h, stride, n = 20.0, 7, 20000
    i_past = 18289  # the first i with i h > CUTOFF_KM
    assert (i_past - 1) * h <= nu.CUTOFF_KM < i_past * h
    traj = nu.neutrino_evolve(config, None, n * h, h, sample_stride=stride)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-15

    # every step before i_past is the scalar stepper, whatever the chunking
    psi = nu.neutrino_evolve(config, None, i_past * h, h, sample_stride=n).final_state
    r = _vacuum_rk4_step(config, h)
    want = {}
    for i in range(i_past, n):
        psi = r @ psi
        psi = psi / np.linalg.norm(psi)
        want[i + 1] = psi
    steps = np.rint(traj.times / h).astype(int)
    past = steps > i_past
    assert past.sum() > 200
    got = traj.states[past]
    ref = np.array([want[i] for i in steps[past]])
    assert np.abs(got - ref).max() <= 1e-11


@pytest.mark.parametrize("h, stride, low, high", [
    # about 3.05 rad per 300 km step: |R| grows the ket by about 1.67 per
    # step, so the 780 steps of the chunk that straddles the cutoff
    # overflow |R^780 psi|^2
    (300.0, 1000, 1.5, 2.0),
    (300.0, 2000, 1.5, 2.0),
    # about 2.03 rad per 200 km step: |R| shrinks the ket by about 0.73
    # per step, so |R^1171 psi|^2 underflows
    (200.0, 1500, 0.5, 1.0),
])
def test_evolve_past_the_cutoff_powers_a_step_that_scales_the_ket(h, stride, low, high):
    # the powered route runs on R / sigma, so a coarse stride stores the
    # finite unit ket that stride 1 stores
    c = nu.NeutrinoConfig(energy_gev=0.01, mode="msw", v_scale=0.0)
    sv = np.linalg.svd(_vacuum_rk4_step(c, h), compute_uv=False)
    assert low < sv.min() <= sv.max() < high
    coarse = nu.neutrino_evolve(c, None, 600000.0, h, sample_stride=stride)
    fine = nu.neutrino_evolve(c, None, 600000.0, h, sample_stride=1)
    assert abs(np.linalg.norm(coarse.final_state) - 1.0) <= 1e-15
    assert np.abs(coarse.final_state - fine.final_state).max() <= 1e-12


@pytest.mark.parametrize("mode", ["msw", "damping"])
def test_evolve_keeps_the_scalar_loop_where_the_vacuum_step_overflows(mode):
    # R itself overflows at this step, so the run keeps the scalar
    # stepper, whose guard names the first step, with no RuntimeWarning
    c = nu.NeutrinoConfig(energy_gev=0.01, mode=mode, v_scale=0.0)
    with pytest.raises(IntegrationDivergedError) as err:
        nu.neutrino_evolve(c, None, L_end=1e301, step=1e300)
    assert str(err.value) == "amplitude norm left (0, 2) (at t=1e+300)"


@pytest.mark.parametrize("mode", ["msw", "damping"])
def test_evolve_overflow_is_an_integration_error(mode):
    # the first step overflows; the per-step norm guard must name it,
    # with no numpy RuntimeWarning on the way
    c = nu.NeutrinoConfig(energy_gev=0.01, mode=mode, v_scale=1e300)
    with pytest.raises(IntegrationDivergedError) as err:
        nu.neutrino_evolve(c, None, L_end=10.0, step=1.0)
    assert type(err.value.time) is float and err.value.time == 1.0


@pytest.mark.parametrize("L_end, step", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 0.3)])
def test_evolve_rejects_a_horizon_off_the_step_grid(L_end, step):
    with pytest.raises(DomainError):
        nu.neutrino_evolve(DAMPING_10MEV, None, L_end, step)


def test_evolve_input_validation():
    with pytest.raises(DomainError):
        nu.neutrino_evolve(MSW_10MEV, None, L_end=-1.0, step=1.0)
    with pytest.raises(DomainError):
        nu.neutrino_evolve(MSW_10MEV, None, L_end=10.0, step=0.0)
    with pytest.raises(DomainError):
        nu.neutrino_evolve(MSW_10MEV, np.array([1.0, 0.0, 0.0]), 10.0, 1.0)

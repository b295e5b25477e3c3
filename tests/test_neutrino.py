import math
import tracemalloc

import numpy as np
import pytest

from qdsim import dynamics
from qdsim.dynamics import IntegratorConfig, evolve
from qdsim.errors import DomainError, IntegrationDivergedError
from qdsim.linalg import pauli_components, pauli_dot
from qdsim.models import neutrino as nu
from qdsim.states import bloch_to_density

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
    traj = nu.neutrino_evolve(MSW_10MEV, L_end=2000.0, step=1.0,
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
    traj = nu.neutrino_evolve(DAMPING_10MEV, L_end=2000.0, step=1.0,
                              sample_stride=100)
    psi = traj.states
    norms = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    assert np.abs(norms - 1.0).max() <= 1e-12
    # deep inside the damping-dominated core the state must have moved
    assert abs(nu.flavor_columns(psi)["survival"][-1] - 1.0) > 1e-6


# a config off the shipped one: other angle, energy, orientation and tilt
DAMPING_TILTED = nu.NeutrinoConfig(energy_gev=0.02, mode="damping", theta12=0.3,
                                   v_scale=1e-4, g_tilt_rad=0.1, g_orientation=-1.0)


def _reference_generator(c, L):
    """M(L) = G - iH from the module docstring's physics: H = (eps/2)
    omega(L).sigma and G = (eps/2) g(L).sigma, with the matter term in
    omega_z (msw) or in g = V(L) g_hat (damping)."""
    d = c.dm2_ev2 / (2.0 * c.energy_gev)
    omega = np.array([d * math.sin(2.0 * c.theta12), 0.0, -d * math.cos(2.0 * c.theta12)])
    g = np.zeros(3)
    v = nu.neutrino_potential(c, L)
    if c.mode == "msw":
        omega[2] += v
    else:
        g = v * c.g_direction()
    return 0.5 * c.eps * (pauli_dot(g) - 1j * pauli_dot(omega))


@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV, DAMPING_TILTED],
                         ids=["msw", "damping", "damping-tilted"])
def test_generator_is_the_documented_traceless_symmetric_pair(config):
    fam = config.generator()
    m0, m1 = fam.base._m, fam.slope._m
    # the stage reads only the first row of [[alpha, beta], [beta, -alpha]]
    for m in (m0, m1):
        assert m.shape == (2, 2) and m.dtype == complex
        assert m[1, 1] == -m[0, 0] and m[1, 0] == m[0, 1]
    # V = 0 past the cutoff pins M0, and V > 0 inside then pins M1
    for L in (nu.CUTOFF_KM + 1.0, 0.0, 5e4, 2e5):
        v = nu.neutrino_potential(config, L)
        assert np.abs(m0 + v * m1 - _reference_generator(config, L)).max() <= 1e-16
        assert np.abs(fam(L)._m - _reference_generator(config, L)).max() <= 1e-16


@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV, DAMPING_TILTED],
                         ids=["msw", "damping", "damping-tilted"])
def test_generator_magnitude_takes_an_array_of_distances(config):
    magnitude = config.generator().magnitude
    ls = np.array([0.0, 5e4, 2e5, nu.CUTOFF_KM, nu.CUTOFF_KM + 1.0, 1e6])
    per_float = [magnitude(float(L)) for L in ls]
    assert all(type(v) is float for v in per_float)
    assert per_float == [nu.neutrino_potential(config, float(L)) for L in ls]
    got = magnitude(ls)
    assert got.shape == ls.shape and got.tobytes() == np.array(per_float).tobytes()
    assert (got[4:] == 0.0).all() and (got[:4] > 0.0).all()


def _evolve_and_stepper_gap(config, h):
    """Largest Bloch distance, every 50 km over 2000 km from |e><e|, between
    evolve on config.generator() and neutrino_evolve, both at step h."""
    stride = round(50.0 / h)
    ket = nu.neutrino_evolve(config, 2000.0, h, sample_stride=stride)
    cols = nu.flavor_columns(ket.states)
    want = np.stack([cols["n1"], cols["n2"], cols["n3"]], axis=1)
    rho = evolve(config.generator(), bloch_to_density((0.0, 0.0, 1.0)),
                 IntegratorConfig(2000.0, h, stride))
    assert np.array_equal(rho.times, ket.times)
    return np.linalg.norm(pauli_components(rho.states) - want, axis=1).max()


@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV], ids=["msw", "damping"])
def test_evolve_of_the_generator_converges_to_the_ket_stepper(config):
    # two RK4 routes of one family, on the density matrix and on the ket:
    # their gap falls at RK4 order, 16x per halved step (msw 2.1e-7 at
    # 0.5 km and 1.3e-8 at 0.25 km, damping 5.2e-10 and 3.2e-11)
    coarse, fine = (_evolve_and_stepper_gap(config, h) for h in (0.5, 0.25))
    assert fine <= 1e-7 and fine * 10.0 <= coarse


def _lift_step(c, L, h):
    """Textbook RK4 on K' = M(L) K from K = I across [L, L + h], with
    M(L) built above: the step R of the paper's linear lift."""
    eye = np.eye(2)
    m1, m2, m4 = (_reference_generator(c, x) for x in (L, L + 0.5 * h, L + h))
    k1 = m1
    k2 = m2 @ (eye + 0.5 * h * k1)
    k3 = m2 @ (eye + 0.5 * h * k2)
    k4 = m4 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _lift_reference(c, L_end, h, stride):
    """The lift stepped one step at a time, psi <- R psi / |R psi| with R
    from _lift_step. Returns the start and the ket after every stride-th
    step and after the last."""
    n = round(L_end / h)
    psi = np.array([1.0, 0.0], dtype=complex)
    states = [psi]
    for i in range(n):
        psi = _lift_step(c, i * h, h) @ psi
        psi = psi / np.linalg.norm(psi)
        if (i + 1) % stride == 0 or i + 1 == n:
            states.append(psi)
    return np.array(states)


@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV, DAMPING_TILTED],
                         ids=["msw", "damping", "damping-tilted"])
def test_evolve_before_the_cutoff_matches_an_rk4_reference(config):
    # the lift stepped one step at a time, in numpy, with M(L) built
    # above; about 0.5 rad per 20 km step
    h, n = 20.0, 300
    assert n * h < nu.CUTOFF_KM
    want = _lift_reference(config, n * h, h, 1)
    traj = nu.neutrino_evolve(config, n * h, h, sample_stride=1)
    assert len(traj) == n + 1
    # the ket turned far from its start (near the core mostly in phase)
    assert np.abs(want[-1] - want[0]).max() > 0.5
    assert np.abs(traj.states - want).max() <= 1e-12


def _per_stage_reference(c, L_end, h, stride):
    """The nonlinear stepper, independent of the lift: RK4 on psi' = M psi
    - <G> psi as a scalar loop with one call per stage, which evaluates V
    at the stage's distance, renormalised after every step. Past the
    cutoff it takes the same powers of the vacuum step."""
    fam = c.generator()
    (al0, be0), _ = fam.base._m.tolist()
    (al1, be1), _ = fam.slope._m.tolist()
    damped = bool(fam.slope.damping.any())

    def rate(L, a, b):
        v = nu.neutrino_potential(c, L)
        al, be = al0 + v * al1, be0 + v * be1
        da, db = al * a + be * b, be * a - al * b
        if not damped:
            return da, db
        aa, bb = (a * a.conjugate()).real, (b * b.conjugate()).real
        gn = (be.real * 2.0 * (a.conjugate() * b).real + al.real * (aa - bb)) / (aa + bb)
        return da - gn * a, db - gn * b

    n = nu.whole_steps(L_end, h)
    i_past, power = n, None
    if L_end > nu.CUTOFF_KM:
        r = nu._rk4_linear_step(h * fam.base._m)
        power = nu._successive_powers(r / np.linalg.svd(r, compute_uv=False).max())
        i_past = int(nu.CUTOFF_KM // h) + 1
    a, b = 1.0 + 0.0j, 0.0j
    states, done = [(a, b)], 0
    while done < n:
        m = min(stride, n - done)
        for i in range(done, min(done + m, i_past)):
            L = i * h
            k1a, k1b = rate(L, a, b)
            k2a, k2b = rate(L + 0.5 * h, a + 0.5 * h * k1a, b + 0.5 * h * k1b)
            k3a, k3b = rate(L + 0.5 * h, a + 0.5 * h * k2a, b + 0.5 * h * k2b)
            k4a, k4b = rate(L + h, a + h * k3a, b + h * k3b)
            a = a + (h / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
            b = b + (h / 6.0) * (k1b + 2.0 * (k2b + k3b) + k4b)
            norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
            a, b = a / norm, b / norm
        rest = done + m - max(done, i_past)
        if rest > 0:
            (r00, r01), (r10, r11) = power(rest).tolist()
            a, b = r00 * a + r01 * b, r10 * a + r11 * b
            norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
            a, b = a / norm, b / norm
        done += m
        states.append((a, b))
    return np.array(states)


@pytest.mark.parametrize("L_end, h, stride, block", [
    (2000.0, 1.0, 1, None),
    (2000.0, 1.0, 7, None),
    (2000.0, 1.0, 7, 3),  # a stride of three blocks and a rest of one step
    (5000.0, 1.0, 3000, None),  # a stride of three blocks of 1024 steps
    # the chunk of steps 18000 to 19000 spans the cutoff at step 18288.35
    (380000.0, 20.0, 1000, None),
])
@pytest.mark.parametrize("config", [MSW_10MEV, DAMPING_10MEV], ids=["msw", "damping"])
def test_evolve_in_blocks_is_the_per_stage_scalar_loop_bit_for_bit(
        monkeypatch, config, L_end, h, stride, block):
    # the lift's blocks, trees and chunk normalisations change only the
    # rounding of the lift stepped one step at a time, whatever the
    # chunking (the name is that of the scalar stepper the lift replaced)
    if block is not None:
        monkeypatch.setattr(dynamics, "_LIFT_BLOCK", block)
    traj = nu.neutrino_evolve(config, L_end, h, sample_stride=stride)
    assert np.abs(traj.states - _lift_reference(config, L_end, h, stride)).max() <= 1e-12


def _sampled_bloch(states):
    cols = nu.flavor_columns(states)
    return np.stack([cols["n1"], cols["n2"], cols["n3"]], axis=1)


def test_neutrino_lift_is_fourth_order_against_the_per_stage_loop():
    # the nonlinear per-stage stepper is independent of the lift: in msw
    # (G = 0) both are RK4 on one linear flow and agree to rounding; in
    # damping they are two RK4 discretisations of one flow, whose gap
    # falls at RK4 order, 16x per halved step, on a 100 km sample grid
    def gap(config, h):
        stride = round(100.0 / h)
        got = nu.neutrino_evolve(config, 2000.0, h, sample_stride=stride).states
        want = _per_stage_reference(config, 2000.0, h, stride)
        return np.linalg.norm(_sampled_bloch(got) - _sampled_bloch(want), axis=1).max()

    assert gap(MSW_10MEV, 20.0) <= 1e-12
    coarse, mid, fine = (gap(DAMPING_10MEV, h) for h in (20.0, 10.0, 5.0))
    assert mid * 10.0 <= coarse and fine * 10.0 <= mid


def test_a_neutrino_run_builds_no_coordinate_matrix(monkeypatch):
    built = []
    make = nu.NeutrinoConfig.generator
    monkeypatch.setattr(nu.NeutrinoConfig, "generator",
                        lambda c: built.append(make(c)) or built[-1])
    nu.neutrino_evolve(DAMPING_10MEV, 400000.0, 10.0)
    (fam,) = built
    assert "_b" not in vars(fam.base) and "_b" not in vars(fam.slope)


def test_a_long_neutrino_run_holds_one_block_of_stage_potentials():
    # one stride of 10000 steps multiplies block by block: blocks of 1024
    # steps keep the peak near 0.43 MB, blocks of 256 near 0.14 MB
    nu.neutrino_evolve(DAMPING_10MEV, 10.0, 1.0)
    tracemalloc.start()
    try:
        nu.neutrino_evolve(DAMPING_10MEV, 10000.0, 1.0, sample_stride=10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e5


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
    traj = nu.neutrino_evolve(config, n * h, h, sample_stride=stride)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-15

    # every step before i_past is the lift, whatever the chunking
    psi = nu.neutrino_evolve(config, i_past * h, h, sample_stride=n).final_state
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
    coarse = nu.neutrino_evolve(c, 600000.0, h, sample_stride=stride)
    fine = nu.neutrino_evolve(c, 600000.0, h, sample_stride=1)
    assert abs(np.linalg.norm(coarse.final_state) - 1.0) <= 1e-15
    assert np.abs(coarse.final_state - fine.final_state).max() <= 1e-12


def test_a_damped_step_that_stretches_a_ket_past_two_runs():
    # the first 20 km step of DAMPING_TILTED stretches a ket by up to 2.19,
    # which a bound of 2 would refuse; the flow itself stretches it by up
    # to exp(h mu) = 2.20 there, and the guard allows twice that
    h = 20.0
    assert np.linalg.svd(_lift_step(DAMPING_TILTED, 0.0, h), compute_uv=False).max() > 2.0
    traj = nu.neutrino_evolve(DAMPING_TILTED, 2000.0, h)
    assert len(traj) == 101
    assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() <= 1e-15


def test_the_module_docstring_step_past_the_stability_limit_raises():
    # msw at the default v_scale turns about 4.7 rad per 1 km step, where
    # RK4 stretches a ket by about 16 and the flow (G = 0) by none
    with pytest.raises(IntegrationDivergedError) as err:
        nu.neutrino_evolve(nu.NeutrinoConfig(energy_gev=0.01), 2000.0, 1.0)
    assert str(err.value) == "amplitude norm left (0, 2) (at t=1.0)"


@pytest.mark.parametrize("mode", ["msw", "damping"])
def test_evolve_keeps_the_scalar_loop_where_the_vacuum_step_overflows(mode):
    # R itself overflows at this step, so the lift runs to the end and
    # its guard names the first step, with no RuntimeWarning
    c = nu.NeutrinoConfig(energy_gev=0.01, mode=mode, v_scale=0.0)
    with pytest.raises(IntegrationDivergedError) as err:
        nu.neutrino_evolve(c, L_end=1e301, step=1e300)
    assert str(err.value) == "amplitude norm left (0, 2) (at t=1e+300)"


@pytest.mark.parametrize("mode", ["msw", "damping"])
def test_evolve_overflow_is_an_integration_error(mode):
    # the first step overflows; the per-step norm guard must name it,
    # with no numpy RuntimeWarning on the way
    c = nu.NeutrinoConfig(energy_gev=0.01, mode=mode, v_scale=1e300)
    with pytest.raises(IntegrationDivergedError) as err:
        nu.neutrino_evolve(c, L_end=10.0, step=1.0)
    assert type(err.value.time) is float and err.value.time == 1.0


@pytest.mark.parametrize("L_end, step", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 0.3)])
def test_evolve_rejects_a_horizon_off_the_step_grid(L_end, step):
    with pytest.raises(DomainError):
        nu.neutrino_evolve(DAMPING_10MEV, L_end, step)


def test_evolve_input_validation():
    with pytest.raises(DomainError):
        nu.neutrino_evolve(MSW_10MEV, L_end=-1.0, step=1.0)
    with pytest.raises(DomainError):
        nu.neutrino_evolve(MSW_10MEV, L_end=10.0, step=0.0)

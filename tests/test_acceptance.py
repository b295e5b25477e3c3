"""End-to-end acceptance gates.

Fourteen numbered criteria covering the closed-form propagator, the
Kraus semigroup, the single-Lindblad model, the coupled-block cavity
model, relativistic spin transport, and the flavor-evolution model.
Each test prints one `ACCEPTANCE NN <name>: PASS/FAIL` line directly to
the terminal (bypassing capture) and then asserts.
"""

import math

import numpy as np
import pytest

from qdsim.dynamics import (
    Generator,
    IntegratorConfig,
    closed_form_propagate,
    evolve,
    evolve_state_vector,
    finite_difference_generator_check,
    gksl_rhs,
    inverted_morse_profile,
    qubit_rate_generator,
)
from qdsim.kraus import EnsembleSplit, KrausFamily, reweighted_ensemble
from qdsim.linalg import PAULI, frobenius
from qdsim.models import neutrino as nu
from qdsim.models.dirac import EMFieldConfig, bmt_evolve
from qdsim.models.jaynes_cummings import (
    JCBlockState,
    JCParams,
    block_case,
    jc_evolve,
)
from qdsim.qubit import (
    CaseClass,
    QubitGeneratorParams,
    SingleLindbladParams,
    asymptote,
    bloch_trajectory_general,
    classify,
    eigenstate_probabilities,
    rabi_probability,
    single_lindblad_kraus,
    single_lindblad_trajectory,
    sl2c_coefficients,
    sl2c_invariants_check,
)
from qdsim.rootfind import find_crossing
from qdsim.states import bloch_to_density, purity, von_neumann_entropy


@pytest.fixture()
def emit(capsys):
    def _emit(num: int, name: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num} ({name}) failed: {detail}"

    return _emit


def bloch_of(rho) -> np.ndarray:
    # raw Pauli projection: RK4 samples are exactly Hermitian, but their
    # trace may drift within the run guard (TOL.ode_trace_drift), beyond
    # the state-validation tolerance (TOL.trace_one)
    return np.array([np.trace(rho @ s).real for s in PAULI])


def final_bloch(gen, xi, t_end: float, step: float) -> np.ndarray:
    cfg = IntegratorConfig(t_end=t_end, step=step, sample_stride=10 ** 9)
    return bloch_of(evolve(gen, bloch_to_density(xi), cfg).final_state)


def whole_step(t_end: float, max_step: float) -> float:
    """The largest step up to max_step that fits a whole number of times
    into t_end, which is what the integrator requires of a horizon."""
    return t_end / math.ceil(t_end / max_step)


def unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def ball_vector(rng, radius: float = 1.0) -> np.ndarray:
    return unit_vector(rng) * rng.uniform(0.0, radius)


def orthonormal_pair(rng):
    e1 = unit_vector(rng)
    while True:
        b = rng.normal(size=3)
        b = b - (b @ e1) * e1
        n = np.linalg.norm(b)
        if n > 1e-6:
            return e1, b / n


def random_density(rng, dim: int = 2) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_closed_form_vs_rk4(emit):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        params = QubitGeneratorParams(ball_vector(rng, 10.0),
                                      ball_vector(rng, 10.0))
        xi = ball_vector(rng)
        gen = params.generator()
        n_ode = final_bloch(gen, xi, 10.0, 1e-3)
        n_closed = bloch_of(closed_form_propagate(gen, bloch_to_density(xi), 10.0))
        worst = max(worst, float(np.linalg.norm(n_ode - n_closed)))
    emit(1, "closed-form-vs-rk4", worst <= 1e-6, f"worst {worst:.3e}")


def test_criterion_02_semigroup_composition(emit):
    rng = np.random.default_rng(2026)
    worst_alg = 0.0
    for _ in range(100):
        params = QubitGeneratorParams(ball_vector(rng, 3.0), ball_vector(rng, 3.0))
        s, t = rng.uniform(0.1, 1.5, size=2)
        rho = random_density(rng)
        one = KrausFamily((sl2c_coefficients(params, s + t).matrix(),))
        two = KrausFamily((sl2c_coefficients(params, s).matrix(),)).compose(
            KrausFamily((sl2c_coefficients(params, t).matrix(),)))
        worst_alg = max(worst_alg, frobenius(one.apply_normalized(rho)
                                             - two.apply_normalized(rho)))
    worst_ode = 0.0
    for _ in range(5):
        params = QubitGeneratorParams(ball_vector(rng, 3.0), ball_vector(rng, 3.0))
        gen = params.generator()
        rho0 = bloch_to_density(ball_vector(rng))
        cfg = IntegratorConfig(t_end=0.8, step=1e-3, sample_stride=10 ** 9)
        mid = evolve(gen, rho0, cfg).final_state
        cfg2 = IntegratorConfig(t_end=0.7, step=1e-3, sample_stride=10 ** 9)
        end = evolve(gen, mid, cfg2).final_state
        want = closed_form_propagate(gen, rho0, 1.5)
        worst_ode = max(worst_ode, frobenius(end - want))
    ok = worst_alg <= 1e-10 and worst_ode <= 1e-6
    emit(2, "semigroup-composition", ok,
         f"algebraic {worst_alg:.3e}, ode {worst_ode:.3e}")


def test_criterion_03_quasi_linear_coefficients(emit):
    rng = np.random.default_rng(2026)
    worst = 0.0
    worst_sum = 0.0
    for k in range(200):
        dim = 2 if k % 2 == 0 else 3
        n_ops = 1 + int(rng.integers(0, 3))
        ops = tuple(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    for _ in range(n_ops))
        family = KrausFamily(ops)
        lam = rng.uniform(0.05, 0.95)
        split = EnsembleSplit([lam, 1.0 - lam],
                              (random_density(rng, dim), random_density(rng, dim)))
        bar = reweighted_ensemble(family, split)
        lhs = family.apply_normalized(split.mixture())
        rhs = sum(b * family.apply_normalized(m) for b, m in zip(bar, split.states))
        worst = max(worst, frobenius(lhs - rhs))
        worst_sum = max(worst_sum, abs(bar.sum() - 1.0))
    ok = worst <= 1e-10 and worst_sum <= 1e-10
    emit(3, "quasi-linear-coefficients", ok,
         f"map {worst:.3e}, weights {worst_sum:.3e}")


def test_criterion_04_first_order_kraus_rate(emit):
    rng = np.random.default_rng(2026)
    lo, hi = 1.0, 0.0
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ls = tuple(0.7 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                   for _ in range(1 + int(rng.integers(0, 2))))
        gen = Generator(0.5 * (a + a.conj().T), 0.15 * (b + b.conj().T), ls)
        rho = random_density(rng)
        e1 = finite_difference_generator_check(gen, rho, 1e-3)
        e2 = finite_difference_generator_check(gen, rho, 5e-4)
        ratio = e2 / e1
        lo, hi = min(lo, ratio), max(hi, ratio)
    ok = lo >= 0.4 and hi <= 0.6
    emit(4, "first-order-kraus-rate", ok, f"ratio range [{lo:.3f}, {hi:.3f}]")


def test_criterion_05_eigenstate_equalization(emit):
    worst = 0.0
    for g, w in ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (13.0, 5.0)):
        c2 = g * g - w * w
        big = max(g, np.sqrt(abs(c2)))
        p_plus, p_minus = eigenstate_probabilities(g, w, 50.0 / big)
        worst = max(worst, abs(p_plus - 0.5), abs(p_minus - 0.5))
    emit(5, "eigenstate-equalization", worst <= 1e-3, f"worst {worst:.3e}")


def test_criterion_06_shared_resonance_maximum(emit):
    worst = 0.0
    for w, g in ((6.0, 4.0), (6.0, 5.5), (6.0, 5.95), (6.0, 5.7)):
        target = g * g / (g * g + w * w)
        om = np.sqrt(w * w - g * g)
        grid = np.linspace(0.0, 2.0 * np.pi / om, 40001)
        peak = float(eigenstate_probabilities(g, w, grid)[1].max())
        s = np.hypot(g, w)
        grid2 = np.linspace(0.0, 2.0 * np.pi / s, 40001)
        peak2 = float(rabi_probability(g, w, grid2).max())
        worst = max(worst, abs(peak - target) / target,
                    abs(peak2 - target) / target)
    emit(6, "shared-resonance-maximum", worst <= 1e-4, f"worst rel {worst:.3e}")


def test_criterion_07_asymptote_formulas(emit):
    rng = np.random.default_rng(2026)

    worst_i = 0.0
    count = 0
    while count < 100:
        params = QubitGeneratorParams(rng.uniform(-2.0, 2.0, 3),
                                      rng.uniform(-2.0, 2.0, 3))
        if classify(params) is not CaseClass.GENERIC_TILTED:
            continue
        x = abs(np.sqrt(params.alpha_squared).real)
        r0 = max(np.linalg.norm(params.omega), np.linalg.norm(params.g))
        if x < 0.5 or r0 > 3.0:
            continue
        xi = ball_vector(rng)
        got = final_bloch(params.generator(), xi, 25.0 / x, whole_step(25.0 / x, 0.01 / r0))
        worst_i = max(worst_i, float(np.linalg.norm(got - asymptote(params, xi))))
        count += 1

    worst_ii = 0.0
    for _ in range(100):
        e1, e2 = orthonormal_pair(rng)
        wn = rng.uniform(0.5, 2.0)
        x = rng.uniform(1.0, 2.5)
        gn = float(np.hypot(wn, x))
        params = QubitGeneratorParams(wn * e1, gn * e2)
        xi = ball_vector(rng)
        got = final_bloch(params.generator(), xi, 25.0 / x, whole_step(25.0 / x, 0.01 / gn))
        worst_ii = max(worst_ii, float(np.linalg.norm(got - asymptote(params, xi))))

    worst_iii = 0.0
    for _ in range(100):
        k = rng.uniform(1.0, 2.5)
        e1, e2 = orthonormal_pair(rng)
        params = QubitGeneratorParams(k * e1, k * e2)
        xi = ball_vector(rng)
        gen = params.generator()
        # the algebraic 1/t tail needs a long horizon; a fine leg through
        # the transient, then a coarse leg out to t = 3000/k
        leg1 = evolve(gen, bloch_to_density(xi),
                      IntegratorConfig(t_end=40.0 / k, step=0.01 / k,
                                       sample_stride=10 ** 9)).final_state
        leg2 = evolve(gen, leg1,
                      IntegratorConfig(t_end=2960.0 / k, step=0.5 / k,
                                       sample_stride=10 ** 9)).final_state
        got = bloch_of(leg2)
        worst_iii = max(worst_iii,
                        float(np.linalg.norm(got - asymptote(params, xi))))

    all_oscillatory = True
    for _ in range(100):
        e1, e2 = orthonormal_pair(rng)
        wn = rng.uniform(1.0, 3.0)
        gn = wn * rng.uniform(0.2, 0.95)
        params = QubitGeneratorParams(wn * e1, gn * e2)
        if classify(params) is not CaseClass.OSCILLATORY:
            all_oscillatory = False
        if asymptote(params, ball_vector(rng)) is not None:
            all_oscillatory = False

    ok = worst_i <= 1e-3 and worst_ii <= 1e-3 and worst_iii <= 1e-3 and all_oscillatory
    emit(7, "asymptote-formulas", ok,
         f"tilted {worst_i:.3e}, damped {worst_ii:.3e}, "
         f"parabolic {worst_iii:.3e}, oscillatory-detect {all_oscillatory}")


FIG8 = SingleLindbladParams(g=-0.5, omega=13.0, l=2.5)
XI8 = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)


def test_criterion_08_single_lindblad_solution(emit):
    gen = FIG8.generator()
    cfg = IntegratorConfig(t_end=2.0, step=1e-3, sample_stride=125)
    traj = evolve(gen, bloch_to_density(XI8), cfg)
    worst_ode = 0.0
    for t, rho in zip(traj.times, traj.states):
        want = single_lindblad_trajectory(FIG8, XI8, float(t))
        worst_ode = max(worst_ode, float(np.linalg.norm(bloch_of(rho) - want)))

    late = single_lindblad_trajectory(FIG8, XI8, 80.0)
    n3_err = abs(late[2] - 0.724138)
    entropy = von_neumann_entropy(bloch_to_density(late))
    s_err = abs(entropy - 0.40125)

    ok = worst_ode <= 1e-6 and n3_err <= 1e-4 and s_err <= 1e-3
    emit(8, "single-lindblad-solution", ok,
         f"ode {worst_ode:.3e}, n3 err {n3_err:.3e}, entropy err {s_err:.3e}")


def test_criterion_09_kraus_factorization(emit):
    rho0 = bloch_to_density(XI8)
    worst = 0.0
    for t in np.arange(1, 51) * 0.1:
        fam = single_lindblad_kraus(FIG8, float(t))
        got = bloch_of(fam.apply_normalized(rho0))
        want = single_lindblad_trajectory(FIG8, XI8, float(t))
        worst = max(worst, float(np.linalg.norm(got - want)))
    emit(9, "kraus-factorization", worst <= 1e-10, f"worst {worst:.3e}")


def test_criterion_10_structural_instability(emit):
    profile = inverted_morse_profile(0.007, 0.0005)
    t_in = find_crossing(lambda t: profile(t) - 0.003, 0.0, 35000.0, xtol=1.0)
    t_in_err = abs(t_in - 2821.0)

    omega_vec = np.array([0.00225, 0.0012990381056766578, -0.0015])
    g_dir = np.array([0.4330127018922193, -0.75, -0.5])
    xi0 = np.array([-1.0, -1.0, -1.0]) / np.sqrt(3.0)
    tp = qubit_rate_generator(omega_vec, g_dir, profile)
    cfg = IntegratorConfig(t_end=35000.0, step=0.5, sample_stride=20)
    traj = evolve(tp, bloch_to_density(xi0), cfg)
    blochs = np.array([bloch_of(rho) for rho in traj.states])
    window = traj.times >= 15000.0
    mean = blochs[window].mean(axis=0)
    dist = float(np.linalg.norm(mean - np.array([0.75, 0.433, -0.5])))

    ok = t_in_err <= 1.0 and dist <= 0.05
    emit(10, "structural-instability", ok,
         f"t_in {t_in:.1f} (err {t_in_err:.2f}), mean-Bloch dist {dist:.4f}")


def test_criterion_11_jc_block_weights(emit):
    p = JCParams(omega_f=1.0, omega_a=6.0, g=1.9, n_max=16)
    s0 = JCBlockState.coherent_field(p, 4.0, (0.0, 0.0, 1.0))
    worst_sum = 0.0
    for t in (0.5, 2.0, 8.0):
        st = jc_evolve(p, s0, t)
        worst_sum = max(worst_sum, abs(float(st.weights.sum()) - 1.0))

    matches = True
    for n in range(p.n_max + 1):
        want_damped = p.g * np.sqrt(n + 1.0) > p.omega_a
        got = block_case(p, n)
        if want_damped and got is not CaseClass.HYPERBOLIC_DAMPED:
            matches = False
        if not want_damped and got is not CaseClass.OSCILLATORY:
            matches = False

    ok = worst_sum <= 1e-10 and matches
    emit(11, "jc-block-weights", ok,
         f"weight-sum err {worst_sum:.3e}, classification match {matches}")


def test_criterion_12_bmt_conservation(emit):
    b_field = np.array([0.08660254037844387, 0.0, 0.05])
    b_hat = np.array([0.8660254037844387, 0.0, 0.5])
    runs = (
        (np.array([0.001, 0.0, 0.0]), 8000.0, b_hat),
        (np.array([0.0, 0.0, -0.001]), 12000.0, -b_hat),
    )
    worst_drift = 0.0
    worst_spin = 0.0
    for e_field, tau_end, target in runs:
        f = EMFieldConfig(e_field, b_field)
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = bmt_evolve(f, p0, (0.0, 0.0, 1.0), tau_end=tau_end, step=0.01,
                          sample_stride=1000)
        p, w = traj.states[..., 0], traj.states[..., 1]
        pp = p[:, 0] ** 2 - (p[:, 1:] ** 2).sum(axis=1)
        pw = p[:, 0] * w[:, 0] - (p[:, 1:] * w[:, 1:]).sum(axis=1)
        worst_drift = max(worst_drift, float(np.abs(pp - 1.0).max()),
                          float(np.abs(pw).max()))
        spin = bloch_trajectory_general(f.qubit_params, np.array([0.0, 0.0, 1.0]),
                                        float(traj.times[-1]))
        worst_spin = max(worst_spin, float(np.linalg.norm(spin - target)))
    ok = worst_drift <= 1e-6 and worst_spin <= 0.05
    emit(12, "bmt-conservation", ok,
         f"invariant drift {worst_drift:.3e}, spin dist {worst_spin:.4f}")


def test_criterion_13_neutrino_distances(emit):
    v_scale = 8.019782651241507e-05
    msw = nu.NeutrinoConfig(energy_gev=0.01, mode="msw", v_scale=v_scale)
    damp = nu.NeutrinoConfig(energy_gev=0.01, mode="damping", v_scale=v_scale)
    l_in_err = abs(nu.instability_locator(damp) - 117600.0)
    l_c_err = abs(nu.msw_resonance(msw) - 191300.0)

    l_end = 2.0 * msw.r_s_km
    traj_m = nu.neutrino_evolve(msw, l_end, 1.0)
    traj_d = nu.neutrino_evolve(damp, l_end, 1.0)
    # the linear mode never settles: compare its late-window mean against
    # the damped mode's limit
    window = traj_m.times >= 1e6
    p_msw = float(nu.flavor_columns(traj_m.states)["survival"][window].mean())
    p_damp = float(nu.flavor_columns(traj_d.states)["survival"][-1])
    prob_diff = abs(p_msw - p_damp)

    worst_norm = 0.0
    for traj in (traj_m, traj_d):
        psi = traj.states
        norms = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))

    ok = l_in_err <= 1000.0 and l_c_err <= 1000.0 and prob_diff <= 0.02 \
        and worst_norm <= 1e-8
    emit(13, "neutrino-distances", ok,
         f"L_in err {l_in_err:.0f} km, L_c err {l_c_err:.0f} km, "
         f"survival diff {prob_diff:.4f}, norm {worst_norm:.2e}")


def test_criterion_14_property_suites(emit):
    rng = np.random.default_rng(2026)

    worst_trace = 0.0
    for k in range(50):
        dim = 2 if k % 2 == 0 else 3
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ls = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),)
        gen = Generator(0.5 * (a + a.conj().T), 0.2 * (b + b.conj().T), ls)
        rhs = gksl_rhs(gen, random_density(rng, dim))
        worst_trace = max(worst_trace, abs(float(np.trace(rhs).real)))

    worst_neg = 0.0
    for _ in range(50):
        ops = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    for _ in range(2))
        out = KrausFamily(ops).apply_normalized(random_density(rng))
        worst_neg = max(worst_neg, -float(np.linalg.eigvalsh(out).min()))

    worst_purity = 0.0
    for _ in range(50):
        params = QubitGeneratorParams(ball_vector(rng, 3.0), ball_vector(rng, 3.0))
        rho0 = bloch_to_density(unit_vector(rng))
        rho_t = closed_form_propagate(params.generator(), rho0,
                                      rng.uniform(0.2, 3.0))
        worst_purity = max(worst_purity, abs(purity(rho_t) - 1.0))

    worst_gauge = 0.0
    base = SingleLindbladParams(0.4, 2.0, 0.5, kappa=0.0)
    gauged = SingleLindbladParams(0.4, 2.0, 0.5, kappa=1.3)
    rho0 = bloch_to_density(np.array([0.3, -0.1, 0.8]))
    for t in (0.5, 2.0):
        a = single_lindblad_kraus(base, t).apply_normalized(rho0)
        b = single_lindblad_kraus(gauged, t).apply_normalized(rho0)
        worst_gauge = max(worst_gauge, frobenius(a - b))
    gen = Generator.qubit((0.0, 0.0, 2.0), (0.8, 0.0, 0.0))
    cfg = IntegratorConfig(t_end=1.0, step=1e-3, sample_stride=10 ** 9)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    pa = evolve_state_vector(gen, psi0, cfg, kappa=0.0).final_state
    pb = evolve_state_vector(gen, psi0, cfg, kappa=0.9).final_state
    worst_gauge = max(worst_gauge,
                      frobenius(np.outer(pa, pa.conj()) - np.outer(pb, pb.conj())))

    worst_inv = 0.0
    for _ in range(100):
        params = QubitGeneratorParams(ball_vector(rng, 2.0), ball_vector(rng, 2.0))
        while True:
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            det = np.linalg.det(a)
            if abs(det) > 0.3:
                break
        s = a / np.sqrt(det)
        c1p, c2p = sl2c_invariants_check(params, s)
        worst_inv = max(worst_inv, abs(c1p - params.c1), abs(c2p - params.c2))

    ok = (worst_trace <= 1e-8 and worst_neg <= 1e-8 and worst_purity <= 1e-8
          and worst_gauge <= 1e-8 and worst_inv <= 1e-8)
    emit(14, "property-suites", ok,
         f"trace {worst_trace:.2e}, negativity {worst_neg:.2e}, "
         f"purity {worst_purity:.2e}, gauge {worst_gauge:.2e}, "
         f"invariants {worst_inv:.2e}")

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdsim.dynamics import IntegratorConfig, evolve
from qdsim.errors import DomainError, PreconditionError, ValidityError
from qdsim.linalg import frobenius, pauli_dot
from qdsim.qubit import (
    CaseClass,
    QubitGeneratorParams,
    SingleLindbladParams,
    asymptote,
    bloch_trajectory_case,
    bloch_trajectory_general,
    classify,
    eigenstate_probabilities,
    rabi_probability,
    single_lindblad_kraus,
    single_lindblad_trajectory,
    sl2c_coefficients,
    sl2c_invariants_check,
)
from qdsim.states import bloch_to_density, density_to_bloch

from conftest import random_bloch

rate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
vec3 = st.tuples(rate, rate, rate)
time_pt = st.floats(min_value=0.0, max_value=8.0)


def test_params_validation():
    with pytest.raises(DomainError):
        QubitGeneratorParams((1.0, 0.0), (0.0, 0.0, 0.0))
    p = QubitGeneratorParams((0, 0, 2), (1, 0, 0))
    assert p.c1 == 0.0
    assert p.c2 == pytest.approx(-3.0)
    assert p.alpha_squared == pytest.approx(-3.0 + 0j)


@given(w=vec3, g=vec3, t=time_pt)
def test_sl2c_matrix_is_exponential(w, g, t):
    p = QubitGeneratorParams(w, g)
    k = sl2c_coefficients(p, t).matrix()
    # K solves K' = (alpha.sigma/2) K; verify against a squared half step
    half = sl2c_coefficients(p, t / 2.0).matrix()
    assert frobenius(k - half @ half) <= 1e-8 * max(1.0, frobenius(k))


def test_sl2c_parabolic_series_branch():
    p = QubitGeneratorParams((0, 0, 1.0), (1.0, 0, 0))
    co = sl2c_coefficients(p, 1e-5)
    assert co.a == pytest.approx(1.0, abs=1e-12)
    assert co.b == pytest.approx(5e-6, rel=1e-10)


def test_classification_table():
    assert classify(QubitGeneratorParams((0, 0, 2), (1, 1, 0))) is CaseClass.OSCILLATORY
    assert classify(QubitGeneratorParams((0, 0, 1), (2, 0, 0))) is CaseClass.HYPERBOLIC_DAMPED
    assert classify(QubitGeneratorParams((0, 0, 1), (1, 0, 0))) is CaseClass.PARABOLIC
    assert classify(QubitGeneratorParams((0, 0, 1), (1, 0, 1))) is CaseClass.GENERIC_TILTED


@given(w=vec3, g=vec3)
def test_invariants_under_inner_automorphisms(w, g):
    p = QubitGeneratorParams(w, g)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    det = np.linalg.det(m)
    if abs(det) < 1e-3:
        m = m + np.eye(2)
        det = np.linalg.det(m)
    s = m / np.sqrt(det)
    c1p, c2p = sl2c_invariants_check(p, s)
    scale = max(1.0, abs(p.c1), abs(p.c2))
    assert abs(c1p - p.c1) <= 1e-8 * scale
    assert abs(c2p - p.c2) <= 1e-8 * scale


def test_invariants_check_rejects_non_unimodular():
    p = QubitGeneratorParams((0, 0, 1), (1, 0, 0))
    with pytest.raises(PreconditionError):
        sl2c_invariants_check(p, 2.0 * np.eye(2))


@given(w=vec3, g=vec3, t=st.floats(min_value=0.0, max_value=4.0))
def test_general_trajectory_stays_on_ball(w, g, t):
    p = QubitGeneratorParams(w, g)
    n = bloch_trajectory_general(p, (0.0, 0.6, 0.0), t)
    assert np.linalg.norm(n) <= 1.0 + 1e-9


def test_general_trajectory_matches_conjugation(rng):
    # the rational quadratic form against literal K rho K^dag / tr
    for _ in range(20):
        p = QubitGeneratorParams(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))
        xi = random_bloch(rng)
        t = rng.uniform(0.0, 3.0)
        k = sl2c_coefficients(p, t).matrix()
        raw = k @ bloch_to_density(xi) @ k.conj().T
        want = density_to_bloch(raw / np.trace(raw).real)
        got = bloch_trajectory_general(p, xi, t)
        assert np.linalg.norm(got - want) <= 1e-10


def test_case_formulas_agree_with_general(rng):
    layouts = [
        (CaseClass.OSCILLATORY, (0, 0, 6.0), (4.0, 0, 0)),
        (CaseClass.HYPERBOLIC_DAMPED, (0, 0, 6.0), (8.0, 0, 0)),
        (CaseClass.PARABOLIC, (0, 0, 2.0), (0, 2.0, 0)),
    ]
    for case, w, g in layouts:
        p = QubitGeneratorParams(w, g)
        xi = random_bloch(rng)
        for t in np.linspace(0.0, 3.0, 7):
            a = bloch_trajectory_case(case, p, xi, t)
            b = bloch_trajectory_general(p, xi, t)
            assert np.linalg.norm(a - b) <= 1e-10


# every case class, t = 0, two times inside the sl2c series window
# (|alpha^2| t^2 / 4 < TOL.sl2c_series) and times well outside it
GRID = np.concatenate([[0.0, 1e-6, 1e-5], np.linspace(0.01, 3.0, 13)])
LAYOUTS = [
    (CaseClass.GENERIC_TILTED, (0.3, -1.0, 2.0), (1.5, 0.4, -0.2)),
    (CaseClass.OSCILLATORY, (0, 0, 6.0), (4.0, 0, 0)),
    (CaseClass.HYPERBOLIC_DAMPED, (0, 0, 6.0), (8.0, 0, 0)),
    (CaseClass.PARABOLIC, (0, 0, 2.0), (0, 2.0, 0)),
]


@pytest.mark.parametrize("case, w, g", LAYOUTS)
def test_array_calls_equal_stacked_scalar_calls(rng, case, w, g):
    p = QubitGeneratorParams(w, g)
    assert classify(p) is case
    co = sl2c_coefficients(p, GRID)
    per_t = [sl2c_coefficients(p, t) for t in GRID]
    assert isinstance(per_t[0].a, complex) and co.a.shape == GRID.shape
    for got, want in ((co.a, [c.a for c in per_t]), (co.b, [c.b for c in per_t])):
        assert (np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))).all()
    assert co.matrix().shape == (len(GRID), 2, 2)
    assert np.abs(co.matrix() - [c.matrix() for c in per_t]).max() <= 1e-15 * max(
        1.0, np.abs(co.matrix()).max())
    xi = random_bloch(rng)
    forms = [lambda t: bloch_trajectory_general(p, xi, t)]
    if case is not CaseClass.GENERIC_TILTED:
        forms.append(lambda t: bloch_trajectory_case(case, p, xi, t))
    for form in forms:
        got = form(GRID)
        assert got.shape == (len(GRID), 3)
        assert np.abs(got - [form(t) for t in GRID]).max() <= 1e-15


def test_single_lindblad_array_call_equals_stacked_scalar_calls(rng):
    xi = random_bloch(rng)
    for p in (SingleLindbladParams(-0.5, 13.0, 2.5), SingleLindbladParams(0.4, 2.0, 0.5),
              SingleLindbladParams(0.0, 2.0, 0.5)):
        got = single_lindblad_trajectory(p, xi, GRID)
        assert got.shape == (len(GRID), 3)
        want = [single_lindblad_trajectory(p, xi, t) for t in GRID]
        assert np.abs(got - want).max() <= 1e-15


def test_exponential_cap_applies_to_every_element():
    # s = sqrt(28) puts the cap |s t|/2 = 700 near t = 264.6
    p = QubitGeneratorParams((0, 0, 6.0), (8.0, 0, 0))
    grid = np.array([0.0, 1.0, 300.0])
    with pytest.raises(ValidityError) as scalar:
        bloch_trajectory_general(p, (0, 0, 1.0), 300.0)
    with pytest.raises(ValidityError) as array:
        bloch_trajectory_general(p, (0, 0, 1.0), grid)
    assert str(array.value) == str(scalar.value)
    with pytest.raises(ValidityError):
        sl2c_coefficients(p, grid)
    slp = SingleLindbladParams(-0.5, 13.0, 2.5)  # |2 g t| = 700 at t = 700
    with pytest.raises(ValidityError) as scalar:
        single_lindblad_trajectory(slp, (0, 0, 1.0), 800.0)
    with pytest.raises(ValidityError) as array:
        single_lindblad_trajectory(slp, (0, 0, 1.0), np.array([0.0, 1.0, 800.0]))
    assert str(array.value) == str(scalar.value)


def test_case_formula_guards():
    tilted = QubitGeneratorParams((0, 0, 1), (1, 0, 1))
    with pytest.raises(PreconditionError):
        bloch_trajectory_case(CaseClass.PARABOLIC, tilted, (0, 0, 1), 1.0)
    damped = QubitGeneratorParams((0, 0, 1), (2, 0, 0))
    with pytest.raises(PreconditionError):
        bloch_trajectory_case(CaseClass.OSCILLATORY, damped, (0, 0, 1), 1.0)


def test_trajectory_survives_long_damped_times():
    # naive cosh/sinh overflows near t ~ 300 for these rates; the scaled
    # form must not
    p = QubitGeneratorParams((0, 0, 6.0), (8.0, 0, 0))
    n = bloch_trajectory_general(p, (0, 0, 1.0), 200.0)
    assert np.isfinite(n).all()


def test_eigenstate_probability_branches():
    t = np.linspace(0.0, 5.0, 11)
    for g, w in ((4.0, 6.0), (6.0, 6.0), (8.0, 6.0)):
        p_plus, p_minus = eigenstate_probabilities(g, w, t)
        assert np.allclose(p_plus + p_minus, 1.0, atol=1e-12)
        assert (p_minus >= -1e-12).all() and (p_minus <= 0.5 + 1e-12).all()
    with pytest.raises(DomainError):
        eigenstate_probabilities(-1.0, 6.0, 1.0)


def test_probabilities_against_full_trajectory():
    # p_minus from the scalar formula equals (1 - n3)/2 of the trajectory
    g, w = 4.0, 6.0
    p = QubitGeneratorParams((0, 0, w), (g, 0, 0))
    for t in np.linspace(0.1, 2.0, 8):
        n = bloch_trajectory_general(p, (0, 0, 1.0), t)
        _, p_minus = eigenstate_probabilities(g, w, t)
        assert abs(0.5 * (1.0 - n[2]) - p_minus) <= 1e-12


def test_rabi_maximum():
    g, w = 5.5, 6.0
    t = np.linspace(0.0, 10.0, 20001)
    # grid resolution bounds the sampled maximum to ~(Omega dt)^2/8 relative
    assert rabi_probability(g, w, t).max() == pytest.approx(
        g * g / (g * g + w * w), rel=1e-5
    )


def test_asymptote_branches(rng):
    osc = QubitGeneratorParams((0, 0, 6.0), (4.0, 0, 0))
    assert asymptote(osc, (0, 0, 1.0)) is None

    damped = QubitGeneratorParams((0, 0, 6.0), (8.0, 0, 0))
    tail = asymptote(damped, (0, 0, 1.0))
    x = np.sqrt(damped.c2)
    want = 2.0 * (x * damped.g + np.cross(damped.omega, damped.g)) / (
        damped.c2 + 64.0 + 36.0
    )
    assert np.linalg.norm(tail - want) <= 1e-12

    zero = QubitGeneratorParams((0, 0, 0.0), (0, 0, 0.0))
    xi = random_bloch(rng)
    assert np.allclose(asymptote(zero, xi), xi)


def test_asymptote_is_a_fixed_point():
    p = QubitGeneratorParams((0.3, -1.0, 2.0), (1.5, 0.4, -0.2))
    tail = asymptote(p, (0, 0, 1.0))
    moved = bloch_trajectory_general(p, tail, 1.0)
    assert np.linalg.norm(moved - tail) <= 1e-9


# single-Lindblad exact solution


def test_single_lindblad_params():
    with pytest.raises(DomainError):
        SingleLindbladParams(2.0, 1.0, 2.0)  # 2g = l^2 exactly
    p = SingleLindbladParams(-0.5, 13.0, 2.5)
    assert p.l_bar == pytest.approx(-21.0 / 29.0)


def test_single_lindblad_matches_ode():
    p = SingleLindbladParams(-0.5, 13.0, 2.5)
    xi0 = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
    traj = evolve(p.generator(), bloch_to_density(xi0),
                  IntegratorConfig(t_end=2.0, step=1e-3, sample_stride=400))
    for t, rho in zip(traj.times, traj.states):
        want = single_lindblad_trajectory(p, xi0, float(t))
        assert np.linalg.norm(density_to_bloch(rho) - want) <= 1e-7


def test_single_lindblad_fixed_points():
    p = SingleLindbladParams(-0.5, 13.0, 2.5)
    # n3 = 1 is stationary for the n3 equation; the interior attractor
    # is -l_bar = 21/29
    late = single_lindblad_trajectory(p, (0.2, 0.1, 0.3), 80.0)
    assert late[2] == pytest.approx(21.0 / 29.0, abs=1e-10)
    top = single_lindblad_trajectory(p, (0.0, 0.0, 1.0), 5.0)
    assert top[2] == pytest.approx(1.0, abs=1e-12)


def test_single_lindblad_kraus_reproduces_trajectory(rng):
    p = SingleLindbladParams(-0.5, 13.0, 2.5)
    xi = random_bloch(rng)
    rho0 = bloch_to_density(xi)
    for t in (0.1, 0.5, 1.0, 2.5, 5.0):
        fam = single_lindblad_kraus(p, t)
        got = density_to_bloch(fam.apply_normalized(rho0))
        want = single_lindblad_trajectory(p, xi, t)
        assert np.linalg.norm(got - want) <= 1e-10


def test_single_lindblad_kappa_gauge_cancels(rng):
    base = SingleLindbladParams(0.4, 2.0, 0.5, kappa=0.0)
    gauged = SingleLindbladParams(0.4, 2.0, 0.5, kappa=1.3)
    xi = random_bloch(rng)
    rho0 = bloch_to_density(xi)
    for t in (0.3, 1.0, 2.0):
        a = single_lindblad_kraus(base, t).apply_normalized(rho0)
        b = single_lindblad_kraus(gauged, t).apply_normalized(rho0)
        assert frobenius(a - b) <= 1e-12

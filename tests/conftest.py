import numpy as np
import pytest
from hypothesis import settings

from qdsim.errors import IntegrationDivergedError, UnsupportedModeError
from qdsim.tolerances import TOL

# numeric property tests routinely out-run hypothesis' default deadline
# on a loaded core; the budget is enforced suite-wide instead
settings.register_profile("qdsim", deadline=None, max_examples=50)
settings.load_profile("qdsim")


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v)
    if pure:
        return v
    return v * rng.uniform(0.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def rk4_on_gksl_rhs(rate, rho, h, n_steps, stride):
    """Classical RK4 on the nonlinear master equation rho' = rate(t, rho)
    on the complex matrix, sampled as evolve samples (t = 0, every
    stride-th step and the last): the reference for evolve's linear
    lift, independent of it."""
    samples = [rho]
    for i in range(n_steps):
        t = i * h
        k1 = rate(t, rho)
        k2 = rate(t + 0.5 * h, rho + (0.5 * h) * k1)
        k3 = rate(t + 0.5 * h, rho + (0.5 * h) * k2)
        k4 = rate(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(rho)
    return np.array(samples)


def family_rhs(family):
    """rate(t, rho) = Lambda(rho) - tr Lambda(rho) rho of a RateFamily,
    Lambda(rho) = M rho + rho M^dag, with M(t) = M_base + f(t) M_slope
    formed directly: family(t) validates a Generator per call, about
    five times the cost of a stage."""
    m0, m1 = family.base._m, family.slope._m

    def rate(t, rho):
        x = (m0 + family.magnitude(t) * m1) @ rho
        lam = x + x.conj().T
        return lam - np.trace(lam).real * rho

    return rate


def rk4_on_gksl_rhs_2x2(family, rho, h, n_steps, stride):
    """rk4_on_gksl_rhs(family_rhs(family), rho, ...) for a 2x2 RateFamily,
    written out on the four entries of rho and M(t) as Python complex
    numbers, about a quarter of the time of 2x2 numpy products: the same
    RK4 on the nonlinear equation, independent of the lift, rounded
    differently."""
    m0 = [complex(v) for v in family.base._m.ravel()]
    m1 = [complex(v) for v in family.slope._m.ravel()]

    def m_at(t):
        f = float(family.magnitude(t))
        return [a + f * b for a, b in zip(m0, m1)]

    def rate(m, r):
        m00, m01, m10, m11 = m
        r00, r01, r10, r11 = r
        x00, x01 = m00 * r00 + m01 * r10, m00 * r01 + m01 * r11
        x10, x11 = m10 * r00 + m11 * r10, m10 * r01 + m11 * r11
        l00, l11 = 2.0 * x00.real, 2.0 * x11.real
        tr = l00 + l11
        return (l00 - tr * r00, x01 + x10.conjugate() - tr * r01,
                x10 + x01.conjugate() - tr * r10, l11 - tr * r11)

    r = tuple(complex(v) for v in np.asarray(rho).ravel())
    samples = [r]
    for i in range(n_steps):
        t = i * h
        mid = m_at(t + 0.5 * h)
        k1 = rate(m_at(t), r)
        k2 = rate(mid, [x + (0.5 * h) * k for x, k in zip(r, k1)])
        k3 = rate(mid, [x + (0.5 * h) * k for x, k in zip(r, k2)])
        k4 = rate(m_at(t + h), [x + h * k for x, k in zip(r, k3)])
        r = tuple(x + (h / 6.0) * (a + 2.0 * (b + c) + d)
                  for x, a, b, c, d in zip(r, k1, k2, k3, k4))
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(r)
    return np.array(samples).reshape(-1, 2, 2)


def check_density_sample(rho, t):
    """The density guard of one sample, its tests in order: applied to
    each sample in turn, the reference for dynamics._check_density_block."""
    if not np.isfinite(rho).all():
        raise IntegrationDivergedError("state has non-finite entries", t)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL.ode_trace_drift:
        raise IntegrationDivergedError(f"trace drift {tr - 1.0:.3e}", t)
    w = np.linalg.eigvalsh(rho)
    if w.min() < TOL.eigenvalue_floor:
        raise IntegrationDivergedError(f"eigenvalue {w.min():.3e} below the floor", t)


def check_ket_sample(psi, t):
    """The ket guard of one sample: applied to each sample in turn, the
    reference for dynamics._check_ket_block."""
    if not np.isfinite(psi).all():
        raise IntegrationDivergedError("state has non-finite entries", t)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > TOL.ode_norm_drift:
        raise IntegrationDivergedError(f"norm drift {drift:.3e}", t)


def state_vector_rhs(gen, psi, kappa=0.0):
    """d/dt psi = x - (Re<psi|x> - i kappa) psi with x = (G - iH) psi, the
    same as (-iH + G - <G> + i kappa) psi; norm-preserving for any kappa.
    The nonlinear state-vector equation, independent of evolve_state_vector's
    linear lift."""
    if gen.lindblads:
        raise UnsupportedModeError("state-vector form requires empty lindblads")
    x = gen._m @ psi
    return x - (np.vdot(psi, x).real - 1j * kappa) * psi


def rk4_on_state_vector(gen, psi, h, n_steps, stride, kappa=0.0):
    """Classical RK4 on state_vector_rhs, one step at a time, sampled as
    evolve_state_vector samples (t = 0, every stride-th step and the
    last): the reference for its lift, independent of it."""
    rate = lambda p: state_vector_rhs(gen, p, kappa)
    samples = [psi]
    for i in range(n_steps):
        k1 = rate(psi)
        k2 = rate(psi + (0.5 * h) * k1)
        k3 = rate(psi + (0.5 * h) * k2)
        k4 = rate(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(psi)
    return np.array(samples)

"""Nonlinear master-equation dynamics.

The flow is the normalized image of a linear, non-trace-preserving
generator, with M = G - iH:

    d/dt rho = Lambda(rho) - tr Lambda(rho) * rho,
    Lambda(rho) = M rho + rho M^dag + sum_a L_a rho L_a^dag.

For L_a = 0 it is solved in closed form by rho(t) = K rho0 K^dag / tr(...)
with K = exp((G - iH) t), the oracle for the fixed-step integrator.

evolve steps the real coordinates y of rho: its diagonal, then the real
and the imaginary parts of its upper triangle. There Lambda is a fixed
real d^2 x d^2 matrix A and tr Lambda a fixed row c, so each RK4 stage
is one product z = B y with B = [A; c] and the rate z[:-1] - z[-1] y.
gksl_rhs is the same equation on the complex matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    IntegrationDivergedError,
    UnsupportedModeError,
    ValidityError,
)
from .kraus import KrausFamily
from .linalg import as_operator, dagger, frobenius, is_hermitian, matrix_exponential, pauli_dot
from .states import density_matrix, state_vector
from .tolerances import TOL


@dataclass(frozen=True)
class Generator:
    """Triple (H, G, {L_a}): Hermitian drift, Hermitian gain, jump operators."""

    hamiltonian: np.ndarray
    damping: np.ndarray
    lindblads: tuple = ()

    def __init__(self, hamiltonian, damping, lindblads=()) -> None:
        h = as_operator(hamiltonian)
        g = as_operator(damping)
        ls = tuple(as_operator(l) for l in lindblads)
        if not is_hermitian(h):
            raise ValidityError("H is not Hermitian to tolerance")
        if not is_hermitian(g):
            raise ValidityError("G is not Hermitian to tolerance")
        dim = h.shape[0]
        if g.shape != (dim, dim) or any(l.shape != (dim, dim) for l in ls):
            raise DimensionError("generator parts must share one dimension")
        self._store(h, g, ls)

    def _store(self, h, g, ls) -> None:
        """Set the parts and what every rhs evaluation reuses: M = G - iH
        and the halved jump pairs (L/sqrt2, (L/sqrt2)^dag). The one place
        they are computed, for __init__ and for the pre-validated family
        of qubit_rate_generator alike."""
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "damping", g)
        object.__setattr__(self, "lindblads", ls)
        object.__setattr__(self, "_m", g - 1j * h)
        halves = tuple(l * math.sqrt(0.5) for l in ls)
        object.__setattr__(self, "_lpairs", tuple((l, dagger(l)) for l in halves))

    @cached_property
    def _b(self) -> np.ndarray:
        """B = [A; c] of evolve's coordinate stage, built on first use.
        The drift -iH and the rest of M with the jumps are applied apart,
        so that qubit_rate_generator, whose B is linear in the magnitude
        of G, fills the same matrix bit for bit."""
        return (_coordinate_generator(-1j * self.hamiltonian, (), self.dim)
                + _coordinate_generator(self.damping, self._lpairs, self.dim))

    @classmethod
    def qubit(cls, omega, g, lindblads=()) -> "Generator":
        """H = omega.sigma/2, G = g.sigma/2 for real 3-vectors omega, g."""
        omega = np.asarray(omega, dtype=float)
        g = np.asarray(g, dtype=float)
        return cls(0.5 * pauli_dot(omega), 0.5 * pauli_dot(g), lindblads)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class IntegratorConfig:
    """One RK4 run's horizon, step and stride; whole_steps and sample_count vet them."""

    t_end: float
    step: float = 1e-3
    sample_stride: int = 1


def whole_steps(t_end: float, step: float) -> int:
    """Number of fixed steps of size step that end at t_end.

    The one rule every stepper uses to turn a horizon into a step count:
    a non-finite or negative value, a horizon that is not a whole number
    of steps to TOL.whole_steps_rel, or one that needs more than
    TOL.max_steps steps raises DomainError rather than running to a
    shorter or longer horizon than the one asked for, or for hours.
    """
    if not (math.isfinite(t_end) and math.isfinite(step)):
        raise DomainError(f"horizon {t_end!r} and step {step!r} must be finite")
    if t_end < 0.0 or step <= 0.0:
        raise DomainError(f"need horizon >= 0 and step > 0, got {t_end!r} and {step!r}")
    ratio = t_end / step
    if not ratio < TOL.max_steps + 0.5:
        raise DomainError(
            f"horizon {t_end!r} needs more than {TOL.max_steps} steps of {step!r}")
    n = round(ratio)
    if abs(ratio - n) > TOL.whole_steps_rel * n:
        raise DomainError(f"horizon {t_end!r} is not a whole number of steps of {step!r}")
    return n


def sample_count(n_steps: int, stride: int) -> int:
    """Samples a run of n_steps stores: t = 0, every stride-th step and
    the last. The one stride rule: a stride below 1 raises DomainError,
    as do more than TOL.max_samples samples, so no caller allocates
    storage sized by an unchecked horizon."""
    if stride < 1:
        raise DomainError(f"sample_stride must be at least 1, got {stride!r}")
    n = 1 + -(-n_steps // stride)
    if n > TOL.max_samples:
        raise DomainError(f"{n} samples requested; at most {TOL.max_samples} are stored")
    return n


@dataclass(frozen=True)
class Trajectory:
    """Sample times and the sampled states stacked in one array: (N, d, d)
    density matrices, (N, d) kets, or what a model's step carries."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states)
        if t.ndim != 1 or states.shape[:1] != t.shape:
            raise DimensionError("times and states must have equal length")
        if t.shape[0] > 1 and not (np.diff(t) > 0.0).all():
            raise ValidityError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _sampled_steps(advance, y0, n_steps: int, h: float, stride: int,
                   check_sample=None) -> Trajectory:
    """The one sampling loop of every fixed-step run: stores y0 at t = 0
    and the state after every stride-th step and after the last, each
    vetted first by check_sample(y, t). advance(i, y, m) steps y from
    step i across m steps. y0 is read only for the storage shape and
    dtype, so a scalar stepper keeps its Python numbers."""
    first = np.asarray(y0)
    times = np.empty(sample_count(n_steps, stride))
    states = np.empty(times.shape + first.shape, dtype=first.dtype)
    times[0], states[0] = 0.0, first
    y, done = y0, 0
    # a state that overflows turns non-finite without a numpy warning;
    # check_sample (or the model's own guard) names it, with the time
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, times.shape[0]):
            m = min(stride, n_steps - done)
            y = advance(done, y, m)
            done += m
            t = done * h
            if check_sample is not None:
                check_sample(y, t)
            times[k], states[k] = t, y
    return Trajectory(times=times, states=states)


def _rk4_linear_step(ha: np.ndarray) -> np.ndarray:
    """The RK4 step R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 of a
    constant linear flow y' = A y, given hA."""
    a2 = ha @ ha
    return np.eye(ha.shape[0]) + ha + a2 / 2.0 + (ha @ a2) / 6.0 + (a2 @ a2) / 24.0


def _successive_powers(step: np.ndarray) -> Callable[[int], np.ndarray]:
    """m -> step^m, cached per m. Storing every m-th step of a run with a
    fixed linear step needs only step^m, one product per sample.

    step^m is built by m - 1 successive products step @ step^(m-1), the
    rounding of m steps applied one at a time. Binary squaring
    (np.linalg.matrix_power) rounds differently: on the shipped
    bmt_spin_damping_a run it drifts the four-vector invariants about
    four times faster (5.1e-7 against 1.2e-7 by tau = 7000) and passes
    TOL.bmt_invariant_drift at tau = 7393, before the horizon 8000.
    """
    cache = {}

    def power(m: int) -> np.ndarray:
        rm = cache.get(m)
        if rm is None:
            rm = step
            for _ in range(m - 1):
                rm = step @ rm
            cache[m] = rm
        return rm

    return power


def _linear_image(m: np.ndarray, lpairs, rho: np.ndarray) -> np.ndarray:
    """Lambda(rho) = X + X^dag with X = M rho + sum_a (L_a/sqrt2) rho
    (L_a/sqrt2)^dag, for one matrix or a stack: one product for M and one
    per jump operator, and Hermitian bit for bit."""
    x = m @ rho
    for l, lh in lpairs:
        x += l @ rho @ lh
    return x + dagger(x)


def gksl_rhs(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """Lambda(rho) - tr Lambda(rho) * rho, the trace-conserving nonlinear
    master equation on the complex matrix rho (see _linear_image)."""
    if rho.shape != (gen.dim, gen.dim):
        raise DimensionError("state dimension does not match the generator")
    lam = _linear_image(gen._m, gen._lpairs, rho)
    return lam - np.trace(lam).real * rho


def _to_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of the Hermitian part of rho (..., d, d):
    the diagonal, then the real and the imaginary parts of the upper
    triangle, row by row."""
    herm = 0.5 * (rho + dagger(rho))
    upper = herm[(...,) + np.triu_indices(rho.shape[-1], 1)]
    return np.concatenate([herm.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def _from_coordinates(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices (..., d, d) with coordinates y (..., d^2).
    Each conjugate pair is written from the same two reals, so the
    result is Hermitian bit for bit."""
    rows, cols = np.triu_indices(d, 1)
    p = rows.size
    rho = np.zeros(y.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    rho[..., diag, diag] = y[..., :d]
    upper = y[..., d:d + p] + 1j * y[..., d + p:]
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


_BASIS_CHUNK_ENTRIES = 1 << 16  # basis-matrix entries one pass of _coordinate_generator holds


def _coordinate_generator(m: np.ndarray, lpairs, d: int) -> np.ndarray:
    """B = [A; c] of shape (d^2 + 1, d^2): A maps the coordinates of rho to
    those of Lambda(rho) and c to tr Lambda(rho). Its columns are
    _linear_image of the coordinate basis, taken a chunk at a time.
    B grows as d^4, so d is capped by TOL.max_coordinate_dim before B
    is allocated."""
    if d > TOL.max_coordinate_dim:
        raise DomainError(f"evolve steps a ({d}^2 + 1) x {d}^2 real generator matrix; "
                          f"at most d = {TOL.max_coordinate_dim} is supported")
    n = d * d
    b = np.empty((n + 1, n))
    chunk = max(1, _BASIS_CHUNK_ENTRIES // n)
    for k in range(0, n, chunk):
        unit = np.eye(min(chunk, n - k), n, k)  # coordinate vectors k, k + 1, ...
        lam = _linear_image(m, lpairs, _from_coordinates(unit, d))
        cols = slice(k, k + unit.shape[0])
        b[:n, cols] = _to_coordinates(lam).T
        b[n, cols] = np.trace(lam, axis1=-2, axis2=-1).real
    return b


def _coordinate_rhs(gen: Generator, y: np.ndarray) -> np.ndarray:
    """gksl_rhs in coordinates: z = B y, then Lambda - tr(Lambda) rho is
    z[:-1] - z[-1] y."""
    b = gen._b
    if b.shape[1] != y.shape[0]:
        raise DimensionError("state dimension does not match the generator")
    z = b.dot(y)
    return z[:-1] - y * z[-1]


def state_vector_rhs(gen: Generator, psi: np.ndarray, kappa: float = 0.0) -> np.ndarray:
    """d/dt psi = x - (Re<psi|x> - i kappa) psi with x = (G - iH) psi, the
    same as (-iH + G - <G> + i kappa) psi; norm-preserving for any kappa."""
    if gen.lindblads:
        raise UnsupportedModeError("state-vector form requires empty lindblads")
    x = gen._m @ psi
    return x - (np.vdot(psi, x).real - 1j * kappa) * psi


def closed_form_propagate(gen: Generator, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = K rho0 K^dag / tr(...) with K = exp((G - iH) t); L_a = 0 only."""
    if gen.lindblads:
        raise UnsupportedModeError("closed form requires empty lindblads")
    k = matrix_exponential(gen._m * t)
    return KrausFamily((k,)).apply_normalized(rho0)


def finite_difference_generator_check(gen: Generator, rho: np.ndarray, dt: float) -> float:
    """Residual of the first-order Kraus family against the master equation.

    Builds K0 = I + dt (G - iH), K_a = sqrt(dt) L_a, applies the normalized
    map, and returns ||(Phi_dt(rho) - rho)/dt - rhs||_F. The caller asserts
    the O(dt) convergence rate.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    rho = density_matrix(rho)
    eye = np.eye(gen.dim, dtype=complex)
    ops = [eye + dt * gen._m] + [np.sqrt(dt) * l for l in gen.lindblads]
    family = KrausFamily(tuple(ops))
    stepped = family.apply_normalized(rho)
    return frobenius((stepped - rho) / dt - gksl_rhs(gen, rho))


def _check_density_sample(rho: np.ndarray, t: float) -> None:
    if not np.isfinite(rho).all():
        raise IntegrationDivergedError("state has non-finite entries", t)
    herm = frobenius(rho - dagger(rho))
    if herm > TOL.ode_hermitian_drift * max(1.0, frobenius(rho)):
        raise IntegrationDivergedError(f"hermiticity drift {herm:.3e}", t)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL.ode_trace_drift:
        raise IntegrationDivergedError(f"trace drift {tr - 1.0:.3e}", t)
    w = np.linalg.eigvalsh(rho)
    if w.min() < TOL.eigenvalue_floor:
        raise IntegrationDivergedError(f"eigenvalue {w.min():.3e} below the floor", t)


def _check_ket_sample(psi: np.ndarray, t: float) -> None:
    if not np.isfinite(psi).all():
        raise IntegrationDivergedError("state has non-finite entries", t)
    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > TOL.ode_norm_drift:
        raise IntegrationDivergedError(f"norm drift {drift:.3e}", t)


def _rk4(gen, rhs, y0: np.ndarray, cfg: IntegratorConfig, check_sample) -> Trajectory:
    """Classical fixed-step RK4 on rhs(generator, y), sampled by
    _sampled_steps with check_sample vetting each sample. y is what the
    caller steps: the real coordinates of a density matrix for evolve,
    the complex ket for evolve_state_vector.

    gen is a Generator or a time -> Generator callable. A callable is
    queried once per distinct stage time: k2 and k3 share t + h/2, and
    the generator at t + h is reused as the next step's start.
    """
    at = gen if callable(gen) else lambda t: gen
    h = cfg.step
    gen_t = None

    def advance(i0, y, m):
        nonlocal gen_t
        g_start = at(0.0) if i0 == 0 else gen_t
        for i in range(i0, i0 + m):
            t = i * h
            g_mid = at(t + 0.5 * h)
            g_end = at(t + h)
            k1 = rhs(g_start, y)
            k2 = rhs(g_mid, y + (0.5 * h) * k1)
            k3 = rhs(g_mid, y + (0.5 * h) * k2)
            k4 = rhs(g_end, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            g_start = g_end
        gen_t = g_start
        return y

    return _sampled_steps(advance, y0, whole_steps(cfg.t_end, h), h,
                          cfg.sample_stride, check_sample)


def evolve(gen, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """RK4 on the master equation in the real coordinates of rho, one
    product with the generator's B per stage (see the module docstring).

    The start is read as its Hermitian part, which density_matrix has
    held within TOL.hermitian_rel of it. Samples are rebuilt as
    matrices, exactly Hermitian; each must keep the trace within the
    ode_* drift bounds and the eigenvalues above the floor, and a breach
    raises with the offending time.
    """
    rho0 = density_matrix(rho0)
    d = rho0.shape[0]
    check = lambda y, t: _check_density_sample(_from_coordinates(y, d), t)
    traj = _rk4(gen, _coordinate_rhs, _to_coordinates(rho0), cfg, check)
    return Trajectory(traj.times, _from_coordinates(traj.states, d))


def evolve_state_vector(gen, psi0: np.ndarray, cfg: IntegratorConfig,
                        kappa: float = 0.0) -> Trajectory:
    """RK4 on the norm-preserving state-vector form; same sampling rules."""
    rhs = lambda g, psi: state_vector_rhs(g, psi, kappa)
    return _rk4(gen, rhs, state_vector(psi0), cfg, _check_ket_sample)


def inverted_morse_profile(q: float, nu: float) -> Callable[[float], float]:
    """Damping-rate magnitude g(t) = q (1 - (1 - e^{-nu t})^2): starts at q,
    decays to zero; crosses any level in (0, q) exactly once for t >= 0.
    t may be a scalar or an array."""
    if q == 0.0 or nu <= 0.0:
        raise DomainError("need q != 0 and nu > 0")

    def profile(t: float) -> float:
        u = 1.0 - np.exp(-nu * t)
        return q * (1.0 - u * u)

    return profile


def qubit_rate_generator(omega_vec, g_direction,
                         magnitude: Callable[[float], float]) -> Callable[[float], Generator]:
    """Constant omega, time-dependent g(t) = magnitude(t) * g_direction.

    H and the direction are validated once, here, by building
    Generator(H, g_direction.sigma/2). A real multiple of a Hermitian
    matrix is Hermitian, so at(t) only checks that magnitude(t) keeps
    G(t) finite, raising ValidityError as Generator does, and then fills
    the same caches as Generator(H, magnitude(t) * sigma_g) with the same
    arithmetic: an RK4 run queries the family twice per step. Its B is
    B_H + magnitude(t) * B_sigma from two matrices built here; for a
    traceless 2x2 sigma_g each entry of B_sigma is one entry of sigma_g,
    twice one, or zero, so this is Generator's B bit for bit.
    """
    base = Generator(0.5 * pauli_dot(np.asarray(omega_vec, dtype=float)),
                     0.5 * pauli_dot(np.asarray(g_direction, dtype=float)))
    h, sig_g = base.hamiltonian, base.damping
    b_h = _coordinate_generator(-1j * h, (), 2)
    b_sig = _coordinate_generator(sig_g, (), 2)
    # |f| * largest |entry| finite keeps every entry of f * sig_g finite
    sig_max = float(np.abs(sig_g).max())

    def at(t: float) -> Generator:
        f = float(magnitude(t))
        if not math.isfinite(f * sig_max):
            raise ValidityError("operator contains non-finite entries")
        gen = object.__new__(Generator)
        gen._store(h, f * sig_g, ())
        object.__setattr__(gen, "_b", b_h + f * b_sig)
        return gen

    return at

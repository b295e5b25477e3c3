"""Nonlinear master-equation dynamics.

The flow is the normalized image of a linear, non-trace-preserving
generator, with M = G - iH:

    d/dt rho = Lambda(rho) - tr Lambda(rho) * rho,
    Lambda(rho) = M rho + rho M^dag + sum_a L_a rho L_a^dag.

For L_a = 0 it is solved by rho(t) = K rho0 K^dag / tr(...) with
dK/dt = M(t) K: in closed form K = exp((G - iH) t) for a constant M,
the oracle for the fixed-step integrators.

evolve steps the real coordinates y of rho: its diagonal, then the real
and the imaginary parts of its upper triangle. There Lambda is a fixed
real d^2 x d^2 matrix A and tr Lambda a fixed row c, so each RK4 stage
is one product z = B y with B = [A; c] and the rate z[:-1] - z[-1] y;
a RateFamily hands evolve B(t) = B_base + f(t) B_slope, built per block
of steps as one stack over the block's stage times.
gksl_rhs is the same equation on the complex matrix.

_lift_chunks steps the linear lift K' = M(t) K of a 2x2 RateFamily
instead, whose normalised image is the state: its RK4 steps depend on t
only, so they are built as entry arrays per block of steps and each
sample's steps are multiplied together before they meet the state.
evolve_lift applies each product P to a density matrix as P rho P^dag
/ tr(...), the route of every gksl-ode run, and neutrino_evolve applies
it to a ket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
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
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "damping", g)
        object.__setattr__(self, "lindblads", ls)
        # reused by every rhs: M = G - iH and the pairs (L/sqrt2, (L/sqrt2)^dag)
        object.__setattr__(self, "_m", g - 1j * h)
        halves = tuple(l * math.sqrt(0.5) for l in ls)
        object.__setattr__(self, "_lpairs", tuple((l, dagger(l)) for l in halves))

    @cached_property
    def _b(self) -> np.ndarray:
        """B = [A; c] of evolve's coordinate stage, built on first use.
        The drift -iH and the rest of M with the jumps are applied apart,
        so that the B(t) of a qubit_rate_generator family, linear in the
        magnitude of G, is this matrix bit for bit."""
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


_LIFT_BLOCK = 1024  # steps whose RK4 matrices _lift_chunks holds at once
# x = 2.78529... solves R(-x) = 1 for RK4's R(z) = 1 + z + z^2/2 + z^3/6
# + z^4/24, i.e. x^3 - 4x^2 + 12x - 24 = 0: the real stability interval
_RK4_REAL_STABILITY = 2.7852935634052813


def _entry_product(x, y):
    """x @ y for 2x2 matrices held as entry tuples (00, 01, 10, 11) of
    arrays, one matrix per array position."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _unit_scaled(x):
    """Scale each matrix of the entry tuple x, in place, by the power of
    two 2^-e that puts its largest real or imaginary part in [1/2, 1);
    returns x and the exponents e. A power of two changes no mantissa
    bit, so a normalised image keeps its direction."""
    big = np.maximum.reduce([np.maximum(abs(e.real), abs(e.imag)) for e in x])
    exponent = np.frexp(big)[1]
    scale = np.ldexp(1.0, -exponent)
    for e in x:
        e *= scale
    return x, exponent


def _lift_steps(fam, h: float, j0: int, j1: int, refuse_stiff: bool = False):
    """The classical RK4 steps R_i of the linear lift K' = M(t) K of a
    2x2 RateFamily, for steps i = j0 .. j1 - 1, as one entry tuple
    scaled by powers of two (_unit_scaled). With A1, A2, A4 = M(t),
    M(t + h/2), M(t + h):

        P2 = A2 (I + h/2 A1),  P3 = A2 (I + h/2 P2),  P4 = A4 (I + h P3),
        R = I + h/6 (A1 + 2 P2 + 2 P3 + P4).

    Guard: the first step with R non-finite, singular, or sigma_max(R) >=
    2 exp(h mu), mu the largest eigenvalue of G = (M + M^dag)/2 at the
    step's three stage times, raises IntegrationDivergedError at its end.
    The exact flow grows no vector by more than exp(h mu) (the
    logarithmic-norm bound), so this refuses a step that RK4 amplifies
    past twice that; for G = 0 it is the bound 2 on a ket's norm.

    That bound is loose wherever the flow itself grows, so with
    refuse_stiff (evolve_lift) the guard also refuses a stiff step: one
    where h times the spectral radius of M at any of its three stage
    times exceeds half of RK4's real stability interval
    _RK4_REAL_STABILITY. The normalised image moves only by the eigenvalue
    difference h (lambda_1 - lambda_2), which for a traceless M is twice
    h lambda_1; past the interval RK4's ratio R(h lambda_1) / R(h lambda_2)
    no longer follows exp(h (lambda_1 - lambda_2)): at h lambda = +-50 it
    is 0.85 where the flow's is e^-100, so the decaying direction never
    decays, and every sample is still a valid state. Where both guards
    refuse the same first step, the amplitude message is raised."""
    t = np.arange(j0, j1) * h
    v1, v2, v4 = (fam._f(s) for s in (t, t + 0.5 * h, t + h))
    # lambda_max of G0 + v G1 is c + sqrt(d^2 + |o|^2) with c, d the mean
    # and the half-difference of its diagonal and o its off-diagonal entry
    (g00, g01), (_, g11) = fam.base.damping.tolist()
    (s00, s01), (_, s11) = fam.slope.damping.tolist()
    mu = np.maximum.reduce([
        0.5 * (g00 + g11).real + 0.5 * (s00 + s11).real * v
        + np.sqrt((0.5 * (g00 - g11).real + 0.5 * (s00 - s11).real * v) ** 2
                  + abs(g01 + s01 * v) ** 2)
        for v in (v1, v2, v4)])

    m0, m1 = fam.base._m.ravel().tolist(), fam.slope._m.ravel().tolist()

    def at(v):
        return tuple(a + v * b for a, b in zip(m0, m1))

    def shifted(c, x):  # I + c X
        return 1.0 + c * x[0], c * x[1], c * x[2], 1.0 + c * x[3]

    def radius(x):  # the spectral radius of each matrix, tr/2 +- s its eigenvalues
        half_trace = 0.5 * (x[0] + x[3])
        s = np.sqrt(0.25 * (x[0] - x[3]) ** 2 + x[1] * x[2])
        return np.maximum(abs(half_trace + s), abs(half_trace - s))

    if refuse_stiff:
        radii = np.maximum.reduce([radius(at(v)) for v in (v1, v2, v4)])
        stiff = np.flatnonzero(~(h * radii <= 0.5 * _RK4_REAL_STABILITY))

    # the stage sum A1 + 2 P2 + 2 P3 + P4 is accumulated as the stages
    # are built, so that a block holds few entry arrays at once
    a2, total = at(v2), at(v1)
    p = _entry_product(a2, shifted(0.5 * h, total))
    for e, k in zip(total, p):
        e += 2.0 * k
    p = _entry_product(a2, shifted(0.5 * h, p))
    for e, k in zip(total, p):
        e += 2.0 * k
    del a2
    p = _entry_product(at(v4), shifted(h, p))
    for e, k in zip(total, p):
        e += k
    del p
    r, exponent = _unit_scaled(shifted(h / 6.0, total))
    del total

    r00, r01, r10, r11 = r
    det = r00 * r11 - r01 * r10
    frob = sum(e.real ** 2 + e.imag ** 2 for e in r)
    # sigma_max^2 = (|R|_F^2 + sqrt(|R|_F^4 - 4 |det R|^2)) / 2; the clamp
    # only absorbs rounding, a nan stays nan and fails the comparison
    sigma = np.sqrt(0.5 * (frob + np.sqrt(np.maximum(frob ** 2 - 4.0 * abs(det) ** 2, 0.0))))
    bad = np.flatnonzero(~((sigma < np.ldexp(2.0 * np.exp(h * mu), -exponent)) & (det != 0.0)))
    if refuse_stiff and stiff.size and not (bad.size and bad[0] <= stiff[0]):
        raise IntegrationDivergedError(
            f"stiff step: h times the spectral radius of M is {h * radii[stiff[0]]:.3e}, "
            f"past {0.5 * _RK4_REAL_STABILITY:.4f} (half RK4's real stability interval)",
            float((j0 + stiff[0] + 1) * h))
    if bad.size:
        raise IntegrationDivergedError("amplitude norm left (0, 2)", float((j0 + bad[0] + 1) * h))
    return r


def _tree_products(r, width: int):
    """Products of consecutive runs of width matrices of the entry tuple
    r (the last run may be shorter), the later factor on the left, by a
    pairwise tree whose levels each take every run at once; each level's
    partial products are _unit_scaled, so none over- or underflows."""
    n = r[0].size
    full, rest = divmod(n, width)
    runs = [(0, full, width)] if full else []
    if rest:
        runs.append((full * width, 1, rest))
    out = []
    for start, k, w in runs:
        x = tuple(e[start:start + k * w].reshape(k, w) for e in r)
        while w > 1:
            pairs = _entry_product(tuple(e[:, 1::2] for e in x),
                                   tuple(e[:, 0:w - 1:2] for e in x))
            if w % 2:
                pairs = tuple(np.concatenate([p, e[:, -1:]], axis=1) for p, e in zip(pairs, x))
            x, _ = _unit_scaled(pairs)
            w = x[0].shape[1]
        out.append(x)
    return tuple(np.concatenate([x[j][:, 0] for x in out]) for j in range(4))


def _lift_chunks(fam, h: float, n: int, stride: int, refuse_stiff: bool = False):
    """Yield, for each run of stride steps of steps 0 .. n - 1 (the last
    may be shorter), the product R_{i1 - 1} ... R_{i0} of their RK4 steps
    of the linear lift (_lift_steps) as four complex entries, scaled by a
    power of two. The steps are built _LIFT_BLOCK at a time: a block holds
    whole runs, or part of one run, which then multiplies block by block.
    refuse_stiff adds the stiff-step guard of _lift_steps."""
    per_block = max(1, _LIFT_BLOCK // stride)
    for c0 in range(0, n, per_block * stride):
        c1 = min(c0 + per_block * stride, n)
        if stride <= _LIFT_BLOCK:
            products = _tree_products(_lift_steps(fam, h, c0, c1, refuse_stiff), stride)
            yield from zip(*(e.tolist() for e in products))
        else:
            acc = None
            for j0 in range(c0, c1, _LIFT_BLOCK):
                p = _tree_products(_lift_steps(fam, h, j0, min(j0 + _LIFT_BLOCK, c1),
                                               refuse_stiff), _LIFT_BLOCK)
                acc = p if acc is None else _unit_scaled(_entry_product(p, acc))[0]
            yield tuple(e.item() for e in acc)


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


@cache
def _upper_triangle(d: int) -> tuple:
    """np.triu_indices(d, 1), built once per d and read-only. The maps run
    after d is capped by TOL.max_coordinate_dim, so the cache stays small."""
    rows, cols = np.triu_indices(d, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _to_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of the Hermitian part of rho (..., d, d):
    the diagonal, then the real and the imaginary parts of the upper
    triangle, row by row."""
    herm = 0.5 * (rho + dagger(rho))
    upper = herm[(...,) + _upper_triangle(rho.shape[-1])]
    return np.concatenate([herm.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def _from_coordinates(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices (..., d, d) with coordinates y (..., d^2).
    Each conjugate pair is written from the same two reals, so the
    result is Hermitian bit for bit."""
    rows, cols = _upper_triangle(d)
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


_STAGE_BLOCK_ENTRIES = 1 << 14  # stage-operator entries one block of _rk4 holds per stage


def _rk4(rate, at, y0: np.ndarray, cfg: IntegratorConfig, check_sample) -> Trajectory:
    """Classical fixed-step RK4 on y' = rate(op, y) with the operator op
    of the stage time, sampled by _sampled_steps with check_sample
    vetting each sample. y is what the caller steps: the real coordinates
    of a density matrix for evolve, the complex ket for
    evolve_state_vector. at(t) gives the operators of an array of times.

    Steps run in blocks; each block takes the stage times i h, i h + h/2
    and i h + h of its steps as three arrays and calls at once per array.
    A block holds at most _STAGE_BLOCK_ENTRIES / ((n + 1) n) steps for an
    n-entry y, the size of evolve's B, so its stacks stay bounded."""
    h = cfg.step
    block = max(1, _STAGE_BLOCK_ENTRIES // ((y0.size + 1) * y0.size))

    def advance(i0, y, m):
        for j0 in range(i0, i0 + m, block):
            t = np.arange(j0, min(j0 + block, i0 + m)) * h
            for op1, op2, op4 in zip(at(t), at(t + 0.5 * h), at(t + h)):
                k1 = rate(op1, y)
                k2 = rate(op2, y + (0.5 * h) * k1)
                k3 = rate(op2, y + (0.5 * h) * k2)
                k4 = rate(op4, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        return y

    return _sampled_steps(advance, y0, whole_steps(cfg.t_end, h), h,
                          cfg.sample_stride, check_sample)


def _coordinate_rate(gen, d: int):
    """evolve's rate(b, y) = z[:-1] - z[-1] y with z = B y, and at(t):
    the fixed B of a Generator repeated, or the stack of a RateFamily's
    B(t)."""
    if not isinstance(gen, (Generator, RateFamily)):
        raise UnsupportedModeError(f"evolve steps a Generator or a RateFamily, "
                                   f"not {type(gen).__name__}")
    if gen.dim != d:
        raise DimensionError("state dimension does not match the generator")
    at = gen._b_at if isinstance(gen, RateFamily) else (lambda t, b=gen._b: repeat(b, t.size))

    def rate(b, y):
        z = b.dot(y)
        return z[:-1] - y * z[-1]

    return rate, at


def evolve(gen, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """RK4 on the master equation in the real coordinates of rho, one
    product with B per stage (see the module docstring). gen is a
    Generator or a RateFamily.

    The start is read as its Hermitian part, which density_matrix has
    held within TOL.hermitian_rel of it. Samples are rebuilt as
    matrices, exactly Hermitian; each must keep the trace within the
    ode_* drift bounds and the eigenvalues above the floor, and a breach
    raises with the offending time.
    """
    rho0 = density_matrix(rho0)
    d = rho0.shape[0]
    rate, at = _coordinate_rate(gen, d)
    check = lambda y, t: _check_density_sample(_from_coordinates(y, d), t)
    traj = _rk4(rate, at, _to_coordinates(rho0), cfg, check)
    return Trajectory(traj.times, _from_coordinates(traj.states, d))


def evolve_lift(fam, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """RK4 on the linear lift K' = M(t) K of a 2x2 RateFamily, whose
    normalised image K rho0 K^dag / tr(...) is the state (see the module
    docstring); same sampling rules and sample checks as evolve.

    Each sample takes the product P of its steps from _lift_chunks and
    the last sample rho, keeps the Hermitian part of P rho P^dag, so that
    every sample is Hermitian bit for bit, and divides by its real trace.
    The start is read as its Hermitian part, as evolve reads it. The
    guard of _lift_chunks raises at the first step whose R is not finite,
    is singular, or stretches a vector past 2 exp(h mu), twice the
    log-norm bound of the flow, or that is stiff: h times the spectral
    radius of M past half of RK4's real stability interval (see
    _lift_steps). A state that leaves that interval would otherwise run
    to its horizon with a transient that never decays."""
    if not (isinstance(fam, RateFamily) and fam.dim == 2):
        raise UnsupportedModeError("evolve_lift steps a RateFamily of dimension 2")
    rho0 = density_matrix(rho0)
    if rho0.shape != (2, 2):
        raise DimensionError("state dimension does not match the generator")
    h = cfg.step
    n_steps = whole_steps(cfg.t_end, h)
    chunks = _lift_chunks(fam, h, n_steps, cfg.sample_stride, refuse_stiff=True)

    def advance(i0, rho, m):
        p = np.array(next(chunks)).reshape(2, 2)
        x = p @ rho @ dagger(p)
        x = x + dagger(x)  # twice the Hermitian part; the trace divides the 2 out
        return x / np.trace(x).real

    return _sampled_steps(advance, 0.5 * (rho0 + dagger(rho0)), n_steps, h,
                          cfg.sample_stride, _check_density_sample)


def evolve_state_vector(gen: Generator, psi0: np.ndarray, cfg: IntegratorConfig,
                        kappa: float = 0.0) -> Trajectory:
    """RK4 on the norm-preserving state-vector form of a Generator (and
    nothing else); same sampling rules."""
    if not isinstance(gen, Generator):
        raise UnsupportedModeError(f"evolve_state_vector steps a Generator, not {type(gen).__name__}")
    rate = lambda g, psi: state_vector_rhs(g, psi, kappa)
    at = lambda t: repeat(gen, t.size)
    return _rk4(rate, at, state_vector(psi0), cfg, _check_ket_sample)


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


class RateFamily:
    """M(t) = M_base + f(t) M_slope: two validated Generators of one
    dimension without jump operators and a real magnitude f that takes a
    float or an array. Every stepper reads f through _f, which broadcasts
    a constant f and checks that f keeps f M_slope finite, raising
    ValidityError as Generator does.
    family(t) is Generator(H_base + f H_slope, G_base + f G_slope);
    evolve steps B(t) = B_base + f(t) B_slope instead, its B to rounding,
    built as one stack per block of stage times. B_base and B_slope are
    built on the first such call, so a family that is never stepped by
    evolve never builds them. A 2x2 family's linear lift is stepped from
    M_base and M_slope alone (_lift_steps), by evolve_lift for a density
    matrix and by neutrino_evolve for a ket."""

    def __init__(self, base: Generator, slope: Generator, magnitude) -> None:
        if base.lindblads or slope.lindblads or base.dim != slope.dim:
            raise UnsupportedModeError("a RateFamily takes two generators of one dimension "
                                       "without jump operators")
        self.base, self.slope, self.magnitude, self.dim = base, slope, magnitude, base.dim
        # |f| * largest |entry| finite keeps every entry of f * M_slope finite
        self._slope_max = float(np.abs(slope._m).max())

    def _f(self, t):
        """f at the times t, broadcast to their shape (a constant magnitude
        such as lambda t: 1.0 included), with one finiteness check."""
        f = np.broadcast_to(np.asarray(self.magnitude(t), dtype=float), np.shape(t))
        if not math.isfinite(float(np.abs(f).max()) * self._slope_max):
            raise ValidityError("operator contains non-finite entries")
        return f

    def _b_at(self, t: np.ndarray) -> np.ndarray:
        """The stack (k, d^2 + 1, d^2) of B(t) = B_base + f(t) B_slope at
        the k times t, the matrices evolve steps with."""
        return self.base._b + self._f(t)[:, None, None] * self.slope._b

    def __call__(self, t: float) -> Generator:
        f = float(self._f(t))
        return Generator(self.base.hamiltonian + f * self.slope.hamiltonian,
                         self.base.damping + f * self.slope.damping)


def qubit_rate_generator(omega_vec, g_direction,
                         magnitude: Callable[[float], float]) -> RateFamily:
    """Constant omega, time-dependent g(t) = magnitude(t) * g_direction.
    Its B(t) is the B of family(t) bit for bit: for a traceless 2x2
    sigma_g each entry of B_sigma is one entry of sigma_g, twice one, or
    zero."""
    zero = np.zeros(3)
    return RateFamily(Generator.qubit(omega_vec, zero), Generator.qubit(zero, g_direction),
                      magnitude)

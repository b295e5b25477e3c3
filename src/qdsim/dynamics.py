"""Nonlinear master-equation dynamics.

The flow is the normalized image of a linear, non-trace-preserving
generator, with M = G - iH:

    d/dt rho = Lambda(rho) - tr Lambda(rho) * rho,
    Lambda(rho) = M rho + rho M^dag + sum_a L_a rho L_a^dag.

For L_a = 0 it is solved by rho(t) = K rho0 K^dag / tr(...) with
dK/dt = M(t) K: in closed form K = exp((G - iH) t) for a constant M,
the oracle for the fixed-step integrators.

On vec(rho), the rows of rho laid end to end, Lambda is the complex
d^2 x d^2 matrix S = M (x) I + I (x) conj(M) + sum_a L_a (x) conj(L_a)
(Havel, J. Math. Phys. 44 (2003) 534).

Every fixed-step run steps a linear lift instead of the nonlinear
equation, and normalises once per sample. Classical RK4 on a constant
linear flow y' = X y is one fixed matrix R = I + hX + ... + (hX)^4/24
(_rk4_linear_step), so the sample after n steps is read from R^n y0,
which _constant_powers gives for every constant run:

    evolve, no jump operators   X = M, y0 = I: P rho0 P^dag / tr(...), P = R^n
    evolve, jump operators      X = S, y0 = vec(rho0), read back as d x d
    evolve_state_vector         X = M, y0 = psi0, normalised, times a phase
    dirac.bmt_evolve            X = the force law's field tensor, y0 = (p0, w0)
    neutrino_evolve             X = M0 past the cutoff, y0 the cutoff ket

evolve and evolve_state_vector take X less its mean eigenvalue, which
the normalisation divides out. R^n shares the eigenvectors of X, so
each sample comes from y0 through one eigendecomposition of X
(_step_eigenpowers); where its eigenvectors are ill-conditioned, R^m
is built by successive products (_successive_powers) and applied to
the last sample. gksl_rhs is the nonlinear equation on the complex
matrix.

_lift_chunks steps the linear lift K' = M(t) K of a 2x2 RateFamily,
whose normalised image is the state: its RK4 steps depend on t only,
so each block of steps is built as one complex array of shape
(2, 2, block), a 2x2 matrix per position of its last axis, and each
sample's steps are multiplied together, a pairwise tree over the same
layout, before they meet the state.
evolve applies each product P to a density matrix as P rho P^dag /
tr(...), the route of every gksl-ode run, and neutrino_evolve applies
it to a ket up to the cutoff.

One loop, _sampled, stores the samples of every fixed-step run, a
block of _SAMPLE_BLOCK at a time, computed from the start or stepped to
(_stepped); the run's guard vets each block before the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
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
    def _s(self) -> np.ndarray:
        """S, Lambda on vec(rho) (see the module docstring), built on first
        use: evolve steps its lift for a generator with jump operators.
        S[(i, j), (k, l)] is s[i, j, k, l]; the terms are added in place,
        each jump term a row i at a time, so the build holds no second
        d^4 array."""
        d = self.dim
        _cap_coordinate_dim(d)
        i = np.arange(d)
        s = np.zeros((d, d, d, d), dtype=complex)
        s[:, i, :, i] = self._m  # M[i, k] at j = l
        s[i, :, i, :] += self._m.conj()  # conj(M)[j, l] at i = k
        for l in self.lindblads:
            l_bar = l.conj()[:, None, :]
            for row, s_row in zip(l, s):
                s_row += row[:, None] * l_bar
        return s.reshape(d * d, d * d)

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


_SAMPLE_BLOCK = 256  # samples _sampled asks of a route, and its guard vets, at once


def _sampled(sample, y0, n_steps: int, h: float, stride: int, check=None) -> Trajectory:
    """The one sampling loop of every fixed-step run: stores y0 at t = 0
    and the state after every stride-th step and after the last.
    sample(ns) gives the states after the step counts ns, a block of
    _SAMPLE_BLOCK at a time (or fewer, see _stepped), and check(states,
    times) vets each block before the next is asked for."""
    first = np.asarray(y0)
    count = sample_count(n_steps, stride)
    done = np.minimum(np.arange(count) * stride, n_steps)
    times = done * h
    states = np.empty((count,) + first.shape, dtype=first.dtype)
    states[0] = first
    k = 1
    # a state that overflows turns non-finite without a numpy warning;
    # check (or the model's own guard) names it, with the time
    with np.errstate(over="ignore", invalid="ignore"):
        while k < count:
            block = sample(done[k:k + _SAMPLE_BLOCK])
            k1 = k + len(block)
            states[k:k1] = block
            if check is not None:
                check(states[k:k1], times[k:k1])
            k = k1
    return Trajectory(times=times, states=states)


def _stepped(advance, y0):
    """sample(ns) of a route that steps: advance(y, m) steps y, kept
    between calls in the route's own form, across m steps.
    Where advance raises, sample returns the states before it and raises
    the error on the next call, so that they are vetted first."""
    first = np.asarray(y0)
    done, y, error = 0, y0, None

    def sample(ns):
        nonlocal done, y, error
        if error is not None:
            raise error
        out = np.empty((len(ns),) + first.shape, dtype=first.dtype)
        for j, n in enumerate(ns.tolist()):
            try:
                out[j] = y = advance(y, n - done)
            except Exception as err:
                error = err
                return out[:j]
            done = n
        return out

    return sample


def _raise_at_first(finite, times, tests) -> None:
    """Raise IntegrationDivergedError at the first sample of a block that
    is not finite or fails one of tests, pairs (bad, message(k)) of a
    boolean per sample and its text; non-finite entries, then the first
    pair failed, are named, as testing each sample in turn would."""
    bad = ~finite
    for fails, _ in tests:
        bad |= fails
    if bad.any():
        k = int(bad.argmax())
        if not finite[k]:
            raise IntegrationDivergedError("state has non-finite entries", float(times[k]))
        message = next(message for fails, message in tests if fails[k])
        raise IntegrationDivergedError(message(k), float(times[k]))


def _row_dots(x, y):
    """The dot product of each row of x with the same row of y, rounded as
    np.dot, np.linalg.norm and minkowski_dot round one, as a sum does not."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _rk4_linear_step(ha: np.ndarray) -> np.ndarray:
    """The RK4 step R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 of a
    constant linear flow y' = A y, given hA."""
    a2 = ha @ ha
    return np.eye(ha.shape[0]) + ha + a2 / 2.0 + (ha @ a2) / 6.0 + (a2 @ a2) / 24.0


_RESCALE_EVERY = 32  # constant lift steps between two rescalings of a product


def _successive_powers(step: np.ndarray, rescale: bool = False) -> Callable[[int], np.ndarray]:
    """m -> step^m, cached per m. Storing every m-th step of a run with a
    fixed linear step needs only step^m, one product per sample;
    _constant_powers takes it where _step_eigenpowers declines.

    step^m is built by m - 1 successive products step @ step^(m-1), the
    rounding of m steps applied one at a time; binary squaring rounds
    differently, and further from the closed form.

    With rescale, for a normalised image, every _RESCALE_EVERY-th
    product is scaled by a power of two (_unit_scaled): that changes no
    mantissa bit, and no power over- or underflows.
    """
    cache = {}

    def power(m: int) -> np.ndarray:
        rm = cache.get(m)
        if rm is None:
            rm = step
            for k in range(1, m):
                rm = step @ rm
                if rescale and k % _RESCALE_EVERY == 0:
                    rm = _unit_scaled(rm)[0]
            cache[m] = rm
        return rm

    return power


_LIFT_BLOCK = 1024  # steps whose RK4 matrices _lift_chunks holds at once
# x = 2.78529... solves R(-x) = 1 for RK4's R(z) = 1 + z + z^2/2 + z^3/6
# + z^4/24, i.e. x^3 - 4x^2 + 12x - 24 = 0: the real stability interval
_RK4_REAL_STABILITY = 2.7852935634052813


def _stiff_step(name: str, h_radius: float, t: float) -> IntegrationDivergedError:
    """The refusal of a step whose h times the spectral radius of the
    stepped matrix name passes half of RK4's real stability interval
    (see _lift_steps), raised at the end of that step, time t."""
    return IntegrationDivergedError(
        f"stiff step: h times the spectral radius of {name} is {h_radius:.3e}, "
        f"past {0.5 * _RK4_REAL_STABILITY:.4f} (half RK4's real stability interval)", t)


def _less_mean_eigenvalue(x: np.ndarray) -> np.ndarray:
    """X - (tr X / n) I. The shift scales the exact flow x' = X x by a
    number, which a normalised image divides out, so that G and G + cI
    step alike, as they do on the nonlinear equation; RK4's R would
    otherwise follow the shift only to its own accuracy."""
    return x - (np.trace(x) / x.shape[0]) * np.eye(x.shape[0])


def _refuse_stiff(name: str, w: np.ndarray, h: float) -> None:
    """Refuse the constant step h of a flow with eigenvalues w, as
    _lift_steps refuses a stiff step; w = [inf] stands for a non-finite
    matrix, whose spectral radius is infinite."""
    radius = float(np.abs(w).max())
    if not h * radius <= 0.5 * _RK4_REAL_STABILITY:
        raise _stiff_step(name, h * radius, h)


def _step_eigenpowers(name: str | None, x: np.ndarray, h: float, normalised: bool = True):
    """Every power of the RK4 step R of the constant linear flow x' = X x
    from one eigendecomposition X = V diag(w) V^-1: R is the polynomial
    r(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 in hX, so R^n = V diag(r(hw)^n)
    V^-1 (the eigenvector method of Moler and Van Loan, SIAM Rev. 45
    (2003) 3). Returns (V, V^-1, powers), powers(ns) the array of
    r(hw)^n, one row per step count n of the array ns.

    r(hw)^n = exp(n log1p(z)) with z = r(hw) - 1 formed from hw, not from
    the eigenvalues of R, which would lose the digits of a small z; the
    complex log1p(z) = log1p(2 Re z + |z|^2)/2 + i atan2(Im z, 1 + Re z)
    keeps them. With normalised, each row is divided by its largest
    modulus, which the caller's normalisation divides out, so no power
    over- or underflows.

    With a name, a stiff step is refused first, from the same
    eigenvalues (_refuse_stiff). Returns None
    where X is not finite or V is singular or ill-conditioned,
    ||V||_1 ||V^-1||_1 past TOL.eigenvector_cond (a null BMT field or a
    nilpotent M); _constant_powers then takes _successive_powers."""
    w, v = np.linalg.eig(x) if np.isfinite(x).all() else ([math.inf], None)
    if name is not None:
        _refuse_stiff(name, w, h)
    if v is None:
        return None
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(v).sum(axis=0).max() * np.abs(v_inv).sum(axis=0).max() <= TOL.eigenvector_cond:
        return None
    z = h * w.astype(complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        log_r = (0.5 * np.log1p(2.0 * z.real + (z.real ** 2 + z.imag ** 2))
                 + 1j * np.arctan2(z.imag, 1.0 + z.real))

    def powers(ns):
        e = np.multiply.outer(ns, log_r)
        if normalised:
            e -= e.real.max(axis=1, keepdims=True)
        return np.exp(e)

    return v, v_inv, powers


def _constant_powers(name: str | None, x: np.ndarray, h: float, y0: np.ndarray,
                     normalised: bool):
    """sample(ns), the stack of R^n y0 for the step counts ns, R =
    _rk4_linear_step(hX) the RK4 step of the constant flow y' = X y and
    y0 a vector or a matrix of columns. Each sample is V (r(hw)^n .
    V^-1 y0), one product per sample, from _step_eigenpowers (which,
    with a name, refuses a stiff step); where that declines, R^m is
    stepped from the last sample by _successive_powers (_stepped). With
    normalised, for a caller that divides out the scale, every power is
    scaled by a positive factor: a row of r(hw)^n by its largest
    modulus, a stepped sample by a power of two (_unit_scaled).

    The route is built on the first call, so a 0-step run builds
    nothing and refuses nothing, and the caller's horizon and sample
    checks run before any eig."""

    @cache
    def route():
        eigen = _step_eigenpowers(name, x, h, normalised=normalised)
        if eigen is None:
            power = _successive_powers(_rk4_linear_step(h * x), rescale=normalised)

            def advance(y, m):
                y = power(m) @ y
                if normalised:  # in place, through a 2-d view of the fresh product
                    _unit_scaled(y.reshape(len(y), -1))
                return y

            return _stepped(advance, y0)
        v, v_inv, powers = eigen
        z = v_inv @ y0
        shape, z = z.shape, z.reshape(len(z), -1)
        return lambda ns: (v @ (powers(ns)[:, :, None] * z)).reshape((len(ns),) + shape)

    return lambda ns: route()(ns)


def _unit_trace(x: np.ndarray) -> np.ndarray:
    """(x + x^dag) / tr(x + x^dag) of one matrix or a stack: a state's
    image divided by its real trace, of its Hermitian part, so that it
    is Hermitian bit for bit."""
    x = x + dagger(x)  # twice the Hermitian part; the trace divides the 2 out
    return x / np.trace(x, axis1=-2, axis2=-1).real[..., None, None]


def _normalised_image(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P rho P^dag divided by its real trace, of its Hermitian part."""
    return _unit_trace(p @ rho @ dagger(p))


def _stacked_product(x, y):
    """x @ y for 2x2 matrices stacked as (2, 2, ...) arrays, one matrix per
    position of the trailing axes: x[i, 0] y[0, j] + x[i, 1] y[1, j]."""
    return x[:, 0, None] * y[0] + x[:, 1, None] * y[1]


def _unit_scaled(x):
    """Scale each matrix of the stack x, in place, by the power of two
    2^-e that puts its largest real or imaginary part in [1/2, 1);
    returns x and the exponents e. A power of two changes no mantissa
    bit, so a normalised image keeps its direction."""
    exponent = np.frexp(np.maximum(abs(x.real), abs(x.imag)).max(axis=(0, 1)))[1]
    x *= np.ldexp(1.0, -exponent)
    return x, exponent


def _lift_steps(fam, h: float, j0: int, j1: int, refuse_stiff: bool = False):
    """The classical RK4 steps R_i of the linear lift K' = M(t) K of a
    2x2 RateFamily, for steps i = j0 .. j1 - 1, as one stack of shape
    (2, 2, j1 - j0) scaled by powers of two (_unit_scaled). With A1, A2,
    A4 = M(t), M(t + h/2), M(t + h):

        P2 = A2 (I + h/2 A1),  P3 = A2 (I + h/2 P2),  P4 = A4 (I + h P3),
        R = I + h/6 (A1 + 2 P2 + 2 P3 + P4).

    Guard: the first step with R non-finite, singular, or sigma_max(R) >=
    2 exp(h mu), mu the largest eigenvalue of G = (M + M^dag)/2 at the
    step's three stage times, raises IntegrationDivergedError at its end.
    The exact flow grows no vector by more than exp(h mu) (the
    logarithmic-norm bound), so this refuses a step that RK4 amplifies
    past twice that; for G = 0 it is the bound 2 on a ket's norm.

    That bound is loose wherever the flow itself grows, so with
    refuse_stiff (evolve) the guard also refuses a stiff step: one
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
    v = fam._f(np.stack([t, t + 0.5 * h, t + h]))  # f at the stage times, a row per stage
    # lambda_max of G0 + v G1 is c + sqrt(d^2 + |o|^2) with c, d the mean
    # and the half-difference of its diagonal and o its off-diagonal entry
    (g00, g01), (_, g11) = fam.base.damping.tolist()
    (s00, s01), (_, s11) = fam.slope.damping.tolist()
    mu = (0.5 * (g00 + g11).real + 0.5 * (s00 + s11).real * v
          + np.sqrt((0.5 * (g00 - g11).real + 0.5 * (s00 - s11).real * v) ** 2
                    + abs(g01 + s01 * v) ** 2)).max(axis=0)

    m0, m1 = fam.base._m[:, :, None], fam.slope._m[:, :, None]

    def at(f):
        return m0 + f * m1

    def shifted(c, x):  # I + c X, in place
        x *= c
        x[0, 0] += 1.0
        x[1, 1] += 1.0
        return x

    def product(x, y):  # _stacked_product a row at a time, to hold fewer temporaries
        out = np.empty_like(y)
        for i in range(2):
            np.multiply(x[i, 0], y[0], out=out[i])
            out[i] += x[i, 1] * y[1]
        return out

    def radius(x):  # the spectral radius of each matrix, tr/2 +- s its eigenvalues
        half_trace = 0.5 * (x[0, 0] + x[1, 1])
        s = np.sqrt(0.25 * (x[0, 0] - x[1, 1]) ** 2 + x[0, 1] * x[1, 0])
        return np.maximum(abs(half_trace + s), abs(half_trace - s))

    if refuse_stiff:
        radii = np.maximum.reduce([radius(at(f)) for f in v])
        stiff = np.flatnonzero(~(h * radii <= 0.5 * _RK4_REAL_STABILITY))

    # the stage sum A1 + 2 P2 + 2 P3 + P4 is accumulated as the stages
    # are built, so that a block holds few stacks at once
    v1, v2, v4 = v
    a2, total = at(v2), at(v1)
    p = product(a2, shifted(0.5 * h, total.copy()))
    total += 2.0 * p
    p = product(a2, shifted(0.5 * h, p))
    total += 2.0 * p
    del a2
    p = product(at(v4), shifted(h, p))
    total += p
    del p
    r, exponent = _unit_scaled(shifted(h / 6.0, total))

    det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    sq = r.real ** 2 + r.imag ** 2
    frob = sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]
    # sigma_max^2 = (|R|_F^2 + sqrt(|R|_F^4 - 4 |det R|^2)) / 2; the clamp
    # only absorbs rounding, a nan stays nan and fails the comparison
    sigma = np.sqrt(0.5 * (frob + np.sqrt(np.maximum(frob ** 2 - 4.0 * abs(det) ** 2, 0.0))))
    bad = np.flatnonzero(~((sigma < np.ldexp(2.0 * np.exp(h * mu), -exponent)) & (det != 0.0)))
    if refuse_stiff and stiff.size and not (bad.size and bad[0] <= stiff[0]):
        raise _stiff_step("M", h * radii[stiff[0]], float((j0 + stiff[0] + 1) * h))
    if bad.size:
        raise IntegrationDivergedError("amplitude norm left (0, 2)", float((j0 + bad[0] + 1) * h))
    return r


def _tree_products(r, width: int):
    """Products of consecutive runs of width matrices of the stack r, of
    shape (2, 2, n) (the last run may be shorter), the later factor on
    the left, as one stack of shape (2, 2, runs), by a pairwise tree whose
    levels each take every run at once; each level's partial products
    are _unit_scaled, so none over- or underflows."""
    n = r.shape[2]
    full, rest = divmod(n, width)
    runs = [(0, full, width)] if full else []
    if rest:
        runs.append((full * width, 1, rest))
    out = []
    for start, k, w in runs:
        x = r[:, :, start:start + k * w].reshape(2, 2, k, w)
        while w > 1:
            pairs = _stacked_product(x[..., 1::2], x[..., 0:w - 1:2])
            if w % 2:
                pairs = np.concatenate([pairs, x[..., -1:]], axis=3)
            x, _ = _unit_scaled(pairs)
            w = x.shape[3]
        out.append(x[..., 0])
    return np.concatenate(out, axis=2)


def _lift_chunks(fam, h: float, n: int, stride: int, refuse_stiff: bool = False):
    """Yield, for each run of stride steps of steps 0 .. n - 1 (the last
    may be shorter), the product R_{i1 - 1} ... R_{i0} of their RK4 steps
    of the linear lift (_lift_steps) as four complex entries (00, 01, 10,
    11), scaled by a power of two. The steps are built _LIFT_BLOCK at a
    time as one (2, 2, block) stack, and _tree_products takes every run
    of the block at once: a block holds whole runs, or part of one run,
    which then multiplies block by block. refuse_stiff adds the
    stiff-step guard of _lift_steps."""
    per_block = max(1, _LIFT_BLOCK // stride)
    for c0 in range(0, n, per_block * stride):
        c1 = min(c0 + per_block * stride, n)
        if stride <= _LIFT_BLOCK:
            products = _tree_products(_lift_steps(fam, h, c0, c1, refuse_stiff), stride)
            yield from zip(*products.reshape(4, -1).tolist())
        else:
            acc = None
            for j0 in range(c0, c1, _LIFT_BLOCK):
                p = _tree_products(_lift_steps(fam, h, j0, min(j0 + _LIFT_BLOCK, c1),
                                               refuse_stiff), _LIFT_BLOCK)
                acc = p if acc is None else _unit_scaled(_stacked_product(p, acc))[0]
            yield tuple(acc.ravel().tolist())


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


def _cap_coordinate_dim(d: int) -> None:
    """S grows as d^4, so d is capped by TOL.max_coordinate_dim before S
    is allocated, and before evolve steps a generator of any kind."""
    if d > TOL.max_coordinate_dim:
        raise DomainError(f"evolve steps a {d}^2 x {d}^2 generator matrix; "
                          f"at most d = {TOL.max_coordinate_dim} is supported")


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


def _check_density_block(rho: np.ndarray, times: np.ndarray) -> None:
    """Each density matrix must be finite, keep its trace within
    TOL.ode_trace_drift of 1 and its eigenvalues above the floor."""
    finite = np.isfinite(rho).all(axis=(1, 2))
    drift = rho.trace(axis1=1, axis2=2).real - 1.0
    # eigvalsh, of the finite matrices only, lists the eigenvalues in
    # ascending order
    low = np.linalg.eigvalsh(rho if finite.all()
                             else np.where(finite[:, None, None], rho, 0.0))[:, 0]
    _raise_at_first(finite, times, (
        (abs(drift) > TOL.ode_trace_drift, lambda k: f"trace drift {drift[k]:.3e}"),
        (low < TOL.eigenvalue_floor, lambda k: f"eigenvalue {low[k]:.3e} below the floor")))


def _check_ket_block(psi: np.ndarray, times: np.ndarray) -> None:
    """Each ket must be finite and keep its norm within
    TOL.ode_norm_drift of 1."""
    drift = abs(np.sqrt(_row_dots(psi.real, psi.real) + _row_dots(psi.imag, psi.imag)) - 1.0)
    _raise_at_first(np.isfinite(psi).all(axis=1), times, (
        (drift > TOL.ode_norm_drift, lambda k: f"norm drift {drift[k]:.3e}"),))


def evolve(gen, rho0: np.ndarray, cfg: IntegratorConfig) -> Trajectory:
    """RK4 on the linear lift of a Generator or a 2x2 RateFamily, whose
    normalised image is the state, sampled on the shared grid (see the
    module docstring).

    A Generator steps with one fixed RK4 matrix R of the lift's matrix X
    less its mean eigenvalue: without jump operators X = M, and the
    sample after n steps is P rho0 P^dag / tr(...) with P = R^n, taken
    as R^n I; with them X = S, Lambda on vec(rho), and it is R^n
    vec(rho0) read back as a d x d matrix. _constant_powers gives every
    R^n y0. A RateFamily takes the product P of each sample's steps,
    which depend on t, from _lift_chunks, and the image is P rho P^dag
    of the last sample. Every image x gives the sample (x + x^dag) /
    tr(x + x^dag) (_unit_trace).

    The horizon, the sample count and the dimension are vetted first.
    A stiff step is refused, where h times the spectral radius of the
    stepped matrix (M, or Lambda with jumps) passes half of RK4's real
    stability interval: for a Generator before any step, of that matrix
    less its mean eigenvalue; for a RateFamily at the end of the first such step,
    where _lift_steps also refuses a step whose R is not finite, is
    singular, or stretches a vector past 2 exp(h mu), twice the log-norm
    bound of the flow. A state past that interval would otherwise run to
    its horizon with a transient that never decays.

    The start is read as its Hermitian part, which density_matrix has
    held within TOL.hermitian_rel of it. Samples are exactly Hermitian
    and divided by their trace; each must keep the trace within
    TOL.ode_trace_drift, which then sees only rounding, and the
    eigenvalues above the floor, and a breach raises with the offending
    time (_check_density_block, a block of samples at a time).
    """
    rho0 = density_matrix(rho0)
    d = rho0.shape[0]
    if not isinstance(gen, (Generator, RateFamily)):
        raise UnsupportedModeError(f"evolve steps a Generator or a RateFamily, "
                                   f"not {type(gen).__name__}")
    if isinstance(gen, RateFamily) and gen.dim != 2:
        raise UnsupportedModeError("evolve steps a RateFamily of dimension 2")
    if gen.dim != d:
        raise DimensionError("state dimension does not match the generator")
    h, stride = cfg.step, cfg.sample_stride
    n_steps = whole_steps(cfg.t_end, h)
    sample_count(n_steps, stride)
    first = 0.5 * (rho0 + dagger(rho0))
    if isinstance(gen, RateFamily):
        chunks = _lift_chunks(gen, h, n_steps, stride, refuse_stiff=True)
        sample = _stepped(
            lambda rho, m: _normalised_image(np.array(next(chunks)).reshape(2, 2), rho),
            first)
    else:
        _cap_coordinate_dim(d)
        if gen.lindblads:
            powers = _constant_powers("Lambda", _less_mean_eigenvalue(gen._s), h,
                                      first.reshape(-1), normalised=True)
            sample = lambda ns: _unit_trace(powers(ns).reshape(-1, d, d))
        else:
            powers = _constant_powers("M", _less_mean_eigenvalue(gen._m), h,
                                      np.eye(d, dtype=complex), normalised=True)
            sample = lambda ns: _normalised_image(powers(ns), first)
    return _sampled(sample, first, n_steps, h, stride, _check_density_block)


def evolve_state_vector(gen: Generator, psi0: np.ndarray, cfg: IntegratorConfig,
                        kappa: float = 0.0) -> Trajectory:
    """The norm-preserving state-vector form of a Generator without jump
    operators (and nothing else),

        d/dt psi = M psi - (Re<psi|M psi> - i kappa) psi,

    on its linear lift: psi(t) = N[K psi0] exp(i (kappa + Im(tr M)/d) t)
    with K' = (M - tr M / d) K and N dividing by the norm, so the sample
    after n steps is N[R^n psi0] times that phase, R the RK4 step of M
    less its mean eigenvalue (_constant_powers). A stiff step is refused
    before any step, as evolve refuses it; same sampling rules as
    evolve, and each sample must keep the norm within
    TOL.ode_norm_drift."""
    if not isinstance(gen, Generator):
        raise UnsupportedModeError(f"evolve_state_vector steps a Generator, not {type(gen).__name__}")
    if gen.lindblads:
        raise UnsupportedModeError("state-vector form requires empty lindblads")
    psi0 = state_vector(psi0)
    h = cfg.step
    n_steps = whole_steps(cfg.t_end, h)
    powers = _constant_powers("M", _less_mean_eigenvalue(gen._m), h, psi0, normalised=True)
    rate = kappa + float(np.trace(gen._m).imag) / gen.dim  # the phase rate N[K psi0] lacks

    def sample(ns):
        psi = powers(ns)
        norm = np.sqrt(_row_dots(psi.real, psi.real) + _row_dots(psi.imag, psi.imag))
        return psi * (np.exp(1j * rate * (ns * h)) / norm)[:, None]

    return _sampled(sample, psi0, n_steps, h, cfg.sample_stride, _check_ket_block)


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
    family(t) is Generator(H_base + f H_slope, G_base + f G_slope). A 2x2
    family's linear lift is stepped from M_base and M_slope alone
    (_lift_steps), by evolve for a density matrix and by neutrino_evolve
    for a ket."""

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

    def __call__(self, t: float) -> Generator:
        f = float(self._f(t))
        return Generator(self.base.hamiltonian + f * self.slope.hamiltonian,
                         self.base.damping + f * self.slope.damping)


def qubit_rate_generator(omega_vec, g_direction,
                         magnitude: Callable[[float], float]) -> RateFamily:
    """Constant omega, time-dependent g(t) = magnitude(t) * g_direction."""
    zero = np.zeros(3)
    return RateFamily(Generator.qubit(omega_vec, zero), Generator.qubit(zero, g_direction),
                      magnitude)

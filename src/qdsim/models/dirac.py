"""Relativistic spin-1/2 particle in constant electromagnetic fields.

Gamma matrices in the Weyl (chiral) representation, metric (+,-,-,-).
Spin states ride in a covariant 4x4 density Theta built from the
momentum p, the polarization four-vector w, and the boost intertwiner
v(p); the rest-frame Bloch vector xi is recovered from (p, w) by

    xi = (2/mc) (w_vec - w0 p_vec / (p0 + mc)).

Under the spin generator H + iG = (mu_B/hbar) F_{mu nu} J^{mu nu} the
upper chiral block of the propagator is K_u = exp((g - i omega).sigma tau/2)
with

    omega = -(2 mu_B / hbar) B,      g = (2 mu_B / (c hbar)) E,

so the trace-normalized upper chiral block of Theta follows the
closed-form qubit flow exactly, while (p, w) follow the linear
classical equations dx/dtau = (e/m) F x, realized on Pauli matrices as
x0 I - x.sigma -> K_u (x0 I - x.sigma) K_u^dag.  Both transports are
faces of one Lorentz element and the evolver cross-checks them sample
by sample.  The rest-frame vector extracted from the transported
(p, w) via

    xi = (2/mc) (w_vec - w0 p_vec / (p0 + mc))

is a distinct, unitarily rotating object (Wigner rotation only): the
linear four-vector channel cannot reproduce the trace-induced damping.
For E with a component orthogonal to the spin the two vectors separate
at first order in tau, so no sign or factor convention can merge them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ..dynamics import (Trajectory, _rk4_linear_step, _sampled_steps, _successive_powers,
                        whole_steps)
from ..errors import (
    DomainError,
    IntegrationDivergedError,
    PreconditionError,
    ValidityError,
)
from ..linalg import ID2, PAULI, dagger, pauli_components, pauli_dot
from ..qubit import QubitGeneratorParams, sl2c_coefficients
from ..states import bloch_to_density, bloch_vectors
from ..tolerances import TOL

# Sign of the E-field entries of the mixed tensor F^mu_nu.  With the
# lowered-index Pauli vector sigma_mu = (I, -sigma) the four-vector
# transport X -> K_u X K_u^dag is the same Lorentz element as the
# spinor transport diag(K_u, (K_u^dag)^-1), which forces -E_j/c here;
# the magnetic block is pinned independently by precession sense.  The
# evolver compares the RK4 flow against the K_u map at every sample,
# so a wrong sign cannot survive a checked run.
_E_COUPLING = -1.0


def weyl_gammas():
    """(gamma^0, gamma^1, gamma^2, gamma^3, gamma^5), chiral blocks."""
    z = np.zeros((2, 2), dtype=complex)
    g0 = np.block([[z, ID2], [ID2, z]])
    g1, g2, g3 = (np.block([[z, s], [-s, z]]) for s in PAULI)
    g5 = np.block([[-ID2, z], [z, ID2]])
    return g0, g1, g2, g3, g5


def minkowski_dot(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x[0] * y[0] - x[1:] @ y[1:])


def rest_momentum(mass: float, c: float = 1.0) -> np.ndarray:
    return np.array([mass * c, 0.0, 0.0, 0.0])


def four_to_sigma(x) -> np.ndarray:
    """sigma_mu x^mu = x0 I - x_vec.sigma (lowered-index Pauli vector)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise DomainError("need a 4-vector")
    return x[0] * ID2 - pauli_dot(x[1:])


def sigma_to_four(X) -> np.ndarray:
    """Inverse of four_to_sigma for X of shape (..., 2, 2); ignores any
    anti-Hermitian residue."""
    X = np.asarray(X, dtype=complex)
    x0 = 0.5 * np.trace(X, axis1=-2, axis2=-1).real
    xv = [-0.5 * np.trace(s @ X, axis1=-2, axis2=-1).real for s in PAULI]
    return np.stack([x0, *xv], axis=-1)


def _check_on_shell(p: np.ndarray, mass: float, c: float) -> None:
    # Python floats overflow to inf and underflow to 0 without raising or
    # warning; a (mc)^2 out of double range would make the shell test
    # and every later division by mc meaningless
    mc = float(mass) * float(c)
    mc2 = mc * mc
    if not (math.isfinite(mc2) and mc2 > 0.0):
        raise DomainError(f"(mass*c)^2 = {mc2!r} is not a positive finite double")
    # an overflowing p.p reads inf or nan, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        off = abs(minkowski_dot(p, p) - mc2)
    if not off <= TOL.on_shell_rel * mc2:
        raise PreconditionError("momentum is off the mass shell")
    if p[0] <= 0.0:
        raise PreconditionError("positive-energy branch required (p0 > 0)")


def boost_intertwiner(p, mass: float, c: float = 1.0) -> np.ndarray:
    """4x2 map v(p) with Theta(p, w) = v(p) rho(xi) vbar(p); vbar v = I.

    Chiral blocks sqrt((p0 -+ p.sigma)/mc)/sqrt(2), the matrix square
    roots written rationally as (p0 + mc -+ p.sigma)/sqrt(2mc(p0+mc)).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DomainError("p must be a 4-vector")
    _check_on_shell(p, mass, c)
    mc = mass * c
    # the shell admits (mc)^2 up to the double range, this product only a
    # quarter of it
    if not float(p[0]) + mc <= sys.float_info.max / (2.0 * mc):
        raise DomainError(f"mass*c = {mc!r} is too large for the boost: "
                          "2 mc (p0 + mc) overflows a double")
    sp = pauli_dot(p[1:])
    root = np.sqrt(2.0 * mc * (p[0] + mc))
    upper = ((p[0] + mc) * ID2 - sp) / root
    lower = ((p[0] + mc) * ID2 + sp) / root
    return np.vstack([upper, lower]) / np.sqrt(2.0)


def dirac_adjoint(v: np.ndarray) -> np.ndarray:
    g0 = weyl_gammas()[0]
    return v.conj().T @ g0


def spinor_density(p, xi, mass: float, c: float = 1.0) -> np.ndarray:
    """Theta = v(p) rho(xi) vbar(p): Hermitian, unit trace, PSD."""
    v = boost_intertwiner(p, mass, c)
    rho = bloch_to_density(np.asarray(xi, dtype=float))
    return v @ rho @ dirac_adjoint(v)


def bloch_from_spinor_density(theta, p, mass: float, c: float = 1.0) -> np.ndarray:
    """Invert spinor_density: rho(xi) = vbar Theta v, then read xi.

    A static inverse: it recovers the xi that built Theta(p, w) at the
    same p. Applied along a transported Theta(tau) with p(tau) it only
    tracks the Wigner-rotated spin, not the normalized qubit flow; the
    dynamical readout is bloch_from_chiral_block.
    """
    v = boost_intertwiner(p, mass, c)
    rho = dirac_adjoint(v) @ np.asarray(theta, dtype=complex) @ v
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if tr <= 0.0:
        raise ValidityError("projected 2x2 block has non-positive trace")
    return pauli_components(rho / tr)


def bloch_from_chiral_block(theta) -> np.ndarray:
    """Bloch vector of the trace-normalized upper chiral block of Theta;
    a stack of shape (..., 4, 4) gives Bloch vectors of shape (..., 3).

    For a rest-frame start the upper block of K Theta K^dag is
    K_u rho K_u^dag, so this readout reproduces the closed-form qubit
    flow identically. For a boosted start the block is the two-sided
    slant U rho L^dag (U != L), not a state, and no single Bloch vector
    represents it; the readout is only meaningful from rest.
    """
    theta = np.asarray(theta, dtype=complex)
    if theta.shape[-2:] != (4, 4):
        raise DomainError("Theta must be 4x4")
    upper = theta[..., :2, :2]
    block = 0.5 * (upper + dagger(upper))
    tr = np.trace(block, axis1=-2, axis2=-1).real
    if (tr <= 0.0).any():
        raise ValidityError("chiral block has non-positive trace")
    return pauli_components(block / tr[..., None, None])


def polarization_fourvector(p, xi, mass: float, c: float = 1.0) -> np.ndarray:
    """w(p, xi): w0 = p_vec.xi/2, w_vec = (mc xi + p_vec (p_vec.xi)/(p0+mc))/2.

    Satisfies p.w = 0 exactly and w.w = -(mc/2)^2 xi^2.
    """
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if p.shape != (4,) or xi.shape != (3,):
        raise DomainError("need a 4-vector p and 3-vector xi")
    _check_on_shell(p, mass, c)
    bloch_vectors(xi)
    mc = mass * c
    pe = p[1:] @ xi
    w0 = 0.5 * pe
    wv = 0.5 * (mc * xi + p[1:] * (pe / (p[0] + mc)))
    return np.concatenate([[w0], wv])


def bloch_from_w(p, w, mass: float, c: float = 1.0) -> np.ndarray:
    """xi = (2/mc)(w_vec - w0 p_vec/(p0 + mc)), inverse of the above."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.shape != (4,) or w.shape != (4,):
        raise DomainError("need 4-vectors p and w")
    _check_on_shell(p, mass, c)
    mc = mass * c
    return (2.0 / mc) * (w[1:] - w[0] * p[1:] / (p[0] + mc))


@dataclass(frozen=True)
class EMFieldConfig:
    """Constant fields plus particle constants; all rates derive from
    mu_B = e hbar / 2m. Model units set charge = mass = c = hbar = 1."""

    e_field: np.ndarray
    b_field: np.ndarray
    charge: float = 1.0
    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __init__(self, e_field, b_field, charge=1.0, mass=1.0, c=1.0, hbar=1.0) -> None:
        e_field = np.asarray(e_field, dtype=float)
        b_field = np.asarray(b_field, dtype=float)
        if e_field.shape != (3,) or b_field.shape != (3,):
            raise DomainError("E and B must be real 3-vectors")
        if not (np.isfinite(e_field).all() and np.isfinite(b_field).all()):
            raise ValidityError("fields must be finite")
        if mass <= 0.0 or c <= 0.0 or hbar <= 0.0:
            raise DomainError("mass, c, hbar must be positive")
        object.__setattr__(self, "e_field", e_field)
        object.__setattr__(self, "b_field", b_field)
        object.__setattr__(self, "charge", float(charge))
        object.__setattr__(self, "mass", float(mass))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "hbar", float(hbar))

    @property
    def mu_b(self) -> float:
        return self.charge * self.hbar / (2.0 * self.mass)

    @property
    def omega_vec(self) -> np.ndarray:
        return -(2.0 * self.mu_b / self.hbar) * self.b_field

    @property
    def g_vec(self) -> np.ndarray:
        return (2.0 * self.mu_b / (self.c * self.hbar)) * self.e_field

    @property
    def qubit_params(self) -> QubitGeneratorParams:
        return QubitGeneratorParams(self.omega_vec, self.g_vec)


def field_tensor_mixed(f: EMFieldConfig) -> np.ndarray:
    """F^mu_nu (no charge factor): dp/dtau = (e/m) F p. Lowering the
    first index with the metric gives an antisymmetric F_{mu nu}."""
    e_over_c = _E_COUPLING * f.e_field / f.c
    b1, b2, b3 = f.b_field
    m = np.zeros((4, 4))
    m[0, 1:] = e_over_c
    m[1:, 0] = e_over_c
    m[1:, 1:] = np.array([
        [0.0, b3, -b2],
        [-b3, 0.0, b1],
        [b2, -b1, 0.0],
    ])
    return m


def bmt_evolve(f: EMFieldConfig, p0, xi0, tau_end: float, step: float,
               sample_stride: int = None) -> Trajectory:
    """Proper-time evolution of the momentum p and polarization w; the
    states are the sampled (p, w) columns, shape (N, 4, 2).

    (p, w) advance by fixed-step RK4 on the linear force law; with
    constant fields the RK4 step is a single matrix R, and the m steps up
    to the next sample are one product with R^m. R^m is built by m - 1
    successive products and cached per m (at most two occur: the stride
    and a shorter last chunk); binary squaring drifts the invariants
    faster and aborts the shipped bmt_spin_damping_a run (see
    _successive_powers). Conservation of p.p, p.w and
    w.w + (mc/2)^2 xi0^2 is enforced at every sample; a non-finite
    sample or drift beyond TOL.bmt_invariant_drift relative aborts the
    run. The horizon must be a whole number of steps (see
    whole_steps); tau_end = 0 gives the single tau = 0 sample.
    sample_stride = None chooses a stride capping storage near 2000
    samples; a given stride must be at least 1 (see sample_count). p0
    must lie on the mass shell (see polarization_fourvector). The spin
    xi at the sample times is bloch_trajectory_general, Theta is
    spinor_density_flow.
    """
    p0 = np.asarray(p0, dtype=float)
    xi0 = np.asarray(xi0, dtype=float)
    mc = f.mass * f.c
    w0 = polarization_fourvector(p0, xi0, f.mass, f.c)

    n_steps = whole_steps(tau_end, step)
    if sample_stride is None:
        sample_stride = max(1, n_steps // 2000)
    # an overflowing field makes R non-finite; check_invariants then names
    # the first sample it reaches, with its time
    with np.errstate(over="ignore", invalid="ignore"):
        power = _successive_powers(
            _rk4_linear_step((f.charge / f.mass) * field_tensor_mixed(f) * step))

    pp_ref = minkowski_dot(p0, p0)
    ww_ref = minkowski_dot(w0, w0)  # equals -(mc/2)^2 xi0^2
    scale = max(mc * mc, float(np.abs(w0) @ np.abs(w0)))

    def advance(i, y, m):
        return power(m) @ y

    def check_invariants(y, tau):
        if not np.isfinite(y).all():
            raise IntegrationDivergedError("state has non-finite entries", tau)
        p_now, w_now = y[:, 0], y[:, 1]
        drifts = (abs(minkowski_dot(p_now, p_now) - pp_ref),
                  abs(minkowski_dot(p_now, w_now)),
                  abs(minkowski_dot(w_now, w_now) - ww_ref))
        # a finite state past about 1e154 overflows an invariant to NaN,
        # which no comparison with the bound flags
        if not all(d <= TOL.bmt_invariant_drift * scale for d in drifts):
            # no step advice: a finer step can drift sooner, as the
            # shipped bmt_spin_damping_a runs to tau = 8000 at its step
            # 0.01 but stops at 7548 at 0.005 and at 6434 at 0.0025
            worst = float(np.max(drifts)) / scale
            raise IntegrationDivergedError(
                f"four-vector invariant drift {worst:.3e} beyond "
                f"TOL.bmt_invariant_drift = {TOL.bmt_invariant_drift:g}", tau)

    return _sampled_steps(advance, np.column_stack([p0, w0]), n_steps, step,
                          sample_stride, check_invariants)


def spinor_density_flow(f: EMFieldConfig, p0, xi0, tau) -> np.ndarray:
    """Theta(tau) = K Theta0 K^dag / tr(...) for proper times tau of
    shape (N,), with Theta0 = spinor_density(p0, xi0) and
    K = diag(K_u, (K_u^dag)^{-1}); shape (N, 4, 4)."""
    theta0 = spinor_density(p0, xi0, f.mass, f.c)
    ku = sl2c_coefficients(f.qubit_params, tau).matrix()
    k4 = np.zeros((len(ku), 4, 4), dtype=complex)
    k4[:, :2, :2] = ku
    k4[:, 2:, 2:] = np.linalg.inv(ku.conj().swapaxes(1, 2))
    # only a global scalar may be divided out of K: the chiral blocks
    # carry opposite boosts and their relative size is physical
    k4 /= np.maximum(1.0, np.abs(k4).max(axis=(1, 2)))[:, None, None]
    raw = k4 @ theta0 @ k4.conj().swapaxes(1, 2)
    raw /= np.trace(raw, axis1=1, axis2=2).real[:, None, None]
    return raw


def lab_time(f: EMFieldConfig, tau, p) -> np.ndarray:
    """Lab time at proper times tau by trapezoid on dt/dtau = p0/mc,
    for momenta p of shape (N, 4) sampled at tau."""
    rate = p[:, 0] / (f.mass * f.c)
    return np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(tau))])

"""Two-flavor solar-neutrino propagation in the Bloch language.

The flavor Hamiltonian is (eps/2) omega(L).sigma with omega in neV and
eps = 5.08 converting neV to rad/km. Two treatments of the matter term:

  msw      omega(L) = (D sin 2theta, 0, -D cos 2theta + V(L)), linear
           Schrodinger flow (G = 0);
  damping  omega fixed at its vacuum value and the matter effect moved
           into a damping vector of magnitude V(L), pointed along a
           configurable near-perpendicular direction in the x-z plane.

D = dm2/(2E) lands in neV when dm2 is in eV^2 and E in GeV. V(L) is a
quartic in L/R_S below the cutoff 365767 km and zero beyond it. With
the default prefactor 0.012 the potential matches its printed value at
L = 0; matching the published resonance/instability distances instead
requires rescaling it (the shipped scenarios do exactly that), since
V(0) = 1.86 neV puts |g| = |omega| far from 117600 km.

The quasi-linear state-vector equation

    dpsi/dL = (eps/2) [ -i omega.sigma + g.sigma - (g.n) ] psi

preserves the norm identically (the last term is the counter-rate), so
the integrator renormalizes each step and the stored samples carry
norm errors at rounding level. The stepper works on the two complex
amplitudes directly; a 1 km step resolves the fastest precession
(about 0.04 rad/km near the core) to RK4 accuracy far below the
tolerances in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dynamics import Generator, Trajectory, sample_count, whole_steps
from ..errors import DomainError, IntegrationDivergedError, ValidityError
from ..rootfind import find_crossing
from ..states import state_vector

POLY_COEFFS = (519.0, -1630.0, 1844.0, -889.0, 154.910686)
CUTOFF_KM = 365767.0

_MODES = ("msw", "damping")


@dataclass(frozen=True)
class NeutrinoConfig:
    energy_gev: float
    mode: str = "msw"
    theta12: float = 0.59
    dm2_ev2: float = 8e-5
    eps: float = 5.08
    r_s_km: float = 695700.0
    v_scale: float = 0.012
    g_tilt_rad: float = 0.02
    g_orientation: float = 1.0

    def __post_init__(self) -> None:
        if self.energy_gev <= 0.0:
            raise DomainError("energy must be positive")
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}")
        if self.r_s_km <= 0.0 or self.eps <= 0.0 or self.dm2_ev2 <= 0.0:
            raise DomainError("eps, dm2, R_S must be positive")
        if self.v_scale < 0.0:
            raise DomainError("v_scale must be non-negative")
        if self.g_orientation not in (-1.0, 1.0):
            raise DomainError("g_orientation must be +1 or -1")

    @property
    def delta_nev(self) -> float:
        """dm2/(2E) in neV."""
        return self.dm2_ev2 / (2.0 * self.energy_gev)

    def vacuum_omega(self) -> np.ndarray:
        d = self.delta_nev
        return np.array([d * math.sin(2.0 * self.theta12), 0.0,
                         -d * math.cos(2.0 * self.theta12)])

    def nu2_direction(self) -> np.ndarray:
        """Bloch direction of the heavier vacuum mass eigenstate."""
        return np.array([math.sin(2.0 * self.theta12), 0.0,
                         -math.cos(2.0 * self.theta12)])

    def g_direction(self) -> np.ndarray:
        """Unit damping direction: perpendicular to the vacuum omega in
        the x-z plane (orientation +-1), tilted by g_tilt_rad toward
        nu_2 so the late-time attractor is the mass eigenstate rather
        than a knife-edge precession cone."""
        s2, c2 = math.sin(2.0 * self.theta12), math.cos(2.0 * self.theta12)
        perp = self.g_orientation * np.array([c2, 0.0, s2])
        along = np.array([s2, 0.0, -c2])
        chi = self.g_tilt_rad
        return math.cos(chi) * perp + math.sin(chi) * along


def neutrino_potential(c: NeutrinoConfig, L: float) -> float:
    """Matter potential in neV: v_scale * quartic(L/R_S) up to the
    cutoff radius, zero beyond it."""
    if L < 0.0:
        raise DomainError("L must be non-negative")
    if L > CUTOFF_KM:
        return 0.0
    x = L / c.r_s_km
    acc = 0.0
    for coef in POLY_COEFFS:
        acc = acc * x + coef
    return c.v_scale * acc


def neutrino_generator(c: NeutrinoConfig, L: float) -> Generator:
    """2x2 flavor generator at distance L, rates in rad/km."""
    if c.mode == "msw":
        omega = c.vacuum_omega()
        omega = omega + np.array([0.0, 0.0, neutrino_potential(c, L)])
        g = np.zeros(3)
    else:
        omega = c.vacuum_omega()
        g = neutrino_potential(c, L) * c.g_direction()
    return Generator.qubit(c.eps * omega, c.eps * g)


def msw_resonance(c: NeutrinoConfig, lo: float = 0.0, hi: float = CUTOFF_KM,
                  xtol: float = 1.0) -> float:
    """Distance where V(L) = D cos 2theta (the level crossing)."""
    target = c.delta_nev * math.cos(2.0 * c.theta12)
    return find_crossing(lambda L: neutrino_potential(c, L) - target, lo, hi,
                         xtol=xtol)


def instability_locator(source, omega_norm: float = None, lo: float = 0.0,
                        hi: float = None, xtol: float = 1.0) -> float:
    """Root of |g(.)| = |omega| by bisection to absolute tolerance xtol.

    Accepts either a NeutrinoConfig (profile V(L) against the vacuum
    |omega|, bracket [0, cutoff]) or any callable rate profile plus an
    explicit omega_norm and bracket.
    """
    if isinstance(source, NeutrinoConfig):
        profile = lambda L: neutrino_potential(source, L)
        omega_norm = float(np.linalg.norm(source.vacuum_omega()))
        hi = CUTOFF_KM if hi is None else hi
    else:
        profile = source
        if omega_norm is None or hi is None:
            raise DomainError("callable profile needs omega_norm and hi")
    return find_crossing(lambda t: profile(t) - omega_norm, lo, hi, xtol=xtol)


def _evolve_amplitudes(c: NeutrinoConfig, a, b, n_steps, h, stride):
    """Shared scalar RK4 core; returns sample lists. The damping mode
    carries the quasi-linear counter-rate, the msw mode is linear."""
    half_eps = 0.5 * c.eps
    w = c.vacuum_omega()
    wx = w[0]
    wz_vac = w[2]
    if c.mode == "damping":
        d = c.g_direction()
        dx, dz = d[0], d[2]
    scale, rs = c.v_scale, c.r_s_km
    c4, c3_, c2_, c1_, c0 = POLY_COEFFS

    def potential(L):
        if L > CUTOFF_KM:
            return 0.0
        x = L / rs
        return scale * ((((c4 * x + c3_) * x + c2_) * x + c1_) * x + c0)

    msw = c.mode == "msw"

    def rhs(L, a, b):
        v = potential(L)
        if msw:
            hz = half_eps * (wz_vac + v)
            hx = half_eps * wx
            return (-1j * (hz * a + hx * b), -1j * (hx * a - hz * b))
        gx = v * dx
        gz = v * dz
        aa = (a * a.conjugate()).real
        bb = (b * b.conjugate()).real
        gn = (gx * 2.0 * (a.conjugate() * b).real + gz * (aa - bb)) / (aa + bb)
        da = half_eps * ((-1j * wz_vac + gz - gn) * a + (-1j * wx + gx) * b)
        db = half_eps * ((-1j * wx + gx) * a + (1j * wz_vac - gz - gn) * b)
        return da, db

    samples_l = [0.0]
    samples_a = [a]
    samples_b = [b]
    for i in range(n_steps):
        L = i * h
        k1a, k1b = rhs(L, a, b)
        k2a, k2b = rhs(L + 0.5 * h, a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = rhs(L + 0.5 * h, a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = rhs(L + h, a + h * k3a, b + h * k3b)
        a = a + (h / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
        b = b + (h / 6.0) * (k1b + 2.0 * (k2b + k3b) + k4b)
        norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
        if not 0.0 < norm < 2.0:
            raise IntegrationDivergedError("amplitude norm left (0, 2)", (i + 1) * h)
        a /= norm
        b /= norm
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples_l.append((i + 1) * h)
            samples_a.append(a)
            samples_b.append(b)
    return samples_l, samples_a, samples_b


def neutrino_evolve(c: NeutrinoConfig, psi0, L_end: float, step: float,
                    sample_stride: int = 0) -> Trajectory:
    """Propagate a flavor state from the solar core outward.

    psi0 = None starts in the electron flavor (1, 0). Samples store the
    flavor projector; derived series carry the amplitudes, the Bloch
    components, and the electron survival probability.
    """
    if psi0 is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
    psi0 = state_vector(psi0)
    if psi0.shape != (2,):
        raise DomainError("flavor state must be two-dimensional")
    if step <= 0.0 or L_end <= 0.0:
        raise DomainError("need positive step and L_end")
    n_steps = whole_steps(L_end, step)
    if sample_stride <= 0:
        sample_stride = max(1, n_steps // 8000)
    sample_count(n_steps, sample_stride)
    ls, as_, bs = _evolve_amplitudes(c, complex(psi0[0]), complex(psi0[1]),
                                     n_steps, step, sample_stride)
    psi = np.column_stack([np.asarray(as_), np.asarray(bs)])
    if not np.isfinite(psi).all():
        raise IntegrationDivergedError("non-finite amplitudes", ls[-1])
    n1 = 2.0 * (psi[:, 0].conjugate() * psi[:, 1]).real
    n2 = 2.0 * (psi[:, 0].conjugate() * psi[:, 1]).imag
    n3 = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
    states = tuple(np.outer(row, row.conjugate()) for row in psi)
    derived = {
        "psi": psi,
        "survival": np.abs(psi[:, 0]) ** 2,
        "n1": n1,
        "n2": n2,
        "n3": n3,
    }
    return Trajectory(times=np.asarray(ls), states=states, derived=derived)

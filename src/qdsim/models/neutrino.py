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

    dpsi/dL = M(L) psi - <G> psi,    M(L) = M0 + V(L) M1 = G - iH

preserves the norm identically (<G> = <psi|G psi>/<psi|psi> is the
counter-rate, zero in msw), so the integrator renormalizes each step up
to the cutoff and the stored samples carry norm errors at rounding
level. Past the cutoff V = 0, so M = M0 in both modes and one RK4 step
is a fixed 2x2 matrix R of the vacuum precession; the steps up to each
sample are one product with R^m, renormalized once per sample (a linear
map commutes with scaling, so the direction is the same). Before the
cutoff V is evaluated per block of steps, one array per stage distance,
and each stage forms its coefficients of M(L) from those values. The scalar
stepper works on the two complex amplitudes directly, which turn at
(eps/2)|omega| (msw) or up to (eps/2)|g| (damping). At the calibrated v_scale = 8.0e-5 of the shipped
10 MeV scenarios that is about 0.03 rad/km near the core, and a 1 km
step resolves it to RK4 accuracy far below the tolerances in play.
With the default v_scale = 0.012 it is about 4.7 rad/km: a 1 km step
lies past RK4's stability limit of about 2.8 rad per step, so
neutrino_evolve(NeutrinoConfig(energy_gev=0.01), 2000.0, 1.0)
raises "amplitude norm left (0, 2)"; a run at that scale needs steps
well below 0.6 km.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dynamics import (Generator, RateFamily, Trajectory, _rk4_linear_step, _sampled_steps,
                        _successive_powers, whole_steps)
from ..errors import DomainError, IntegrationDivergedError
from ..rootfind import find_crossing

POLY_COEFFS = (519.0, -1630.0, 1844.0, -889.0, 154.910686)
CUTOFF_KM = 365767.0
_STEP_BLOCK = 1024  # steps whose stage potentials neutrino_evolve holds at once

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

    def generator(self) -> RateFamily:
        """M(L) = M0 + V(L) M1 = G - iH in rad/km as a RateFamily: M0 =
        -i(eps/2) omega_vac.sigma, M1 = -i(eps/2) sigma_z (msw) or (eps/2)
        g_hat.sigma (damping). Both are traceless and symmetric, as
        neutrino_evolve assumes; evolve steps the family as a density."""
        zero = np.zeros(3)
        slope = (Generator.qubit((0.0, 0.0, self.eps), zero) if self.mode == "msw"
                 else Generator.qubit(zero, self.eps * self.g_direction()))
        return RateFamily(Generator.qubit(self.eps * self.vacuum_omega(), zero), slope,
                          _potential_profile(self))


def _potential_profile(c: NeutrinoConfig):
    """V(L) as a closure over c's constants, L unchecked: a float for a
    float, an array for an array. Past the cutoff the quartic is taken
    at L = 0 and masked, so no far L overflows it."""
    scale, rs = c.v_scale, c.r_s_km
    c4, c3, c2, c1, c0 = POLY_COEFFS

    def potential(L):
        inside = L <= CUTOFF_KM
        x = inside * L / rs
        return inside * (scale * ((((c4 * x + c3) * x + c2) * x + c1) * x + c0))

    return potential


def neutrino_potential(c: NeutrinoConfig, L: float) -> float:
    """Matter potential in neV: v_scale * quartic(L/R_S) up to the
    cutoff radius, zero beyond it."""
    if L < 0.0:
        raise DomainError("L must be non-negative")
    return _potential_profile(c)(L)


def msw_resonance(c: NeutrinoConfig) -> float:
    """Distance in [0, CUTOFF_KM] where V(L) = D cos 2theta (the level
    crossing), by bisection to 1 km."""
    target = c.delta_nev * math.cos(2.0 * c.theta12)
    return find_crossing(lambda L: neutrino_potential(c, L) - target, 0.0, CUTOFF_KM)


def instability_locator(c: NeutrinoConfig) -> float:
    """Distance in [0, CUTOFF_KM] where |g| = V(L) reaches the vacuum
    |omega|, by bisection to 1 km."""
    omega_norm = float(np.linalg.norm(c.vacuum_omega()))
    return find_crossing(lambda L: neutrino_potential(c, L) - omega_norm, 0.0, CUTOFF_KM)


def flavor_columns(psi: np.ndarray) -> dict:
    """Electron survival |a|^2 and the Bloch components of the flavor
    kets psi = (a, b), one row per sample."""
    a, b = psi[:, 0], psi[:, 1]
    return {
        "survival": np.abs(a) ** 2,
        "n1": 2.0 * (a.conjugate() * b).real,
        "n2": 2.0 * (a.conjugate() * b).imag,
        "n3": np.abs(a) ** 2 - np.abs(b) ** 2,
    }


def neutrino_evolve(c: NeutrinoConfig, L_end: float, step: float,
                    sample_stride: int = None) -> Trajectory:
    """Propagate the electron flavor (1, 0) from the solar core outward
    to L_end. The states are the sampled flavor kets, shape (N, 2).
    L_end must be a whole number of steps (see whole_steps); L_end = 0
    gives the single L = 0 sample.
    sample_stride = None chooses a stride capping storage near 8000
    samples; a given stride must be at least 1 (see sample_count). The
    scalar RK4 stepper works on the two amplitudes as Python complex
    numbers and renormalizes after every step. Stage and vacuum step read
    c.generator(); only damping carries the counter-rate <G>. V is
    evaluated per block of at most _STEP_BLOCK steps, as one array at each
    of the stage distances L, L + h/2 and L + h; the stage coefficients
    al0 + V al1 and be0 + V be1 are formed from those values inside the
    step. A step past RK4's stability limit (see the module docstring)
    raises.

    From the first step whose stages all lie past CUTOFF_KM (i h >
    CUTOFF_KM) both modes are the linear vacuum flow, and the steps up
    to each sample become one product with R^m of the fixed RK4 step R,
    renormalized once per sample. The per-step guard 0 < norm < 2 acts
    on a unit ket, so it cannot fire when R's singular values lie in
    (0, 2); only then is that route taken, with the powers of R divided
    by its singular value (a scale, so the direction is the same) so
    that no stride over- or underflows. Otherwise the scalar stepper
    runs to the end and its guard fires where it would.
    """
    n_steps = whole_steps(L_end, step)
    if sample_stride is None:
        sample_stride = max(1, n_steps // 8000)

    h = step
    fam = c.generator()
    # M = [[al, be], [be, -al]] with al = al0 + v al1 and be = be0 + v be1,
    # so G = [[Re al, Re be], [Re be, -Re al]]; M0 is anti-Hermitian, so
    # G and <G> vanish unless M1 has a Hermitian part
    (al0, be0), _ = fam.base._m.tolist()
    (al1, be1), _ = fam.slope._m.tolist()
    damped = bool(fam.slope.damping.any())
    potential = fam.magnitude

    # steps from i_past on take powers of the vacuum step; i_past = n_steps
    # keeps the scalar loop to the end
    i_past = n_steps
    if L_end > CUTOFF_KM:
        # a vacuum step far past RK4's stability limit overflows R; the
        # scalar loop then raises at its per-step guard
        with np.errstate(over="ignore", invalid="ignore"):
            r = _rk4_linear_step(h * fam.base._m)
        if np.isfinite(r).all():
            sv = np.linalg.svd(r, compute_uv=False)
            if 0.0 < sv.min() and sv.max() < 2.0:
                # R is a real polynomial in the anti-Hermitian h M0, so
                # normal with equal singular values: R / sigma is unitary
                # to rounding and none of its powers over- or underflows
                power = _successive_powers(r / sv.max())
                # the first step whose stages all see v = 0
                i_past = int(CUTOFF_KM // h)
                while not i_past * h > CUTOFF_KM:
                    i_past += 1

    hh, h6 = 0.5 * h, h / 6.0

    def advance(i0, y, m):
        a, b = y
        stop = min(i0 + m, i_past)
        for j0 in range(i0, stop, _STEP_BLOCK):
            # V at the block's stage distances L, L + h/2 (k2 and k3) and L + h
            L = np.arange(j0, min(j0 + _STEP_BLOCK, stop)) * h
            stages = zip(range(j0, stop), potential(L).tolist(),
                         potential(L + 0.5 * h).tolist(), potential(L + h).tolist())
            for i, v1, v2, v4 in stages:
                # k = M a - <G> a with M = [[al, be], [be, -al]]; the stage
                # ket is a + c k of the stage before, c = 0, h/2, h/2, h
                al, be = al0 + v1 * al1, be0 + v1 * be1
                k1a, k1b = al * a + be * b, be * a - al * b
                if damped:
                    aa, bb = (a * a.conjugate()).real, (b * b.conjugate()).real
                    gn = ((be.real * 2.0 * (a.conjugate() * b).real + al.real * (aa - bb))
                          / (aa + bb))
                    k1a, k1b = k1a - gn * a, k1b - gn * b
                al, be = al0 + v2 * al1, be0 + v2 * be1
                sa, sb = a + hh * k1a, b + hh * k1b
                k2a, k2b = al * sa + be * sb, be * sa - al * sb
                if damped:
                    aa, bb = (sa * sa.conjugate()).real, (sb * sb.conjugate()).real
                    gn = ((be.real * 2.0 * (sa.conjugate() * sb).real + al.real * (aa - bb))
                          / (aa + bb))
                    k2a, k2b = k2a - gn * sa, k2b - gn * sb
                sa, sb = a + hh * k2a, b + hh * k2b
                k3a, k3b = al * sa + be * sb, be * sa - al * sb
                if damped:
                    aa, bb = (sa * sa.conjugate()).real, (sb * sb.conjugate()).real
                    gn = ((be.real * 2.0 * (sa.conjugate() * sb).real + al.real * (aa - bb))
                          / (aa + bb))
                    k3a, k3b = k3a - gn * sa, k3b - gn * sb
                al, be = al0 + v4 * al1, be0 + v4 * be1
                sa, sb = a + h * k3a, b + h * k3b
                k4a, k4b = al * sa + be * sb, be * sa - al * sb
                if damped:
                    aa, bb = (sa * sa.conjugate()).real, (sb * sb.conjugate()).real
                    gn = ((be.real * 2.0 * (sa.conjugate() * sb).real + al.real * (aa - bb))
                          / (aa + bb))
                    k4a, k4b = k4a - gn * sa, k4b - gn * sb
                a = a + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
                b = b + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
                norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
                if not 0.0 < norm < 2.0:
                    raise IntegrationDivergedError("amplitude norm left (0, 2)", (i + 1) * h)
                a /= norm
                b /= norm
        rest = i0 + m - max(i0, i_past)
        if rest > 0:
            (r00, r01), (r10, r11) = power(rest).tolist()
            a, b = r00 * a + r01 * b, r10 * a + r11 * b
            norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
            a /= norm
            b /= norm
        return a, b

    return _sampled_steps(advance, (1.0 + 0.0j, 0.0j), n_steps, h, sample_stride)

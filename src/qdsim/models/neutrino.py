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

(<G> = <psi|G psi>/<psi|psi> is the counter-rate, zero in msw) is the
normalised image of the linear lift: psi(L) = N[K(L) psi0] with
dK/dL = M(L) K and N dividing by the norm. neutrino_evolve steps K by
classical RK4, one fixed 2x2 matrix R_i per step built from the stage
values of M; none depends on the state. Normalisation commutes with the
linear maps, so the steps up to each sample are multiplied first (the
later step on the left) and the sample is one product with the ket,
normalised once. Before the cutoff the R_i of a block of steps are
built as one complex array of shape (2, 2, block) from V at the stage
distances, and each sample's steps are reduced by a pairwise tree
across all samples of the block at once; every partial product is
rescaled by a power of two, which changes no mantissa bit and keeps
every stride finite, however far the damping grows K. Past the cutoff
V = 0, so M = M0 in both modes and R is one fixed matrix: from the
first step whose stages all lie past it, each sample is R^n applied to
the ket there, from one eigendecomposition of M0
(dynamics._constant_powers), and normalised.

A step is refused where RK4 amplifies past the flow itself: the exact
step stretches no ket by more than exp(h mu), mu the largest eigenvalue
of G over the step (the logarithmic-norm bound), and a run raises
"amplitude norm left (0, 2)" at the first step whose R is not finite,
is singular, or has sigma_max(R) >= 2 exp(h mu). In msw G = 0 and that
is the bound 2 on a unit ket's norm. The amplitudes turn at
(eps/2)|omega| (msw) or up to (eps/2)|g| (damping): about 0.03 rad/km
near the core at the calibrated v_scale = 8.0e-5 of the shipped 10 MeV
scenarios, which a 1 km step resolves to RK4 accuracy, and about
4.7 rad/km at the default v_scale = 0.012, where a 1 km step lies past
RK4's stability limit of about 2.8 rad per step: in msw
neutrino_evolve(NeutrinoConfig(energy_gev=0.01), 2000.0, 1.0) raises
"amplitude norm left (0, 2)". A stiff step, h times the spectral
radius of M past half RK4's real stability interval, is not refused
here as evolve of a RateFamily refuses it: in damping such a step
passes the guard, since the flow itself stretches a ket more than R
does, and the decaying direction then decays too slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dynamics import (Generator, RateFamily, Trajectory, _constant_powers, _lift_chunks,
                        _lift_steps, _sampled, whole_steps)
from ..errors import DomainError
from ..rootfind import find_crossing

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
        g_hat.sigma (damping), both traceless and symmetric;
        neutrino_evolve steps its linear lift, evolve the family as a
        density."""
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
    samples; a given stride must be at least 1 (see sample_count).

    The run steps the linear lift K' = M(L) K of c.generator() (see the
    module docstring) with dynamics._lift_chunks: per block of about
    1024 steps, the RK4 steps R_i as one complex array of shape
    (2, 2, block), and per sample one tree product of its steps,
    rescaled by powers of two. Each sample is that product applied to
    the last ket, normalised once, and kept as two Python complex numbers
    from one sample to the next. The guard of _lift_chunks raises at the
    first step whose R_i is not finite, is singular, or stretches a ket
    past 2 exp(h mu), twice the log-norm bound of the flow.

    From the first step i_past whose stages all lie past CUTOFF_KM
    (i_past h > CUTOFF_KM) both modes are the linear vacuum flow with
    the fixed RK4 step R. The lift runs to i_past, and that one vacuum
    step is vetted by the lift's own guard (_lift_steps), which thereby
    vets every later step; each later sample, n steps in, is R^(n -
    i_past) applied to the ket at i_past (dynamics._constant_powers), a
    block of samples at a time, normalised.
    """
    n_steps = whole_steps(L_end, step)
    if sample_stride is None:
        sample_stride = max(1, n_steps // 8000)

    h = step
    fam = c.generator()
    # the first step whose stages all see v = 0, or the end
    i_past = int(CUTOFF_KM // h)
    while not i_past * h > CUTOFF_KM:
        i_past += 1
    i_past = min(i_past, n_steps)
    chunks = _lift_chunks(fam, h, i_past, sample_stride)
    a, b = y0 = (1.0 + 0.0j, 0.0j)
    vacuum = None

    def lift():  # the next chunk of steps applied to the ket, normalised
        nonlocal a, b
        r00, r01, r10, r11 = next(chunks)
        a, b = r00 * a + r01 * b, r10 * a + r11 * b
        norm = math.sqrt((a * a.conjugate()).real + (b * b.conjugate()).real)
        a, b = a / norm, b / norm
        return a, b

    def sample(ns):
        nonlocal vacuum
        if vacuum is None:
            inside = int(np.searchsorted(ns, i_past, side="right"))
            if inside:  # the samples up to i_past; _sampled asks again for the rest
                return np.array([lift() for _ in range(inside)])
            if i_past % sample_stride:
                lift()  # the steps from the last sample to i_past
            _lift_steps(fam, h, i_past, i_past + 1)
            vacuum = _constant_powers(None, fam.base._m, h, np.array([a, b]), normalised=True)
        psi = vacuum(ns - i_past)
        return psi / np.linalg.norm(psi, axis=1, keepdims=True)

    return _sampled(sample, y0, n_steps, h, sample_stride)

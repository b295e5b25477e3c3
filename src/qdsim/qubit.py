"""Closed-form qubit evolution.

For H = omega.sigma/2 and G = g.sigma/2 the propagator K = exp((G-iH)t)
lives in SL(2,C): with alpha = g - i omega and s = sqrt(alpha.alpha),

    K = a I + b (alpha.sigma),  a = cosh(s t/2),  b = sinh(s t/2)/s,

both even in the branch of s. Everything downstream - the full Bloch
trajectory, the orthogonal-case formulas, excitation probabilities,
asymptotes - is evaluated from (a, b) without ever building the matrix,
so the same expressions serve as oracles for the integrator.

The lone Lindblad extension (L = l sigma_plus on top of the diagonal
drift) is solved exactly as well: the Riccati equation for n3 and the
linear equation for n_plus integrate to rational-exponential closed
forms, and the two-operator Kraus factorization of the same flow is
constructed explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    PreconditionError,
    SingularNormalizationError,
    ValidityError,
)
from .kraus import KrausFamily
from .linalg import PAULI, pauli_dot
from .dynamics import Generator
from .states import bloch_vectors
from .tolerances import TOL


@dataclass(frozen=True)
class QubitGeneratorParams:
    """Precession vector omega and damping vector g, shared rate units."""

    omega: np.ndarray
    g: np.ndarray

    def __init__(self, omega, g) -> None:
        omega = np.asarray(omega, dtype=float)
        g = np.asarray(g, dtype=float)
        if omega.shape != (3,) or g.shape != (3,):
            raise DomainError("omega and g must be real 3-vectors")
        if not (np.isfinite(omega).all() and np.isfinite(g).all()):
            raise ValidityError("omega and g must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "g", g)

    @property
    def c1(self) -> float:
        """g.omega, invariant under inner automorphisms."""
        return float(self.g @ self.omega)

    @property
    def c2(self) -> float:
        """g^2 - omega^2, the second invariant."""
        return float(self.g @ self.g - self.omega @ self.omega)

    @property
    def alpha(self) -> np.ndarray:
        return self.g - 1j * self.omega

    @property
    def alpha_squared(self) -> complex:
        return complex(self.c2 - 2j * self.c1)

    def generator(self) -> Generator:
        return Generator.qubit(self.omega, self.g)


@dataclass(frozen=True)
class SL2CCoefficients:
    a: complex
    b: complex
    alpha: np.ndarray

    def matrix(self) -> np.ndarray:
        """K = a I + b (alpha.sigma); shape (..., 2, 2) for array-valued a, b."""
        a, b = (np.asarray(c)[..., None, None] for c in (self.a, self.b))
        return a * np.eye(2, dtype=complex) + b * pauli_dot(self.alpha)


def sl2c_coefficients(params: QubitGeneratorParams, t) -> SL2CCoefficients:
    """a = cosh(s t/2), b = sinh(s t/2)/s with s = sqrt(alpha^2).

    Near alpha^2 = 0 the pair is continued by its even power series in
    z = alpha^2 t^2 / 4, which also covers the exact parabolic point
    a = 1, b = t/2. t is a scalar (a, b complex) or an array (a, b of its
    shape); the branch and the exponential cap are decided per element.
    """
    t = np.asarray(t, dtype=float)
    z = params.alpha_squared * (t * t) / 4.0
    a = np.asarray(1.0 + z / 2.0 + z * z / 24.0)
    b = np.asarray((t / 2.0) * (1.0 + z / 6.0 + z * z / 120.0))
    far = np.abs(z) >= TOL.sl2c_series
    if far.any():
        tf = t[far]
        s = np.sqrt(params.alpha_squared)
        if (np.abs(s.real * tf) / 2.0 > TOL.exp_argument_cap).any():
            raise ValidityError("propagator argument beyond the exponential cap")
        a[far] = np.cosh(s * tf / 2.0)
        b[far] = np.sinh(s * tf / 2.0) / s
    if t.ndim == 0:
        a, b = complex(a), complex(b)
    return SL2CCoefficients(a=a, b=b, alpha=params.alpha)


class CaseClass(enum.Enum):
    GENERIC_TILTED = "generic-tilted"        # g.omega != 0
    HYPERBOLIC_DAMPED = "hyperbolic-damped"  # g.omega = 0, g^2 > omega^2
    PARABOLIC = "parabolic"                  # g.omega = 0, g^2 = omega^2
    OSCILLATORY = "oscillatory"              # g.omega = 0, omega^2 > g^2


def classify(params: QubitGeneratorParams) -> CaseClass:
    g2 = float(params.g @ params.g)
    w2 = float(params.omega @ params.omega)
    scale = max(g2, w2, 1.0)
    if abs(params.c1) > TOL.orthogonal_c1 * scale:
        return CaseClass.GENERIC_TILTED
    # the parabolic window is widened to a relative band: near g^2 = omega^2
    # the hyperbolic/oscillatory formulas lose all their digits
    if abs(params.c2) <= TOL.degenerate_c2_rel * scale:
        return CaseClass.PARABOLIC
    return CaseClass.HYPERBOLIC_DAMPED if params.c2 > 0.0 else CaseClass.OSCILLATORY


def _bloch_from_quadratics(aa, bb, re2, mi2, g, w, xi) -> np.ndarray:
    """Shared rational form of the trajectory in the propagator quadratics
    aa = |a|^2, bb = |b|^2, re2 = 2 Re(a conj(b)), mi2 = -2 Im(a conj(b)).

    Each quadratic is a scalar or an array over sample times; the Bloch
    vectors come back with their common shape plus a trailing axis of 3.
    """
    aa, bb, re2, mi2 = (np.asarray(q, dtype=float)[..., None] for q in (aa, bb, re2, mi2))
    g2 = float(g @ g)
    w2 = float(w @ w)
    num = (
        (aa - bb * (g2 + w2)) * xi
        + (re2 + 2.0 * bb * (g @ xi)) * g
        + (mi2 + 2.0 * bb * (w @ xi)) * w
        - 2.0 * bb * np.cross(g, w)
        - mi2 * np.cross(g, xi)
        + re2 * np.cross(w, xi)
    )
    den = (
        aa
        + bb * (g2 + w2)
        - 2.0 * bb * (np.cross(w, g) @ xi)
        + re2 * (g @ xi)
        + mi2 * (w @ xi)
    )
    if (den <= TOL.singular_trace * (aa + bb * (g2 + w2))).any():
        raise SingularNormalizationError(f"trajectory trace vanished (den={den.min():.3e})")
    return num / den


def _validated_bloch(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise DomainError("xi must be a real 3-vector")
    return bloch_vectors(xi)


def bloch_trajectory_general(params: QubitGeneratorParams, xi, t) -> np.ndarray:
    """Bloch image of K rho0 K^dag / tr(...) for arbitrary omega, g: a
    3-vector for scalar t, shape (N, 3) for an (N,) array of times."""
    xi = _validated_bloch(xi)
    co = sl2c_coefficients(params, t)
    # num/den is invariant under a common real rescaling of (a, b); divide
    # out the growing magnitude before squaring, in real arithmetic, which
    # rounds alike for scalars and arrays where numpy's complex loops do not
    ar, ai, br, bi = np.real(co.a), np.imag(co.a), np.real(co.b), np.imag(co.b)
    m = np.maximum(np.maximum(np.hypot(ar, ai), np.hypot(br, bi)), 1.0)
    ar, ai, br, bi = ar / m, ai / m, br / m, bi / m
    return _bloch_from_quadratics(np.hypot(ar, ai) ** 2, np.hypot(br, bi) ** 2,
                                  2.0 * (ar * br + ai * bi), -2.0 * (ai * br - ar * bi),
                                  params.g, params.omega, xi)


def bloch_trajectory_case(case: CaseClass, params: QubitGeneratorParams,
                          xi, t) -> np.ndarray:
    """Orthogonal-case closed forms (g.omega = 0), evaluated with real
    trigonometric/hyperbolic coefficients rather than the complex pair.
    Scalar or array t, shaped as in bloch_trajectory_general."""
    xi = _validated_bloch(xi)
    t = np.asarray(t, dtype=float)
    scale = max(float(params.g @ params.g), float(params.omega @ params.omega), 1.0)
    if abs(params.c1) > TOL.orthogonal_c1 * scale:
        raise PreconditionError("case formulas require g.omega = 0")
    actual = classify(params)
    if case is CaseClass.GENERIC_TILTED or case is not actual:
        raise PreconditionError(
            f"requested case {case.value!r} but parameters are {actual.value!r}"
        )
    if case is CaseClass.PARABOLIC:
        aa, bb, re2 = 1.0, t * t / 4.0, t
    elif case is CaseClass.HYPERBOLIC_DAMPED:
        om = np.sqrt(params.c2)
        # scaled by 1/cosh^2(om t/2): bounded for arbitrarily long times
        th = np.tanh(om * t / 2.0)
        aa, bb, re2 = 1.0, (th / om) ** 2, 2.0 * th / om
    else:
        om = np.sqrt(-params.c2)
        half = om * t / 2.0
        aa = np.cos(half) ** 2
        bb = (np.sin(half) / om) ** 2
        re2 = np.sin(om * t) / om
    return _bloch_from_quadratics(aa, bb, re2, 0.0, params.g, params.omega, xi)


def eigenstate_probabilities(g: float, omega: float, t):
    """Populations (p_plus, p_minus) of the H eigenstates for the transverse
    damping layout omega = (0,0,omega), g = (g,0,0), xi = (0,0,1).

    Branch picked by the sign of g^2 - omega^2; p_plus + p_minus = 1 exactly.
    Accepts scalar or array t.
    """
    if g <= 0.0 or omega <= 0.0:
        raise DomainError("g and omega must be positive rates")
    t = np.asarray(t, dtype=float)
    c2 = g * g - omega * omega
    if abs(c2) <= TOL.degenerate_c2_rel * max(g * g, omega * omega):
        gt2 = (g * t) ** 2
        p_minus = gt2 / (2.0 * (2.0 + gt2))
    elif c2 < 0.0:
        om = np.sqrt(-c2)
        c = np.cos(om * t)
        p_minus = g * g * (1.0 - c) / (2.0 * (omega * omega - g * g * c))
    else:
        om = np.sqrt(c2)
        x = np.abs(om * t)
        sech = 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))
        p_minus = g * g * (1.0 - sech) / (2.0 * (g * g - omega * omega * sech))
    return 1.0 - p_minus, p_minus


def rabi_probability(g: float, omega: float, t):
    """Linear Rabi benchmark g^2/(2(g^2+omega^2)) (1 - cos(t sqrt(g^2+omega^2)))."""
    t = np.asarray(t, dtype=float)
    s2 = g * g + omega * omega
    if s2 == 0.0:
        return np.zeros_like(t)
    return g * g / (2.0 * s2) * (1.0 - np.cos(t * np.sqrt(s2)))


def asymptote(params: QubitGeneratorParams, xi):
    """Late-time Bloch vector, or None when the evolution is oscillatory.

    The value depends only on (omega, g): the flow contracts onto the
    dominant eigendirection of K for every initial state outside the
    measure-zero set annihilated by it. With P = g^2-omega^2, Q = 2 g.omega,
    R = sqrt(P^2+Q^2), x = sqrt((R+P)/2), y = -sign(Q) sqrt((R-P)/2):

        n_inf = 2 (x g - y omega + omega x g) / (R + g^2 + omega^2)

    y follows sign(Q) literally, so Q = 0 gives y = 0 and the formula
    collapses to the orthogonal damped/parabolic limits.
    """
    xi = _validated_bloch(xi)
    case = classify(params)
    if case is CaseClass.OSCILLATORY:
        return None
    g, w = params.g, params.omega
    g2 = float(g @ g)
    w2 = float(w @ w)
    if g2 + w2 == 0.0:
        return xi.copy()
    p = params.c2
    q = 2.0 * params.c1
    r = float(np.hypot(p, q))
    x = np.sqrt(max(r + p, 0.0) / 2.0)
    y = -np.sign(q) * np.sqrt(max(r - p, 0.0) / 2.0)
    return 2.0 * (x * g - y * w + np.cross(w, g)) / (r + g2 + w2)


def sl2c_invariants_check(params: QubitGeneratorParams, s_matrix) -> tuple:
    """Invariants (C1', C2') read back after conjugating G - iH by a
    unit-determinant S; both must equal (C1, C2) of the input."""
    s = np.asarray(s_matrix, dtype=complex)
    if s.shape != (2, 2):
        raise DomainError("S must be 2x2")
    if abs(np.linalg.det(s) - 1.0) > TOL.unit_determinant:
        raise PreconditionError("S must have unit determinant")
    m = s @ (0.5 * pauli_dot(params.alpha)) @ np.linalg.inv(s)
    alpha_p = np.array([np.trace(m @ sig) for sig in PAULI])
    g_p = alpha_p.real
    w_p = -alpha_p.imag
    return float(g_p @ w_p), float(g_p @ g_p - w_p @ w_p)


def _sinhc(x: float) -> float:
    if abs(x) < TOL.sinhc_series:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return float(np.sinh(x) / x)


@dataclass(frozen=True)
class SingleLindbladParams:
    """Diagonal drift (g, omega along sigma_3) plus one raising-jump
    operator L = l sigma_plus; kappa is the trace gauge of the Kraus pair."""

    g: float
    omega: float
    l: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.g, self.omega, self.l, self.kappa)
        if not all(np.isfinite(v) for v in vals):
            raise ValidityError("parameters must be finite")
        scale = max(abs(2.0 * self.g), self.l ** 2, 1.0)
        if abs(2.0 * self.g - self.l ** 2) <= TOL.gauge_degenerate_rel * scale:
            raise DomainError("2g = l^2 is excluded (the weight ratio l_bar diverges)")

    @property
    def l_bar(self) -> float:
        return (2.0 * self.g + self.l ** 2) / (2.0 * self.g - self.l ** 2)

    def generator(self) -> Generator:
        lower = np.array([[0.0, self.l], [0.0, 0.0]], dtype=complex)
        return Generator.qubit((0.0, 0.0, self.omega), (0.0, 0.0, self.g), (lower,))


def single_lindblad_trajectory(p: SingleLindbladParams, xi, t) -> np.ndarray:
    """Exact Bloch trajectory of the single-jump model.

    Written with psi = expm1(-2gt)/(2g) so the g -> 0 limit and the
    long-time fixed points (n3 -> 1 for g > 0, n3 -> -l_bar for g < 0)
    come out of one expression without cancellation. Scalar or array t,
    shaped as in bloch_trajectory_general.
    """
    xi = _validated_bloch(xi)
    t = np.asarray(t, dtype=float)
    g, l2 = p.g, p.l ** 2
    if (np.abs(2.0 * g * t) > TOL.exp_argument_cap).any():
        raise ValidityError("trajectory time beyond the exponential cap")
    if g == 0.0:
        psi = -t
    else:
        psi = np.expm1(-2.0 * g * t) / (2.0 * g)
    shrink = (1.0 - xi[2]) * psi
    den = 1.0 + shrink * (2.0 * g - l2) / 2.0
    n3 = (xi[2] - shrink * (2.0 * g + l2) / 2.0) / den
    n_plus = (xi[0] + 1j * xi[1]) * np.exp((1j * p.omega - g) * t) / den
    return np.stack([n_plus.real, n_plus.imag, n3], axis=-1)


def single_lindblad_kraus(p: SingleLindbladParams, t: float) -> KrausFamily:
    """Two-operator factorization {K0, K1} of the same flow at time t.

    K0 carries the diagonal drift, K1 = e^{-kappa t} l sqrt(sinh(gt)/g)
    sigma_plus carries the accumulated jump weight; the normalized action
    on any state reproduces single_lindblad_trajectory, and kappa cancels
    in the trace ratio.
    """
    if t < 0.0:
        raise DomainError("Kraus factorization is defined for t >= 0")
    if max(abs(p.g) * t, 2.0 * abs(p.kappa) * t) > TOL.exp_argument_cap:
        raise ValidityError("Kraus time beyond the exponential cap")
    gauge = np.exp(-p.kappa * t)
    half = 0.5 * (p.g - 1j * p.omega) * t
    k0 = gauge * np.array([[np.exp(half), 0.0], [0.0, np.exp(-half)]], dtype=complex)
    jump_amp = p.l * np.sqrt(t * _sinhc(p.g * t))
    k1 = gauge * jump_amp * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return KrausFamily((k0, k1))

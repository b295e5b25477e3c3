"""Two-level atom exchanging excitation with a single field mode.

The generator couples only |atom up, n photons> with |atom down, n+1>,
so the full density matrix splits into an orthogonal sum of 2x2 blocks
rho = (+)_n lambda_n rho_n, each block evolving under its own rate pair

    omega_n = omega_a (0, 0, 1),   g_n = g sqrt(n+1) (1, 0, 0),

which is exactly the orthogonal qubit layout: blocks with
g sqrt(n+1) > omega_a purify toward a stationary state, the rest
oscillate forever. The block weights are coupled only through the
common normalization: lambda_n(t) = lambda_n(0) tr_n / sum_m lambda_m(0) tr_m
with tr_n the unnormalized block trace.

The field part of the block Hamiltonian, omega_f (n + 1/2) I, commutes
with everything and enters the propagator as a pure phase; it cancels
identically in both rho_n(t) and tr_n, so propagation uses only the
(omega_a, g sqrt(n+1)) pair while mean-energy outputs keep the full H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, SingularNormalizationError, ValidityError
from ..linalg import dagger
from ..qubit import CaseClass, QubitGeneratorParams, classify, sl2c_coefficients
from ..states import bloch_to_density, check_density_stack
from ..tolerances import TOL


def _check_block_storage(n_max: int, samples: int) -> None:
    """Refuse more than TOL.max_samples block states before allocating any."""
    stored = samples * (n_max + 1)
    if stored > TOL.max_samples:
        raise DomainError(f"n_max = {n_max} over {samples} sample(s) stores {stored} "
                          f"block states; at most {TOL.max_samples} are stored")


@dataclass(frozen=True)
class JCParams:
    omega_f: float
    omega_a: float
    g: float
    n_max: int = 16

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in (self.omega_f, self.omega_a, self.g)):
            raise ValidityError("frequencies and coupling must be finite")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise DomainError("n_max must be an integer >= 1")
        _check_block_storage(self.n_max, 1)

    def block_rates(self, n: int):
        """(omega_n, g_n) rate vectors of excitation block n."""
        self._check_block(n)
        omega_n = np.array([0.0, 0.0, self.omega_a])
        g_n = np.array([self.g * np.sqrt(n + 1.0), 0.0, 0.0])
        return omega_n, g_n

    def block_params(self, n: int) -> QubitGeneratorParams:
        return QubitGeneratorParams(*self.block_rates(n))

    def _check_block(self, n: int) -> None:
        if not isinstance(n, (int, np.integer)) or not 0 <= n <= self.n_max:
            raise DomainError(f"block index {n} outside 0..{self.n_max}")


def block_case(p: JCParams, n: int) -> CaseClass:
    """Damped/oscillatory character of block n (g sqrt(n+1) vs omega_a)."""
    return classify(p.block_params(n))


@dataclass(frozen=True)
class JCBlockState:
    """Weights lambda_n, shape (..., n_max+1), plus one 2x2 state per
    excitation block, shape (..., n_max+1, 2, 2); the leading axes, if
    any, index samples."""

    weights: np.ndarray
    blocks: np.ndarray

    def __init__(self, weights, blocks) -> None:
        weights = np.asarray(weights, dtype=float)
        blocks = np.asarray(blocks, dtype=complex)
        if weights.ndim == 0 or weights.shape[-1] == 0 or blocks.shape != weights.shape + (2, 2):
            raise DomainError("need equal-length weights and blocks")
        if ((weights < -TOL.trace_one) | (weights > 1.0 + TOL.trace_one)).any():
            raise DomainError("weights must lie in [0, 1]")
        total = weights.sum(axis=-1)
        off = np.abs(total - 1.0) > TOL.trace_one
        if off.any():
            raise ValidityError(f"weights sum to {float(total[off][0])!r}, not 1")
        if not np.isfinite(blocks).all():
            raise ValidityError("operator contains non-finite entries")
        object.__setattr__(self, "weights", weights)
        # in place: the blocks can be most of a run's memory
        object.__setattr__(self, "blocks", check_density_stack(blocks))

    @property
    def n_max(self) -> int:
        return self.weights.shape[-1] - 1

    @classmethod
    def coherent_field(cls, p: JCParams, nbar: float, xi) -> "JCBlockState":
        """Poisson photon-number weights (mean nbar, truncated and
        renormalized at n_max) with the same atomic Bloch vector in
        every block."""
        if not 0.0 <= nbar < math.inf:
            raise DomainError(f"nbar must be finite and non-negative, got {nbar!r}")
        n = np.arange(p.n_max + 1)
        if nbar > 0.0:
            # exp(n ln nbar - ln n! - nbar) underflows to 0 where the
            # direct nbar^n / n! would overflow
            w = np.array([math.exp(k * math.log(nbar) - math.lgamma(k + 1) - nbar) for k in n])
        else:
            w = np.where(n == 0, 1.0, 0.0)
        total = w.sum()
        if total <= 0.0:
            raise DomainError("truncated Poisson weights vanished; raise n_max")
        rho = bloch_to_density(np.asarray(xi, dtype=float))
        return cls(w / total, np.broadcast_to(rho, (p.n_max + 1, 2, 2)))

    def atomic_inversion(self):
        """Weighted mean of <sigma_3> over the blocks, shape (...)."""
        sz = self.blocks[..., 0, 0].real - self.blocks[..., 1, 1].real
        return (self.weights * sz).sum(axis=-1)


def jc_evolve(p: JCParams, s0: JCBlockState, t) -> JCBlockState:
    """Propagate every block of s0 by its closed-form SL(2,C) element
    and reweight by the block trace ratio. t is a scalar or an array of
    times; the result carries its shape in front of the block axes."""
    if s0.weights.shape != (p.n_max + 1,):
        raise DomainError("state block count does not match n_max")
    _check_block_storage(p.n_max, np.size(t))
    raw = np.empty(np.shape(t) + s0.blocks.shape, dtype=complex)
    for n in range(p.n_max + 1):
        k = sl2c_coefficients(p.block_params(n), t).matrix()
        raw[..., n, :, :] = k @ s0.blocks[n] @ dagger(k)
    traces = np.trace(raw, axis1=-2, axis2=-1).real
    # K is invertible, so a bad trace can only be floating-point range
    # exhaustion at extreme times
    bad = ~(np.isfinite(traces) & (traces > 0.0))
    if bad.any():
        n = int(np.nonzero(bad)[-1][0])
        raise SingularNormalizationError(f"block {n} trace left double range")
    raw_weights = s0.weights * traces
    total = raw_weights.sum(axis=-1)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise SingularNormalizationError("all block weights vanished")
    raw /= traces[..., None, None]
    return JCBlockState(raw_weights / total[..., None], raw)


def jc_mean_energy(p: JCParams, s: JCBlockState):
    """Sum_n lambda_n tr(rho_n H_n), field phase term included; shape (...)."""
    field = p.omega_f * (np.arange(p.n_max + 1) + 0.5)
    up = s.blocks[..., 0, 0].real * (field + 0.5 * p.omega_a)
    down = s.blocks[..., 1, 1].real * (field - 0.5 * p.omega_a)
    return (s.weights * (up + down)).sum(axis=-1)

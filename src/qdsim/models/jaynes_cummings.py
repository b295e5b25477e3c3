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
from ..linalg import SIGMA_Z
from ..qubit import CaseClass, QubitGeneratorParams, classify, sl2c_coefficients
from ..states import bloch_to_density, density_matrix
from ..tolerances import TOL


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
    """Weights lambda_n plus one 2x2 state per excitation block."""

    weights: np.ndarray
    blocks: tuple

    def __init__(self, weights, blocks) -> None:
        weights = np.asarray(weights, dtype=float)
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if weights.ndim != 1 or len(blocks) != weights.shape[0] or weights.size == 0:
            raise DomainError("need equal-length weights and blocks")
        if weights.min() < -TOL.trace_one or weights.max() > 1.0 + TOL.trace_one:
            raise DomainError("weights must lie in [0, 1]")
        if abs(weights.sum() - 1.0) > TOL.trace_one:
            raise ValidityError(f"weights sum to {weights.sum()!r}, not 1")
        blocks = tuple(density_matrix(b) for b in blocks)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_max(self) -> int:
        return self.weights.shape[0] - 1

    @classmethod
    def coherent_field(cls, p: JCParams, nbar: float, xi) -> "JCBlockState":
        """Poisson photon-number weights (mean nbar, truncated and
        renormalized at n_max) with the same atomic Bloch vector in
        every block."""
        if nbar < 0.0:
            raise DomainError("nbar must be non-negative")
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
        return cls(w / total, tuple(rho.copy() for _ in n))

    def full_density(self) -> np.ndarray:
        """The direct-sum density matrix, dimension 2(n_max+1)."""
        dim = 2 * (self.n_max + 1)
        out = np.zeros((dim, dim), dtype=complex)
        for k, (w, b) in enumerate(zip(self.weights, self.blocks)):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w * b
        return out

    def atomic_inversion(self) -> float:
        """Weighted mean of <sigma_3> over the blocks."""
        return float(
            sum(
                w * np.trace(b @ SIGMA_Z).real
                for w, b in zip(self.weights, self.blocks)
            )
        )


def jc_evolve(p: JCParams, s0: JCBlockState, t: float) -> JCBlockState:
    """Propagate every block by its closed-form SL(2,C) element and
    reweight by the block trace ratio."""
    if s0.n_max != p.n_max:
        raise DomainError("state block count does not match n_max")
    new_blocks = []
    traces = np.empty(p.n_max + 1)
    for n in range(p.n_max + 1):
        k = sl2c_coefficients(p.block_params(n), t).matrix()
        raw = k @ s0.blocks[n] @ k.conj().T
        tr = np.trace(raw).real
        if not np.isfinite(tr) or tr <= 0.0:
            # K is invertible, so this can only be floating-point range
            # exhaustion at extreme times
            raise SingularNormalizationError(f"block {n} trace left double range")
        traces[n] = tr
        new_blocks.append(raw / tr)
    raw_weights = s0.weights * traces
    total = raw_weights.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise SingularNormalizationError("all block weights vanished")
    return JCBlockState(raw_weights / total, tuple(new_blocks))


def jc_mean_energy(p: JCParams, s: JCBlockState) -> float:
    """Sum_n lambda_n tr(rho_n H_n), field phase term included."""
    total = 0.0
    for n in range(p.n_max + 1):
        h = p.omega_f * (n + 0.5) * np.eye(2, dtype=complex) + 0.5 * p.omega_a * SIGMA_Z
        total += s.weights[n] * np.trace(s.blocks[n] @ h).real
    return float(total)

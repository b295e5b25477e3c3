"""Trace-normalized Kraus maps and their convex quasi-linearity.

A family {K_a} acts on a state by rho -> sum_a K_a rho K_a^dag followed by
division by the trace. The effect operator F = sum_a K_a^dag K_a controls
how mixture weights are reshuffled by the normalization: for a mixture
sum_i p_i rho_i the image is the same mixture of the individually mapped
states taken with weights p_i tr(F rho_i) / tr(F rho_mix). When F is
proportional to the identity these weights reduce to p_i and the map is an
ordinary linear channel. No bound is placed on F: the families that
solve master equations grow it without bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError, SingularNormalizationError, ValidityError
from .linalg import as_operator, dagger
from .states import density_matrix
from .tolerances import TOL


@dataclass(frozen=True)
class KrausFamily:
    """An ordered family of Kraus operators on one Hilbert space."""

    operators: tuple = field()

    def __init__(self, operators) -> None:
        ops = tuple(as_operator(k) for k in operators)
        if not ops:
            raise PreconditionError("a Kraus family needs at least one operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise DimensionError("all Kraus operators must share one dimension")
        if len(ops) > dim * dim:
            warnings.warn(
                f"{len(ops)} Kraus operators on a dimension-{dim} space; "
                f"{dim * dim} always suffice",
                stacklevel=2,
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def effect_operator(self) -> np.ndarray:
        """F = sum_a K_a^dag K_a."""
        return sum(dagger(k) @ k for k in self.operators)

    def apply_raw(self, rho: np.ndarray) -> np.ndarray:
        """sum_a K_a rho K_a^dag without normalization."""
        rho = density_matrix(rho)
        if rho.shape != (self.dim, self.dim):
            raise DimensionError("state dimension does not match the Kraus family")
        return sum(k @ rho @ dagger(k) for k in self.operators)

    def apply_normalized(self, rho: np.ndarray) -> np.ndarray:
        """The trace-normalized image; raises if the trace vanishes."""
        raw = self.apply_raw(rho)
        tr = float(np.trace(raw).real)
        if tr <= TOL.singular_trace:
            raise SingularNormalizationError(
                f"normalizing trace is {tr:.3e}; the state is annihilated by the family"
            )
        return raw / tr

    def compose(self, other: "KrausFamily") -> "KrausFamily":
        """The family of all products K_a L_b, implementing self after other."""
        if self.dim != other.dim:
            raise DimensionError("cannot compose Kraus families of different dimension")
        return KrausFamily(tuple(k @ m for k in self.operators for m in other.operators))


@dataclass(frozen=True)
class EnsembleSplit:
    """A convex decomposition sum_i p_i rho_i of one density matrix."""

    weights: np.ndarray
    states: tuple

    def __init__(self, weights, states) -> None:
        w = np.asarray(weights, dtype=float)
        ms = tuple(density_matrix(m) for m in states)
        if w.ndim != 1 or len(ms) != w.shape[0]:
            raise DimensionError("need one weight per ensemble member")
        if not ms:
            raise PreconditionError("ensemble must not be empty")
        if (w < 0.0).any() or abs(w.sum() - 1.0) > TOL.trace_one:
            raise ValidityError("ensemble weights must be nonnegative and sum to 1")
        dim = ms[0].shape[0]
        for m in ms:
            if m.shape != (dim, dim):
                raise DimensionError("ensemble members must share one dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", ms)

    def mixture(self) -> np.ndarray:
        return sum(p * m for p, m in zip(self.weights, self.states))


def reweighted_ensemble(family: KrausFamily, split: EnsembleSplit) -> np.ndarray:
    """Weights p_i tr(F rho_i) / tr(F rho_mix) carried through the map.

    These are the coefficients for which the normalized image of the
    mixture equals the reweighted mixture of normalized images. tr(F rho)
    is the normalizing trace.
    """
    f = family.effect_operator()
    if split.states[0].shape != f.shape:
        raise DimensionError("state dimension does not match the Kraus family")
    denom = float(np.trace(f @ split.mixture()).real)
    if denom <= TOL.singular_trace:
        raise SingularNormalizationError(
            f"mixture selection weight is {denom:.3e}; cannot reweight"
        )
    return np.array(
        [p * float(np.trace(f @ m).real) / denom for p, m in zip(split.weights, split.states)]
    )

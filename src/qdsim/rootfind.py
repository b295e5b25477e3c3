"""Crossing detection on sampled trajectories.

Bisection on a caller-supplied continuous evaluator over a bracket that
holds a sign change. Used to locate the onset of instability windows
(where |g| crosses |omega|) and level crossings such as the MSW
resonance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NoCrossingError


def find_crossing(
    evaluate: Callable[[float], float],
    t_lo: float,
    t_hi: float,
    *,
    xtol: float = 1.0,
) -> float:
    """First root of `evaluate` in [t_lo, t_hi] by bisection.

    Requires a sign change over the bracket; an endpoint sitting exactly
    on zero is returned as-is. xtol is an absolute time resolution; an
    xtol below the float spacing of the bracket stops after 200 halvings.
    """
    if not (np.isfinite(t_lo) and np.isfinite(t_hi)) or t_hi <= t_lo:
        raise DomainError("need a finite bracket with t_lo < t_hi")
    if xtol <= 0.0:
        raise DomainError("xtol must be positive")
    f_lo = float(evaluate(t_lo))
    f_hi = float(evaluate(t_hi))
    if f_lo == 0.0:
        return t_lo
    if f_hi == 0.0:
        return t_hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoCrossingError(
            f"no sign change over [{t_lo:g}, {t_hi:g}] (f={f_lo:.3e} .. {f_hi:.3e})"
        )
    lo, hi = t_lo, t_hi
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = float(evaluate(mid))
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


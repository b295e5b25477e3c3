"""Single numeric-policy record shared by the library and the test suite.

Every tolerance used to accept or reject a state, a map, or a trajectory
lives here, one field per invariant, so tests and library code cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # construction-time validity of states and operators
    hermitian_rel: float = 1e-10       # ||M - M^dag||_F <= rel * max(||M||_F, 1)
    trace_one: float = 1e-10           # |tr(rho) - 1|
    eigenvalue_floor: float = -1e-9    # density eigenvalues may dip this far below 0
    unit_norm: float = 1e-10           # state vectors
    bloch_ball: float = 1e-9           # |n| may exceed 1 by this much

    # linear algebra
    sl2c_series: float = 1e-8          # |alpha^2 t^2/4| below which cosh/sinhc use their series
    sinhc_series: float = 1e-4         # |x| below which sinh(x)/x uses its series
    exp_argument_cap: float = 700.0    # reject exponentials beyond exp-overflow range

    # map normalization
    singular_trace: float = 1e-12      # tr(F rho) at or below this is a hard error

    # fixed-step integration drift, checked at sampled states
    ode_trace_drift: float = 1e-8
    ode_norm_drift: float = 1e-8
    whole_steps_rel: float = 1e-9      # |t_end/step - n| <= rel * n for a whole step count n
    max_samples: int = 10**6           # stored samples a run may ask for, checked before allocating
    max_steps: int = 10**7             # fixed steps a run may ask for, checked before stepping
    max_coordinate_dim: int = 40       # d of evolve's d^2 x d^2 matrix S, checked before allocating
    # evolve and bmt_evolve take every power of a constant RK4 step from
    # one eigendecomposition X = V diag(w) V^-1, whose rounding error is
    # of order cond(V) u, u = 2^-53 (the eigenvector method of Moler and
    # Van Loan, SIAM Rev. 45 (2003) 3). At cond(V) = 1e6 that is 1.1e-10,
    # a ninth of |eigenvalue_floor|, so rounding alone cannot push a pure
    # sample below the floor; past it the run takes successive products
    eigenvector_cond: float = 1e6      # ||V||_1 ||V^-1||_1 of that eigendecomposition

    # relativistic spin transport
    on_shell_rel: float = 1e-8         # |p.p - (mc)^2| relative to (mc)^2
    bmt_invariant_drift: float = 1e-6  # p.p, p.w, w.w drift that aborts a BMT run, relative
    rest_start: float = 1e-12          # |p - (mc, 0, 0, 0)| entries counting as a start at rest

    # closed-form branch selection
    orthogonal_c1: float = 1e-12       # |g.omega| below this counts as orthogonal
    degenerate_c2_rel: float = 1e-10   # |g^2 - omega^2| relative to max(g^2, omega^2)
    unit_determinant: float = 1e-10    # |det S - 1| for an SL(2,C) conjugation
    gauge_degenerate_rel: float = 1e-12  # |2g - l^2| relative to max(|2g|, l^2, 1), excluded

    # scenario cross-checks (qdsim run --check)
    closed_vs_ode: float = 1e-6        # Bloch distance, closed form against RK4
    oracle_step: float = 1e-3          # largest RK4 step of the cross-check run
    oracle_max_steps: int = 200_000    # RK4 steps the cross-check run may take
    oracle_points: int = 64            # about this many cross-check comparison points
    case_vs_general: float = 1e-10     # Bloch distance, per-case formula against the general one
    kraus_vs_closed: float = 1e-10     # Bloch distance, Kraus family against the closed form
    # the finite-difference residual is checked through its first-order
    # ratio err(dt/2)/err(dt), not its magnitude (which scales with the
    # squared generator norm and has no universal absolute tolerance)
    generator_consistency: float = 0.1     # |ratio - 1/2|
    fd_step: float = 1e-5              # dt of the finite-difference residual, halved for the ratio
    generator_residual_floor: float = 1e-9 # residual already at rounding: ratio not checked
    weight_sum: float = 1e-10          # |sum of Jaynes-Cummings block weights - 1|
    four_vector_invariants: float = 1e-6   # relative drift of p.p, p.w, w.w over a BMT run
    spin_routes: float = 1e-8          # BMT four-vectors against the sigma map and the spin
    norm_preservation: float = 1e-8    # |norm - 1| of the neutrino amplitudes


TOL = Tolerances()

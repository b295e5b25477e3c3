"""Scenario execution.

Each kind builds its model, produces a column table (the sample times
and named 1-d real series), and runs the cross-checks that make
sense for it: kinds with a closed form are re-integrated with the ODE
solver and compared sample by sample, ODE-only kinds get
finite-difference generator consistency, and the relativistic/neutrino
kinds verify their own conservation laws. Check tolerances mirror the
figures they reproduce; a failed check flips the process exit code but
still writes the outputs, so the artifacts can be inspected.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Generator,
    IntegratorConfig,
    Trajectory,
    evolve,
    evolve_lift,
    finite_difference_generator_check,
    inverted_morse_profile,
    qubit_rate_generator,
    sample_count,
    whole_steps,
)
from .errors import DomainError, NoCrossingError
from .linalg import frobenius, pauli_components
from .models import dirac
from .models import jaynes_cummings as jc
from .models import neutrino as nu
from .output import PlotSpec, emit_csv, emit_svg
from .qubit import (
    CaseClass,
    QubitGeneratorParams,
    SingleLindbladParams,
    asymptote,
    bloch_trajectory_case,
    bloch_trajectory_general,
    rabi_probability,
    single_lindblad_kraus,
    single_lindblad_trajectory,
    sl2c_coefficients,
)
from .rootfind import find_crossing
from .scenario import KINDS, Scenario, read_scenario
from .states import bloch_to_density, bloch_vectors, density_to_bloch
from .tolerances import TOL


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"check {self.name}: max violation {self.max_violation:.3e} "
            f"(tol {self.tolerance:.1e}) {status}"
        )


@dataclass(frozen=True)
class RunReport:
    name: str
    kind: str
    checks: tuple
    notes: tuple
    outputs: tuple
    duration_s: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [f"scenario {self.name} ({self.kind})"]
        out.extend("  " + c.line() for c in self.checks)
        out.extend(f"  note: {n}" for n in self.notes)
        out.extend(f"  wrote {p}" for p in self.outputs)
        verdict = "ok" if self.all_passed else "CHECK FAILURE"
        out.append(f"  done in {self.duration_s:.2f} s: {verdict}")
        return out


def _grid(t_end: float, dt: float) -> np.ndarray:
    return dt * np.arange(sample_count(whole_steps(t_end, dt), 1))


def _oracle(gen: Generator, xi, icfg: dict) -> Trajectory:
    """The RK4 cross-check run from Bloch vector xi: each scenario step
    split into as many equal steps as keep them at most TOL.oracle_step,
    at most TOL.oracle_max_steps steps in all, sampled at about
    TOL.oracle_points comparison points. The step is t_end / n, so it
    always divides the horizon."""
    t_end, step = icfg["t_end"], icfg["step"]
    split = max(1, math.ceil(step / TOL.oracle_step - TOL.whole_steps_rel))
    n = min(TOL.oracle_max_steps, whole_steps(t_end, step) * split)
    cfg = IntegratorConfig(t_end=t_end, step=t_end / n,
                           sample_stride=max(1, n // TOL.oracle_points))
    return evolve(gen, bloch_to_density(xi), cfg)


def _closed_vs_ode(name: str, closed_form, ode: Trajectory) -> CheckResult:
    """Largest Bloch distance between an RK4 trajectory and
    closed_form(times) at its sample times. The samples are read as they
    are: evolve has already held them to its drift bounds."""
    dist = np.linalg.norm(pauli_components(ode.states) - closed_form(ode.times), axis=1).max()
    return CheckResult(name, float(dist), TOL.closed_vs_ode)


def _qubit_columns(blochs) -> dict:
    """Bloch components plus purity (1 + r^2)/2 and the entropy of the
    eigenvalues (1 +- r)/2, r = |n|, clipped at 0 as von_neumann_entropy does."""
    blochs = np.asarray(blochs)
    r2 = (blochs * blochs).sum(axis=1)
    lam = np.clip(0.5 * (1.0 + np.multiply.outer(np.sqrt(r2), (1.0, -1.0))), 0.0, None)
    log_lam = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return {
        "n1": blochs[:, 0],
        "n2": blochs[:, 1],
        "n3": blochs[:, 2],
        "purity": 0.5 * (1.0 + r2),
        "entropy": -(lam * log_lam).sum(axis=1),
    }


def _run_qubit_closed_form(scn: Scenario, icfg: dict, check: bool):
    p = scn.parameters
    params = QubitGeneratorParams(p["omega"], p["g"])
    xi = np.asarray(p["xi"], dtype=float)
    case_key = p.get("case", "auto")
    times = _grid(icfg["t_end"], icfg["step"])
    general = lambda t: bloch_trajectory_general(params, xi, t)
    if case_key == "auto":
        blochs = general(times)
    else:
        blochs = bloch_trajectory_case(CaseClass(case_key), params, xi, times)
    cols = _qubit_columns(bloch_vectors(blochs))
    w_norm = np.linalg.norm(params.omega)
    w_hat = params.omega / w_norm if w_norm > 0.0 else np.zeros(3)
    cols["p_plus"] = 0.5 * (1.0 + blochs @ w_hat)
    cols["p_minus"] = 0.5 * (1.0 - blochs @ w_hat)
    cols["rabi"] = rabi_probability(np.linalg.norm(params.g), w_norm, times)

    checks, notes = [], []
    if check:
        checks.append(_closed_vs_ode("closed-form-vs-ode", general,
                                     _oracle(params.generator(), xi, icfg)))
        if case_key != "auto":
            checks.append(
                CheckResult(
                    "case-vs-general",
                    float(np.linalg.norm(blochs - general(times), axis=1).max()),
                    TOL.case_vs_general,
                )
            )
    tail = asymptote(params, xi)
    if tail is None:
        notes.append("oscillatory parameters: no late-time asymptote")
    else:
        notes.append(f"late-time asymptote ({tail[0]:.6f}, {tail[1]:.6f}, {tail[2]:.6f})")
    return times, cols, checks, notes


def _run_gksl_ode(scn: Scenario, icfg: dict, check: bool):
    p = scn.parameters
    omega = np.asarray(p["omega"], dtype=float)
    g = np.asarray(p["g"], dtype=float)
    xi = np.asarray(p["xi"], dtype=float)
    constant = p.get("g_profile", "constant") == "constant"
    cfg = IntegratorConfig(icfg["t_end"], icfg["step"], icfg.get("sample_stride", 1))
    checks, notes = [], []
    if constant:
        magnitude, g_scale = (lambda t: 1.0), np.linalg.norm(g)
    else:
        largest = np.abs(g).max()
        if largest == 0.0:
            raise DomainError("profile direction g must be nonzero")
        if not 1e-150 < largest < 1e150:
            g = g / largest  # so that its norm neither over- nor underflows
        g = g / np.linalg.norm(g)
        magnitude, g_scale = inverted_morse_profile(p["q"], p["nu"]), 1.0
        omega_norm = float(np.linalg.norm(omega))
        try:
            t_in = find_crossing(lambda t: magnitude(t) - omega_norm, 0.0, icfg["t_end"],
                                 xtol=1.0)
            notes.append(f"|g(t)| = |omega| crossing at t_in = {t_in:.1f}")
        except NoCrossingError:
            notes.append("no |g(t)| = |omega| crossing inside the run window")
    family = qubit_rate_generator(omega, g, magnitude)
    traj = evolve_lift(family, bloch_to_density(xi), cfg)
    cols = _qubit_columns(pauli_components(traj.states))
    cols["g_norm"] = g_scale * family._f(traj.times)

    if check:
        if constant:
            params = QubitGeneratorParams(omega, g)
            checks.append(_closed_vs_ode(
                "closed-form-vs-ode", lambda t: bloch_trajectory_general(params, xi, t), traj))
        picks = np.linspace(0, len(traj) - 1, min(8, len(traj))).astype(int)
        violation, engaged = 0.0, 0
        for k in picks:
            gen_k = family(traj.times[k])
            # exactly Hermitian, and divided by its trace by evolve_lift;
            # the division here only absorbs the rounding of that trace
            rho = traj.states[k] / np.trace(traj.states[k]).real
            # the first-order residual scales as dt ||G - iH||^2, so a step
            # of fd_step / ||G - iH||_F lifts small rates above the floor
            # (a zero generator keeps fd_step)
            dt = TOL.fd_step / min(1.0, frobenius(gen_k._m) or 1.0)
            e1 = finite_difference_generator_check(gen_k, rho, dt)
            if e1 < TOL.generator_residual_floor:
                continue  # map matches the generator to rounding already
            engaged += 1
            e2 = finite_difference_generator_check(gen_k, rho, dt / 2.0)
            violation = max(violation, abs(e2 / e1 - 0.5))
        checks.append(
            CheckResult("generator-consistency", violation, TOL.generator_consistency)
        )
        if engaged < len(picks):
            untested = "; ratio not tested" if engaged == 0 else ""
            notes.append(f"generator-consistency: {engaged} of {len(picks)} picks above the "
                         f"residual floor {TOL.generator_residual_floor:g}{untested}")
    return traj.times, cols, checks, notes


def _run_single_lindblad(scn: Scenario, icfg: dict, check: bool):
    p = scn.parameters
    slp = SingleLindbladParams(p["g"], p["omega"], p["l"], p.get("kappa", 0.0))
    xi = np.asarray(p["xi"], dtype=float)
    times = _grid(icfg["t_end"], icfg["step"])
    cols = _qubit_columns(bloch_vectors(single_lindblad_trajectory(slp, xi, times)))

    checks, notes = [], []
    notes.append(f"n3 fixed points 1 and {-slp.l_bar:.6f}")
    if check:
        checks.append(_closed_vs_ode(
            "closed-form-vs-ode", lambda t: single_lindblad_trajectory(slp, xi, t),
            _oracle(slp.generator(), xi, icfg)))
        rho0 = bloch_to_density(xi)
        picks = np.linspace(icfg["t_end"] / 16.0, icfg["t_end"], 16)
        via_kraus = np.array([density_to_bloch(single_lindblad_kraus(slp, t).apply_normalized(rho0))
                              for t in picks])
        worst = np.linalg.norm(via_kraus - single_lindblad_trajectory(slp, xi, picks), axis=1).max()
        checks.append(CheckResult("kraus-vs-closed", float(worst), TOL.kraus_vs_closed))
    return times, cols, checks, notes


def _run_jaynes_cummings(scn: Scenario, icfg: dict, check: bool):
    p = scn.parameters
    params = jc.JCParams(p["omega_f"], p["omega_a"], p["g"], p["n_max"])
    xi = np.asarray(p["xi"], dtype=float)
    s0 = jc.JCBlockState.coherent_field(params, p["nbar"], xi)
    times = _grid(icfg["t_end"], icfg["step"])
    s = jc.jc_evolve(params, s0, times)
    cols = {
        "inversion": s.atomic_inversion(),
        "weights_sum": s.weights.sum(axis=1),
        "mean_energy": jc.jc_mean_energy(params, s),
        **{f"lambda{n}": s.weights[:, n] for n in range(params.n_max + 1)},
    }

    checks, notes = [], []
    damped = [n for n in range(params.n_max + 1)
              if jc.block_case(params, n) is CaseClass.HYPERBOLIC_DAMPED]
    notes.append(f"damped blocks (g sqrt(n+1) > omega_a): {damped if damped else 'none'}")
    if check:
        checks.append(
            CheckResult(
                "weights-sum", float(np.abs(cols["weights_sum"] - 1.0).max()), TOL.weight_sum
            )
        )
        k_star = int(np.argmax(s0.weights))
        block = params.block_params(k_star)
        checks.append(_closed_vs_ode(
            f"block{k_star}-closed-vs-ode", lambda t: bloch_trajectory_general(block, xi, t),
            _oracle(block.generator(), xi, icfg)))
    return times, cols, checks, notes


def _run_bmt(scn: Scenario, icfg: dict, check: bool):
    p = scn.parameters
    f = dirac.EMFieldConfig(
        p["e"], p["b"],
        charge=p.get("charge", 1.0), mass=p.get("mass", 1.0),
        c=p.get("c", 1.0), hbar=p.get("hbar", 1.0),
    )
    p0 = np.asarray(p["p"], dtype=float) if "p" in p else dirac.rest_momentum(f.mass, f.c)
    xi0 = np.asarray(p["xi"], dtype=float)
    traj = dirac.bmt_evolve(f, p0, xi0, icfg["t_end"], icfg["step"], icfg.get("sample_stride"))
    params = f.qubit_params
    p_arr, w_arr = traj.states[..., 0], traj.states[..., 1]
    xi_arr = np.vstack([xi0, bloch_trajectory_general(params, xi0, traj.times[1:])])
    cols = {
        "xi1": xi_arr[:, 0], "xi2": xi_arr[:, 1], "xi3": xi_arr[:, 2],
        "p0": p_arr[:, 0], "p1": p_arr[:, 1], "p2": p_arr[:, 2], "p3": p_arr[:, 3],
        "w0": w_arr[:, 0], "w1": w_arr[:, 1], "w2": w_arr[:, 2], "w3": w_arr[:, 3],
        "t_lab": dirac.lab_time(f, traj.times, p_arr),
    }

    checks, notes = [], []
    tail = asymptote(params, xi0)
    if tail is not None:
        notes.append(f"spin asymptote ({tail[0]:.6f}, {tail[1]:.6f}, {tail[2]:.6f})")
    if check:
        mc2 = (f.mass * f.c) ** 2
        pp = p_arr[:, 0] ** 2 - (p_arr[:, 1:] ** 2).sum(axis=1)
        pw = p_arr[:, 0] * w_arr[:, 0] - (p_arr[:, 1:] * w_arr[:, 1:]).sum(axis=1)
        ww = w_arr[:, 0] ** 2 - (w_arr[:, 1:] ** 2).sum(axis=1)
        scale = max(mc2, float(np.abs(ww[0])), 1e-300)
        drift = max(
            np.abs(pp - mc2).max() / mc2,
            np.abs(pw).max() / scale,
            np.abs(ww - ww[0]).max() / scale,
        )
        checks.append(CheckResult("four-vector-invariants", float(drift), TOL.four_vector_invariants))
        # the RK4 four-vector flow and the 2x2 sigma-map conjugation are
        # the same Lorentz element; their agreement pins the field-tensor
        # sign conventions
        xp0 = dirac.four_to_sigma(p0)
        xw0 = dirac.four_to_sigma(
            dirac.polarization_fourvector(p0, xi0, f.mass, f.c))
        vec_scale = max(float(np.abs(p_arr).max()), float(np.abs(w_arr).max()))
        ku = sl2c_coefficients(params, traj.times).matrix()
        m = np.maximum(1.0, np.abs(ku).max(axis=(1, 2)))
        ku = ku / m[:, None, None]  # sigma map is degree (1,1) in ku; undo as m^2
        ku_h = ku.conj().swapaxes(1, 2)
        p_map = dirac.sigma_to_four(ku @ xp0 @ ku_h) * (m * m)[:, None]
        w_map = dirac.sigma_to_four(ku @ xw0 @ ku_h) * (m * m)[:, None]
        worst_map = max(float(np.abs(p_map - p_arr).max()), float(np.abs(w_map - w_arr).max()))
        checks.append(
            CheckResult(
                "four-vectors-vs-sigma-map", worst_map / vec_scale, TOL.spin_routes
            )
        )
        # from rest the normalized upper chiral block of Theta retraces the
        # closed-form spin; a boosted block is a two-sided slant, not a state
        if np.allclose(p0, dirac.rest_momentum(f.mass, f.c), rtol=0.0, atol=TOL.rest_start):
            theta = dirac.spinor_density_flow(f, p0, xi0, traj.times)
            via_theta = dirac.bloch_from_chiral_block(theta)
            checks.append(
                CheckResult(
                    "spin-from-theta-vs-closed",
                    float(np.linalg.norm(via_theta - xi_arr, axis=1).max()),
                    TOL.spin_routes,
                )
            )
        else:
            notes.append("theta chiral-block check skipped (boosted start)")
    return traj.times, cols, checks, notes


def _run_neutrino(scn: Scenario, icfg: dict, check: bool):
    cfg = nu.NeutrinoConfig(**scn.parameters)
    traj = nu.neutrino_evolve(cfg, icfg["t_end"], icfg["step"], icfg.get("sample_stride"))
    cols = nu.flavor_columns(traj.states)
    checks, notes = [], []
    try:
        if cfg.mode == "msw":
            notes.append(f"MSW resonance at L_c = {nu.msw_resonance(cfg):.0f} km")
        else:
            notes.append(
                f"|g| = |omega| instability at L_in = {nu.instability_locator(cfg):.0f} km"
            )
    except NoCrossingError:
        notes.append("no matter/vacuum level crossing below the density cutoff")
    if check:
        norms = np.linalg.norm(traj.states, axis=1)
        checks.append(CheckResult("norm-preservation", float(np.abs(norms - 1.0).max()),
                                  TOL.norm_preservation))
    return traj.times, cols, checks, notes


_RUNNERS = {
    "qubit-closed-form": _run_qubit_closed_form,
    "gksl-ode": _run_gksl_ode,
    "single-lindblad": _run_single_lindblad,
    "jaynes-cummings": _run_jaynes_cummings,
    "bmt": _run_bmt,
    "neutrino": _run_neutrino,
}

def run(scn: Scenario, out_dir: str = ".", check: bool = True,
        step: float = None, t_end: float = None):
    """Execute one scenario: evolve, check, write outputs.

    step/t_end override the scenario's [integrator] values (the CLI
    flags land here); the step defaults to the one KINDS declares for the
    kind. A scenario needs a positive horizon. Returns (times,
    columns, RunReport): the sample times and the scenario's column table.
    """
    started = time.perf_counter()
    icfg = dict(scn.integrator)
    icfg.setdefault("step", KINDS[scn.kind].step)
    if step is not None:
        icfg["step"] = step
    if t_end is not None:
        icfg["t_end"] = t_end
    if not icfg["t_end"] > 0.0:
        raise DomainError(f"a scenario needs a positive t_end, got {icfg['t_end']!r}")
    # an overflow or a nan anywhere in the run is one error line; the
    # steppers and guards that expect one say so in their own errstate
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            times, columns, checks, notes, written = _run_and_emit(scn, icfg, check, out_dir)
    except (FloatingPointError, OverflowError) as exc:
        raise DomainError(f"{scn.kind} run left the double range: {exc}") from None
    report = RunReport(
        name=scn.name,
        kind=scn.kind,
        checks=tuple(checks),
        notes=tuple(notes),
        outputs=tuple(written),
        duration_s=time.perf_counter() - started,
    )
    return times, columns, report


def output_path(name: str, out_dir: str) -> str:
    """Where an [output] csv or svg path is written: as named if absolute,
    else under out_dir."""
    return name if os.path.isabs(name) else os.path.join(out_dir, name)


def output_paths(scn: Scenario, out_dir: str) -> dict:
    """{real path: path} of every csv and svg the scenario writes, each
    path from output_path and its real path from os.path.realpath. Two
    paths of one file, as through a symlinked directory, raise
    DomainError; parse_scenario compares the names only as text."""
    paths = {}
    for name in (n for out in scn.outputs for n in (out.csv, out.svg) if n):
        path = output_path(name, out_dir)
        first = paths.setdefault(os.path.realpath(path), path)
        if first != path:
            raise DomainError(f"output paths {first} and {path} name one file")
    return paths


def _run_and_emit(scn: Scenario, icfg: dict, check: bool, out_dir: str):
    output_paths(scn, out_dir)  # refused before anything runs or is written
    times, columns, checks, notes = _RUNNERS[scn.kind](scn, icfg, check)
    written = []
    for out in scn.outputs:
        if out.csv:
            path = output_path(out.csv, out_dir)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            emit_csv(times, columns, path, out.observables or None)
            written.append(path)
        if out.svg:
            path = output_path(out.svg, out_dir)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            plot = PlotSpec(
                title=out.title or scn.name,
                observables=out.observables,
                x_label=KINDS[scn.kind].x_label,
                log_x=out.log_x,
            )
            dropped = emit_svg(times, columns, plot, path)
            if dropped:
                notes.append(f"{path}: {dropped} sample(s) with t <= 0 left off the log axis")
            written.append(path)
    return times, columns, checks, notes, written


def run_file(path, out_dir: str = ".", check: bool = True,
             step: float = None, t_end: float = None):
    return run(read_scenario(path), out_dir=out_dir, check=check, step=step, t_end=t_end)

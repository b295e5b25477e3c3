"""The benchmark's workloads and the operations each pass runs.

An operation is one scenario run through ``qdsim run`` or one ensemble
trajectory. ``run`` is the timed part; ``verify`` runs afterwards, outside
the timing, and raises on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import bench_checks as bc
from qdsim import cli, dynamics, qubit, scenario, states

# Shipped scenarios with [integrator] overrides that fit a pass into about
# two seconds, so that a run holds enough passes for a steady median.
# Closed forms keep their dense step and lose horizon in one ratio, so the
# shares of closed-form samples, columns, emission and the 64-sample RK4
# oracle stay as in the full figures. Steppers keep their steps per sample:
# the neutrino runs to 600,000 km at a 10 km step (39 % of its steps past
# the 365,767 km cutoff), instability_morse to t = 20,000 at a step of 10
# (past the crossing at t ~ 2821, into the precession about the attractor),
# and the BMT run to tau = 200 at the shipped step.
CLOSED_FORM = (
    ("tilted_attractor_purification", {"t_end": 0.5}),
    ("parabolic_equalization", {"t_end": 0.5}),
    ("damped_rabi_w6_g595", {"t_end": 0.5}),
    ("lindblad_entropy_plateau", {"t_end": 0.5}),
    ("jc_collapse_blocks", {"t_end": 0.2}),
)
LONG_HORIZON = (
    ("neutrino_damping_10mev", {"t_end": 600000.0, "step": 10.0, "sample_stride": 173}),
    ("instability_morse", {"t_end": 20000.0, "step": 10.0}),
    ("bmt_spin_damping_a", {"t_end": 200.0}),
)

ENSEMBLE_PER_KIND = 10
ENSEMBLE_T_END = 0.5
ENSEMBLE_STEP = 1e-3
RK4_VS_EXACT_TOL = 1e-6      # acceptance criterion 01's bound
ASYMPTOTE_NORM_TOL = 1e-9


def derive_scenario(text: str, overrides: dict) -> str:
    """A shipped scenario with [integrator] keys overridden and each [output]
    split in two: a CSV of every column, so the checks can read them, and
    the SVG with the observables, title and axis of the shipped figure."""
    blocks = []
    for name, items in bc.scenario_sections(text):
        if name == "integrator":
            items = {**items, **{k: repr(v) for k, v in overrides.items()}}
        if name == "output":
            items = dict(items)
            csv = items.pop("csv", None)
            if csv:
                blocks.append(["[output]", f"csv = {csv}"])
            if "svg" in items:
                blocks.append(["[output]"] + [f"{k} = {v}" for k, v in items.items()])
            continue
        blocks.append([f"[{name}]"] + [f"{k} = {v}" for k, v in items.items()])
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


class ScenarioOp:
    def __init__(self, name: str, path: Path, scn: dict, out_dir: Path, check: bool) -> None:
        self.name = name
        self.path = path
        self.scn = scn
        self.out_dir = out_dir
        self.check = check

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["run", str(self.path), "--out-dir", str(self.out_dir),
                             "--check" if self.check else "--no-check"])
        return code, buf.getvalue()

    def verify(self, result) -> None:
        code, report = result
        if code != 0:
            raise bc.CheckFailure(f"exit status {code}")
        lines = [ln.strip() for ln in report.splitlines() if ln.strip().startswith("check ")]
        if self.check and not lines:
            raise bc.CheckFailure("no program check line in the report")
        if not self.check and lines:
            raise bc.CheckFailure("checks ran under --no-check")
        for ln in lines:
            if not ln.endswith("PASS"):
                raise bc.CheckFailure(f"program check failed: {ln}")
        verify_outputs(self.scn, self.out_dir)


def verify_outputs(scn: dict, out_dir: Path) -> None:
    kind = scn["scenario"]["kind"]
    icfg = scn["integrator"]
    for out in scn["output"]:
        if "csv" in out:
            cols = bc.read_csv(out_dir / out["csv"])
            bc.check_grid(cols, icfg["t_end"])
            if kind == "qubit-closed-form":
                bc.check_qubit_closed_form(scn, cols)
            elif kind == "single-lindblad":
                bc.check_single_lindblad(scn, cols)
            elif kind == "jaynes-cummings":
                bc.check_jaynes_cummings(scn, cols)
            elif kind == "gksl-ode":
                bc.check_morse(scn, cols)
            elif kind == "neutrino":
                bc.check_neutrino(scn, cols, icfg.get("step", 1.0))
            elif kind == "bmt":
                bc.check_bmt(scn, cols)
            else:
                raise bc.CheckFailure(f"no independent check for kind {kind!r}")
        if "svg" in out:
            bc.check_svg(out_dir / out["svg"], len(out["observables"].split(",")))


class ScenarioWorkload:
    """Shipped scenarios, rewritten with their overrides into ``workdir``."""

    def __init__(self, specs, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        scn_dir = workdir / "scenarios"
        scn_dir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for stem, overrides in specs:
            text = (root / "src" / "qdsim" / "scenarios" / f"{stem}.scn").read_text(encoding="utf-8")
            derived = derive_scenario(text, overrides)
            scenario.parse_scenario(derived)  # qdsim must accept the input as written
            path = scn_dir / f"{stem}.scn"
            path.write_text(derived, encoding="utf-8")
            self.items.append((stem, path, bc.read_scenario(derived)))

    def ops(self, check: bool):
        out_dir = self.workdir / ("check" if check else "nocheck")
        return [ScenarioOp(stem, path, scn, out_dir, check) for stem, path, scn in self.items]


def _ball(rng, radius: float) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, radius)


def _hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


class EnsembleMember:
    """One random generator and initial state, in plain arrays."""

    def __init__(self, kind: str, rng) -> None:
        self.kind = kind
        self._exact = None
        if kind == "qutrit-lindblad":
            self.h = _hermitian(rng, 3)
            self.g = 0.3 * _hermitian(rng, 3)
            self.lindblads = (0.7 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),)
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            self.rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
            return
        radius = 10.0 if kind == "qubit" else 3.0
        self.omega = _ball(rng, radius)
        self.g_vec = _ball(rng, radius)
        self.xi = _ball(rng, 1.0)
        self.lindblads = ()
        if kind == "qubit-lindblad":
            self.lindblads = (0.7 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),)
        self.h = 0.5 * bc.pauli(self.omega)
        self.g = 0.5 * bc.pauli(self.g_vec)
        self.rho0 = bc.density(self.xi)

    def exact_final(self) -> np.ndarray:
        """The normalized superoperator exponential at the horizon."""
        if self._exact is None:
            s = bc.superoperator(self.h, self.g, self.lindblads)
            self._exact = bc.propagate(s, self.rho0, ENSEMBLE_T_END)
        return self._exact


class EnsembleOp:
    def __init__(self, name: str, member: EnsembleMember, check: bool) -> None:
        self.name = name
        self.member = member
        self.check = check

    def run(self):
        m = self.member
        cfg = dynamics.IntegratorConfig(t_end=ENSEMBLE_T_END, step=ENSEMBLE_STEP,
                                        sample_stride=10 ** 9)
        if m.kind == "qutrit-lindblad":
            gen = dynamics.Generator(m.h, m.g, m.lindblads)
            rho0 = m.rho0
        else:
            gen = dynamics.Generator.qubit(m.omega, m.g_vec, m.lindblads)
            rho0 = states.bloch_to_density(m.xi)
        final = dynamics.evolve(gen, rho0, cfg).final_state
        cross = None
        if self.check and m.kind == "qubit":
            closed = dynamics.closed_form_propagate(gen, rho0, ENSEMBLE_T_END)
            tail = qubit.asymptote(qubit.QubitGeneratorParams(m.omega, m.g_vec), m.xi)
            cross = (closed, tail)
        return final, cross

    def verify(self, result) -> None:
        final, cross = result
        exact = self.member.exact_final()
        bc.expect("rk4 vs superoperator expm", np.linalg.norm(final - exact), RK4_VS_EXACT_TOL)
        if cross is not None:
            closed, tail = cross
            bc.expect("closed form vs rk4", np.linalg.norm(final - closed), RK4_VS_EXACT_TOL)
            if tail is not None:
                bc.expect("|asymptote| = 1", abs(np.linalg.norm(tail) - 1.0), ASYMPTOTE_NORM_TOL)


class EnsembleWorkload:
    """Independent random generators drawn from the seed: qubits without
    Lindblad operators (rate vectors in a ball of radius 10), qubits with
    one Lindblad operator, and 3-level systems with one."""

    KINDS = ("qubit", "qubit-lindblad", "qutrit-lindblad")

    def __init__(self, seed: int, per_kind: int = ENSEMBLE_PER_KIND) -> None:
        rng = np.random.default_rng(seed)
        self.members = [EnsembleMember(kind, rng)
                        for _ in range(per_kind) for kind in self.KINDS]

    def ops(self, check: bool):
        return [EnsembleOp(f"{m.kind}-{i}", m, check) for i, m in enumerate(self.members)]


def make(name: str, seed: int, root: Path, workdir: Path):
    """Set up a workload: parse or generate every input it needs."""
    if name == "closed-form-figures":
        return ScenarioWorkload(CLOSED_FORM, root, workdir)
    if name == "long-horizon-stepping":
        return ScenarioWorkload(LONG_HORIZON, root, workdir)
    if name == "ensemble":
        return EnsembleWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

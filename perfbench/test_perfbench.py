"""The benchmark's own tests: every correctness check on reduced inputs,
each check shown to reject a corrupted output, the span tracer, and the
runner's refusal to run without the program's sources."""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_checks as bc  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_spans import Tracer  # noqa: E402

import qdsim.run  # noqa: E402
import qdsim.states  # noqa: E402

REDUCED_CLOSED_FORM = tuple((stem, {"t_end": 0.05 if stem != "jc_collapse_blocks" else 0.02})
                            for stem, _ in bw.CLOSED_FORM)
REDUCED_LONG_HORIZON = (
    ("neutrino_damping_10mev", {"t_end": 400000.0, "step": 50.0}),
    ("instability_morse", {"t_end": 3000.0, "step": 10.0}),
    ("bmt_spin_damping_a", {"t_end": 20.0}),
)


def _run_all(workload, check: bool):
    ops = workload.ops(check)
    results = [(op, op.run()) for op in ops]
    for op, result in results:
        op.verify(result)
    return results


@pytest.fixture(scope="module")
def closed_form(tmp_path_factory):
    wl = bw.ScenarioWorkload(REDUCED_CLOSED_FORM, ROOT, tmp_path_factory.mktemp("cf"))
    _run_all(wl, check=True)
    _run_all(wl, check=False)
    return wl


@pytest.fixture(scope="module")
def long_horizon(tmp_path_factory):
    wl = bw.ScenarioWorkload(REDUCED_LONG_HORIZON, ROOT, tmp_path_factory.mktemp("lh"))
    _run_all(wl, check=True)
    _run_all(wl, check=False)
    return wl


def test_derived_scenarios_keep_the_figure_and_write_every_column(closed_form):
    stem, path, scn = closed_form.items[3]  # lindblad_entropy_plateau: two figures
    assert stem == "lindblad_entropy_plateau"
    parsed = qdsim.scenario.parse_scenario(path.read_text())
    assert parsed.integrator["t_end"] == 0.05
    assert [(o.csv, o.observables) for o in parsed.outputs if o.csv] == [
        ("lindblad_entropy_plateau.csv", ())]
    svgs = [(o.svg, o.observables, o.log_x) for o in parsed.outputs if o.svg]
    assert svgs == [("lindblad_entropy_plateau.svg", ("n1", "n2", "n3"), False),
                    ("lindblad_entropy_plateau_entropy.svg", ("entropy", "purity"), True)]


def test_closed_form_and_long_horizon_outputs_pass(closed_form, long_horizon):
    # the fixtures ran and verified every operation with checks on and off
    assert len(closed_form.items) == 5 and len(long_horizon.items) == 3


def _corrupt(path: Path, column: str, rel: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    value = float(rows[-1][k])
    rows[-1][k] = repr(value + rel * max(1.0, abs(value)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("workload,stem,column", [
    ("closed_form", "tilted_attractor_purification", "n1"),
    ("closed_form", "parabolic_equalization", "p_minus"),
    ("closed_form", "damped_rabi_w6_g595", "rabi"),
    ("closed_form", "lindblad_entropy_plateau", "n3"),
    ("closed_form", "lindblad_entropy_plateau", "entropy"),
    ("closed_form", "jc_collapse_blocks", "lambda3"),
    ("closed_form", "jc_collapse_blocks", "mean_energy"),
    ("long_horizon", "neutrino_damping_10mev", "n1"),
    ("long_horizon", "instability_morse", "g_norm"),
    ("long_horizon", "bmt_spin_damping_a", "p0"),
    ("long_horizon", "bmt_spin_damping_a", "t"),
])
def test_checks_reject_a_corrupted_value(request, tmp_path, workload, stem, column):
    wl = request.getfixturevalue(workload)
    _, _, scn = next(item for item in wl.items if item[0] == stem)
    src = wl.workdir / "check"
    for out in scn["output"]:
        for key in ("csv", "svg"):
            if key in out:
                shutil.copy(src / out[key], tmp_path / out[key])
    bw.verify_outputs(scn, tmp_path)
    _corrupt(tmp_path / scn["output"][0]["csv"], column, 1e-6)
    with pytest.raises(bc.CheckFailure):
        bw.verify_outputs(scn, tmp_path)


def test_neutrino_check_rejects_a_wrong_precession_axis(long_horizon):
    _, _, scn = long_horizon.items[0]
    cols = bc.read_csv(long_horizon.workdir / "check" / scn["output"][0]["csv"])
    bc.check_neutrino(scn, cols, 50.0)
    wrong = {**scn, "neutrino": {**scn["neutrino"], "theta12": 0.3}}
    with pytest.raises(bc.CheckFailure):
        bc.check_neutrino(wrong, cols, 50.0)


def test_report_with_a_failed_program_check_is_refused(closed_form):
    op = closed_form.ops(True)[0]
    code, report = op.run()
    op.verify((code, report))
    with pytest.raises(bc.CheckFailure):
        op.verify((code, report.replace("PASS", "FAIL", 1)))
    with pytest.raises(bc.CheckFailure):
        op.verify((2, report))


def test_ensemble_checks_pass_and_reject_a_perturbed_state():
    wl = bw.EnsembleWorkload(seed=11, per_kind=1)
    for check in (True, False):
        for op in wl.ops(check):
            op.verify(op.run())
    op = wl.ops(False)[2]
    final, cross = op.run()
    bumped = final.copy()
    bumped[0, 0] += 1e-5
    bumped[1, 1] -= 1e-5
    with pytest.raises(bc.CheckFailure):
        op.verify((bumped, cross))


def test_ensemble_inputs_follow_the_seed():
    a, b, c = (bw.EnsembleWorkload(seed=s, per_kind=2) for s in (5, 5, 6))
    assert [m.kind for m in a.members] == list(bw.EnsembleWorkload.KINDS) * 2
    assert all(np.array_equal(x.rho0, y.rho0) for x, y in zip(a.members, b.members))
    assert not np.array_equal(a.members[0].omega, c.members[0].omega)


def test_tracer_sees_calls_through_from_imports_and_counts_repeat(closed_form):
    original = qdsim.states.bloch_to_density
    assert qdsim.run.bloch_to_density is original
    metrics = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert qdsim.run.bloch_to_density is not original
            with tracer.span("op.test"):
                for op in closed_form.ops(True)[:1]:
                    op.verify(op.run())
        finally:
            tracer.uninstall()
        metrics.append(tracer.layer_metrics(0.0))
    assert qdsim.run.bloch_to_density is original
    assert qdsim.states.bloch_to_density is original
    first, second = metrics
    counts = {k for k, (_, unit) in first.items() if unit in ("count", "bytes")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["states.bloch_to_density.calls"][0] > 0   # bound in run.py
    assert first["states.density_matrix.calls"][0] > 0     # bound in dynamics.py
    assert first["dynamics.evolve.steps"][0] == 50         # oracle: t_end 0.05 at h 1e-3
    assert first["run.run.calls"][0] == 1
    assert first["cli.main.self_s"][0] > 0.0


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

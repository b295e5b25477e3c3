import importlib.metadata
import os
import pkgutil
import shutil
import subprocess
import sys
import sysconfig
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import qdsim
from qdsim import cli
from qdsim.cli import main
from qdsim.errors import DomainError
from qdsim.dynamics import IntegratorConfig, evolve
from qdsim.qubit import QubitGeneratorParams, bloch_trajectory_general
from qdsim.run import CheckResult, _closed_vs_ode, _qubit_columns, run, run_file
from qdsim.scenario import parse_scenario
from qdsim.states import bloch_to_density, purity, von_neumann_entropy

PASS_SCN = """\
[scenario]
kind = qubit-closed-form
name = cli-pass

[qubit]
omega = (0.0, 0.0, 6.0)
g = (4.0, 0.0, 0.0)
xi = (0.0, 0.0, 1.0)
case = oscillatory

[integrator]
t_end = 1.0
step = 0.001

[output]
csv = pass.csv
observables = n3, p_minus

[output]
svg = pass.svg
observables = p_minus
"""

# same rates, fine step: both the closed-form comparison and the
# finite-difference generator check must pass at O(1) rates
ODE_PASS_SCN = """\
[scenario]
kind = gksl-ode
name = cli-ode-pass

[qubit]
omega = (0.0, 0.0, 6.0)
g = (4.0, 0.0, 0.0)
xi = (0.0, 0.0, 0.5)

[integrator]
t_end = 1.0
step = 0.001

[output]
csv = ode_pass.csv
"""

# coarse RK4 step: the run completes but disagrees with the closed form
# far beyond the check tolerance, so checked runs must exit 2
FAIL_SCN = """\
[scenario]
kind = gksl-ode
name = cli-coarse

[qubit]
omega = (0.0, 0.0, 6.0)
g = (4.0, 0.0, 0.0)
xi = (0.0, 0.0, 0.5)

[integrator]
t_end = 2.0
step = 0.05

[output]
csv = coarse.csv
"""


@pytest.fixture()
def pass_file(tmp_path):
    p = tmp_path / "pass.scn"
    p.write_text(PASS_SCN)
    return p


@pytest.fixture()
def fail_file(tmp_path):
    p = tmp_path / "coarse.scn"
    p.write_text(FAIL_SCN)
    return p


def test_run_file_writes_outputs(tmp_path, pass_file):
    out = tmp_path / "out"
    times, _, report = run_file(pass_file, out_dir=str(out))
    assert report.all_passed
    assert (out / "pass.csv").exists()
    assert (out / "pass.svg").exists()
    assert len(report.outputs) == 2
    text = "\n".join(report.lines())
    assert text.startswith("scenario cli-pass (qubit-closed-form)")
    assert "check closed-form-vs-ode" in text
    assert "FAIL" not in text
    assert report.lines()[-1].endswith("ok")
    header = (out / "pass.csv").read_text().splitlines()[0]
    assert header == "t,n3,p_minus"
    assert times[-1] == pytest.approx(1.0)


def test_run_file_is_deterministic(tmp_path, pass_file):
    a, b = tmp_path / "a", tmp_path / "b"
    run_file(pass_file, out_dir=str(a), check=False)
    run_file(pass_file, out_dir=str(b), check=False)
    assert (a / "pass.csv").read_bytes() == (b / "pass.csv").read_bytes()
    assert (a / "pass.svg").read_bytes() == (b / "pass.svg").read_bytes()


def test_run_file_overrides(tmp_path, pass_file):
    times, _, _ = run_file(pass_file, out_dir=str(tmp_path / "o"), check=False,
                           step=0.01, t_end=0.5)
    assert times[-1] == pytest.approx(0.5)
    assert times[1] - times[0] == pytest.approx(0.01)


def test_qubit_columns_match_the_state_functions():
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate([[0.0, 1.0, 1.0 + 5e-10], rng.uniform(0.0, 1.0, 17)])
    blochs = dirs * radii[:, None]
    cols = _qubit_columns(blochs)
    for k, n in enumerate(blochs):
        rho = bloch_to_density(n)
        assert abs(cols["purity"][k] - purity(rho)) <= 1e-12
        assert abs(cols["entropy"][k] - von_neumann_entropy(rho)) <= 1e-12
    assert np.array_equal(cols["n2"], blochs[:, 1])


def test_cli_pass_exits_zero(tmp_path, pass_file, capsys):
    code = main(["run", str(pass_file), "--out-dir", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "done in" in out


def test_cli_ode_happy_path_exits_zero(tmp_path, capsys):
    # regression: the generator-consistency ratio must stay scale-free,
    # an absolute residual tolerance fails any O(1)-rate scenario
    p = tmp_path / "ode_pass.scn"
    p.write_text(ODE_PASS_SCN)
    code = main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "check closed-form-vs-ode" in out
    assert "check generator-consistency" in out
    assert "FAIL" not in out


def test_generator_consistency_says_when_no_pick_engaged(tmp_path):
    # the Morse rates are about 0.007: every first-order residual lies
    # under TOL.generator_residual_floor, so the ratio tests nothing
    text = resources.files("qdsim").joinpath("scenarios", "instability_morse.scn").read_text()
    *_, report = run(parse_scenario(text), out_dir=str(tmp_path / "m"), t_end=200.0)
    assert report.all_passed
    assert "generator-consistency" in [c.name for c in report.checks]
    assert ("generator-consistency: 0 of 8 picks above the residual floor 1e-09; "
            "ratio not tested") in report.notes
    # O(1) rates engage every pick, so no such note
    p = tmp_path / "ode_pass.scn"
    p.write_text(ODE_PASS_SCN)
    *_, report = run_file(p, out_dir=str(tmp_path / "c"))
    assert report.all_passed
    assert not [n for n in report.notes if n.startswith("generator-consistency")]


def test_cli_check_failure_exits_two(tmp_path, fail_file, capsys):
    code = main(["run", str(fail_file), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "CHECK FAILURE" in out


def test_cli_no_check_skips_oracles(tmp_path, fail_file, capsys):
    code = main(["run", str(fail_file), "--no-check",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 0
    assert "check " not in capsys.readouterr().out


def test_cli_missing_file_exits_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_cli_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("this is not a scenario\n")
    code = main(["run", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_errors_exit_one(tmp_path, pass_file):
    with pytest.raises(SystemExit) as err:
        main(["run", str(pass_file), "--jobs", "0"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["run"])  # a scenario file is required
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_cli_worst_code_prefers_usage_failures(tmp_path, fail_file, capsys):
    # one parse error (1) plus one check failure (2): 1 wins
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nkind = nonsense\n")
    code = main(["run", str(bad), str(fail_file),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1


def test_cli_parallel_jobs(tmp_path, pass_file, capsys):
    other = tmp_path / "second.scn"
    other.write_text(PASS_SCN.replace("cli-pass", "cli-second")
                     .replace("pass.csv", "second.csv")
                     .replace("pass.svg", "second.svg"))
    code = main(["run", str(pass_file), str(other), "--jobs", "2",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-pass" in out and "cli-second" in out
    assert (tmp_path / "o" / "second.csv").exists()


def _declared_scripts():
    """The [project.scripts] table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _run_cli(cmd):
    # the child imports qdsim from where this process did, whether that is
    # an installed copy or a checkout on PYTHONPATH
    env = dict(os.environ)
    root = str(Path(qdsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)


# the last one is a whole number of steps, one past TOL.max_steps
BAD_HORIZONS = [("inf", "0.001"), ("nan", "0.001"), ("1.0", "0.3"), ("10000.001", "0.001")]


def _with_horizon(text, t_end, step):
    return text.replace("t_end = 1.0\nstep = 0.001", f"t_end = {t_end}\nstep = {step}")


@pytest.mark.parametrize("t_end, step", BAD_HORIZONS)
def test_closed_form_scenario_rejects_a_horizon_off_the_step_grid(tmp_path, t_end, step):
    scn = tmp_path / "bad.scn"
    scn.write_text(_with_horizon(PASS_SCN, t_end, step))
    with pytest.raises(DomainError):
        run_file(scn, out_dir=str(tmp_path / "o"))


def test_bad_horizons_fail_alone_in_a_batch(tmp_path, pass_file):
    # each bad file gets a one-line error and the good one still reports
    paths = [str(pass_file)]
    for name, (t_end, step) in zip(("inf", "short"), (BAD_HORIZONS[0], BAD_HORIZONS[2])):
        p = tmp_path / f"{name}.scn"
        p.write_text(_with_horizon(PASS_SCN, t_end, step))
        paths.append(str(p))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", *paths,
                     "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "scenario cli-pass" in proc.stdout and ": ok" in proc.stdout
    errors = proc.stderr.strip().splitlines()
    assert len(errors) == 2
    assert errors[0].startswith(f"scenario {paths[1]}: error:")
    assert errors[1].startswith(f"scenario {paths[2]}: error:")


def test_oversized_sample_grid_fails_alone_in_a_batch(tmp_path, pass_file):
    # 10^15 + 1 sample times would need 7 PiB, and their 10^15 steps are
    # refused first; 5*10^6 steps pass the step cap and their samples are
    # refused before allocating; the files around them still report
    huge = tmp_path / "huge.scn"
    huge.write_text(_with_horizon(PASS_SCN, "1e15", "1.0"))
    many = tmp_path / "many.scn"
    many.write_text(_with_horizon(PASS_SCN, "5e6", "1.0"))
    ok2 = tmp_path / "ok2.scn"
    ok2.write_text(PASS_SCN.replace("cli-pass", "cli-second")
                   .replace("pass.csv", "second.csv").replace("pass.svg", "second.svg"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(pass_file), str(huge),
                     str(many), str(ok2), "--no-check", "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = proc.stderr.strip().splitlines()
    assert len(errors) == 2
    assert errors[0].startswith(f"scenario {huge}: error:") and "steps" in errors[0]
    assert errors[1].startswith(f"scenario {many}: error:") and "samples" in errors[1]
    assert "scenario cli-pass" in proc.stdout and "scenario cli-second" in proc.stdout
    assert proc.stdout.count(": ok") == 2


def test_ignored_sample_stride_fails_alone_in_a_batch(tmp_path, pass_file):
    # a closed-form kind samples every step; sample_stride = 10 used to be
    # ignored without a word and write all 101 rows
    bad = tmp_path / "stride.scn"
    bad.write_text(PASS_SCN.replace("step = 0.001", "step = 0.01\nsample_stride = 10"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(bad), str(pass_file),
                     "--no-check", "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = proc.stderr.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"scenario {bad}: error:")
    assert "sample_stride" in errors[0] and "set step instead" in errors[0]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_non_finite_parameter_fails_alone_in_a_batch(tmp_path, pass_file):
    # nbar = nan used to run as the vacuum field and report ok
    text = resources.files("qdsim").joinpath("scenarios", "jc_collapse_blocks.scn").read_text()
    line_no = text.splitlines().index("nbar = 4.0") + 1
    bad = tmp_path / "nan.scn"
    bad.write_text(text.replace("nbar = 4.0", "nbar = nan"))
    ok2 = tmp_path / "ok2.scn"
    ok2.write_text(PASS_SCN.replace("cli-pass", "cli-second")
                   .replace("pass.csv", "second.csv").replace("pass.svg", "second.svg"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(pass_file), str(bad),
                     str(ok2), "--no-check", "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = proc.stderr.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"scenario {bad}: error: line {line_no}, column 7:")
    assert "scenario cli-pass" in proc.stdout and "scenario cli-second" in proc.stdout
    assert proc.stdout.count(": ok") == 2


@pytest.mark.parametrize("mode", ["msw", "damping"])
def test_overflowing_neutrino_run_exits_one_with_one_line(tmp_path, mode):
    # v_scale = 1e300 overflows the first step; numpy-scalar arithmetic
    # used to print RuntimeWarnings on stderr around the error line
    text = resources.files("qdsim").joinpath("scenarios", "neutrino_msw_10mev.scn").read_text()
    bad = tmp_path / "overflow.scn"
    bad.write_text(text.replace("mode = msw", f"mode = {mode}")
                   .replace("v_scale = 8.019782651241507e-05", "v_scale = 1e300")
                   .replace("t_end = 1391400.0", "t_end = 10.0"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(bad), "--no-check",
                     "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert proc.stdout == ""
    errors = proc.stderr.strip().splitlines()
    assert errors == [f"scenario {bad}: error: amplitude norm left (0, 2) (at t=1.0)"]


# rates far past RK4's stability limit at these steps: the state
# overflows between two samples, and the stepper used to print numpy
# RuntimeWarnings (or, for bmt, store NaN and fail later on an
# unrelated error) instead of naming the sample
OVERFLOW_SCNS = {
    "gksl-ode": """\
[scenario]
kind = gksl-ode
name = overflow-gksl

[qubit]
omega = (0.0, 0.0, 1.0)
g = (1e3, 0.0, 0.0)
xi = (0.0, 0.0, 1.0)

[integrator]
t_end = 100.0
step = 0.1
sample_stride = 1000

[output]
csv = gksl.csv
""",
    "inverted-morse": """\
[scenario]
kind = gksl-ode
name = overflow-morse

[qubit]
omega = (0.0, 0.0, 1.0)
g = (1.0, 0.0, 0.0)
g_profile = inverted-morse
q = 1e4
nu = 0.0005
xi = (0.0, 0.0, 1.0)

[integrator]
t_end = 100.0
step = 0.1
sample_stride = 1000

[output]
csv = morse.csv
""",
    "bmt": """\
[scenario]
kind = bmt
name = overflow-bmt

[bmt]
e = (1e3, 0.0, 0.0)
b = (0.0, 0.0, 0.05)
xi = (0.0, 0.0, 1.0)

[integrator]
t_end = 10.0
step = 0.01
sample_stride = 1000

[output]
csv = bmt.csv
""",
}


@pytest.mark.parametrize("check", ["--check", "--no-check"])
@pytest.mark.parametrize("kind, t_end", [("gksl-ode", 100.0), ("inverted-morse", 100.0),
                                         ("bmt", 10.0)])
def test_overflowing_stepper_exits_one_with_one_line(tmp_path, kind, t_end, check):
    bad = tmp_path / "overflow.scn"
    bad.write_text(OVERFLOW_SCNS[kind])
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(bad), check,
                     "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert proc.stdout == ""
    errors = proc.stderr.strip().splitlines()
    assert errors == [f"scenario {bad}: error: state has non-finite entries (at t={t_end})"]


def _shipped(stem):
    return resources.files("qdsim").joinpath("scenarios", f"{stem}.scn").read_text()


# one shipped file per kind
KIND_STEMS = {
    "qubit-closed-form": "damped_rabi_w6_g4",
    "gksl-ode": "instability_morse",
    "single-lindblad": "lindblad_entropy_plateau",
    "jaynes-cummings": "jc_collapse_blocks",
    "bmt": "bmt_spin_damping_a",
    "neutrino": "neutrino_msw_10mev",
}


def _with_integrator_key(text, key, value):
    """text with [integrator] key set to value, added if absent."""
    lines = [l for l in text.splitlines() if not l.startswith(f"{key} =")]
    at = lines.index("[integrator]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


def _batch_errors(tmp_path, paths, *flags):
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", *map(str, paths), "--no-check",
                     "--out-dir", str(tmp_path / "o"), *flags])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc, proc.stderr.strip().splitlines()


@pytest.mark.parametrize("stride", ["0", "-5"])
def test_a_stride_below_one_fails_alike_for_every_stepping_kind(tmp_path, pass_file, stride):
    # at -5 the bmt and neutrino runs used to fall back to their automatic stride
    bad = []
    for kind in ("gksl-ode", "bmt", "neutrino"):
        p = tmp_path / f"{kind}.scn"
        p.write_text(_with_integrator_key(_shipped(KIND_STEMS[kind]), "sample_stride", stride))
        bad.append(p)
    proc, errors = _batch_errors(tmp_path, [*bad, pass_file])
    assert errors == [f"scenario {p}: error: sample_stride must be at least 1, got {stride}"
                      for p in bad]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_a_zero_horizon_fails_alike_for_every_kind(tmp_path, pass_file):
    # in the file or from --t-end; the kinds used to fail five different
    # ways, or write a one-row CSV
    bad = []
    for kind, stem in KIND_STEMS.items():
        p = tmp_path / f"{stem}.scn"
        p.write_text(_with_integrator_key(_shipped(stem), "t_end", "0"))
        bad.append(p)
    proc, errors = _batch_errors(tmp_path, [*bad, pass_file])
    want = "error: a scenario needs a positive t_end, got 0.0"
    assert errors == [f"scenario {p}: {want}" for p in bad]
    assert "scenario cli-pass" in proc.stdout
    shipped = [resources.files("qdsim").joinpath("scenarios", f"{stem}.scn")
               for stem in KIND_STEMS.values()]
    proc, errors = _batch_errors(tmp_path, shipped, "--t-end", "0")
    assert errors == [f"scenario {p}: {want}" for p in shipped]
    assert proc.stdout == ""


def test_oversized_jc_block_count_fails_alone_in_a_batch(tmp_path, pass_file):
    # n_max = 10^13 used to end the batch in numpy's allocation traceback
    bad = tmp_path / "jc.scn"
    bad.write_text(_shipped("jc_collapse_blocks").replace("n_max = 16", "n_max = 10000000000000"))
    proc, errors = _batch_errors(tmp_path, [pass_file, bad])
    assert len(errors) == 1
    assert errors[0].startswith(f"scenario {bad}: error: n_max = 10000000000000")
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_a_mass_out_of_double_range_fails_alone_in_a_batch(tmp_path, pass_file):
    # (mass * c)^2 at 1e200 used to raise OverflowError and end the batch
    # in a traceback; at 1e-200 it underflows to 0, a later divisor
    bad = []
    for mass in ("1e200", "1e-200"):
        p = tmp_path / f"bmt_{mass}.scn"
        p.write_text(_shipped("bmt_spin_damping_a").replace("[bmt]\n", f"[bmt]\nmass = {mass}\n"))
        bad.append(p)
    proc, errors = _batch_errors(tmp_path, [bad[0], pass_file, bad[1]])
    assert errors == [f"scenario {p}: error: (mass*c)^2 = {v} is not a positive finite double"
                      for p, v in zip(bad, ("inf", "0.0"))]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


@pytest.mark.parametrize("rate", ["1e155", "1e160", "1e300"])
def test_qubit_rates_whose_squares_overflow_are_refused(tmp_path, pass_file, rate):
    # g.g = inf made c2 = inf - inf: every CSV row was nan, and the run exited 0
    bad = tmp_path / "rates.scn"
    bad.write_text(PASS_SCN.replace("(0.0, 0.0, 6.0)", f"(0.0, 0.0, {rate})")
                   .replace("(4.0, 0.0, 0.0)", f"({rate}, 0.0, 0.0)"))
    proc, errors = _batch_errors(tmp_path, [bad, pass_file])
    assert len(errors) == 1
    assert errors[0].startswith(f"scenario {bad}: error: |g|^2 + |omega|^2 = inf overflows")
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


# a parabolic generator (|g| = |omega|, g perpendicular to omega) at a
# coarse step. Its RK4 samples are exactly Hermitian, since evolve writes
# each conjugate pair from the same two real coordinates; they once
# drifted by up to 5.3e-10, beyond a fresh density matrix's tolerance, so
# the run pins that samples are read as they are
PARABOLIC_SCN = """\
[scenario]
kind = gksl-ode
name = parabolic-drift

[qubit]
omega = (0.12892142156148317, -1.0162355420775455, 0.7479898281952927)
g = (1.0464962200814387, -0.33399432977934856, -0.6341432346348927)
xi = (0.0, 0.0, 1.0)

[integrator]
t_end = 2000.0
step = 0.5
sample_stride = 400

[output]
csv = fast.csv
"""


@pytest.mark.parametrize("check", [False, True])
def test_samples_within_the_stepper_guard_are_read_as_they_are(tmp_path, check):
    scn = tmp_path / "fast.scn"
    scn.write_text(PARABOLIC_SCN)
    times, cols, report = run_file(scn, out_dir=str(tmp_path), check=check)
    assert times[-1] == 2000.0 and len(times) == 11
    assert set(cols) == {"n1", "n2", "n3", "purity", "entropy", "g_norm"}
    assert (tmp_path / "fast.csv").exists()
    assert report.all_passed
    assert [c.name for c in report.checks] == (
        ["closed-form-vs-ode", "generator-consistency"] if check else [])


def test_the_rk4_oracle_comparison_reads_drifted_samples():
    scn = parse_scenario(PARABOLIC_SCN)
    p, icfg = scn.parameters, dict(scn.integrator)
    params = QubitGeneratorParams(p["omega"], p["g"])
    traj = evolve(params.generator(), bloch_to_density(p["xi"]),
                  IntegratorConfig(icfg["t_end"], icfg["step"], icfg["sample_stride"]))
    result = _closed_vs_ode("closed-form-vs-ode",
                            lambda t: bloch_trajectory_general(params, p["xi"], t), traj)
    assert isinstance(result, CheckResult) and result.passed


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the size asked for and
    runs the tasks in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_jobs_never_exceed_files_or_cores(tmp_path, pass_file, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "sizes", [])
    ok2 = tmp_path / "ok2.scn"
    ok2.write_text(PASS_SCN.replace("pass.csv", "second.csv").replace("pass.svg", "second.svg"))
    argv = ["run", str(pass_file), str(ok2), "--no-check", "--out-dir", str(tmp_path / "o"),
            "--jobs", "5000"]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main(argv) == 0
    assert _PoolRecorder.sizes == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(argv) == 0
    assert main(argv[:2] + argv[3:]) == 0
    assert _PoolRecorder.sizes == [2]  # one core or one file: no pool at all


def test_log_axis_drop_is_a_report_note(tmp_path):
    scn = tmp_path / "log.scn"
    scn.write_text(PASS_SCN + "log_x = true\n")
    out_dir = tmp_path / "o"
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(scn), "--no-check",
                     "--out-dir", str(out_dir)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert f"note: {out_dir / 'pass.svg'}: 1 sample(s) with t <= 0 left off the log axis" \
        in proc.stdout


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg"])
def test_import_leaves_scipy_stats_out(module):
    # each costs a large part of the import time every run pays
    proc = _run_cli([sys.executable, "-c",
                     f"import sys, qdsim.cli; print({module!r} in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed(tmp_path, pass_file, fail_file):
    # the `qdsim` command an install generates, checked from the declaration
    # itself so that it also runs where the package is not installed
    target = _declared_scripts()["qdsim"]
    assert pkgutil.resolve_name(target) is main
    module, func = target.split(":")
    wrapper = [sys.executable, "-c",
               f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'qdsim'; sys.exit({func}())"]
    as_module = [sys.executable, "-m", "qdsim.cli"]
    for cmd in (wrapper, as_module):
        out_dir = str(tmp_path / "o")
        proc = _run_cli(cmd + ["run", str(pass_file), "--out-dir", out_dir, "--no-check"])
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        # the process exit status, not just main()'s return value, carries
        # the check-failure code
        proc = _run_cli(cmd + ["run", str(fail_file), "--out-dir", out_dir])
        assert proc.returncode == 2, proc.stderr
        assert "CHECK FAILURE" in proc.stdout


@pytest.mark.skipif(not _installed("qdsim"),
                    reason="qdsim distribution is not installed, so no qdsim executable")
def test_installed_executable_runs(tmp_path, pass_file):
    exe = (shutil.which("qdsim", path=sysconfig.get_path("scripts"))
           or shutil.which("qdsim"))
    assert exe is not None, "qdsim is installed but no qdsim executable was found"
    proc = _run_cli([exe, "run", str(pass_file), "--out-dir", str(tmp_path / "o"),
                     "--no-check"])
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


def test_a_mass_whose_boost_overflows_fails_the_checked_run_in_one_line(tmp_path, pass_file):
    # at mass 1e154 the from-rest check's boost overflowed 2 mc (p0 + mc):
    # three RuntimeWarnings, a nan violation and exit 2
    bad = tmp_path / "bmt_heavy.scn"
    text = _shipped("bmt_spin_damping_a").replace("[bmt]\n", "[bmt]\nmass = 1e154\n")
    bad.write_text(_with_integrator_key(text, "t_end", "10.0"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(bad), str(pass_file),
                     "--check", "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        f"scenario {bad}: error: mass*c = 1e+154 is too large for the boost: "
        "2 mc (p0 + mc) overflows a double"]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1

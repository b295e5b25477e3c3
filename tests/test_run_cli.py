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
from qdsim import cli, scenario
from qdsim.cli import main
from qdsim.errors import DomainError, IntegrationDivergedError
from qdsim.dynamics import (Generator, IntegratorConfig, evolve, evolve_lift,
                            qubit_rate_generator)
from qdsim.qubit import QubitGeneratorParams, bloch_trajectory_general
from qdsim.linalg import pauli_components
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


def test_a_constant_gain_run_is_the_lift_bit_for_bit_and_near_the_autonomous_rk4(tmp_path,
                                                                                  capsys):
    # the constant gain steps as a rate family of magnitude 1 on the raw g
    # (a unit direction scaled by |g| rounds apart from this g) through
    # the linear lift; the autonomous RK4 on the density coordinates is
    # another discretisation of the same flow, 7.4e-12 away at this step
    omega, g, xi = (0.3, -1.0, 6.0), (3.0, 0.5, -0.2), (0.1, 0.0, 0.5)
    p = tmp_path / "constant.scn"
    p.write_text(ODE_PASS_SCN.replace("(0.0, 0.0, 6.0)", str(omega))
                 .replace("(4.0, 0.0, 0.0)", str(g)).replace("(0.0, 0.0, 0.5)", str(xi))
                 .replace("step = 0.001\n", "step = 0.001\nsample_stride = 7\n"))
    assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "check closed-form-vs-ode" in out and "check generator-consistency" in out
    rows = (tmp_path / "o" / "ode_pass.csv").read_text().splitlines()
    assert rows[0].startswith("t,n1,n2,n3,")
    written = np.array([[float(v) for v in row.split(",")[1:4]] for row in rows[1:]])
    cfg = IntegratorConfig(1.0, 0.001, 7)
    family = qubit_rate_generator(omega, g, lambda t: 1.0)
    lift = evolve_lift(family, bloch_to_density(xi), cfg)
    assert np.array_equal(written, pauli_components(lift.states))
    traj = evolve(Generator.qubit(omega, g), bloch_to_density(xi), cfg)
    assert np.abs(written - pauli_components(traj.states)).max() <= 1e-10


def test_generator_consistency_says_when_no_pick_engaged(tmp_path):
    # rates of about 5e-6: even at the scaled fd step 1e-5 / ||G - iH||_F
    # every first-order residual (about 1.8e-11) lies under
    # TOL.generator_residual_floor, so the ratio tests nothing
    p = tmp_path / "ode_tiny.scn"
    p.write_text(ODE_PASS_SCN.replace("(0.0, 0.0, 6.0)", "(0.0, 0.0, 6e-6)")
                 .replace("(4.0, 0.0, 0.0)", "(4e-6, 0.0, 0.0)"))
    *_, report = run_file(p, out_dir=str(tmp_path / "t"))
    assert report.all_passed
    assert "generator-consistency" in [c.name for c in report.checks]
    assert ("generator-consistency: 0 of 8 picks above the residual floor 1e-09; "
            "ratio not tested") in report.notes
    # O(1) rates engage every pick at the unscaled step, so no such note
    p = tmp_path / "ode_pass.scn"
    p.write_text(ODE_PASS_SCN)
    *_, report = run_file(p, out_dir=str(tmp_path / "c"))
    assert report.all_passed
    assert not [n for n in report.notes if n.startswith("generator-consistency")]


def test_generator_consistency_engages_every_morse_pick(tmp_path):
    # the Morse rates are about 0.007 (||G - iH||_F about 0.005); the
    # scaled step lifts their residuals (6e-9 to 1.5e-8 here) above the
    # floor at all 8 picks
    text = resources.files("qdsim").joinpath("scenarios", "instability_morse.scn").read_text()
    *_, report = run(parse_scenario(text), out_dir=str(tmp_path / "m"), t_end=200.0)
    assert report.all_passed
    assert "generator-consistency" in [c.name for c in report.checks]
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


def _report(capsys, argv):
    """main's exit code and standard output, without the wall-time line."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if "done in" not in line]


def test_calls_in_a_row_report_as_if_each_ran_alone(tmp_path, fail_file, capsys):
    no_check = ["run", str(fail_file), "--no-check", "--out-dir", str(tmp_path / "a")]
    default = ["run", str(fail_file), "--out-dir", str(tmp_path / "b")]
    alone = []
    for argv in (no_check, default):
        cli._parser.cache_clear()
        alone.append(_report(capsys, argv))
    assert [code for code, _ in alone] == [0, 2]

    cli._parser.cache_clear()
    assert [_report(capsys, no_check), _report(capsys, default)] == alone
    parser = cli._parser()
    # a usage error on the shared parser still exits 1 and leaves it usable
    with pytest.raises(SystemExit) as err:
        main(["run", str(fail_file), "--jobs", "0"])
    assert err.value.code == 1
    capsys.readouterr()
    assert _report(capsys, no_check) == alone[0]
    assert cli._parser() is parser


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_file_that_is_not_utf8_fails_alone_in_one_line(tmp_path, pass_file, jobs):
    # it used to end the batch in a UnicodeDecodeError traceback
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff" + PASS_SCN.encode())
    proc, errors = _batch_errors(tmp_path, [bad, pass_file], "--jobs", jobs)
    assert errors == [f"scenario {bad}: error: line 1, column 1: not UTF-8 text: byte 0xff"]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1
    assert (tmp_path / "o" / "pass.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_later_file_naming_a_claimed_output_path_fails_alone(tmp_path, pass_file, jobs):
    # both used to report "wrote", the later run overwriting the earlier
    out = tmp_path / "o"
    (tmp_path / "link").symlink_to(out, target_is_directory=True)
    same = tmp_path / "same.scn"
    same.write_text(PASS_SCN.replace("cli-pass", "cli-same"))
    linked = tmp_path / "linked.scn"
    linked.write_text(PASS_SCN.replace("cli-pass", "cli-linked").replace("pass.csv", "own.csv")
                      .replace("svg = pass.svg", f"svg = {tmp_path / 'link' / 'pass.svg'}"))
    other = tmp_path / "other.scn"
    other.write_text(PASS_SCN.replace("cli-pass", "cli-other").replace("pass.", "other."))
    proc, errors = _batch_errors(tmp_path, [pass_file, same, linked, other], "--jobs", jobs)
    assert errors == [
        f"scenario {same}: error: output path {out / 'pass.csv'} is already named by {pass_file}",
        f"scenario {linked}: error: output path {tmp_path / 'link' / 'pass.svg'} is already "
        f"named by {pass_file}",
    ]
    assert proc.stdout.count(": ok") == 2
    assert "scenario cli-pass" in proc.stdout and "scenario cli-other" in proc.stdout
    assert "cli-pass" in (out / "pass.svg").read_text()
    assert not (out / "own.csv").exists()


def test_one_file_is_read_only_by_its_run_and_shipped_files_share_no_path(
        tmp_path, pass_file, monkeypatch):
    monkeypatch.setattr(cli, "read_scenario", None)  # the batch claim is never made
    assert main(["run", str(pass_file), "--no-check", "--out-dir", str(tmp_path / "o")]) == 0
    monkeypatch.undo()
    shipped = [(p, str(tmp_path / "f"), False, None, None) for p in cli._shipped_scenarios()]
    scenarios, refused = cli._shared_outputs(shipped)
    assert len(shipped) >= 14 and refused == {} and None not in scenarios


def test_a_batch_parses_each_file_once(tmp_path, pass_file, monkeypatch, capsys):
    # the batch claim parses each file; its run takes that Scenario
    other = tmp_path / "other.scn"
    other.write_text(PASS_SCN.replace("cli-pass", "cli-other").replace("pass.", "other."))
    parsed = []
    parse = scenario.parse_scenario
    monkeypatch.setattr(scenario, "parse_scenario", lambda text: parsed.append(1) or parse(text))
    assert main(["run", str(pass_file), str(other), "--no-check", "--jobs", "1",
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert len(parsed) == 2
    assert capsys.readouterr().out.count(": ok") == 2


def test_two_names_of_one_output_file_in_one_file_are_refused(tmp_path, capsys):
    # csv = real/x.out and svg = link/x.out with link -> real used to write
    # both and exit 0, real/x.out then holding the SVG
    out = tmp_path / "o"
    (out / "real").mkdir(parents=True)
    (out / "link").symlink_to(out / "real", target_is_directory=True)
    both = tmp_path / "both.scn"
    both.write_text(PASS_SCN.replace("pass.csv", "real/x.out").replace("pass.svg", "link/x.out"))
    assert main(["run", str(both), "--no-check", "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"scenario {both}: error: output paths {out / 'real' / 'x.out'} and "
        f"{out / 'link' / 'x.out'} name one file"]
    assert os.listdir(out / "real") == []


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
    # each file writes its own outputs, or the batch refuses the later ones
    huge = tmp_path / "huge.scn"
    huge.write_text(_with_horizon(PASS_SCN, "1e15", "1.0").replace("pass.", "huge."))
    many = tmp_path / "many.scn"
    many.write_text(_with_horizon(PASS_SCN, "5e6", "1.0").replace("pass.", "many."))
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


# rates far past the stability limit of RK4 at these steps: the bmt
# four-vectors overflow between two samples, and the stepper used to
# print numpy RuntimeWarnings (or store NaN and fail later on an
# unrelated error) instead of naming the sample. gksl-ode runs step the
# linear lift, whose products never overflow, so its guard refuses the
# first stiff step instead: h |lambda| = 50 (constant gain) and 500
# (Morse profile), where RK4 would let the decaying direction decay by
# 0.85 and 0.98 per step instead of e^-100 and e^-1000
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


OVERFLOW_ERRORS = {
    "gksl-ode": "stiff step: h times the spectral radius of M is 5.000e+01, past 1.3926 "
                "(half RK4's real stability interval) (at t=0.1)",
    "inverted-morse": "stiff step: h times the spectral radius of M is 5.000e+02, past 1.3926 "
                      "(half RK4's real stability interval) (at t=0.1)",
    "bmt": "state has non-finite entries (at t=10.0)",
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
    assert errors == [f"scenario {bad}: error: {OVERFLOW_ERRORS[kind]}"]
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def _overflow_text(kind, t_end, step, stride):
    return (OVERFLOW_SCNS[kind].replace("t_end = 100.0", f"t_end = {t_end}")
            .replace("step = 0.1", f"step = {step}")
            .replace("sample_stride = 1000", f"sample_stride = {stride}"))


@pytest.mark.parametrize("kind, step", [("gksl-ode", 0.002), ("inverted-morse", 0.0002)])
def test_a_stiff_gain_inside_the_lift_guard_follows_a_fine_step_at_every_sample(tmp_path,
                                                                                kind, step):
    # the gains above at a step with h |lambda| = 1.0, inside the guard's
    # 1.39: every one of the 501 samples, the decaying transient
    # included, lies within 1e-2 of a 20 times finer step (5.9e-3 at the
    # first sample, where the transient is largest, for both)
    _, coarse, _ = run(parse_scenario(_overflow_text(kind, 500 * step, step, 1)),
                       out_dir=str(tmp_path / "c"), check=False)
    _, fine, _ = run(parse_scenario(_overflow_text(kind, 500 * step, step / 20, 20)),
                     out_dir=str(tmp_path / "f"), check=False)
    assert coarse["n3"].shape == fine["n3"].shape == (501,)
    assert max(np.abs(coarse[c] - fine[c]).max() for c in ("n1", "n2", "n3")) <= 1e-2


def test_a_gksl_step_past_the_lift_guard_exits_one_with_one_line(tmp_path):
    # |omega| h / 2 = 4.7 rad per step lies past RK4's stability limit of
    # about 2.8 rad: the step stretches a vector by about 16 where the
    # flow allows exp(h |g| / 2) = 1.005; both guards refuse the first
    # step and the amplitude line is the one printed. At |omega| = 40
    # (2 rad per step) RK4 is stable and the amplitude guard passes, but
    # the step is stiff and refused, where evolve's density coordinates
    # overflow
    text = OVERFLOW_SCNS["gksl-ode"].replace("(1e3, 0.0, 0.0)", "(0.1, 0.0, 0.0)")
    lines = {
        "94.0": "amplitude norm left (0, 2) (at t=0.1)",
        "40.0": "stiff step: h times the spectral radius of M is 2.000e+00, past 1.3926 "
                "(half RK4's real stability interval) (at t=0.1)",
    }
    for omega, line in lines.items():
        bad = tmp_path / f"guard{omega}.scn"
        bad.write_text(text.replace("omega = (0.0, 0.0, 1.0)", f"omega = (0.0, 0.0, {omega})"))
        proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(bad), "--no-check",
                         "--out-dir", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [f"scenario {bad}: error: {line}"]
    with pytest.raises(IntegrationDivergedError, match="state has non-finite entries"):
        evolve(Generator.qubit((0.0, 0.0, 40.0), (0.1, 0.0, 0.0)),
               bloch_to_density((0.0, 0.0, 1.0)), IntegratorConfig(100.0, 0.1, 1000))


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
        p.write_text(_shipped("bmt_spin_damping_a").replace("[bmt]\n", f"[bmt]\nmass = {mass}\n")
                     .replace("bmt_spin_damping_a.", f"bmt_{mass}."))
        bad.append(p)
    proc, errors = _batch_errors(tmp_path, [bad[0], pass_file, bad[1]])
    assert errors == [f"scenario {p}: error: (mass*c)^2 = {v} is not a positive finite double"
                      for p, v in zip(bad, ("inf", "0.0"))]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_a_foreign_parameter_section_fails_alone_in_a_batch(tmp_path, pass_file):
    # a qubit file carrying [neutrino] with mode = bogus used to run and exit 0
    bad = tmp_path / "foreign.scn"
    bad.write_text(PASS_SCN + "\n[neutrino]\nenergy_gev = 0.01\nmode = bogus\n")
    proc, errors = _batch_errors(tmp_path, [bad, pass_file])
    assert errors == [f"scenario {bad}: error: section [neutrino] is not read by kind "
                      "qubit-closed-form"]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_a_morse_direction_of_any_size_runs_as_its_unit_vector(tmp_path, pass_file):
    # (1e200, 0, 0) used to normalise to a zero direction (no gain, exit 0),
    # 1e-160 to length 1.0000056, and 1e-200 was refused as zero
    text, shipped_g = _shipped("instability_morse"), "g = (0.4330127018922193, -0.75, -0.5)"
    assert shipped_g in text
    written = {}
    for g in ("1.0", "1e200", "1e-160", "1e-200"):
        p = tmp_path / f"morse_{g}.scn"
        p.write_text(text.replace(shipped_g, f"g = ({g}, 0.0, 0.0)"))
        run_file(p, out_dir=str(tmp_path / g), check=False, t_end=500.0)
        written[g] = (tmp_path / g / "instability_morse.csv").read_bytes()
    assert all(csv == written["1.0"] for csv in written.values())
    zero = tmp_path / "morse_zero.scn"
    zero.write_text(text.replace(shipped_g, "g = (0.0, 0.0, 0.0)"))
    proc, errors = _batch_errors(tmp_path, [zero, pass_file])
    assert errors == [f"scenario {zero}: error: profile direction g must be nonzero"]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


@pytest.mark.parametrize("stem, old, new, kind", [
    # exit 0 with nan and inf in mean_energy and four warning lines
    ("jc_collapse_blocks", "omega_f = 1.0", "omega_f = 1e308", "jaynes-cummings"),
    # a bare OverflowError from l ** 2 and a 32-line traceback
    ("lindblad_entropy_plateau", "l = 2.5", "l = 1e200", None),
    # numpy warnings on eight stderr lines before the error line
    ("tilted_attractor_purification", "omega = (0.0, 0.0, 2.0)", "omega = (0.0, 0.0, 1e100)",
     "qubit-closed-form"),
])
def test_an_overflowing_value_fails_alone_in_one_line(tmp_path, pass_file, stem, old, new, kind):
    bad = tmp_path / f"{stem}.scn"
    bad.write_text(_shipped(stem).replace(old, new))
    proc, errors = _batch_errors(tmp_path, [bad, pass_file], "--check")
    want = (f"{kind} run left the double range: overflow encountered in" if kind else
            "2g and l^2 overflow; rates must stay below about 1e154")
    assert len(errors) == 1 and errors[0].startswith(f"scenario {bad}: error: {want}")
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


def test_an_overflowing_bmt_field_fails_at_the_guard_with_its_time(tmp_path, pass_file):
    # the RK4 step of the field overflows; the first sample's guard names
    # its time, where the run boundary once named only a numpy overflow
    bad = tmp_path / "bmt_spin_damping_b.scn"
    bad.write_text(_shipped("bmt_spin_damping_b").replace("e = (0.0, 0.0, -0.001)",
                                                           "e = (0.0, 0.0, 1e100)"))
    proc, errors = _batch_errors(tmp_path, [bad, pass_file], "--check")
    assert errors == [f"scenario {bad}: error: state has non-finite entries (at t=1.5)"]
    assert "scenario cli-pass" in proc.stdout and proc.stdout.count(": ok") == 1


@pytest.mark.parametrize("rate", ["1e155", "1e160", "1e300"])
def test_qubit_rates_whose_squares_overflow_are_refused(tmp_path, pass_file, rate):
    # g.g = inf made c2 = inf - inf: every CSV row was nan, and the run exited 0
    bad = tmp_path / "rates.scn"
    bad.write_text(PASS_SCN.replace("(0.0, 0.0, 6.0)", f"(0.0, 0.0, {rate})")
                   .replace("(4.0, 0.0, 0.0)", f"({rate}, 0.0, 0.0)").replace("pass.", "rates."))
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

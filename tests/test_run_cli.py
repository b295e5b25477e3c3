import importlib.metadata
import os
import pkgutil
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import qdsim
from qdsim.cli import main
from qdsim.errors import DomainError
from qdsim.run import _qubit_columns, run_file
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
    traj, report = run_file(pass_file, out_dir=str(out))
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
    assert traj.times[-1] == pytest.approx(1.0)


def test_run_file_is_deterministic(tmp_path, pass_file):
    a, b = tmp_path / "a", tmp_path / "b"
    run_file(pass_file, out_dir=str(a), check=False)
    run_file(pass_file, out_dir=str(b), check=False)
    assert (a / "pass.csv").read_bytes() == (b / "pass.csv").read_bytes()
    assert (a / "pass.svg").read_bytes() == (b / "pass.svg").read_bytes()


def test_run_file_overrides(tmp_path, pass_file):
    traj, _ = run_file(pass_file, out_dir=str(tmp_path / "o"), check=False,
                       step=0.01, t_end=0.5)
    assert traj.times[-1] == pytest.approx(0.5)
    assert traj.times[1] - traj.times[0] == pytest.approx(0.01)


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


BAD_HORIZONS = [("inf", "0.001"), ("nan", "0.001"), ("1.0", "0.3")]


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
    # 10^15 + 1 sample times would need 7 PiB; the cap rejects the file
    # before allocating and the files around it still report
    huge = tmp_path / "huge.scn"
    huge.write_text(_with_horizon(PASS_SCN, "1e15", "1.0"))
    ok2 = tmp_path / "ok2.scn"
    ok2.write_text(PASS_SCN.replace("cli-pass", "cli-second")
                   .replace("pass.csv", "second.csv").replace("pass.svg", "second.svg"))
    proc = _run_cli([sys.executable, "-m", "qdsim.cli", "run", str(pass_file), str(huge),
                     str(ok2), "--no-check", "--out-dir", str(tmp_path / "o")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = proc.stderr.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"scenario {huge}: error:") and "samples" in errors[0]
    assert "scenario cli-pass" in proc.stdout and "scenario cli-second" in proc.stdout
    assert proc.stdout.count(": ok") == 2


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


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs over a second of import time, paid by every run
    proc = _run_cli([sys.executable, "-c",
                     "import sys, qdsim; print('scipy.stats' in sys.modules)"])
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

"""The scripts under scripts/ run to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    (["asymptote_atlas.py", "--draws", "50"],
     "class               count   share   rate min   median      max  mean |n_inf|"),
    (["instability_sweep.py", "--q", "0.007", "--nu", "0.0005"],
     "# onset time where |g(t)| = 0.003"),
    (["neutrino_energy_scan.py", "--energies", "0.01"],
     "   E [GeV]  L_crossing [km]   L_onset [km]"),
]


@pytest.mark.parametrize("args, header", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs_and_prints_its_header(args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header

"""qdsim benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: closed-form-figures, long-horizon-stepping, ensemble (see
perfbench/README.md). With ``--trace 0`` it prints the end-to-end metrics
setup_s, wall_s, nocheck_wall_s and peak_rss_mb; with ``--trace 1`` the
per-layer metrics of one traced pass and trace.overhead_s. The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. Exit status 0 means a result was printed; any other status means
the benchmark itself could not run (no result line).

Set-up time is taken in three fresh interpreters: two that only set up and
the one that then measures; setup_s is their median.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed-form-figures", "long-horizon-stepping", "ensemble")
DEFAULT_SEED = 2026
SETUP_PROBES = 2
READY_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "nocheck_wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _spawn(args, timeout: float):
    """Start a worker; returns (seconds until its ``ready`` line, its last
    output line). The child is always waited for."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError("worker did not finish set-up")
        out, _ = proc.communicate(timeout=timeout)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise BenchError(f"{' '.join(args)}: {exc}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: worker exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = HERE / "out" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(base + ["--setup-only"], READY_TIMEOUT_S)[0])
    setup_s, last = _spawn(base, seconds + 120.0)
    setups.append(setup_s)
    result = json.loads(last)
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "nocheck_wall_s": result["nocheck_wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "qdsim" / "__init__.py").is_file():
        print(f"perfbench: no qdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"attempted {out['attempted']}, failed {out['failed']}, correct {out['correct']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

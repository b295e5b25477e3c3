"""qdsim command line.

    qdsim run <scenario-file>... [--out-dir D] [--step S] [--t-end T]
              [--check/--no-check] [--jobs N]
    qdsim figures [--out-dir D] [--jobs N] [--check/--no-check]

Exit codes: 0 all checks passed, 2 at least one check failed, 1 parse,
usage, or runtime error. 'figures' re-runs every scenario shipped with
the package. Independent scenario files may run in parallel workers
(--jobs N starts at most N, and never more than there are files or CPU
cores); they never share output paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

from .errors import QdsimError
from .run import run_file


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # check failures, so usage problems map to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _execute(task):
    """Worker body: returns (exit_code, text). Picklable for --jobs."""
    path, out_dir, check, step, t_end = task
    try:
        *_, report = run_file(path, out_dir=out_dir, check=check, step=step, t_end=t_end)
    except QdsimError as exc:
        return 1, f"scenario {path}: error: {exc}"
    except OSError as exc:
        return 1, f"scenario {path}: i/o error: {exc}"
    code = 0 if report.all_passed else 2
    return code, "\n".join(report.lines())


def _run_batch(tasks, jobs: int) -> int:
    # a fork pool starts all its workers at the first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, tasks))
    else:
        results = [_execute(t) for t in tasks]
    for code, text in results:
        print(text, file=sys.stderr if code == 1 else sys.stdout)
    # usage/parse errors (1) outrank check failures (2)
    return max((code for code, _ in results), key=(0, 2, 1).index, default=0)


def _shipped_scenarios():
    root = resources.files("qdsim").joinpath("scenarios")
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".scn"))


def main(argv=None) -> int:
    parser = _Parser(prog="qdsim", description="quasi-linear quantum dynamics runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[], help="run scenario files")
    run_p.add_argument("scenarios", nargs="+", metavar="scenario-file")
    run_p.add_argument("--out-dir", default=".")
    run_p.add_argument("--step", type=float, default=None,
                       help="override the [integrator] step")
    run_p.add_argument("--t-end", type=float, default=None,
                       help="override the [integrator] horizon")
    run_p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                       help="run the scenario's oracle cross-checks")
    run_p.add_argument("--jobs", type=int, default=1)

    fig_p = sub.add_parser("figures", help="regenerate all shipped figure scenarios")
    fig_p.add_argument("--out-dir", default="figures")
    fig_p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True)
    fig_p.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.command == "run":
        tasks = [(p, args.out_dir, args.check, args.step, args.t_end)
                 for p in args.scenarios]
        return _run_batch(tasks, args.jobs)
    if args.command == "figures":
        paths = _shipped_scenarios()
        if not paths:
            print("no shipped scenarios found", file=sys.stderr)
            return 1
        tasks = [(p, args.out_dir, args.check, None, None) for p in paths]
        return _run_batch(tasks, args.jobs)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

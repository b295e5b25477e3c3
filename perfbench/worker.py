"""One fresh benchmark process: set up a workload, then measure it.

Prints ``ready`` once qdsim is imported and the workload's inputs are
parsed or generated (``run.py`` times set-up up to that line), then, unless
``--setup-only``, runs whole rounds of passes for ``--seconds`` and prints
one JSON line with the timings, operation counts and peak memory.

Untraced (``--trace 0``): each round is one pass with qdsim's checks on and
one with them off, in alternating order. Traced (``--trace 1``): untraced
checked passes for half the time, then one checked pass under the span
tracer, whose spans are written to ``<workdir>/spans.tsv``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import bench_checks as bc
from bench_spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops, tracer=None):
    """Run every operation once; returns (seconds, attempted, failures, wrong).

    Only the operations are timed; their outputs are verified afterwards.
    ``wrong`` counts operations that completed but failed a check.
    """
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            if tracer is None:
                results.append((op, op.run(), None))
            else:
                with tracer.span("op." + op.name):
                    results.append((op, op.run(), None))
        except Exception as exc:  # an operation that raises counts as failed
            results.append((op, None, exc))
    seconds = time.perf_counter() - start
    failures = wrong = 0
    for op, result, exc in results:
        if exc is None:
            try:
                op.verify(result)
                continue
            except Exception as err:  # a check that cannot read the output fails it too
                wrong += 1
                exc = err
        failures += 1
        detail = (traceback.format_exception_only if isinstance(exc, bc.CheckFailure)
                  else traceback.format_exception)(exc)
        print(f"perfbench: {op.name} failed: " + "".join(detail).strip(), file=sys.stderr)
    return seconds, len(ops), failures, wrong


def _rounds(workload, seconds: float) -> dict:
    wall, nocheck, round_s = [], [], []
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + seconds
    while True:
        begin = time.perf_counter()
        order = (True, False) if len(round_s) % 2 == 0 else (False, True)
        for check in order:
            sec, n, f, w = run_pass(workload.ops(check))
            (wall if check else nocheck).append(sec)
            attempted, failed, wrong = attempted + n, failed + f, wrong + w
        round_s.append(time.perf_counter() - begin)
        if time.perf_counter() + statistics.median(round_s) > deadline:
            break
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "wall_s": statistics.median(wall), "nocheck_wall_s": statistics.median(nocheck),
    }


def _traced(workload, seconds: float, spans_path: Path) -> dict:
    untraced = []
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + seconds / 2.0
    while True:
        sec, n, f, w = run_pass(workload.ops(True))
        untraced.append(sec)
        attempted, failed, wrong = attempted + n, failed + f, wrong + w
        if time.perf_counter() + statistics.median(untraced) > deadline:
            break
    tracer = Tracer()
    tracer.install()
    try:
        sec, n, f, w = run_pass(workload.ops(True), tracer)
    finally:
        tracer.uninstall()
    attempted, failed, wrong = attempted + n, failed + f, wrong + w
    tracer.write(spans_path)
    metrics = tracer.layer_metrics(sec - statistics.median(untraced))
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "layers": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads

    workload = bench_workloads.make(args.workload, args.seed, ROOT, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = _traced(workload, args.seconds, args.workdir / "spans.tsv")
    else:
        result = _rounds(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The guard's end-to-end benchmark: one workload, one run, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload guard_solubility --seed 2024 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
whose ``metrics`` are the end-to-end metrics measured with tracing off;
with ``--trace 1`` they are the per-layer metrics of a traced run, whose
stage tables are printed above it.  The line before the result is the
run record (stamps, sample counts, tail percentile, load-generator
accounting).  The exit code is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # Services are stopped with SIGINT, their clean shutdown.  A launcher
    # that started this process with SIGINT ignored would pass that on to
    # them; a handled signal is reset to its default in a child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(ROOT / ".perfbench" / "tmp")

    from perfbench import measure, workloads

    try:
        run = workloads.WORKLOADS[args.workload]
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    finally:
        measure.HELPER.stop()

    units = measure.metric_units("per_layer" if args.trace else "end_to_end")
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(outcome.metrics) ^ set(units))}")
    for table in outcome.stage_tables:
        print(table)
    record = {
        "record": "perfbench",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **measure.stamp(args.seed),
        "problems": outcome.problems,
        **outcome.record,
    }
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Traced guard service: install the span wrappers, then run the stock CLI.

Usage: ``python -m perfbench.serve_launcher <trace-dir> <seed> <serve args...>``
runs ``python -m repro serve <serve args...>`` in this process with the
benchmark's wrappers installed, plus one more layer, ``serve.loop.idle``,
for the time the event loop blocks waiting for I/O.  Forked shard workers
inherit the wrappers; each starts a fresh traced window and, like the
parent on SIGINT, writes its aggregates (``<name>.snapshot.json``) and
spans (``<name>.spans.jsonl``) to *trace-dir* when it exits.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from perfbench.layers import OBSERVERS, TARGETS
from perfbench.measure import stamp
from perfbench.tracer import Target, Tracer, install

IDLE = Target("selectors:EpollSelector.select", "serve.loop.idle")


def _dump(tracer: Tracer, trace_dir: Path, name: str, seed: int) -> None:
    tracer.stop()
    header = {"process": name, "pid": os.getpid(), **stamp(seed)}
    tracer.write_spans(str(trace_dir / f"{name}.spans.jsonl"), header)
    (trace_dir / f"{name}.snapshot.json").write_text(
        json.dumps({**header, **tracer.snapshot()}), encoding="utf-8"
    )


def main(argv: list) -> int:
    trace_dir, seed, serve_args = Path(argv[0]), int(argv[1]), list(argv[2:])
    trace_dir.mkdir(parents=True, exist_ok=True)

    import repro.cli
    import repro.serve.shard.supervisor as supervisor

    tracer = Tracer()
    original_entry = supervisor.worker_entry

    def traced_worker_entry(index: int, *args: object) -> None:
        tracer.reset()
        try:
            original_entry(index, *args)
        finally:
            _dump(tracer, trace_dir, f"worker{index}", seed)

    supervisor.worker_entry = traced_worker_entry
    installation = install(tracer, (*TARGETS, IDLE), observers=OBSERVERS)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        installation.restore()
        supervisor.worker_entry = original_entry
        _dump(tracer, trace_dir, "server", seed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

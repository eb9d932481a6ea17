"""End-to-end single-core throughput, as absolute numbers.

The kernel benchmarks gate fast paths against in-repo references; this
one records what a user of the reproduction waits for, on one core:

- **mutants/s** of a one-worker Monte Carlo sweep (8 mutants, seed 2024).
  Every mutant runs the arm model twice — unmonitored for ground truth,
  then under modified RABIT — so IK restarts and ground-truth contact
  physics dominate;
- **guarded commands/s** of the solubility preset's device-command stream
  replayed sequentially through ``Rabit.guard`` on a fresh ``hein`` deck
  with zero modeled I/O (:func:`repro.serve.journal.run_inprocess_journal`,
  the in-process reference the service journal is checked against).

Both land in ``trend.jsonl`` stamped with the CPU count;
``trend_baseline.json`` floors them at half the values measured on a
2-core box, so the trend gate catches a collapse, not runner jitter.
"""

import os
import time
from typing import Any, Dict, List

from repro.analysis.report import format_table
from repro.faults.montecarlo import run_monte_carlo
from repro.serve.journal import run_inprocess_journal
from repro.workflow.context import build_context
from repro.workflow.executor import execute_dag
from repro.workflow.presets import build_preset

MC_SAMPLES = 8
MC_SEED = 2024
SOLUBILITY_PASSES = 8


class _Recorder:
    """Forwards device calls to a workflow proxy, logging each command."""

    def __init__(self, proxy: Any, name: str, log: List[Dict[str, Any]]) -> None:
        self._proxy, self._name, self._log = proxy, name, log

    def __getattr__(self, method: str) -> Any:
        target = getattr(self._proxy, method)
        if not callable(target):
            return target

        def call(*args: Any, **kwargs: Any) -> Any:
            self._log.append({"device": self._name, "method": method,
                              "args": list(args), "kwargs": dict(kwargs)})
            return target(*args, **kwargs)

        return call


def solubility_stream() -> List[Dict[str, Any]]:
    """The device commands the default solubility preset issues."""
    ctx = build_context("hein", monitored=False)
    log: List[Dict[str, Any]] = []
    ctx.proxies = {name: _Recorder(p, name, log) for name, p in ctx.proxies.items()}
    assert execute_dag(build_preset("solubility", {}), ctx).completed
    return log


def test_e2e_throughput(emit, trend):
    run_monte_carlo(samples=1, seed=MC_SEED, workers=1)  # imports, deck caches
    t0 = time.perf_counter()
    report = run_monte_carlo(samples=MC_SAMPLES, seed=MC_SEED, workers=1)
    mc_s = time.perf_counter() - t0
    assert len(report.outcomes) == MC_SAMPLES
    assert not any("harness_error" in o.damage_kinds for o in report.outcomes)
    mutants_per_s = MC_SAMPLES / mc_s

    stream = solubility_stream()
    journal = run_inprocess_journal("hein", stream)  # warm-up pass
    assert journal and not any(entry["alert"] for entry in journal)
    t0 = time.perf_counter()
    for _ in range(SOLUBILITY_PASSES):
        run_inprocess_journal("hein", stream)
    guard_s = time.perf_counter() - t0
    cmds_per_s = SOLUBILITY_PASSES * len(journal) / guard_s

    cpus = os.cpu_count() or 1
    emit("e2e_throughput", format_table(
        ["workload", "units", "wall time", "throughput"],
        [
            [f"Monte Carlo sweep (seed {MC_SEED}, 1 worker)",
             f"{MC_SAMPLES} mutants", f"{mc_s:.2f} s", f"{mutants_per_s:.2f} mutants/s"],
            [f"solubility stream x{SOLUBILITY_PASSES} (zero I/O)",
             f"{SOLUBILITY_PASSES * len(journal)} guarded cmds", f"{guard_s:.2f} s",
             f"{cmds_per_s:.0f} cmds/s"],
        ],
        title=f"End-to-end single-core throughput ({cpus} CPUs)",
    ))
    trend("e2e_throughput", {
        "cpus": cpus,
        "mc_samples": MC_SAMPLES,
        "mc_seed": MC_SEED,
        "mutants_per_s": round(mutants_per_s, 3),
        "guarded_cmds": SOLUBILITY_PASSES * len(journal),
        "guarded_cmds_per_s": round(cmds_per_s, 1),
    })

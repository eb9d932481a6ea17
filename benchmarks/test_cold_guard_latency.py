"""Cold-path rule verdicts: the compiled decision lists vs the interpreted scan.

The rule-verdict cache already makes *repeated* commands cheap; this
benchmark measures the **cold** verdict — the rule scan a cache miss
pays.  The monitor only ever runs :class:`CompiledRuleBase`, which walks
the command label's precompiled decision list; :meth:`RuleBase.check_action`
stays as the interpreted reference that asks all ~16 registered rules
``applies_to``.  Both legs are timed the same way: ``engine.check_action(ctx)``
on identical :class:`CheckContext` objects, one per cold verdict.

Two gates:

- **rule visits** (deterministic, machine-independent): shadow-evaluating
  both engines on every command of the solubility workflow, the compiled
  path must consider >= 3x fewer rules per command, with identical
  verdicts and identical check work;
- **wall clock** (machine-dependent, conservatively floored): the
  compiled scan must be measurably faster than the interpreted one.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.core.actions import ActionCall, ActionLabel
from repro.core.monitor import RabitOptions
from repro.core.rulebase import CheckContext
from repro.lab.hein import build_hein_deck, make_hein_rabit
from repro.lab.workflows import build_solubility_workflow, run_workflow


def _verdict(hit):
    return (hit[0].rule_id, hit[1]) if hit else None


class _ShadowEngine:
    """Stands in for the monitor's compiled engine: evaluates both
    engines on every context, asserts equal verdicts, keeps the context."""

    def __init__(self, rulebase):
        self.interpreted = rulebase
        self.compiled = rulebase.compile()
        self.contexts = []

    def check_action(self, ctx):
        hit = self.compiled.check_action(ctx)
        assert _verdict(hit) == _verdict(self.interpreted.check_action(ctx)), ctx.call
        self.contexts.append(ctx)
        return hit


def _shadow_solubility_run() -> _ShadowEngine:
    """Guard the solubility workflow (cache off, so every command pays a
    cold verdict) with both engines shadow-evaluated on each context."""
    deck = build_hein_deck()
    rabit, proxies, trace = make_hein_rabit(
        deck, options=RabitOptions.modified(rule_cache_size=0)
    )
    shadow = _ShadowEngine(rabit.rulebase)
    rabit.rulebase.compiled = lambda: shadow
    result = run_workflow(build_solubility_workflow(proxies))
    assert result.completed, f"benchmark workflow did not complete: {result.alert}"
    assert len(shadow.contexts) == len(trace)
    return shadow


def _cold_contexts(iterations: int):
    """The rulebase and *iterations* contexts for one door command, each
    against its own state snapshot (a fresh believed quantity per call,
    so no two verdicts share a cache key)."""
    deck = build_hein_deck()
    rabit, _, _ = make_hein_rabit(deck)
    rabit.initialize()
    call = ActionCall(ActionLabel.OPEN_DOOR, "dosing_device")
    contexts = []
    for i in range(iterations):
        state = rabit.state.copy()
        state.set("container_solid", "bench_vial", float(i))
        contexts.append(CheckContext(
            state=state,
            call=call,
            model=rabit.model,
            account_held_objects=rabit.options.account_held_objects,
            enforce_workspace_bounds=rabit.options.enforce_workspace_bounds,
            enforce_capacity=rabit.options.enforce_capacity,
        ))
    return rabit.rulebase, contexts


def _scan_seconds(engine, contexts, repeats: int = 5) -> float:
    """Best-of-*repeats* seconds for one ``engine.check_action`` pass
    over *contexts*."""

    def run() -> float:
        started = time.perf_counter()
        for ctx in contexts:
            engine.check_action(ctx)
        return time.perf_counter() - started

    run()  # warm-up (primes allocators and attribute caches)
    return min(run() for _ in range(repeats))


def test_cold_guard_latency(emit, trend, benchmark):
    shadow = _shadow_solubility_run()
    interpreted, compiled = shadow.interpreted, shadow.compiled
    commands = len(shadow.contexts)

    # Same applicable rules, same first-violation walk: only the scan
    # that finds them differs.
    assert interpreted.checks_invoked == compiled.checks_invoked

    visits_per_cmd_interpreted = interpreted.rules_considered / commands
    visits_per_cmd_compiled = compiled.rules_considered / commands
    visits_ratio = visits_per_cmd_interpreted / visits_per_cmd_compiled
    checks_per_cmd = compiled.checks_invoked / commands

    iterations = 400
    rulebase, contexts = _cold_contexts(iterations)
    interpreted_s = _scan_seconds(rulebase, contexts)
    compiled_s = _scan_seconds(rulebase.compile(), contexts)
    speedup = interpreted_s / compiled_s

    rows = [
        [
            "interpreted",
            f"{visits_per_cmd_interpreted:.1f}",
            f"{checks_per_cmd:.1f}",
            f"{interpreted_s / iterations * 1e6:.1f} us",
            "1.00x",
        ],
        [
            "compiled",
            f"{visits_per_cmd_compiled:.1f}",
            f"{checks_per_cmd:.1f}",
            f"{compiled_s / iterations * 1e6:.1f} us",
            f"{speedup:.2f}x",
        ],
    ]
    rendered = format_table(
        ["engine", "rules visited/cmd", "checks/cmd", "cold verdict", "speedup"],
        rows,
        title=(
            "Cold-path rule verdicts (solubility workflow, "
            f"{commands} commands; kernel {iterations} cold verdicts)"
        ),
    )
    emit("cold_guard_latency", rendered)
    trend(
        "cold_guard_latency",
        {
            "rule_visits_per_cmd_interpreted": round(visits_per_cmd_interpreted, 3),
            "rule_visits_per_cmd_compiled": round(visits_per_cmd_compiled, 3),
            "rule_visits_ratio": round(visits_ratio, 3),
            "cold_verdict_us_interpreted": round(interpreted_s / iterations * 1e6, 2),
            "cold_verdict_us_compiled": round(compiled_s / iterations * 1e6, 2),
            "speedup": round(speedup, 3),
        },
    )

    # Gate 1 (deterministic): compiled dispatch must consider >= 3x
    # fewer rules per command than the interpreted applies_to scan.
    assert visits_ratio >= 3.0, (
        f"compiled dispatch only cut rule visits by {visits_ratio:.2f}x "
        f"({visits_per_cmd_interpreted:.1f} -> {visits_per_cmd_compiled:.1f} per command)"
    )

    # Gate 2 (wall clock, conservative): the compiled scan must be
    # measurably faster, not just visit-count-thinner.
    assert speedup >= 1.2, (
        f"cold-path speedup {speedup:.2f}x below the 1.2x floor "
        f"({interpreted_s / iterations * 1e6:.1f}us -> "
        f"{compiled_s / iterations * 1e6:.1f}us per verdict)"
    )

    benchmark(lambda: _scan_seconds(rulebase.compiled(), contexts[:50], repeats=1))
    benchmark.extra_info["rule_visits_ratio"] = round(visits_ratio, 3)
    benchmark.extra_info["cold_speedup"] = round(speedup, 3)

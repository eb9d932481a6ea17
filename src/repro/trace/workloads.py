"""The recordable workload registry and the record entry point.

A *workload* is a named, parameterized, fully deterministic run of the
guarded-execution pipeline: given the same name and parameters it
executes the identical command sequence under the virtual clock.  That
determinism is the whole replay story — a persisted trace names its
workload in the header, and replay simply records the workload again
and compares canonical bytes.

Registered workloads:

- ``solubility`` — the Fig. 1(b) production run on the Hein deck under
  modified RABIT + headless Extended Simulator;
- ``testbed`` — the safe Fig. 5 two-arm workflow;
- ``centrifuge`` — the testbed centrifugation leg (prepared vial);
- ``multi_door`` — the §V-C two-door simultaneous-access scenario;
- ``mutant`` — the monitored leg of Monte Carlo mutant
  ``(params: seed, index)``, a pure function of the pair;
- ``bug`` — one campaign bug under one configuration
  (``params: bug_id, config``);
- ``workflow`` — a declarative workflow preset run through the DAG
  executor (``params: preset`` plus any preset parameters, or
  ``spec`` = path to an exported spec file);
- ``fuzz`` — the monitored leg of random-DAG fuzz case
  ``(params: seed, index)``, a pure function of the pair.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.trace.recorder import TRACE, RunTrace

WorkloadFn = Callable[[Dict[str, Any]], Dict[str, Any]]

#: name -> function(params) -> JSON-safe outcome dict (the trace footer).
WORKLOADS: Dict[str, WorkloadFn] = {}

#: name -> the parameter names the workload reads, or ``None`` when the
#: workload validates an open-ended set itself (``workflow`` forwards
#: preset parameters to the preset's typed table).
WORKLOAD_PARAMS: Dict[str, Optional[Tuple[str, ...]]] = {}


def _workload(
    name: str, params: Optional[Tuple[str, ...]] = ()
) -> Callable[[WorkloadFn], WorkloadFn]:
    def register(fn: WorkloadFn) -> WorkloadFn:
        WORKLOADS[name] = fn
        WORKLOAD_PARAMS[name] = params
        return fn

    return register


def _bind_obs(rabit: Any) -> None:
    """Stamp spans with the run's virtual clock when observability is on
    (the recorded ``obs_span_id`` cross-links depend on span ids, which
    are deterministic because :func:`record_workload` resets OBS)."""
    from repro.obs import OBS

    if OBS.enabled:
        OBS.bind_clock(rabit.clock)


def _result_outcome(result: Any, commands: int) -> Dict[str, Any]:
    """The footer outcome shared by every workflow-shaped workload."""
    return {
        "completed": result.completed,
        "commands": commands,
        "alert": str(result.alert) if result.alert else None,
        "device_error": result.device_error,
    }


@_workload("solubility")
def _run_solubility(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.clock import VirtualClock
    from repro.core.monitor import RabitOptions
    from repro.lab.hein import build_hein_deck, make_hein_rabit
    from repro.lab.workflows import build_solubility_workflow, run_workflow

    deck = build_hein_deck()
    options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
    rabit, proxies, trace = make_hein_rabit(
        deck, options=options, use_extended_simulator=True, clock=VirtualClock()
    )
    _bind_obs(rabit)
    result = run_workflow(build_solubility_workflow(proxies))
    return _result_outcome(result, len(trace))


@_workload("testbed")
def _run_testbed(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.lab.workflows import build_testbed_workflow, run_workflow
    from repro.testbed.deck import build_testbed_deck, make_testbed_rabit

    deck = build_testbed_deck(noise_sigma=0.003)
    rabit, proxies, trace = make_testbed_rabit(deck)
    _bind_obs(rabit)
    result = run_workflow(build_testbed_workflow(proxies))
    return _result_outcome(result, len(trace))


@_workload("centrifuge")
def _run_centrifuge(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.lab.workflows import build_centrifuge_workflow, run_workflow
    from repro.testbed.deck import build_testbed_deck, make_testbed_rabit

    deck = build_testbed_deck(noise_sigma=0.003)
    vial = deck.vials["vial_t1"]
    vial.decap_vial()
    vial.contents.solid_mg = 5.0
    vial.contents.liquid_ml = 5.0
    rabit, proxies, trace = make_testbed_rabit(deck)
    _bind_obs(rabit)
    result = run_workflow(build_centrifuge_workflow(proxies))
    return _result_outcome(result, len(trace))


@_workload("multi_door")
def _run_multi_door(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.lab.two_door import (
        build_two_door_deck,
        build_two_door_workflow,
        make_two_door_rabit,
    )
    from repro.lab.workflows import run_workflow

    deck = build_two_door_deck()
    rabit, proxies, trace = make_two_door_rabit(deck)
    _bind_obs(rabit)
    result = run_workflow(build_two_door_workflow(proxies))
    return _result_outcome(result, len(trace))


@_workload("mutant", ("seed", "index"))
def _run_mutant(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faults.montecarlo import run_mutant_monitored

    seed, index = int(params["seed"]), int(params["index"])
    description, result = run_mutant_monitored(seed, index)
    outcome = _result_outcome(result, len(result.executed_lines))
    outcome["description"] = description
    outcome["detected"] = result.stopped_by_rabit
    return outcome


@_workload("bug", ("bug_id", "config"))
def _run_bug(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faults.campaign import CAMPAIGN_BUGS, run_bug

    bug_id, config = str(params["bug_id"]), str(params["config"])
    by_id = {bug.bug_id: bug for bug in CAMPAIGN_BUGS}
    try:
        bug = by_id[bug_id]
    except KeyError:
        raise KeyError(
            f"unknown bug id {bug_id!r}; known: {sorted(by_id)}"
        ) from None
    outcome = run_bug(bug, config)
    return {
        "bug_id": bug_id,
        "config": config,
        "detected": outcome.detected,
        "alert": outcome.alert,
        "device_error": outcome.device_error,
        "completed": outcome.completed,
        "matches_paper": outcome.matches_paper,
    }


@_workload("workflow", None)
def _run_workflow(params: Dict[str, Any]) -> Dict[str, Any]:
    """A declarative workflow run: a named preset (plus preset
    parameters), or ``spec`` = path to an exported spec file.  The
    footer carries the canonical journal digest, so replay equality
    covers the full command stream end to end."""
    import json

    from repro.workflow import (
        WorkflowDAG,
        build_context,
        execute_dag,
        journal_digest,
        run_journal,
    )

    remaining = dict(params)
    spec_path = remaining.pop("spec", None)
    if spec_path is not None:
        if remaining.pop("preset", None) is not None:
            raise KeyError("workflow workload takes 'preset' or 'spec', not both")
        dag = WorkflowDAG.from_spec(json.loads(Path(spec_path).read_text()))
        if remaining:
            raise KeyError(
                f"spec runs take no extra parameters, got {sorted(remaining)}"
            )
    else:
        from repro.workflow import StepError, build_preset

        name = str(remaining.pop("preset", "solubility"))
        try:
            dag = build_preset(name, remaining)
        except StepError as exc:
            # An invalid request, like an unknown workload name.
            raise KeyError(str(exc)) from None
    ctx = build_context(
        deck=dag.deck,
        deck_params=dag.deck_params,
        prepare=dag.prepare,
    )
    _bind_obs(ctx.rabit)
    result = execute_dag(dag, ctx)
    journal = run_journal(
        ctx.trace,
        result.executed_nodes,
        result.completed,
        result.alert,
        result.device_error,
        result.recovered,
    )
    outcome = _result_outcome(result, len(ctx.trace))
    outcome["workflow"] = dag.name
    outcome["recovered"] = result.recovered
    outcome["journal_digest"] = journal_digest(journal)
    return outcome


@_workload("fuzz", ("seed", "index"))
def _run_fuzz(params: Dict[str, Any]) -> Dict[str, Any]:
    """The monitored leg of random-DAG fuzz case ``(seed, index)`` —
    pure in the pair, like the ``mutant`` workload."""
    from repro.workflow import build_context, execute_dag, random_dag

    seed, index = int(params["seed"]), int(params["index"])
    dag = random_dag(seed, index)
    ctx = build_context(deck=dag.deck)
    _bind_obs(ctx.rabit)
    result = execute_dag(dag, ctx)
    outcome = _result_outcome(result, len(ctx.trace))
    outcome["workflow"] = dag.name
    outcome["detected"] = result.stopped_by_rabit
    return outcome


def record_workload(
    name: str, params: Optional[Dict[str, Any]] = None, obs: bool = False
) -> RunTrace:
    """Run registered workload *name* with recording on; returns its trace.

    Raises :class:`KeyError` for an unknown workload name or a parameter
    the workload does not read, before anything runs.
    With ``obs=True`` the observability layer is reset and enabled for
    the duration of the run, so recorded events carry deterministic span
    ids and the spans carry the trace id — the cross-link is stable
    because span numbering restarts from 1 on every recorded run."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    params = dict(params or {})
    accepted = WORKLOAD_PARAMS[name]
    if accepted is not None:
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise KeyError(
                f"workload {name!r} takes no parameter(s) {unknown}; "
                f"parameters: {sorted(accepted)}"
            )
    from repro.obs import OBS

    if obs:
        OBS.reset()
        OBS.enable()
    TRACE.begin(name, params, obs=obs)
    try:
        outcome = fn(params)
    except BaseException:
        TRACE.abort()
        raise
    finally:
        if obs:
            OBS.disable()
    return TRACE.end(outcome)


# ---------------------------------------------------------------------------
# Auto-dump hooks for the fault-injection engines
# ---------------------------------------------------------------------------


def dump_failed_mutant_traces(report: Any, seed: int, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every failed Monte Carlo mutant.

    *Failed* means misclassified — a false negative (harm RABIT missed)
    or a false positive (a benign mutant it flagged).  Each failure's
    monitored leg is re-recorded in this process (pure in ``(seed,
    index)``, so identical to what the sweep ran, sharded or not) and
    written to ``mutant-s<seed>-i<index>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in report.outcomes:
        if outcome.classification not in ("false_negative", "false_positive"):
            continue
        if "harness_error" in outcome.damage_kinds:
            continue  # the run itself crashed; there is nothing to replay
        trace = record_workload("mutant", {"seed": seed, "index": outcome.seed})
        path = directory / f"mutant-s{seed}-i{outcome.seed}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written


def dump_failed_dag_traces(report: Any, seed: int, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every misclassified random-DAG
    fuzz case (the ``generator="dag"`` analogue of
    :func:`dump_failed_mutant_traces`); files are named
    ``fuzz-s<seed>-i<index>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in report.outcomes:
        if outcome.classification not in ("false_negative", "false_positive"):
            continue
        if "harness_error" in outcome.damage_kinds:
            continue  # the run itself crashed; there is nothing to replay
        trace = record_workload("fuzz", {"seed": seed, "index": outcome.seed})
        path = directory / f"fuzz-s{seed}-i{outcome.seed}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written


def dump_campaign_mismatch_traces(result: Any, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every campaign outcome that
    deviates from the paper's reported detection; files are named
    ``bug-<bug_id>-<config>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in result.mismatches():
        trace = record_workload(
            "bug", {"bug_id": outcome.bug.bug_id, "config": outcome.config}
        )
        path = directory / f"bug-{outcome.bug.bug_id}-{outcome.config}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written

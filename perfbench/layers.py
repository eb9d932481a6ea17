"""Which functions of the program a traced run wraps, and the per-layer
metrics derived from their spans.

Layer names follow the ``repro`` package layout (``kinematics``,
``simulator``, ``geometry``, ``core``, ``devices``, ``lab``, ``faults``,
``serve``).  Every boundary a command crosses on its way down is listed,
so each layer's self time is its own work, not that of an unwrapped
callee.  Several functions may share one layer (``Rabit.guard`` and
``Rabit.guard_async`` are both ``core.guard``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from perfbench.measure import metric_units
from perfbench.tracer import LayerStats, Target

_ROBOT_COMMANDS = (
    "move_to_location", "move_pose", "go_to_home_pose", "go_to_sleep_pose",
    "open_gripper", "close_gripper", "pick_up_vial", "place_vial",
)

#: Command methods of the other device models, by defining class.
_DEVICE_COMMANDS = {
    "repro.devices.container:Vial": ("cap_vial", "decap_vial"),
    "repro.devices.action_device:ActionDeviceBase": (
        "set_door", "open_door", "close_door", "set_action_value", "start_action", "stop_action",
    ),
    "repro.devices.action_device:Hotplate": ("stir_solution",),
    "repro.devices.action_device:Thermoshaker": ("shake",),
    "repro.devices.action_device:Centrifuge": ("rotate_rotor",),
    "repro.devices.action_device:Decapper": ("decap", "cap"),
    "repro.devices.dosing:SolidDosingDevice": (
        "set_door", "open_door", "close_door", "run_action", "dose_solid", "stop_action",
    ),
    "repro.devices.dosing:SyringePump": ("dose_initial_solvent", "dose_solvent", "stop"),
    "repro.devices.multi_door:MultiDoorDosingDevice": (
        "set_door", "open_door", "close_door", "dose_solid", "stop_action",
    ),
}

_STATUS_OWNERS = (
    "repro.devices.base:Device",
    "repro.devices.container:Vial",
    "repro.devices.action_device:ActionDeviceBase",
    "repro.devices.action_device:Centrifuge",
    "repro.devices.robot:RobotArmDevice",
    "repro.devices.dosing:SolidDosingDevice",
    "repro.devices.dosing:SyringePump",
    "repro.devices.multi_door:MultiDoorDosingDevice",
    "repro.devices.sensor:ProximitySensor",
)

TARGETS: Tuple[Target, ...] = (
    # kinematics
    Target("repro.kinematics.ik:solve_position_ik", "kinematics.solve_position_ik"),
    Target("repro.kinematics.ik:solve_position_ik_batch", "kinematics.solve_position_ik_batch"),
    Target("repro.kinematics.arm:ArmKinematics.plan_move", "kinematics.plan_move"),
    Target("repro.kinematics.arm:ArmKinematics.plan_posture", "kinematics.plan_posture"),
    Target("repro.kinematics.trajectory:plan_joint_trajectory", "kinematics.plan_joint_trajectory"),
    Target("repro.kinematics.dh:DHChain.end_effector_position", "kinematics.end_effector_position"),
    Target("repro.kinematics.dh:DHChain.frames", "kinematics.frames"),
    # simulator and geometry
    Target("repro.simulator.extended:ExtendedSimulator.validate_trajectory",
           "simulator.validate_trajectory"),
    Target("repro.simulator.extended:ExtendedSimulator.prepare_sweep", "simulator.prepare_sweep"),
    Target("repro.simulator.extended:finish_sweep", "simulator.finish_sweep"),
    Target("repro.geometry.batch:BatchCollisionEngine.first_containing",
           "geometry.first_containing"),
    Target("repro.geometry.batch:BatchCollisionEngine.first_containing_many",
           "geometry.first_containing_many"),
    # core
    Target("repro.core.monitor:Rabit.guard", "core.guard"),
    Target("repro.core.monitor:Rabit.guard_async", "core.guard"),
    Target("repro.core.rulebase:RuleBase.check_action", "core.check_action"),
    Target("repro.core.rulebase:CompiledRuleBase.check_action", "core.check_action"),
    Target("repro.core.actions:TransitionTable.expected_state", "core.expected_state"),
    Target("repro.core.state:LabState.merge_observed", "core.merge_observed"),
    Target("repro.core.state:LabState.diff_observable", "core.diff_observable"),
    # devices
    *(Target(f"repro.devices.robot:RobotArmDevice.{m}", "devices.robot_command")
      for m in _ROBOT_COMMANDS),
    *(Target(f"{owner}.{m}", "devices.command")
      for owner, methods in _DEVICE_COMMANDS.items() for m in methods),
    *(Target(f"{owner}.status", "devices.status") for owner in _STATUS_OWNERS),
    # lab decks and scripts
    Target("repro.lab.hein:build_hein_deck", "lab.build_deck"),
    Target("repro.testbed.deck:build_testbed_deck", "lab.build_deck"),
    Target("repro.lab.hein:make_hein_rabit", "lab.make_rabit"),
    Target("repro.testbed.deck:make_testbed_rabit", "lab.make_rabit"),
    Target("repro.lab.workflows:build_testbed_workflow", "lab.build_workflow"),
    Target("repro.lab.workflows:run_workflow", "lab.run_workflow"),
    # faults
    Target("repro.faults.montecarlo:score_mutant", "faults.score_mutant"),
    Target("repro.faults.mutation:apply_mutations", "faults.apply_mutations"),
    # serve
    Target("repro.serve.server:GuardServer._dispatch", "serve.dispatch"),
    Target("repro.serve.shard.worker:ShardWorkerServer._dispatch", "serve.dispatch"),
    Target("repro.serve.server:GuardServer._open_session", "serve.open_session"),
    Target("repro.serve.session:GuardSession.run_command", "serve.run_command"),
    Target("repro.serve.batcher:SweepBatcher.submit", "serve.batcher.submit"),
    Target("repro.serve.batcher:SweepBatcher._run_batch", "serve.batcher.run_batch"),
    Target("repro.serve.protocol:read_message", "serve.protocol.read_message"),
    Target("repro.serve.protocol:encode_message", "serve.protocol.encode_message"),
    Target("repro.serve.shard.router:ShardRouter._pipe", "serve.shard.pipe"),
)


def _observe_ik(layer: LayerStats, result: Any) -> None:
    counters = layer.counters
    counters["iterations"] = counters.get("iterations", 0) + result.iterations
    counters["converged"] = counters.get("converged", 0) + int(result.converged)


OBSERVERS = {"kinematics.solve_position_ik": _observe_ik}

#: Every per-layer metric a traced run prints, as ``BENCHMARK.json``
#: declares them.
PER_LAYER: Tuple[str, ...] = tuple(metric_units("per_layer"))


#: Per-layer metrics that do not come from spans: service counters, CPU
#: from ``/proc``, untraced guard-own percentiles, the tracing overhead.
#: A workload that does not exercise one reports 0.
EXTRA_METRICS = (
    "core.guard_own_p50_ms",
    "core.guard_own_p99_ms",
    "faults.false_alarms",
    "serve.batcher.batch_size_mean",
    "serve.batcher.degraded",
    "serve.batcher.throttled",
    "serve.server_cpu_ms_per_cmd",
    "serve.shard.router_cpu_ms_per_cmd",
    "serve.shard.worker_share_max",
    "trace.ops",
    "trace.overhead_share",
    "loadgen.cpu_busy_share",
    "loadgen.saturated",
)


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process tracer snapshots into one (walls add up too)."""
    merged: Dict[str, Any] = {"wall_ns": 0, "unattributed_ns": 0, "layers": {}}
    for snap in snapshots:
        merged["wall_ns"] += snap["wall_ns"]
        merged["unattributed_ns"] += snap["unattributed_ns"]
        for name, layer in snap["layers"].items():
            into = merged["layers"].setdefault(
                name, {"calls": 0, "self_ns": 0, "active_ns": 0, "wait_ns": 0, "counters": {}}
            )
            for key in ("calls", "self_ns", "active_ns", "wait_ns"):
                into[key] += layer[key]
            for key, value in layer["counters"].items():
                into["counters"][key] = into["counters"].get(key, 0) + value
    return merged


def per_layer_metrics(merged: Dict[str, Any], extras: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from merged spans plus *extras*
    (the :data:`EXTRA_METRICS` values)."""
    layers = merged["layers"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def counter(name: str, key: str) -> float:
        return layers.get(name, {}).get("counters", {}).get(key, 0)

    cmds = get("core.guard", "calls")
    ik_calls = get("kinematics.solve_position_ik", "calls")
    values: Dict[str, float] = {
        "kinematics.solve_position_ik.iterations": counter("kinematics.solve_position_ik", "iterations"),
        "kinematics.solve_position_ik.converged_share": (
            counter("kinematics.solve_position_ik", "converged") / ik_calls if ik_calls else 0.0
        ),
        "kinematics.plan_move.calls_per_cmd": (
            get("kinematics.plan_move", "calls") / cmds if cmds else 0.0
        ),
        "serve.batcher.submit.wait_s": get("serve.batcher.submit", "wait_ns") / 1e9,
        "trace.wall_s": merged["wall_ns"] / 1e9,
        "trace.unattributed_s": merged["unattributed_ns"] / 1e9,
    }
    for metric in PER_LAYER:
        if metric in values or metric in extras:
            continue
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = get(layer, "calls")
        elif field == "self_s":
            values[metric] = get(layer, "self_ns") / 1e9
    values.update(extras)
    missing = [m for m in PER_LAYER if m not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return {m: values[m] for m in PER_LAYER}


def format_stage_table(title: str, snapshot: Dict[str, Any]) -> str:
    """The stage table of one traced process: self time by layer, the
    unattributed remainder as its own row, and the total (= wall)."""
    wall = snapshot["wall_ns"]
    rows = sorted(
        ((name, l["calls"], l["self_ns"]) for name, l in snapshot["layers"].items()
         if l["calls"] or l["self_ns"]),
        key=lambda row: -row[2],
    )
    rows.append(("(unattributed)", 0, snapshot["unattributed_ns"]))
    total = sum(row[2] for row in rows)
    lines = [title, f"{'layer':40} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name, calls, self_ns in rows:
        share = self_ns / wall if wall else 0.0
        lines.append(f"{name:40} {calls:>9} {self_ns / 1e9:>10.4f} {share:>7.1%}")
    lines.append(f"{'total (traced wall ' + format(wall / 1e9, '.4f') + ' s)':40} "
                 f"{'':>9} {total / 1e9:>10.4f} {total / wall if wall else 0.0:>7.1%}")
    return "\n".join(lines)

"""The 16-bug campaign (§IV) and its runner.

Sixteen unsafe single-edit program changes over the safe testbed
workflows, labeled with the paper's Table V severity bands.  The campaign
reproduces the paper's detection progression:

- **initial** RABIT (bare-arm geometry, no capacity/workspace modeling):
  detects 8/16 (50 %);
- **modified** RABIT (held-object geometry, capacity, workspace bounds —
  the §IV fixes): detects 12/16 (75 %), which is the configuration
  Table V tabulates;
- **modified + Extended Simulator**: detects 13/16 (81 %) — the extra
  scenario is the silently-skipped-waypoint collision of footnote 2.

The three never-detected bugs are the paper's: Bug C and its
reordered-gripper variant (no gripper pressure sensor) and Bug B (no
common frame of reference for arm-arm collisions).

Where the paper is not explicit about *which* four bugs only the modified
revision catches, this reproduction assigns them to the modification
features the paper does describe (held-object geometry for Bug D,
capacity enforcement, workspace bounds) — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interceptor import DeviceProxy
from repro.core.monitor import RabitOptions
from repro.devices.world import DamageEvent, DamageSeverity
from repro.faults.mutation import (
    DeleteLine,
    InsertAfter,
    MutateLocation,
    Mutation,
    ReplaceLine,
    SwapLines,
    apply_mutations,
)
from repro.lab.workflows import (
    ScriptLine,
    WorkflowResult,
    build_centrifuge_workflow,
    build_testbed_workflow,
    pick_up_object_reordered,
    place_into_dosing_no_exit,
    place_object,
    run_workflow,
)
from repro.testbed.deck import TestbedDeck, build_testbed_deck, make_testbed_rabit

#: The three RABIT configurations the paper evaluates, in order.
RABIT_CONFIGS: Dict[str, Tuple[Callable[[], RabitOptions], bool]] = {
    "initial": (RabitOptions.initial, False),
    "modified": (RabitOptions.modified, False),
    "modified_es": (RabitOptions.modified, True),
}

MutationBuilder = Callable[[Dict[str, DeviceProxy]], Sequence[Mutation]]


@dataclass(frozen=True)
class InjectedBug:
    """One unsafe program change."""

    bug_id: str
    title: str
    severity: DamageSeverity
    #: The §IV unsafe-behaviour category (1-4).
    category: int
    #: Which safe workflow the edit applies to.
    workflow: str  # "fig5" | "centrifuge"
    #: Builds the mutations (may close over proxies for inserted lines).
    mutations: MutationBuilder
    #: Expected detection per configuration (the paper's outcomes).
    expected: Dict[str, bool]
    notes: str = ""


@dataclass
class BugOutcome:
    """Result of running one bug under one configuration."""

    bug: InjectedBug
    config: str
    detected: bool
    alert: Optional[str]
    device_error: Optional[str]
    damage: Tuple[DamageEvent, ...]
    completed: bool

    @property
    def matches_paper(self) -> bool:
        """Whether detection matched the paper's reported outcome."""
        return self.detected == self.bug.expected[self.config]

    def as_dict(self) -> dict:
        """JSON-safe dict of every observable field."""
        return {
            "bug_id": self.bug.bug_id,
            "config": self.config,
            "detected": self.detected,
            "alert": self.alert,
            "device_error": self.device_error,
            "damage": [str(event) for event in self.damage],
            "completed": self.completed,
            "matches_paper": self.matches_paper,
        }


@dataclass
class CampaignResult:
    """All outcomes of one configuration sweep."""

    outcomes: List[BugOutcome] = field(default_factory=list)

    def detected_count(self, config: str) -> int:
        """Bugs detected under *config*."""
        return sum(1 for o in self.outcomes if o.config == config and o.detected)

    def detection_rate(self, config: str) -> float:
        """Fraction of campaign bugs detected under *config*."""
        total = sum(1 for o in self.outcomes if o.config == config)
        return self.detected_count(config) / total if total else 0.0

    def by_severity(self, config: str) -> Dict[DamageSeverity, Tuple[int, int]]:
        """Table V rows: severity -> (total, detected) under *config*."""
        rows: Dict[DamageSeverity, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            if outcome.config != config:
                continue
            total, detected = rows.get(outcome.bug.severity, (0, 0))
            rows[outcome.bug.severity] = (
                total + 1,
                detected + (1 if outcome.detected else 0),
            )
        return rows

    def mismatches(self) -> List[BugOutcome]:
        """Outcomes that deviate from the paper's reported detection."""
        return [o for o in self.outcomes if not o.matches_paper]

    def canonical_bytes(self) -> bytes:
        """Canonical JSON serialization of every outcome field — the
        differential harness's sequential-vs-sharded equality witness.
        Uses the shared :mod:`repro.trace.canon` serialization (sorted
        keys, compact separators, ASCII, NaN rejected)."""
        from repro.trace.canon import canonical_bytes

        return canonical_bytes([o.as_dict() for o in self.outcomes])


# ---------------------------------------------------------------------------
# The sixteen bugs
# ---------------------------------------------------------------------------


def _script(line_id: str, text: str, fn: Callable[[], object]) -> ScriptLine:
    return ScriptLine(line_id, text, fn)


def _bug_l1(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    dosing = px["dosing_device"]
    return [
        ReplaceLine(
            "run_dosing",
            _script(
                "run_dosing_overfill",
                "dosing_device.run_action(delay=3, quantity=15)",
                lambda: dosing.run_action(delay=3, quantity=15),
            ),
        )
    ]


def _bug_l2(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [DeleteLine("pick_grid")]


def _bug_l3(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        ReplaceLine(
            "pick_grid",
            _script(
                "pick_grid_reordered",
                "viperx_pick_up_object(viperx, viperx_grid, vial)  # gripper cmds reordered",
                lambda: pick_up_object_reordered(
                    viperx, "grid_nw_viperx_safe", "grid_nw_viperx"
                ),
            ),
        )
    ]


def _bug_ml1(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [MutateLocation("dosing_pickup_viperx", "viperx", (0.15, 0.45, 0.08))]


def _bug_mh1(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        InsertAfter(
            "home_1",
            (
                _script(
                    "move_into_platform",
                    "viperx.move_to_location([0.44, 0.0, 0.01])",
                    lambda: viperx.move_to_location([0.44, 0.0, 0.01]),
                ),
            ),
        )
    ]


def _bug_mh2(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        InsertAfter(
            "pick_grid",
            (
                _script(
                    "carry_over_shaker",
                    "viperx.move_to_location([0.37, -0.35, 0.16])",
                    lambda: viperx.move_to_location([0.37, -0.35, 0.16]),
                ),
            ),
        )
    ]


def _bug_mh3(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        InsertAfter(
            "place_grid",
            (
                _script(
                    "waypoint_b_prime",
                    "viperx.move_to_location([0.62, -0.38, 0.35])  # unreachable: silently skipped",
                    lambda: viperx.move_to_location([0.62, -0.38, 0.35]),
                ),
                _script(
                    "move_c_direct",
                    "viperx.move_to_location([0.37, -0.46, 0.10])",
                    lambda: viperx.move_to_location([0.37, -0.46, 0.10]),
                ),
            ),
        )
    ]


def _bug_mh4(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    ned2 = px["ned2"]
    return [
        InsertAfter(
            "place_grid",
            (
                _script(
                    "ned2_random_move",
                    "ned2.move_pose(random_location)",
                    lambda: ned2.move_pose([0.365, -0.010, 0.192]),
                ),
            ),
        )
    ]


def _bug_mh5(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        InsertAfter(
            "home_1",
            (
                _script(
                    "move_into_wall",
                    "viperx.move_to_location([0.0, 0.60, 0.20])",
                    lambda: viperx.move_to_location([0.0, 0.60, 0.20]),
                ),
            ),
        )
    ]


def _bug_mh6(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    viperx = px["viperx"]
    return [
        ReplaceLine(
            "place_grid",
            _script(
                "place_grid_wrong_slot",
                "viperx_place_object(viperx, ned2_grid, vial)  # slot already occupied",
                lambda: place_object(viperx, "grid_ne_ned2_safe", "grid_ne_ned2"),
            ),
        )
    ]


def _bug_h1(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [DeleteLine("open_door_after_dose")]


def _bug_h2(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    # A two-line edit (the paper's bugs span "one or two lines"): the
    # place helper forgets to retreat AND the go-home call is dropped, so
    # the arm is still inside the device when the door-close command runs.
    viperx = px["viperx"]
    return [
        ReplaceLine(
            "place_dosing",
            _script(
                "place_dosing_no_exit",
                "viperx_place_object(viperx, viperx_dosing_device, vial)  # forgets to retreat",
                lambda: place_into_dosing_no_exit(viperx),
            ),
        ),
        DeleteLine("home_2"),
    ]


def _bug_h3(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [DeleteLine("close_door_before_dose")]


def _bug_h4(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [SwapLines("stop_dosing", "open_door_after_dose")]


def _bug_h5(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    centrifuge = px["centrifuge"]
    return [
        ReplaceLine(
            "spin",
            _script(
                "spin_overspeed",
                "centrifuge.start_action(9000)",
                lambda: centrifuge.start_action(9000.0),
            ),
        )
    ]


def _bug_h6(px: Dict[str, DeviceProxy]) -> Sequence[Mutation]:
    return [DeleteLine("cap_vial")]


CAMPAIGN_BUGS: Tuple[InjectedBug, ...] = (
    InjectedBug(
        "L1",
        "Dose more solid than the vial can hold",
        DamageSeverity.LOW,
        4,
        "fig5",
        _bug_l1,
        {"initial": False, "modified": True, "modified_es": True},
        "Capacity (Rule 8) enforcement was added in the modified revision.",
    ),
    InjectedBug(
        "L2",
        "Bug C: pick-up call omitted; experiment continues without a vial",
        DamageSeverity.LOW,
        3,
        "fig5",
        _bug_l2,
        {"initial": False, "modified": False, "modified_es": False},
        "No gripper pressure sensor: never detectable.",
    ),
    InjectedBug(
        "L3",
        "open_gripper()/close_gripper() reordered inside the pick helper",
        DamageSeverity.LOW,
        3,
        "fig5",
        _bug_l3,
        {"initial": False, "modified": False, "modified_es": False},
        "Same sensing gap as Bug C.",
    ),
    InjectedBug(
        "ML1",
        "Bug D: dosing pickup z lowered 0.10 -> 0.08 while holding a vial",
        DamageSeverity.MEDIUM_LOW,
        4,
        "fig5",
        _bug_ml1,
        {"initial": False, "modified": True, "modified_es": True},
        "The held-object-dimensions fix.",
    ),
    InjectedBug(
        "MH1",
        "Bare arm commanded into the mounting platform",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "fig5",
        _bug_mh1,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "MH2",
        "Held vial carried low across the thermoshaker (vial, not arm, collides)",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "fig5",
        _bug_mh2,
        {"initial": False, "modified": True, "modified_es": True},
        "The testbed scenario the simulator cannot cover (§III).",
    ),
    InjectedBug(
        "MH3",
        "Unreachable waypoint silently skipped; the direct move then collides",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "fig5",
        _bug_mh3,
        {"initial": False, "modified": False, "modified_es": True},
        "Footnote 2: only the Extended Simulator sweeps the actual trajectory.",
    ),
    InjectedBug(
        "MH4",
        "Bug B: Ned2 moved next to the grid while ViperX is stationed there",
        DamageSeverity.MEDIUM_HIGH,
        2,
        "fig5",
        _bug_mh4,
        {"initial": False, "modified": False, "modified_es": False},
        "No common frame of reference; prevented only by multiplexing.",
    ),
    InjectedBug(
        "MH5",
        "Arm commanded through the wall beside the deck",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "fig5",
        _bug_mh5,
        {"initial": False, "modified": True, "modified_es": True},
        "Workspace bounds were added in the modified revision.",
    ),
    InjectedBug(
        "MH6",
        "Vial placed onto a grid slot that already holds another vial",
        DamageSeverity.MEDIUM_HIGH,
        1,
        "fig5",
        _bug_mh6,
        {"initial": True, "modified": True, "modified_es": True},
        "The §I footnote scenario (uncollected vial).",
    ),
    InjectedBug(
        "H1",
        "Bug A: door not re-opened; arm drives into the closed dosing device",
        DamageSeverity.HIGH,
        1,
        "fig5",
        _bug_h1,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H2",
        "Door closed while the arm is still inside the dosing device",
        DamageSeverity.HIGH,
        1,
        "fig5",
        _bug_h2,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H3",
        "Dosing started with the device door open",
        DamageSeverity.HIGH,
        1,
        "fig5",
        _bug_h3,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H4",
        "Door opened while the dosing device is still running",
        DamageSeverity.HIGH,
        1,
        "fig5",
        _bug_h4,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H5",
        "Centrifuge commanded beyond its speed threshold",
        DamageSeverity.HIGH,
        4,
        "centrifuge",
        _bug_h5,
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H6",
        "Unstoppered vial loaded into the centrifuge",
        DamageSeverity.HIGH,
        1,
        "centrifuge",
        _bug_h6,
        {"initial": True, "modified": True, "modified_es": True},
    ),
)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _prepare_deck(workflow: str) -> TestbedDeck:
    deck = build_testbed_deck(noise_sigma=0.003)
    if workflow == "centrifuge":
        vial = deck.vials["vial_t1"]
        vial.decap_vial()
        vial.contents.solid_mg = 5.0
        vial.contents.liquid_ml = 5.0
    return deck


def run_bug(
    bug: InjectedBug,
    config: str,
    exclude_rules: Tuple[str, ...] = (),
) -> BugOutcome:
    """Run one bug under one named configuration on a fresh testbed.

    ``exclude_rules`` supports the rule-knockout ablation: dropping the
    rule that carries a detection should turn it into a miss."""
    try:
        options_factory, use_es = RABIT_CONFIGS[config]
    except KeyError:
        raise KeyError(f"unknown config {config!r}; known: {sorted(RABIT_CONFIGS)}") from None

    deck = _prepare_deck(bug.workflow)
    options = options_factory()
    rabit, proxies, _trace = make_testbed_rabit(
        deck,
        options=options,
        use_extended_simulator=use_es,
        exclude_rules=exclude_rules,
    )
    builder = (
        build_centrifuge_workflow if bug.workflow == "centrifuge" else build_testbed_workflow
    )
    lines = builder(proxies)
    lines = apply_mutations(lines, deck.world, bug.mutations(proxies))
    result: WorkflowResult = run_workflow(lines)
    return BugOutcome(
        bug=bug,
        config=config,
        detected=result.stopped_by_rabit,
        alert=str(result.alert) if result.alert else None,
        device_error=result.device_error,
        damage=deck.world.damage_log,
        completed=result.completed,
    )


def run_campaign(
    configs: Sequence[str] = ("initial", "modified", "modified_es"),
    bugs: Sequence[InjectedBug] = CAMPAIGN_BUGS,
    workers: Optional[int] = 1,
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Run every bug under every configuration.

    ``workers > 1`` shards the (config, bug) grid over a process pool
    (``None`` means one worker per CPU); every bug run is independent and
    deterministic, so the merged result is identical to the sequential
    one in canonical configuration-major order.

    With *trace_dir* set, every outcome that deviates from the paper's
    reported detection auto-dumps a replayable run trace of the bug run
    there (recorded parent-side; bug runs are deterministic functions of
    ``(bug_id, config)``)."""
    from repro.parallel.engine import resolve_workers

    if resolve_workers(workers, len(configs) * len(bugs)) > 1:
        from repro.parallel.runners import run_campaign_sharded

        result = run_campaign_sharded(configs=configs, bugs=bugs, workers=workers)
    else:
        result = CampaignResult()
        for config in configs:
            for bug in bugs:
                result.outcomes.append(run_bug(bug, config))
    if trace_dir is not None:
        from repro.trace.workloads import dump_campaign_mismatch_traces

        dump_campaign_mismatch_traces(result, trace_dir)
    return result

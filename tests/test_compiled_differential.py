"""Compiled dispatch vs the interpreted reference scan.

The monitor only ever consults :class:`CompiledRuleBase`; it is
admissible because it is *provably inert*: same first-violation
verdict — rule id and reason string — as the interpreted
:meth:`RuleBase.check_action` scan for every command.  This suite pins
that equivalence at three granularities:

- **scenario level** — every hand-built rule scenario checked through
  both engines;
- **workload level** — whole recorded workloads run with a *shadow
  check*: every compiled verdict the monitor computes is re-evaluated
  by the interpreted scan on the same :class:`CheckContext` and must be
  equal, and the shadowed recording must be byte-identical to a plain
  one;
- **corpus level** — a sample of the Monte Carlo mutant corpus run
  under the same shadow check (``COMPILED_DIFF_SAMPLES`` widens the
  sample for the nightly tier).
"""

import os

import pytest

from repro.core.actions import ActionCall, ActionLabel
from repro.core.rulebase import CheckContext, RuleBase, build_default_rulebase
from repro.core.state import LabState

from tests.test_core_rulebase import tiny_model

#: Sample width for the mutant-corpus differential; the nightly CI tier
#: raises this via the environment to sweep a much larger corpus.
SAMPLES = int(os.environ.get("COMPILED_DIFF_SAMPLES", "8"))


def _verdict(engine, state, call, **flags):
    ctx = CheckContext(state=state, call=call, model=tiny_model(), **flags)
    hit = engine.check_action(ctx)
    return (hit[0].rule_id, hit[1]) if hit else None


def _scenarios():
    """(state, call) pairs covering every rule plus clean passes."""
    cases = []

    def add(call, *entries):
        state = LabState()
        for var, key, value in entries:
            state.set(var, key, value)
        cases.append((state, call))

    arm = dict(robot="arm")
    add(ActionCall(ActionLabel.MOVE_ROBOT_INSIDE, "arm", location="doser_in", **arm),
        ("door_status", "doser", "closed"))                              # G1
    add(ActionCall(ActionLabel.CLOSE_DOOR, "doser"),
        ("robot_inside", "arm", "doser"))                                # G2
    add(ActionCall(ActionLabel.MOVE_ROBOT, "arm", target=(0.3, 0.0, 0.02), **arm))  # G3
    add(ActionCall(ActionLabel.PICK_OBJECT, "arm", location="slot", **arm),
        ("robot_holding", "arm", "v1"))                                  # G4
    add(ActionCall(ActionLabel.START_ACTION, "plate", value=60.0))       # G5
    add(ActionCall(ActionLabel.START_ACTION, "plate", value=60.0),
        ("container_at", "v1", "plate_top"),
        ("container_solid", "v1", 0.0))                                  # G6
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=5.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "on"),
        ("door_status", "doser", "closed"))                              # G7
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=15.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "off"),
        ("door_status", "doser", "closed"))                              # G8
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=2.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "off"),
        ("door_status", "doser", "open"))                                # G9
    add(ActionCall(ActionLabel.OPEN_DOOR, "doser"),
        ("device_active", "doser", True))                                # G10
    add(ActionCall(ActionLabel.SET_ACTION_VALUE, "plate", value=150.0))  # G11
    add(ActionCall(ActionLabel.DOSE_LIQUID, "plate", quantity=2.0),
        ("container_at", "v1", "plate_top"),
        ("container_solid", "v1", 0.0))                                  # C1
    add(ActionCall(ActionLabel.PLACE_OBJECT, "arm", location="spin_slot", **arm),
        ("robot_holding", "arm", "v1"),
        ("container_solid", "v1", 5.0),
        ("container_liquid", "v1", 0.0),
        ("container_stopper", "v1", "on"),
        ("red_dot", "spin", "N"),
        ("door_status", "spin", "open"))                                 # C2
    add(ActionCall(ActionLabel.PLACE_OBJECT, "arm", location="slot", **arm))  # T2-place
    # Clean passes, including the raw-gripper exemption.
    add(ActionCall(ActionLabel.MOVE_ROBOT, "arm", target=(0.6, 0.5, 0.2), **arm))
    add(ActionCall(ActionLabel.OPEN_GRIPPER, "arm", location="slot", **arm))
    add(ActionCall(ActionLabel.GO_HOME, "arm", **arm))
    return cases


class TestScenarioDifferential:
    @pytest.mark.parametrize("flags", [
        {},
        {"account_held_objects": True,
         "enforce_workspace_bounds": True,
         "enforce_capacity": True},
    ])
    def test_every_scenario_agrees(self, flags):
        rulebase = build_default_rulebase(["C1", "C2", "C3", "C4"])
        compiled = rulebase.compile()
        disagreements = []
        for state, call in _scenarios():
            interpreted = _verdict(rulebase, state, call, **flags)
            fast = _verdict(compiled, state, call, **flags)
            if interpreted != fast:
                disagreements.append((call.label.value, interpreted, fast))
        assert not disagreements

    def test_scenarios_cover_every_rule(self):
        """The sweep is only convincing if it actually fires each rule."""
        rulebase = build_default_rulebase(["C1", "C2", "C3", "C4"])
        fired = set()
        for state, call in _scenarios():
            hit = _verdict(
                rulebase, state, call,
                account_held_objects=True, enforce_capacity=True,
            )
            if hit:
                fired.add(hit[0])
        expected = {"G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
                    "G9", "G10", "G11", "C1", "C2", "T2-place"}
        assert expected <= fired


def _as_verdict(hit):
    return (hit[0].rule_id, hit[1]) if hit else None


class _ShadowChecked:
    """A compiled engine whose every verdict is re-derived by the
    interpreted scan on the same context and asserted equal."""

    def __init__(self, rulebase, engine, checked):
        self._rulebase = rulebase
        self._engine = engine
        self._checked = checked

    def check_action(self, ctx):
        hit = self._engine.check_action(ctx)
        reference = self._rulebase.check_action(ctx)
        assert _as_verdict(hit) == _as_verdict(reference), (ctx.call, hit, reference)
        self._checked.append(ctx.call.label)
        return hit


def _install_shadow(patch):
    """Shadow-check every compiled verdict the monitor asks for; returns
    the list of checked call labels."""
    checked = []
    compiled = RuleBase.compiled
    patch.setattr(
        RuleBase, "compiled",
        lambda self: _ShadowChecked(self, compiled(self), checked),
    )
    return checked


@pytest.fixture()
def shadow_checked(monkeypatch):
    return _install_shadow(monkeypatch)


WORKLOADS = [
    ("solubility", None),
    ("testbed", None),
    ("centrifuge", None),
    ("multi_door", None),
    ("bug", {"bug_id": "H1", "config": "modified"}),
]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("workload,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_every_verdict_matches_the_interpreted_scan(
        self, workload, params, monkeypatch
    ):
        from repro.trace.workloads import record_workload

        plain = record_workload(workload, params)
        with monkeypatch.context() as patch:
            checked = _install_shadow(patch)
            shadowed = record_workload(workload, params)
        cold = [e for e in plain.events if e["verdict"]["cache"] != "hit"]
        assert len(checked) == len(cold) > 0
        assert shadowed.canonical_bytes() == plain.canonical_bytes()

    def test_unknown_dispatch_mode_rejected(self):
        """The retired ``dispatch`` switch cannot come back as a
        parameter that silently records the default run."""
        from repro.trace.workloads import record_workload

        with pytest.raises(KeyError, match="takes no parameter"):
            record_workload("multi_door", {"dispatch": "interpreted"})


class TestMutantCorpusDifferential:
    @pytest.mark.parametrize("index", range(SAMPLES))
    def test_mutant_agrees_across_paths(self, index, shadow_checked):
        from repro.faults.montecarlo import run_mutant_monitored

        run_mutant_monitored(2024, index)
        assert shadow_checked, "no compiled verdict was shadow-checked"

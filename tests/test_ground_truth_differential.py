"""Differential suite: batched ground-truth contact scan vs the scalar loop.

:meth:`RobotArmDevice._run_plan` tests every trajectory sample's probe
points against the deck boxes with one
:meth:`~repro.geometry.batch.BatchCollisionEngine.first_containing` pass
per probe family.  The reference below is the per-sample, per-box
``Cuboid.contains`` loop it replaced, kept verbatim as an oracle.  Both
devices run the same plan in identical worlds — random deck boxes and
support surfaces, boxes with a face exactly on a probe point (contact
includes the boundary), a held vial or none, software walls or none, a
second arm, a move into a device interior or onto the open deck — and
must leave identical damage logs, stall flags, postures, containment and
held-object state.
"""

from typing import List, Optional, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.devices.base import DoorState
from repro.devices.container import Vial
from repro.devices.dosing import SolidDosingDevice
from repro.devices.locations import LocationKind
from repro.devices.robot import RobotArmDevice
from repro.devices.world import DamageEvent, DamageSeverity, LabWorld
from repro.geometry.shapes import Cuboid
from repro.geometry.transforms import rotation_z, translation
from repro.geometry.walls import SoftwareWall, Workspace
from repro.kinematics.profiles import NED2, VIPERX_300

ARM_BASE = translation([0.1, -0.05, 0.02]) @ rotation_z(0.3)
PROBE_DROPS = {
    "ee": 0.0,
    "tip": RobotArmDevice.GRIPPER_CLEARANCE,
    "vial": RobotArmDevice.HELD_DROP,
}


def _point_contact(point, boxes: Sequence[Cuboid]) -> Optional[str]:
    for box in boxes:
        if box.contains(point):
            return box.name
    return None


class ScalarContactArm(RobotArmDevice):
    """The arm with the per-sample scalar contact loop as ground truth."""

    def _run_plan(self, plan, location) -> None:
        self._stalled = False
        entering = (
            location is not None and location.kind is LocationKind.DEVICE_INTERIOR
        )
        target_device = location.device if (entering and location) else None
        currently_inside = self.world.robot_inside(self.name)
        for crossed in {target_device, currently_inside} - {None}:
            if crossed == target_device and crossed == currently_inside:
                continue
            if crossed == target_device:
                via = location.via_door if location is not None else None
            else:
                via = self.world.robot_entry_door(self.name)
            door = self._door_guarding(crossed, via)
            if door is not None and not door.is_open:
                self.world.record_damage(
                    DamageEvent(
                        severity=DamageSeverity.HIGH,
                        kind="door_crash",
                        description=(
                            f"{self.name} drove through the closed door of "
                            f"{crossed!r}"
                        ),
                        involved=(self.name, crossed),
                    )
                )
                if self._holding is not None:
                    self._shatter_held("smashed against the closed door")
                self._stalled = True
                return

        to_world = self.world.frames.to_world(self.name)
        samples = plan.trajectory.sample(self.SWEEP_RESOLUTION)
        ee_start_own = self.kinematics.current_position()
        ee_end_own = plan.trajectory.chain.end_effector_position(plan.trajectory.q_end)
        count = len(samples)
        ee_path_world = [
            to_world.apply(ee_start_own + (ee_end_own - ee_start_own) * (i / (count - 1)))
            for i in range(count)
        ]
        obstacles = self._collision_obstacles(
            exclude_device=target_device, also_exclude=currently_inside
        )
        surfaces = self.world.surfaces()

        for q, ee_world in zip(samples, ee_path_world):
            if self._holding is not None:
                vial_tip = ee_world - np.array([0.0, 0.0, self.HELD_DROP])
                hit_box = _point_contact(vial_tip, obstacles) or _point_contact(
                    vial_tip, surfaces
                )
                if hit_box is not None:
                    self._shatter_held(f"crushed against {hit_box!r} mid-move")

            gripper_tip = ee_world - np.array([0.0, 0.0, self.GRIPPER_CLEARANCE])
            hit_box = (
                _point_contact(ee_world, obstacles)
                or _point_contact(gripper_tip, obstacles)
                or _point_contact(gripper_tip, surfaces)
            )
            wall_reason = self.world.workspace.violation(ee_world)

            if hit_box is not None or wall_reason:
                obstacle = hit_box
                severity = self._obstacle_severity(obstacle)
                desc = (
                    f"{self.name} collided with {obstacle!r}"
                    if obstacle
                    else f"{self.name}: {wall_reason}"
                )
                self.world.record_damage(
                    DamageEvent(
                        severity=severity,
                        kind="arm_collision",
                        description=desc + " (protective stop)",
                        involved=tuple(x for x in (self.name, obstacle) if x),
                    )
                )
                self.kinematics.set_posture(q)
                self._stalled = True
                self._update_containment(location, reached=False)
                return

        self.kinematics.execute(plan)
        self._update_containment(location, reached=True)


def _posture(profile, unit: Sequence[float]) -> np.ndarray:
    lo, hi = profile.limit_arrays()
    return lo + (hi - lo) * np.asarray(unit)


def _probe_path(profile, q_start, q_end) -> np.ndarray:
    """World-frame end-effector samples, with ``_run_plan``'s arithmetic."""
    chain = profile.chain()
    start = chain.end_effector_position(q_start)
    end = chain.end_effector_position(q_end)
    count = RobotArmDevice.SWEEP_RESOLUTION + 1
    return np.array([
        ARM_BASE.apply(start + (end - start) * (i / (count - 1))) for i in range(count)
    ])


def _box_around(point, half, name) -> Cuboid:
    point = np.asarray(point)
    return Cuboid(tuple(point - half), tuple(point + half), name=name)


def _face_box(point, axis: int, upper: bool, half, name) -> Cuboid:
    """A box with one face exactly through *point* (which it contains)."""
    lo = np.asarray(point) - half
    hi = np.asarray(point) + half
    if upper:
        hi[axis] = point[axis]
    else:
        lo[axis] = point[axis]
    return Cuboid(tuple(lo), tuple(hi), name=name)


unit_posture = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)
half_size = st.tuples(*[st.floats(0.005, 0.12)] * 3).map(np.asarray)
box_spec = st.tuples(
    st.sampled_from(("around", "face")),
    st.integers(0, RobotArmDevice.SWEEP_RESOLUTION),
    st.sampled_from(tuple(PROBE_DROPS)),
    st.integers(0, 2),
    st.booleans(),
    half_size,
)
wall_spec = st.tuples(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda n: np.linalg.norm(n) > 0.1),
    st.floats(-0.3, 0.8),
)

scenario = st.fixed_dictionaries({
    "start": unit_posture,
    "end": unit_posture,
    "obstacles": st.lists(box_spec, max_size=4),
    "surfaces": st.lists(box_spec, max_size=2),
    "walls": st.lists(wall_spec, max_size=2),
    "holding": st.booleans(),
    "other_arm": st.booleans(),
    "into_device": st.booleans(),
    "device_box": st.one_of(st.none(), box_spec),
})


def _boxes(specs, path, prefix) -> List[Cuboid]:
    boxes = []
    for k, (shape, index, probe, axis, upper, half) in enumerate(specs):
        point = path[index] - np.array([0.0, 0.0, PROBE_DROPS[probe]])
        name = f"{prefix}{k}"
        if shape == "face":
            boxes.append(_face_box(point, axis, upper, half, name))
        else:
            boxes.append(_box_around(point + half * (0.5 if upper else -0.5), half, name))
    return boxes


def _build(arm_class, sc):
    """One deck for *sc*: the arm under test, its world and the plan."""
    walls = [SoftwareWall(normal, offset, name=f"wall{k}")
             for k, (normal, offset) in enumerate(sc["walls"])]
    world = LabWorld(
        "diff",
        Workspace(bounds=Cuboid((-0.9, -0.9, -0.1), (1.1, 0.9, 1.0), name="room"),
                  walls=walls),
    )
    world.register_frame("viperx", ARM_BASE)
    q_start = _posture(VIPERX_300, sc["start"])
    q_end = _posture(VIPERX_300, sc["end"])
    path = _probe_path(VIPERX_300, q_start, q_end)
    for box in _boxes(sc["obstacles"], path, "box"):
        world.add_obstacle(box)
    for box in _boxes(sc["surfaces"], path, "surface"):
        world.add_surface(box)
    arm = world.add_device(arm_class("viperx", VIPERX_300, world))
    arm.kinematics.set_posture(q_start)
    if sc["other_arm"]:
        world.register_frame("ned2", translation([0.45, 0.1, 0.0]))
        world.add_device(RobotArmDevice("ned2", NED2, world))
    device_box = None
    if sc["device_box"] is not None:
        device_box = _boxes([sc["device_box"]], path, "doser")[0]
    world.add_device(
        SolidDosingDevice("doser", world, door_initial=DoorState.OPEN),
        footprint=device_box,
    )
    world.locations.define(
        "doser_in", LocationKind.DEVICE_INTERIOR, {"viperx": [0.2, 0.3, 0.1]},
        device="doser",
    )
    world.add_vial(Vial("v1"))
    if sc["holding"]:
        arm._holding = "v1"
    location = world.locations.get("doser_in") if sc["into_device"] else None
    return world, arm, arm.kinematics.plan_posture(q_end), location


def _outcome(world, arm):
    return {
        "damage": [(e.kind, e.severity, e.description, e.involved)
                   for e in world.damage_log],
        "stalled": arm.stalled,
        "q": arm.kinematics.q,
        "inside": world.robot_inside(arm.name),
        "holding": arm.holding,
        "vial_broken": world.vial("v1").broken,
    }


def _run(arm_class, sc):
    world, arm, plan, location = _build(arm_class, sc)
    arm._run_plan(plan, location)
    return _outcome(world, arm)


class TestGroundTruthContact:
    @settings(max_examples=150, deadline=None)
    @given(sc=scenario)
    def test_batched_scan_matches_scalar_loop(self, sc):
        assert _run(RobotArmDevice, sc) == _run(ScalarContactArm, sc)

    def test_face_contact_counts(self):
        # A box whose top face passes exactly through the first gripper-tip
        # sample stops the arm at sample 0 in both implementations.
        sc = {
            "start": [0.5] * 6, "end": [0.6] * 6, "surfaces": [], "walls": [],
            "obstacles": [("face", 0, "tip", 2, True, np.array([0.05] * 3))],
            "holding": False, "other_arm": False, "into_device": False,
            "device_box": None,
        }
        batched = _run(RobotArmDevice, sc)
        assert batched == _run(ScalarContactArm, sc)
        assert batched["stalled"]
        assert batched["damage"][0][2] == "viperx collided with 'box0' (protective stop)"

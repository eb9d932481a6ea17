"""The benchmark's own tests: wrappers, seeded inputs, stage tables.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import sys
import time
import types

import pytest

from perfbench import inputs, layers, measure, workloads
from perfbench.tracer import Target, Tracer, install, resolve


def _originals():
    return {target.spec: resolve(target.spec)[2] for target in layers.TARGETS}


def test_wrappers_install_and_restore_cleanly():
    import repro.kinematics.arm as arm
    import repro.kinematics.ik as ik

    before = _originals()
    bound_by_name = arm.solve_position_ik
    installation = install(Tracer(), layers.TARGETS, observers=layers.OBSERVERS)
    try:
        for spec, original in before.items():
            current = resolve(spec)[2]
            assert current is not original, spec
            assert current.__wrapped__ is original, spec
        # A function another module imported by name is traced there too.
        assert arm.solve_position_ik is ik.solve_position_ik
        assert arm.solve_position_ik is not bound_by_name
    finally:
        installation.restore()
    assert _originals() == before
    assert arm.solve_position_ik is bound_by_name


def test_failed_install_patches_nothing():
    before = _originals()
    with pytest.raises(AttributeError):
        install(Tracer(), (*layers.TARGETS, Target("repro.core.monitor:Rabit.no_such", "x")))
    assert _originals() == before


def test_same_seed_gives_identical_inputs():
    assert inputs.solubility_params(7) == inputs.solubility_params(7)
    assert inputs.solubility_params(7) != inputs.solubility_params(8)
    first = inputs.solubility_stream(inputs.solubility_params(7))
    second = inputs.solubility_stream(inputs.solubility_params(7))
    assert first == second
    assert len(first) == 45
    assert first != inputs.solubility_stream(inputs.solubility_params(8))


def test_seeded_parameters_stay_in_safe_ranges():
    for seed in range(50):
        params = inputs.solubility_params(seed)
        assert params["amount_mg"] <= 10.0
        assert params["initial_solvent_ml"] + 2.0 * params["dissolution_rounds"] <= 20.0
        assert params["temperature"] < 120.0
        assert params["centrifuge_rpm"] < 6000.0


def _assert_accounts_for_wall(tracer):
    snap = tracer.snapshot()
    total = snap["unattributed_ns"] + sum(l["self_ns"] for l in snap["layers"].values())
    assert total == snap["wall_ns"]
    table = layers.format_stage_table("t", snap).splitlines()
    assert table[-2].startswith("(unattributed)")
    assert f"{snap['wall_ns'] / 1e9:.4f}" in table[-1]
    return snap


def test_stage_table_accounts_for_a_traced_guard_pass():
    stream = inputs.solubility_stream(inputs.solubility_params(3))
    tracer = Tracer()
    installation = install(tracer, layers.TARGETS, observers=layers.OBSERVERS)
    try:
        result = workloads.guard_pass(stream)
    finally:
        installation.restore()
    assert not result.errors and result.alerts == 0
    snap = _assert_accounts_for_wall(tracer)
    assert snap["layers"]["core.guard"]["calls"] == len(stream)
    assert snap["layers"]["kinematics.plan_move"]["calls"] > 0
    assert snap["spans"] == len(tracer.span_rows())
    metrics = layers.per_layer_metrics(
        layers.merge_snapshots([snap]), {name: 0.0 for name in layers.EXTRA_METRICS}
    )
    assert list(layers.PER_LAYER) == list(metrics)
    assert metrics["kinematics.solve_position_ik.converged_share"] == 1.0


class _Toy:
    def outer(self):
        time.sleep(0.01)
        return self.inner()

    def inner(self):
        time.sleep(0.02)
        return 1

    async def waits(self):
        await asyncio.sleep(0.05)
        return self.inner()


def test_self_time_excludes_children_and_coroutine_waits(monkeypatch):
    module = types.ModuleType("toy_module")
    module._Toy = _Toy
    monkeypatch.setitem(sys.modules, "toy_module", module)
    tracer = Tracer()
    targets = (Target("toy_module:_Toy.outer", "toy.outer"),
               Target("toy_module:_Toy.inner", "toy.inner"),
               Target("toy_module:_Toy.waits", "toy.waits"))
    installation = install(tracer, targets)
    try:
        toy = _Toy()
        assert toy.outer() == 1
        assert asyncio.run(toy.waits()) == 1
    finally:
        installation.restore()
    snap = _assert_accounts_for_wall(tracer)
    outer, inner, waits = (snap["layers"][n] for n in ("toy.outer", "toy.inner", "toy.waits"))
    assert inner["calls"] == 2
    assert 0.008 < outer["self_ns"] / 1e9 < 0.02
    assert waits["wait_ns"] / 1e9 >= 0.045
    assert waits["self_ns"] / 1e9 < 0.01
    rows = tracer.span_rows()
    by_id = {row[0]: row for row in rows}
    inner_rows = [row for row in rows if row[3] == tracer.layers["toy.inner"].index]
    parents = {by_id[row[1]][3] for row in inner_rows}
    assert parents == {tracer.layers["toy.outer"].index, tracer.layers["toy.waits"].index}



def test_tail_needs_ten_samples_beyond_its_percentile():
    assert measure.tail(range(1, 1001), 99.0) == (990.0, True)
    assert measure.tail(range(1, 1000), 99.0)[1] is False
    assert measure.tail(range(1, 201), 95.0) == (190.0, True)


def test_calibration_uses_only_clean_samples():
    calibration = measure.Calibration()
    ref = measure.CALIBRATION_REFERENCE_S
    calibration.samples = [ref, ref, 9 * ref, ref, 3 * ref, 3 * ref]
    calibration.busy = [False, False, True, False, False, False]
    assert calibration.clean() == [0, 1, 3, 4, 5]
    assert calibration.local(1) == 1.0  # samples 0, 1, 3 and 4; not the busy 2
    assert calibration.factor() == 1.0


def test_kernel_helper_answers_and_stops():
    helper = measure.KernelHelper()
    try:
        assert helper.time([measure.current_core()]) > 0.0
        proc = helper.proc
    finally:
        helper.stop()
    assert helper.proc is None and proc.returncode == 0

"""Serve-vs-in-process differential, also under load.

The service must produce a verdict journal *byte-identical* (canonical
JSON) to the classic in-process :meth:`Rabit.guard` loop, including
rule-verdict-cache dispositions, however many sessions share the sweep
batcher.  The batcher is allowed to exist only because it is invisible
to verdicts: a loaded queue still gets the full sweep, so a gripper-tip
strike blocks at any depth.
"""

import asyncio
import os
import tempfile

from repro.core.interceptor import resolve_action
from repro.core.model import ObstacleModel
from repro.geometry.shapes import Cuboid
from repro.serve.batcher import SweepBatcher
from repro.serve.client import ServeClient
from repro.serve.journal import run_inprocess_journal
from repro.serve.server import GuardServer
from repro.serve.session import build_guarded_deck, default_serve_options
from repro.trace.canon import canonical_bytes

#: A script that exercises every journal field: clean motions, door
#: bookkeeping, a G1 alert, and enough repetition for a cache hit.
SCRIPT = [
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
    {"device": "dosing_device", "method": "open_door"},
    {"device": "ur3e", "method": "move_to_location", "args": ["dosing_interior"]},
    {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
    {"device": "dosing_device", "method": "close_door"},
    {"device": "ur3e", "method": "move_to_location", "args": ["dosing_interior"]},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
]


async def _service_journal(script):
    server = GuardServer()
    path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-diff-"), "g.sock")
    await server.start_unix(path)
    try:
        client = await ServeClient.open_unix(path)
        await client.open_session(deck="hein")
        for command in script:
            await client.command(
                command["device"], command["method"], *command.get("args", ())
            )
        journal = await client.journal()
        sweep_stats = dict(server.batcher.stats)
        await client.close()
        return journal, sweep_stats
    finally:
        await server.stop()


def test_service_journal_is_byte_identical_to_inprocess():
    service, sweeps = asyncio.run(_service_journal(SCRIPT))
    inprocess = run_inprocess_journal("hein", SCRIPT)

    assert canonical_bytes(service) == canonical_bytes(inprocess)

    # The equality above is only meaningful if the script exercised what
    # it claims to: batched sweeps, an alert, and a cache hit.
    assert sweeps["submitted"] >= 4, sweeps
    assert sweeps["degraded"] == 0, sweeps
    alerts = [e["alert"] for e in service if e["alert"] is not None]
    assert [a["rule_id"] for a in alerts] == ["G1"]
    assert any(e["rule_cache"] == "hit" for e in service)
    assert all(e["degraded"] is False for e in service)


# -- under load ---------------------------------------------------------------


def _clear_job():
    """A sweep job on the stock hein deck that the full sweep clears."""
    deck, rabit = build_guarded_deck("hein", {}, None, default_serve_options())
    device = deck.devices["ur3e"]
    call = resolve_action(device, "move_to_location", ("grid_a1_safe",), {})
    return rabit.trajectory_checker.prepare_sweep(call, rabit.state, rabit.model, True)


def _tip_trap_job():
    """A sweep job whose gripper tip strikes a slab the wrist clears.

    ``surface=True`` obstacles are probed against gripper/held tips only,
    so only the gripper-tip probe of the full sweep can block this motion.
    """
    deck, rabit = build_guarded_deck("hein", {}, None, default_serve_options())
    device = deck.devices["ur3e"]
    call = resolve_action(device, "move_to_location", ("grid_a1_safe",), {})
    checker = rabit.trajectory_checker
    job = checker.prepare_sweep(call, rabit.state, rabit.model, True)
    assert job is not None

    mid = job.samples[len(job.samples) // 2]
    tip_z = mid[2] - job.robot_model.gripper_clearance
    rabit.model.add_obstacle(
        ObstacleModel(
            name="wet_tray",
            frames={
                job.frame: Cuboid(
                    (mid[0] - 0.05, mid[1] - 0.05, tip_z - 0.004),
                    (mid[0] + 0.05, mid[1] + 0.05, tip_z + 0.004),
                    name="wet_tray",
                )
            },
            surface=True,
        )
    )
    # Re-prepare against the mutated geometry so the job and the engines
    # the batcher builds for it agree.
    job = checker.prepare_sweep(call, rabit.state, rabit.model, True)
    return job


#: Queue depth at which the service used to swap in a tool-point-only
#: probe; the tests below load the batcher past it.
FORMER_WATERMARK = 48


def test_loaded_batcher_still_blocks_tip_strike():
    async def scenario():
        trap = _tip_trap_job()
        other = _clear_job()
        batcher = SweepBatcher()
        parked = []
        for _ in range(FORMER_WATERMARK):
            future = asyncio.get_running_loop().create_future()
            batcher._queue.put_nowait(
                (other, ("clear", other.frame, other.exclude), future)
            )
            parked.append(future)

        batcher.start()
        problem = await batcher.submit(trap, ("tip-trap", trap.frame, trap.exclude))
        assert isinstance(problem, str) and "gripper" in problem, problem
        assert "wet_tray" in problem
        assert await asyncio.gather(*parked) == [None] * FORMER_WATERMARK
        await batcher.stop()

    asyncio.run(scenario())


def _session_script(index):
    """Per-session commands: every one sweeps, and the mix varies."""
    target = ("grid_a1_safe", "dosing_interior")[index % 2]
    script = [
        {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
        {"device": "ur3e", "method": "go_to_home_pose"},
        {"device": "ur3e", "method": "move_to_location", "args": [target]},
        {"device": "ur3e", "method": "go_to_home_pose"},
    ]
    return script[: 2 + index % 3]


def test_fifty_sessions_journals_match_inprocess():
    sessions = 50

    async def scenario():
        server = GuardServer(max_sessions=sessions)
        path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-load-"), "g.sock")
        await server.start_unix(path)
        # (queue depth right after this submit, sessions open) per sweep.
        samples = []
        submit = server.batcher.submit

        def sampled_submit(job, geom_key):
            samples.append((server.batcher.queue_depth + 1, len(server.sessions)))
            return submit(job, geom_key)

        server.batcher.submit = sampled_submit
        try:
            clients = []
            for _ in range(sessions):
                client = await ServeClient.open_unix(path)
                await client.open_session(deck="hein_lean")
                clients.append(client)

            async def drive(client, script):
                for command in script:
                    await client.command(
                        command["device"], command["method"], *command.get("args", ())
                    )
                return await client.journal()

            scripts = [_session_script(i) for i in range(sessions)]
            journals = await asyncio.gather(
                *[drive(c, s) for c, s in zip(clients, scripts)]
            )
            for client in clients:
                await client.close()
            return journals, scripts, samples
        finally:
            await server.stop()

    journals, scripts, samples = asyncio.run(scenario())
    for journal, script in zip(journals, scripts):
        reference = run_inprocess_journal("hein_lean", script)
        assert canonical_bytes(journal) == canonical_bytes(reference)
    assert samples and all(depth <= open_ for depth, open_ in samples)
    # The load really reached past the former watermark.
    assert max(depth for depth, _ in samples) >= FORMER_WATERMARK


# -- sharded service ----------------------------------------------------------
#
# The strongest claim the shard layer makes: the router pipes session
# frames untouched into what is, per worker, exactly the single-process
# service — so a session's journal is byte-identical to the in-process
# reference REGARDLESS of worker count, routing key, or which shard the
# session landed on.


def _sharded_journals(script, workers, keys):
    from repro.serve.shard import ShardConfig, ShardService

    async def scenario():
        service = ShardService(ShardConfig(workers=workers))
        await service.start()
        try:
            journals = {}
            for key in keys:
                client = await ServeClient.open_tcp(
                    service.config.host, service.config.port
                )
                await client.open_session(deck="hein", key=key)
                for command in script:
                    await client.command(
                        command["device"],
                        command["method"],
                        *command.get("args", ()),
                    )
                journals[key] = await client.journal()
                await client.close()
            stats_client = await ServeClient.open_tcp(
                service.config.host, service.config.port
            )
            merged = (await stats_client.request({"op": "stats"}))["stats"]
            await stats_client.close()
            return journals, merged
        finally:
            await service.stop()

    return asyncio.run(scenario())


def _keys_covering_both_workers():
    """Session keys chosen (deterministically) to hit both of 2 shards."""
    from repro.serve.shard import shard_for

    keys, hit = [], set()
    i = 0
    while hit != {0, 1}:
        key = f"diff-sess-{i}"
        index = shard_for("default", key, 2)
        if index not in hit:
            hit.add(index)
            keys.append(key)
        i += 1
    return keys


def test_sharded_journals_byte_identical_across_worker_counts():
    reference = canonical_bytes(run_inprocess_journal("hein", SCRIPT))
    keys = _keys_covering_both_workers()

    for workers in (1, 2):
        journals, merged = _sharded_journals(SCRIPT, workers, keys)
        for key, journal in journals.items():
            assert canonical_bytes(journal) == reference, (workers, key)

        # The deterministic merge accounted for every command exactly
        # once, however the sessions were spread.
        assert merged["workers"] == workers
        assert merged["workers_alive"] == workers
        assert merged["totals"]["commands"] == len(SCRIPT) * len(keys)
        assert merged["totals"]["sessions_opened"] == len(keys)
        per_worker_commands = [
            p["commands"] for p in merged["per_worker"] if p is not None
        ]
        assert sum(per_worker_commands) == len(SCRIPT) * len(keys)
        if workers == 2:
            # The chosen keys really did exercise both shards.
            assert all(count > 0 for count in per_worker_commands)

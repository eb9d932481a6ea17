"""The SweepBatcher's coalescing bound and its knob-free constructor.

Every job the batcher takes gets the full sweep; the only thing load
changes is how many jobs share one stacked pass, and that is capped by
the module constant :data:`~repro.serve.batcher.MAX_BATCH`.
"""

import asyncio

import pytest

from repro.core.interceptor import resolve_action
from repro.serve.batcher import MAX_BATCH, SweepBatcher
from repro.serve.session import build_guarded_deck, default_serve_options


def _sweep_job():
    """A real prepared sweep job against the hein deck geometry."""
    deck, rabit = build_guarded_deck("hein", {}, None, default_serve_options())
    device = deck.devices["ur3e"]
    call = resolve_action(device, "move_to_location", ("grid_a1_safe",), {})
    job = rabit.trajectory_checker.prepare_sweep(call, rabit.state, rabit.model, True)
    assert job is not None
    return job


def _prefill(batcher, job, count):
    """Park *count* real jobs in the queue without starting the drainer."""
    futures = []
    for _ in range(count):
        future = asyncio.get_running_loop().create_future()
        batcher._queue.put_nowait((job, ("coalesce", job.frame, job.exclude), future))
        futures.append(future)
    return futures


def test_queued_jobs_coalesce_up_to_max_batch():
    async def scenario():
        batcher = SweepBatcher()
        job = _sweep_job()
        parked = _prefill(batcher, job, MAX_BATCH + 3)
        assert batcher.queue_depth == MAX_BATCH + 3

        batcher.start()
        assert await asyncio.gather(*parked) == [None] * (MAX_BATCH + 3)
        assert batcher.queue_depth == 0
        assert batcher.stats["batches"] == 2
        assert batcher.stats["batched"] == MAX_BATCH + 3
        assert batcher.stats["max_batch"] == MAX_BATCH
        await batcher.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("knob", ["maxsize", "high_watermark", "max_batch"])
def test_batcher_takes_no_queue_knobs(knob):
    with pytest.raises(TypeError):
        SweepBatcher(**{knob: 8})

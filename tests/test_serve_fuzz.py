"""Hypothesis fuzz of the guard service's wire boundary.

Whatever a client sends — truncated, oversize, non-UTF-8 or non-object
frames, wrong-typed fields, ops out of order, a hang-up mid-command —
the service must answer each complete frame with exactly one frame
(``ok`` or an ``error``), hang up only after an error or ``close``
answer, keep serving fresh connections, and leak no session once every
connection is gone.
"""

import asyncio
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import MAX_MESSAGE_BYTES
from repro.serve.server import GuardServer


def _frame(payload):
    return json.dumps(payload).encode() + b"\n"


OPEN = _frame({"op": "open", "deck": "hein_lean"})
MOVE = _frame(
    {"op": "command", "device": "ur3e", "method": "move_to_location",
     "args": ["grid_a1_safe"]}
)

_junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)

_valid_requests = st.sampled_from(
    [
        {"op": "ping"},
        {"op": "stats"},
        {"op": "journal"},
        {"op": "close"},
        {"op": "open", "deck": "hein_lean"},
        {"op": "command", "device": "ur3e", "method": "go_to_home_pose"},
        {"op": "command", "device": "ur3e", "method": "move_to_location",
         "args": ["grid_a1_safe"]},
        {"op": "command", "device": "dosing_device", "method": "open_door"},
        {"op": "command", "device": "ur3e", "method": "status"},
    ]
)


def _stalls(request):
    """An open asking for over 10 ms of modeled device I/O per command:
    valid, and answered only after that wait, so it just slows the fuzz."""
    try:
        latency = float(request.get("io_latency", 0.0))
    except (TypeError, ValueError, OverflowError):
        return False
    return request.get("op") == "open" and 0.01 < latency < float("inf")


#: Requests with one field swapped for a value of any JSON type.
_mistyped_requests = st.builds(
    lambda base, field, value: {**base, field: value},
    _valid_requests,
    st.sampled_from(
        ["op", "device", "method", "args", "kwargs", "deck", "params",
         "tenant", "io_latency"]
    ),
    _junk,
).filter(lambda request: not _stalls(request))

#: Opens on decks built from arbitrary vial lists.
_odd_decks = st.lists(_junk, max_size=3).map(
    lambda vials: {"op": "open", "deck": "hein_lean", "params": {"vials": vials}}
)

_garbage_frames = st.one_of(
    st.sampled_from(
        [
            b'{"op":"ping","x":"\xc3\x28"}\n',  # not UTF-8
            b"\xff\xfe\n",
            b"[1, 2]\n",
            b'"ping"\n',
            b"null\n",
            b"{not json\n",
            b"\n",
            b"[" * 100_000 + b"\n",  # nested past the parser's recursion
            b"{" + b" " * MAX_MESSAGE_BYTES + b"}\n",  # over the frame limit
        ]
    ),
    st.binary(max_size=40).map(lambda raw: raw.replace(b"\n", b"") + b"\n"),
)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("frame"), _valid_requests.map(_frame)),
        st.tuples(st.just("frame"), _mistyped_requests.map(_frame)),
        st.tuples(st.just("frame"), _odd_decks.map(_frame)),
        st.tuples(st.just("frame"), _garbage_frames),
    ),
    max_size=6,
).flatmap(
    lambda steps: st.one_of(
        st.just(steps),
        # A frame cut short by end of stream, then nothing more.
        st.binary(min_size=1, max_size=30).map(
            lambda raw: steps + [("truncated", b'{"op": "pi' + raw.replace(b"\n", b""))]
        ),
        # A command sent, and the connection dropped before its answer.
        st.just(steps + [("frame", OPEN), ("hangup", MOVE)]),
    )
)


def _check_reply(line):
    """One well-formed answer frame; whether the server may hang up next."""
    assert line.endswith(b"\n"), line[:200]
    reply = json.loads(line)
    assert isinstance(reply, dict) and isinstance(reply.get("ok"), bool), reply
    if not reply["ok"]:
        assert isinstance(reply.get("error"), str), reply
    return not reply["ok"] or reply.get("op") == "close"


async def _read_line(reader):
    try:
        return await asyncio.wait_for(reader.readline(), timeout=10)
    except ConnectionError:
        return b""  # the server hung up before reading all we sent


async def _converse(path, steps):
    reader, writer = await asyncio.open_unix_connection(path, limit=MAX_MESSAGE_BYTES)
    may_hang_up = False
    try:
        for kind, data in steps:
            writer.write(data)
            if kind == "truncated":
                writer.write_eof()
            try:
                await writer.drain()
            except ConnectionError:
                pass  # the server hung up mid-write; its answer is still due
            if kind == "hangup":
                return
            line = await _read_line(reader)
            if not line:
                assert may_hang_up, f"hang-up with no answer to {data[:80]!r}"
                return
            may_hang_up = _check_reply(line)
            if kind == "truncated":
                break
        if writer.can_write_eof():
            writer.write_eof()
        assert await _read_line(reader) == b"", "more than one answer per frame"
    finally:
        writer.close()


async def _fuzz_once(steps):
    server = GuardServer()
    path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-fuzz-"), "g.sock")
    await server.start_unix(path)
    try:
        await _converse(path, steps)
        await _converse(path, [("frame", _frame({"op": "ping"}))])
        for _ in range(200):
            if server.snapshot()["sessions_open"] == 0:
                break
            await asyncio.sleep(0.01)
        assert server.snapshot()["sessions_open"] == 0, "leaked session"
    finally:
        await server.stop()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_steps)
@example([("frame", OPEN), ("frame", _frame({"op": "command", "device": "ur3e",
                                              "method": "go_to_home_pose", "args": 5}))])
@example([("frame", OPEN), ("frame", _frame({"op": "command", "device": "ur3e",
                                              "method": "go_to_home_pose",
                                              "kwargs": [1]}))])
@example([("frame", b'{"op":"ping","x":"\xc3\x28"}\n')])
@example([("frame", _frame({"op": "command"})), ("frame", OPEN), ("frame", OPEN)])
@example([("frame", _frame({"op": "open", "deck": "hein", "params": {"vials": [1]}})),
          ("frame", OPEN)])
@example([("frame", _frame({"op": "open", "deck": "hein_lean", "io_latency": 10**400})),
          ("frame", _frame({"op": "open", "deck": "hein_lean", "io_latency": float("inf")})),
          ("frame", OPEN), ("frame", MOVE)])
def test_every_frame_gets_one_answer_and_nothing_leaks(steps):
    asyncio.run(_fuzz_once(steps))

"""Trace schema versioning and the explicit upgrade hook.

Every persisted trace leads with a header carrying ``schema_version``.
Readers accept the current version directly; *older* versions are
migrated forward through an explicit chain of upgrade functions — one
per historical version, each lossless, applied in sequence until the
trace reaches :data:`SCHEMA_VERSION`.  Anything newer than the current
version (or older than the oldest known) is rejected with
:class:`UnknownSchemaVersionError` rather than guessed at: a replay
gate that silently misreads a trace is worse than one that refuses.

Version history:

- **1** — initial format: command events carried their virtual-clock
  timestamp under ``"time"`` and state deltas as ``{"var", "key",
  "value"}`` objects.
- **2** — timestamps renamed to ``"t"``; state-delta entries
  compacted to ``[var, key, value]`` triples (the form
  ``LabState.delta_from`` emits); both changes are lossless, so a v1
  trace upgraded to v2 replays byte-identically.
- **3** — command verdicts gained the ``"dispatch"`` dimension
  (``"compiled"`` decision-list dispatch vs the ``"interpreted"``
  full-rulebase scan).  Verdicts are pinned identical across dispatch
  modes by the differential suite, so upgraded v2 traces adopt the
  then-default label (``"compiled"``) and still replay byte-identically;
  the historical mode is not recoverable from a v2 file and cannot have
  affected any recorded verdict.
- **4** (current) — the guard has one rule-dispatch path and one sweep
  path, so the constant ``verdict.dispatch`` and ``trajectory.path``
  fields are dropped.  Neither ever carried a verdict, so upgraded v3
  traces replay byte-identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "UnknownSchemaVersionError",
    "upgrade_trace",
]

#: The schema version this build writes.
SCHEMA_VERSION = 4


class TraceSchemaError(Exception):
    """A trace's structure violates its declared schema."""


class UnknownSchemaVersionError(TraceSchemaError):
    """The trace declares a schema version this build cannot read."""


def _upgrade_v1(header: dict, events: List[dict]) -> Tuple[dict, List[dict]]:
    """v1 -> v2: rename ``time`` to ``t``; compact state-delta entries."""
    upgraded: List[dict] = []
    for event in events:
        event = dict(event)
        if "time" in event:
            event["t"] = event.pop("time")
        delta = event.get("state_delta")
        if delta is not None:
            event["state_delta"] = [
                [entry["var"], entry["key"], entry["value"]]
                if isinstance(entry, dict)
                else list(entry)
                for entry in delta
            ]
        upgraded.append(event)
    header = dict(header)
    header["schema_version"] = 2
    return header, upgraded


def _upgrade_v2(header: dict, events: List[dict]) -> Tuple[dict, List[dict]]:
    """v2 -> v3: verdicts gain the dispatch-path dimension."""
    upgraded: List[dict] = []
    for event in events:
        event = dict(event)
        verdict = event.get("verdict")
        if isinstance(verdict, dict) and "dispatch" not in verdict:
            verdict = dict(verdict)
            verdict["dispatch"] = "compiled"
            event["verdict"] = verdict
        upgraded.append(event)
    header = dict(header)
    header["schema_version"] = 3
    return header, upgraded


def _upgrade_v3(header: dict, events: List[dict]) -> Tuple[dict, List[dict]]:
    """v3 -> v4: drop the constant dispatch and sweep-path labels."""
    upgraded: List[dict] = []
    for event in events:
        event = dict(event)
        verdict = event.get("verdict")
        if isinstance(verdict, dict) and "dispatch" in verdict:
            event["verdict"] = {k: v for k, v in verdict.items() if k != "dispatch"}
        trajectory = event.get("trajectory")
        if isinstance(trajectory, dict) and "path" in trajectory:
            event["trajectory"] = {k: v for k, v in trajectory.items() if k != "path"}
        upgraded.append(event)
    header = dict(header)
    header["schema_version"] = 4
    return header, upgraded


#: version -> function lifting a trace *from* that version to the next.
_UPGRADES: Dict[int, Callable[[dict, List[dict]], Tuple[dict, List[dict]]]] = {
    1: _upgrade_v1,
    2: _upgrade_v2,
    3: _upgrade_v3,
}


def upgrade_trace(header: dict, events: List[dict]) -> Tuple[dict, List[dict]]:
    """Migrate *(header, events)* to :data:`SCHEMA_VERSION`.

    Current-version traces pass through untouched.  Raises
    :class:`UnknownSchemaVersionError` for versions this build has no
    migration path for (missing, newer than current, or pre-history).
    """
    version = header.get("schema_version")
    if not isinstance(version, int):
        raise UnknownSchemaVersionError(
            f"trace header carries no integer schema_version (got {version!r})"
        )
    while version != SCHEMA_VERSION:
        upgrade = _UPGRADES.get(version)
        if upgrade is None:
            raise UnknownSchemaVersionError(
                f"unsupported trace schema_version {version}; this build "
                f"reads versions {sorted(_UPGRADES)} + [{SCHEMA_VERSION}]"
            )
        header, events = upgrade(header, events)
        version = header["schema_version"]
    return header, events

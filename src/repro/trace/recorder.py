"""The run-trace recorder the interception pipeline reports into.

:data:`TRACE` is a process-wide runtime with the same hot-path contract
as :data:`repro.obs.OBS`: **default off**, and while off every
instrumentation site costs exactly one attribute read
(``TRACE.active``).  Nothing is allocated, staged, or timed, the
virtual clock is never touched, and the differential suite pins the
stronger guarantee that enabling recording changes no verdicts and no
latency figures.

While recording, the pipeline contributes one *event* per intercepted
command, assembled from three sources:

- the **monitor** stages the rule verdict's cache disposition (hit /
  miss / disabled), the state delta the command produced, and a content
  fingerprint of the resulting state (:meth:`TraceRuntime.stage_rule`,
  :meth:`TraceRuntime.stage_state`);
- the **Extended Simulator** stages the trajectory-sweep outcome when a
  robot command consults it (:meth:`TraceRuntime.stage_trajectory`);
- the **interceptor** closes the event with the command itself — device,
  method, arguments, resolved label/location, virtual-clock timestamp,
  alert, and the enclosing observability span id
  (:meth:`TraceRuntime.record_command`).

Everything recorded is a deterministic function of the workload: virtual
time instead of wall time, content digests instead of object ids, and a
trace id derived from the workload identity rather than any clock — so
recording the same workload twice produces byte-identical traces, which
is the invariant replay asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.trace.canon import canonical_bytes, content_digest
from repro.trace.schema import SCHEMA_VERSION, TraceSchemaError, upgrade_trace

__all__ = ["TRACE", "TraceRuntime", "RunTrace", "TraceFormatError"]


class TraceFormatError(Exception):
    """A persisted trace file is corrupt, truncated, or malformed."""


def _jsonable(value: Any) -> Any:
    """Coerce one command argument into a canonical-JSON-safe value.

    Tuples/lists recurse (coordinate triples are the common case);
    anything beyond JSON scalars falls back to ``repr`` so the trace
    stays serializable without guessing at domain objects."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class RunTrace:
    """One recorded run: header, per-command events, closing footer."""

    header: Dict[str, Any]
    events: List[Dict[str, Any]] = field(default_factory=list)
    footer: Dict[str, Any] = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        """The deterministic, content-derived trace identifier."""
        return self.header["trace_id"]

    @property
    def schema_version(self) -> int:
        """Schema version the trace currently conforms to."""
        return self.header["schema_version"]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization of the full verdict/state stream.

        The replay equality witness: two runs agree iff these bytes
        agree.  Covers the header (workload identity), every event
        (commands, verdicts, deltas, timestamps, span ids), and the
        footer (outcome, final virtual time)."""
        return canonical_bytes(
            {"header": self.header, "events": self.events, "footer": self.footer}
        )

    # -- persistence -------------------------------------------------------

    def write_jsonl(self, path: Any) -> int:
        """Write the trace as JSONL (header, events..., footer); returns
        the number of lines written."""
        lines = [self.header, *self.events, self.footer]
        with open(path, "w", encoding="ascii") as fh:
            for doc in lines:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return len(lines)

    @classmethod
    def read_jsonl(cls, path: Any) -> "RunTrace":
        """Load and schema-migrate a persisted trace.

        Raises :class:`TraceFormatError` on corrupt JSON, a missing
        header, or a truncated stream (no footer / event-count
        mismatch), and :class:`UnknownSchemaVersionError` via the
        schema hook for versions this build cannot read."""
        docs: List[dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        f"{path}: line {lineno} is not valid JSON ({exc.msg})"
                    ) from None
                if not isinstance(doc, dict):
                    raise TraceFormatError(
                        f"{path}: line {lineno} is not a JSON object"
                    )
                docs.append(doc)
        if not docs or docs[0].get("type") != "header":
            raise TraceFormatError(f"{path}: missing trace header line")
        header, body = docs[0], docs[1:]
        # Schema migration runs before structural checks: the footer
        # contract itself is part of every known schema version.
        header, body = upgrade_trace(header, body)
        if not body or body[-1].get("type") != "end":
            raise TraceFormatError(
                f"{path}: truncated trace (no closing 'end' record)"
            )
        footer, events = body[-1], body[:-1]
        if any(e.get("type") != "command" for e in events):
            raise TraceFormatError(f"{path}: unexpected record type in event stream")
        declared = footer.get("events")
        if declared != len(events):
            raise TraceFormatError(
                f"{path}: truncated trace (footer declares {declared} events, "
                f"found {len(events)})"
            )
        return cls(header=header, events=events, footer=footer)


def _trace_id(workload: str, params: Dict[str, Any], obs: bool) -> str:
    """Deterministic trace id from the workload identity alone.

    Deliberately independent of the schema version, so a migrated trace
    keeps its id and replay's byte comparison still passes."""
    return "t-" + content_digest(
        {"workload": workload, "params": params, "obs": obs}
    )


class TraceRuntime:
    """Process-wide recorder with per-command staging.

    One recording may be active at a time (recording is per-run, and
    every workload runs single-threaded under the virtual clock)."""

    def __init__(self) -> None:
        #: The hot-path guard; instrumented modules read this directly.
        self.active: bool = False
        self._header: Optional[Dict[str, Any]] = None
        self._events: List[Dict[str, Any]] = []
        # Per-command staging area, consumed by record_command.
        self._staged_rule: Optional[Dict[str, Any]] = None
        self._staged_state: Optional[Dict[str, Any]] = None
        self._staged_trajectory: Optional[Dict[str, Any]] = None

    @property
    def trace_id(self) -> Optional[str]:
        """Id of the in-flight recording (``None`` when inactive)."""
        return self._header["trace_id"] if self._header else None

    @property
    def next_seq(self) -> int:
        """Sequence number the next recorded command will carry."""
        return len(self._events)

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self, workload: str, params: Optional[Dict[str, Any]] = None, obs: bool = False
    ) -> None:
        """Start recording a run of *workload* with *params*."""
        if self.active:
            raise RuntimeError(
                f"a recording is already active (trace {self.trace_id})"
            )
        params = dict(params or {})
        self._header = {
            "type": "header",
            "schema_version": SCHEMA_VERSION,
            "trace_id": _trace_id(workload, params, obs),
            "workload": workload,
            "params": params,
            "obs": bool(obs),
        }
        self._events = []
        self._clear_staged()
        self.active = True

    def end(self, outcome: Dict[str, Any]) -> RunTrace:
        """Finish the recording; returns the completed :class:`RunTrace`."""
        if not self.active:
            raise RuntimeError("no recording is active")
        assert self._header is not None
        final_time = self._events[-1]["t"] if self._events else 0.0
        footer = {
            "type": "end",
            "events": len(self._events),
            "final_time": final_time,
            "outcome": {k: _jsonable(v) for k, v in sorted(outcome.items())},
        }
        trace = RunTrace(header=self._header, events=self._events, footer=footer)
        self.abort()
        return trace

    def abort(self) -> None:
        """Discard any in-flight recording and staging."""
        self.active = False
        self._header = None
        self._events = []
        self._clear_staged()

    def _clear_staged(self) -> None:
        self._staged_rule = None
        self._staged_state = None
        self._staged_trajectory = None

    # -- staging (called from monitor / simulator) -------------------------

    def stage_rule(self, cache: str, rule_id: Optional[str]) -> None:
        """Record the rulebase verdict's cache disposition for the
        in-flight command: ``"hit"``, ``"miss"``, or ``"disabled"``."""
        self._staged_rule = {"cache": cache, "rule_id": rule_id}

    def stage_state(self, previous: Any, current: Any) -> None:
        """Record the state transition the in-flight command produced.

        *previous*/*current* are :class:`~repro.core.state.LabState`
        snapshots; the event stores the sorted delta triples plus a
        content fingerprint of the full resulting state."""
        self._staged_state = {
            "delta": [
                [var, key, _jsonable(value)]
                for var, key, value in current.delta_from(previous)
            ],
            "fp": content_digest(current.as_dict()),
        }

    def stage_trajectory(self, samples: int, verdict: Optional[str]) -> None:
        """Record the Extended Simulator sweep for the in-flight robot
        command: how many samples it swept and the collision verdict
        (``None`` when clear)."""
        self._staged_trajectory = {
            "samples": int(samples),
            "verdict": verdict,
        }

    # -- event assembly (called from the interceptor) ----------------------

    def record_command(self, record: Any, obs_span_id: Optional[int] = None) -> None:
        """Close one event from the interceptor's :class:`CommandRecord`
        plus whatever the monitor/simulator staged for it."""
        if not self.active:
            return
        alert = record.alert
        verdict: Dict[str, Any] = {
            "outcome": alert.kind.value if alert is not None else "allowed",
            "rule_id": alert.rule_id if alert is not None else None,
            "message": alert.message if alert is not None else None,
            "cache": self._staged_rule["cache"] if self._staged_rule else None,
        }
        staged_state = self._staged_state
        self._events.append(
            {
                "type": "command",
                "seq": len(self._events),
                "t": record.time,
                "device": record.device,
                "method": record.method,
                "args": [_jsonable(a) for a in record.args],
                "label": record.label.value if record.label is not None else None,
                "location": record.location,
                "verdict": verdict,
                "trajectory": self._staged_trajectory,
                "state_delta": staged_state["delta"] if staged_state else [],
                "state_fp": staged_state["fp"] if staged_state else None,
                "obs_span_id": obs_span_id,
            }
        )
        self._clear_staged()


#: The process-wide recorder every instrumented module imports.
TRACE = TraceRuntime()

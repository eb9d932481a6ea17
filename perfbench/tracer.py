"""Outside-in span tracer for the benchmark's traced runs.

The program under test is not edited: :func:`install` replaces functions
and methods of already-imported ``repro`` modules with thin wrappers and
:meth:`Installation.restore` puts every original back.  A wrapper opens a
span on entry and closes it on exit; each span records its layer, start,
end, its parent span (the innermost span open when it started) and the
root span of its request.

Self time is attributed exclusively.  The tracer keeps one stack of open
spans and, at every span boundary, charges the time since the previous
boundary to the span on top of the stack, or to the *unattributed*
bucket when no span is open.  Per-layer self times plus the unattributed
bucket therefore sum exactly to the traced wall time.

Coroutine functions get a span whose time is charged only while the
coroutine is actually running: the wrapper drives the inner coroutine
one ``send`` at a time and pushes the span for each step.  The time a
coroutine spends suspended (awaiting a future another task resolves) is
recorded as the span's *wait* time, not as its self time.

Spans are kept in memory (compact int64 arrays) and written out as JSON
lines when the run ends; beyond :data:`MAX_SPANS` only the per-layer
aggregates keep counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns

#: Spans a tracer stores; later spans only update the layer aggregates.
MAX_SPANS = 200_000
#: Packages whose modules :func:`install` also patches where they
#: imported a traced function by name.
MODULE_PREFIX = "repro"

#: Fields of one stored span, in storage order.
SPAN_FIELDS = ("id", "parent", "root", "layer", "start_ns", "end_ns", "self_ns", "active_ns")


@dataclass
class LayerStats:
    """Aggregates of every span of one layer."""

    name: str
    index: int
    #: Outermost calls (a span directly inside a span of the same layer,
    #: e.g. a subclass method calling ``super()``, is not a new call).
    calls: int = 0
    self_ns: int = 0
    #: Time the layer's spans were running (self plus children).
    active_ns: int = 0
    #: Time the layer's coroutine spans spent suspended.
    wait_ns: int = 0
    #: Layer-specific counters filled by result observers.
    counters: Dict[str, float] = field(default_factory=dict)
    observe: Optional[Callable[["LayerStats", Any], None]] = None


class _Frame:
    __slots__ = ("span_id", "parent", "root_id", "layer", "start", "self_ns", "active_ns", "entered")

    def __init__(self, span_id: int, parent: Optional["_Frame"], layer: LayerStats, now: int):
        self.span_id = span_id
        self.parent = parent
        self.root_id = parent.root_id if parent is not None else span_id
        self.layer = layer
        self.start = now
        self.self_ns = 0
        self.active_ns = 0
        self.entered = now


class Tracer:
    """One process's span store and exclusive-time accountant."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and aggregate; start a fresh traced window."""
        for layer in self.layers.values():
            layer.calls = layer.self_ns = layer.active_ns = layer.wait_ns = 0
            layer.counters.clear()
        self._spans = array("q")
        self.spans_dropped = 0
        self._stack: List[_Frame] = []
        self._next_id = 1
        self.unattributed_ns = 0
        self.started_ns = self._last = _now()
        self.stopped_ns: Optional[int] = None

    def layer(self, name: str) -> LayerStats:
        """The aggregate record of layer *name* (created on first use)."""
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats(name, len(self.layers))
        return stats

    # -- accounting ----------------------------------------------------

    def _charge(self, now: int) -> None:
        if self._stack:
            top = self._stack[-1]
            top.self_ns += now - self._last
            top.layer.self_ns += now - self._last
        else:
            self.unattributed_ns += now - self._last
        self._last = now

    def _frame(self, layer: LayerStats, now: int) -> _Frame:
        frame = _Frame(self._next_id, self._stack[-1] if self._stack else None, layer, now)
        self._next_id += 1
        return frame

    def _open(self, layer: LayerStats) -> _Frame:
        now = _now()
        self._charge(now)
        frame = self._frame(layer, now)
        self._stack.append(frame)
        return frame

    def _enter(self, frame: _Frame) -> None:
        now = _now()
        self._charge(now)
        frame.entered = now
        self._stack.append(frame)

    def _leave(self, frame: _Frame) -> int:
        now = _now()
        self._charge(now)
        frame.active_ns += now - frame.entered
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit (a leaked generator)
            stack.remove(frame)
        return now

    def _close(self, frame: _Frame, end: int) -> None:
        layer = frame.layer
        parent = frame.parent
        if parent is None or parent.layer is not layer:
            layer.calls += 1
        layer.active_ns += frame.active_ns
        layer.wait_ns += (end - frame.start) - frame.active_ns
        if len(self._spans) < MAX_SPANS * len(SPAN_FIELDS):
            self._spans.extend(
                (
                    frame.span_id,
                    parent.span_id if parent is not None else 0,
                    frame.root_id,
                    layer.index,
                    frame.start,
                    end,
                    frame.self_ns,
                    frame.active_ns,
                )
            )
        else:
            self.spans_dropped += 1

    def stop(self) -> None:
        """Close the traced window (charges the tail to the open spans)."""
        if self.stopped_ns is None:
            self._charge(_now())
            self.stopped_ns = self._last

    # -- results -------------------------------------------------------

    @property
    def wall_ns(self) -> int:
        """Length of the traced window."""
        end = self.stopped_ns if self.stopped_ns is not None else _now()
        return end - self.started_ns

    def span_rows(self) -> List[Tuple[int, ...]]:
        """Every stored span as a tuple in :data:`SPAN_FIELDS` order."""
        width = len(SPAN_FIELDS)
        data = self._spans
        return [tuple(data[i:i + width]) for i in range(0, len(data), width)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe aggregates (what a traced child process hands back).

        Once the window is stopped, ``unattributed_ns`` plus every layer's
        ``self_ns`` equals ``wall_ns`` exactly."""
        return {
            "wall_ns": self.wall_ns,
            "unattributed_ns": self.unattributed_ns,
            "spans": len(self._spans) // len(SPAN_FIELDS),
            "spans_dropped": self.spans_dropped,
            "layers": {
                l.name: {
                    "calls": l.calls,
                    "self_ns": l.self_ns,
                    "active_ns": l.active_ns,
                    "wait_ns": l.wait_ns,
                    "counters": dict(l.counters),
                }
                for l in self.layers.values()
            },
        }

    def write_spans(self, path: str, header: Dict[str, Any]) -> None:
        """Write a header line, then one JSON list per span."""
        names = [l.name for l in sorted(self.layers.values(), key=lambda l: l.index)]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "fields": SPAN_FIELDS, "layers": names,
                                  "aggregates": self.snapshot()}) + "\n")
            for row in self.span_rows():
                out.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _sync_wrapper(fn: Callable, tracer: Tracer, layer: LayerStats) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = tracer._open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._close(frame, tracer._leave(frame))
        if layer.observe is not None:
            layer.observe(layer, result)
        return result

    return traced


class _Stepped:
    """Awaitable that runs *coro* one step at a time inside a span."""

    __slots__ = ("_coro", "_tracer", "_layer")

    def __init__(self, coro: Any, tracer: Tracer, layer: LayerStats) -> None:
        self._coro, self._tracer, self._layer = coro, tracer, layer

    def __await__(self):
        coro, tracer = self._coro, self._tracer
        frame = tracer._frame(self._layer, _now())
        end = frame.start
        send_value: Any = None
        pending: Optional[BaseException] = None
        try:
            while True:
                tracer._enter(frame)
                try:
                    if pending is not None:
                        exc, pending = pending, None
                        yielded = coro.throw(exc)
                    else:
                        yielded = coro.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = tracer._leave(frame)
                try:
                    send_value = yield yielded
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into coro
                    pending = exc
        finally:
            tracer._close(frame, end)


def _async_wrapper(fn: Callable, tracer: Tracer, layer: LayerStats) -> Callable:
    @functools.wraps(fn)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        result = await _Stepped(fn(*args, **kwargs), tracer, layer)
        if layer.observe is not None:
            layer.observe(layer, result)
        return result

    return traced


def _wrap(fn: Callable, tracer: Tracer, layer: LayerStats) -> Callable:
    """The traced stand-in for *fn* (coroutine functions stay awaitable)."""
    if inspect.iscoroutinefunction(fn):
        return _async_wrapper(fn, tracer, layer)
    return _sync_wrapper(fn, tracer, layer)


# ---------------------------------------------------------------------------
# Installing and restoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module:qualname`` and its layer name.

    *qualname* is ``func`` for a module-level function or
    ``Class.method`` for a method defined in that class's own body."""

    spec: str
    layer: str


@dataclass
class Installation:
    """The patches one :func:`install` made, undone by :meth:`restore`."""

    tracer: Tracer
    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        """Stop the tracer and put every original object back."""
        self.tracer.stop()
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def resolve(spec: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for a ``module:qualname`` spec."""
    module_name, _, qualname = spec.partition(":")
    module = importlib.import_module(module_name)
    owner: Any = module
    *parents, name = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{spec}: not defined in {owner.__qualname__}'s own body")
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def install(
    tracer: Tracer,
    targets: Sequence[Target],
    observers: Optional[Dict[str, Callable[[LayerStats, Any], None]]] = None,
) -> Installation:
    """Wrap every target and start a fresh traced window.

    A module-level function is also replaced wherever another loaded
    :data:`MODULE_PREFIX` module imported it by name, so callers that bound it
    with ``from x import f`` are traced too."""
    # Resolve (and so import) everything first: a module imported on the
    # way must be in the scan below.
    resolved = [(target, *resolve(target.spec)) for target in targets]
    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == MODULE_PREFIX or name.startswith(MODULE_PREFIX + "."))
    ]
    installation = Installation(tracer)
    try:
        for target, owner, name, original in resolved:
            layer = tracer.layer(target.layer)
            if observers and target.layer in observers:
                layer.observe = observers[target.layer]
            wrapped = _wrap(original, tracer, layer)
            installation.patches.append((owner, name, original))
            setattr(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                if module is owner:
                    continue
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        installation.patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
    except BaseException:
        installation.restore()
        raise
    tracer.reset()
    return installation

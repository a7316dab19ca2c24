"""Hierarchical spans: the one timing primitive of the program.

A :class:`Span` is one named, timed region of the analysis — a data
build, an artifact build, a stage dispatch, a spatial join, a parallel
chunk — with attributes, a parent link, the pid that produced it and,
while tracing, that process's memory: a temporary freed inside the
span still shows as its rise of the peak, so the span that sets a
run's peak names itself.

Every span is a timer: closing one adds its duration to the
:data:`repro.runtime.stats.STATS` timer of its name (or of its
``timer=`` name), tracing on or off, so ``--stats``, Prometheus and the
ledger manifests report span totals.  With tracing off (the default) a
span keeps nothing else and reads no memory.  :func:`enable` makes the
process-global :class:`Tracer` keep every finished span plus instant
events (cache hits, pool lifecycle), and installs it as the
:mod:`repro.runtime.stats` *trace channel*: a worker task's
``STATS.delta_since(before)`` then carries the spans it opened, with
the worker's own memory readings, and the parent's
``STATS.merge(delta)`` re-parents them under the span active at the
merge site (the dispatching join).  A worker's time arrives once, in
the delta's timers; adopting its spans adds none.  Under ``fork`` the
workers inherit the enabled tracer; start contexts without ``fork``
simply ship no spans — the channel degrades to the flat timers and
counters, never to an error.

Timestamps come from :data:`clock` (``time.perf_counter``; a test may
swap in a fake).  On Linux that is ``CLOCK_MONOTONIC`` — system-wide,
shared by forked workers — so parent and worker spans are directly
comparable in one timeline.  Memory comes from ``/proc/self/status``,
read as a span opens and as it closes, outside the timed region.

This module is stdlib-only and import-light: it is imported by the
data layer, ``repro.session`` and the runtime modules.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "clock",
    "disable",
    "enable",
    "event",
    "get_tracer",
    "is_enabled",
    "span",
]


@dataclass
class Span:
    """One finished (or open) region of the trace tree.

    ``kind`` is ``"span"`` for timed regions and ``"instant"`` for
    zero-duration point events.  ``span_id``/``parent_id`` are unique
    within one tracer; adoption (see :meth:`Tracer.adopt`) remaps ids
    so worker spans never collide with the parent's.

    A traced span also records its process's memory in KiB:
    ``hwm_kb``, the peak resident set (``VmHWM``) at close;
    ``hwm_rise_kb``, how far the span raised it (close minus open,
    clamped at 0: the kernel's counters can dip by a few pages); and
    ``rss_kb``, the resident set (``VmRSS``) at close.  Instants, and
    spans without ``/proc/self/status``, leave them ``None``.
    """

    MEMORY_FIELDS = ("hwm_kb", "hwm_rise_kb", "rss_kb")

    name: str
    span_id: int
    parent_id: int | None
    pid: int
    start: float                    # clock() seconds
    duration: float = 0.0
    kind: str = "span"
    attrs: dict = field(default_factory=dict)
    hwm_kb: int | None = None
    hwm_rise_kb: int | None = None
    rss_kb: int | None = None

    def set(self, **attrs) -> "Span":
        """Attach attributes from inside the ``with`` body."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """JSON-serializable form (the worker → parent wire format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "start": self.start,
            "duration": self.duration,
            "kind": self.kind,
            "attrs": self.attrs,
            **{name: getattr(self, name) for name in self.MEMORY_FIELDS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(name=d["name"], span_id=d["span_id"],
                   parent_id=d.get("parent_id"), pid=d.get("pid", 0),
                   start=d.get("start", 0.0),
                   duration=d.get("duration", 0.0),
                   kind=d.get("kind", "span"),
                   attrs=dict(d.get("attrs", {})),
                   **{name: d.get(name) for name in cls.MEMORY_FIELDS})


#: The span clock.  Every span and event reads time through this one
#: name, so a test can replace it with a fake.
clock = time.perf_counter

_STATUS_MEMORY = re.compile(rb"VmHWM:\s*(\d+).*?VmRSS:\s*(\d+)", re.S)


def _memory_kb() -> tuple[int | None, int | None]:
    """This process's ``(VmHWM, VmRSS)`` in KiB, or ``(None, None)``.

    The path is opened on every call, so a forked worker reads its
    own process.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            found = _STATUS_MEMORY.search(fh.read())
    except OSError:
        return None, None
    if found is None:
        return None, None
    return int(found[1]), int(found[2])


class _Timed:
    """A span while tracing is off: it adds its duration to one
    ``STATS`` timer and retains nothing else."""

    __slots__ = ("timer", "start", "duration")

    def __init__(self, timer: str):
        self.timer = timer

    def __enter__(self) -> "_Timed":
        self.start = clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration = clock() - self.start
        STATS.add_time(self.timer, self.duration)
        return False

    def set(self, **attrs) -> "_Timed":
        return self


class _SpanContext:
    """A span while tracing: timed like :class:`_Timed`, and kept on
    the tracer as a :class:`Span` with its memory readings."""

    __slots__ = ("_tracer", "_span", "_timer", "_hwm_open")

    def __init__(self, tracer: "Tracer", name: str, timer: str,
                 attrs: dict):
        self._tracer = tracer
        self._timer = timer
        self._span = Span(name=name, span_id=next(tracer._ids),
                          parent_id=None, pid=os.getpid(),
                          start=0.0, attrs=attrs)

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack
        sp = self._span
        if stack:
            sp.parent_id = stack[-1].span_id
        stack.append(sp)
        self._hwm_open = _memory_kb()[0]
        sp.start = clock()
        return sp

    def __exit__(self, *exc) -> bool:
        sp = self._span
        sp.duration = clock() - sp.start
        STATS.add_time(self._timer, sp.duration)
        sp.hwm_kb, sp.rss_kb = _memory_kb()
        if sp.hwm_kb is not None and self._hwm_open is not None:
            sp.hwm_rise_kb = max(sp.hwm_kb - self._hwm_open, 0)
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is sp:
            tracer._stack.pop()
        else:                       # mis-nested exit: drop up to us
            while tracer._stack and tracer._stack[-1] is not sp:
                tracer._stack.pop()
            if tracer._stack:
                tracer._stack.pop()
        tracer._record(sp)
        return False


class Tracer:
    """Collects spans for one process; adoptable across processes.

    ``sink`` (optional) is called with each finished span's dict —
    the ``--log-json`` JSON-lines stream.  Sinks fire only in the
    process that installed them (forked children inherit the module
    state but must not double-write the parent's file handle).
    """

    def __init__(self):
        self.enabled = False
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._sink = None
        self._sink_pid: int | None = None

    # -- probes --------------------------------------------------------

    def span(self, name: str, timer: str | None = None,
             **attrs) -> _SpanContext:
        return _SpanContext(self, name, timer or name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instant (zero-duration) event at the current
        position in the tree."""
        parent = self._stack[-1].span_id if self._stack else None
        self._record(Span(name=name, span_id=next(self._ids),
                          parent_id=parent, pid=os.getpid(),
                          start=clock(), duration=0.0,
                          kind="instant", attrs=attrs))

    def _record(self, sp: Span) -> None:
        self.finished.append(sp)
        if self._sink is not None and self._sink_pid == os.getpid():
            self._sink(sp.to_dict())

    # -- sinks ---------------------------------------------------------

    def set_sink(self, sink) -> None:
        """Stream every finished span's dict to ``sink`` (or None)."""
        self._sink = sink
        self._sink_pid = os.getpid() if sink is not None else None

    # -- worker transport (the stats trace channel) --------------------

    def span_count(self) -> int:
        return len(self.finished)

    def export_spans(self, since: int = 0) -> list[dict]:
        """Serialized spans finished after index ``since``."""
        return [sp.to_dict() for sp in self.finished[since:]]

    def adopt(self, serialized: list[dict],
              parent_id: int | None = None) -> list[Span]:
        """Fold spans from another process into this tracer.

        Ids are remapped to fresh local ids (two passes: parents close
        after their children, so a child can arrive first); roots are
        re-parented under ``parent_id`` — by default the span active
        here right now, i.e. the dispatching join doing the merge.
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        adopted = [Span.from_dict(d) for d in serialized]
        mapping = {sp.span_id: next(self._ids) for sp in adopted}
        for sp in adopted:
            sp.span_id = mapping[sp.span_id]
            sp.parent_id = mapping.get(sp.parent_id, parent_id)
            self._record(sp)
        return adopted

    # -- tree access ---------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished spans with no (known) parent, in start order."""
        known = {sp.span_id for sp in self.finished}
        return sorted((sp for sp in self.finished
                       if sp.parent_id not in known),
                      key=lambda sp: sp.start)

    def children_of(self, span_id: int) -> list[Span]:
        return sorted((sp for sp in self.finished
                       if sp.parent_id == span_id),
                      key=lambda sp: sp.start)

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()


#: The process-global tracer.  One per process; forked workers inherit
#: it (enabled flag included) and ship their spans home via the stats
#: trace channel.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def is_enabled() -> bool:
    return _TRACER.enabled


def enable() -> Tracer:
    """Turn tracing on and hook the tracer into the stats channel."""
    _TRACER.enabled = True
    set_trace_channel(_TRACER)
    return _TRACER


def disable() -> None:
    """Turn tracing off and unhook the stats channel (spans already
    collected stay on the tracer until :meth:`Tracer.clear`)."""
    _TRACER.enabled = False
    _TRACER.set_sink(None)
    set_trace_channel(None)


def span(name: str, *, timer: str | None = None, **attrs):
    """Time a ``with`` body into the ``STATS`` timer ``timer`` (default
    ``name``), and keep it as a span while tracing::

        with span("artifact.hazard", year=2019) as sp:
            ...
            sp.set(rows=len(out))

    After the body, ``sp.duration`` holds its seconds either way.
    """
    if not _TRACER.enabled:
        return _Timed(timer or name)
    return _TRACER.span(name, timer, **attrs)


def event(name: str, **attrs) -> None:
    """Record an instant event (cache hit, pool reuse, fallback)."""
    if _TRACER.enabled:
        _TRACER.event(name, **attrs)


# Bound last: ``repro.runtime`` imports this module's probes, so the
# registry can only be imported once they are defined.
from ..runtime.stats import STATS, set_trace_channel  # noqa: E402

"""Lightweight perf instrumentation for the spatial-join runtime.

A process-global :class:`PerfRegistry` accumulates wall-time per named
timer and monotonic counters (index candidates/hits, raster samples,
cache hits/misses).  Timers are filled by one writer: closing a
:func:`repro.obs.span` adds its duration under the span's name, so
every timer is a span total.  The hot paths pay one dict update per
event; ``report.render_stats`` renders a :meth:`PerfRegistry.snapshot`
for ``--stats``, and the snapshot is what ledger manifests and
``BENCH_runtime.json`` record.

This module must stay import-light (stdlib only): it is imported by the
innermost geometry loops and by worker processes.
"""

from __future__ import annotations

__all__ = ["PerfRegistry", "STATS", "set_trace_channel"]


#: Optional span transport installed by :func:`repro.obs.enable`.
#: When set, snapshots carry a span high-water mark, deltas carry the
#: spans finished since the mark, and merges adopt worker spans into
#: the parent tracer (re-parented under the span active at the merge
#: site).  ``None`` — the default — keeps every path span-free and
#: adds only a None-check to snapshot/delta/merge.
_TRACE_CHANNEL = None


def set_trace_channel(channel) -> None:
    """Install (or with ``None``, remove) the span transport.

    ``channel`` must provide ``span_count()``, ``export_spans(since)``
    and ``adopt(serialized)`` — :class:`repro.obs.Tracer` does."""
    global _TRACE_CHANNEL
    _TRACE_CHANNEL = channel


class PerfRegistry:
    """Accumulates per-stage wall times and named counters."""

    def __init__(self):
        self._timers: dict[str, float] = {}
        self._timer_calls: dict[str, int] = {}
        self._counters: dict[str, int] = {}

    # -- timers --------------------------------------------------------

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        self._timers[stage] = self._timers.get(stage, 0.0) + float(seconds)
        self._timer_calls[stage] = self._timer_calls.get(stage, 0) + calls

    # -- counters ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def seconds(self, stage: str) -> float:
        return self._timers.get(stage, 0.0)

    # -- aggregation ---------------------------------------------------

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry (e.g. a worker
        process) into this one.  When a trace channel is installed,
        spans riding the snapshot are adopted into the local tracer,
        re-parented under whatever span is open at this merge site;
        their time already rides the snapshot's timers, so adopting
        them adds none."""
        for stage, secs in snapshot.get("timers", {}).items():
            self.add_time(stage, secs,
                          snapshot.get("timer_calls", {}).get(stage, 1))
        for name, n in snapshot.get("counters", {}).items():
            self.count(name, n)
        spans = snapshot.get("spans")
        if spans and _TRACE_CHANNEL is not None:
            _TRACE_CHANNEL.adopt(spans)

    def snapshot(self) -> dict:
        """A JSON-serializable copy of the current state.

        Keys are sorted, so serializing a snapshot (the run-ledger
        manifest, ``BENCH_runtime.json``) yields byte-identical output
        regardless of the order stages and counters first fired in —
        parallel dispatch must not make ledger diffs churn.
        """
        snap = {
            "timers": dict(sorted(self._timers.items())),
            "timer_calls": dict(sorted(self._timer_calls.items())),
            "counters": dict(sorted(self._counters.items())),
        }
        if _TRACE_CHANNEL is not None:
            snap["span_count"] = _TRACE_CHANNEL.span_count()
        return snap

    def delta_since(self, before: dict) -> dict:
        """Snapshot of activity since an earlier :meth:`snapshot`.

        A stage appears in ``timers`` whenever it ran — even when its
        accumulated wall time rounds to exactly 0.0 — so call-count
        activity is never silently dropped; ``timer_calls`` carries the
        matching call deltas.  When a trace channel is active, the
        delta also carries every span finished since ``before`` (the
        worker → parent transport).
        """
        now = self.snapshot()
        timers: dict[str, float] = {}
        timer_calls: dict[str, int] = {}
        for k, v in now["timers"].items():
            dt = v - before["timers"].get(k, 0.0)
            dc = now["timer_calls"].get(k, 0) \
                - before["timer_calls"].get(k, 0)
            if dt > 0.0 or dc > 0:
                timers[k] = dt
                timer_calls[k] = dc
        delta = {
            "timers": timers,
            "timer_calls": timer_calls,
            "counters": {k: v - before["counters"].get(k, 0)
                         for k, v in now["counters"].items()
                         if v - before["counters"].get(k, 0) > 0},
        }
        if _TRACE_CHANNEL is not None:
            delta["spans"] = _TRACE_CHANNEL.export_spans(
                before.get("span_count", 0))
        return delta

    def reset(self) -> None:
        self._timers.clear()
        self._timer_calls.clear()
        self._counters.clear()


#: Process-global registry used by the package's hot paths.
STATS = PerfRegistry()

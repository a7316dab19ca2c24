"""Exporters: Chrome trace_event JSON, Prometheus text, JSON lines.

Three ways out of the tracer and the stats registry:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (one ``"X"`` complete event per span, ``"i"``
  instants, ``"M"`` process-name metadata).  Load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``; each worker pid is
  its own track, so the fire-sharded overlay shows up as parallel lanes
  under the dispatching join.
* :func:`prometheus_text` — Prometheus/OpenMetrics-style text
  exposition of the :class:`~repro.runtime.stats.PerfRegistry`
  snapshot: stage seconds and calls as counters labeled by stage,
  named counters labeled by name.
* :class:`JsonlSink` — a tracer sink that streams one JSON object per
  finished span/event, memory fields included, to a file (the CLI
  ``--log-json`` surface).

Everything here is stdlib-only.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .trace import Span, Tracer

__all__ = [
    "JsonlSink",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
]


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def chrome_trace(spans: list[Span], *, main_pid: int | None = None,
                 label: str = "repro") -> dict:
    """Render spans as a Chrome ``trace_event`` document (a dict).

    Spans become ``"X"`` (complete) events with microsecond ``ts`` /
    ``dur`` (``ts`` zeroed at the earliest span, so traces start at
    t=0) and the span's memory fields among their ``args``; instants
    become ``"i"`` events; every distinct pid gets a
    ``process_name`` metadata record so Perfetto labels the main
    process and each worker as separate tracks.
    """
    epoch = min((sp.start for sp in spans), default=0.0)
    if main_pid is None and spans:
        # The earliest span is opened by the dispatching process.
        main_pid = min(spans, key=lambda sp: sp.start).pid
    events: list[dict] = []
    seen_pids: list[int] = []
    for sp in spans:
        if sp.pid not in seen_pids:
            seen_pids.append(sp.pid)
        args = dict(sp.attrs, span_id=sp.span_id, parent_id=sp.parent_id)
        record = {
            "name": sp.name,
            "ph": "i" if sp.kind == "instant" else "X",
            "ts": int((sp.start - epoch) * 1e6),
            "pid": sp.pid,
            "tid": 1,
        }
        if sp.kind == "instant":
            record["s"] = "p"       # process-scoped instant marker
        else:
            record["dur"] = max(int(sp.duration * 1e6), 1)
            args.update((name, getattr(sp, name))
                        for name in Span.MEMORY_FIELDS)
        record["args"] = _json_safe(args)
        events.append(record)
    for pid in seen_pids:
        name = f"{label} (main)" if pid == main_pid \
            else f"{label} worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": name}})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "generated_unix": time.time(),
            "n_spans": len(spans),
        },
    }


def write_chrome_trace(path: str | Path, tracer: Tracer,
                       label: str = "repro") -> dict:
    """Write the tracer's finished spans to ``path``; returns the doc."""
    doc = chrome_trace(tracer.finished, label=label)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n",
                          encoding="utf-8")
    return doc


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _label_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
        .replace("\n", r"\n")


def prometheus_text(snapshot: dict, *, prefix: str = "repro") -> str:
    """Render a :meth:`PerfRegistry.snapshot` as Prometheus text.

    Three metric families: ``<prefix>_stage_seconds_total`` and
    ``<prefix>_stage_calls_total`` labeled by ``stage``, and
    ``<prefix>_events_total`` labeled by ``counter``.  All are
    monotonic counters, matching the registry's semantics.
    """
    timers = snapshot.get("timers", {})
    calls = snapshot.get("timer_calls", {})
    counters = snapshot.get("counters", {})
    lines = [
        f"# HELP {prefix}_stage_seconds_total "
        "Cumulative wall-clock seconds per stage.",
        f"# TYPE {prefix}_stage_seconds_total counter",
    ]
    for stage in sorted(timers):
        lines.append(f'{prefix}_stage_seconds_total'
                     f'{{stage="{_label_escape(stage)}"}} '
                     f'{timers[stage]:.6f}')
    lines += [
        f"# HELP {prefix}_stage_calls_total "
        "Number of times each stage ran.",
        f"# TYPE {prefix}_stage_calls_total counter",
    ]
    for stage in sorted(calls):
        lines.append(f'{prefix}_stage_calls_total'
                     f'{{stage="{_label_escape(stage)}"}} {calls[stage]}')
    lines += [
        f"# HELP {prefix}_events_total "
        "Monotonic named counters (index, cache, pool, session).",
        f"# TYPE {prefix}_events_total counter",
    ]
    for name in sorted(counters):
        lines.append(f'{prefix}_events_total'
                     f'{{counter="{_label_escape(name)}"}} '
                     f'{counters[name]}')
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON-lines event stream
# ----------------------------------------------------------------------

class JsonlSink:
    """Tracer sink writing one JSON object per finished span.

    Install with ``tracer.set_sink(JsonlSink(path))``; close (or use as
    a context manager) when the run ends.  Records carry a ``type``
    field (``span`` | ``instant``) plus the span's wire form.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def __call__(self, span_dict: dict) -> None:
        record = dict(span_dict, type=span_dict.get("kind", "span"))
        record["attrs"] = _json_safe(record.get("attrs", {}))
        self._fh.write(json.dumps(record) + "\n")

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

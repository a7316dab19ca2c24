"""repro.obs — structured observability for the artifact runtime.

One timing primitive, :func:`span`, covers every layer: data synthesis,
index builds, artifact builds, stage dispatch, spatial joins and
parallel chunks.  Closing a span adds its duration to the
:data:`repro.runtime.stats.STATS` timer of its name, so the flat
registry's timers — *how much* — are span totals.  Under ``--trace``,
``--log-json`` or ``repro trace`` the spans are also kept as a tree,
with cache/pool events and each span's memory (the process's peak
resident set, how far the span raised it, and the resident set at
close), which answers *where and when* the time and memory went.  The
package also holds exporters (Chrome trace_event for Perfetto,
Prometheus text, JSON lines) and an opt-in per-stage cProfile hook.

Layering:

* :mod:`.trace` — :class:`Span` / :class:`Tracer`, the :func:`span` /
  :func:`event` probes, the span :data:`~.trace.clock` and memory
  readings, and the worker → parent adoption protocol that rides the
  existing ``STATS.snapshot()/merge()`` channel;
* :mod:`.export` — trace_event JSON, Prometheus exposition, JSONL sink;
* :mod:`.profile` — the cProfile stage wrapper;
* :mod:`.manifest` / :mod:`.ledger` — per-run provenance manifests
  (git SHA, config, timings, counters, output checksums) and the
  append-only run ledger behind ``repro history`` / ``repro compare``
  / ``repro gate``.

Everything is stdlib-only.  With tracing off a span reads the clock
twice, adds one timer entry and retains nothing (it reads no memory);
events check one boolean and return.

CLI surface (see docs/observability.md): ``--trace FILE``,
``--log-json FILE``, ``--metrics FILE``, ``--profile FILE``, and the
``repro trace [stage]`` subcommand.
"""

from .export import (
    JsonlSink,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from .ledger import (
    DEFAULT_LEDGER_DIR,
    GateReport,
    Ledger,
    compare_runs,
    gate_check,
    ingest_bench,
    resolve_ledger_dir,
)
from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    checksum_text,
    environment,
    fingerprint,
    git_sha,
    new_run_id,
    utc_now_iso,
    version_string,
)
from .profile import StageProfiler
from .trace import (
    Span,
    Tracer,
    disable,
    enable,
    event,
    get_tracer,
    is_enabled,
    span,
)

__all__ = [
    "Span", "Tracer",
    "enable", "disable", "is_enabled", "get_tracer", "span", "event",
    "chrome_trace", "write_chrome_trace", "prometheus_text", "JsonlSink",
    "StageProfiler",
    "MANIFEST_SCHEMA", "RunManifest", "checksum_text", "environment",
    "fingerprint", "git_sha", "new_run_id", "utc_now_iso",
    "version_string",
    "DEFAULT_LEDGER_DIR", "GateReport", "Ledger", "compare_runs",
    "gate_check", "ingest_bench", "resolve_ledger_dir",
]

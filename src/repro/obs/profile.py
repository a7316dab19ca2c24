"""Opt-in profiling and resource hooks.

Two independent probes, both off by default and free when off:

* **Memory sampling** (:func:`enable_memory_sampling`) — every data,
  index and artifact build's span gains RSS before/after (via
  ``/proc/self/statm``, with a ``resource.getrusage`` peak fallback)
  and, when ``tracemalloc`` is active, the Python-heap peak over the
  build.  Sampling costs one ``/proc`` read per build — dozens per
  run, nothing per point — so it is safe to leave on for whole
  reproductions.
* **Stage profiling** (:class:`StageProfiler`) — a ``cProfile`` wrapper
  the CLI arms with ``--profile FILE``: every stage dispatch runs under
  one shared profiler, dumped as a ``pstats`` file at exit (load with
  ``python -m pstats FILE`` or snakeviz) plus a top-N text summary.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from .trace import Span

__all__ = [
    "StageProfiler",
    "disable_memory_sampling",
    "enable_memory_sampling",
    "memory_probe",
    "memory_sampling_enabled",
    "rss_kb",
]

_MEM_ENABLED = False
_TRACEMALLOC_OWNED = False


def rss_kb() -> int | None:
    """Current resident set size in KiB, or None when unavailable."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # Linux reports KiB; macOS reports bytes.
        return int(usage.ru_maxrss if os.uname().sysname == "Linux"
                   else usage.ru_maxrss // 1024)
    except Exception:
        return None


def enable_memory_sampling(python_heap: bool = True) -> None:
    """Arm per-artifact memory sampling (and optionally tracemalloc).

    When ``python_heap`` is true and ``tracemalloc`` is not already
    running, it is started here and stopped by
    :func:`disable_memory_sampling`.
    """
    global _MEM_ENABLED, _TRACEMALLOC_OWNED
    _MEM_ENABLED = True
    if python_heap and not tracemalloc.is_tracing():
        tracemalloc.start()
        _TRACEMALLOC_OWNED = True


def disable_memory_sampling() -> None:
    global _MEM_ENABLED, _TRACEMALLOC_OWNED
    _MEM_ENABLED = False
    if _TRACEMALLOC_OWNED and tracemalloc.is_tracing():
        tracemalloc.stop()
    _TRACEMALLOC_OWNED = False


def memory_sampling_enabled() -> bool:
    return _MEM_ENABLED


@contextmanager
def memory_probe(span: Span):
    """Attach memory attrs to ``span`` around the ``with`` body.

    A no-op (no reads, no attrs) unless memory sampling is enabled.
    ``span`` may be the untraced span :func:`repro.obs.span` returns
    while tracing is off — ``set`` is a no-op there, so sampling
    composes with tracing being off.
    """
    if not _MEM_ENABLED:
        yield
        return
    before = rss_kb()
    tracing_heap = tracemalloc.is_tracing()
    if tracing_heap:
        tracemalloc.reset_peak()
    try:
        yield
    finally:
        after = rss_kb()
        attrs = {}
        if before is not None:
            attrs["rss_kb_before"] = before
        if after is not None:
            attrs["rss_kb_after"] = after
            if before is not None:
                attrs["rss_kb_delta"] = after - before
        if tracing_heap:
            _, peak = tracemalloc.get_traced_memory()
            attrs["py_heap_peak_kb"] = peak // 1024
        span.set(**attrs)


class StageProfiler:
    """One shared ``cProfile`` profiler spanning every stage dispatch.

    The CLI arms it with ``--profile FILE``; each stage runs inside
    :meth:`stage`, and :meth:`dump` writes the aggregate ``pstats``
    file.  Profiling one stage at a time under a single profiler keeps
    the universe construction and argument parsing out of the numbers.
    """

    def __init__(self):
        self._profile = cProfile.Profile()
        self.stages: list[str] = []

    @contextmanager
    def stage(self, name: str):
        self.stages.append(name)
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def dump(self, path: str | Path) -> None:
        """Write the aggregated profile as a ``pstats`` dump file."""
        self._profile.dump_stats(str(Path(path)))

    def summary(self, limit: int = 15) -> str:
        """Top functions by cumulative time, as text."""
        buf = io.StringIO()
        stats = pstats.Stats(self._profile, stream=buf)
        stats.sort_stats("cumulative").print_stats(limit)
        return buf.getvalue().rstrip()

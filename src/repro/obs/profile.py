"""Opt-in stage profiling.

:class:`StageProfiler` is a ``cProfile`` wrapper the CLI arms with
``--profile FILE``: every stage dispatch runs under one shared
profiler, dumped as a ``pstats`` file at exit (load with ``python -m
pstats FILE`` or snakeviz) plus a top-N text summary.  Memory needs no
hook of its own: every traced span records it (:mod:`repro.obs.trace`).

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from pathlib import Path

__all__ = ["StageProfiler"]


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

"""Tests for the cProfile stage hook."""

from __future__ import annotations

import pstats

from repro.obs.profile import StageProfiler


def _busy_work():
    return sum(i * i for i in range(10_000))


def test_stage_profiler_dump_and_summary(tmp_path):
    profiler = StageProfiler()
    with profiler.stage("fig7"):
        _busy_work()
    with profiler.stage("table1"):
        _busy_work()
    assert profiler.stages == ["fig7", "table1"]

    out = tmp_path / "profile.pstats"
    profiler.dump(out)
    stats = pstats.Stats(str(out))
    functions = {fn for (_, _, fn) in stats.stats}
    assert "_busy_work" in functions

    assert "_busy_work" in profiler.summary(limit=25)

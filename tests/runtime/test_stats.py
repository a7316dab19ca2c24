"""Tests for perf instrumentation and its reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.report import render_stats
from repro.obs import span
from repro.runtime import (
    STATS,
    PerfRegistry,
    chunk_spans,
    run_tasks,
    shutdown_pools,
)


class TestPerfRegistry:
    def test_timer_accumulates_and_counts_calls(self):
        """A timer is fed by closing spans of its name: one call per
        span, their durations summed."""
        before = STATS.snapshot()
        durations = []
        for _ in range(3):
            with span("test.stage") as sp:
                pass
            durations.append(sp.duration)
        delta = STATS.delta_since(before)
        assert delta["timer_calls"]["test.stage"] == 3
        assert delta["timers"]["test.stage"] == pytest.approx(
            sum(durations))

    def test_counter_accumulates(self):
        reg = PerfRegistry()
        reg.count("hits", 5)
        reg.count("hits")
        assert reg.get("hits") == 6

    def test_merge_folds_worker_snapshot(self):
        parent = PerfRegistry()
        parent.count("index.candidates", 10)
        parent.add_time("overlay", 1.0)
        worker = PerfRegistry()
        worker.count("index.candidates", 7)
        worker.add_time("overlay", 0.5, calls=2)
        parent.merge(worker.snapshot())
        assert parent.get("index.candidates") == 17
        assert abs(parent.seconds("overlay") - 1.5) < 1e-9

    def test_delta_since(self):
        reg = PerfRegistry()
        reg.count("a", 1)
        before = reg.snapshot()
        reg.count("a", 4)
        reg.count("b", 2)
        delta = reg.delta_since(before)
        assert delta["counters"] == {"a": 4, "b": 2}

    def test_delta_since_keeps_zero_time_stage_with_calls(self):
        """A stage that ran but accumulated exactly 0.0 extra seconds
        must still appear in the delta — its call count moved."""
        reg = PerfRegistry()
        reg.add_time("fast_stage", 0.125, calls=1)
        before = reg.snapshot()
        reg.add_time("fast_stage", 0.0, calls=3)   # e.g. coarse clock
        delta = reg.delta_since(before)
        assert delta["timers"] == {"fast_stage": 0.0}
        assert delta["timer_calls"] == {"fast_stage": 3}

    def test_delta_since_drops_untouched_stages(self):
        reg = PerfRegistry()
        reg.add_time("idle", 1.0)
        before = reg.snapshot()
        reg.add_time("busy", 0.5)
        delta = reg.delta_since(before)
        assert "idle" not in delta["timers"]
        assert delta["timer_calls"] == {"busy": 1}

    def test_reset(self):
        reg = PerfRegistry()
        reg.count("x")
        reg.add_time("t", 0.5)
        reg.reset()
        assert reg.snapshot() == {"timers": {}, "timer_calls": {},
                                  "counters": {}}

    def test_snapshot_is_json_serializable(self):
        reg = PerfRegistry()
        reg.count("x", 3)
        reg.add_time("t", 0.5)
        json.dumps(reg.snapshot())

    def test_snapshot_key_order_ignores_insertion_order(self):
        """Snapshots are key-sorted so serialized manifests compare
        bit-identical no matter which stage ran first."""
        a = PerfRegistry()
        a.add_time("zeta", 1.0)
        a.add_time("alpha", 2.0)
        a.count("z.n", 1)
        a.count("a.n", 2)
        b = PerfRegistry()
        b.count("a.n", 2)
        b.count("z.n", 1)
        b.add_time("alpha", 2.0)
        b.add_time("zeta", 1.0)
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        snap = a.snapshot()
        assert list(snap["timers"]) == ["alpha", "zeta"]
        assert list(snap["counters"]) == ["a.n", "z.n"]
        delta = a.delta_since(PerfRegistry().snapshot())
        assert list(delta["timers"]) == ["alpha", "zeta"]


class TestRenderStats:
    def test_renders_tables(self):
        snap = {"timers": {"overlay_fires": 1.5, "classify_cells": 0.2},
                "timer_calls": {"overlay_fires": 19, "classify_cells": 3},
                "counters": {"cache.hits": 8, "cache.misses": 2,
                             "index.candidates": 1000, "index.hits": 10}}
        text = render_stats(snap)
        assert "overlay_fires" in text and "1.500" in text
        assert "cache hit rate" in text and "80.0%" in text
        assert "index selectivity" in text and "1.0%" in text

    def test_empty_snapshot(self):
        text = render_stats({})
        assert "none timed" in text

    def test_render_mentions_stages_and_counters(self):
        """A live registry's snapshot renders its stages, counters and
        the derived cache hit rate and index selectivity."""
        reg = PerfRegistry()
        reg.add_time("overlay_fires", 0.25)
        reg.count("cache.hits", 3)
        reg.count("cache.misses", 1)
        reg.count("index.candidates", 100)
        reg.count("index.hits", 25)
        text = render_stats(reg.snapshot())
        assert "overlay_fires" in text
        assert "cache.hits" in text
        assert "75.0%" in text       # cache hit rate
        assert "25.0%" in text       # index selectivity

    def test_render_aligns_long_stage_names(self):
        """Stage names past any fixed column width keep the seconds
        column aligned (widths grow with the content)."""
        long_name = "artifact.season_overlay.year_2018_with_validation"
        snap = {"timers": {long_name: 1.5, "short": 0.25},
                "timer_calls": {long_name: 1, "short": 1}}
        lines = render_stats(snap).splitlines()
        long_row = next(ln for ln in lines if long_name in ln)
        short_row = next(ln for ln in lines if "short" in ln)
        # the seconds field sits at the same character on both rows
        assert long_row.index("1.500") == short_row.index("0.250")
        assert len(long_row) == len(short_row) > len(long_name)

    def test_render_aligns_enormous_counters(self):
        """Counters past 999,999,999,999 widen the value column for
        every row instead of overflowing their own."""
        snap = {"counters": {"index.candidates": 7_500_000_000_000_123,
                             "index.hits": 42}}
        lines = render_stats(snap).splitlines()
        big = next(ln for ln in lines if "candidates" in ln)
        small = next(ln for ln in lines if "index.hits" in ln)
        assert "7,500,000,000,000,123" in big
        # right-aligned in a shared column: both rows end together
        assert len(big) == len(small)
        sel = next(ln for ln in lines if "selectivity" in ln)
        assert len(sel) == len(big)


class TestInstrumentationHooks:
    def test_index_queries_count(self, universe):
        from repro.geo.geometry import BBox

        index = universe.cells.index()
        before = STATS.get("index.bbox_queries")
        index.query_bbox(BBox(-120.0, 33.0, -115.0, 38.0))
        assert STATS.get("index.bbox_queries") == before + 1

    def test_raster_sampling_counts(self, universe):
        n = 257
        raster = universe.whp.raster   # materialize outside the bracket
        before = STATS.get("raster.samples")
        raster.sample(np.full(n, -105.0), np.full(n, 39.0))
        assert STATS.get("raster.samples") == before + n

    def test_parallel_counters(self):
        spans = chunk_spans(100, 10)
        before = STATS.snapshot()
        try:
            got = run_tasks("test-double", 2, b"spans", _double, spans)
        finally:
            shutdown_pools()
        counters = STATS.delta_since(before)["counters"]
        if got is None:
            # no pool in this environment: the fallback is counted
            assert counters.get("parallel.fallbacks", 0) == 1
            return
        assert got == [(a * 2, b * 2) for a, b in spans]
        assert counters.get("parallel.pool_runs", 0) == 1
        assert counters.get("pool.tasks", 0) == len(spans)


def _double(span):
    return (span[0] * 2, span[1] * 2)


class TestChunkSpans:
    def test_partition_covers_range_exactly(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_empty(self):
        assert chunk_spans(0, 5) == []

    def test_single_chunk(self):
        assert chunk_spans(4, 100) == [(0, 4)]

"""Tests for the span tracer and the worker → parent transport."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.obs import trace as trace_mod
from repro.obs.trace import Span, Tracer
from repro.runtime import (
    STATS,
    PerfRegistry,
    set_trace_channel,
    shutdown_pools,
)
from repro.runtime import dispatch as runtime_dispatch


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with tracing off and empty."""
    obs.disable()
    obs.get_tracer().clear()
    yield
    obs.disable()
    obs.get_tracer().clear()
    set_trace_channel(None)


class TestSpanBasics:
    def test_disabled_probe_times_but_retains_nothing(self):
        """With tracing off a span is still a timer: its duration
        lands in STATS under its name, and the tracer keeps nothing."""
        before = STATS.snapshot()
        with obs.span("ignored", k=1) as sp:
            sp.set(attr=1)          # must not raise
        assert obs.get_tracer().finished == []
        delta = STATS.delta_since(before)
        assert delta["timer_calls"] == {"ignored": 1}
        assert delta["timers"]["ignored"] == pytest.approx(sp.duration)

    def test_disabled_event_records_nothing(self):
        obs.event("cache.hit", key="x")
        assert obs.get_tracer().finished == []

    def test_span_records_name_attrs_duration(self):
        tracer = obs.enable()
        with obs.span("work", n=3) as sp:
            sp.set(extra="y")
        assert len(tracer.finished) == 1
        got = tracer.finished[0]
        assert got.name == "work"
        assert got.attrs == {"n": 3, "extra": "y"}
        assert got.duration >= 0.0
        assert got.kind == "span"

    def test_nesting_links_parent_and_orders_by_completion(self):
        tracer = obs.enable()
        with obs.span("parent") as p:
            with obs.span("child"):
                pass
        child, parent = tracer.finished       # children close first
        assert parent.name == "parent"
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        assert parent.duration >= child.duration
        assert p is parent

    def test_event_is_instant_child_of_open_span(self):
        tracer = obs.enable()
        with obs.span("outer") as outer:
            obs.event("pool.reused", pool="overlay")
        ev = [sp for sp in tracer.finished if sp.kind == "instant"][0]
        assert ev.name == "pool.reused"
        assert ev.parent_id == outer.span_id
        assert ev.duration == 0.0

    def test_span_survives_exception(self):
        tracer = obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert tracer.finished[0].name == "boom"
        assert tracer._stack == []

    def test_roots_and_children_helpers(self):
        tracer = obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("c"):
                pass
        (root,) = tracer.roots()
        assert root.name == "a"
        assert [sp.name for sp in tracer.children_of(root.span_id)] \
            == ["b", "c"]

    def test_wire_roundtrip(self):
        sp = Span(name="x", span_id=3, parent_id=1, pid=42,
                  start=1.5, duration=0.25, attrs={"k": "v"},
                  hwm_kb=2048, hwm_rise_kb=512, rss_kb=1024)
        assert Span.from_dict(sp.to_dict()) == sp
        assert Span.from_dict(
            json.loads(json.dumps(sp.to_dict()))) == sp


#: Allocates and frees a 64 MiB block inside one span, next to an idle
#: sibling, and prints the spans' wire form.
_RISE_SCRIPT = """
import json
import numpy as np
from repro import obs

tracer = obs.enable()
with obs.span("parent"):
    with obs.span("touch"):
        block = np.ones(64 << 20, dtype=np.uint8)
        del block
    with obs.span("idle"):
        pass
print(json.dumps(tracer.export_spans()))
"""

_MIB = 1024     # in KiB, the unit of the memory fields


def _have_proc_status() -> bool:
    return trace_mod._memory_kb()[0] is not None


class TestSpanMemory:
    """A traced span records its process's peak resident set at close,
    how far it raised that peak, and its resident set at close."""

    @pytest.mark.skipif(not _have_proc_status(),
                        reason="no /proc/self/status on this platform")
    def test_traced_span_carries_readings(self):
        tracer = obs.enable()
        with obs.span("work", n=3):
            pass
        (sp,) = tracer.finished
        assert sp.rss_kb > 0
        assert sp.hwm_kb >= sp.rss_kb
        assert sp.hwm_rise_kb >= 0
        assert sp.attrs == {"n": 3}     # fields, not caller attrs

    def test_rise_is_close_minus_open_clamped_at_zero(self, monkeypatch):
        """Rise and peak come from the two reads around the span; a
        close below the open (the kernel's counters are approximate)
        reads as no rise."""
        reads = iter([(100, 40), (150, 60), (200, 90), (190, 80)])
        monkeypatch.setattr(trace_mod, "_memory_kb", lambda: next(reads))
        tracer = obs.enable()
        with obs.span("grew"):
            pass
        with obs.span("dipped"):
            pass
        grew, dipped = tracer.finished
        assert (grew.hwm_kb, grew.hwm_rise_kb, grew.rss_kb) \
            == (150, 50, 60)
        assert (dipped.hwm_kb, dipped.hwm_rise_kb, dipped.rss_kb) \
            == (190, 0, 80)

    def test_no_proc_leaves_fields_none(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "_memory_kb", lambda: (None, None))
        tracer = obs.enable()
        with obs.span("x"):
            pass
        (sp,) = tracer.finished
        assert (sp.hwm_kb, sp.hwm_rise_kb, sp.rss_kb) == (None,) * 3

    def test_tree_marks_spans_that_raised_the_peak(self):
        from repro.core.report import render_span_tree

        spans = [
            Span(name="root", span_id=1, parent_id=None, pid=1,
                 start=0.0, duration=1.0, hwm_kb=142_438,
                 hwm_rise_kb=74_035, rss_kb=90_000),
            Span(name="noise", span_id=2, parent_id=1, pid=1,
                 start=0.1, duration=0.5, hwm_kb=142_438,
                 hwm_rise_kb=40, rss_kb=90_000),
            Span(name="unread", span_id=3, parent_id=1, pid=1,
                 start=0.2, duration=0.5),
        ]
        root, noise, unread = render_span_tree(spans).splitlines()
        assert "[peak +72.3 -> 139.1 MB]" in root
        assert "peak" not in noise and "peak" not in unread

    def test_untraced_span_reads_nothing(self, monkeypatch):
        """With tracing off a span is a bare timer: it never reads
        ``/proc``."""
        def refuse():
            raise AssertionError("memory read while tracing is off")

        monkeypatch.setattr(trace_mod, "_memory_kb", refuse)
        with obs.span("untraced") as sp:
            pass
        assert sp.duration >= 0.0
        assert obs.get_tracer().finished == []

    @pytest.mark.skipif(not _have_proc_status(),
                        reason="no /proc/self/status on this platform")
    def test_rise_in_a_fresh_process(self):
        """A 64 MiB temporary freed inside a span still shows as that
        span's rise, and its parent's; an idle sibling shows none.  A
        fresh process, because this one's peak already holds whatever
        earlier tests allocated."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", _RISE_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        spans = {d["name"]: d for d in json.loads(done.stdout)}
        touch, idle, parent = spans["touch"], spans["idle"], \
            spans["parent"]
        assert touch["hwm_rise_kb"] >= 60 * _MIB
        assert parent["hwm_rise_kb"] >= 60 * _MIB
        assert idle["hwm_rise_kb"] < 1 * _MIB
        # freed before the span closed: resident at close sits well
        # below the peak the span set
        assert touch["hwm_kb"] - touch["rss_kb"] >= 60 * _MIB


class TestAdoption:
    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        worker.enabled = True
        with worker.span("task"):
            with worker.span("inner"):
                pass
        serialized = worker.export_spans()

        parent = Tracer()
        parent.enabled = True
        with parent.span("join") as join:
            adopted = parent.adopt(serialized)
        inner = next(sp for sp in adopted if sp.name == "inner")
        task = next(sp for sp in adopted if sp.name == "task")
        assert task.parent_id == join.span_id
        assert inner.parent_id == task.span_id
        # fresh local ids, no collision with the parent's own spans
        ids = [sp.span_id for sp in parent.finished]
        assert len(ids) == len(set(ids))

    def test_adopt_child_arriving_before_parent(self):
        """Completion order lists children first; adoption must still
        resolve the child's parent to the remapped id, not the
        fallback."""
        worker = Tracer()
        worker.enabled = True
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        serialized = worker.export_spans()
        assert serialized[0]["name"] == "inner"   # closes first

        parent = Tracer()
        adopted = parent.adopt(serialized, parent_id=None)
        inner = next(sp for sp in adopted if sp.name == "inner")
        outer = next(sp for sp in adopted if sp.name == "outer")
        assert inner.parent_id == outer.span_id


class TestStatsChannel:
    def test_snapshot_delta_carry_spans(self):
        tracer = obs.enable()
        reg = PerfRegistry()
        before = reg.snapshot()
        assert before["span_count"] == 0
        with tracer.span("chunk"):
            reg.count("index.hits", 5)
        delta = reg.delta_since(before)
        assert [d["name"] for d in delta["spans"]] == ["chunk"]
        assert delta["counters"] == {"index.hits": 5}

    def test_merge_adopts_under_active_span(self):
        tracer = obs.enable()
        worker = Tracer()
        worker.enabled = True
        with worker.span("overlay.chunk"):
            pass
        delta = {"timers": {}, "timer_calls": {}, "counters": {},
                 "spans": worker.export_spans()}
        reg = PerfRegistry()
        chunk_s = STATS.seconds("overlay.chunk")
        with tracer.span("overlay_fires") as join:
            reg.merge(delta)
        chunk = next(sp for sp in tracer.finished
                     if sp.name == "overlay.chunk")
        assert chunk.parent_id == join.span_id
        # the worker's time rides its delta's timers; adoption adds none
        assert STATS.seconds("overlay.chunk") == chunk_s
        assert reg.snapshot()["timers"] == {}

    def test_no_channel_no_span_keys(self):
        reg = PerfRegistry()
        snap = reg.snapshot()
        assert "span_count" not in snap
        assert "spans" not in reg.delta_since(snap)


class TestParallelEndToEnd:
    """The real pool path: worker chunk spans come home re-parented."""

    @pytest.fixture(autouse=True)
    def _small_parallel_floor(self, monkeypatch):
        monkeypatch.setattr(runtime_dispatch, "MIN_PARALLEL_POINTS", 64)
        monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
        monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 8)
        shutdown_pools()
        yield
        shutdown_pools()

    def test_worker_chunk_spans_reparent_under_join(self):
        from tests.runtime.test_differential import (
            random_fires,
            random_universe,
        )

        tracer = obs.enable()
        cells = random_universe(0, 3_000)
        fires = random_fires(0, 6)
        from repro.core.overlay import overlay_fires
        before = STATS.snapshot()
        overlay_fires(cells, fires, year=2018, workers=4,
                      use_cache=False)
        delta = STATS.delta_since(before)

        join = next(sp for sp in tracer.finished
                    if sp.name == "overlay_fires")
        chunks = [sp for sp in tracer.finished
                  if sp.name == "overlay.chunk"]
        fell_back = any(sp.name == "parallel.fallback"
                        for sp in tracer.finished)
        if fell_back:
            pytest.skip("no multiprocessing in this environment")
        assert chunks, "pool path must produce worker chunk spans"
        assert {sp.parent_id for sp in chunks} == {join.span_id}
        assert any(sp.pid != join.pid for sp in chunks), \
            "chunk spans must come from worker pids"
        # per-fire hit counts survive the wire
        total_hits = sum(sp.attrs.get("hits", 0) for sp in chunks)
        assert total_hits > 0
        # worker timers arrive once, through the merge: the chunk timer
        # is the sum of the adopted chunk spans, one call each
        assert delta["timer_calls"]["overlay.chunk"] == len(chunks)
        assert delta["timers"]["overlay.chunk"] == pytest.approx(
            sum(sp.duration for sp in chunks), abs=1e-9)

    def test_worker_chunk_spans_carry_their_own_memory(self,
                                                       monkeypatch):
        """Each worker reads its own process: with a reader that
        reports the pid it runs in, every adopted chunk span holds its
        worker's pid as its readings and the join holds the parent's."""
        from repro.core.overlay import overlay_fires
        from tests.runtime.test_differential import (
            random_fires,
            random_universe,
        )

        monkeypatch.setattr(trace_mod, "_memory_kb",
                            lambda: (os.getpid(), os.getpid()))
        tracer = obs.enable()
        overlay_fires(random_universe(0, 3_000), random_fires(0, 6),
                      year=2018, workers=4, use_cache=False)
        if any(sp.name == "parallel.fallback" for sp in tracer.finished):
            pytest.skip("no multiprocessing in this environment")
        join = next(sp for sp in tracer.finished
                    if sp.name == "overlay_fires")
        chunks = [sp for sp in tracer.finished
                  if sp.name == "overlay.chunk"]
        assert chunks and all(sp.pid != join.pid for sp in chunks)
        assert all((sp.hwm_kb, sp.rss_kb, sp.hwm_rise_kb)
                   == (sp.pid, sp.pid, 0) for sp in chunks)
        assert (join.hwm_kb, join.rss_kb) == (join.pid, join.pid)

"""Tests for the span tracer and the worker → parent transport."""

from __future__ import annotations

import pytest

from repro import obs
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
                  start=1.5, duration=0.25, attrs={"k": "v"})
        assert Span.from_dict(sp.to_dict()) == sp


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

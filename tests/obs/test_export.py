"""Tests for the Chrome trace / Prometheus / JSONL exporters."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import (
    JsonlSink,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.trace import Span


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.disable()
    obs.get_tracer().clear()
    yield
    obs.disable()
    obs.get_tracer().clear()


def _sample_spans():
    return [
        Span(name="child", span_id=2, parent_id=1, pid=100,
             start=1.010, duration=0.020, attrs={"n": 3}),
        Span(name="root", span_id=1, parent_id=None, pid=100,
             start=1.000, duration=0.050),
        Span(name="worker.chunk", span_id=3, parent_id=1, pid=200,
             start=1.015, duration=0.010, attrs={"hits": 7}),
        Span(name="cache.hit", span_id=4, parent_id=1, pid=100,
             start=1.001, duration=0.0, kind="instant",
             attrs={"tier": "memory"}),
    ]


class TestChromeTrace:
    def test_structure_and_units(self):
        doc = chrome_trace(_sample_spans(), main_pid=100)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        root = next(e for e in complete if e["name"] == "root")
        child = next(e for e in complete if e["name"] == "child")
        # microsecond integers, zeroed at the earliest span
        assert root["ts"] == 0
        assert root["dur"] == 50_000
        assert child["ts"] == 10_000
        assert child["dur"] == 20_000
        # attrs travel in args alongside the tree links
        assert child["args"]["n"] == 3
        assert child["args"]["parent_id"] == 1

    def test_instants_and_worker_tracks(self):
        doc = chrome_trace(_sample_spans(), main_pid=100)
        events = doc["traceEvents"]
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "cache.hit"
        assert instant["s"] == "p"
        # one process_name metadata record per pid; workers are their
        # own Perfetto track
        meta = {e["pid"]: e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert set(meta) == {100, 200}
        assert "worker" in meta[200]
        chunk = next(e for e in events if e.get("name") == "worker.chunk")
        assert chunk["pid"] == 200

    def test_complete_events_carry_memory(self):
        spans = _sample_spans()
        spans[0].hwm_kb, spans[0].hwm_rise_kb, spans[0].rss_kb = \
            4096, 1024, 2048
        events = chrome_trace(spans, main_pid=100)["traceEvents"]
        child = next(e for e in events if e["name"] == "child")
        assert {k: child["args"][k] for k in Span.MEMORY_FIELDS} \
            == {"hwm_kb": 4096, "hwm_rise_kb": 1024, "rss_kb": 2048}
        assert all(set(Span.MEMORY_FIELDS) <= set(e["args"])
                   for e in events if e["ph"] == "X")
        instant = next(e for e in events if e["ph"] == "i")
        assert not set(Span.MEMORY_FIELDS) & set(instant["args"])

    def test_json_serializable(self):
        doc = chrome_trace(_sample_spans())
        parsed = json.loads(json.dumps(doc))
        assert parsed["traceEvents"]

    def test_write_chrome_trace_from_tracer(self, tmp_path):
        tracer = obs.enable()
        with obs.span("outer"):
            with obs.span("inner", k="v"):
                pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert {"outer", "inner"} <= names


class TestPrometheus:
    def test_families_and_values(self):
        snapshot = {
            "timers": {"artifact.hazard": 1.25, "cli.fig7": 2.5},
            "timer_calls": {"artifact.hazard": 2, "cli.fig7": 1},
            "counters": {"cache.hits.memory": 7, "index.candidates": 123},
        }
        text = prometheus_text(snapshot)
        lines = text.splitlines()
        assert "# TYPE repro_stage_seconds_total counter" in lines
        assert ('repro_stage_seconds_total{stage="artifact.hazard"} '
                '1.250000') in lines
        assert 'repro_stage_calls_total{stage="cli.fig7"} 1' in lines
        assert 'repro_events_total{counter="cache.hits.memory"} 7' \
            in lines
        assert text.endswith("\n")

    def test_label_escaping(self):
        snapshot = {"timers": {'we"ird\\name': 1.0},
                    "timer_calls": {'we"ird\\name': 1}, "counters": {}}
        text = prometheus_text(snapshot)
        assert '\\"' in text and "\\\\" in text

    def test_counter_label_escaping_round_trips(self):
        """A stage name holding quotes, backslashes, and a newline must
        land as one valid exposition line whose unescaped label equals
        the original name."""
        name = 'stage "q"\\path\nnext'
        snapshot = {"timers": {name: 0.5}, "timer_calls": {name: 1},
                    "counters": {name: 9}}
        text = prometheus_text(snapshot)
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("repro_events_total"))
        label = line[line.index('{counter="') + len('{counter="'):
                     line.rindex('"}')]
        assert "\n" not in line
        unescaped = label.replace(r"\n", "\n").replace(r"\"", '"') \
            .replace("\\\\", "\\")
        assert unescaped == name

    def test_exposition_order_is_sorted_and_stable(self):
        """Label order must not depend on counter insertion order —
        ledger diffs of the exposition would churn otherwise."""
        a = prometheus_text({"timers": {"b": 1.0, "a": 2.0},
                             "timer_calls": {"b": 1, "a": 1},
                             "counters": {"z.last": 1, "a.first": 2}})
        b = prometheus_text({"timers": {"a": 2.0, "b": 1.0},
                             "timer_calls": {"a": 1, "b": 1},
                             "counters": {"a.first": 2, "z.last": 1}})
        assert a == b
        lines = [ln for ln in a.splitlines()
                 if ln.startswith("repro_events_total")]
        assert lines == sorted(lines)


class TestJsonlSink:
    def test_streams_one_line_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = obs.enable()
        tracer.set_sink(JsonlSink(path))
        with obs.span("a", x=1):
            obs.event("hit")
        obs.disable()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["hit", "a"]
        assert records[0]["type"] == "instant"
        assert records[1]["type"] == "span"
        assert records[1]["attrs"] == {"x": 1}
        assert set(Span.MEMORY_FIELDS) <= set(records[1])

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with JsonlSink(path) as sink:
            sink(Span(name="x", span_id=1, parent_id=None, pid=1,
                      start=0.0, duration=0.1).to_dict())
        assert json.loads(path.read_text())["name"] == "x"

    def test_closes_on_exception_and_keeps_prior_records(self,
                                                         tmp_path):
        """An exception inside the ``with`` body must still close the
        file handle; spans streamed before the failure stay on disk."""
        path = tmp_path / "s.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlSink(path) as sink:
                sink(Span(name="before", span_id=1, parent_id=None,
                          pid=1, start=0.0, duration=0.1).to_dict())
                raise RuntimeError("boom")
        assert sink._fh.closed
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["before"]

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "s.jsonl")
        sink.close()
        sink.close()                      # second close must not raise
        assert sink._fh.closed

    def test_pid_guard_blocks_inherited_sinks(self, tmp_path,
                                              monkeypatch):
        """A child process that inherited the tracer (fork) — or a
        freshly-imported one under the spawn start method — must never
        write to the parent's sink file handle.  The tracer records
        the installing pid and checks it on every record; simulate the
        foreign process by faking ``os.getpid`` at the check site."""
        from repro.obs import trace as trace_mod

        path = tmp_path / "s.jsonl"
        tracer = obs.enable()
        sink = JsonlSink(path)
        tracer.set_sink(sink)
        with obs.span("parent.span"):
            pass
        parent_pid = trace_mod.os.getpid()
        monkeypatch.setattr(trace_mod.os, "getpid",
                            lambda: parent_pid + 1)
        with obs.span("child.span"):
            pass
        monkeypatch.undo()
        sink.close()
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert "parent.span" in names
        assert "child.span" not in names

    def test_spawned_process_cannot_reach_the_parent_sink(self,
                                                          tmp_path):
        """Under the spawn start method the child re-imports the
        module: its tracer must come up with no sink installed, so a
        span recorded there never touches the parent's file."""
        import multiprocessing as mp

        path = tmp_path / "s.jsonl"
        tracer = obs.enable()
        tracer.set_sink(JsonlSink(path))
        ctx = mp.get_context("spawn")
        proc = ctx.Process(target=_spawned_span_worker)
        proc.start()
        proc.join(60)
        assert proc.exitcode == 0
        obs.disable()
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert "spawned.child" not in names


def _spawned_span_worker() -> None:
    """Runs in a spawn-context child: record a span there."""
    from repro import obs as child_obs

    child_obs.enable()
    with child_obs.span("spawned.child"):
        pass
    assert child_obs.get_tracer()._sink is None

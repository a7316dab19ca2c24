"""Tests for the memory-sampling and cProfile hooks."""

from __future__ import annotations

import pstats

import numpy as np
import pytest

from repro.obs import profile as obs_profile
from repro.obs.profile import (
    StageProfiler,
    disable_memory_sampling,
    enable_memory_sampling,
    memory_probe,
    memory_sampling_enabled,
    rss_kb,
)
from repro.obs.trace import Span, span


@pytest.fixture(autouse=True)
def _mem_off():
    yield
    disable_memory_sampling()


def _span() -> Span:
    return Span(name="x", span_id=1, parent_id=None, pid=1, start=0.0)


def test_rss_kb_positive_on_linux():
    value = rss_kb()
    assert value is None or value > 0


def test_probe_noop_when_disabled():
    assert not memory_sampling_enabled()
    sp = _span()
    with memory_probe(sp):
        pass
    assert sp.attrs == {}


def test_probe_attaches_memory_attrs():
    enable_memory_sampling()
    assert memory_sampling_enabled()
    sp = _span()
    with memory_probe(sp):
        blob = np.ones(512 * 1024, dtype=np.uint8)   # 512 KiB
        del blob
    assert sp.attrs["rss_kb_before"] > 0
    assert sp.attrs["rss_kb_after"] > 0
    assert sp.attrs["rss_kb_delta"] == (sp.attrs["rss_kb_after"]
                                        - sp.attrs["rss_kb_before"])
    # tracemalloc was started by enable_memory_sampling, so the Python
    # heap peak over the body is visible too
    assert "py_heap_peak_kb" in sp.attrs


def test_probe_composes_with_null_span():
    """The span handed out while tracing is off keeps no attrs: its
    set() is a no-op, and sampling around it must not raise."""
    enable_memory_sampling()
    with span("x") as sp, memory_probe(sp):
        pass


def test_disable_stops_owned_tracemalloc():
    import tracemalloc
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        pytest.skip("tracemalloc already owned by the test runner")
    enable_memory_sampling()
    assert tracemalloc.is_tracing()
    disable_memory_sampling()
    assert not tracemalloc.is_tracing()
    assert not obs_profile._TRACEMALLOC_OWNED


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

"""Worker state: pool workers hold the parent's universe and its index.

``fan_out`` builds the universe's grid index in the parent before a
pool starts and hands the universe to the pool initializer.  Under
``fork`` every worker inherits the universe and the built index
copy-on-write; under ``spawn`` both arrive in the pickled initializer
arguments.  Either way no worker builds an index.  An index build in
any process is a ``geo.index`` span, and a worker's timer calls come
home in its task's stats delta, so a pooled join whose delta holds no
``geo.index`` call joined against the parent's index.

A worker that dies mid-task breaks its pool; every fan-out path then
returns the serial answer with one ``parallel.fallbacks``, within a
deadline rather than waiting forever.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import overlay as overlay_module
from repro.core.overlay import FireDelta, overlay_fires, update_overlay
from repro.hazard.scenarios import ensemble_impacts
from repro.runtime import STATS, shutdown_pools
from repro.runtime import dispatch as runtime_dispatch
from repro.runtime import pool as runtime_pool

from ..stream.test_stream_differential import growth_snapshots
from .test_differential import assert_identical, random_fires, random_universe


@pytest.fixture(autouse=True)
def _pool_floor(monkeypatch):
    """Small universes must reach the pool, and each test starts one."""
    monkeypatch.setattr(runtime_dispatch, "MIN_PARALLEL_POINTS", 64)
    monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
    monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 8)
    shutdown_pools()
    yield
    shutdown_pools()


def _pooled(join):
    """Run ``join``; check it ran pool tasks without a fallback and
    built no index anywhere.  Returns its result and counters."""
    before = STATS.snapshot()
    result = join()
    delta = STATS.delta_since(before)
    counters = delta["counters"]
    assert counters.get("pool.tasks", 0) > 0, counters
    assert counters.get("parallel.fallbacks", 0) == 0, counters
    assert "geo.index" not in delta["timer_calls"], delta["timer_calls"]
    return result, counters


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_workers_hold_the_parents_index(start_method, monkeypatch):
    monkeypatch.setattr(runtime_pool, "_pool_context",
                        lambda: multiprocessing.get_context(start_method))
    cells = random_universe(21, 3_000)
    fires = random_fires(21, 6)
    cells.index()

    def overlay(fire_list, workers):
        return overlay_fires(cells, fire_list, year=2018,
                             workers=workers, use_cache=False)

    first, _ = _pooled(lambda: overlay(fires, 2))
    assert_identical(first, overlay(fires, 1))
    assert first.n_in_perimeter > 0

    others = random_fires(22, 6)
    second, counters = _pooled(lambda: overlay(others, 2))
    assert counters.get("pool.reused", 0) >= 1
    assert counters.get("pool.created", 0) == 0
    assert_identical(second, overlay(others, 1))

    ticks = growth_snapshots(21, 6, n_ticks=2)
    prev = overlay(ticks[0], 1)
    deltas = [FireDelta(fire=fire) for fire in ticks[1]]
    ticked, _ = _pooled(lambda: update_overlay(cells, prev, deltas,
                                               workers=2))
    serial = update_overlay(cells, prev, deltas, workers=1)
    assert_identical(ticked, serial)
    for name, hits in serial.per_fire_hits.items():
        assert np.array_equal(ticked.per_fire_hits[name], hits)

    holder = SimpleNamespace(cells=cells)
    members = [fires[:3], fires[3:], others]
    impacts, _ = _pooled(lambda: ensemble_impacts(holder, members, 2018,
                                                  workers=2))
    assert impacts == ensemble_impacts(holder, members, 2018, workers=1)


def test_parent_builds_the_index_before_the_pool_starts():
    """A universe's first pooled join builds its index once, in the
    parent; a worker build would add calls and leave the parent's
    index unbuilt."""
    cells = random_universe(23, 3_000)
    before = STATS.snapshot()
    overlay_fires(cells, random_fires(23, 6), year=2018, workers=2,
                  use_cache=False)
    delta = STATS.delta_since(before)
    assert delta["counters"].get("pool.tasks", 0) > 0
    assert delta["timer_calls"].get("geo.index") == 1
    before = STATS.snapshot()
    cells.index()
    assert "geo.index" not in STATS.delta_since(before)["timer_calls"]


class _Hung(Exception):
    """The deadline passed while a join waited on its pool."""


@contextmanager
def _deadline(seconds: int = 60):
    """Turn a hang into a test failure (``_Hung`` is no pool error, so
    ``run_tasks`` cannot swallow it as a fallback)."""
    def expire(signum, frame):
        raise _Hung(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _die_in_worker(parent_pid: int) -> int:
    """A task that SIGKILLs the worker running it (never the parent)."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return parent_pid


def _square(x: int) -> int:
    return x * x


def test_dead_worker_falls_back_to_serial():
    """A worker killed mid-task breaks its pool: ``run_tasks`` reports
    ``None`` within seconds and counts one fallback, the next call
    starts a fresh pool, and pooled joins still equal serial ones."""
    with _deadline():
        before = STATS.snapshot()
        t0 = time.perf_counter()
        got = runtime_pool.run_tasks("doomed", 2, b"t", _die_in_worker,
                                     [os.getpid()] * 4)
        elapsed = time.perf_counter() - t0
        counters = STATS.delta_since(before)["counters"]
        assert got is None
        assert elapsed < 30.0
        assert counters.get("parallel.fallbacks", 0) == 1
        assert runtime_pool.active_pools() == []

        before = STATS.snapshot()
        assert runtime_pool.run_tasks("doomed", 2, b"t", _square,
                                      [1, 2, 3]) == [1, 4, 9]
        counters = STATS.delta_since(before)["counters"]
        assert counters.get("pool.created", 0) == 1
        assert counters.get("parallel.fallbacks", 0) == 0

    cells = random_universe(24, 3_000)
    fires = random_fires(24, 6)
    cells.index()
    pooled, _ = _pooled(lambda: overlay_fires(cells, fires, year=2018,
                                              workers=2, use_cache=False))
    assert_identical(pooled, overlay_fires(cells, fires, year=2018,
                                           workers=1, use_cache=False))


@pytest.mark.parametrize("path", ["overlay", "delta", "ensemble"])
def test_worker_killed_mid_join_gives_the_serial_answer(path, monkeypatch):
    """On each fan-out path, workers that die inside the join leave the
    serial answer and one fallback, and the broken pool is gone."""
    parent = os.getpid()
    join_items = overlay_module.join_items

    def dying_join_items(index, items):
        _die_in_worker(parent)
        return join_items(index, items)

    monkeypatch.setattr(overlay_module, "join_items", dying_join_items)
    cells = random_universe(25, 3_000)
    fires = random_fires(25, 6)
    cells.index()
    if path == "overlay":
        def join(workers):
            return overlay_fires(cells, fires, year=2018,
                                 workers=workers, use_cache=False)
    elif path == "delta":
        ticks = growth_snapshots(25, 6, n_ticks=2)
        prev = overlay_fires(cells, ticks[0], year=2018, workers=1,
                             use_cache=False)
        deltas = [FireDelta(fire=fire) for fire in ticks[1]]

        def join(workers):
            return update_overlay(cells, prev, deltas, workers=workers)
    else:
        holder = SimpleNamespace(cells=cells)
        members = [fires[:3], fires[3:], random_fires(26, 6)]

        def join(workers):
            return ensemble_impacts(holder, members, 2018,
                                    workers=workers)

    with _deadline():
        before = STATS.snapshot()
        pooled = join(2)
        counters = STATS.delta_since(before)["counters"]
    assert counters.get("pool.created", 0) == 1, counters
    assert counters.get("parallel.fallbacks", 0) == 1, counters
    assert runtime_pool.active_pools() == []
    serial = join(1)
    if path == "ensemble":
        assert pooled == serial
    else:
        assert_identical(pooled, serial)


def test_pool_never_imports_shared_memory():
    """With ``multiprocessing.shared_memory`` blocked, a pooled overlay
    of a universe above 65,536 points still equals the serial one."""
    code = textwrap.dedent("""
        import sys
        sys.modules["multiprocessing.shared_memory"] = None
        from repro.core.overlay import overlay_fires
        from repro.runtime import STATS, dispatch
        from tests.runtime.test_differential import (
            assert_identical, random_fires, random_universe)

        dispatch.OVERLAY_WORK_FACTOR = 1
        dispatch.CPU_COUNT_OVERRIDE = 2
        cells = random_universe(31, 70_000)
        fires = random_fires(31, 6)
        pooled = overlay_fires(cells, fires, year=2018, workers=2,
                               use_cache=False)
        counters = STATS.snapshot()["counters"]
        assert counters.get("pool.tasks", 0) > 0, counters
        assert counters.get("parallel.fallbacks", 0) == 0, counters
        assert_identical(pooled, overlay_fires(
            cells, fires, year=2018, workers=1, use_cache=False))
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300,
                          cwd=Path(__file__).resolve().parents[2],
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr

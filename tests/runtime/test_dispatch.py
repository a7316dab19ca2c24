"""Tests for the adaptive serial/parallel dispatcher.

The dispatcher's contract is one-sided: parallel must never be chosen
where it would lose.  These tests pin the serial decisions below every
gate of :func:`dispatch.plan` (work floor, crossover, unit count, core
budget) and the resolved worker counts above them; check that a delta
tick meets each gate exactly where an overlay of the same fires does,
the crossover pinned on both sides of the tick's candidate count; and
prove end to end that sub-crossover and core-starved
fan-outs with ``workers > 1``, and every WHP classification, never
touch the pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import overlay as overlay_module
from repro.core.overlay import FireDelta, overlay_fires, update_overlay
from repro.runtime import active_pools, shutdown_pools
from repro.runtime import dispatch
from repro.runtime.stats import STATS

from ..stream.test_stream_differential import growth_snapshots
from .test_differential import random_universe


@pytest.fixture(autouse=True)
def _stable_knobs(monkeypatch):
    """Pin the floor and pretend the machine has 8 cores."""
    monkeypatch.setattr(dispatch, "MIN_PARALLEL_POINTS", 1_000)
    monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 8)


class TestCpuBudget:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 3)
        assert dispatch.cpu_budget() == 3

    def test_override_floor_is_one(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 0)
        assert dispatch.cpu_budget() == 1

    def test_no_override_uses_machine(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", None)
        assert dispatch.cpu_budget() >= 1


class TestOverlayWorkers:
    """The one rule: work is the join's candidate count against the
    crossover ``MIN_PARALLEL_POINTS × OVERLAY_WORK_FACTOR``; units are
    fires, changed fires or ensemble members."""

    @property
    def crossover(self) -> int:
        return dispatch.MIN_PARALLEL_POINTS * dispatch.OVERLAY_WORK_FACTOR

    def test_serial_when_one_requested(self):
        assert dispatch.plan(1, 10**9, 10 * self.crossover, 10**3) == 1

    def test_serial_below_point_floor(self):
        assert dispatch.plan(4, 999, 10 * self.crossover, 10**6) == 1

    def test_serial_below_crossover(self):
        assert dispatch.plan(4, 10_000, self.crossover - 1, 10**3) == 1

    def test_parallel_at_crossover(self):
        assert dispatch.plan(4, 10_000, self.crossover, 10**3) == 4

    def test_never_more_than_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 2)
        assert dispatch.plan(16, 10**9, 10 * self.crossover, 10**4) == 2

    def test_serial_below_fire_floor(self):
        assert dispatch.plan(4, 10**9, 10**9, 1) == 1

    def test_never_more_than_fires(self):
        n_points = self.crossover
        assert dispatch.plan(8, n_points, n_points * 3, 3) == 3


class TestDeltaWorkers:
    """A delta tick pools exactly when an overlay of the same fires
    does, gate by gate.

    Work is the join's candidate count: the crossover is set half a
    candidate below the tick's count (the work clears it) or half a
    candidate above it (it does not).  The pool is replaced by a
    recorder that reports it unavailable: each join records the
    workers it planned, answers serially and forks nothing.
    """

    @pytest.fixture(autouse=True)
    def _recorded_pool(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.requests: list[int] = []

        def unavailable(name, workers, token, fn, tasks, **kwargs):
            self.requests.append(workers)
            return None

        monkeypatch.setattr(overlay_module, "run_tasks", unavailable)

    def _planned(self) -> int:
        """Workers the last join asked the pool for (1: none)."""
        planned = self.requests[0] if self.requests else 1
        self.requests.clear()
        return planned

    def plan(self, requested: int, n_points: int, n_fires: int, *,
             margin: float = -0.5) -> int:
        """Workers one growth tick of ``n_fires`` changed fronts plans
        with the crossover ``margin`` candidates off the tick's count;
        asserts an overlay of the same fires plans the same."""
        cells = random_universe(41, n_points)
        ticks = growth_snapshots(41, n_fires, n_ticks=2)
        prev = overlay_fires(cells, ticks[0], year=2018, workers=1,
                             use_cache=False)
        deltas = [FireDelta(fire=fire) for fire in ticks[1]]
        assert len(deltas) == n_fires
        boxes = [(b.min_lon, b.min_lat, b.max_lon, b.max_lat)
                 for b in (fire.polygon.bbox for fire in ticks[1])]
        work = cells.index().candidate_count(boxes)
        assert 0 < work <= n_points * n_fires
        self.monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR",
                                 (work + margin)
                                 / dispatch.MIN_PARALLEL_POINTS)
        self.requests.clear()
        update_overlay(cells, prev, deltas, workers=requested)
        tick = self._planned()
        overlay_fires(cells, ticks[1], year=2018, workers=requested,
                      use_cache=False)
        assert self._planned() == tick
        return tick

    def test_serial_when_one_requested(self):
        assert self.plan(1, 2_000, 4) == 1

    def test_serial_below_point_floor(self):
        assert self.plan(4, 999, 8) == 1

    def test_serial_below_crossover(self):
        assert self.plan(4, 1_000, 4, margin=0.5) == 1

    def test_parallel_at_crossover(self):
        assert self.plan(4, 1_000, 4) == 4

    def test_never_more_than_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 2)
        assert self.plan(16, 2_000, 8) == 2

    def test_serial_below_fire_floor(self):
        assert self.plan(4, 10_000, 1) == 1

    def test_never_more_than_fires(self):
        assert self.plan(8, 2_000, 3) == 3


class TestPlanTable:
    def test_work_factor_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR", 1)
        assert dispatch.plan(4, 10_000, 1_000, 2) == 2


class TestDispatchEndToEnd:
    def test_small_overlay_never_touches_pool(self):
        """workers=4 on a sub-crossover join stays strictly serial."""
        from repro.data.cells import CellUniverse
        from repro.data.wildfires import FirePerimeter, star_polygon

        rng = np.random.default_rng(0)
        n = 2_000
        cells = CellUniverse(
            lons=rng.uniform(-112.0, -104.0, n),
            lats=rng.uniform(33.0, 41.0, n),
            site_ids=np.arange(n, dtype=np.int64),
            mcc=np.full(n, 310, dtype=np.int32),
            mnc=np.zeros(n, dtype=np.int32),
            provider_group=np.zeros(n, dtype=np.int8),
            radio=np.zeros(n, dtype=np.int8),
        )
        fires = []
        for i in range(4):
            poly = star_polygon(rng.uniform(-111, -105),
                                rng.uniform(34, 40), 200_000.0, rng)
            fires.append(FirePerimeter(
                name=f"F{i}", year=2018, start_doy=150, end_doy=160,
                acres=200_000.0, polygon=poly))

        before = STATS.snapshot()
        overlay_fires(cells, fires, year=2018, workers=4,
                      use_cache=False)
        delta = STATS.delta_since(before)["counters"]
        assert delta.get("parallel.pool_runs", 0) == 0
        assert delta.get("pool.created", 0) == 0
        assert delta.get("parallel.fallbacks", 0) == 0

    def test_one_core_never_creates_a_pool(self, universe, monkeypatch):
        """Crossovers lowered, one core: no caller may fork.

        Every fan-out — batch overlay, delta tick, scenario ensemble,
        and the scenario stage on top of it — takes its worker count
        from the one plan, so a one-core budget keeps all of them
        serial even with ``workers=8`` requested.
        """
        from repro.hazard.scenarios import (
            ensemble_impacts,
            get_scenario,
            run_scenario,
        )

        monkeypatch.setattr(dispatch, "MIN_PARALLEL_POINTS", 64)
        monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR", 1)
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 1)
        shutdown_pools()

        cells = universe.cells
        fires = universe.fire_season(2018).fires
        scenario = get_scenario("grid-ignition-season")
        members = [scenario.hazard.ensemble_member(universe,
                                                   scenario.year, m)
                   for m in range(4)]

        before = STATS.snapshot()
        prev = overlay_fires(cells, fires[:-2], year=2018, workers=8,
                             use_cache=False)
        update_overlay(cells, prev,
                       [FireDelta(fire=f) for f in fires[-2:]],
                       workers=8)
        ensemble_impacts(universe, members, scenario.year, workers=8)
        run_scenario(universe, "grid-ignition-season", members=2,
                     workers=8)
        counters = STATS.delta_since(before)["counters"]

        assert counters.get("pool.created", 0) == 0
        assert counters.get("pool.tasks", 0) == 0
        assert active_pools() == []

    def test_classify_never_creates_a_pool(self, universe, monkeypatch):
        """Crossovers lowered, eight cores, ``workers=8`` configured:
        the WHP classification still samples in-process."""
        from repro.core.overlay import classify_cells
        from repro.runtime import configure, get_config, set_config

        monkeypatch.setattr(dispatch, "MIN_PARALLEL_POINTS", 64)
        monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR", 1)
        shutdown_pools()
        previous = get_config()
        configure(workers=8)
        try:
            before = STATS.snapshot()
            classes = classify_cells(universe.cells, universe.whp,
                                     use_cache=False)
            counters = STATS.delta_since(before)["counters"]
        finally:
            set_config(previous)

        assert np.array_equal(classes, universe.whp.classify(
            universe.cells.lons, universe.cells.lats))
        assert counters.get("pool.created", 0) == 0
        assert counters.get("pool.tasks", 0) == 0
        assert active_pools() == []

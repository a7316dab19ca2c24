"""Tests for the adaptive serial/parallel dispatcher.

The dispatcher's contract is one-sided: parallel must never be chosen
where it would lose.  These tests pin the serial decisions below every
gate of :func:`dispatch.plan` (work floor, crossover, unit count, core
budget) and the resolved worker counts above them, once per kind — plus
end-to-end regressions proving that sub-crossover and core-starved
fan-outs with ``workers > 1`` never touch the pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import active_pools, shutdown_pools
from repro.runtime import config as runtime_config
from repro.runtime import dispatch
from repro.runtime.stats import STATS


@pytest.fixture(autouse=True)
def _stable_knobs(monkeypatch):
    """Pin the floor and pretend the machine has 8 cores."""
    monkeypatch.setattr(runtime_config, "MIN_PARALLEL_POINTS", 1_000)
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


class _PlanGates:
    """The gates every kind shares, written once; subclasses pick the
    kind and add its unit gates.  ``work`` is given against the kind's
    crossover, ``MIN_PARALLEL_POINTS × <KIND>_WORK_FACTOR``."""

    kind = ""

    def plan(self, requested, n_points, work, units):
        return dispatch.plan(self.kind, requested, n_points, work, units)

    @property
    def crossover(self) -> int:
        factor = getattr(dispatch, f"{self.kind.upper()}_WORK_FACTOR")
        return runtime_config.MIN_PARALLEL_POINTS * factor

    def test_serial_when_one_requested(self):
        assert self.plan(1, 10**9, 10 * self.crossover, 10**3) == 1

    def test_serial_below_point_floor(self):
        assert self.plan(4, 999, 10 * self.crossover, 10**6) == 1

    def test_serial_below_crossover(self):
        assert self.plan(4, 10_000, self.crossover - 1, 10**3) == 1

    def test_parallel_at_crossover(self):
        assert self.plan(4, 10_000, self.crossover, 10**3) == 4

    def test_never_more_than_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(dispatch, "CPU_COUNT_OVERRIDE", 2)
        assert self.plan(16, 10**9, 10 * self.crossover, 10**4) == 2


class TestOverlayWorkers(_PlanGates):
    """Batch overlays and ensembles: work is points × events, units are
    fires (or members)."""

    kind = "overlay"

    def test_serial_below_fire_floor(self):
        assert self.plan(4, 10**9, 10**9, 1) == 1

    def test_never_more_than_fires(self):
        n_points = self.crossover
        assert self.plan(8, n_points, n_points * 3, 3) == 3


class TestDeltaWorkers(TestOverlayWorkers):
    """Delta ticks: the overlay's gates against the delta crossover;
    units are changed fires."""

    kind = "delta"


class TestClassifyWorkers(_PlanGates):
    """Raster classify: work is points, and so are units."""

    kind = "classify"

    def test_never_more_than_chunks(self):
        n_points = self.crossover
        assert self.plan(8, n_points, n_points, 1) == 1


class TestPlanTable:
    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            dispatch.plan("nope", 4, 10**9, 10**18, 10)

    def test_work_factor_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(dispatch, "DELTA_WORK_FACTOR", 1)
        assert dispatch.plan("delta", 4, 10_000, 1_000, 2) == 2


class TestDispatchEndToEnd:
    def test_small_overlay_never_touches_pool(self):
        """workers=4 on a sub-crossover join stays strictly serial."""
        from repro.core.overlay import overlay_fires
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

        Every fan-out — batch overlay, delta tick, classify, scenario
        ensemble, and the scenario stage on top of it — takes its
        worker count from the one plan, so a one-core budget keeps all
        of them serial even with ``workers=8`` requested.
        """
        from repro.core.overlay import (
            FireDelta,
            classify_cells,
            overlay_fires,
            update_overlay,
        )
        from repro.hazard.scenarios import (
            ensemble_impacts,
            get_scenario,
            run_scenario,
        )

        monkeypatch.setattr(runtime_config, "MIN_PARALLEL_POINTS", 64)
        monkeypatch.setattr(dispatch, "OVERLAY_WORK_FACTOR", 1)
        monkeypatch.setattr(dispatch, "CLASSIFY_WORK_FACTOR", 1)
        monkeypatch.setattr(dispatch, "DELTA_WORK_FACTOR", 1)
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
        classify_cells(cells, universe.whp, workers=8, use_cache=False)
        ensemble_impacts(universe, members, scenario.year, workers=8)
        run_scenario(universe, "grid-ignition-season", members=2,
                     workers=8)
        counters = STATS.delta_since(before)["counters"]

        assert counters.get("pool.created", 0) == 0
        assert counters.get("pool.tasks", 0) == 0
        assert active_pools() == []

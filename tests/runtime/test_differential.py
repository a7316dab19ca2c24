"""Differential tests: parallel == serial == bruteforce.

The runtime's optimization contract is that the sharded/parallel and
cached paths are *bit-identical* to the serial bruteforce reference on
any input.  These tests enforce it on randomized universes across
seeds × worker counts × universe sizes, including the degenerate
inputs (empty fire list, single-point universe, fewer points than fires
can be sliced over) where sharding logic usually breaks.  Raster
classification always runs in-process; its tests pin that the worker
request changes nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.overlay import (
    classify_cells,
    overlay_fires,
    overlay_fires_bruteforce,
)
from repro.data.cells import CellUniverse
from repro.data.wildfires import FirePerimeter, star_polygon
from repro.runtime import configure, get_config, set_config, shutdown_pools
from repro.runtime import dispatch as runtime_dispatch


@pytest.fixture(autouse=True)
def _small_parallel_floor(monkeypatch):
    """Let tiny test universes exercise the real parallel path.

    The adaptive dispatcher would (correctly) keep every one of these
    joins serial: the work floor, the work crossover, and the machine's
    core budget all gate the pool.  Patch all three down so the actual
    pool machinery runs; results must still be bit-identical.
    """
    monkeypatch.setattr(runtime_dispatch, "MIN_PARALLEL_POINTS", 64)
    monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
    monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 8)
    yield
    shutdown_pools()


@contextmanager
def _requested_workers(workers: int):
    """The runtime config's ``workers`` set to ``workers`` meanwhile."""
    previous = get_config()
    configure(workers=workers)
    try:
        yield
    finally:
        set_config(previous)


def random_universe(seed: int, n: int) -> CellUniverse:
    """A bare point universe clustered where the fires will be."""
    rng = np.random.default_rng(seed)
    lons = rng.uniform(-112.0, -104.0, n)
    lats = rng.uniform(33.0, 41.0, n)
    return CellUniverse(
        lons=lons, lats=lats,
        site_ids=np.arange(n, dtype=np.int64),
        mcc=np.full(n, 310, dtype=np.int32),
        mnc=np.zeros(n, dtype=np.int32),
        provider_group=np.zeros(n, dtype=np.int8),
        radio=np.zeros(n, dtype=np.int8),
    )


def random_fires(seed: int, k: int, year: int = 2018) -> list[FirePerimeter]:
    """Irregular star perimeters inside the universe's extent."""
    rng = np.random.default_rng(seed + 1000)
    fires = []
    for i in range(k):
        lon = rng.uniform(-111.0, -105.0)
        lat = rng.uniform(34.0, 40.0)
        acres = float(rng.uniform(50_000, 2_000_000))
        poly = star_polygon(lon, lat, acres, rng)
        fires.append(FirePerimeter(
            name=f"Fire-{seed}-{i}", year=year, start_doy=150 + i,
            end_doy=160 + i, acres=acres, polygon=poly))
    return fires


def assert_identical(a, b):
    """Masks and per-fire counts agree exactly."""
    assert a.in_perimeter_mask.dtype == b.in_perimeter_mask.dtype
    assert (a.in_perimeter_mask == b.in_perimeter_mask).all()
    assert a.per_fire_counts == b.per_fire_counts
    assert a.year == b.year
    assert a.n_fires == b.n_fires


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("n_points", [333, 1024, 10_000])
def test_overlay_matches_bruteforce(seed, workers, n_points):
    cells = random_universe(seed, n_points)
    fires = random_fires(seed, 5)
    reference = overlay_fires_bruteforce(cells, fires, year=2018)
    assert reference.n_in_perimeter > 0, "fires must actually hit points"
    result = overlay_fires(cells, fires, year=2018, workers=workers,
                           use_cache=False)
    assert_identical(result, reference)


def test_overlay_chunk_boundaries_do_not_leak():
    """A universe smaller than any useful shard still matches."""
    cells = random_universe(11, 150)
    fires = random_fires(11, 3)
    reference = overlay_fires_bruteforce(cells, fires, year=2018)
    assert reference.n_in_perimeter > 0, "fires must actually hit points"
    result = overlay_fires(cells, fires, year=2018, workers=2,
                           use_cache=False)
    assert_identical(result, reference)


@pytest.mark.parametrize("workers", [1, 4])
def test_overlay_empty_fire_list(workers):
    cells = random_universe(7, 500)
    result = overlay_fires(cells, [], year=2001, workers=workers,
                           use_cache=False)
    reference = overlay_fires_bruteforce(cells, [], year=2001)
    assert_identical(result, reference)
    assert result.n_in_perimeter == 0
    assert result.per_fire_counts == {}
    assert result.year == 2001


@pytest.mark.parametrize("workers", [1, 4])
def test_overlay_single_point(workers):
    fires = random_fires(3, 4)
    # One point dead-center in the first fire, one far outside any.
    inside = fires[0].polygon.centroid()
    for lon, lat, expect in ((inside.lon, inside.lat, None),
                             (-80.0, 27.0, 0)):
        cells = random_universe(0, 1)
        cells.lons[:] = lon
        cells.lats[:] = lat
        reference = overlay_fires_bruteforce(cells, fires, year=2018)
        result = overlay_fires(cells, fires, year=2018, workers=workers,
                               use_cache=False)
        assert_identical(result, reference)
        if expect is not None:
            assert result.n_in_perimeter == expect


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cached_result_identical(seed, workers, tmp_path):
    """Cold compute and disk hits (same and fresh cache object) all
    return the same bits, footprints included."""
    from repro.runtime import ResultCache, set_cache

    cells = random_universe(seed, 2_000)
    fires = random_fires(seed, 4)
    reference = overlay_fires_bruteforce(cells, fires, year=2018)

    set_cache(ResultCache(tmp_path))
    try:
        cold = overlay_fires(cells, fires, year=2018, workers=workers,
                             use_cache=True)
        warm = overlay_fires(cells, fires, year=2018, workers=workers,
                             use_cache=True)
        set_cache(ResultCache(tmp_path))
        fresh = overlay_fires(cells, fires, year=2018, workers=workers,
                              use_cache=True)
        for name, hits in reference.per_fire_hits.items():
            assert np.array_equal(np.sort(cold.per_fire_hits[name]), hits)
        for result in (cold, warm, fresh):
            assert_identical(result, reference)
            assert result.per_fire_hits.keys() == cold.per_fire_hits.keys()
            for name, hits in cold.per_fire_hits.items():
                assert np.array_equal(result.per_fire_hits[name], hits)
    finally:
        set_cache(None)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("n_points", [10, 200, 4096])
def test_classify_matches_serial(universe, workers, n_points):
    """Raster classification equals the plain vectorized sample and
    runs in-process whatever the configured worker request."""
    from repro.runtime import STATS

    cells = universe.cells.subset(np.arange(n_points))
    reference = universe.whp.classify(cells.lons, cells.lats)
    with _requested_workers(workers):
        before = STATS.snapshot()
        got = classify_cells(cells, universe.whp, use_cache=False)
    counters = STATS.delta_since(before)["counters"]
    assert got.dtype == reference.dtype
    assert (got == reference).all()
    assert counters.get("pool.tasks", 0) == 0


def test_overlay_on_real_universe_seasons(universe):
    """The synthetic-US fire seasons join identically on every path."""
    cells = universe.cells
    for year in (2018, 2019):
        fires = universe.fire_season(year).fires
        reference = overlay_fires_bruteforce(cells, fires, year=year)
        serial = overlay_fires(cells, fires, year=year, workers=1,
                               use_cache=False)
        parallel = overlay_fires(cells, fires, year=year, workers=4,
                                 use_cache=False)
        assert_identical(serial, reference)
        assert_identical(parallel, reference)


# ----------------------------------------------------------------------
# Counter parity: the worker -> parent stats merge must account for
# every index query, not just produce the right mask.  Each fire is
# evaluated by exactly one worker against the same full-universe index
# the serial loop queries, so the *totals* of every index counter are
# identical by construction -- if the merge drops or double-counts a
# worker delta, this is the test that notices.
# ----------------------------------------------------------------------

def _index_counters(before: dict) -> dict[str, int]:
    """Index-family counter deltas accumulated since ``before``."""
    from repro.runtime import STATS
    counters = STATS.delta_since(before)["counters"]
    return {k: v for k, v in counters.items() if k.startswith("index.")}


def test_overlay_counter_totals_serial_vs_parallel():
    from repro.runtime import STATS

    cells = random_universe(4, 3_000)
    fires = random_fires(4, 8)
    cells.index()                      # memoized build outside the brackets

    before = STATS.snapshot()
    serial = overlay_fires(cells, fires, year=2018, workers=1,
                           use_cache=False)
    serial_counters = _index_counters(before)

    shutdown_pools()                   # force fresh workers (fresh deltas)
    before = STATS.snapshot()
    parallel = overlay_fires(cells, fires, year=2018, workers=4,
                             use_cache=False)
    after = STATS.delta_since(before)["counters"]
    parallel_counters = {k: v for k, v in after.items()
                         if k.startswith("index.")}

    assert_identical(serial, parallel)
    assert serial_counters, "serial run must exercise the index"
    assert serial_counters == parallel_counters
    if after.get("parallel.fallbacks", 0) == 0:
        # the pool genuinely ran: the parity above covered the merge
        assert after.get("parallel.pool_runs", 0) >= 1


def growth_pair(seed: int, k: int):
    """(shrunken, grown) perimeter lists for the same k fires.

    Each shrunken fire is the grown one scaled about its generation
    center, so growth is monotone — the delta-query contract.
    """
    from repro.data.wildfires import interpolated_perimeter

    rng = np.random.default_rng(seed + 1000)
    prev, grown = [], []
    for i in range(k):
        lon = rng.uniform(-111.0, -105.0)
        lat = rng.uniform(34.0, 40.0)
        acres = float(rng.uniform(50_000, 2_000_000))
        poly = star_polygon(lon, lat, acres, rng)
        fire = FirePerimeter(
            name=f"Fire-{seed}-{i}", year=2018, start_doy=150 + i,
            end_doy=160 + i, acres=acres, polygon=poly)
        grown.append(fire)
        prev.append(interpolated_perimeter(fire, lon, lat, 0.6))
    return prev, grown


def test_update_counter_totals_delta_vs_full():
    """The delta tick accounts for exactly the batch join's work."""
    from repro.core.overlay import FireDelta, update_overlay
    from repro.runtime import STATS

    cells = random_universe(6, 3_000)
    prev_fires, grown = growth_pair(6, 6)
    cells.index()

    prev = overlay_fires(cells, prev_fires, year=2018, workers=1,
                         use_cache=False)

    before = STATS.snapshot()
    full = overlay_fires(cells, grown, year=2018, workers=1,
                         use_cache=False)
    full_counters = _index_counters(before)

    before = STATS.snapshot()
    updated = update_overlay(cells, prev,
                             [FireDelta(fire=f) for f in grown],
                             workers=1)
    delta_counters = _index_counters(before)

    assert_identical(updated, full)
    for key in ("index.bbox_queries", "index.polygon_queries",
                "index.candidates", "index.hits", "index.pip_hits"):
        assert delta_counters.get(key, 0) \
            == full_counters.get(key, 0), key
    n_prev = sum(len(h) for h in prev.per_fire_hits.values())
    assert delta_counters.get("index.pip_skipped", 0) == n_prev
    assert delta_counters.get("index.pip_tests", 0) + n_prev \
        == full_counters.get("index.pip_tests", 0)
    assert delta_counters.get("index.delta_queries", 0) == len(grown)
    assert full_counters.get("index.delta_queries", 0) == 0


def test_update_counter_totals_serial_vs_parallel():
    """Pool-dispatched delta ticks merge every worker counter back."""
    from repro.core.overlay import FireDelta, update_overlay
    from repro.runtime import STATS

    cells = random_universe(9, 3_000)
    prev_fires, grown = growth_pair(9, 8)
    cells.index()
    prev = overlay_fires(cells, prev_fires, year=2018, workers=1,
                         use_cache=False)
    deltas = [FireDelta(fire=f) for f in grown]

    before = STATS.snapshot()
    serial = update_overlay(cells, prev, deltas, workers=1)
    serial_counters = _index_counters(before)

    shutdown_pools()
    before = STATS.snapshot()
    parallel = update_overlay(cells, prev, deltas, workers=4)
    after = STATS.delta_since(before)["counters"]
    parallel_counters = {k: v for k, v in after.items()
                         if k.startswith("index.")}

    assert_identical(serial, parallel)
    for name in serial.per_fire_hits:
        assert np.array_equal(serial.per_fire_hits[name],
                              parallel.per_fire_hits[name])
    assert serial_counters, "serial tick must exercise the index"
    assert serial_counters == parallel_counters
    if after.get("parallel.fallbacks", 0) == 0:
        assert after.get("parallel.pool_runs", 0) >= 1


def test_classify_counter_totals_serial_vs_parallel(universe):
    """Each point is sampled once, in-process, at any worker request."""
    from repro.runtime import STATS

    cells = universe.cells
    reference = universe.whp.classify(cells.lons, cells.lats)
    for workers in (1, 4):
        with _requested_workers(workers):
            before = STATS.snapshot()
            classes = classify_cells(cells, universe.whp,
                                     use_cache=False)
        counters = STATS.delta_since(before)["counters"]
        assert (classes == reference).all()
        assert counters.get("raster.samples", 0) == len(cells)
        assert counters.get("pool.tasks", 0) == 0

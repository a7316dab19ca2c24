"""Differential suite: folded delta ticks == batch == bruteforce.

The incremental engine's contract is *exactness*: after any monotone
growth sequence, folding :func:`update_overlay` over the ticks yields
the same bits a from-scratch :func:`overlay_fires` (and the
index-free bruteforce) produces on the final perimeters — per tick,
across seeds × worker counts, on every dispatch path (serial, pool,
shared-memory), and at every scale stratum the pipeline runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.overlay import (
    FireDelta,
    empty_overlay,
    overlay_fires,
    overlay_fires_bruteforce,
    update_overlay,
)
from repro.data.wildfires import interpolated_perimeter
from repro.runtime import dispatch as runtime_dispatch
from repro.runtime import shutdown_pools

from ..runtime.test_differential import (
    assert_identical,
    random_fires,
    random_universe,
)


@pytest.fixture(autouse=True)
def _small_parallel_floor(monkeypatch):
    """Drop every dispatch floor so tiny ticks exercise the pool."""
    monkeypatch.setattr(runtime_dispatch, "MIN_PARALLEL_POINTS", 64)
    monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
    monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 8)
    yield
    shutdown_pools()


def growth_snapshots(seed: int, k: int, n_ticks: int = 4):
    """Monotone growth snapshots with staggered ignitions.

    Fire ``i`` ignites at tick ``i % n_ticks`` and grows linearly to
    its full perimeter by the final tick (scaled about its generation
    center, so containment is exact).
    """
    rng = np.random.default_rng(seed + 1000)
    fires, centers = [], []
    for i in range(k):
        lon = rng.uniform(-111.0, -105.0)
        lat = rng.uniform(34.0, 40.0)
        acres = float(rng.uniform(50_000, 2_000_000))
        from repro.data.wildfires import FirePerimeter, star_polygon
        poly = star_polygon(lon, lat, acres, rng)
        fires.append(FirePerimeter(
            name=f"Fire-{seed}-{i}", year=2018, start_doy=150 + i,
            end_doy=160 + i, acres=acres, polygon=poly))
        centers.append((lon, lat))

    snapshots = []
    for t in range(n_ticks):
        snap = []
        for i, (fire, (lon, lat)) in enumerate(zip(fires, centers)):
            ignition = i % n_ticks
            if t < ignition:
                continue
            if ignition == n_ticks - 1 or t == n_ticks - 1:
                frac = 1.0
            else:
                frac = 0.3 + 0.7 * (t - ignition) \
                    / (n_ticks - 1 - ignition)
            snap.append(interpolated_perimeter(fire, lon, lat, frac))
        snapshots.append(snap)
    return snapshots


def fold(cells, snapshots, workers):
    """Fold the snapshots through update_overlay, tick by tick."""
    state = empty_overlay(cells, 2018)
    tokens = {}
    per_tick = []
    for snap in snapshots:
        deltas = []
        for fire in snap:
            token = fire.polygon.exterior.tobytes()
            if tokens.get(fire.name) != token:
                deltas.append(FireDelta(fire=fire))
                tokens[fire.name] = token
        state = update_overlay(cells, state, deltas, workers=workers)
        per_tick.append(state)
    return per_tick


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workers", [1, 4])
def test_fold_matches_batch_every_tick(seed, workers):
    """Each folded tick equals the batch join on that tick's fires."""
    cells = random_universe(seed, 3_000)
    snapshots = growth_snapshots(seed, 5, n_ticks=4)
    per_tick = fold(cells, snapshots, workers)
    for snap, state in zip(snapshots, per_tick):
        batch = overlay_fires(cells, snap, year=2018, workers=1,
                              use_cache=False)
        assert state.in_perimeter_mask.tobytes() \
            == batch.in_perimeter_mask.tobytes()
        assert state.per_fire_counts == batch.per_fire_counts
        assert state.n_fires == batch.n_fires


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("workers", [1, 4])
def test_fold_matches_bruteforce_final(seed, workers):
    cells = random_universe(seed, 2_000)
    snapshots = growth_snapshots(seed, 4, n_ticks=3)
    final = fold(cells, snapshots, workers)[-1]
    reference = overlay_fires_bruteforce(cells, snapshots[-1],
                                         year=2018)
    assert_identical(final, reference)


@pytest.mark.parametrize("workers", [1, 4])
def test_fold_per_fire_hits_match_batch(workers):
    """The answered footprints themselves are bit-identical."""
    cells = random_universe(5, 3_000)
    snapshots = growth_snapshots(5, 4, n_ticks=3)
    final = fold(cells, snapshots, workers)[-1]
    batch = overlay_fires(cells, snapshots[-1], year=2018, workers=1,
                          use_cache=False)
    assert set(final.per_fire_hits) == set(batch.per_fire_hits)
    for name, hits in batch.per_fire_hits.items():
        got = final.per_fire_hits[name]
        assert got.dtype == hits.dtype
        assert np.array_equal(got, hits)


def test_fold_through_fresh_pool():
    """Delta ticks shipped to freshly started workers match serial."""
    cells = random_universe(8, 4_000)
    snapshots = growth_snapshots(8, 6, n_ticks=3)
    shutdown_pools()                    # force freshly started workers
    parallel = fold(cells, snapshots, workers=4)[-1]
    shutdown_pools()
    serial = fold(cells, snapshots, workers=1)[-1]
    assert_identical(parallel, serial)


@pytest.mark.parametrize("workers", [1, 4])
def test_scripted_incident_matches_batch_season(universe, workers):
    """Seed stratum: the scripted 2019 replay == the season join."""
    from repro.stream import run_scripted_incident

    res = run_scripted_incident(universe, n_ticks=3, workers=workers)
    season = universe.fire_season(2019)
    batch = overlay_fires(universe.cells, season.fires, year=2019,
                          workers=1, use_cache=False)
    assert res.final.in_perimeter_mask.tobytes() \
        == batch.in_perimeter_mask.tobytes()
    assert res.final.per_fire_counts == batch.per_fire_counts
    assert res.final.n_fires == batch.n_fires


@pytest.fixture(scope="module")
def paper_sampled_cells():
    """Deterministic 1% stratified draw of the paper universe."""
    from repro.data.universe import universe_for_scale

    return universe_for_scale("paper").cells.stratified_sample(0.01)


def test_fold_matches_batch_paper_sampled(paper_sampled_cells):
    """Paper-sampled stratum, serial and pooled folds."""
    cells = paper_sampled_cells
    snapshots = growth_snapshots(7, 6, n_ticks=3)
    serial = fold(cells, snapshots, workers=1)[-1]
    shutdown_pools()
    parallel = fold(cells, snapshots, workers=4)[-1]
    batch = overlay_fires(cells, snapshots[-1], year=2018, workers=1,
                          use_cache=False)
    assert serial.in_perimeter_mask.tobytes() \
        == batch.in_perimeter_mask.tobytes()
    assert parallel.in_perimeter_mask.tobytes() \
        == batch.in_perimeter_mask.tobytes()
    assert serial.per_fire_counts == batch.per_fire_counts \
        == parallel.per_fire_counts


def test_unknown_fire_name_treated_as_ignition():
    """A delta for a name absent from prev runs a full query."""
    cells = random_universe(10, 1_500)
    fires = random_fires(10, 3)
    prev = overlay_fires(cells, fires[:2], year=2018, workers=1,
                         use_cache=False)
    updated = update_overlay(cells, prev,
                             [FireDelta(fire=fires[2])], workers=1)
    batch = overlay_fires(cells, fires, year=2018, workers=1,
                          use_cache=False)
    assert updated.in_perimeter_mask.tobytes() \
        == batch.in_perimeter_mask.tobytes()
    assert updated.per_fire_counts == batch.per_fire_counts
    assert updated.n_fires == 3


def test_empty_delta_list_returns_prev_object():
    cells = random_universe(11, 500)
    fires = random_fires(11, 2)
    prev = overlay_fires(cells, fires, year=2018, workers=1,
                         use_cache=False)
    assert update_overlay(cells, prev, [], workers=4) is prev

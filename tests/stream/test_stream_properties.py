"""Property tests: random monotone growth never breaks exactness.

Hypothesis drives randomized ignition schedules and growth ladders;
for every generated incident, folding :func:`update_overlay` over the
ticks must equal the batch :func:`overlay_fires` on the final
perimeters — and, on these small universes, the index-free bruteforce
oracle too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.overlay import (
    FireDelta,
    empty_overlay,
    overlay_fires,
    overlay_fires_bruteforce,
    update_overlay,
)
from repro.data.wildfires import (
    FirePerimeter,
    interpolated_perimeter,
    star_polygon,
)
from repro.runtime import dispatch as runtime_dispatch
from repro.runtime import shutdown_pools

from ..runtime.test_differential import assert_identical, random_universe


@pytest.fixture(autouse=True, scope="module")
def _small_parallel_floor():
    saved = (runtime_dispatch.MIN_PARALLEL_POINTS,
             runtime_dispatch.OVERLAY_WORK_FACTOR,
             runtime_dispatch.CPU_COUNT_OVERRIDE)
    runtime_dispatch.MIN_PARALLEL_POINTS = 64
    runtime_dispatch.OVERLAY_WORK_FACTOR = 1
    runtime_dispatch.CPU_COUNT_OVERRIDE = 8
    yield
    (runtime_dispatch.MIN_PARALLEL_POINTS,
     runtime_dispatch.OVERLAY_WORK_FACTOR,
     runtime_dispatch.CPU_COUNT_OVERRIDE) = saved
    shutdown_pools()


incidents = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**16),
    "n_fires": st.integers(min_value=1, max_value=4),
    "n_ticks": st.integers(min_value=2, max_value=5),
    "ignitions": st.lists(st.integers(min_value=0, max_value=4),
                          min_size=4, max_size=4),
})


def build_incident(spec):
    """Snapshots of a randomized incident from a hypothesis spec."""
    rng = np.random.default_rng(spec["seed"])
    n_ticks = spec["n_ticks"]
    fires, centers, ignitions = [], [], []
    for i in range(spec["n_fires"]):
        lon = rng.uniform(-111.0, -105.0)
        lat = rng.uniform(34.0, 40.0)
        acres = float(rng.uniform(100_000, 2_000_000))
        poly = star_polygon(lon, lat, acres, rng)
        fires.append(FirePerimeter(
            name=f"H-{i}", year=2018, start_doy=150, end_doy=160,
            acres=acres, polygon=poly))
        centers.append((lon, lat))
        ignitions.append(spec["ignitions"][i] % n_ticks)

    snapshots = []
    for t in range(n_ticks):
        snap = []
        for fire, (lon, lat), ignition in zip(fires, centers,
                                              ignitions):
            if t < ignition:
                continue
            if ignition == n_ticks - 1 or t == n_ticks - 1:
                frac = 1.0
            else:
                frac = 0.25 + 0.75 * (t - ignition) \
                    / (n_ticks - 1 - ignition)
            snap.append(interpolated_perimeter(fire, lon, lat, frac))
        snapshots.append(snap)
    return snapshots


def fold(cells, snapshots, workers):
    state = empty_overlay(cells, 2018)
    tokens = {}
    for snap in snapshots:
        deltas = []
        for fire in snap:
            token = fire.polygon.exterior.tobytes()
            if tokens.get(fire.name) != token:
                deltas.append(FireDelta(fire=fire))
                tokens[fire.name] = token
        state = update_overlay(cells, state, deltas, workers=workers)
    return state


@pytest.mark.parametrize("workers", [1, 4])
@given(spec=incidents)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fold_equals_batch_equals_bruteforce(spec, workers):
    cells = random_universe(spec["seed"] % 7, 1_200)
    snapshots = build_incident(spec)
    folded = fold(cells, snapshots, workers)
    batch = overlay_fires(cells, snapshots[-1], year=2018, workers=1,
                          use_cache=False)
    reference = overlay_fires_bruteforce(cells, snapshots[-1],
                                         year=2018)
    assert folded.in_perimeter_mask.tobytes() \
        == batch.in_perimeter_mask.tobytes()
    assert folded.per_fire_counts == batch.per_fire_counts
    assert folded.n_fires == batch.n_fires
    assert_identical(batch, reference)


@given(spec=incidents)
@settings(max_examples=10, deadline=None)
def test_delta_query_matches_batch_query(spec):
    """query_polygon_delta == query_polygon under any growth ladder."""
    cells = random_universe(spec["seed"] % 5, 1_500)
    index = cells.index()
    snapshots = build_incident(spec)
    prev_hits = {}
    for snap in snapshots:
        for fire in snap:
            want = index.query_polygon(fire.polygon)
            prev = prev_hits.get(fire.name)
            if prev is None:
                got = want
            else:
                got = index.query_polygon_delta(fire.polygon, prev)
            assert np.array_equal(got, want)
            prev_hits[fire.name] = got

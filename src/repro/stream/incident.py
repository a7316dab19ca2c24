"""Tick-by-tick incident state over the delta overlay engine.

:class:`IncidentState` is the mutable core: feed it complete
perimeter snapshots (one list of active fires per tick) and it
detects which fronts actually moved — by ring bytes, not identity —
builds :class:`~repro.core.overlay.FireDelta` batches, and advances
its overlay through :func:`~repro.core.overlay.update_overlay`.
Each tick yields a :class:`TickEvent` with the impact diff:

* newly covered transceivers (union mask growth) and the running
  total;
* newly exposed population per the per-fire tally convention
  (each fire's perimeter integrated independently over the
  population raster; overlapping fronts double-count, exactly as
  the paper's per-fire tables do);
* dirty vs skipped grid buckets, straight from the
  ``index.dirty_buckets`` / ``index.skipped_buckets`` counters the
  delta queries maintain.

Events carry no wall times — they are deterministic functions of the
snapshots, so the JSONL export and the rendered diff table are
byte-stable across machines and worker counts.

:func:`run_scripted_incident` drives a hazard's incident model —
year, background events, and a monotone growth series, resolved
through the hazard registry (default ``"wildfire"``: the scripted
2019 case-study fires over the static season, whose final state is
bit-identical to the batch ``season_overlay`` for 2019).  Hazards
that declare ``monotone_growth = False`` (e.g. ``wind``) refuse the
stream loudly instead of corrupting the delta fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..core.overlay import (
    FireDelta,
    FireOverlayResult,
    empty_overlay,
    update_overlay,
)
from ..data.cells import CellUniverse
from ..data.universe import SyntheticUS
from ..obs.trace import span as trace_span
from ..runtime.stats import STATS
from ..session import StageOption, artifact, number_above, register_stage

if TYPE_CHECKING:
    from ..hazard.base import HazardEvent

__all__ = [
    "TickEvent",
    "StreamResult",
    "IncidentState",
    "run_scripted_incident",
    "write_events_jsonl",
]

#: Schema tag stamped on every exported JSONL event.
EVENT_SCHEMA = "stream-event/1"


@dataclass(frozen=True)
class TickEvent:
    """The deterministic impact diff of one ingested snapshot."""

    tick: int
    #: Fires whose perimeter grew this tick (ring bytes changed).
    changed: tuple[str, ...]
    #: Fires seen for the first time this tick.
    ignited: tuple[str, ...]
    #: Transceivers newly inside *any* perimeter, and the running total.
    new_impacted: int
    cum_impacted: int
    #: Population newly exposed (per-fire tally), and the running total.
    new_population: float
    cum_population: float
    #: Newly covered transceivers per changed/ignited fire.
    per_fire_new: dict[str, int] = field(default_factory=dict)
    #: Grid buckets re-tested vs proven fully answered, summed over the
    #: tick's delta queries (ignitions run full queries and count in
    #: neither).
    dirty_buckets: int = 0
    skipped_buckets: int = 0

    def to_json(self) -> dict:
        """A JSON-serializable dict (sorted-key stable)."""
        return {
            "schema": EVENT_SCHEMA,
            "tick": self.tick,
            "changed": list(self.changed),
            "ignited": list(self.ignited),
            "new_impacted": self.new_impacted,
            "cum_impacted": self.cum_impacted,
            "new_population": self.new_population,
            "cum_population": self.cum_population,
            "per_fire_new": dict(sorted(self.per_fire_new.items())),
            "dirty_buckets": self.dirty_buckets,
            "skipped_buckets": self.skipped_buckets,
        }


@dataclass
class StreamResult:
    """A finished incident run: the event log plus the final overlay."""

    year: int
    n_ticks: int
    events: list[TickEvent]
    final: FireOverlayResult


class IncidentState:
    """Mutable incident engine: fold perimeter snapshots into an overlay.

    Parameters
    ----------
    cells:
        The transceiver universe being impacted.
    year:
        Season label carried on the overlay result.
    population:
        Optional :class:`~repro.data.population.PopulationSurface`;
        when given, events carry per-fire population-exposure diffs
        (cell-center rule).  Without it the population fields stay 0.
    workers:
        Worker request forwarded to :func:`update_overlay` each tick
        (``None`` = the runtime config's setting); the overlay
        crossover still decides serial vs pool per tick.
    """

    def __init__(self, cells: CellUniverse, year: int, *,
                 population=None, workers: int | None = None):
        self.cells = cells
        self.year = year
        self.population = population
        self.workers = workers
        self.result: FireOverlayResult = empty_overlay(cells, year)
        self.events: list[TickEvent] = []
        self._tokens: dict[str, bytes] = {}
        self._pop: dict[str, float] = {}
        self._cum_population = 0.0

    # ------------------------------------------------------------------
    def ingest(self, fires: list[HazardEvent]) -> TickEvent:
        """Advance one tick from a complete snapshot of active fires.

        Only fires whose exterior ring bytes differ from the last
        ingested version are dispatched; an unchanged snapshot is a
        true no-op (no queries, zero diff).  Growth must be monotone
        (the delta-query contract): a fire's new perimeter contains
        its previous one.
        """
        tick = len(self.events)
        with trace_span("stream.tick", tick=tick, n_fires=len(fires)):
            event = self._ingest(tick, fires)
        self.events.append(event)
        return event

    def _ingest(self, tick: int,
                fires: list[HazardEvent]) -> TickEvent:
        deltas: list[FireDelta] = []
        changed: list[str] = []
        ignited: list[str] = []
        for fire in fires:
            token = fire.polygon.exterior.tobytes()
            prev_token = self._tokens.get(fire.name)
            if prev_token == token:
                continue
            (changed if prev_token is not None else ignited) \
                .append(fire.name)
            deltas.append(FireDelta(fire=fire))
            self._tokens[fire.name] = token

        prev = self.result
        dirty = STATS.get("index.dirty_buckets")
        skipped = STATS.get("index.skipped_buckets")
        cur = update_overlay(self.cells, prev, deltas,
                             workers=self.workers)
        dirty = STATS.get("index.dirty_buckets") - dirty
        skipped = STATS.get("index.skipped_buckets") - skipped
        self.result = cur

        per_fire_new = {
            name: cur.per_fire_counts[name]
            - prev.per_fire_counts.get(name, 0)
            for name in (*changed, *ignited)
        }
        new_population = 0.0
        if self.population is not None:
            for delta in deltas:
                name = delta.fire.name
                pop = self.population.population_in_polygon(
                    delta.fire.polygon)
                new_population += pop - self._pop.get(name, 0.0)
                self._pop[name] = pop
        self._cum_population += new_population

        cum_impacted = int(cur.in_perimeter_mask.sum())
        prev_impacted = int(prev.in_perimeter_mask.sum())
        return TickEvent(
            tick=tick,
            changed=tuple(changed),
            ignited=tuple(ignited),
            new_impacted=cum_impacted - prev_impacted,
            cum_impacted=cum_impacted,
            new_population=new_population,
            cum_population=self._cum_population,
            per_fire_new=per_fire_new,
            dirty_buckets=dirty,
            skipped_buckets=skipped,
        )


# ----------------------------------------------------------------------
# The scripted 2019 incident
# ----------------------------------------------------------------------

def run_scripted_incident(universe: SyntheticUS, n_ticks: int = 8, *,
                          workers: int | None = None,
                          hazard: str = "wildfire") -> StreamResult:
    """Replay a hazard's incident model as a live stream.

    The hazard supplies ``(year, background, growth_ticks)`` via
    :meth:`~repro.hazard.base.Hazard.incident`; tick 0 ingests the
    background events (already-final footprints) plus whichever
    tracked fronts have ignited, later ticks grow the fronts.  For
    the default wildfire hazard this is the scripted 2019 case study:
    the growth series' last tick is the scripted fires' exact final
    perimeters, so the final state equals the batch 2019
    ``season_overlay`` bit-for-bit.
    """
    from ..hazard.registry import get_hazard
    hz = get_hazard(hazard)
    if not hz.monotone_growth:
        raise ValueError(
            f"hazard {hz.name!r} has no monotone growth model; "
            f"the delta-overlay stream requires one")
    year, background, growth = hz.incident(universe, n_ticks)
    state = IncidentState(universe.cells, year,
                          population=universe.population,
                          workers=workers)
    for snapshot in growth:
        state.ingest(background + snapshot)
    return StreamResult(year=year, n_ticks=n_ticks,
                        events=state.events, final=state.result)


def write_events_jsonl(events: list[TickEvent], path) -> None:
    """Export the event log as one sorted-key JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_json(), sort_keys=True))
            fh.write("\n")


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------

@artifact("stream_incident")
def _stream_incident_artifact(session, ticks: int = 8,
                              hazard: str = "wildfire") -> StreamResult:
    """Tick-by-tick incident stream (delta overlay)."""
    return run_scripted_incident(session.universe, n_ticks=ticks,
                                 hazard=hazard)


def _run_stream(session, args) -> str:
    from ..core.report import render_stream
    ticks = getattr(args, "ticks", 8)
    hazard = getattr(args, "hazard", "wildfire")
    from ..hazard.registry import get_hazard
    try:
        hz = get_hazard(hazard)
    except KeyError as exc:
        raise SystemExit(f"repro stream: {exc.args[0]}")
    if not hz.monotone_growth:
        raise SystemExit(
            f"repro stream: hazard {hz.name!r} has no monotone growth "
            f"model; the delta-overlay stream requires one")
    result = session.artifact("stream_incident", ticks=ticks,
                              hazard=hazard)
    text = render_stream(result)
    jsonl = getattr(args, "jsonl", None)
    if jsonl:
        try:
            write_events_jsonl(result.events, jsonl)
        except OSError as exc:
            # An unwritable export must never sink a finished
            # analysis — same contract as an unwritable ledger.
            text += f"\njsonl: unwritable ({exc}); events not exported"
    return text


def _export_stream(session, ctx) -> dict:
    result = session.artifact("stream_incident")
    return {"stream": {
        "year": result.year,
        "n_ticks": result.n_ticks,
        "events": [e.to_json() for e in result.events],
    }}


register_stage("stream",
               help="live incident stream (delta spatial joins)",
               paper="§2.3", run=_run_stream,
               artifact="stream_incident", order=None,
               domain="engine",
               options=(
                   StageOption("--ticks",
                               type=number_above(int, 1, "an integer "
                                                 "of at least 2"),
                               default=8,
                               help="growth ticks for the tracked "
                                    "incident fronts (>= 2)"),
                   StageOption("--hazard", type=str, default="wildfire",
                               help="hazard instance to stream (must "
                                    "declare monotone growth)"),
                   StageOption("--jsonl", type=str, default=None,
                               help="also export the event stream "
                                    "to this JSONL file"),
               ),
               export=_export_stream)

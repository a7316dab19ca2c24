"""Grid-ignited fires: ignitions sampled along high-risk power lines.

The paper's case study found power infrastructure *causes* outages;
utility-sparked fires (Camp 2018, Kincade 2019) close the loop — the
grid is also where the worst ignitions start.  This hazard samples
ignition points along the transmission lines of the synthetic power
grid (:mod:`repro.data.powergrid`) that cross at-risk WHP terrain —
exactly the PSPS-candidate set the ``psps`` stage de-energizes — and
grows wind-stretched perimeters from them, elongated *along the line
bearing* (a sparked fire runs with the wind that loads the conductor).

The intensity surface is the WHP model itself: a grid-ignited fire
burns the same fuel.  What changes is *where seasons start*, which is
the point — mitigation stages can now ask what PSPS would have
prevented.

The power grid is fetched through the universe's ambient session
(``session_of(universe).artifact("power_grid")``), so a scenario
ensemble and the ``power``/``psps`` stages share one build.
"""

from __future__ import annotations

import math

import numpy as np

from ..data.wildfires import (
    STAR_VERTICES,
    FirePerimeter,
    _pareto_sizes,
    interpolated_perimeter,
    star_polygons,
)
from ..session import session_of
from .base import EventSet, Hazard

__all__ = ["GridIgnitedFireHazard"]

#: Seed-stream offset separating this hazard's rng from the wildfire
#: generator's (which uses ``config.seed + year``).
_SEED_SALT = 524_287


class GridIgnitedFireHazard(Hazard):
    """Fire seasons ignited along PSPS-candidate power lines."""

    name = "grid_fire"
    default_year = 2019
    monotone_growth = True

    def __init__(self, n_events: int = 48,
                 total_acres: float = 1_200_000.0,
                 elongation_range: tuple[float, float] = (1.5, 3.0)):
        if n_events < 1:
            raise ValueError("need at least one event")
        if total_acres <= 0:
            raise ValueError("total_acres must be positive")
        self.n_events = int(n_events)
        self.total_acres = float(total_acres)
        self.elongation_range = (float(elongation_range[0]),
                                 float(elongation_range[1]))

    # ------------------------------------------------------------------

    def intensity(self, universe):
        return universe.whp

    def _risky_lines(self, universe):
        """PSPS-candidate lines: the grid plus its at-risk crossings."""
        grid = session_of(universe).artifact("power_grid")
        whp = universe.whp
        risky = grid.lines_crossing_mask(whp, whp.at_risk_mask())
        if len(risky) == 0:
            # Degenerate tiny universes may have no at-risk crossing;
            # fall back to the whole line set so seasons stay non-empty.
            risky = np.arange(grid.n_lines, dtype=np.int64)
        return grid, risky

    def event_set(self, universe, year: int | None = None) -> EventSet:
        year = self.default_year if year is None else year
        return EventSet(year=year,
                        events=self.ensemble_member(universe, year, 0))

    def ensemble_member(self, universe, year: int,
                        member: int) -> list:
        """One independent season of grid-sparked fires.

        Deterministic in ``(universe seed, year, member)``: ignition
        lines are drawn weighted by length (long spans in hazardous
        terrain see more wind events), the ignition point is uniform
        along the line, and each perimeter is stretched along the
        line's bearing.
        """
        return [e for e, _ in self._member(universe, year, member)]

    def _member(self, universe, year: int, member: int) \
            -> list[tuple[FirePerimeter, tuple[float, float]]]:
        """``(event, ignition_center)`` pairs for one member.

        The ignition center is the star polygon's kernel point — the
        only point growth interpolation may scale about while keeping
        the front family monotone.
        """
        grid, risky = self._risky_lines(universe)
        rng = np.random.default_rng(
            universe.config.seed + _SEED_SALT + 31 * year
            + 7919 * member)

        ax = grid.substation_lons[grid.lines[risky, 0]]
        ay = grid.substation_lats[grid.lines[risky, 0]]
        bx = grid.substation_lons[grid.lines[risky, 1]]
        by = grid.substation_lats[grid.lines[risky, 1]]
        lengths = np.hypot(bx - ax, by - ay)
        prob = lengths / lengths.sum()

        picks = rng.choice(len(risky), size=self.n_events, p=prob)
        ts = rng.uniform(0.05, 0.95, size=self.n_events)
        sizes = _pareto_sizes(self.n_events, self.total_acres, rng)
        dx = bx[picks] - ax[picks]
        dy = by[picks] - ay[picks]
        lons = ax[picks] + ts * dx
        lats = ay[picks] + ts * dy
        # Line bearing, clockwise from north — the wind direction the
        # perimeter is stretched along.
        bearings = [math.degrees(math.atan2(x, y)) % 360.0
                    for x, y in zip(dx.tolist(), dy.tolist())]

        # Each event draws its start day, stretch and outline noise in
        # this order; the pinned perimeters depend on it.
        starts = []
        elongations = np.empty(self.n_events)
        noise = np.empty((self.n_events, STAR_VERTICES))
        for i in range(self.n_events):
            starts.append(int(min(max(rng.normal(250, 30), 200), 340)))
            elongations[i] = rng.uniform(*self.elongation_range)
            rng.standard_normal(out=noise[i])
        polygons = star_polygons(lons, lats, sizes, noise,
                                 elongation=elongations,
                                 bearing_deg=bearings)

        events = []
        for i, (start, poly, center) in enumerate(
                zip(starts, polygons, zip(lons.tolist(), lats.tolist()))):
            duration = int(min(max(2 + sizes[i] ** 0.33, 2), 60))
            events.append((FirePerimeter(
                name=f"GRIDFIRE-{year}-{member:02d}-{i:03d}",
                year=year,
                start_doy=start,
                end_doy=min(start + duration, 364),
                acres=float(sizes[i]),
                polygon=poly,
                agency="UTILITY",
                method="SCADA"), center))
        return events

    # -- streaming -----------------------------------------------------

    def growth_series(self, universe, n_ticks: int = 8) -> list[list]:
        """Monotone per-tick fronts for the season's largest fires.

        The top fires (the ones a live incident would track) grow
        linearly from 20% of linear extent to their final perimeter;
        smaller events appear fully grown at their ignition tick.
        Monotone by construction: each front is a scaling of the same
        star polygon about its ignition point.
        """
        if n_ticks < 2:
            raise ValueError("a growth series needs at least 2 ticks")
        pairs = self._member(universe, self.default_year, 0)
        tracked = sorted(pairs, key=lambda pair: pair[0].acres,
                         reverse=True)[:4]
        ticks = []
        for t in range(n_ticks):
            # The last tick must be exactly 1.0 (float accumulation can
            # land a hair above) so the final front is the original,
            # fully-grown perimeter object.
            fraction = 1.0 if t == n_ticks - 1 \
                else 0.2 + 0.8 * t / (n_ticks - 1)
            ticks.append([
                interpolated_perimeter(e, clon, clat, fraction)
                for e, (clon, clat) in tracked])
        return ticks

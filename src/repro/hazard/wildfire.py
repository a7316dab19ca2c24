"""The wildfire instance of the :class:`~repro.hazard.base.Hazard`
protocol — the paper's peril, unchanged.

This is a *view*, not a reimplementation: :meth:`intensity` returns
``universe.whp`` itself and :meth:`event_set` wraps the exact
``FireSeason.fires`` list ``universe.fire_season(year)`` memoizes, so
every content token, cache key, and overlay output downstream of the
protocol is bit-identical to the pre-protocol wildfire path.  The
differential tests in ``tests/hazard/`` pin the object identities.

``acreage_multiplier`` exists for scenario variants (the
``wui-expansion`` bundle): a multiplier ≠ 1 regenerates the season
with scaled national acreage instead of returning the universe's
memoized one.
"""

from __future__ import annotations

from ..data.historical_stats import year_stats
from ..data.wildfires import generate_fire_season, scripted_2019_growth
from .base import EventSet, Hazard

__all__ = ["WildfireHazard"]


class WildfireHazard(Hazard):
    """WHP intensity + GeoMAC-style perimeter seasons."""

    name = "wildfire"
    default_year = 2019
    monotone_growth = True

    def __init__(self, acreage_multiplier: float = 1.0):
        if acreage_multiplier <= 0:
            raise ValueError("acreage_multiplier must be positive")
        self.acreage_multiplier = float(acreage_multiplier)

    # ------------------------------------------------------------------

    def intensity(self, universe):
        return universe.whp

    def event_set(self, universe, year: int | None = None) -> EventSet:
        year = self.default_year if year is None else year
        if self.acreage_multiplier == 1.0:
            season = universe.fire_season(year)
            # The season's own list object: fires_token's per-fire digest
            # memo and every overlay cache key stay byte-identical.
            return EventSet(year=season.year, events=season.fires)
        total = year_stats(year).acres_burned * 1e6 \
            * self.acreage_multiplier
        season = generate_fire_season(
            year, universe.whp,
            seed=universe.config.seed + year,
            total_acres=total)
        return EventSet(year=season.year, events=season.fires)

    def ensemble_member(self, universe, year: int,
                        member: int) -> list:
        """Member 0 is the canonical season; members re-draw it.

        Each member is an independent sample of the same year (same
        national acreage, same ignition field, distinct rng stream),
        scaled by the variant's acreage multiplier.
        """
        if member == 0 and self.acreage_multiplier == 1.0:
            return self.event_set(universe, year).events
        total = year_stats(year).acres_burned * 1e6 \
            * self.acreage_multiplier
        season = generate_fire_season(
            year, universe.whp,
            seed=universe.config.seed + year + 7919 * member,
            total_acres=total)
        return season.fires

    # -- streaming -----------------------------------------------------

    def growth_series(self, universe, n_ticks: int = 8) -> list[list]:
        return scripted_2019_growth(n_ticks)

    def incident(self, universe, n_ticks: int = 8):
        """The scripted 2019 case-study fires over the static season.

        Byte-for-byte the logic ``run_scripted_incident`` hardwired
        before the protocol existed: the growth series' final tick is
        the scripted fires' exact static perimeters, so folding the
        stream reproduces the batch 2019 overlay bit-for-bit.
        """
        growth = self.growth_series(universe, n_ticks)
        scripted_names = {f.name for f in growth[-1]}
        season = universe.fire_season(2019)
        background = [f for f in season.fires
                      if f.name not in scripted_names]
        return season.year, background, growth

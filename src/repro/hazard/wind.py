"""A deliberately simple wind hazard: the protocol isn't fire-shaped.

Severe-wind events (derechos, Santa Ana outflows, hurricane remnants)
knock out cell sites directly — toppled towers, snapped feeders —
with no fuel model, no burn probability, and *non-monotone* footprints
(a storm swath doesn't grow from a point; it arrives whole).  This
instance exists to prove the :class:`~repro.hazard.base.Hazard`
protocol carries such a peril end-to-end:

* the intensity surface is a :class:`WindFieldSurface` — an int8
  severity raster (0-5, Beaufort-bucketed) on the same grid geometry
  as the WHP raster, built from a latitudinal storm-track gradient
  plus seeded, smoothed noise.  ``classify_cells``' tiled sampling
  runs on it unchanged;
* events are :class:`~repro.hazard.base.FootprintEvent` swaths —
  long, thin, low-roughness polygons elongated along the storm
  bearing — generated where the wind field is severe;
* ``monotone_growth`` stays ``False`` and :meth:`growth_series`
  raises: this hazard cannot enter the delta-overlay stream, and the
  protocol makes that an explicit property instead of a crash.
"""

from __future__ import annotations

import numpy as np

from ..data.wildfires import _pareto_sizes, star_polygons
from .base import EventSet, FootprintEvent, Hazard

__all__ = ["WindFieldSurface", "WindFootprintHazard"]

#: Vertices of a storm-swath outline.
_SWATH_VERTICES = 20


class WindFieldSurface:
    """An int8 wind-severity raster conforming to ``IntensitySurface``."""

    def __init__(self, raster):
        self.raster = raster
        self._token: bytes | None = None

    def classify(self, lons, lats) -> np.ndarray:
        return self.raster.sample(lons, lats, outside=np.int8(0))

    def content_token(self) -> bytes:
        if self._token is None:
            self._token = self.raster.content_token()
        return self._token


class WindFootprintHazard(Hazard):
    """Severe-wind swaths over a synthetic storm-climatology field."""

    name = "wind"
    default_year = 2019
    monotone_growth = False

    def __init__(self, n_events: int = 24,
                 total_acres: float = 2_000_000.0):
        self.n_events = int(n_events)
        self.total_acres = float(total_acres)
        # Per-universe surface cache: the field is a pure function of
        # the universe's WHP grid geometry and seed, and its token keys
        # every classify_cells probe, so build it once per universe.
        from weakref import WeakKeyDictionary
        self._surfaces: "WeakKeyDictionary" = WeakKeyDictionary()

    # ------------------------------------------------------------------

    def intensity(self, universe) -> WindFieldSurface:
        surface = self._surfaces.get(universe)
        if surface is None:
            surface = self._build_surface(universe)
            self._surfaces[universe] = surface
        return surface

    def _build_surface(self, universe) -> WindFieldSurface:
        """Severity classes 0-5 on the WHP raster's grid geometry."""
        from scipy import ndimage

        from ..geo.raster import Raster
        grid = universe.whp.grid
        rng = np.random.default_rng(universe.config.seed + 40_961)
        rows = np.arange(grid.height, dtype=float)
        _, lats = grid.cell_center(rows, np.zeros_like(rows))
        # Storm-track climatology: winds peak along the mid-latitude
        # jet (~45N) and the Gulf hurricane belt (~30N).
        jet = np.exp(-((lats - 45.0) / 6.0) ** 2)
        gulf = 0.7 * np.exp(-((lats - 30.0) / 4.0) ** 2)
        base = (jet + gulf)[:, None] * np.ones((1, grid.width))
        noise = rng.standard_normal(grid.shape)
        noise = ndimage.uniform_filter(noise, size=9, mode="nearest")
        field = base + 0.6 * noise / max(np.abs(noise).max(), 1e-9)
        # Bucket into 6 ordinal classes; water/out-of-track floors at 0.
        lo, hi = float(field.min()), float(field.max())
        codes = np.clip(((field - lo) / max(hi - lo, 1e-9) * 6.0)
                        .astype(np.int8), 0, 5)
        return WindFieldSurface(Raster(grid, codes))

    # ------------------------------------------------------------------

    def event_set(self, universe, year: int | None = None) -> EventSet:
        year = self.default_year if year is None else year
        return EventSet(year=year,
                        events=self.ensemble_member(universe, year, 0))

    def ensemble_member(self, universe, year: int,
                        member: int) -> list:
        """Storm swaths drawn where the wind field is severe."""
        surface = self.intensity(universe)
        grid = surface.raster.grid
        rng = np.random.default_rng(
            universe.config.seed + 65_537 + 31 * year
            + 7919 * member)
        weights = (surface.raster.data.astype(float) ** 2).ravel()
        prob = weights / weights.sum()
        cell_ids = rng.choice(len(prob), size=self.n_events, p=prob)
        r, c = np.unravel_index(cell_ids, grid.shape)
        lons, lats = grid.cell_center(r, c)
        sizes = _pareto_sizes(self.n_events, self.total_acres, rng,
                              alpha=0.8, min_acres=5_000.0,
                              max_acres=400_000.0)
        # Each swath draws its start day, stretch, bearing and outline
        # noise in this order; the pinned perimeters depend on it.
        starts = []
        elongations = np.empty(self.n_events)
        bearings = np.empty(self.n_events)
        noise = np.empty((self.n_events, _SWATH_VERTICES))
        for i in range(self.n_events):
            starts.append(int(rng.integers(1, 350)))
            elongations[i] = rng.uniform(4.0, 8.0)
            bearings[i] = rng.uniform(40.0, 140.0)
            rng.standard_normal(out=noise[i])
        polygons = star_polygons(lons, lats, sizes, noise, roughness=0.15,
                                 elongation=elongations,
                                 bearing_deg=bearings)
        return [FootprintEvent(name=f"WIND-{year}-{member:02d}-{i:03d}",
                               year=year, start_doy=start,
                               end_doy=min(start + 2, 364),
                               acres=float(sizes[i]), polygon=poly,
                               kind="wind-swath")
                for i, (start, poly) in enumerate(zip(starts, polygons))]

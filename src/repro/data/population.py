"""Population density surface for the synthetic US.

One raster drives three things, keeping them mutually consistent exactly
as in the real world:

* transceiver placement density (OpenCelliD density tracks population),
* county populations (integrated surface over county tiles), and
* the urbanization term of the WHP fuel model (urban cores are
  non-burnable; hazard peaks at the wildland-urban interface).

The surface is a sum of Gaussian metro kernels (weight = metro population,
scale grows sublinearly with population), a road-corridor ridge, and a
small rural floor, all clipped to the state polygons (no population in the
ocean / Great Lakes).
"""

from __future__ import annotations

import numpy as np

from ..geo.geometry import BBox
from ..geo.raster import GridSpec, Raster
from .cities import conus_cities
from .roads import distance_to_roads_deg, road_segments
from .states import StateAssigner, conus_bbox

__all__ = ["PopulationSurface", "CONUS_POPULATION"]

#: 2018 conterminous-US population (Census estimate, AK/HI excluded).
CONUS_POPULATION = 325_300_000


class PopulationSurface:
    """A population-density raster over the CONUS.

    Parameters
    ----------
    resolution_deg:
        Cell size in degrees (default 0.1 ~ 10 km, enough structure for the
        analyses while staying laptop-fast).
    total_population:
        The surface is normalized so its cells sum to this.
    """

    def __init__(self, resolution_deg: float = 0.1,
                 total_population: int = CONUS_POPULATION,
                 bbox: BBox | None = None,
                 corridor_share: float = 0.88,
                 corridor_halfwidth_deg: float = 0.08):
        self.grid = GridSpec(bbox or conus_bbox(), resolution_deg)
        self.total_population = int(total_population)
        self.corridor_share = float(corridor_share)
        self.corridor_halfwidth_deg = float(corridor_halfwidth_deg)
        self.road_distance: Raster | None = None
        self.raster = self._build()

    @classmethod
    def from_rasters(cls, raster: Raster, road_distance: Raster, *,
                     total_population: int, corridor_share: float,
                     corridor_halfwidth_deg: float) \
            -> "PopulationSurface":
        """A surface whose rasters are already built (a stored
        snapshot, :mod:`repro.data.snapshot`): nothing is generated."""
        surface = cls.__new__(cls)
        surface.grid = raster.grid
        surface.total_population = int(total_population)
        surface.corridor_share = float(corridor_share)
        surface.corridor_halfwidth_deg = float(corridor_halfwidth_deg)
        surface.road_distance = road_distance
        surface.raster = raster
        return surface

    def _build(self) -> Raster:
        grid = self.grid
        rows = np.arange(grid.height)
        cols = np.arange(grid.width)
        col_mesh, row_mesh = np.meshgrid(cols, rows)
        lons, lats = grid.cell_center(row_mesh.ravel(), col_mesh.ravel())

        # Land: cell centers inside some state polygon.
        land = StateAssigner().containing(lons, lats) >= 0

        # The grid is separable (lon depends on col only, lat on row
        # only), so every kernel's squared distance is an outer sum of
        # two 1-D terms — bit-identical to the full-grid expression,
        # built from W + H elements instead of W * H.
        lon_axis, lat_axis = grid.axes()

        def kernel_d2(lon0: float, lat0: float) -> np.ndarray:
            du2 = ((lon_axis - lon0) * np.cos(np.radians(lat0))) ** 2
            dv2 = (lat_axis - lat0) ** 2
            return (du2[None, :] + dv2[:, None]).ravel()

        # Metro kernels, each normalized to integrate to its metro
        # population so large metros do not grab a disproportionate share.
        density = np.zeros(lons.shape)
        for city in conus_cities():
            # Kernel scale (degrees) grows sublinearly with metro size:
            # ~0.13 deg for a 0.5M metro, ~0.35 deg for a 13M metro.
            # Kept tight so county tiles away from the anchor stay under
            # the 1.5M "very dense" cut (the paper has 23 such counties).
            sigma = 0.08 * (city.metro_pop / 1e5) ** 0.30
            d2 = kernel_d2(city.lon, city.lat)
            kernel = np.exp(-d2 / (2.0 * sigma * sigma)) * land
            total = kernel.sum()
            if total > 0:
                density += city.metro_pop * kernel / total

        # Wildland-front voids: the terrain features adjacent to metros
        # (San Gabriel mountains, Wasatch front, Everglades) hold almost
        # no people, even though the metro kernels overlap them.
        for city in conus_cities():
            front = city.wildland_front
            if front is None:
                continue
            flon, flat, sigma, _boost = front
            d2 = kernel_d2(flon, flat)
            density *= 1.0 - 0.65 * np.exp(-d2 / (2.0 * sigma * sigma))

        # Remaining population: road-corridor towns plus a rural floor.
        road_d = distance_to_roads_deg(lons, lats)
        self.road_distance = Raster(grid, road_d.reshape(grid.shape))
        remaining = max(self.total_population - density.sum(), 0.0)

        # The corridor population lives mostly in discrete towns along
        # the highways (real small-town America is clustered, which is
        # why a wildfire crossing a highway usually misses the towns),
        # with a thin roadside ribbon for the continuum of exits,
        # truck stops and roadside cell sites.
        corridor_budget = remaining * self.corridor_share
        density += self._town_kernels(lons, lats, land,
                                      0.95 * corridor_budget)
        ribbon = np.exp(-(road_d / self.corridor_halfwidth_deg) ** 2) \
            * land
        if ribbon.sum() > 0:
            density += 0.05 * corridor_budget * ribbon / ribbon.sum()
        floor = land.astype(float)
        if floor.sum() > 0:
            density += (remaining * (1.0 - self.corridor_share)
                        * floor / floor.sum())

        density = density.reshape(grid.shape)
        density *= self.total_population / density.sum()
        return Raster(grid, density)

    def _town_kernels(self, lons: np.ndarray, lats: np.ndarray,
                      land: np.ndarray, budget: float,
                      spacing_deg: float = 0.8,
                      sigma_deg: float = 0.06) -> np.ndarray:
        """Town population kernels spaced along the highway graph.

        Towns are placed deterministically (seeded by segment order)
        every ~``spacing_deg`` along each highway edge with lognormal
        sizes, then normalized so they sum to ``budget``.
        """
        rng = np.random.default_rng(709)
        town_lon, town_lat, town_size = [], [], []
        for seg in road_segments():
            (x1, y1), (x2, y2) = seg.coords
            length = float(np.hypot((x2 - x1)
                                    * np.cos(np.radians((y1 + y2) / 2)),
                                    y2 - y1))
            n_towns = max(1, int(length / spacing_deg))
            for k in range(n_towns):
                t = (k + 0.5) / n_towns + rng.uniform(-0.2, 0.2) / n_towns
                town_lon.append(x1 + t * (x2 - x1))
                town_lat.append(y1 + t * (y2 - y1))
                town_size.append(rng.lognormal(0.0, 0.8))
        sizes = np.asarray(town_size)
        sizes *= budget / sizes.sum()
        out = np.zeros(lons.shape)
        grid = self.grid
        for lon, lat, size in zip(town_lon, town_lat, sizes):
            # Local window of +-4 sigma to keep this O(towns).
            window = grid.window(BBox(lon - 4 * sigma_deg,
                                      lat - 4 * sigma_deg,
                                      lon + 4 * sigma_deg,
                                      lat + 4 * sigma_deg))
            if window is None:
                continue
            rows = np.arange(window[0].start, window[0].stop)
            cols = np.arange(window[1].start, window[1].stop)
            cmesh, rmesh = np.meshgrid(cols, rows)
            flat = (rmesh * grid.width + cmesh).ravel()
            clons, clats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
            d2 = ((clons - lon) * np.cos(np.radians(lat))) ** 2 \
                + (clats - lat) ** 2
            kernel = np.exp(-d2 / (2.0 * sigma_deg ** 2)) * land[flat]
            ksum = kernel.sum()
            if ksum > 0:
                out[flat] += size * kernel / ksum
        return out

    def density_at(self, lons, lats) -> np.ndarray:
        """Population per cell at the given points (0 outside CONUS)."""
        return self.raster.sample(lons, lats)

    def population_in_bbox(self, bbox: BBox) -> float:
        """Total population inside a lon/lat box (cell-center rule)."""
        window = self.grid.window(bbox)
        if window is None:
            return 0.0
        return float(self.raster.data[window].sum())

    def population_in_polygon(self, polygon) -> float:
        """Total population inside a polygon (cell-center rule).

        A raster cell counts iff its *center* falls inside the polygon —
        the same rule :meth:`population_in_bbox` applies to boxes, so the
        two agree on polygons that happen to be rectangles.
        """
        found = self.grid.cells_inside(polygon)
        if found is None:
            return 0.0
        window, inside = found
        return float(self.raster.data[window][inside].sum())

    def sample_points(self, n: int, rng: np.random.Generator,
                      exponent: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Draw n points with probability ∝ density**exponent.

        Points are uniformly jittered within their cell.  ``exponent`` < 1
        flattens the distribution (more rural coverage), matching how cell
        sites are somewhat less concentrated than people.
        """
        weights = np.power(self.raster.data.ravel(), exponent)
        weights = weights / weights.sum()
        cells = rng.choice(len(weights), size=n, p=weights)
        rows, cols = np.unravel_index(cells, self.grid.shape)
        lons, lats = self.grid.cell_center(rows, cols)
        half = self.grid.res / 2.0
        lons = lons + rng.uniform(-half, half, size=n)
        lats = lats + rng.uniform(-half, half, size=n)
        return lons, lats

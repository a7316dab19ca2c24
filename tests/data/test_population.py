"""Tests for repro.data.population."""

import numpy as np
import pytest

from repro.data.cities import city_by_name
from repro.data.population import CONUS_POPULATION, PopulationSurface
from repro.geo.geometry import BBox, Polygon


@pytest.fixture(scope="module")
def pop():
    return PopulationSurface(resolution_deg=0.2)  # coarse, fast


class TestSurface:
    def test_normalized_total(self, pop):
        assert pop.raster.data.sum() == pytest.approx(CONUS_POPULATION,
                                                      rel=1e-6)

    def test_nonnegative(self, pop):
        assert (pop.raster.data >= 0).all()

    def test_ocean_is_zero(self, pop):
        # Atlantic, Pacific, Gulf
        for lon, lat in ((-70.0, 35.0), (-126.0, 40.0), (-90.0, 26.5)):
            assert pop.density_at(lon, lat) == 0.0

    def test_cities_denser_than_wilderness(self, pop):
        la = city_by_name("Los Angeles")
        urban = pop.density_at(la.lon, la.lat)
        wild = pop.density_at(-117.0, 39.0)  # central Nevada
        assert urban > 50 * wild

    def test_metro_mass_near_anchor(self, pop):
        """Most of a metro's population lies within ~1 degree."""
        chi = city_by_name("Chicago")
        box = BBox(chi.lon - 1, chi.lat - 1, chi.lon + 1, chi.lat + 1)
        near = pop.population_in_bbox(box)
        assert near > 0.5 * chi.metro_pop

    def test_wildland_front_voided(self, pop):
        """The San Gabriel front holds fewer people than the inland
        fringe at the same distance from downtown (due east, toward
        Riverside)."""
        la = city_by_name("Los Angeles")
        d = np.hypot(0.15, 0.35)
        front = pop.density_at(la.lon + 0.15, la.lat + 0.35)
        inland = pop.density_at(la.lon + d, la.lat)
        assert front < inland

    def test_road_distance_raster_available(self, pop):
        assert pop.road_distance is not None
        assert pop.road_distance.grid.shape == pop.grid.shape

    def test_population_in_bbox_disjoint(self, pop):
        assert pop.population_in_bbox(BBox(0, 0, 1, 1)) == 0.0

    def test_population_in_bbox_total(self, pop):
        total = pop.population_in_bbox(pop.grid.bbox)
        assert total == pytest.approx(CONUS_POPULATION, rel=1e-6)


def _meshgrid_population(surface, polygon) -> float:
    """Oracle: the meshgrid sum ``population_in_polygon`` ran before
    the cell-centre rule moved into ``GridSpec.cells_inside``, kept
    verbatim."""
    bbox = polygon.bbox
    grid = surface.grid
    r0, c0 = grid.rowcol(bbox.min_lon, bbox.max_lat)
    r1, c1 = grid.rowcol(bbox.max_lon, bbox.min_lat)
    r0 = max(int(r0), 0)
    c0 = max(int(c0), 0)
    r1 = min(int(r1), grid.height - 1)
    c1 = min(int(c1), grid.width - 1)
    if r0 > r1 or c0 > c1:
        return 0.0
    rows = np.arange(r0, r1 + 1)
    cols = np.arange(c0, c1 + 1)
    cmesh, rmesh = np.meshgrid(cols, rows)
    clons, clats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
    inside = polygon.contains_many(clons, clats)
    window = surface.raster.data[r0:r1 + 1, c0:c1 + 1].ravel()
    return float(window[inside].sum())


class TestPopulationInPolygon:
    def test_equals_the_meshgrid_sum(self, universe):
        """Fire perimeters, holed stars and shapes partly or wholly off
        the grid sum to the oracle's float, bit for bit."""
        surface = universe.population
        rng = np.random.default_rng(11)
        shapes = [fire.polygon for year in (2017, 2019)
                  for fire in universe.fire_season(year).fires[:40]]
        edge = surface.grid.bbox
        for cx, cy in [(-118.2, 34.1), (-98.0, 38.0),
                       (edge.min_lon, edge.max_lat),
                       (edge.max_lon + 0.5, edge.min_lat - 0.5),
                       (0.0, 0.0)]:
            theta = np.linspace(0, 2 * np.pi, 17, endpoint=False)
            radii = rng.uniform(0.3, 1.5, 17)

            def ring(k):
                return np.column_stack([cx + k * radii * np.cos(theta),
                                        cy + k * radii * np.sin(theta)])

            shapes += [Polygon(ring(1.0)),
                       Polygon(ring(1.0), holes=[ring(0.4)])]
        got = [surface.population_in_polygon(p) for p in shapes]
        want = [_meshgrid_population(surface, p) for p in shapes]
        assert got == want
        assert any(w > 0 for w in want) and want[-1] == 0.0


class TestSampling:
    def test_sample_points_on_land(self, pop, rng):
        lons, lats = pop.sample_points(500, rng, exponent=0.85)
        dens = pop.density_at(lons, lats)
        # jitter can push a coastal point into a zero cell; rare
        assert (dens > 0).mean() > 0.95

    def test_sample_points_shape(self, pop, rng):
        lons, lats = pop.sample_points(17, rng)
        assert lons.shape == (17,) and lats.shape == (17,)

    def test_exponent_flattens(self, pop):
        """Lower exponent spreads samples into low-density cells."""
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        lons_h, lats_h = pop.sample_points(4000, rng1, exponent=1.0)
        lons_l, lats_l = pop.sample_points(4000, rng2, exponent=0.5)
        med_h = np.median(pop.density_at(lons_h, lats_h))
        med_l = np.median(pop.density_at(lons_l, lats_l))
        assert med_l < med_h

    def test_deterministic_given_seed(self, pop):
        a = pop.sample_points(50, np.random.default_rng(9))
        b = pop.sample_points(50, np.random.default_rng(9))
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])


class TestLandMask:
    def test_containing_equals_the_per_state_loop(self, universe):
        """The land mask (``containing(...) >= 0``) equals the float
        mask the per-state loop built, at every population-grid cell
        center."""
        from repro.data.states import StateAssigner

        grid = universe.population.grid
        cmesh, rmesh = np.meshgrid(np.arange(grid.width),
                                   np.arange(grid.height))
        lons, lats = grid.cell_center(rmesh.ravel(), cmesh.ravel())
        assigner = StateAssigner()
        want = np.zeros(lons.shape)
        for state in assigner.states.values():
            idx = np.nonzero(want == 0.0)[0]
            if len(idx) == 0:
                break
            hit = state.geometry.contains_many(lons[idx], lats[idx])
            want[idx[hit]] = 1.0
        land = assigner.containing(lons, lats) >= 0
        assert np.array_equal(land.astype(float), want)
        assert 0 < land.sum() < len(land)

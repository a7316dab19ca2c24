"""Tests for repro.core.power and repro.core.coverage."""

import numpy as np
import pytest

from repro.core import coverage as coverage_mod
from repro.core.coverage import (
    _coverage_mask,
    coverage_loss_analysis,
    estimate_site_radii_m,
)
from repro.core.power import (
    fire_power_impact,
    power_grid_for,
    psps_exposure,
)
from repro.data.whp import WHPClass
from repro.geo.projection import meters_per_degree
from repro.session import session_of


def _coverage_mask_loop(pop, site_lons, site_lats, radii_m):
    """The per-site stamp loop coverage once ran: windows clamped per
    site and cell centers from ``cell_center`` per site."""
    grid = pop.grid
    covered = np.zeros(grid.shape, dtype=bool)
    _, m_lat = meters_per_degree(0.0)
    m_lon = m_lat * np.cos(np.radians(site_lats))
    rlons = radii_m / m_lon
    rlats = radii_m / m_lat
    rows0, cols0 = grid.rowcol(site_lons - rlons, site_lats + rlats)
    rows1, cols1 = grid.rowcol(site_lons + rlons, site_lats - rlats)
    for lon, lat, rlon, rlat, row0, col0, row1, col1 in zip(
            site_lons.tolist(), site_lats.tolist(), rlons.tolist(),
            rlats.tolist(), rows0.tolist(), cols0.tolist(),
            rows1.tolist(), cols1.tolist()):
        row0 = max(row0, 0)
        col0 = max(col0, 0)
        row1 = min(row1, grid.height - 1)
        col1 = min(col1, grid.width - 1)
        if row0 > row1 or col0 > col1:
            continue
        clons, _ = grid.cell_center(0, np.arange(col0, col1 + 1))
        _, clats = grid.cell_center(np.arange(row0, row1 + 1), 0)
        u = ((clons - lon) / rlon) ** 2
        v = ((clats - lat) / rlat) ** 2
        covered[row0:row1 + 1, col0:col1 + 1] |= (u[None, :]
                                                  + v[:, None]) <= 1.0
    return covered


def _edge_site_cases(grid):
    """Site arrays ``(lons, lats, radii_m)`` where the windows are not
    plain interior rectangles."""
    b = grid.bbox
    rng = np.random.default_rng(11)
    n = 300
    side = rng.integers(0, 4, n)
    lons = rng.uniform(b.min_lon, b.max_lon, n)
    lats = rng.uniform(b.min_lat, b.max_lat, n)
    # Sites within 0.5 degrees of an edge, on either side of it.
    near = rng.uniform(-0.5, 0.5, n)
    lons = np.where(side == 0, b.min_lon + near, lons)
    lons = np.where(side == 1, b.max_lon + near, lons)
    lats = np.where(side == 2, b.min_lat + near, lats)
    lats = np.where(side == 3, b.max_lat + near, lats)
    corner_lons = np.array([b.min_lon, b.max_lon] * 2) \
        + rng.uniform(-0.2, 0.2, 4)
    corner_lats = np.repeat([b.min_lat, b.max_lat], 2) \
        + rng.uniform(-0.2, 0.2, 4)
    # Off the grid by up to 3 degrees: most windows miss it entirely.
    far = rng.uniform(0.05, 3.0, n) * np.where(side < 2, -1.0, 1.0)
    off_lons = np.where(side % 2 == 0, b.min_lon + far, b.max_lon - far)
    off_lats = np.where(side % 2 == 0, b.max_lat + far, b.min_lat - far)
    clamps = np.where(rng.random(n) < 0.5, 1_500.0, 40_000.0)
    return {
        "edge-clipped": (np.concatenate([lons, corner_lons]),
                         np.concatenate([lats, corner_lats]),
                         rng.uniform(1_500.0, 40_000.0, n + 4)),
        "off-grid": (off_lons, off_lats, clamps[::-1].copy()),
        "clamped-radii": (lons, lats, clamps),
        "empty": (np.empty(0), np.empty(0), np.empty(0)),
    }


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def grid(universe):
    return power_grid_for(universe, n_substations=200)


class TestPowerImpact:
    def test_cached_grid(self, universe, grid):
        assert power_grid_for(universe, n_substations=200) is grid

    def test_2019_impact(self, universe, grid):
        impact = fire_power_impact(universe, 2019, grid=grid)
        assert impact.year == 2019
        assert impact.sites_total_affected \
            >= max(impact.sites_direct, impact.sites_indirect)
        assert impact.sites_total_affected \
            <= impact.sites_direct + impact.sites_indirect

    def test_indirect_channel_exists(self, universe, grid):
        """Across a big season, power-mediated outages appear beyond
        the perimeters — the §3.2/§3.11 finding."""
        impact = fire_power_impact(universe, 2017, grid=grid)
        assert impact.sites_indirect > 0

    def test_counts_nonnegative(self, universe, grid):
        impact = fire_power_impact(universe, 2010, grid=grid)
        assert impact.sites_direct >= 0
        assert impact.lines_cut >= 0
        assert impact.substations_hit >= 0

    @pytest.mark.parametrize("year", [2017, 2019])
    def test_direct_sites_equal_per_fire_query_loop(self, universe, grid,
                                                    year):
        """The per-fire index loop `power` ran before it read the
        season overlay finds the same direct sites."""
        cells = universe.cells
        index = cells.index()
        direct_tx = np.zeros(len(cells), dtype=bool)
        for fire in universe.fire_season(year).fires:
            direct_tx[index.query_polygon(fire.polygon)] = True
        overlay = session_of(universe).artifact("season_overlay",
                                                year=year)
        assert np.array_equal(overlay.in_perimeter_mask, direct_tx)
        expected = set(np.unique(cells.site_ids[direct_tx]).tolist())
        impact = fire_power_impact(universe, year, grid=grid)
        assert impact.sites_direct == len(expected)


class TestPspsExposure:
    def test_shares(self, universe, grid):
        exposure = psps_exposure(universe, grid=grid)
        assert 0.0 <= exposure.exposed_share <= 1.0
        assert exposure.n_lines_at_risk <= exposure.n_lines_total
        assert exposure.sites_exposed <= exposure.sites_total

    def test_lower_floor_more_exposure(self, universe, grid):
        high = psps_exposure(universe, grid=grid,
                             hazard_floor=WHPClass.VERY_HIGH)
        moderate = psps_exposure(universe, grid=grid,
                                 hazard_floor=WHPClass.MODERATE)
        assert moderate.sites_exposed >= high.sites_exposed
        assert moderate.n_lines_at_risk >= high.n_lines_at_risk


class TestCoverage:
    @pytest.fixture(scope="class")
    def result(self, universe):
        return coverage_loss_analysis(universe)

    def test_radii_bounds(self, universe):
        radii = estimate_site_radii_m(universe)
        assert (radii >= 1_500.0).all()
        assert (radii <= 40_000.0).all()
        assert len(radii) == universe.cells.n_sites()

    def test_urban_radii_smaller(self, universe):
        from repro.data.cities import city_by_name
        cells = universe.cells
        site_ids, first = np.unique(cells.site_ids, return_index=True)
        radii = estimate_site_radii_m(universe)
        la = city_by_name("Los Angeles")
        d = np.hypot(cells.lons[first] - la.lon,
                     cells.lats[first] - la.lat)
        urban = radii[d < 0.3]
        rural = radii[d > 5.0]
        if len(urban) and len(rural):
            assert np.median(urban) < np.median(rural)

    def test_most_population_covered(self, result):
        assert result.covered_share_before > 0.7

    def test_loss_is_consistent(self, result):
        assert result.population_covered_after \
            <= result.population_covered_before
        assert result.population_lost \
            == pytest.approx(result.population_covered_before
                             - result.population_covered_after, rel=0.01)

    def test_loss_small_but_positive(self, result):
        """Losing at-risk sites strands a small share of the country —
        redundant urban coverage absorbs most of it (the paper's point
        that rural/WUI users bear the coverage risk)."""
        assert 0.0 < result.lost_share < 0.25

    @pytest.mark.parametrize("floor", [WHPClass.MODERATE, WHPClass.HIGH],
                             ids=["moderate", "high"])
    def test_matches_two_pass_loop(self, universe, floor, monkeypatch):
        """The one-pass stamps equal the two passes (every site, then the
        safe ones) of the per-site ``cell_center`` loop, with site
        classes from the ``np.split`` grouping; so do the shape-grouped
        stamps of sites off the grid, at its edges, at both radius
        clamps and of no site, in blocks of any size."""
        cells = universe.cells
        pop = universe.population
        classes = session_of(universe).artifact("whp_classes")
        ids, first = np.unique(cells.site_ids, return_index=True)
        order = np.argsort(cells.site_ids, kind="stable")
        bounds = np.nonzero(np.diff(cells.site_ids[order]))[0] + 1
        site_class = np.array([g.max() for g in
                               np.split(classes[order], bounds)])
        safe = site_class < int(floor)
        lons, lats = cells.lons[first], cells.lats[first]
        radii = estimate_site_radii_m(universe)
        before = _coverage_mask_loop(pop, lons, lats, radii)
        after = _coverage_mask_loop(pop, lons[safe], lats[safe],
                                    radii[safe])
        assert np.array_equal(_coverage_mask(pop, lons, lats, radii),
                              before)
        weights = pop.raster.data
        result = coverage_loss_analysis(universe, hazard_floor=floor)
        assert result.sites_total == len(ids)
        assert result.sites_lost == int((~safe).sum())
        assert result.population_covered_before \
            == float(weights[before].sum())
        assert result.population_covered_after \
            == float(weights[after].sum())
        assert result.population_lost \
            == float(weights[before & ~after].sum())
        cases = {"universe": (lons, lats, radii),
                 **_edge_site_cases(pop.grid)}
        wants = {case: _coverage_mask_loop(pop, *sites)
                 for case, sites in cases.items()}
        assert [case for case, want in wants.items()
                if not want.any()] == ["empty"]
        for budget in (coverage_mod.STAMP_TILE_CELLS,
                       7 if floor is WHPClass.HIGH else 1):
            monkeypatch.setattr(coverage_mod, "STAMP_TILE_CELLS", budget)
            for case, sites in cases.items():
                assert np.array_equal(_coverage_mask(pop, *sites),
                                      wants[case]), (case, budget)

    def test_higher_floor_less_loss(self, universe, result):
        vh_only = coverage_loss_analysis(universe,
                                         hazard_floor=WHPClass.VERY_HIGH)
        assert vh_only.sites_lost <= result.sites_lost
        assert vh_only.population_lost <= result.population_lost + 1e4

"""Tests for repro.core.population_impact and repro.core.metro."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.metro import (
    CITY_GROUPS,
    DEFAULT_METRO_RADIUS_M,
    _assign_metro,
    city_very_high_counts,
    metro_risk_analysis,
)
from repro.core.population_impact import population_impact_analysis
from repro.data.cities import PAPER_METROS


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def impact(universe):
    return population_impact_analysis(universe)


@pytest.fixture(scope="module")
def metros(universe):
    return metro_risk_analysis(universe)


class TestFigure10:
    def test_matrix_shape(self, impact):
        assert set(impact.matrix) == {"Moderate", "High", "Very High"}
        for row in impact.matrix.values():
            assert len(row) == 3

    def test_counts_nonnegative(self, impact):
        for row in impact.matrix.values():
            for v in row.values():
                assert v >= 0

    def test_vh_pop_subset_of_all(self, impact):
        assert impact.at_risk_in_vh_pop_counties \
            <= impact.at_risk_in_pop_counties

    def test_panel_masks_nested(self, impact):
        assert not (impact.panel_vh_pop_mask
                    & ~impact.panel_all_mask).any()
        assert not (impact.panel_vh_both_mask
                    & ~impact.panel_vh_pop_mask).any()

    def test_vh_pop_counties_near_paper(self, impact):
        """Paper: 23 counties above 1.5M."""
        assert 15 <= impact.n_vh_pop_counties <= 35

    def test_at_risk_in_vh_pop_magnitude(self, impact):
        """Paper: 57,504 at-risk in very-dense counties."""
        assert 20_000 < impact.at_risk_in_vh_pop_counties < 200_000

    def test_matrix_consistent_with_headline(self, impact):
        vh_col = sum(row["Very Dense (>1.5M)"]
                     for row in impact.matrix.values())
        assert vh_col == pytest.approx(
            impact.at_risk_in_vh_pop_counties, rel=0.02)


class TestFigure12:
    def test_all_paper_metros(self, metros):
        assert {m.metro for m in metros} == set(PAPER_METROS)

    def test_sorted_descending(self, metros):
        totals = [m.total for m in metros]
        assert totals == sorted(totals, reverse=True)

    def test_la_in_top3(self, metros):
        """Paper §3.7: LA among the metros with most at-risk assets."""
        assert "Los Angeles" in [m.metro for m in metros[:3]]

    def test_ny_low(self, metros):
        """NYC has (almost) no at-risk infrastructure."""
        ny = next(m for m in metros if m.metro == "New York City")
        assert ny.total < metros[0].total / 5

    def test_moderate_dominates_most_metros(self, metros):
        """Paper: 'Most areas have more transceivers in moderate hazard
        areas than high' — check it holds in aggregate."""
        moderate = sum(m.moderate for m in metros)
        very_high = sum(m.very_high for m in metros)
        assert moderate > very_high


class TestCityVeryHigh:
    def test_groups_complete(self, universe):
        counts = city_very_high_counts(universe)
        assert set(counts) == set(CITY_GROUPS)

    def test_nonnegative(self, universe):
        for v in city_very_high_counts(universe).values():
            assert v >= 0

    def test_western_cities_lead(self, universe):
        """LA/SD/Bay Area/Miami dominate; Vegas/NYC tiny (paper: 10/81)."""
        counts = city_very_high_counts(universe)
        west = (counts["Los Angeles"] + counts["San Diego"]
                + counts["San Francisco/San Jose"] + counts["Miami"])
        small = counts["Las Vegas"] + counts["New York City"]
        assert west > small


def _full_scan_metro(lons, lats, metro_names, radius_m):
    """The oracle: one full-array haversine per metro, in list order."""
    from repro.data.cities import city_by_name
    from repro.geo.projection import haversine_m

    best_idx = np.full(len(lons), -1, dtype=np.int64)
    best_d = np.full(len(lons), np.inf)
    for i, name in enumerate(metro_names):
        city = city_by_name(name)
        d = haversine_m(lons, lats, np.full(len(lons), city.lon),
                        np.full(len(lons), city.lat))
        closer = (d < best_d) & (d <= radius_m)
        best_idx[closer] = i
        best_d[closer] = d[closer]
    return best_idx


def _points(lons, lats):
    return SimpleNamespace(cells=SimpleNamespace(
        lons=np.asarray(lons, dtype=float),
        lats=np.asarray(lats, dtype=float)))


class TestAssignMetroBox:
    """The box-bounded assignment equals the full scan, exactly."""

    @pytest.mark.parametrize("scale", ["tiny", "seed"])
    def test_equals_full_scan_on_the_universe(self, scale):
        from repro.data import universe_for_scale

        cells = universe_for_scale(scale).cells
        names = tuple(PAPER_METROS) + tuple(
            m for group in CITY_GROUPS.values() for m in group)
        for radius in (DEFAULT_METRO_RADIUS_M, 250_000.0, 5_000_000.0,
                       0.0, -1.0):
            got = _assign_metro(_points(cells.lons, cells.lats), names,
                                radius)
            want = _full_scan_metro(cells.lons, cells.lats, names, radius)
            assert np.array_equal(got, want)
            assert (got >= 0).any() == (radius > 0)

    def test_equals_full_scan_at_the_radius(self):
        """Points at 0.999r, r and 1.001r on eight bearings around every
        anchor: the box never drops a point the scan keeps."""
        from repro.data.cities import city_by_name
        from repro.geo.projection import destination_point

        r = DEFAULT_METRO_RADIUS_M
        lons, lats = [], []
        for name in PAPER_METROS:
            city = city_by_name(name)
            for bearing in range(0, 360, 45):
                for f in (0.999, 1.0, 1.001):
                    lon, lat = destination_point(city.lon, city.lat,
                                                 float(bearing), f * r)
                    lons.append(lon)
                    lats.append(lat)
        points = _points(lons, lats)
        got = _assign_metro(points, tuple(PAPER_METROS), r)
        want = _full_scan_metro(points.cells.lons, points.cells.lats,
                                tuple(PAPER_METROS), r)
        assert np.array_equal(got, want)
        inner = np.arange(len(lons)) % 3 == 0    # the 0.999r points
        assert (got[inner] >= 0).all()

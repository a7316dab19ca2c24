"""Tests for repro.data.states."""

import numpy as np
import pytest

from repro.data.states import (
    SOUTHEASTERN_STATES,
    WESTERN_STATES,
    StateAssigner,
    conus_bbox,
    conus_states,
)

KNOWN_POINTS = {
    # city-center spot checks: (lon, lat) -> state
    (-118.24, 34.05): "CA",
    (-122.33, 47.61): "WA",
    (-112.07, 33.45): "AZ",
    (-104.99, 39.74): "CO",
    (-95.37, 29.76): "TX",
    (-81.38, 28.54): "FL",
    (-87.63, 41.88): "IL",
    (-74.01, 40.71): "NY",
    (-71.06, 42.36): "MA",
    (-84.39, 33.75): "GA",
    (-90.05, 35.15): "TN",
    (-111.89, 40.76): "UT",
    (-116.20, 43.62): "ID",
    (-100.0, 46.8): "ND",
}


@pytest.fixture(scope="module")
def assigner():
    return StateAssigner()


class TestStateTable:
    def test_49_entries(self):
        assert len(conus_states()) == 49  # 48 states + DC

    def test_unique_fips(self):
        fips = [s.fips for s in conus_states().values()]
        assert len(set(fips)) == len(fips)

    def test_population_total_reasonable(self):
        total = sum(s.population for s in conus_states().values())
        assert 3.1e8 < total < 3.4e8

    def test_propensity_in_range(self):
        for s in conus_states().values():
            assert 0.0 <= s.whp_propensity <= 1.0
            assert 0.0 <= s.wui_intermix <= 1.0

    def test_western_states_higher_propensity(self):
        states = conus_states()
        west = np.mean([states[a].whp_propensity for a in WESTERN_STATES])
        midwest = np.mean([states[a].whp_propensity
                           for a in ("IL", "IN", "OH", "IA")])
        assert west > midwest + 0.3

    def test_all_geometries_in_conus_bbox(self):
        box = conus_bbox()
        for s in conus_states().values():
            sb = s.bbox
            assert sb.min_lon >= box.min_lon - 0.5
            assert sb.max_lon <= box.max_lon + 0.5
            assert sb.min_lat >= box.min_lat - 0.5
            assert sb.max_lat <= box.max_lat + 0.5

    def test_region_sets_are_state_abbrs(self):
        states = conus_states()
        for a in WESTERN_STATES | SOUTHEASTERN_STATES:
            assert a in states


class TestAssignment:
    def test_known_points(self, assigner):
        for (lon, lat), expected in KNOWN_POINTS.items():
            assert assigner.assign(lon, lat) == expected, (lon, lat)

    def test_assign_many_matches_scalar(self, assigner):
        lons = np.array([p[0] for p in KNOWN_POINTS])
        lats = np.array([p[1] for p in KNOWN_POINTS])
        got = assigner.assign_many(lons, lats)
        want = [KNOWN_POINTS[(lon, lat)]
                for lon, lat in zip(lons.tolist(), lats.tolist())]
        assert np.array(assigner.abbrs)[got].tolist() == want

    def test_total_assignment(self, assigner, rng):
        """Every CONUS point gets some state (fallback included)."""
        lons = rng.uniform(-124, -68, 2000)
        lats = rng.uniform(26, 48, 2000)
        got = assigner.assign_many(lons, lats)
        assert got.dtype.kind == "i"
        assert ((got >= 0) & (got < len(assigner.abbrs))).all()

    def test_containing_is_first_state_wins(self, assigner, rng):
        """Codes equal a per-state loop in table order; -1 where no
        polygon holds the point; assign_many differs only there."""
        assert assigner.abbrs == tuple(conus_states())
        lons = rng.uniform(-126, -66, 5000)
        lats = rng.uniform(24, 50, 5000)
        want = np.full(len(lons), -1)
        for code, state in enumerate(conus_states().values()):
            inside = state.geometry.contains_many(lons, lats)
            want[(want < 0) & inside] = code
        got = assigner.containing(lons, lats)
        assert np.array_equal(got, want)
        assert (got < 0).any() and (got >= 0).any()
        many = assigner.assign_many(lons, lats)
        assert np.array_equal(many[got >= 0], got[got >= 0])
        assert (many >= 0).all()

    def test_state_centers_assign_to_themselves(self, assigner):
        for abbr, state in conus_states().items():
            poly = state.geometry.polygons[0]
            c = poly.centroid()
            if poly.contains(c.lon, c.lat):
                assert assigner.assign(c.lon, c.lat) == abbr, abbr

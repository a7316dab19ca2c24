"""Tests for repro.data.cities and repro.data.roads."""

import hashlib

import numpy as np
import pytest

from repro.data.cities import (
    COUNTY_BBOXES,
    PAPER_METROS,
    WILDLAND_FRONTS,
    city_by_name,
    conus_cities,
)
from repro.data.roads import distance_to_roads_deg, road_edges, road_segments
from repro.data.states import StateAssigner
from repro.geo.projection import haversine_m


class TestCities:
    def test_count(self):
        assert len(conus_cities()) >= 70

    def test_unique_names(self):
        names = [c.name for c in conus_cities()]
        assert len(set(names)) == len(names)

    def test_unique_county_names(self):
        counties = [c.county_name for c in conus_cities()]
        assert len(set(counties)) == len(counties)

    def test_lookup(self):
        la = city_by_name("Los Angeles")
        assert la.state == "CA"
        assert la.county_pop == 10_100_000

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            city_by_name("Gotham")

    def test_paper_metros_exist(self):
        for name in PAPER_METROS:
            city_by_name(name)

    def test_cities_are_in_their_states(self):
        assigner = StateAssigner()
        mismatches = []
        for c in conus_cities():
            got = assigner.assign(c.lon, c.lat)
            if got != c.state:
                mismatches.append((c.name, got, c.state))
        # simplified borders may misplace the odd coastal city
        assert len(mismatches) <= 3, mismatches

    def test_county_bboxes_contain_anchor(self):
        for c in conus_cities():
            box = c.county_bbox
            if box is None:
                continue
            min_lon, min_lat, max_lon, max_lat = box
            assert min_lon <= c.lon <= max_lon, c.name
            assert min_lat <= c.lat <= max_lat, c.name

    def test_county_pop_not_exceeding_metro_much(self):
        for c in conus_cities():
            assert c.county_pop <= c.metro_pop * 1.6, c.name

    def test_wildland_fronts_reference_cities(self):
        names = {c.name for c in conus_cities()}
        for city in WILDLAND_FRONTS:
            assert city in names

    def test_front_parameters_sane(self):
        for dlon, dlat, sigma, boost in WILDLAND_FRONTS.values():
            assert 0 < sigma < 0.5
            assert 0 < boost <= 1.0
            assert abs(dlon) < 1.0 and abs(dlat) < 1.0

    def test_county_bbox_tables_consistent(self):
        county_names = {c.county_name for c in conus_cities()}
        for name in COUNTY_BBOXES:
            assert name in county_names, name


class TestRoads:
    def test_graph_connected(self):
        n = len(conus_cities())
        adj = [[] for _ in range(n)]
        for u, v in road_edges().tolist():
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [nb for node in frontier for nb in adj[node]
                        if nb not in seen and not seen.add(nb)]
        assert len(seen) == n

    def test_every_city_is_node(self):
        edges = road_edges()
        assert edges.dtype == np.int64 and edges.shape[1] == 2
        assert (edges[:, 0] < edges[:, 1]).all()
        assert len(np.unique(edges, axis=0)) == len(edges)
        assert set(edges.ravel().tolist()) \
            == set(range(len(conus_cities())))

    def test_edge_lengths_positive(self):
        cities = conus_cities()
        for u, v in road_edges().tolist():
            a, b = cities[u], cities[v]
            assert haversine_m(a.lon, a.lat, b.lon, b.lat) > 0

    def test_degree_at_least_k(self):
        degree = np.bincount(road_edges().ravel(),
                             minlength=len(conus_cities()))
        assert degree.min() >= 3

    def test_segments_match_edges(self):
        cities = conus_cities()
        segs = road_segments()
        assert len(segs) == len(road_edges())
        for seg, (u, v) in zip(segs, road_edges().tolist()):
            assert seg.coords.tolist() == [[cities[u].lon, cities[u].lat],
                                           [cities[v].lon, cities[v].lat]]

    def test_edge_order_pinned(self):
        """The town sampler draws per segment in row order, so the order
        is part of the output.  Pinned to the order the network had as a
        graph object: per city, its edges to later cities, tree edges by
        ascending length, then the k-nearest edges."""
        digest = hashlib.sha256(np.asarray(
            road_edges(), dtype=np.int64).tobytes()).hexdigest()
        assert digest == (
            "43aff596d49251e2264344a3c782033d688c447aa90695ef0fc0a67ae48bfd43")

    def test_distance_zero_on_city(self):
        la = city_by_name("Los Angeles")
        d = distance_to_roads_deg(np.array([la.lon]), np.array([la.lat]))
        assert d[0] < 1e-6

    def test_distance_positive_off_network(self):
        # middle of Nevada wilderness
        d = distance_to_roads_deg(np.array([-117.0]), np.array([39.0]))
        assert d[0] > 0.05

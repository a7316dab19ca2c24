"""Tests for repro.data.cells."""

import numpy as np
import pytest

from repro.data.cells import (
    PAPER_TRANSCEIVER_COUNT,
    PROVIDER_GROUPS,
    CellUniverse,
    generate_cells,
)
from repro.data.providers import provider_market_shares
from repro.data.radios import RadioType


class TestGeneration:
    def test_exact_count(self, universe):
        assert len(universe.cells) == universe.config.n_transceivers

    def test_rejects_nonpositive(self, universe):
        with pytest.raises(ValueError):
            generate_cells(universe.population, 0)

    def test_universe_scale(self, cells):
        assert cells.universe_scale \
            == pytest.approx(PAPER_TRANSCEIVER_COUNT / len(cells))

    def test_per_site_bounds(self, cells):
        _, counts = np.unique(cells.site_ids, return_counts=True)
        assert counts.min() >= 1
        assert counts.max() <= 12

    def test_mean_per_site(self, universe, cells):
        mean = len(cells) / cells.n_sites()
        assert mean == pytest.approx(universe.config.mean_per_site,
                                     rel=0.15)

    def test_transceivers_share_site_location(self, cells):
        """Co-located transceivers are within jitter distance."""
        site = cells.site_ids[0]
        mask = cells.site_ids == site
        lons = cells.lons[mask]
        lats = cells.lats[mask]
        assert lons.max() - lons.min() < 0.02
        assert lats.max() - lats.min() < 0.02

    def test_provider_shares_close_to_market(self, cells):
        shares = provider_market_shares()
        names = cells.group_names()
        for i, group in enumerate(PROVIDER_GROUPS):
            measured = float((names == group).mean())
            assert measured == pytest.approx(shares[group], abs=0.04), \
                group

    def test_plmns_resolve_to_assigned_group(self, cells):
        from repro.data.cells import _groups_from_plmns
        rederived = _groups_from_plmns(cells.mcc[:2000], cells.mnc[:2000])
        np.testing.assert_array_equal(rederived,
                                      cells.provider_group[:2000])

    def test_radio_codes_valid(self, cells):
        assert set(np.unique(cells.radio)) <= {
            int(RadioType.GSM), int(RadioType.UMTS),
            int(RadioType.CDMA), int(RadioType.LTE)}

    def test_deterministic(self, universe):
        a = generate_cells(universe.population, 2000, seed=42)
        b = generate_cells(universe.population, 2000, seed=42)
        np.testing.assert_allclose(a.lons, b.lons)
        np.testing.assert_array_equal(a.mnc, b.mnc)

    def test_different_seeds_differ(self, universe):
        a = generate_cells(universe.population, 2000, seed=1)
        b = generate_cells(universe.population, 2000, seed=2)
        assert not np.allclose(a.lons, b.lons)

    def test_locations_in_conus(self, cells):
        box = cells.index().bbox
        assert box.min_lon > -126 and box.max_lon < -66
        assert box.min_lat > 24 and box.max_lat < 50


class TestContainer:
    def test_column_length_validation(self):
        with pytest.raises(ValueError):
            CellUniverse(
                lons=np.zeros(3), lats=np.zeros(3),
                site_ids=np.zeros(2, dtype=np.int64),
                mcc=np.zeros(3, dtype=np.int32),
                mnc=np.zeros(3, dtype=np.int32),
                provider_group=np.zeros(3, dtype=np.int8),
                radio=np.zeros(3, dtype=np.int8))

    def test_subset(self, cells):
        sub = cells.subset(np.arange(10))
        assert len(sub) == 10
        np.testing.assert_allclose(sub.lons, cells.lons[:10])

    def test_subset_mask(self, cells):
        mask = cells.radio == int(RadioType.LTE)
        sub = cells.subset(mask)
        assert len(sub) == int(mask.sum())

    def test_index_cached(self, cells):
        idx1 = cells.index()
        idx2 = cells.index()
        assert idx1 is idx2

    def test_group_names(self, cells):
        names = cells.group_names()
        assert set(np.unique(names)) <= set(PROVIDER_GROUPS)


class TestSiteTable:
    """The one site grouping against np.unique and the np.split
    groupings it replaced."""

    @pytest.fixture(scope="class", params=["universe", "shuffled"])
    def some_cells(self, request, cells):
        if request.param == "universe":
            return cells
        # A permuted subset: site ids arrive unsorted and interleaved.
        return cells.subset(np.random.default_rng(5).permutation(len(cells)))

    def test_matches_np_unique(self, some_cells):
        sites = some_cells.sites()
        ids, first = np.unique(some_cells.site_ids, return_index=True)
        assert np.array_equal(sites.ids, ids)
        assert np.array_equal(sites.order[sites.starts], first)
        assert np.array_equal(sites.lons, some_cells.lons[first])
        assert np.array_equal(sites.lats, some_cells.lats[first])
        assert len(sites) == some_cells.n_sites() == len(ids)

    def test_cached(self, some_cells):
        assert some_cells.sites() is some_cells.sites()

    def test_reductions_match_split(self, some_cells):
        sites = some_cells.sites()
        order = np.argsort(some_cells.site_ids, kind="stable")
        bounds = np.nonzero(np.diff(some_cells.site_ids[order]))[0] + 1
        groups = np.split(order, bounds)
        radio = some_cells.radio
        assert np.array_equal(sites.max(radio),
                              [radio[g].max() for g in groups])
        mask = np.random.default_rng(6).random(len(some_cells)) < 0.1
        assert np.array_equal(sites.any(mask),
                              [mask[g].any() for g in groups])


class TestCsvIO:
    def test_roundtrip(self, universe, tmp_path):
        small = generate_cells(universe.population, 500, seed=3)
        path = tmp_path / "cells.csv"
        small.to_csv(path)
        loaded = CellUniverse.from_csv(path)
        assert len(loaded) == 500
        np.testing.assert_allclose(loaded.lons, small.lons, atol=1e-6)
        np.testing.assert_array_equal(loaded.mcc, small.mcc)
        np.testing.assert_array_equal(loaded.radio, small.radio)
        # provider groups are re-derived from PLMNs on load
        np.testing.assert_array_equal(loaded.provider_group,
                                      small.provider_group)

    def test_header(self, universe, tmp_path):
        small = generate_cells(universe.population, 10, seed=3)
        path = tmp_path / "cells.csv"
        small.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "radio,mcc,net,area,cell,lon,lat"

"""Tests for repro.data.whp."""

import numpy as np
import pytest

from repro.data.whp import (
    AT_RISK_CLASSES,
    DEFAULT_TARGET_SHARES,
    WHP_CLASS_NAMES,
    WHPClass,
    class_counts,
)


class TestClasses:
    def test_ordering(self):
        assert WHPClass.VERY_HIGH > WHPClass.HIGH > WHPClass.MODERATE \
            > WHPClass.LOW > WHPClass.VERY_LOW > WHPClass.NON_BURNABLE

    def test_at_risk_classes(self):
        assert AT_RISK_CLASSES == (WHPClass.MODERATE, WHPClass.HIGH,
                                   WHPClass.VERY_HIGH)

    def test_names_complete(self):
        for cls in WHPClass:
            assert cls in WHP_CLASS_NAMES

    def test_target_shares_from_paper(self):
        assert DEFAULT_TARGET_SHARES[WHPClass.VERY_HIGH] \
            == pytest.approx(26_307 / 5_364_949)


def _mask_loop_counts(codes, n_groups, classes):
    """The oracle: one mask per group, then one per class, as Tables
    2-3 and Figures 7-10 and 12 counted before ``class_counts``."""
    out = np.zeros((n_groups, len(WHPClass)), dtype=np.int64)
    for group in range(n_groups):
        sub = classes[codes == group]
        for whp_class in WHPClass:
            out[group, whp_class] = int((sub == int(whp_class)).sum())
    return out


class TestClassCounts:
    """One bincount equals the per-group mask loops, exactly."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_mask_loop_on_random_codes(self, dtype, seed):
        rng = np.random.default_rng(seed)
        n_groups = 9
        # Groups 2 and 6 stay empty; -1 marks points in no group.
        drawn = np.array([-1, 0, 1, 3, 4, 5, 7, 8])
        codes = rng.choice(drawn, size=5000).astype(dtype)
        classes = rng.integers(0, len(WHPClass), size=5000,
                               dtype=np.int8)
        assert set(np.unique(classes)) == set(range(len(WHPClass)))

        got = class_counts(codes, n_groups, classes)
        assert got.shape == (n_groups, len(WHPClass))
        assert np.array_equal(got, _mask_loop_counts(codes, n_groups,
                                                     classes))
        assert got[[2, 6]].sum() == 0
        assert got.sum() == (codes >= 0).sum()

    def test_no_points_and_no_groups(self):
        empty = np.array([], dtype=np.int8)
        assert np.array_equal(class_counts(empty, 3, empty),
                              np.zeros((3, len(WHPClass))))
        codes = np.full(10, -1, dtype=np.int8)
        classes = np.full(10, int(WHPClass.HIGH), dtype=np.int8)
        assert class_counts(codes, 2, classes).sum() == 0

    @pytest.mark.parametrize("scale", ["tiny", "seed"])
    def test_equals_mask_loop_on_the_universe(self, scale):
        """Provider, radio, state and metro codes of a real universe."""
        from repro.core.metro import DEFAULT_METRO_RADIUS_M, _assign_metro
        from repro.data import (
            PAPER_METROS,
            PROVIDER_GROUPS,
            RadioType,
            StateAssigner,
            universe_for_scale,
        )
        from repro.session import session_of

        universe = universe_for_scale(scale)
        cells = universe.cells
        classes = session_of(universe).artifact("whp_classes")
        assigner = StateAssigner()
        groupings = {
            "provider": (cells.provider_group, len(PROVIDER_GROUPS)),
            "radio": (cells.radio, len(RadioType)),
            "state": (assigner.assign_many(cells.lons, cells.lats),
                      len(assigner.abbrs)),
            "metro": (_assign_metro(universe, tuple(PAPER_METROS),
                                    DEFAULT_METRO_RADIUS_M),
                      len(PAPER_METROS)),
        }
        for name, (codes, n_groups) in groupings.items():
            got = class_counts(codes, n_groups, classes)
            want = _mask_loop_counts(codes, n_groups, classes)
            assert np.array_equal(got, want), name
        assert (groupings["metro"][0] < 0).any()


class TestRaster(object):
    def test_every_class_present(self, whp):
        values = set(np.unique(whp.raster.data).tolist())
        for cls in WHPClass:
            if cls == WHPClass.NON_BURNABLE:
                continue
            assert int(cls) in values, cls

    def test_water_is_nonburnable(self, whp):
        # Atlantic and Pacific
        assert whp.classify(-70.0, 35.0) == int(WHPClass.NON_BURNABLE)
        assert whp.classify(-126.0, 40.0) == int(WHPClass.NON_BURNABLE)

    def test_urban_cores_nonburnable(self, whp):
        # Manhattan and downtown Chicago
        assert whp.classify(-74.0, 40.72) == int(WHPClass.NON_BURNABLE)
        assert whp.classify(-87.63, 41.88) == int(WHPClass.NON_BURNABLE)

    def test_fuel_zero_on_water(self, whp):
        assert whp.fuel.sample(-70.0, 35.0) == 0.0

    def test_class_mask_consistency(self, whp):
        mask = whp.class_mask(WHPClass.MODERATE)
        assert mask.sum() == (whp.raster.data
                              == int(WHPClass.MODERATE)).sum()

    def test_at_risk_mask_is_union(self, whp):
        union = np.zeros(whp.grid.shape, dtype=bool)
        for cls in AT_RISK_CLASSES:
            union |= whp.class_mask(cls)
        np.testing.assert_array_equal(whp.at_risk_mask(), union)

    def test_class_area_ordering(self, whp):
        """VH covers less area than H, which covers less than M."""
        vh = whp.raster.class_area_sqm(int(WHPClass.VERY_HIGH))
        h = whp.raster.class_area_sqm(int(WHPClass.HIGH))
        m = whp.raster.class_area_sqm(int(WHPClass.MODERATE))
        assert vh < h < m

    def test_classify_outside_grid(self, whp):
        assert whp.classify(10.0, 10.0) == int(WHPClass.NON_BURNABLE)


class TestCalibration:
    def test_transceiver_shares_near_paper(self, universe, whp, cells):
        """The weight-share calibration holds within sampling noise."""
        classes = whp.classify(cells.lons, cells.lats)
        for cls in AT_RISK_CLASSES:
            measured = float((classes == int(cls)).mean())
            target = DEFAULT_TARGET_SHARES[cls]
            assert measured == pytest.approx(target, rel=0.6), cls

    def test_total_at_risk_share(self, whp, cells):
        classes = whp.classify(cells.lons, cells.lats)
        at_risk = float((classes >= int(WHPClass.MODERATE)).mean())
        assert 0.05 < at_risk < 0.13  # paper: 8.03%

    def test_west_hazard_exceeds_midwest(self, whp):
        """Figure 6's geography: hazard concentrated west/southeast."""
        grid = whp.grid
        def at_risk_fraction(lon0, lon1, lat0, lat1):
            rows0, cols0 = grid.rowcol(lon0, lat1)
            rows1, cols1 = grid.rowcol(lon1, lat0)
            window = whp.raster.data[int(rows0):int(rows1),
                                     int(cols0):int(cols1)]
            return (window >= int(WHPClass.MODERATE)).mean()
        west = at_risk_fraction(-122, -112, 34, 44)
        midwest = at_risk_fraction(-95, -85, 38, 44)
        assert west > 3 * midwest

    def test_ignition_weights_shape(self, whp):
        w = whp.ignition_weights()
        assert w.shape == whp.grid.shape
        assert (w >= 0).all()
        assert w.sum() > 0

    def test_ignition_zero_on_nonburnable(self, whp):
        w = whp.ignition_weights()
        nb = whp.raster.data == int(WHPClass.NON_BURNABLE)
        assert w[nb].max() == 0.0

    def test_ignition_penalizes_population(self, whp):
        """Among at-risk cells, ignition weight is lower where
        placement weight is higher."""
        w = whp.ignition_weights()
        hazard = whp.raster.data == int(WHPClass.MODERATE)
        weights = whp.placement_weight.data
        dense = hazard & (weights >= np.percentile(weights[hazard], 90))
        sparse = hazard & (weights <= np.percentile(weights[hazard], 20))
        assert w[dense].mean() < w[sparse].mean()

    def test_wildland_front_hazard(self, whp):
        """The Wasatch front east of Salt Lake City is at-risk."""
        from repro.data.cities import city_by_name
        slc = city_by_name("Salt Lake City")
        cls = whp.classify(slc.lon + 0.2, slc.lat)
        assert cls >= int(WHPClass.MODERATE)

"""Tests for repro.core.validation and repro.core.extension (§3.4/§3.8)."""

import numpy as np
import pytest

from repro.core.extension import _dilate_fringe_equivalent, extend_very_high
from repro.core.overlay import classify_cells, overlay_fires
from repro.core.validation import ValidationResult, validate_whp_2019
from repro.data.cells import generate_cells
from repro.data.whp import WHPClass
from repro.data.wildfires import SCRIPTED_LA_FIRES_2019
from repro.geo.projection import miles_to_meters
from repro.geo.raster import Raster
from repro.session import session_of


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def result(universe):
    # large oversample: in-perimeter membership is a ~1e-4 tail event
    return validate_whp_2019(universe, oversample=24)


@pytest.fixture(scope="module")
def extension(universe):
    return extend_very_high(universe)


class TestValidation:
    def test_counts_consistent(self, result):
        assert result.predicted_at_risk + result.missed \
            == result.in_perimeter_total
        assert result.missed_in_la_fires <= result.missed
        assert result.missed_in_la_fires <= result.in_la_fires_total

    def test_accuracy_in_unit_interval(self, result):
        assert 0.0 <= result.accuracy <= 1.0

    def test_accuracy_below_one(self, result):
        """The paper's point: static WHP misses a large share."""
        assert result.accuracy < 0.85

    def test_la_fires_contribute_misses(self, result):
        """Misses concentrate in the Saddle Ridge/Tick footprints."""
        assert result.missed_in_la_fires > 0

    def test_excluding_la_improves(self, result):
        assert result.accuracy_excluding_la >= result.accuracy - 0.05

    def test_scaled(self, result):
        assert result.scaled(100) == round(100 * result.universe_scale)

    def test_oversample_shrinks_scale(self, universe):
        v4 = validate_whp_2019(universe, oversample=4)
        assert v4.universe_scale \
            == pytest.approx(universe.universe_scale / 4)

    def test_override_superset_mask(self, universe):
        """An everything-at-risk override yields perfect accuracy."""
        full = np.ones(universe.whp.grid.shape, dtype=bool)
        v = validate_whp_2019(universe, at_risk_mask_override=full,
                              oversample=4)
        assert v.accuracy == pytest.approx(1.0)

    def test_override_empty_mask(self, universe):
        empty = np.zeros(universe.whp.grid.shape, dtype=bool)
        v = validate_whp_2019(universe, at_risk_mask_override=empty,
                              oversample=4)
        assert v.predicted_at_risk == 0

    def test_zero_denominator_nan(self):
        r = ValidationResult(0, 0, 0, 0, 0, 1.0)
        assert np.isnan(r.accuracy)


class TestValidationReadsSessionProducts:
    """`validate` reads the LA fires' footprints from the validation
    overlay and classifies through ``classify_cells``; the direct
    computations it replaced are the oracles."""

    def test_la_footprints_equal_contains_many(self, universe, result):
        cells = universe.validation_cells(24)
        overlay = session_of(universe).artifact("validation_overlay",
                                                oversample=24)
        expected = np.zeros(len(cells), dtype=bool)
        for fire in universe.fire_season(2019).fires:
            if fire.name in SCRIPTED_LA_FIRES_2019:
                expected |= fire.polygon.contains_many(cells.lons,
                                                       cells.lats)
        assert expected.any()
        union = np.zeros(len(cells), dtype=bool)
        for name in SCRIPTED_LA_FIRES_2019:
            union[overlay.per_fire_hits[name]] = True
        assert np.array_equal(union, expected)
        assert result.in_la_fires_total \
            == int((overlay.in_perimeter_mask & expected).sum())

    def test_classify_cells_equals_whp_classify(self, universe):
        cells = universe.validation_cells(24)
        expected = universe.whp.classify(cells.lons, cells.lats)
        got = classify_cells(cells, universe.whp, use_cache=False)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def _full_path(universe, oversample):
    """The validation sample as it was drawn and joined before the
    rare-event cuts: every column of every point, every point joined."""
    cfg = universe.config
    cells = generate_cells(
        universe.population,
        n_transceivers=cfg.n_transceivers * oversample,
        seed=cfg.seed + 7,
        placement_exponent=cfg.placement_exponent,
        mean_per_site=cfg.mean_per_site,
        urban_halfsat=cfg.urban_halfsat)
    overlay = overlay_fires(cells, universe.fire_season(2019).fires,
                            year=2019, workers=1, use_cache=False)
    return cells, overlay


def _full_result(universe, cells, overlay, oversample, floor, override):
    """The validation over every point of the full sample."""
    in_fire = overlay.in_perimeter_mask
    if override is not None:
        predicted = Raster(universe.whp.grid, override).sample(
            cells.lons, cells.lats)
    else:
        predicted = classify_cells(cells, universe.whp,
                                   use_cache=False) >= int(floor)
    in_la = np.zeros(len(cells), dtype=bool)
    for name, hits in overlay.per_fire_hits.items():
        if name in SCRIPTED_LA_FIRES_2019:
            in_la[hits] = True
    hits = in_fire & predicted
    misses = in_fire & ~predicted
    return ValidationResult(
        in_perimeter_total=int(in_fire.sum()),
        predicted_at_risk=int(hits.sum()),
        missed=int(misses.sum()),
        missed_in_la_fires=int((misses & in_la).sum()),
        in_la_fires_total=int((in_fire & in_la).sum()),
        universe_scale=universe.cells.universe_scale / oversample)


def _extended_mask(universe):
    """The §3.8 at-risk mask after the half-mile very-high extension."""
    whp = universe.whp
    vh = whp.class_mask(WHPClass.VERY_HIGH)
    extended = _dilate_fringe_equivalent(universe, vh,
                                         miles_to_meters(0.5))
    extended &= (whp.fuel.data > 0) | vh
    return whp.at_risk_mask() | extended


class TestRareEventJoinEqualsFullPath:
    """Coordinates-only draw, box prefilter and in-perimeter classify
    give exactly what the full draw, join and classify gave."""

    @pytest.fixture(scope="class", params=[4, 8, 24])
    def full(self, request, universe):
        return request.param, *_full_path(universe, request.param)

    def test_overlay_equals_full_join(self, universe, full):
        oversample, cells, want = full
        got = session_of(universe).artifact("validation_overlay",
                                            oversample=oversample)
        assert want.in_perimeter_mask.any()
        assert np.array_equal(got.in_perimeter_mask,
                              want.in_perimeter_mask)
        assert (got.year, got.n_fires) == (want.year, want.n_fires)
        assert got.per_fire_counts == want.per_fire_counts
        assert list(got.per_fire_hits) == list(want.per_fire_hits)
        for name, hits in want.per_fire_hits.items():
            assert np.array_equal(np.sort(got.per_fire_hits[name]),
                                  np.sort(hits))

    @pytest.mark.parametrize("floor", [WHPClass.MODERATE, WHPClass.HIGH])
    def test_floor_result_equals_full_path(self, universe, full, floor):
        oversample, cells, overlay = full
        got = validate_whp_2019(universe, at_risk_floor=floor,
                                oversample=oversample)
        want = _full_result(universe, cells, overlay, oversample, floor,
                            None)
        assert want.in_perimeter_total > 0
        assert got == want

    @pytest.mark.parametrize("override", ["all", "none", "extended"])
    def test_override_result_equals_full_path(self, universe, full,
                                              override):
        oversample, cells, overlay = full
        shape = universe.whp.grid.shape
        mask = {"all": lambda: np.ones(shape, dtype=bool),
                "none": lambda: np.zeros(shape, dtype=bool),
                "extended": lambda: _extended_mask(universe)}[override]()
        got = validate_whp_2019(universe, at_risk_mask_override=mask,
                                oversample=oversample)
        want = _full_result(universe, cells, overlay, oversample,
                            WHPClass.MODERATE, mask)
        assert got == want


class TestExtension:
    def test_monotone_growth(self, extension):
        assert extension.vh_after >= extension.vh_before
        assert extension.total_after >= extension.total_before

    def test_vh_growth_substantial(self, extension):
        """Paper: 26,307 -> 176,275 (6.7x)."""
        assert extension.vh_after > 2 * extension.vh_before

    def test_accuracy_never_decreases(self, extension):
        assert extension.validation_after.accuracy \
            >= extension.validation_before.accuracy - 1e-9

    def test_accuracy_gain_property(self, extension):
        assert extension.accuracy_gain == pytest.approx(
            extension.validation_after.accuracy
            - extension.validation_before.accuracy)

    def test_total_growth_bounded(self, extension):
        """The paper calls the growth 'an acceptable trade-off':
        total at-risk grows, but far less than the VH class does."""
        total_ratio = extension.total_after / extension.total_before
        assert total_ratio < 2.0

    def test_radius_recorded(self, extension):
        assert extension.radius_miles == 0.5

    def test_larger_radius_grows_more(self, universe, extension):
        bigger = extend_very_high(universe, radius_miles=1.0)
        assert bigger.vh_after >= extension.vh_after

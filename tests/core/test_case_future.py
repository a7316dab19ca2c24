"""Tests for repro.core.case_study and repro.core.future."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.case_study import DOY_LABELS, case_study_analysis
from repro.core.future import (
    EcoregionExposure,
    _compute_future_risk,
    future_risk_analysis,
)
from repro.data.ecoregions import (
    ecoregion_at,
    slc_denver_ecoregions,
    slc_denver_window,
)
from repro.data.whp import WHPClass


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def summary(universe):
    return case_study_analysis(universe)


@pytest.fixture(scope="module")
def exposures(universe):
    return future_risk_analysis(universe)


class TestCaseStudy:
    def test_eight_days(self, summary):
        assert len(summary.days) == 8
        assert summary.days[0] == "Oct 25"
        assert summary.days[-1] == "Nov 1"

    def test_labels_cover_window(self):
        assert set(DOY_LABELS) == set(range(298, 306))

    def test_power_dominates_peak(self, summary):
        """The §3.2 headline: >80% of peak outages are power loss."""
        assert summary.peak_power_share > 0.6

    def test_peak_is_maximum(self, summary):
        assert summary.peak_total == max(summary.totals())

    def test_peak_around_oct28(self, summary):
        assert summary.peak_day in ("Oct 27", "Oct 28", "Oct 29")

    def test_final_below_peak(self, summary):
        assert summary.final_total < summary.peak_total

    def test_damage_persists(self, summary):
        """Damaged sites are still out at the end of the window
        (paper: 21 of the 110 still out on 1 Nov were damaged)."""
        assert summary.final_damaged <= summary.final_total

    def test_series_lengths(self, summary):
        assert len(summary.power) == len(summary.backhaul) \
            == len(summary.damage) == 8

    def test_totals_sum(self, summary):
        totals = summary.totals()
        for i in range(8):
            assert totals[i] == (summary.power[i] + summary.backhaul[i]
                                 + summary.damage[i])


class TestFuture:
    def test_thirteen_rows(self, exposures):
        assert len(exposures) == 13

    def test_sorted_by_delta(self, exposures):
        deltas = [r.delta_2040_pct for r in exposures]
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[0] == pytest.approx(240.0)
        assert deltas[-1] == pytest.approx(-119.0)

    def test_at_risk_subset(self, exposures):
        for r in exposures:
            assert 0 <= r.at_risk_transceivers <= r.transceivers

    def test_corridor_has_infrastructure(self, exposures):
        """SLC and Denver anchor the window: transceivers exist."""
        assert sum(r.transceivers for r in exposures) > 0

    def test_projection_scales_with_delta(self, exposures):
        for r in exposures:
            if r.delta_2040_pct > 0:
                assert r.projected_at_risk_2040 \
                    >= r.at_risk_transceivers
            else:
                assert r.projected_at_risk_2040 \
                    <= r.at_risk_transceivers

    def test_decreasing_region_clamped_at_zero(self, exposures):
        worst = exposures[-1]
        assert worst.projected_at_risk_2040 >= 0

    def test_increasing_flag(self, exposures):
        assert exposures[0].increasing
        assert not exposures[-1].increasing

    def test_front_range_most_infrastructure(self, exposures):
        """Denver's Front Range ecoregion holds the most transceivers
        in the window."""
        most = max(exposures, key=lambda r: r.transceivers)
        assert most.code in ("M331H", "342B", "341A")


def _mask_loop_rows(universe, classes):
    """Oracle: the per-region mask loop ``future_risk`` ran before its
    one region-code array."""
    cells = universe.cells
    in_window = slc_denver_window().contains_many(cells.lons, cells.lats)
    rows = []
    for region in slc_denver_ecoregions():
        inside = np.zeros(len(cells), dtype=bool)
        idx = np.nonzero(in_window)[0]
        if len(idx):
            hit = region.polygon.contains_many(cells.lons[idx],
                                               cells.lats[idx])
            inside[idx[hit]] = True
        n = universe.scaled(inside.sum())
        at_risk_raw = int((inside
                           & (classes >= int(WHPClass.MODERATE))).sum())
        at_risk = universe.scaled(at_risk_raw)
        projected = int(round(
            max(at_risk * (1.0 + region.delta_2040_pct / 100.0), 0.0)))
        rows.append(EcoregionExposure(
            code=region.code, name=region.name,
            delta_2040_pct=region.delta_2040_pct,
            delta_2080_pct=region.delta_2080_pct, transceivers=n,
            at_risk_transceivers=at_risk,
            projected_at_risk_2040=projected))
    rows.sort(key=lambda r: -r.delta_2040_pct)
    return rows


def _shared_edge_points():
    """Five points (corners, quarter points, midpoint) along each edge
    of every rectangle, kept where the edge is shared: strictly inside
    the window."""
    lons, lats = [], []
    for region in slc_denver_ecoregions():
        b = region.polygon.bbox
        for lo, hi, fixed, vertical in (
                (b.min_lat, b.max_lat, b.min_lon, True),
                (b.min_lat, b.max_lat, b.max_lon, True),
                (b.min_lon, b.max_lon, b.min_lat, False),
                (b.min_lon, b.max_lon, b.max_lat, False)):
            ticks = [lo, lo + (hi - lo) / 4.0, (lo + hi) / 2.0,
                     hi - (hi - lo) / 4.0, hi]
            for t in ticks:
                lons.append(fixed if vertical else t)
                lats.append(t if vertical else fixed)
    w = slc_denver_window()
    keep = [(w.min_lon < x < w.max_lon) and (w.min_lat < y < w.max_lat)
            for x, y in zip(lons, lats)]
    return (np.array(lons)[keep], np.array(lats)[keep])


class TestEcoregionCodes:
    """One region code per point: the vector kernel's half-open
    rectangles partition the window, so first-wins codes count what the
    per-region masks counted."""

    def test_shared_edges_lie_in_exactly_one_region(self):
        lons, lats = _shared_edge_points()
        assert len(lons) > 100
        holds = np.array([r.polygon.contains_many(lons, lats)
                          for r in slc_denver_ecoregions()])
        assert (holds.sum(axis=0) == 1).all()

    def test_ecoregion_at_is_the_region_counted(self):
        """On shared edges and corners, ``ecoregion_at`` names the one
        row ``future_risk`` counts the point in (the scalar ``contains``
        puts an edge point in both neighbours; ``ecoregion_at`` no
        longer uses it)."""
        from repro.data.cells import PointSet

        lons, lats = _shared_edge_points()
        lons = np.append(lons, [-109.0, -100.0, -104.0])
        lats = np.append(lats, [41.4, 35.0, 42.2])
        for lon, lat in zip(lons, lats):
            universe = SimpleNamespace(
                cells=PointSet(lons=np.array([lon]), lats=np.array([lat])),
                scaled=int)
            session = SimpleNamespace(
                universe=universe,
                artifact=lambda name: np.array([WHPClass.HIGH],
                                               dtype=np.int8))
            counted = [r.code for r in _compute_future_risk(session)
                       if r.transceivers]
            region = ecoregion_at(lon, lat)
            assert counted == ([] if region is None else [region.code])

    @pytest.mark.parametrize("scale", ["tiny", "seed"])
    def test_rows_equal_the_mask_loop(self, scale):
        from repro.data import universe_for_scale
        from repro.session import session_of

        universe = universe_for_scale(scale)
        classes = session_of(universe).artifact("whp_classes")
        want = _mask_loop_rows(universe, classes)
        assert future_risk_analysis(universe) == want
        assert sum(r.transceivers for r in want) > 0

"""Tests for repro.core.historical and repro.core.hazard."""

import numpy as np
import pytest

from repro.core.hazard import hazard_analysis, population_served_at_risk
from repro.core.historical import historical_analysis, total_in_perimeters
from repro.data.historical_stats import year_stats
from repro.data.whp import WHPClass


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def table1(universe):
    return historical_analysis(universe)


@pytest.fixture(scope="module")
def summary(universe):
    return hazard_analysis(universe)


class TestTable1:
    def test_nineteen_years(self, table1):
        assert len(table1) == 19
        assert table1[0].year == 2018 and table1[-1].year == 2000

    def test_input_columns_from_record(self, table1):
        for row in table1:
            stats = year_stats(row.year)
            assert row.n_fires == stats.n_fires
            assert row.acres_burned_millions == stats.acres_burned

    def test_scaled_counts_consistent(self, table1, universe):
        scale = universe.universe_scale
        for row in table1:
            assert row.transceivers_in_perimeters_scaled \
                == round(row.transceivers_in_perimeters * scale)

    def test_per_macre_ratio(self, table1):
        for row in table1:
            expected = (row.transceivers_in_perimeters_scaled
                        / row.acres_burned_millions)
            assert row.transceivers_per_m_acres \
                == pytest.approx(expected)

    def test_paper_shape_every_year_nonzero_range(self, table1):
        """Paper: at least ~180 transceivers every year, max ~5k.
        At synthetic scale the shape claim is a wide nonzero band."""
        scaled = [r.transceivers_in_perimeters_scaled for r in table1]
        assert max(scaled) > 500
        assert max(scaled) < 60_000

    def test_no_tight_acreage_correlation(self, table1):
        """Paper: no simple relationship between acres and at-risk."""
        acres = [r.acres_burned_millions for r in table1]
        counts = [r.transceivers_in_perimeters_scaled for r in table1]
        r = abs(np.corrcoef(acres, counts)[0, 1])
        assert r < 0.85

    def test_total_magnitude(self, universe):
        total, mask = total_in_perimeters(universe)
        # paper: "over 27,000"; synthetic shape: same order of magnitude
        assert 8_000 < total < 120_000
        assert mask.sum() > 0


class TestHazard:
    def test_class_counts_scaled(self, summary, universe):
        scale = universe.universe_scale
        for name, scaled in summary.class_counts.items():
            raw = summary.class_counts_raw[name]
            assert scaled == round(raw * scale)

    def test_at_risk_total_near_paper(self, summary):
        """Paper: 430,844 at-risk transceivers."""
        assert summary.at_risk_total == pytest.approx(430_844, rel=0.25)

    def test_moderate_largest_class(self, summary):
        assert summary.class_counts["Moderate"] \
            > summary.class_counts["High"] \
            > summary.class_counts["Very High"]

    def test_california_leads(self, summary):
        assert summary.states[0].state == "CA"

    def test_top3_contains_fl_tx(self, summary):
        top5 = {s.state for s in summary.states[:5]}
        assert "FL" in top5
        assert "TX" in top5

    def test_top_states_method(self, summary):
        top = summary.top_states(7)
        assert len(top) == 7 and top[0] == "CA"

    def test_top_states_by_class(self, summary):
        top_m = summary.top_states(5, WHPClass.MODERATE)
        assert "CA" in top_m[:3]

    def test_per_capita_ranking(self, summary):
        """Paper Figure 9: UT leads the VH per-capita ranking."""
        top = summary.top_states_per_capita(6, WHPClass.VERY_HIGH)
        assert "UT" in top or "CA" in top[:2]

    def test_state_totals_sum(self, summary):
        total = sum(s.total for s in summary.states)
        # state sums equal national (same scaled rounding, small slack)
        assert total == pytest.approx(summary.at_risk_total, rel=0.02)

    def test_per_thousand(self, summary):
        ca = next(s for s in summary.states if s.state == "CA")
        assert ca.per_thousand() \
            == pytest.approx(1000 * ca.total / ca.population)

    def test_state_rows_equal_per_state_mask_counts(self, summary,
                                                    universe):
        """Each row equals masking the state's code and counting each
        at-risk class, scaled and rounded the same way, in the same
        (stable) order."""
        from repro.data.states import StateAssigner

        cells = universe.cells
        assigner = StateAssigner()
        codes = assigner.assign_many(cells.lons, cells.lats)
        classes = summary.classes_per_transceiver
        scale = universe.universe_scale
        want = []
        for code, state in enumerate(assigner.states.values()):
            sub = classes[codes == code]
            counts = [int(round((sub == int(c)).sum() * scale))
                      for c in (WHPClass.MODERATE, WHPClass.HIGH,
                                WHPClass.VERY_HIGH)]
            want.append((state.abbr, *counts, state.population))
        want.sort(key=lambda row: sum(row[1:4]), reverse=True)
        got = [(s.state, s.moderate, s.high, s.very_high, s.population)
               for s in summary.states]
        assert got == want
        assert len(got) == len(assigner.abbrs)


class TestPopulationServed:
    def test_magnitude(self, universe, summary):
        served = population_served_at_risk(universe, summary)
        # paper: >85M
        assert 40e6 < served < 220e6

    def test_without_summary(self, universe):
        assert population_served_at_risk(universe) > 0

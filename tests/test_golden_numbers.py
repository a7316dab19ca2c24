"""Golden regression tests: the paper-facing headline numbers.

Runtime refactors (parallelism, caching, index changes) must not move a
single reproduced number.  These tests pin the exact values produced at
the default test seed/size (``small_universe()``: 20k transceivers,
seed 20190722, 0.1° WHP grid) — Table 1's in-perimeter counts, the
Figure 7 WHP class counts behind Tables 2–3, the §3.3 population-served
estimate, the ``power`` stage's outage counts (its PSPS channel reads
the burned cells ``rasterize_polygon`` marks) and the scripted
incident's population exposure per tick (the stream's
``population_in_polygon`` diff).

If a PR changes these values *intentionally* (a new generator, a
recalibration), update the constants here in the same commit and say so
in the commit message; any unexplained drift is a correctness bug in
the join engine.
"""

from __future__ import annotations

import pytest

from repro.core import (
    hazard_analysis,
    historical_analysis,
    population_served_at_risk,
    provider_risk_analysis,
    technology_risk_analysis,
    total_in_perimeters,
)

# (raw, scaled-to-5.36M) transceivers inside fire perimeters per year.
GOLDEN_TABLE1 = {
    2018: (0, 0),
    2017: (19, 5_097),
    2016: (0, 0),
    2015: (9, 2_414),
    2014: (2, 536),
    2013: (23, 6_170),
    2012: (15, 4_024),
    2011: (0, 0),
    2010: (25, 6_706),
    2009: (2, 536),
    2008: (40, 10_730),
    2007: (0, 0),
    2006: (17, 4_560),
    2005: (3, 805),
    2004: (14, 3_755),
    2003: (9, 2_414),
    2002: (13, 3_487),
    2001: (5, 1_341),
    2000: (1, 268),
}

GOLDEN_FIG4_UNION_SCALED = 47_748

# Figure 7 / §3.3 scaled class counts (paper: 261,569 / 142,968 / 26,307).
GOLDEN_CLASS_COUNTS = {
    "Very Low": 1_447_195,
    "Low": 861_879,
    "Moderate": 249_738,
    "High": 135_197,
    "Very High": 21_728,
}
GOLDEN_CLASS_COUNTS_RAW = {
    "Very Low": 5_395,
    "Low": 3_213,
    "Moderate": 931,
    "High": 504,
    "Very High": 81,
}
GOLDEN_AT_RISK_TOTAL = 406_663

#: §3.3 "more than 85 million people" (at test scale: ~58.5M).
GOLDEN_POPULATION_SERVED = 58_544_359

GOLDEN_TOP_STATES = ["CA", "FL", "TX", "UT", "AZ"]

# Table 2: provider -> (moderate, high, very high), scaled.
GOLDEN_PROVIDER_RISK = {
    "AT&T": (101_129, 57_673, 6_974),
    "T-Mobile": (67_867, 32_458, 6_974),
    "Sprint": (25_484, 15_022, 3_219),
    "Verizon": (43_456, 22_265, 3_219),
    "Others": (11_803, 7_779, 1_341),
}

# ``PowerImpact`` per season on the default session power grid:
# year -> (sites_direct, sites_indirect, sites_total_affected,
#          substations_hit, lines_cut, indirect_ratio).
GOLDEN_POWER_IMPACT = {
    2000: (1, 8, 9, 1, 3, 8.0),
    2001: (1, 60, 61, 1, 0, 60.0),
    2002: (2, 83, 85, 1, 5, 41.5),
    2003: (1, 1087, 1088, 0, 2, 1087.0),
    2004: (2, 159, 161, 0, 2, 79.5),
    2005: (1, 6, 7, 0, 1, 6.0),
    2006: (3, 3, 6, 1, 1, 1.0),
    2007: (0, 5, 5, 0, 0, float("inf")),
    2008: (7, 1079, 1086, 1, 7, 154.14285714285714),
    2009: (1, 2, 3, 0, 0, 2.0),
    2010: (3, 1081, 1084, 0, 1, 360.3333333333333),
    2011: (0, 7, 7, 0, 1, float("inf")),
    2012: (3, 3, 6, 0, 1, 1.0),
    2013: (2, 0, 2, 0, 0, 0.0),
    2014: (1, 1087, 1088, 1, 3, 1087.0),
    2015: (1, 475, 476, 0, 1, 475.0),
    2016: (0, 3, 3, 0, 2, float("inf")),
    2017: (3, 1088, 1091, 1, 7, 362.6666666666667),
    2018: (0, 1092, 1092, 1, 6, float("inf")),
    2019: (2, 40, 42, 0, 3, 20.0),
}

# The scripted 2019 incident at ``--scale tiny``, ``stream --ticks 8``:
# cumulative people inside the perimeters after each tick.
GOLDEN_INCIDENT_CUM_POPULATION = [
    53373.19329256004, 53373.19329256004, 53373.19329256004,
    53373.19329256004, 53373.19329256004, 53373.19329256004,
    54018.576760136486, 54233.44598621432,
]

# Table 3: technology -> total at-risk, scaled.
GOLDEN_TECHNOLOGY_RISK = {
    "CDMA": 45_601,
    "GSM": 30_580,
    "LTE": 242_496,
    "UMTS": 87_985,
}


@pytest.fixture(scope="module")
def hazard(universe):
    return hazard_analysis(universe)


class TestTable1Golden:
    def test_per_year_counts_pinned(self, universe):
        rows = historical_analysis(universe)
        got = {r.year: (r.transceivers_in_perimeters,
                        r.transceivers_in_perimeters_scaled)
               for r in rows}
        assert got == GOLDEN_TABLE1

    def test_union_pinned(self, universe):
        scaled, union = total_in_perimeters(universe)
        assert scaled == GOLDEN_FIG4_UNION_SCALED
        assert union.sum() <= sum(raw for raw, _ in GOLDEN_TABLE1.values())


class TestHazardGolden:
    def test_class_counts_pinned(self, hazard):
        assert hazard.class_counts == GOLDEN_CLASS_COUNTS
        assert hazard.class_counts_raw == GOLDEN_CLASS_COUNTS_RAW
        assert hazard.at_risk_total == GOLDEN_AT_RISK_TOTAL

    def test_top_states_pinned(self, hazard):
        assert [s.state for s in hazard.states[:5]] == GOLDEN_TOP_STATES

    def test_population_served_pinned(self, universe, hazard):
        assert population_served_at_risk(universe, hazard) \
            == GOLDEN_POPULATION_SERVED


class TestProviderTechnologyGolden:
    def test_table2_pinned(self, universe):
        rows = provider_risk_analysis(universe)
        got = {r.provider: (r.moderate, r.high, r.very_high)
               for r in rows}
        assert got == GOLDEN_PROVIDER_RISK

    def test_table3_pinned(self, universe):
        rows = technology_risk_analysis(universe)
        assert {r.technology: r.total for r in rows} \
            == GOLDEN_TECHNOLOGY_RISK


class TestPowerAndStreamGolden:
    def test_power_impact_pinned(self, universe):
        from repro.core.power import fire_power_impact

        got = {}
        for year in GOLDEN_POWER_IMPACT:
            i = fire_power_impact(universe, year)
            assert i.year == year
            got[year] = (i.sites_direct, i.sites_indirect,
                         i.sites_total_affected, i.substations_hit,
                         i.lines_cut, i.indirect_ratio)
        assert got == GOLDEN_POWER_IMPACT

    def test_incident_population_pinned(self):
        from repro.data.universe import universe_for_scale
        from repro.stream.incident import run_scripted_incident

        res = run_scripted_incident(universe_for_scale("tiny"), n_ticks=8)
        assert [e.cum_population for e in res.events] \
            == GOLDEN_INCIDENT_CUM_POPULATION


class TestGoldenSurvivesRuntimeModes:
    """The same numbers come out of every execution mode."""

    def test_parallel_and_cached_table1_identical(self, universe,
                                                  tmp_path):
        from repro.runtime import (
            ResultCache,
            configure,
            get_config,
            set_cache,
            set_config,
            shutdown_pools,
        )
        from repro.runtime import dispatch as runtime_dispatch

        previous = get_config()
        orig_knobs = (runtime_dispatch.MIN_PARALLEL_POINTS,
                      runtime_dispatch.OVERLAY_WORK_FACTOR,
                      runtime_dispatch.CPU_COUNT_OVERRIDE)
        # Drop every adaptive-dispatch gate so the persistent-pool path
        # genuinely executes (it would correctly stay serial otherwise).
        runtime_dispatch.MIN_PARALLEL_POINTS = 64
        runtime_dispatch.OVERLAY_WORK_FACTOR = 1
        runtime_dispatch.CPU_COUNT_OVERRIDE = 8
        configure(workers=4, cache_enabled=True)
        set_cache(ResultCache(tmp_path))
        try:
            for _ in range(2):          # second pass served by the cache
                rows = historical_analysis(universe)
                got = {r.year: (r.transceivers_in_perimeters,
                                r.transceivers_in_perimeters_scaled)
                       for r in rows}
                assert got == GOLDEN_TABLE1
        finally:
            (runtime_dispatch.MIN_PARALLEL_POINTS,
             runtime_dispatch.OVERLAY_WORK_FACTOR,
             runtime_dispatch.CPU_COUNT_OVERRIDE) = orig_knobs
            set_config(previous)
            set_cache(None)
            shutdown_pools()

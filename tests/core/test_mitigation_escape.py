"""Tests for repro.core.mitigation and repro.core.escape."""

import numpy as np
import pytest

from repro.core.escape import EscapeModel, escape_adjusted_risk
from repro.core.mitigation import (
    MitigationAction,
    mitigation_plan,
    rank_sites,
)
from repro.data.whp import WHPClass
from repro.session import session_of


@pytest.fixture(scope="session")
def universe():
    from repro.data import small_universe
    return small_universe()


@pytest.fixture(scope="module")
def ranked(universe):
    return rank_sites(universe)


class TestRankSites:
    def test_sorted_by_score(self, ranked):
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_only_at_risk_sites(self, ranked):
        for site in ranked[:50]:
            assert site.whp_class >= int(WHPClass.MODERATE)

    def test_top_n(self, universe, ranked):
        top = rank_sites(universe, top_n=10)
        assert len(top) == 10
        assert [s.site_id for s in top] \
            == [s.site_id for s in ranked[:10]]

    def test_positive_scores(self, ranked):
        assert all(s.score > 0 for s in ranked)

    def test_tenancy_recorded(self, ranked):
        for s in ranked[:20]:
            assert 1 <= s.n_providers <= 5
            assert s.n_transceivers >= 1

    def test_high_hazard_populous_scores_high(self, ranked):
        """A VH site in a big county outranks an M site in a small one."""
        vh_big = [s for s in ranked
                  if s.whp_class == int(WHPClass.VERY_HIGH)
                  and s.county_population > 1_000_000]
        m_small = [s for s in ranked
                   if s.whp_class == int(WHPClass.MODERATE)
                   and s.county_population < 100_000]
        if vh_big and m_small:
            assert vh_big[0].score > m_small[0].score


def _ranking_loop(universe):
    """The ``np.split`` grouping site ranking once ran, as
    ``(site_id, lon, lat, whp_class, n_tx, n_providers, county,
    county_pop, score)`` rows in rank order."""
    session = session_of(universe)
    cells = universe.cells
    classes = session.artifact("whp_classes")
    county_idx = session.artifact("county_assignment")
    county_pops = universe.counties.populations()
    weight = {3: 0.40, 4: 0.70, 5: 1.00}
    order = np.argsort(cells.site_ids, kind="stable")
    bounds = np.nonzero(np.diff(cells.site_ids[order]))[0] + 1
    rows = []
    for group in np.split(order, bounds):
        whp_class = int(classes[group].max())
        if whp_class not in weight:
            continue
        ci = county_idx[group[0]]
        pop = int(county_pops[ci]) if ci >= 0 else 10_000
        n_providers = len(np.unique(cells.provider_group[group]))
        score = weight[whp_class] * np.log10(max(pop, 10)) \
            * (1.0 + 0.25 * (n_providers - 1))
        rows.append((int(cells.site_ids[group[0]]),
                     float(cells.lons[group[0]]),
                     float(cells.lats[group[0]]), whp_class, len(group),
                     n_providers, int(ci), pop, float(score)))
    rows.sort(key=lambda r: r[-1], reverse=True)
    return rows


class TestRankingLoop:
    def test_matches_split_loop(self, universe, ranked):
        got = [(s.site_id, s.lon, s.lat, s.whp_class, s.n_transceivers,
                s.n_providers, s.county, s.county_population, s.score)
               for s in ranked]
        assert got == _ranking_loop(universe)


class TestMitigationPlan:
    def test_covered_population_counts_each_county_once(self, universe):
        """Distinct counties that share a population value each count:
        de-duplication is by county, not by population figure."""
        plan = mitigation_plan(universe, budget_sites=100)
        county_idx = session_of(universe).artifact("county_assignment")
        pops = universe.counties.populations()
        ids, idx = np.unique(universe.cells.site_ids, return_index=True)
        first = dict(zip(ids.tolist(), idx.tolist()))
        counties = {int(county_idx[first[s.site_id]])
                    for s in plan.hardened}
        expected = sum(int(pops[c]) if c >= 0 else 10_000
                       for c in counties)
        assert plan.covered_population == expected

    def test_budget_respected(self, universe):
        plan = mitigation_plan(universe, budget_sites=25)
        assert len(plan.hardened) <= 25

    def test_backup_power_always_first(self, universe):
        """§3.2: power is the dominant threat, so every hardened site
        gets backup power."""
        plan = mitigation_plan(universe, budget_sites=25)
        for acts in plan.actions.values():
            assert acts[0] == MitigationAction.BACKUP_POWER

    def test_vh_sites_get_fire_hardening(self, universe):
        plan = mitigation_plan(universe, budget_sites=40)
        for site in plan.hardened:
            acts = plan.actions[site.site_id]
            if site.whp_class == int(WHPClass.VERY_HIGH):
                assert MitigationAction.FIRE_RESISTANT_MATERIALS in acts
            if site.whp_class >= int(WHPClass.HIGH):
                assert MitigationAction.VEGETATION_MANAGEMENT in acts

    def test_coverage_counts(self, universe):
        plan = mitigation_plan(universe, budget_sites=25)
        assert plan.covered_transceivers \
            == sum(s.n_transceivers for s in plan.hardened)
        assert plan.covered_population > 0


class TestEscapeModel:
    def test_exceedance_monotone(self):
        model = EscapeModel()
        sizes = [50, 100, 1_000, 10_000, 300_000, 1e6]
        probs = [model.exceedance(s) for s in sizes]
        assert probs[0] == 1.0
        assert probs[-1] == 0.0
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_radius_from_area(self):
        model = EscapeModel()
        r = model.radius_m(1000.0)
        area_sqm = np.pi * r * r
        assert area_sqm == pytest.approx(1000.0 * 4046.8564224)

    def test_adjusted_superset(self, universe):
        result = escape_adjusted_risk(universe)
        assert result.escape_adjusted_at_risk >= result.static_at_risk
        assert result.added_transceivers \
            == result.escape_adjusted_at_risk - result.static_at_risk

    def test_lower_threshold_reaches_farther(self, universe):
        strict = escape_adjusted_risk(universe, reach_probability=0.2)
        loose = escape_adjusted_risk(universe, reach_probability=0.02)
        assert loose.escape_adjusted_at_risk \
            >= strict.escape_adjusted_at_risk

    def test_escaped_mask_excludes_static(self, universe):
        result = escape_adjusted_risk(universe)
        static = universe.whp.at_risk_mask()
        assert not (result.escaped_mask & static).any()

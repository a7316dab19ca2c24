"""Tests for the AnalysisSession artifact graph and stage registry.

The contract under test: every shared artifact is computed **exactly
once per session** no matter how many analyses consume it, sessions
never leak artifacts across universes, and the stage/artifact
registries stay unique and acyclic.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

from repro import session as session_mod
from repro.cli import main
from repro.core import overlay as overlay_mod
from repro.core import validation as validation_mod
from repro.core.hazard import hazard_analysis
from repro.core.power import power_grid_for
from repro.data import SyntheticUS, UniverseConfig
from repro.session import (
    AnalysisSession,
    check_registry,
    get_artifact_spec,
    get_stage,
    iter_artifacts,
    iter_stages,
    session_of,
    stages_in_all,
)


def _fresh_universe(seed: int = 7, n: int = 6000) -> SyntheticUS:
    return SyntheticUS(UniverseConfig(n_transceivers=n, seed=seed))


class TestMemoization:
    def test_artifact_computed_once(self):
        universe = _fresh_universe()
        session = session_of(universe)
        first = session.artifact("whp_classes")
        second = session.artifact("whp_classes")
        assert first is second

    def test_functional_api_shares_session_memo(self):
        universe = _fresh_universe()
        assert hazard_analysis(universe) is hazard_analysis(universe)

    def test_canonical_params_share_one_entry(self):
        """Explicitly passing a declared default hits the same memo."""
        universe = _fresh_universe()
        session = session_of(universe)
        spec = get_artifact_spec("season_overlay")
        default_year = spec.signature.parameters["year"].default
        a = session.artifact("season_overlay")
        b = session.artifact("season_overlay", year=default_year)
        assert a is b
        assert session.artifact("season_overlay", year=2005) is not a

    def test_power_grid_identity(self):
        universe = _fresh_universe()
        grid = power_grid_for(universe, n_substations=150)
        assert power_grid_for(universe, n_substations=150) is grid
        assert power_grid_for(universe, n_substations=151) is not grid

    def test_invalidate_and_is_materialized(self):
        universe = _fresh_universe()
        session = session_of(universe)
        session.artifact("whp_classes")
        assert session.is_materialized("whp_classes")
        assert session.invalidate("whp_classes") == 1
        assert not session.is_materialized("whp_classes")

    def test_runtime_edges_recorded(self):
        universe = _fresh_universe()
        session = session_of(universe)
        session.artifact("hazard")
        assert ("hazard", "whp_classes") in session.edges


class TestSessionIsolation:
    def test_sessions_are_per_universe(self):
        u1 = _fresh_universe(seed=11)
        u2 = _fresh_universe(seed=12)
        assert session_of(u1) is session_of(u1)
        assert session_of(u1) is not session_of(u2)

    def test_different_seeds_never_share_artifacts(self):
        u1 = _fresh_universe(seed=11)
        u2 = _fresh_universe(seed=12)
        c1 = session_of(u1).artifact("whp_classes")
        c2 = session_of(u2).artifact("whp_classes")
        assert c1 is not c2
        assert not np.array_equal(c1, c2)

    def test_explicit_session_binds_universe(self):
        session = AnalysisSession(_fresh_universe())
        assert session_of(session.universe) is session

    def test_universe_xor_config(self):
        with pytest.raises(ValueError):
            AnalysisSession(_fresh_universe(),
                            config=UniverseConfig(n_transceivers=10))


class TestRegistry:
    def test_artifact_names_unique(self):
        names = [spec.name for spec in iter_artifacts()]
        assert len(names) == len(set(names))

    def test_stage_names_unique(self):
        names = [stage.name for stage in iter_stages()]
        assert len(names) == len(set(names))

    def test_check_registry_topological(self):
        order = check_registry()
        position = {name: i for i, name in enumerate(order)}
        for spec in iter_artifacts():
            for dep in spec.deps:
                assert position[dep] < position[spec.name]

    def test_all_ordering_matches_legacy_cli(self):
        assert [s.name for s in stages_in_all()] == [
            "table1", "table2", "table3", "fig5", "fig7", "fig8",
            "fig9", "fig10", "fig12", "ecoregions", "validate",
            "extend", "power", "coverage"]

    def test_stage_renders_resolve(self):
        universe = _fresh_universe()
        session = session_of(universe)
        text = get_stage("fig7").run(session, None)
        assert "Very High" in text

    @pytest.mark.parametrize("stage", ["stream", "season_overlay",
                                       "power", "scenario"])
    def test_library_run_takes_the_option_defaults(self, stage):
        """``session.run(stage)`` without CLI args prints what the
        CLI prints with every option at its default."""
        universe = SyntheticUS(UniverseConfig(
            n_transceivers=2000, seed=7, whp_resolution_deg=0.2))
        buffer = io.StringIO()
        assert main(["-n", "2000", "--seed", "7", "--whp-res", "0.2",
                     stage], stream=buffer) == 0
        assert AnalysisSession(universe).run(stage) + "\n" \
            == buffer.getvalue()

    def test_unknown_artifact_raises(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            session_of(_fresh_universe()).artifact("nope")


class TestComputeOnceAcrossRepr0All:
    """The tentpole guarantee, measured over one full ``repro all``."""

    @pytest.fixture(scope="class")
    def spy_log(self):
        """Run ``repro all`` once with classify/overlay/hazard spies.

        The hazard spy replaces the registered build of the ``hazard``
        artifact, which is the compute function itself."""
        mp = pytest.MonkeyPatch()
        log = {"classify": [], "overlay": [], "hazard": []}

        real_classify = overlay_mod.classify_cells
        real_overlay = overlay_mod.overlay_fires
        hazard_spec = get_artifact_spec("hazard")
        real_hazard = hazard_spec.build

        def classify_spy(cells, whp, **kw):
            log["classify"].append(id(cells))
            return real_classify(cells, whp, **kw)

        def overlay_spy(cells, fires, **kw):
            log["overlay"].append((id(cells), kw.get("year")))
            return real_overlay(cells, fires, **kw)

        def hazard_spy(session, *args, **kwargs):
            log["hazard"].append(id(session))
            return real_hazard(session, *args, **kwargs)

        mp.setattr(overlay_mod, "classify_cells", classify_spy)
        mp.setattr(validation_mod, "classify_cells", classify_spy)
        mp.setattr(overlay_mod, "overlay_fires", overlay_spy)
        mp.setattr(validation_mod, "overlay_fires", overlay_spy)
        mp.setitem(session_mod._ARTIFACTS, "hazard",
                   dataclasses.replace(hazard_spec, build=hazard_spy))
        try:
            buffer = io.StringIO()
            assert main(["-n", "6000", "all"], stream=buffer) == 0
            log["output"] = buffer.getvalue()
        finally:
            mp.undo()
        return log

    def test_classify_cells_runs_exactly_once(self, spy_log):
        """Once per universe: the study universe (whp_classes) and the
        oversampled validation universe (validate)."""
        calls = spy_log["classify"]
        assert len(calls) == len(set(calls)) == 2

    def test_each_season_overlay_runs_exactly_once(self, spy_log):
        calls = spy_log["overlay"]
        assert len(calls) == len(set(calls)), (
            "overlay_fires re-ran for a (cells, year) pair")
        years = [year for _, year in calls]
        assert 2018 in years and 2019 in years

    def test_figs_789_share_one_hazard_summary(self, spy_log):
        assert len(spy_log["hazard"]) == 1
        for fig in ("fig7", "fig8", "fig9"):
            assert f"===== {fig} =====" in spy_log["output"]


class TestListSubcommand:
    def test_list_prints_registry(self):
        buffer = io.StringIO()
        assert main(["list"], stream=buffer) == 0
        out = buffer.getvalue()
        for stage in iter_stages():
            assert stage.name in out
        assert "whp_classes" in out
        assert "Paper" in out

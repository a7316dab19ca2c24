"""Tests for repro.data.universe."""

import numpy as np
import pytest

from repro.data import SyntheticUS, UniverseConfig, small_universe
from repro.data.cells import PAPER_TRANSCEIVER_COUNT, PointSet, generate_cells
from repro.data.universe import scale_config


class TestConfig:
    def test_frozen(self):
        cfg = UniverseConfig()
        with pytest.raises(Exception):
            cfg.seed = 1

    def test_defaults(self):
        cfg = UniverseConfig()
        assert cfg.n_transceivers == 150_000
        assert cfg.whp_resolution_deg == 0.05


class TestLaziness:
    def test_components_lazy(self):
        u = SyntheticUS(UniverseConfig(n_transceivers=100))
        assert u._population is None
        assert u._cells is None

    def test_component_cached(self):
        u = SyntheticUS(UniverseConfig(n_transceivers=100))
        assert u.population is u.population

    def test_fire_seasons_cached(self, universe):
        assert universe.fire_season(2005) is universe.fire_season(2005)

    def test_small_universe_cached_globally(self):
        assert small_universe() is small_universe()

    def test_validation_cells_cached(self, universe):
        a = universe.validation_cells(2)
        assert universe.validation_cells(2) is a
        assert len(a) == 2 * universe.config.n_transceivers


class TestConsistency:
    def test_universe_scale(self, universe):
        assert universe.universe_scale \
            == pytest.approx(5_364_949 / len(universe.cells))

    def test_scaled_rounds_to_the_paper_universe(self, universe):
        assert universe.scaled(len(universe.cells)) == 5_364_949
        assert universe.scaled(0) == 0
        for count in (1, 7, 1234, np.int64(1234)):
            assert universe.scaled(count) \
                == int(round(count * universe.universe_scale))
            assert type(universe.scaled(count)) is int

    def test_2019_season_has_scripted_fires(self, universe):
        names = {f.name for f in universe.fire_season(2019).fires}
        assert "Kincade" in names and "Saddle Ridge" in names

    def test_historical_season_no_scripted(self, universe):
        names = {f.name for f in universe.fire_season(2018).fires}
        assert "Kincade" not in names

    def test_seed_isolation(self):
        a = SyntheticUS(UniverseConfig(n_transceivers=500, seed=1,
                                       whp_resolution_deg=0.2))
        b = SyntheticUS(UniverseConfig(n_transceivers=500, seed=2,
                                       whp_resolution_deg=0.2))
        assert not (a.cells.lons == b.cells.lons).all()


class TestValidationCells:
    """The validation sample is drawn coordinates-only: the bits the
    full generator draws first, and none of its categorical columns."""

    @pytest.fixture(scope="class", params=["tiny", "seed"])
    def fresh(self, request):
        return SyntheticUS(scale_config(request.param))

    @pytest.mark.parametrize("oversample", [1, 8, 24])
    def test_coordinates_equal_generate_cells(self, fresh, oversample):
        cfg = fresh.config
        points = fresh.validation_cells(oversample)
        full = generate_cells(
            fresh.population,
            n_transceivers=cfg.n_transceivers * oversample,
            seed=cfg.seed + 7,
            placement_exponent=cfg.placement_exponent,
            mean_per_site=cfg.mean_per_site,
            urban_halfsat=cfg.urban_halfsat)
        assert type(points) is PointSet
        assert points.lons.tobytes() == full.lons.tobytes()
        assert points.lats.tobytes() == full.lats.tobytes()

    def test_draws_no_provider_group(self, monkeypatch):
        from repro.data import cells as cells_mod

        calls = []
        real = cells_mod._draw_provider_groups

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(cells_mod, "_draw_provider_groups", spy)
        u = SyntheticUS(UniverseConfig(n_transceivers=500,
                                       whp_resolution_deg=0.2))
        assert len(u.validation_cells(8)) == 4000
        assert calls == []
        assert len(u.cells) == 500      # the spy is live
        assert calls == [500]


class TestUniverseScale:
    @pytest.mark.parametrize("config", [
        scale_config("tiny"), scale_config("seed"),
        UniverseConfig(n_transceivers=1, whp_resolution_deg=0.2),
    ], ids=["tiny", "seed", "one"])
    def test_read_from_config(self, config):
        """Equals the ratio over the drawn universe, without drawing
        it."""
        u = SyntheticUS(config)
        scale = u.universe_scale
        assert u._cells is None
        assert scale == PAPER_TRANSCEIVER_COUNT / len(u.cells)

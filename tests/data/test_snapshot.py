"""The synthesized universe as result-cache entries.

A universe loaded from a warm ``--cache-dir`` must equal the one its
generators build, bit for bit, and a warm ``repro all`` must run no
generator at all.  A corrupt entry is rebuilt, and ``--no-cache`` (or
no cache directory) never touches an entry.
"""

from __future__ import annotations

import io
import shutil

import numpy as np
import pytest

from repro import obs, runtime
from repro.cli import main
from repro.data import snapshot
from repro.data import universe as universe_mod
from repro.data import wildfires as wildfires_mod
from repro.data.cells import CellUniverse, PointSet
from repro.data.population import PopulationSurface
from repro.data.universe import SyntheticUS, UniverseConfig, scale_config
from repro.runtime import STATS

YEARS = tuple(range(2000, 2020))

#: ``repro -n 2000``: the CLI's default seed and WHP resolution.
N2000 = UniverseConfig(n_transceivers=2000, whp_resolution_deg=0.1)


@pytest.fixture()
def cache_at(tmp_path):
    """Point the runtime's result cache at a directory; restore after."""
    saved = runtime.get_config()

    def install(path):
        runtime.configure(cache_enabled=True, cache_dir=path)
        runtime.set_cache(None)
        return path

    yield install
    runtime.set_config(saved)
    runtime.set_cache(None)


def _counters(before) -> dict:
    return {k: v for k, v in STATS.delta_since(before)["counters"].items()
            if k.startswith("cache.")}


def _touch_everything(universe: SyntheticUS) -> None:
    """Build or load every stored component."""
    universe.population
    universe.whp
    universe.cells
    universe.counties
    for year in YEARS:
        universe.fire_season(year)
    universe.validation_cells(8)


def assert_same_array(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_raster(a, b) -> None:
    assert a.grid == b.grid
    assert_same_array(a.data, b.data)


def assert_same_universe(a: SyntheticUS, b: SyntheticUS) -> None:
    pa, pb = a.population, b.population
    assert_same_raster(pa.raster, pb.raster)
    assert_same_raster(pa.road_distance, pb.road_distance)
    assert (pa.grid, pa.total_population, pa.corridor_share,
            pa.corridor_halfwidth_deg) == \
        (pb.grid, pb.total_population, pb.corridor_share,
         pb.corridor_halfwidth_deg)
    for name in ("raster", "fuel", "urbanization", "placement_weight"):
        assert_same_raster(getattr(a.whp, name), getattr(b.whp, name))
    for name in CellUniverse.COLUMNS:
        assert_same_array(getattr(a.cells, name), getattr(b.cells, name))
    for name in PointSet.COLUMNS:
        assert_same_array(getattr(a.validation_cells(8), name),
                          getattr(b.validation_cells(8), name))
    ca, cb = a.counties, b.counties
    assert ca.counties == cb.counties
    assert (ca.tile_deg, ca.bbox, ca.n_named) == \
        (cb.tile_deg, cb.bbox, cb.n_named)
    assert_same_array(ca._keys, cb._keys)
    assert_same_array(ca._slots, cb._slots)
    for year in YEARS:
        sa, sb = a.fire_season(year), b.fire_season(year)
        assert sa.year == sb.year == year
        assert len(sa.fires) == len(sb.fires)
        for fa, fb in zip(sa.fires, sb.fires):
            assert (fa.name, fa.year, fa.start_doy, fa.end_doy, fa.acres,
                    fa.agency, fa.method) == \
                (fb.name, fb.year, fb.start_doy, fb.end_doy, fb.acres,
                 fb.agency, fb.method)
            assert_same_array(fa.polygon.exterior, fb.polygon.exterior)
            assert fa.polygon.holes == fb.polygon.holes == ()
            assert fa.polygon.bbox == fb.polygon.bbox


class TestLoadedEqualsBuilt:
    @pytest.mark.parametrize("config", [scale_config("tiny"), N2000],
                             ids=["tiny", "n2000"])
    def test_every_component_round_trips(self, config, tmp_path,
                                         cache_at):
        cache_at(tmp_path)
        before = STATS.snapshot()
        built = SyntheticUS(config)
        _touch_everything(built)
        cold = _counters(before)
        n_entries = 4 + len(YEARS) + 1
        assert cold.get("cache.misses") == n_entries
        assert len(list(tmp_path.glob("*.npz"))) == n_entries

        tracer = obs.enable()
        try:
            before = STATS.snapshot()
            loaded = SyntheticUS(config)
            _touch_everything(loaded)
            warm = _counters(before)
            sources = {sp.attrs.get("source") for sp in tracer.finished
                       if sp.name.startswith("data.")}
        finally:
            obs.disable()
            obs.get_tracer().clear()
        assert warm.get("cache.misses", 0) == 0
        assert warm["cache.disk_hits"] == n_entries
        assert sources == {"loaded"}
        assert_same_universe(built, loaded)

    def test_other_config_is_another_entry(self, tmp_path, cache_at):
        cache_at(tmp_path)
        keys = {snapshot.component_key("cells", {}, config)
                for config in (N2000, UniverseConfig(n_transceivers=2001,
                                                     whp_resolution_deg=0.1),
                               UniverseConfig(n_transceivers=2000, seed=1,
                                              whp_resolution_deg=0.1))}
        keys |= {snapshot.component_key("fire_seasons", {"year": y}, N2000)
                 for y in (2018, 2019)}
        assert len(keys) == 5

    def test_generator_source_is_in_the_key(self, monkeypatch):
        key = snapshot.component_key("whp", {}, N2000)
        monkeypatch.setattr(snapshot, "generator_token",
                            lambda: b"edited generator")
        assert snapshot.component_key("whp", {}, N2000) != key

    def test_truncated_entry_is_rebuilt(self, tmp_path, cache_at):
        cache_at(tmp_path)
        _touch_everything(SyntheticUS(N2000))
        path = tmp_path / f"{snapshot.component_key('whp', {}, N2000)}.npz"
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])

        before = STATS.snapshot()
        again = SyntheticUS(N2000)
        again.whp
        counts = _counters(before)
        assert counts["cache.corrupt"] == 1
        assert counts["cache.misses"] == 1
        assert_same_universe(again, SyntheticUS(N2000))

    def test_no_cache_dir_hashes_nothing(self, monkeypatch, tmp_path,
                                         cache_at):
        """Without a cache directory no key is formed, so no generator
        source is read."""
        cache_at(None)
        monkeypatch.chdir(tmp_path)

        def forbidden():
            raise AssertionError("generator_token computed")
        monkeypatch.setattr(snapshot, "generator_token", forbidden)
        before = STATS.snapshot()
        SyntheticUS(UniverseConfig(n_transceivers=500,
                                   whp_resolution_deg=0.25)).cells
        assert _counters(before) == {}
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Through the CLI
# ----------------------------------------------------------------------

ARGV = ["-n", "2000"]


def _run(*argv) -> tuple[str, dict]:
    """``repro`` in-process: its stdout and its ``cache.*`` counters."""
    saved = runtime.get_config()
    before = STATS.snapshot()
    buffer = io.StringIO()
    try:
        assert main([*ARGV, *argv], stream=buffer) == 0
    finally:
        runtime.set_config(saved)
        runtime.set_cache(None)
    return buffer.getvalue(), _counters(before)


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """A cache directory one cold ``repro -n 2000 all`` filled, and
    that run's stdout."""
    saved = runtime.get_config()
    runtime.configure(cache_enabled=True)
    try:
        path = tmp_path_factory.mktemp("primed")
        out, counts = _run("--cache-dir", str(path), "all")
    finally:
        runtime.set_config(saved)
        runtime.set_cache(None)
    assert counts["cache.misses"] > 0
    return path, out


@pytest.fixture()
def generator_calls(monkeypatch):
    """Count every call of every universe generator."""
    calls: list[str] = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for module, name in ((universe_mod, "build_whp"),
                         (universe_mod, "generate_cells"),
                         (universe_mod, "generate_points"),
                         (universe_mod, "build_counties"),
                         (universe_mod, "generate_fire_season"),
                         (wildfires_mod, "generate_fire_season")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(PopulationSurface, "_build",
                        spy("PopulationSurface._build",
                            PopulationSurface._build))
    return calls


class TestWarmCli:
    def test_warm_all_runs_no_generator(self, primed, generator_calls,
                                        cache_at):
        path, cold_out = primed
        cache_at(None)
        out, counts = _run("--cache-dir", str(path), "all")
        assert generator_calls == []
        assert out == cold_out
        assert counts.get("cache.misses", 0) == 0

    def test_truncated_universe_entry_is_rebuilt(self, primed, tmp_path,
                                                 generator_calls,
                                                 cache_at):
        path, cold_out = primed
        cache_at(None)
        copy = tmp_path / "cache"
        shutil.copytree(path, copy)
        entry = copy / f"{snapshot.component_key('cells', {}, N2000)}.npz"
        entry.write_bytes(entry.read_bytes()[:1000])
        out, counts = _run("--cache-dir", str(copy), "all")
        assert out == cold_out
        assert counts["cache.corrupt"] == 1
        assert counts["cache.misses"] == 1
        assert generator_calls == ["generate_cells"]
        # The rebuilt entry was stored again, whole.
        out, counts = _run("--cache-dir", str(copy), "all")
        assert out == cold_out
        assert counts.get("cache.misses", 0) == 0

    def test_no_cache_neither_reads_nor_writes(self, primed, tmp_path,
                                               generator_calls, cache_at):
        path, cold_out = primed
        cache_at(None)
        before = {p.name: p.stat().st_mtime_ns for p in path.iterdir()}
        out, counts = _run("--cache-dir", str(path), "--no-cache", "fig7")
        assert counts == {}
        assert "PopulationSurface._build" in generator_calls
        assert "build_whp" in generator_calls
        assert {p.name: p.stat().st_mtime_ns
                for p in path.iterdir()} == before
        empty = tmp_path / "empty"
        _run("--cache-dir", str(empty), "--no-cache", "fig7")
        assert not empty.exists()

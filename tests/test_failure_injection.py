"""Failure-injection tests: malformed inputs and hostile edge cases.

A production library fails loudly and specifically on bad inputs rather
than producing silently-wrong geography.  These tests feed each loader
and pipeline deliberately broken data, and kill or race whole runs that
share one ``--cache-dir``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.cells import CellUniverse
from repro.data.dirs import simulate_dirs
from repro.data.universe import SyntheticUS, UniverseConfig
from repro.geo.geojson import geometry_from_geojson, load_features
from repro.geo.geometry import BBox, LineString, Polygon
from repro.geo.raster import GridSpec


class TestMalformedCsv:
    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc\nLTE,310\n")
        with pytest.raises(KeyError):
            CellUniverse.from_csv(path)

    def test_non_numeric_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,310,410,1,1,oops,34.0\n")
        with pytest.raises(ValueError, match="line 2"):
            CellUniverse.from_csv(path)

    @pytest.mark.parametrize("row, column", [
        ("LTE,3x0,410,1,1,-100.0,34.0", "mcc='3x0'"),
        ("LTE,310,4.1,1,1,-100.0,34.0", "net='4.1'"),
        ("LTE,310,410,a1,1,-100.0,34.0", "area='a1'"),
    ], ids=["mcc", "net", "area"])
    def test_non_numeric_codes(self, tmp_path, row, column):
        """A bad integer field names its file, line and column, like a
        bad coordinate."""
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,310,410,1,1,-100.0,34.0\n"
                        f"{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv, line 3: "
                           f"non-numeric {column}"):
            CellUniverse.from_csv(path)

    @pytest.mark.parametrize("lon, lat", [("nan", "34.0"),
                                          ("-100.0", "inf"),
                                          ("-inf", "NaN")])
    def test_non_finite_coordinates(self, tmp_path, lon, lat):
        """``float`` parses nan and inf; the loader rejects them, naming
        the line, before they reach the grid index."""
        path = tmp_path / "bad.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,310,410,1,1,-100.0,34.0\n"
                        f"LTE,310,410,1,2,{lon},{lat}\n")
        with pytest.raises(ValueError, match="line 3"):
            CellUniverse.from_csv(path)

    def test_unknown_radio_maps_to_gsm(self, tmp_path):
        """Unknown radio strings degrade gracefully (code 0 = GSM),
        mirroring how OpenCelliD rows with odd radios are ingested."""
        path = tmp_path / "odd.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "WIMAX,310,410,1,1,-100.0,34.0\n")
        cells = CellUniverse.from_csv(path)
        assert cells.radio[0] == 0

    def test_unknown_plmn_becomes_others(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n"
                        "LTE,208,1,1,1,-100.0,34.0\n")
        cells = CellUniverse.from_csv(path)
        from repro.data.cells import PROVIDER_GROUPS
        assert PROVIDER_GROUPS[cells.provider_group[0]] == "Others"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("radio,mcc,net,area,cell,lon,lat\n")
        cells = CellUniverse.from_csv(path)
        assert len(cells) == 0


class TestMalformedGeoJson:
    def test_not_a_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "Polygon", "coordinates": []}')
        with pytest.raises(ValueError):
            load_features(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("{not json")
        with pytest.raises(Exception):
            load_features(path)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            geometry_from_geojson({"type": "Polygon",
                                   "coordinates": [[[0, 0], [1, 1]]]})

    def test_geometry_collection_unsupported(self):
        with pytest.raises(ValueError):
            geometry_from_geojson({"type": "GeometryCollection",
                                   "geometries": []})


class TestDegenerateGeometry:
    def test_collinear_ring_degrades_gracefully(self):
        """A lon/lat-collinear ring never crashes and never claims
        points off its line.  (Its area is small but nonzero: straight
        lines in degree space are curves on the equal-area plane.)"""
        poly = Polygon([(0, 0), (1, 1), (2, 2)])
        assert not poly.contains(0.5, 0.7)
        assert not poly.contains(1.5, 0.5)
        # far smaller than a real triangle spanning the same bbox
        real = Polygon([(0, 0), (2, 0), (2, 2)])
        assert poly.area_sqm() < 0.05 * real.area_sqm()

    def test_self_closing_two_point_ring(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (0, 0)])

    def test_linestring_single_point(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_bbox_nan_behavior(self):
        box = BBox(0, 0, 1, 1)
        assert not box.contains(float("nan"), 0.5)

    def test_grid_negative_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(BBox(0, 0, 1, 1), -0.1)


class TestHostileConfigs:
    def test_single_transceiver_universe(self):
        u = SyntheticUS(UniverseConfig(n_transceivers=1,
                                       whp_resolution_deg=0.25))
        assert len(u.cells) == 1

    def test_dirs_with_no_fires(self):
        from repro.data import small_universe
        u = small_universe()
        sim = simulate_dirs(u.cells, [], seed=1)
        assert all(r.sites_out_damage == 0 for r in sim.reports)

    def test_overlay_empty_universe(self):
        from repro.core.overlay import overlay_fires
        from repro.data import small_universe
        empty = CellUniverse(
            lons=np.empty(0), lats=np.empty(0),
            site_ids=np.empty(0, dtype=np.int64),
            mcc=np.empty(0, dtype=np.int32),
            mnc=np.empty(0, dtype=np.int32),
            provider_group=np.empty(0, dtype=np.int8),
            radio=np.empty(0, dtype=np.int8))
        fires = small_universe().fire_season(2010).fires[:5]
        result = overlay_fires(empty, fires)
        assert result.n_in_perimeter == 0


# ----------------------------------------------------------------------
# A shared --cache-dir under kills and concurrent runs.  Each run is a
# child process in its own session, killed by process group whatever
# the test's outcome.
# ----------------------------------------------------------------------

_SRC = str(Path(repro.__file__).resolve().parent.parent)
#: ``repro -n 2000``: the CLI's default seed and WHP resolution.
_N2000 = UniverseConfig(n_transceivers=2000, whp_resolution_deg=0.1)


def _repro(*argv: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "-n", "2000", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _stdout(*procs: subprocess.Popen) -> list[bytes]:
    """Each run's stdout; every run must exit 0."""
    outs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()[-2000:]
            outs.append(out)
    finally:
        for proc in procs:
            _kill_group(proc)
    return outs


def _entries_load(cache_dir: Path) -> None:
    """Every entry in the directory is whole (no half-written file
    under a final name)."""
    entries = [p for p in cache_dir.glob("*.npz")
               if not p.name.endswith(".tmp.npz")]
    assert entries
    for path in entries:
        with np.load(path, allow_pickle=False) as npz:
            for name in npz.files:
                npz[name]


@pytest.fixture(scope="module")
def clean_all() -> bytes:
    """Stdout of ``repro -n 2000 all`` without a cache."""
    (out,) = _stdout(_repro("all"))
    return out


@pytest.fixture(scope="module")
def raced_dir(tmp_path_factory):
    """One empty cache directory that two cold runs filled at once,
    and their stdouts."""
    cache_dir = tmp_path_factory.mktemp("raced")
    outs = _stdout(*(_repro("--cache-dir", str(cache_dir), "all")
                     for _ in range(2)))
    return cache_dir, outs


class TestSigterm:
    def test_sigterm_runs_finally_blocks_and_exits_143(self, tmp_path):
        """SIGTERM a cold run once the cache directory holds an entry:
        it exits 143 with one stderr line, after its ``finally``
        blocks removed any half-written entry."""
        proc = _repro("--cache-dir", str(tmp_path), "all")
        try:
            deadline = time.monotonic() + 120
            while not [p for p in tmp_path.glob("*.npz")
                       if not p.name.endswith(".tmp.npz")]:
                assert proc.poll() is None, \
                    "the run ended before its first cache entry"
                assert time.monotonic() < deadline
                time.sleep(0.002)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
        finally:
            _kill_group(proc)
        assert proc.returncode == 143, err.decode()[-2000:]
        assert err.decode().splitlines() == ["repro: terminated"]
        assert not list(tmp_path.glob("*.tmp.npz"))
        _entries_load(tmp_path)


class TestSharedCacheDir:
    def test_run_killed_after_first_universe_entry(self, tmp_path,
                                                   clean_all):
        """SIGKILL a cold run once its first universe entry (the
        population surface) is in place; the rerun prints a clean
        run's bytes."""
        from repro.data.snapshot import component_key

        first = tmp_path / f"{component_key('population', {}, _N2000)}.npz"
        proc = _repro("--cache-dir", str(tmp_path), "all")
        try:
            deadline = time.monotonic() + 120
            while not first.exists():
                assert proc.poll() is None, \
                    "the run ended before its first universe entry"
                assert time.monotonic() < deadline
                time.sleep(0.002)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            _kill_group(proc)
        assert proc.returncode == -signal.SIGKILL
        _entries_load(tmp_path)
        (out,) = _stdout(_repro("--cache-dir", str(tmp_path), "all"))
        assert out == clean_all
        _entries_load(tmp_path)

    def test_two_cold_runs_on_one_dir(self, raced_dir, clean_all):
        cache_dir, outs = raced_dir
        assert outs == [clean_all, clean_all]
        _entries_load(cache_dir)

    def test_warm_run_after_the_race_misses_nothing(self, raced_dir,
                                                    tmp_path):
        from repro.obs import Ledger

        cache_dir, _ = raced_dir
        _stdout(_repro("--cache-dir", str(cache_dir), "--ledger-dir",
                       str(tmp_path / "led"), "all"))
        (run,) = Ledger(tmp_path / "led").runs()
        assert run.counters.get("cache.misses", 0) == 0
        assert run.counters["cache.hits"] > 0

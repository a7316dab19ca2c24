"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.runtime import (
    ResultCache,
    RuntimeConfig,
    array_token,
    cache_key,
    configure,
    get_cache,
    get_config,
    set_cache,
    set_config,
)
from repro.runtime.stats import STATS


@pytest.fixture(autouse=True)
def _isolate_global_cache():
    """Never leak a test cache (or config) into other tests."""
    previous = get_config()
    yield
    set_config(previous)
    set_cache(None)


class TestKeys:
    def test_deterministic(self):
        a = np.arange(10, dtype=float)
        assert cache_key(b"x", a, 3, "s") == cache_key(b"x", a, 3, "s")

    def test_sensitive_to_array_content(self):
        a = np.arange(10, dtype=float)
        b = a.copy()
        b[3] += 1e-9
        assert cache_key(a) != cache_key(b)

    def test_sensitive_to_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        assert cache_key(a) != cache_key(a.astype(np.float32))
        assert cache_key(a) != cache_key(a.reshape(2, 2))

    def test_sensitive_to_scalar_params(self):
        base = (b"overlay", np.arange(5))
        assert cache_key(*base, 2018) != cache_key(*base, 2019)
        assert cache_key(*base, 0.1) != cache_key(*base, 0.05)

    def test_nested_structure_is_flattened_unambiguously(self):
        assert cache_key((1, 2), 3) != cache_key(1, (2, 3))

    def test_array_token_differs_from_bytes_of_other_dtype(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([1, 2, 3], dtype=np.int32)
        assert array_token(a) != array_token(b)


def _entry_bytes(tmp_path) -> bytes:
    """The on-disk bytes of a freshly written multi-array entry."""
    ResultCache(tmp_path).put("entry", {
        "mask": np.arange(5000) % 3 == 0,
        "hits": np.arange(2000, dtype=np.int64),
        "names": np.array(["Kincade", "Tick"])})
    return (tmp_path / "entry.npz").read_bytes()


#: One side of the shared-directory race: ``write`` re-puts one key,
#: ``read`` re-gets it, each for about a second; prints a JSON report.
_RACE_SCRIPT = """
import json, sys, time
import numpy as np
from repro.runtime.cache import ResultCache
from repro.runtime.stats import STATS
role, path = sys.argv[1], sys.argv[2]
payload = {"a": np.arange(50_000, dtype=np.int64), "b": np.ones(20_000)}
cache = ResultCache(path)
if role == "read":
    cache.put("key", payload)
report = {"puts": 0, "hits": 0, "errors": {}}
end = time.monotonic() + 1.0
while time.monotonic() < end:
    if role == "write":
        cache.put("key", payload)
        report["puts"] += 1
        continue
    try:
        got = cache.get("key")
    except Exception as exc:
        name = type(exc).__name__
        report["errors"][name] = report["errors"].get(name, 0) + 1
        continue
    if got is not None:
        assert (got["a"] == payload["a"]).all()
        report["hits"] += 1
report["write_errors"] = STATS.get("cache.disk_write_errors")
report["corrupt"] = STATS.get("cache.corrupt")
print(json.dumps(report))
"""


class TestResultCache:
    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = STATS.get("cache.misses")
        assert cache.get("absent") is None
        assert STATS.get("cache.misses") == before + 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        payload = {"mask": np.arange(32) % 3 == 0,
                   "names": np.array(["Kincade", "Tick"], dtype=np.str_)}
        ResultCache(tmp_path).put("k", payload)
        hits = STATS.get("cache.hits"), STATS.get("cache.disk_hits")
        got = ResultCache(tmp_path).get("k")
        assert got is not None
        assert (got["mask"] == payload["mask"]).all()
        assert list(got["names"]) == ["Kincade", "Tick"]
        assert (STATS.get("cache.hits"), STATS.get("cache.disk_hits")) \
            == (hits[0] + 1, hits[1] + 1)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.npz").write_bytes(b"not a zipfile")
        cache = ResultCache(tmp_path)
        assert cache.get("bad") is None

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, -1])
    def test_truncated_disk_entry_is_a_counted_miss(self, tmp_path, keep):
        raw = _entry_bytes(tmp_path)
        cut = len(raw) - 1 if keep == -1 else int(len(raw) * keep)
        (tmp_path / "cut.npz").write_bytes(raw[:cut])
        before = STATS.get("cache.corrupt")
        cache = ResultCache(tmp_path)
        assert cache.get("cut") is None
        assert STATS.get("cache.corrupt") == before + 1

    def test_crc_corrupt_disk_entry_is_a_counted_miss(self, tmp_path):
        raw = bytearray(_entry_bytes(tmp_path))
        # The CRC-32 of the first central-directory record.
        at = raw.index(b"PK\x01\x02") + 16
        raw[at:at + 4] = bytes(b ^ 0xFF for b in raw[at:at + 4])
        (tmp_path / "crc.npz").write_bytes(bytes(raw))
        before = STATS.get("cache.corrupt")
        cache = ResultCache(tmp_path)
        assert cache.get("crc") is None
        assert STATS.get("cache.corrupt") == before + 1

    def test_absent_disk_entry_is_not_corrupt(self, tmp_path):
        before = STATS.get("cache.corrupt")
        assert ResultCache(disk_dir=tmp_path).get("absent") is None
        assert STATS.get("cache.corrupt") == before

    def test_unreadable_disk_entry_is_not_corrupt(self, tmp_path,
                                                  monkeypatch):
        ResultCache(disk_dir=tmp_path).put("k", {"x": np.array([1])})

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(np, "load", denied)
        before = STATS.get("cache.corrupt")
        assert ResultCache(disk_dir=tmp_path).get("k") is None
        assert STATS.get("cache.corrupt") == before

    def test_entry_mode_matches_a_plain_file(self, tmp_path):
        """Entries get the umask's mode, so other users sharing the
        directory can read them."""
        old_umask = os.umask(0o022)
        try:
            ResultCache(disk_dir=tmp_path).put("k", {"x": np.array([1])})
            with open(tmp_path / "plain", "wb") as fh:
                fh.write(b"x")
        finally:
            os.umask(old_umask)
        mode = (tmp_path / "k.npz").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o644

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_rename(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "replace", failing_rename)
        before = STATS.get("cache.disk_write_errors")
        ResultCache(disk_dir=tmp_path).put("k", {"x": np.array([1])})
        assert STATS.get("cache.disk_write_errors") == before + 1
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_and_reader(self, tmp_path):
        """Two processes rewriting one key while a third reads it: no
        reader exception, no write error, no torn read, no temp left."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [subprocess.Popen(
            [sys.executable, "-c", _RACE_SCRIPT, role, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for role in ("write", "write", "read")]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            reports.append(json.loads(out))
        writers, reader = reports[:2], reports[2]
        assert all(w["puts"] > 0 and w["write_errors"] == 0
                   for w in writers), writers
        assert reader["errors"] == {}, reader
        assert reader["hits"] > 0 and reader["corrupt"] == 0, reader
        assert list(tmp_path.glob("*.tmp.npz")) == []

    def test_clear_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": np.array([1])})
        (tmp_path / "k.dead.tmp.npz").write_bytes(b"half a write")
        assert list(tmp_path.glob("*.npz"))
        cache.clear()
        assert not list(tmp_path.glob("*.npz"))
        assert cache.get("k") is None


class TestGlobalWiring:
    def test_get_cache_built_from_config(self, tmp_path):
        configure(cache_dir=tmp_path)
        set_cache(None)
        assert get_cache().disk_dir == tmp_path
        configure(cache_dir=None)
        set_cache(None)
        assert get_cache() is None

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        monkeypatch.setenv("REPRO_CACHE", "off")
        cfg = RuntimeConfig.from_env()
        assert cfg.workers == 6
        assert cfg.cache_enabled is False

    def test_config_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert RuntimeConfig.from_env().workers == 1


class TestOverlayCacheSemantics:
    def test_disabled_cache_never_stores(self, universe, tmp_path):
        from repro.core.overlay import overlay_fires

        # Draw the inputs first: a universe built under an installed
        # cache stores its components there.
        cells, fires = universe.cells, universe.fire_season(2018).fires
        set_cache(ResultCache(tmp_path))
        overlay_fires(cells, fires, year=2018, workers=1, use_cache=False)
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_dir_means_no_cache_calls(self, universe, tmp_path,
                                               monkeypatch):
        """Caching on but no directory: the joins make no cache call,
        so no ``cache.*`` counter moves and no file is written."""
        from repro.core.overlay import classify_cells, overlay_fires

        monkeypatch.chdir(tmp_path)
        configure(cache_enabled=True, cache_dir=None)
        set_cache(None)
        before = {k: v for k, v in STATS.snapshot()["counters"].items()
                  if k.startswith("cache.")}
        overlay_fires(universe.cells, universe.fire_season(2018).fires,
                      year=2018, workers=1)
        classify_cells(universe.cells, universe.whp)
        after = {k: v for k, v in STATS.snapshot()["counters"].items()
                 if k.startswith("cache.")}
        assert after == before
        assert get_cache() is None
        assert list(tmp_path.iterdir()) == []

    def test_key_distinguishes_universes(self):
        from repro.core.overlay import fires_token
        from tests.runtime.test_differential import (
            random_fires,
            random_universe,
        )

        fires = random_fires(0, 2)
        k1 = cache_key(b"overlay_fires/v2+hits",
                       random_universe(0, 500).content_token(),
                       fires_token(fires), 2018)
        k2 = cache_key(b"overlay_fires/v2+hits",
                       random_universe(1, 500).content_token(),
                       fires_token(fires), 2018)
        k3 = cache_key(b"overlay_fires/v2+hits",
                       random_universe(0, 501).content_token(),
                       fires_token(fires), 2018)
        assert len({k1, k2, k3}) == 3

    def test_fires_token_memoized_per_fire(self):
        from repro.core import overlay
        from tests.runtime.test_differential import random_fires

        fires = random_fires(3, 3)
        t1 = overlay.fires_token(fires)
        # every fire's digest is now memoized on the fire object
        assert all(f in overlay._FIRE_TOKENS for f in fires)
        t2 = overlay.fires_token(fires)
        assert t1 == t2
        assert overlay.fires_token(fires[:-1]) != t1

    def test_universe_and_whp_tokens_memoized(self, universe):
        cells = universe.cells
        assert cells.content_token() is cells.content_token()
        assert universe.whp.content_token() is universe.whp.content_token()

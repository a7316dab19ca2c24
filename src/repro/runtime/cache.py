"""Content-addressed result cache for spatial-join products.

Join results are keyed by a SHA-256 digest over the *content* of their
inputs — the point universe's coordinate bytes, every fire perimeter's
ring bytes, the raster payload, and the analysis parameters — so any
change to seed, size, resolution or parameters produces a different key
while re-running the identical configuration is a hit.

The cache is one directory of ``.npz`` entries (``--cache-dir``) that
survives processes, so a warm cache serves a fresh CLI run's joins,
and the synthesized universe they join (:mod:`repro.data.snapshot`),
from disk.  Reuse inside one process is the session memo's job
(:mod:`repro.session`); without a cache directory there is no cache
object at all and no caller computes a key.  :func:`active_cache` is
the one rule for which cache a join, a classification or a universe
component uses.

Hits and misses are counted in :data:`repro.runtime.stats.STATS` under
``cache.hits`` / ``cache.misses`` (every hit is also a
``cache.disk_hits``).  An entry that cannot be decoded (truncated,
CRC-corrupt, foreign bytes) is a miss counted under ``cache.corrupt``.
Each write goes to its own uniquely named temporary file, created with
the umask's mode like any plain file, and is renamed into place, so
processes sharing a cache directory never read a half-written entry.
A write killed mid-way leaves its ``*.tmp.npz`` behind; ``clear()``
removes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import uuid
import zipfile
from pathlib import Path

import numpy as np

from ..obs.trace import event as trace_event
from .stats import STATS

__all__ = ["ResultCache", "cache_key", "array_token", "get_cache",
           "set_cache", "active_cache"]

_FORMAT_VERSION = "1"


def array_token(arr) -> bytes:
    """Digest of a numpy array's dtype, shape and raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


def cache_key(*parts) -> str:
    """SHA-256 hex key over heterogeneous content tokens.

    Accepts ``bytes`` (pre-hashed tokens), strings, numbers, ``None``,
    and (nested) tuples/lists; numpy arrays are digested via
    :func:`array_token`.
    """
    h = hashlib.sha256()
    h.update(_FORMAT_VERSION.encode())

    def feed(part):
        if isinstance(part, bytes):
            h.update(b"B");  h.update(part)
        elif isinstance(part, np.ndarray):
            h.update(b"A");  h.update(array_token(part))
        elif isinstance(part, (tuple, list)):
            h.update(f"T{len(part)}".encode())
            for p in part:
                feed(p)
        else:
            h.update(b"S");  h.update(repr(part).encode())
        h.update(b"\x00")

    for part in parts:
        feed(part)
    return h.hexdigest()


class ResultCache:
    """Directory of ``.npz`` array payloads, one file per key.

    Payloads are flat ``dict[str, np.ndarray]`` — the caller owns the
    encoding of richer result objects into arrays and back.
    """

    def __init__(self, disk_dir: str | Path):
        self.disk_dir = Path(disk_dir)

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}.npz"

    def get(self, key: str) -> dict | None:
        """Payload for ``key`` or None; counts a hit/miss either way."""
        entry = self._load(key)
        if entry is not None:
            STATS.count("cache.hits")
            STATS.count("cache.disk_hits")
            trace_event("cache.hit", key=key[:12], tier="disk")
            return entry
        STATS.count("cache.misses")
        trace_event("cache.miss", key=key[:12])
        return None

    def _load(self, key: str) -> dict | None:
        """The entry for ``key``, or None if absent, unreadable or
        undecodable; only the last counts under ``cache.corrupt``."""
        try:
            with np.load(self._disk_path(key), allow_pickle=False) as npz:
                return {name: npz[name] for name in npz.files}
        except (FileNotFoundError, PermissionError):
            return None
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            STATS.count("cache.corrupt")
            return None

    def put(self, key: str, payload: dict) -> None:
        """Write a payload under ``key`` (temp file, then rename)."""
        tmp = self.disk_dir / f"{key}.{uuid.uuid4().hex}.tmp.npz"
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "xb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, self._disk_path(key))
        except OSError:
            STATS.count("cache.disk_write_errors")
        finally:
            # A no-op after the rename; removes a failed write's file.
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)

    def clear(self) -> None:
        """Delete every entry (and leftover temp file)."""
        for path in self.disk_dir.glob("*.npz"):
            with contextlib.suppress(OSError):
                path.unlink()


_cache: ResultCache | None = None


def get_cache() -> ResultCache | None:
    """The process-global cache, built lazily from the runtime config;
    None while the config names no cache directory."""
    global _cache
    if _cache is None:
        from .config import get_config
        cache_dir = get_config().cache_dir
        if cache_dir is not None:
            _cache = ResultCache(cache_dir)
    return _cache


def set_cache(cache: ResultCache | None) -> None:
    """Install (or with None, reset) the process-global cache."""
    global _cache
    _cache = cache


def active_cache(use_cache: bool | None = None) -> ResultCache | None:
    """The result cache a call reads and writes: None when caching is
    off for this call (``use_cache=False``, or ``None`` under a config
    with ``cache_enabled`` off) or no cache directory is configured."""
    if use_cache is None:
        from .config import get_config
        use_cache = get_config().cache_enabled
    return get_cache() if use_cache else None

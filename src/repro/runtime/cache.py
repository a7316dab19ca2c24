"""Content-addressed result cache for spatial-join products.

Join results are keyed by a SHA-256 digest over the *content* of their
inputs — the point universe's coordinate bytes, every fire perimeter's
ring bytes, the raster payload, and the analysis parameters — so any
change to seed, size, resolution or parameters produces a different key
while re-running the identical configuration is a hit.  ``python -m
repro all`` recomputes each distinct join once instead of once per
figure.

Two tiers:

* an in-memory LRU (payloads kept as-is, zero deserialization cost),
* an optional on-disk tier (``.npz`` per entry) surviving processes, so
  a warm cache accelerates fresh CLI runs.

Hits and misses are counted in :data:`repro.runtime.stats.STATS` under
``cache.hits`` / ``cache.misses`` (and ``cache.disk_hits``).  A disk
entry that cannot be decoded (truncated, CRC-corrupt, foreign bytes) is
a miss counted under ``cache.corrupt``.  Each write goes to its own
uniquely named temporary file, created with the umask's mode like any
plain file, and is renamed into place, so processes sharing a cache
directory never read a half-written entry.  A write killed mid-way
leaves its ``*.tmp.npz`` behind; ``clear(disk=True)`` removes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import uuid
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..obs.trace import event as trace_event
from .stats import STATS

__all__ = ["ResultCache", "cache_key", "array_token", "get_cache",
           "set_cache"]

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
    """Two-tier (memory LRU + optional disk) store of array payloads.

    Payloads are flat ``dict[str, np.ndarray]`` — the caller owns the
    encoding of richer result objects into arrays and back.
    """

    def __init__(self, max_entries: int = 128,
                 disk_dir: str | Path | None = None):
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self._memory: OrderedDict[str, dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}.npz"

    def get(self, key: str) -> dict | None:
        """Payload for ``key`` or None; counts a hit/miss either way."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            STATS.count("cache.hits")
            trace_event("cache.hit", key=key[:12], tier="memory")
            return entry
        if self.disk_dir is not None:
            entry = self._load(key)
            if entry is not None:
                self._remember(key, entry)
                STATS.count("cache.hits")
                STATS.count("cache.disk_hits")
                trace_event("cache.hit", key=key[:12], tier="disk")
                return entry
        STATS.count("cache.misses")
        trace_event("cache.miss", key=key[:12])
        return None

    def _load(self, key: str) -> dict | None:
        """The disk entry for ``key``, or None if absent, unreadable or
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
        """Store a payload under ``key`` in both tiers."""
        self._remember(key, payload)
        if self.disk_dir is None:
            return
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

    def _remember(self, key: str, payload: dict) -> None:
        if self.max_entries == 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            STATS.count("cache.evictions")

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the disk tier)."""
        self._memory.clear()
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for path in self.disk_dir.glob("*.npz"):
                try:
                    path.unlink()
                except OSError:
                    pass


_cache: ResultCache | None = None


def get_cache() -> ResultCache:
    """The process-global cache, built lazily from the runtime config."""
    global _cache
    if _cache is None:
        from .config import get_config
        cfg = get_config()
        _cache = ResultCache(max_entries=cfg.memory_cache_entries,
                             disk_dir=cfg.cache_dir)
    return _cache


def set_cache(cache: ResultCache | None) -> None:
    """Install (or with None, reset) the process-global cache."""
    global _cache
    _cache = cache

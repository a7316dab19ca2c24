"""Runtime configuration: worker count, chunking, cache knobs.

One process-global :class:`RuntimeConfig` governs how the spatial-join
execution layer behaves.  Everything defaults to the reproducible serial
path; parallelism and caching are opt-in via environment variables
(``REPRO_WORKERS``, ``REPRO_CHUNK``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``)
or the CLI flags that shadow them.

The serial fallback guarantee: with ``workers <= 1`` no worker process is
ever spawned and results are computed exactly as the seed implementation
did.  The parallel path partitions points into contiguous chunks and is
bit-identical to serial by construction (exact per-point predicates,
order-preserving concatenation) — the differential suite in
``tests/runtime/`` enforces this.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["RuntimeConfig", "get_config", "set_config", "configure",
           "default_cache_dir"]

#: Minimum universe size before the parallel path is worth the fork cost.
MIN_PARALLEL_POINTS = 8_192


def default_cache_dir() -> Path:
    """On-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-spatial"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-layer knobs for the spatial-join runtime."""

    workers: int = 1            # processes; <=1 means strictly serial
    chunk_size: int = 65_536    # points per parallel work unit
    cache_enabled: bool = True  # memoize join results
    cache_dir: Path | None = None   # None -> memory-only cache
    memory_cache_entries: int = 128
    shm_enabled: bool = True    # zero-copy worker state via shared memory

    def __post_init__(self):
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.memory_cache_entries < 0:
            raise ValueError("memory_cache_entries must be >= 0")

    @classmethod
    def from_env(cls) -> "RuntimeConfig":
        """Build a config from ``REPRO_*`` environment variables."""
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        return cls(
            workers=_env_int("REPRO_WORKERS", 1),
            chunk_size=_env_int("REPRO_CHUNK", 65_536),
            cache_enabled=_env_flag("REPRO_CACHE", True),
            cache_dir=Path(cache_dir) if cache_dir else None,
            shm_enabled=_env_flag("REPRO_SHM", True),
        )


_config = RuntimeConfig.from_env()


def get_config() -> RuntimeConfig:
    return _config


def set_config(config: RuntimeConfig) -> RuntimeConfig:
    """Install a new global config; returns the previous one."""
    global _config
    previous = _config
    _config = config
    return previous


def configure(**overrides) -> RuntimeConfig:
    """Update individual fields of the global config; returns the new one."""
    set_config(replace(_config, **overrides))
    return _config

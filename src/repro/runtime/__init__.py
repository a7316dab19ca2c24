"""Execution layer for the spatial-join engine.

``repro.runtime`` makes the paper's hot path — point-universe ×
fire-perimeter/raster joins, repeated for every table and figure — run
as fast as the machine allows without changing a single result bit:

* :mod:`.pool` — persistent worker pools (``REPRO_WORKERS``), created
  lazily, keyed by dataset content, and reused across every join of a
  reproduction, with a guaranteed serial fallback;
* :mod:`.dispatch` — the one adaptive serial/parallel plan every
  fan-out goes through: estimated work (points × events, raster
  samples) against a measured crossover per kind, capped by the
  machine's core count, so parallel never loses to serial;
* :mod:`.cache` — a content-addressed in-memory + on-disk result cache
  keyed by the inputs' bytes, so identical joins are computed once;
* :mod:`.stats` — per-stage wall times and candidate/hit/cache counters
  behind the CLI ``--stats`` report, plus the *trace channel* that lets
  :mod:`repro.obs` ship hierarchical spans from worker processes back
  to the parent through the same snapshot/merge path;
* :mod:`.config` — the process-global knobs wiring it together.

The differential suite in ``tests/runtime/`` proves parallel == serial
== bruteforce on randomized universes.
"""

from .cache import ResultCache, array_token, cache_key, get_cache, set_cache
from .config import (
    RuntimeConfig,
    configure,
    default_cache_dir,
    get_config,
    set_config,
)
from .dispatch import cpu_budget, plan, use_shared_memory
from .pool import (
    active_pools,
    chunk_spans,
    get_pool,
    run_tasks,
    shutdown_pools,
)
from .shm import (
    ShmField,
    ShmHandle,
    active_segments,
    attach_arrays,
    release_segments,
    share_arrays,
)
from .stats import STATS, PerfRegistry, set_trace_channel, trace_channel

__all__ = [
    "RuntimeConfig", "get_config", "set_config", "configure",
    "default_cache_dir",
    "ResultCache", "cache_key", "array_token", "get_cache", "set_cache",
    "chunk_spans", "active_pools", "get_pool", "run_tasks",
    "shutdown_pools", "cpu_budget", "plan", "use_shared_memory",
    "ShmField", "ShmHandle", "share_arrays", "attach_arrays",
    "release_segments", "active_segments",
    "STATS", "PerfRegistry", "set_trace_channel", "trace_channel",
]

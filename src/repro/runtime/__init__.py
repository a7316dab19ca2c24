"""Execution layer for the spatial-join engine.

``repro.runtime`` makes the paper's hot path — point-universe ×
fire-perimeter/raster joins, repeated for every table and figure — run
as fast as the machine allows without changing a single result bit:

* :mod:`.pool` — persistent worker pools (``REPRO_WORKERS``), created
  lazily, keyed by dataset content, and reused across every join of a
  reproduction, with a guaranteed serial fallback; workers start with
  ``fork``, so they share the parent's universe and its built index
  copy-on-write;
* :mod:`.dispatch` — the one adaptive serial/parallel plan every
  fan-out goes through: estimated work (points × events) against one
  measured crossover, capped by the machine's core count, so parallel
  never loses to serial;
* :mod:`.cache` — a content-addressed on-disk result cache keyed by the
  inputs' bytes, so a join or a universe component computed by one
  run is read back by the next (reuse inside a process is the session
  memo's job);
* :mod:`.stats` — the timers and candidate/hit/cache counters behind
  ``--stats``, Prometheus and ledger manifests; every timer is the
  total of the :func:`repro.obs.span` of the same name, so a worker's
  timers come home through the same snapshot/merge path as its
  counters, and its hierarchical spans ride the *trace channel* there
  too;
* :mod:`.config` — the process-global knobs wiring it together.

The differential suite in ``tests/runtime/`` proves parallel == serial
== bruteforce on randomized universes.
"""

from .cache import (
    ResultCache,
    active_cache,
    array_token,
    cache_key,
    get_cache,
    set_cache,
)
from .config import RuntimeConfig, configure, get_config, set_config
from .dispatch import cpu_budget, plan
from .pool import (
    active_pools,
    chunk_spans,
    get_pool,
    run_tasks,
    shutdown_pools,
)
from .stats import STATS, PerfRegistry, set_trace_channel

__all__ = [
    "RuntimeConfig", "get_config", "set_config", "configure",
    "ResultCache", "cache_key", "array_token", "get_cache", "set_cache",
    "active_cache",
    "chunk_spans", "active_pools", "get_pool", "run_tasks",
    "shutdown_pools", "cpu_budget", "plan",
    "STATS", "PerfRegistry", "set_trace_channel",
]

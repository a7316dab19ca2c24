"""Persistent worker pools, created lazily and reused across joins.

The PR-1 runtime paid the full ``fork + initializer`` price on every
parallel join: three pool runs per reproduction meant shipping the whole
point universe three times and rebuilding every worker-side index from
scratch.  This module keeps pools alive between calls instead.

A pool is keyed by ``(name, workers, token)`` where ``token`` digests
the dataset the workers were initialized with (e.g. the universe's
coordinate bytes).  The first join for a given dataset creates the pool
and runs the initializer once per worker; every later join — every fire
season of a 19-year historical sweep — reuses the warm workers and
ships only its tiny task list.  Workers keep lazily-built state (their
spatial index) in a module global, so the index is built once per
worker *ever*, not once per chunk per call.

A small LRU bounds resident pools; pools are terminated at eviction and
at interpreter exit.  Any failure — no ``fork``, sandboxed
``multiprocessing``, unpicklable tasks, a worker crash — discards the
pool and reports ``None`` so the caller can fall back to the serial
path; correctness never depends on a pool existing.
"""

from __future__ import annotations

import atexit
import multiprocessing
from collections import OrderedDict
from pickle import PicklingError
from typing import Callable, Sequence

from ..obs.trace import event as trace_event
from ..obs.trace import span as trace_span
from .stats import STATS

__all__ = ["chunk_spans", "get_pool", "run_tasks", "shutdown_pools",
           "active_pools"]

#: Resident pool cap.  Each distinct (name, workers, dataset) keeps
#: ``workers`` processes alive; a handful covers a whole reproduction.
MAX_POOLS = 4

#: Force a specific multiprocessing start method ("fork" / "spawn" /
#: "forkserver").  ``None`` keeps the fork-preferred default.  The
#: override participates in the pool key, so flipping it mid-session
#: creates fresh pools instead of reusing ones started the other way.
START_METHOD_OVERRIDE: str | None = None

#: Errors that mean "the pool path is unavailable", not "the task is
#: wrong".  Anything else propagates — a bug in a chunk function must
#: not be silently retried serially.
_POOL_ERRORS = (OSError, ValueError, PicklingError, AttributeError,
                ImportError, EOFError, BrokenPipeError)

_pools: OrderedDict[tuple, multiprocessing.pool.Pool] = OrderedDict()


def _pool_context():
    """Prefer ``fork`` (cheap, copy-on-write arrays); fall back to the
    platform default where fork is unavailable."""
    method = START_METHOD_OVERRIDE or "fork"
    try:
        return multiprocessing.get_context(method)
    except ValueError:
        return multiprocessing.get_context()


def _terminate(pool) -> None:
    try:
        pool.terminate()
        pool.join()
    except Exception:
        pass  # a dying pool must never take the analysis down


def get_pool(name: str, workers: int, token: bytes,
             initializer: Callable | None = None,
             initargs: tuple = ()):
    """Return a live pool for ``(name, workers, token)``, creating it
    lazily.  Raises on creation failure (callers catch and fall back)."""
    key = (name, workers, token, START_METHOD_OVERRIDE)
    pool = _pools.get(key)
    if pool is not None:
        _pools.move_to_end(key)
        STATS.count("pool.reused")
        trace_event("pool.reused", pool=name, workers=workers)
        return pool
    while len(_pools) >= MAX_POOLS:
        evicted_key, evicted = _pools.popitem(last=False)
        _terminate(evicted)
        STATS.count("pool.evicted")
        trace_event("pool.evicted", pool=evicted_key[0],
                    workers=evicted_key[1])
    with trace_span("pool.create", pool=name, workers=workers):
        ctx = _pool_context()
        pool = ctx.Pool(processes=workers, initializer=initializer,
                        initargs=initargs)
    _pools[key] = pool
    STATS.count("pool.created")
    return pool


def discard_pool(name: str, workers: int, token: bytes) -> None:
    """Terminate and forget a pool (e.g. after a failed map)."""
    pool = _pools.pop((name, workers, token, START_METHOD_OVERRIDE), None)
    if pool is not None:
        _terminate(pool)


def chunk_spans(n: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans covering ``range(n)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [(start, min(start + chunk_size, n))
            for start in range(0, n, chunk_size)]


def run_tasks(name: str, workers: int, token: bytes, fn: Callable,
              tasks: Sequence, initializer: Callable | None = None,
              initargs: tuple = ()) -> list | None:
    """Map ``fn`` over ``tasks`` on the persistent pool.

    Returns the results in task order, or ``None`` when the pool path is
    unavailable (creation or transport failure) — the caller then runs
    its serial path.  A pool that failed mid-map is discarded so the
    next call starts fresh.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    try:
        pool = get_pool(name, workers, token, initializer, initargs)
    except _POOL_ERRORS:
        STATS.count("parallel.fallbacks")
        trace_event("parallel.fallback", pool=name, at="create")
        return None
    try:
        with trace_span("pool.map", pool=name, workers=workers,
                        tasks=len(tasks)):
            results = pool.map(fn, tasks)
    except _POOL_ERRORS:
        discard_pool(name, workers, token)
        STATS.count("parallel.fallbacks")
        trace_event("parallel.fallback", pool=name, at="map")
        return None
    STATS.count("parallel.pool_runs")
    STATS.count("parallel.tasks", len(tasks))
    STATS.count("pool.tasks", len(tasks))
    return results


def active_pools() -> list[tuple]:
    """Keys of currently resident pools (diagnostics / tests)."""
    return list(_pools.keys())


def shutdown_pools() -> None:
    """Terminate every resident pool (atexit, or tests cleaning up)."""
    while _pools:
        _, pool = _pools.popitem(last=False)
        _terminate(pool)


atexit.register(shutdown_pools)

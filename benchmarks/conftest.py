"""Benchmark fixtures and the machine-readable timing report.

Benchmarks run at a larger scale than tests (150k transceivers,
0.05-degree WHP grid) and print each reproduced table/figure next to the
paper's numbers; the printed output is the source for EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only -s

Every benchmark session also updates ``BENCH_runtime.json`` at the repo
root: per-stage wall times, index/cache counters, the runtime config
(workers, cache state), and any named measurements recorded
via :func:`record_timing` — the perf trajectory future PRs diff against.
Sections merge into the file, so a partial run (or ``e2ebench/run.py
--bench-json``) never erases what other sessions recorded.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro import obs
from repro.data import SyntheticUS, default_universe
from repro.runtime import STATS, get_config

_SESSION_T0 = time.perf_counter()

#: Named measurements (section -> payload) merged into BENCH_runtime.json.
RUNTIME_BENCH: dict[str, dict] = {}

BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_runtime.json"


@pytest.fixture(scope="session")
def universe() -> SyntheticUS:
    """The benchmark-scale universe (built once per session)."""
    u = default_universe()
    # Touch the heavy components so individual benchmarks measure the
    # analysis, not the one-time synthetic-US construction.
    u.population
    u.whp
    u.cells
    return u


def print_result(title: str, body: str) -> None:
    """Uniform section printing for the benchmark harness."""
    print(f"\n===== {title} =====")
    print(body)


def record_timing(section: str, **payload) -> None:
    """Record a named measurement for ``BENCH_runtime.json``."""
    RUNTIME_BENCH[section] = payload


def available_cores() -> int:
    """CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def planned_workers(cells, requested: int, events: list,
                    units: int | None = None) -> int:
    """Workers ``dispatch.plan`` resolves for a join of ``events``: its
    work is their candidate count; ``units`` defaults to one per
    event."""
    from repro.runtime import dispatch

    boxes = [(b.min_lon, b.min_lat, b.max_lon, b.max_lat)
             for b in (event.polygon.bbox for event in events)]
    return dispatch.plan(requested, len(cells),
                         cells.index().candidate_count(boxes),
                         len(events) if units is None else units)


def skipped_asserts(check: str, *, resolved: int,
                    fell_back: bool) -> list[str]:
    """Whether a parallel-speed assert can apply on this machine.

    A speed assert is vacuous when dispatch resolved one worker, on
    fewer than two cores, or after a pool fallback.  Prints
    ``assertion skipped: <reason>`` and returns ``[reason]`` in that
    case (record it as the section's ``skipped_asserts``); returns
    ``[]`` when the assert applies.
    """
    cores = available_cores()
    reasons = [why for why, hit in (
        (f"dispatch resolved {resolved} worker", resolved < 2),
        (f"{cores} core available", cores < 2),
        ("the pool fell back to serial", fell_back)) if hit]
    if not reasons:
        return []
    reason = f"{check} ({', '.join(reasons)})"
    print(f"assertion skipped: {reason}")
    return [reason]


def merge_bench_json(path: Path, report: dict) -> None:
    """Write ``report`` to ``path``, keeping earlier sessions' sections.

    Each of this session's sections (``report["sections"]``) is stamped
    with the report's ``generated_iso`` and ``git_sha``; every section
    it did not record is carried over unchanged.  The file is written
    to a temporary name and then swapped in, so an interrupted write
    never leaves half a file.
    """
    try:
        sections = json.loads(path.read_text())["sections"]
    except (OSError, ValueError, KeyError, TypeError):
        sections = {}
    if not isinstance(sections, dict):
        sections = {}
    stamp = {key: report[key] for key in ("generated_iso", "git_sha")}
    sections.update({name: {**payload, **stamp}
                     for name, payload in report["sections"].items()})
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({**report, "sections": sections},
                              indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Merge the session's runtime stats into ``BENCH_runtime.json``.

    Schema ``bench-runtime/2``: ISO-8601 UTC timestamp, git SHA, and
    cpu count replace the bare ``generated_unix`` float of schema 1
    (``repro history --bench`` ingests both).  The top-level fields
    describe the latest session; sections accumulate (see
    :func:`merge_bench_json`).  When a run ledger is armed
    (``REPRO_LEDGER_DIR``), the same measurements are appended there
    as a bench-kind manifest, so benchmark sessions and CLI runs share
    one perf history — the ``repro gate`` CI baseline.
    """
    cfg = get_config()
    snapshot = STATS.snapshot()
    counters = snapshot["counters"]
    generated_iso = obs.utc_now_iso()
    report = {
        "schema": "bench-runtime/2",
        "generated_iso": generated_iso,
        "git_sha": obs.git_sha(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "workers": cfg.workers,
            "cache_enabled": cfg.cache_enabled,
            "cache_dir": str(cfg.cache_dir) if cfg.cache_dir else None,
        },
        "stages_seconds": snapshot["timers"],
        "stage_calls": snapshot["timer_calls"],
        "counters": counters,
        "cache": {
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
            "disk_hits": counters.get("cache.disk_hits", 0),
        },
        "sections": RUNTIME_BENCH,
    }
    try:
        merge_bench_json(BENCH_JSON_PATH, report)
    except OSError:
        pass

    ledger_dir = obs.resolve_ledger_dir()
    if ledger_dir is None:
        return
    manifest = obs.RunManifest(
        run_id=obs.new_run_id(),
        kind="bench",
        command="bench",
        started=generated_iso,
        duration_s=round(time.perf_counter() - _SESSION_T0, 6),
        config=report["config"],
        timers=snapshot["timers"],
        timer_calls=snapshot["timer_calls"],
        counters=counters,
        extra={"sections": RUNTIME_BENCH,
               "exit_status": int(exitstatus)},
        **obs.environment(),
    )
    try:
        obs.Ledger(ledger_dir).append(manifest)
    except OSError:
        pass

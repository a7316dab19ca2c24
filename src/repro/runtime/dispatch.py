"""Adaptive dispatch: one worker plan for every process fan-out.

Forking pays only above a crossover: pool creation plus task shipping
costs tens to hundreds of milliseconds, while a 150k-point season
overlay finishes serially in under ten.  :func:`plan` decides per call
whether a fan-out can possibly pay, from three inputs:

* **estimated work** — ``points × events`` joined: a season's
  perimeters, a tick's changed perimeters, or a scenario ensemble's
  events summed over members;
* **the machine** — never resolve more workers than there are CPU
  cores; an oversubscribed pool on a small machine only adds context
  switches to the exact same amount of arithmetic;
* **the crossover** — one measured constant expressing how much work a
  fork must amortize before the parallel path breaks even.

The decision is intentionally conservative: below the crossover the
join runs serially on the exact code path the seed implementation used,
so "parallel" can never lose to serial — it simply *is* serial until
the workload is big enough to win.  Every fan-out (batch overlay, delta
tick, ensemble) is a perimeter join and goes through this one rule.

All knobs are module constants so tests (and unusual deployments) can
patch them; the differential suite lowers ``MIN_PARALLEL_POINTS`` and
``OVERLAY_WORK_FACTOR`` to exercise the real pool machinery on tiny
universes.
"""

from __future__ import annotations

import os

__all__ = [
    "MIN_PARALLEL_POINTS",
    "OVERLAY_WORK_FACTOR",
    "CPU_COUNT_OVERRIDE",
    "cpu_budget",
    "plan",
]

#: Minimum universe size before the parallel path is worth the fork cost.
MIN_PARALLEL_POINTS = 8_192

#: A fork pays off once ``points × events`` exceeds
#: ``MIN_PARALLEL_POINTS × OVERLAY_WORK_FACTOR`` (~100M work units at
#: the default floor — full-universe scale).  Below that the serial
#: join finishes before a pool could even start.
OVERLAY_WORK_FACTOR = 12_288

#: Test hook / deployment override for the visible core count.
#: ``None`` means trust ``os.cpu_count()``.
CPU_COUNT_OVERRIDE: int | None = None


def cpu_budget() -> int:
    """Number of CPU cores parallelism may assume."""
    if CPU_COUNT_OVERRIDE is not None:
        return max(1, int(CPU_COUNT_OVERRIDE))
    return os.cpu_count() or 1


def plan(requested: int, n_points: int, work: int, units: int) -> int:
    """Workers to actually use for one perimeter-join fan-out.

    ``work`` is the estimated join work, ``points × events``, and
    ``units`` the most tasks the join can split into (fires, changed
    perimeters, ensemble members).  Returns 1 — strictly serial, no
    pool — unless the work clears the crossover *and* the machine has
    cores to spare.
    """
    if requested <= 1 or n_points < MIN_PARALLEL_POINTS or units < 2:
        return 1
    if work < MIN_PARALLEL_POINTS * OVERLAY_WORK_FACTOR:
        return 1
    return min(requested, cpu_budget(), units)

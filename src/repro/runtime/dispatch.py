"""Adaptive dispatch: one worker plan for every process fan-out.

Forking pays only above a crossover: pool creation plus task shipping
costs tens to hundreds of milliseconds, while a 150k-point season
overlay finishes serially in under ten.  :func:`plan` decides per call
whether a fan-out can possibly pay, from three inputs:

* **estimated work** — ``points × events`` for a perimeter overlay, a
  delta tick (changed perimeters) or a scenario ensemble (events summed
  over members); ``points`` (raster samples) for the WHP classify;
* **the machine** — never resolve more workers than there are CPU
  cores; an oversubscribed pool on a small machine only adds context
  switches to the exact same amount of arithmetic;
* **the crossover** — a measured constant per kind expressing how much
  work a fork must amortize before the parallel path breaks even.

The decision is intentionally conservative: below the crossover the
join runs serially on the exact code path the seed implementation used,
so "parallel" can never lose to serial — it simply *is* serial until
the workload is big enough to win.  Every fan-out (overlay, delta,
classify, ensemble) goes through this one rule.

All knobs are module constants so tests (and unusual deployments) can
patch them; the work floor scales off ``config.MIN_PARALLEL_POINTS``,
which the differential suite already patches to exercise the real pool
machinery on tiny universes.
"""

from __future__ import annotations

import os

from . import config as _config

__all__ = [
    "OVERLAY_WORK_FACTOR",
    "CLASSIFY_WORK_FACTOR",
    "DELTA_WORK_FACTOR",
    "CPU_COUNT_OVERRIDE",
    "cpu_budget",
    "plan",
]

#: A fork pays off for the perimeter overlay once ``points × fires``
#: exceeds ``MIN_PARALLEL_POINTS × OVERLAY_WORK_FACTOR`` (~100M work
#: units at the default floor — full-universe scale).  Below that the
#: serial join finishes before a pool could even start.  Ensembles are
#: overlays too, with their members' events summed.
OVERLAY_WORK_FACTOR = 12_288

#: Same crossover for raster classification, in raster samples
#: (~34M points at the default floor).  Sampling is much cheaper per
#: point than point-in-polygon, hence the larger implied universe.
CLASSIFY_WORK_FACTOR = 4_096

#: The delta overlay re-tests only dirty buckets, so per-fire work is a
#: small fraction of a full perimeter join; a fork must amortize over
#: correspondingly more nominal work before it can pay.  4x the overlay
#: crossover keeps typical incident ticks (a handful of grown fronts)
#: on the serial path, where they already finish in milliseconds.
DELTA_WORK_FACTOR = 49_152

#: Test hook / deployment override for the visible core count.
#: ``None`` means trust ``os.cpu_count()``.
CPU_COUNT_OVERRIDE: int | None = None


def cpu_budget() -> int:
    """Number of CPU cores parallelism may assume."""
    if CPU_COUNT_OVERRIDE is not None:
        return max(1, int(CPU_COUNT_OVERRIDE))
    return os.cpu_count() or 1


def plan(kind: str, requested: int, n_points: int, work: int,
         units: int) -> int:
    """Workers to actually use for one fan-out of ``kind``.

    ``kind`` is ``"overlay"``, ``"delta"`` or ``"classify"`` and picks
    the crossover; ``work`` is the estimated join work in that kind's
    units, and ``units`` the most tasks the join can split into (fires,
    changed perimeters, ensemble members, points).  Returns 1 —
    strictly serial, no pool — unless the work clears the crossover
    *and* the machine has cores to spare.
    """
    factor = {"overlay": OVERLAY_WORK_FACTOR,
              "delta": DELTA_WORK_FACTOR,
              "classify": CLASSIFY_WORK_FACTOR}[kind]
    floor = _config.MIN_PARALLEL_POINTS
    if requested <= 1 or n_points < floor or units < 2:
        return 1
    if work < floor * factor:
        return 1
    return min(requested, cpu_budget(), units)

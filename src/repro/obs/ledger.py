"""The run ledger: an append-only JSONL log of run manifests.

Every ``repro`` invocation (stages, ``all``, ``trace``) and every
benchmark session can append a :class:`~repro.obs.manifest.RunManifest`
to a local ledger — one canonical-JSON line per run in
``<dir>/ledger.jsonl``.  The ledger is **off by default** and costs
nothing when off; arm it with ``--ledger-dir DIR`` or
``REPRO_LEDGER_DIR`` (the conventional location is ``.repro/ledger``).

On top of the log live the three analysis surfaces the CLI exposes:

* :meth:`Ledger.runs` / :meth:`Ledger.resolve` — read runs back
  (corrupt lines are skipped, never fatal) and resolve user references
  (``-1`` = latest, ``-2`` = one before, or any run-id prefix);
* :func:`compare_runs` — perf deltas, counter deltas, and output /
  artifact checksum drift between two runs (``repro compare``);
* :func:`gate_check` — the statistical regression gate
  (``repro gate``): the latest run against the **median of the last N
  baseline runs**, flagging *regressions* (a timer or counter blew
  past ``threshold ×`` median) separately from *drift* (an output or
  artifact checksum changed while timings stayed healthy);
* :func:`ingest_bench` — converts a ``BENCH_runtime.json`` (schema
  ``bench-runtime/1`` or ``/2``) into a manifest so benchmark
  trajectories and CLI runs share one history.

Stdlib-only.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .manifest import RunManifest

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "GateReport",
    "Ledger",
    "compare_runs",
    "gate_check",
    "ingest_bench",
    "resolve_ledger_dir",
]

#: Conventional in-repo ledger location (used by ``repro history`` /
#: ``compare`` / ``gate`` when no dir is given and it exists).
DEFAULT_LEDGER_DIR = Path(".repro/ledger")

LEDGER_FILENAME = "ledger.jsonl"


def resolve_ledger_dir(cli_dir: str | Path | None = None, *,
                       for_reading: bool = False) -> Path | None:
    """Resolve the ledger directory: CLI flag > env > (reads only) the
    conventional ``.repro/ledger`` if it already exists.  ``None``
    means the ledger stays off (writes) or is absent (reads)."""
    if cli_dir:
        return Path(cli_dir)
    env = os.environ.get("REPRO_LEDGER_DIR")
    if env:
        return Path(env)
    if for_reading and DEFAULT_LEDGER_DIR.is_dir():
        return DEFAULT_LEDGER_DIR
    return None


class Ledger:
    """One append-only JSONL manifest log under ``root``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / LEDGER_FILENAME
        #: Lines the last :meth:`runs` call could not parse.
        self.skipped = 0

    def append(self, manifest: RunManifest) -> Path:
        """Append one manifest as a canonical JSON line, in one write.

        If the file does not end in a newline, its last line was torn;
        the write then starts with one, so the torn line stays the only
        one lost instead of swallowing this manifest too.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        line = (manifest.to_json() + "\n").encode("utf-8")
        with open(self.path, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
        return self.path

    def runs(self) -> list[RunManifest]:
        """All runs, oldest first.  Blank/corrupt lines are counted in
        :attr:`skipped` and otherwise ignored — a torn write must never
        take the history down with it."""
        self.skipped = 0
        out: list[RunManifest] = []
        if not self.path.exists():
            return out
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                out.append(RunManifest.from_json(line))
            except (json.JSONDecodeError, TypeError, KeyError):
                self.skipped += 1
        return out

    def resolve(self, ref: str,
                runs: list[RunManifest] | None = None) -> RunManifest:
        """Resolve ``ref`` to a run: a (possibly negative) integer
        indexes the run list (``-1`` = latest); anything else is a
        run-id prefix, which must match exactly one run.  An all-digit
        ref that is out of range as an index falls back to prefix
        matching (run ids are hex, so ``328`` can be either)."""
        if runs is None:
            runs = self.runs()
        if not runs:
            raise KeyError(f"ledger {self.path} has no runs")
        index_error = None
        try:
            index = int(ref)
        except ValueError:
            pass
        else:
            try:
                return runs[index]
            except IndexError:
                index_error = (f"run index {index} out of range "
                               f"({len(runs)} runs)")
        matches = [r for r in runs if r.run_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if index_error is not None and not matches:
            raise KeyError(index_error)
        kind = "no run" if not matches else f"{len(matches)} runs"
        raise KeyError(f"run reference {ref!r} matches {kind} "
                       f"in {self.path}") from None


# ----------------------------------------------------------------------
# BENCH_runtime.json ingestion
# ----------------------------------------------------------------------

def ingest_bench(path: str | Path) -> RunManifest:
    """Convert a ``BENCH_runtime.json`` into a bench-kind manifest.

    Handles schema ``bench-runtime/1`` (bare ``generated_unix`` float,
    no SHA/cpu count) and ``bench-runtime/2`` (ISO-8601 UTC timestamp,
    git SHA, cpu count); anything else raises ``ValueError``.
    """
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    schema = doc.get("schema")
    if schema not in ("bench-runtime/1", "bench-runtime/2"):
        raise ValueError(f"{path}: unknown bench schema {schema!r}")
    if schema == "bench-runtime/2":
        started = doc.get("generated_iso", "")
    else:
        unix = doc.get("generated_unix", 0.0)
        started = datetime.fromtimestamp(
            unix, tz=timezone.utc).isoformat(timespec="seconds")
    timers = dict(doc.get("stages_seconds", {}))
    return RunManifest(
        run_id="bench-" + hashlib.sha256(
            (path.name + started).encode()).hexdigest()[:8],
        kind="bench",
        command="bench",
        started=started,
        duration_s=sum(timers.values()),
        git_sha=doc.get("git_sha"),
        python=doc.get("python", ""),
        machine=doc.get("machine", ""),
        cpu_count=doc.get("cpu_count", 0),
        config=dict(doc.get("config", {})),
        timers=timers,
        timer_calls=dict(doc.get("stage_calls", {})),
        counters=dict(doc.get("counters", {})),
        extra={"sections": doc.get("sections", {}),
               "bench_schema": schema},
    )


# ----------------------------------------------------------------------
# Run comparison (repro compare)
# ----------------------------------------------------------------------

def compare_runs(a: RunManifest, b: RunManifest, *,
                 min_seconds: float = 0.0) -> dict:
    """Structured diff of two runs.

    Returns ``{"a", "b", "timers", "counters", "outputs",
    "artifacts", "context"}``: timers/counters as ``(name, a_value,
    b_value)`` rows over the union of names (timers below
    ``min_seconds`` on both sides are dropped), outputs/artifacts as
    drift buckets (``changed`` / ``added`` / ``removed`` relative to
    ``a``).  ``context`` lists deliberate configuration differences —
    the runs joined different hazards or scenarios — as ``(key,
    a_value, b_value)`` rows, so the renderer can label output drift
    as a config change rather than unexplained divergence.
    """
    timer_rows = []
    for name in sorted(set(a.timers) | set(b.timers)):
        av, bv = a.timers.get(name, 0.0), b.timers.get(name, 0.0)
        if max(av, bv) >= min_seconds:
            timer_rows.append((name, av, bv))
    counter_rows = []
    for name in sorted(set(a.counters) | set(b.counters)):
        av, bv = a.counters.get(name, 0), b.counters.get(name, 0)
        counter_rows.append((name, av, bv))

    def _drift(a_map: dict, b_map: dict, digest) -> dict:
        return {
            "changed": [n for n in sorted(set(a_map) & set(b_map))
                        if digest(a_map[n]) != digest(b_map[n])],
            "added": sorted(set(b_map) - set(a_map)),
            "removed": sorted(set(a_map) - set(b_map)),
        }

    # Hazard/scenario selections live in the universe dict; older
    # manifests predate the keys, so missing reads as None on both
    # sides and never flags.
    context_rows = []
    for key in ("hazard", "scenario"):
        av = (a.universe or {}).get(key)
        bv = (b.universe or {}).get(key)
        if av != bv:
            context_rows.append((key, av, bv))

    return {
        "a": a,
        "b": b,
        "timers": timer_rows,
        "counters": counter_rows,
        "outputs": _drift(a.outputs, b.outputs, lambda v: v),
        "artifacts": _drift(a.artifacts, b.artifacts,
                            lambda v: v.get("sha256")),
        "context": context_rows,
    }


# ----------------------------------------------------------------------
# The statistical regression gate (repro gate)
# ----------------------------------------------------------------------

@dataclass
class GateReport:
    """Outcome of one :func:`gate_check`.

    ``regressions`` — timers/counters whose latest value exceeded
    ``threshold ×`` the baseline median (each row carries ``name``,
    ``kind``, ``latest``, ``median``, ``ratio``).  ``drift`` — outputs
    or artifacts whose checksum no longer matches the most recent
    baseline run (``name``, ``kind``).  Drift is *not* a regression:
    it means the results changed, not that the code got slower.
    """

    latest: RunManifest
    baseline_ids: list[str] = field(default_factory=list)
    threshold: float = 1.3
    regressions: list[dict] = field(default_factory=list)
    drift: list[dict] = field(default_factory=list)
    skipped_small: int = 0

    @property
    def ok(self) -> bool:
        """True when no *regression* was found (drift is reported but
        does not fail the gate by itself)."""
        return not self.regressions

    @property
    def has_baseline(self) -> bool:
        return bool(self.baseline_ids)


def gate_check(runs: list[RunManifest], *, baseline: int = 5,
               threshold: float = 1.3, stage: str | None = None,
               min_seconds: float = 0.05,
               counter_floor: int = 1000) -> GateReport:
    """Gate the latest run against the median of the previous runs.

    The baseline is the up-to-``baseline`` runs preceding the latest.
    Per timer, the latest value regresses when it exceeds ``threshold
    ×`` the baseline median and at least one side is ``min_seconds``
    or more (sub-floor timers are scheduler noise, not signal).  Per
    counter the same ratio applies, with an absolute ``counter_floor``
    increase required — counters are deterministic, so a blowup means
    an algorithmic slip (lost index selectivity, cache misses), not
    noise.  Output/artifact checksums are compared against the most
    recent baseline run and reported as drift.

    With fewer than one baseline run the gate passes vacuously
    (``has_baseline`` is False) so a fresh ledger never blocks CI.
    """
    if not runs:
        raise ValueError("gate_check needs at least one run")
    latest = runs[-1]
    base = runs[max(0, len(runs) - 1 - baseline):-1]
    report = GateReport(latest=latest,
                        baseline_ids=[r.run_id for r in base],
                        threshold=threshold)
    if not base:
        return report

    def _selected(name: str) -> bool:
        if stage is None:
            return True
        return name in (stage, f"cli.{stage}", f"artifact.{stage}")

    for name in sorted(latest.timers):
        if not _selected(name):
            continue
        history = [r.timers[name] for r in base if name in r.timers]
        if not history:
            continue
        med = statistics.median(history)
        value = latest.timers[name]
        if max(value, med) < min_seconds:
            report.skipped_small += 1
            continue
        if value > threshold * med:
            report.regressions.append({
                "name": name, "kind": "timer", "latest": value,
                "median": med, "ratio": value / max(med, 1e-12)})

    for name in sorted(latest.counters):
        if not _selected(name):
            continue
        history = [r.counters[name] for r in base if name in r.counters]
        if not history:
            continue
        med = statistics.median(history)
        value = latest.counters[name]
        if value > threshold * med and value - med > counter_floor:
            report.regressions.append({
                "name": name, "kind": "counter", "latest": value,
                "median": med, "ratio": value / max(med, 1e-12)})

    reference = base[-1]
    for name in sorted(set(latest.outputs) & set(reference.outputs)):
        if stage is not None and name != stage:
            continue
        if latest.outputs[name] != reference.outputs[name]:
            report.drift.append({"name": name, "kind": "output"})
    for name in sorted(set(latest.artifacts) & set(reference.artifacts)):
        if latest.artifacts[name].get("sha256") != \
                reference.artifacts[name].get("sha256"):
            report.drift.append({"name": name, "kind": "artifact"})
    return report

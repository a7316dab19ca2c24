"""Run manifests: the provenance record of one ``repro`` invocation.

A :class:`RunManifest` captures everything needed to answer "what did
this run compute, on what code, how fast" long after the process is
gone: the git SHA and package version, the interpreter/machine, the
runtime config and universe parameters, per-stage wall times and
counters (a :meth:`PerfRegistry.delta_since` of the run), per-artifact
build seconds and content fingerprints, and a checksum of each stage's
rendered output.  The ledger (:mod:`repro.obs.ledger`) appends these
as JSON lines; ``repro history`` / ``compare`` / ``gate`` read them
back.

Serialization is **canonical**: :meth:`RunManifest.to_json` sorts every
key at every level and uses compact separators, so the same manifest
always produces the same bytes — the property the round-trip tests and
``repro compare`` drift detection rely on.

Fingerprints (:func:`fingerprint`) hash the *content* of an artifact
value — numpy arrays by dtype/shape/bytes, dataclasses by field, dicts
by sorted key — so two runs that computed identical results produce
identical fingerprints even across processes and machines.

Stdlib-only, like the rest of :mod:`repro.obs` (numpy arrays are
handled by duck-typing, never imported).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "checksum_text",
    "environment",
    "fingerprint",
    "git_sha",
    "new_run_id",
    "utc_now_iso",
    "version_string",
]

#: Manifest wire-format version.  Bump on incompatible field changes.
MANIFEST_SCHEMA = "repro-run/1"

_GIT_SHA_UNSET = "\0unset"
_git_sha_cache: str | None = _GIT_SHA_UNSET  # type: ignore[assignment]


def git_sha(root: str | Path | None = None) -> str | None:
    """The repository HEAD SHA, or ``None`` outside a git checkout.

    ``REPRO_GIT_SHA`` overrides (containers and CI images that ship
    without ``.git``).  The subprocess result is cached per process.
    """
    global _git_sha_cache
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    if root is not None:
        return _git_sha_of(Path(root))
    if _git_sha_cache == _GIT_SHA_UNSET:
        _git_sha_cache = _git_sha_of(None)
    return _git_sha_cache


def _git_sha_of(root: Path | None) -> str | None:
    cmd = ["git"]
    if root is not None:
        cmd += ["-C", str(root)]
    cmd += ["rev-parse", "HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def version_string() -> str:
    """``repro <version> (<sha>)`` — the ``repro --version`` surface."""
    from .. import __version__
    sha = git_sha()
    return f"repro {__version__} ({sha[:12] if sha else 'no-git'})"


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (second precision)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def new_run_id() -> str:
    """A fresh 12-hex-digit run identifier."""
    return uuid.uuid4().hex[:12]


def environment() -> dict:
    """The build/host fields every manifest embeds."""
    from .. import __version__
    return {
        "version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------

def checksum_text(text: str) -> str:
    """sha256 hex digest of a rendered output string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(value) -> str:
    """Deterministic sha256 over the *content* of an artifact value.

    Stable across processes and machines for the types artifacts are
    made of: primitives, strings, numpy arrays (dtype + shape + bytes,
    duck-typed), dataclasses (per field), dicts (sorted by key repr),
    and sequences.  Unknown objects fall back to ``repr``, which is
    only stable when the repr is — artifact dataclasses bottom out in
    the stable branches, so this is a corner, not the common path.
    """
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, bytes):
        h.update(b"bytes:")
        h.update(value)
        h.update(b";")
    elif hasattr(value, "tobytes") and hasattr(value, "dtype") \
            and hasattr(value, "shape"):
        h.update(f"ndarray:{value.dtype}:{value.shape};".encode())
        h.update(value.tobytes())
    elif isinstance(value, dict):
        h.update(b"dict{")
        for k in sorted(value, key=repr):
            _feed(h, k)
            _feed(h, value[k])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}[".encode())
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, (set, frozenset)):
        h.update(b"set[")
        for item in sorted(value, key=repr):
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"dc:{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(value, f.name))
        h.update(b")")
    else:
        h.update(f"repr:{value!r};".encode())


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------

@dataclass
class RunManifest:
    """One run's provenance record (see the module docstring).

    ``timers`` / ``timer_calls`` / ``counters`` are the run's
    :meth:`PerfRegistry.delta_since` — activity of *this* run, not the
    process lifetime.  ``artifacts`` maps ``name(param=value, …)`` to
    ``{"seconds": …, "sha256": …}``; ``outputs`` maps a stage name to
    the sha256 of its rendered text.
    """

    run_id: str
    kind: str                       # "cli" | "bench"
    command: str                    # stage name, "all", "trace", "bench"
    started: str                    # ISO-8601 UTC
    duration_s: float
    version: str = ""
    git_sha: str | None = None
    python: str = ""
    machine: str = ""
    cpu_count: int = 0
    argv: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    universe: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    timer_calls: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical (recursively key-sorted) plain-dict form."""
        return _sorted_deep(dataclasses.asdict(self))

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        names = {f.name for f in dataclasses.fields(cls)}
        known = {k: v for k, v in d.items() if k in names}
        # Forward compatibility: unknown top-level keys ride in extra.
        unknown = {k: v for k, v in d.items() if k not in names}
        if unknown:
            known.setdefault("extra", {})
            known["extra"] = dict(known["extra"], **unknown)
        return cls(**known)

    @classmethod
    def from_json(cls, line: str) -> "RunManifest":
        return cls.from_dict(json.loads(line))

    # -- derived views -------------------------------------------------

    def total_seconds(self) -> float:
        """The run's headline wall time: the ``cli.*`` stage timers
        when present (CLI runs), otherwise the sum of all timers
        (bench runs, whose stages do not nest)."""
        cli = [v for k, v in self.timers.items() if k.startswith("cli.")]
        return sum(cli) if cli else sum(self.timers.values())

    def timer_for(self, stage: str) -> float | None:
        """Resolve a stage argument against the timer namespace:
        exact name first, then ``cli.<stage>``, ``artifact.<stage>``."""
        for name in (stage, f"cli.{stage}", f"artifact.{stage}"):
            if name in self.timers:
                return self.timers[name]
        return None


def _sorted_deep(value):
    if isinstance(value, dict):
        return {k: _sorted_deep(value[k])
                for k in sorted(value, key=str)}
    if isinstance(value, list):
        return [_sorted_deep(v) for v in value]
    return value

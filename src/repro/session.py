"""AnalysisSession: one universe, one computation per artifact.

The paper's pipeline is a DAG — one transceiver universe feeds one WHP
classification and nineteen per-season fire overlays, which fan out into
Tables 1–3 and Figures 5–12.  This module makes that DAG explicit:

* an **artifact registry** maps a name (``whp_classes``,
  ``season_overlay(year=2017)``, ``coverage_grid``, …) to a build
  function plus its declared dependencies;
* an :class:`AnalysisSession` owns one :class:`~repro.data.SyntheticUS`
  and memoizes every artifact it materializes, so each shared artifact
  is computed **exactly once per session** no matter how many analyses
  consume it.  The memo is the only *intra-process* reuse; the
  content-addressed disk cache (:mod:`repro.runtime.cache`, under
  ``--cache-dir``) is the *cross-process* tier, a cold-start
  optimization instead of an intra-run crutch;
* a **stage registry** lets every analysis in :mod:`repro.core` declare
  itself as ``name → deps → compute → render → export``.  The CLI's
  subcommands, ``repro all`` ordering, ``repro list``, and the JSON
  export document are all generated by iterating these registrations.

Each artifact compute is a span ``artifact.<name>`` — so its time
lands in the :data:`repro.runtime.stats.STATS` timer of that name — and
counts as ``session.miss.<name>``; memo reuses count as
``session.hit.<name>``.  ``repro <cmd> --stats`` renders the
per-artifact table from these.

Core analyses keep their public functional API
(``hazard_analysis(universe)`` …) and route through the ambient session
of the universe they are given (:func:`session_of`), so existing
callers transparently share work.  Two sessions never share artifacts:
the memo lives on the session, which is keyed to one universe object.
"""

from __future__ import annotations

import argparse
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable
from weakref import WeakKeyDictionary

from .data.universe import SyntheticUS, UniverseConfig
from .obs.trace import event as trace_event
from .obs.trace import span as trace_span
from .runtime.stats import STATS

__all__ = [
    "AnalysisSession",
    "ArtifactSpec",
    "Stage",
    "StageOption",
    "artifact",
    "check_registry",
    "get_artifact_spec",
    "get_stage",
    "iter_artifacts",
    "iter_stages",
    "number_above",
    "positive_float",
    "positive_int",
    "register_stage",
    "session_of",
    "set_artifact_observer",
    "stages_in_all",
]


#: Optional per-build observer installed by the run ledger
#: (:mod:`repro.obs.ledger` via the CLI): called after every artifact
#: *build* (memo miss) as ``observer(name, key, seconds, value)``,
#: ``seconds`` being the build span's duration.
#: ``None`` — the default — keeps builds observer-free; the only cost
#: is one None-check per build (dozens per run, never per point).
_ARTIFACT_OBSERVER: Callable[[str, tuple, float, Any], None] | None = None


def set_artifact_observer(
        observer: Callable[[str, tuple, float, Any], None] | None) -> None:
    """Install (or with ``None``, remove) the artifact-build observer.

    The run ledger uses this to fingerprint every built artifact
    without the session layer knowing what a ledger is."""
    global _ARTIFACT_OBSERVER
    _ARTIFACT_OBSERVER = observer


# ----------------------------------------------------------------------
# Artifact registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactSpec:
    """A named node of the analysis DAG.

    ``build(session, **params)`` materializes the artifact; ``deps``
    are the names of other artifacts the build consumes (declared for
    ``repro list`` and the acyclicity check — the session also records
    the edges actually taken at run time).
    """

    name: str
    build: Callable[..., Any]
    deps: tuple[str, ...] = ()
    signature: inspect.Signature = field(compare=False, repr=False,
                                         default=None)

    def canonical_params(self, params: dict[str, Any]) -> tuple:
        """Normalize call params into a hashable memo-key component.

        Defaults from the build signature are applied, so
        ``artifact("table1")`` and ``artifact("table1", years=DEFAULT)``
        resolve to the same memo entry.  Lists are converted to tuples;
        everything else must already be hashable.
        """
        bound = self.signature.bind(None, **params)
        bound.apply_defaults()
        items = list(bound.arguments.items())[1:]   # drop the session
        return tuple((k, tuple(v) if isinstance(v, list) else v)
                     for k, v in items)


_ARTIFACTS: dict[str, ArtifactSpec] = {}
_STAGES: dict[str, "Stage"] = {}
_CORE_IMPORTED = False


def _ensure_registered() -> None:
    """Import :mod:`repro.core` so every artifact/stage is registered.

    Registration happens as a side effect of each core module's import;
    lazy so that ``repro.session`` itself never imports ``repro.core``
    at module scope (core modules import *us*).
    """
    global _CORE_IMPORTED
    if not _CORE_IMPORTED:
        from . import core  # noqa: F401  (imported for registration)
        from . import hazard  # noqa: F401  (hazard instances/scenarios)
        from . import stream  # noqa: F401  (stream stage/artifact)
        _CORE_IMPORTED = True


def artifact(name: str, deps: tuple[str, ...] = ()) -> Callable:
    """Decorator: register ``fn(session, **params)`` as an artifact."""
    def decorate(fn: Callable) -> Callable:
        if name in _ARTIFACTS:
            raise ValueError(f"artifact {name!r} registered twice")
        _ARTIFACTS[name] = ArtifactSpec(
            name=name, build=fn, deps=tuple(deps),
            signature=inspect.signature(fn))
        return fn
    return decorate


def iter_artifacts() -> tuple[ArtifactSpec, ...]:
    """All registered artifacts, in registration order."""
    _ensure_registered()
    return tuple(_ARTIFACTS.values())


def get_artifact_spec(name: str) -> ArtifactSpec:
    _ensure_registered()
    try:
        return _ARTIFACTS[name]
    except KeyError:
        known = ", ".join(sorted(_ARTIFACTS))
        raise KeyError(f"unknown artifact {name!r} (known: {known})") \
            from None


# ----------------------------------------------------------------------
# Stage registry
# ----------------------------------------------------------------------

def number_above(convert: Callable, floor: float,
                 what: str) -> Callable[[str], Any]:
    """An argparse ``type``: ``convert(text)``, which must be a finite
    number above ``floor``; anything else is a one-line usage error
    (exit 2) naming ``what`` the option takes."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not floor < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be {what}, got {text!r}")
        return value
    return parse


#: The argparse types of counts and sizes, shared by the root options
#: and the stage options.
positive_int = number_above(int, 0, "a positive integer")
positive_float = number_above(float, 0.0, "a positive number")


@dataclass(frozen=True)
class StageOption:
    """One CLI option a stage accepts (mapped onto argparse).

    A ``flag`` without leading dashes declares a positional argument;
    ``nargs`` (e.g. ``"?"``) passes through to argparse, which is how
    optional positionals like ``repro scenario [NAME]`` are spelled.
    """

    flag: str                       # e.g. "--oversample"
    type: Callable = str
    default: Any = None
    help: str = ""
    choices: tuple | None = None
    nargs: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Stage:
    """A registered analysis stage: name → deps → compute → render.

    ``run(session, args)`` returns the stage's rendered text.  Stages
    built from an artifact pull it through the session (memoized) and
    render it; ``order`` positions the stage inside ``repro all``
    (``None`` keeps it out); ``domain`` groups the stage in ``repro
    list`` (tables / figures / validation / infrastructure / engine /
    hazards); ``export`` contributes this stage's entries to the
    machine-readable results document.
    """

    name: str
    help: str
    paper: str                              # "Table 1", "Figure 7", "§3.4"
    run: Callable[["AnalysisSession", Any], str]
    artifact: str | None = None
    order: float | None = None
    options: tuple[StageOption, ...] = ()
    export: Callable[["AnalysisSession", dict], dict] | None = None
    domain: str = "analysis"

    @property
    def deps(self) -> tuple[str, ...]:
        """Declared artifact dependencies (the stage's artifact plus
        that artifact's declared deps)."""
        if self.artifact is None:
            return ()
        spec = get_artifact_spec(self.artifact)
        return (self.artifact,) + spec.deps


def register_stage(name: str, *, help: str, paper: str,
                   artifact: str | None = None,
                   render: Callable[[Any], str] | str | None = None,
                   run: Callable | None = None,
                   order: float | None = None,
                   options: tuple[StageOption, ...] = (),
                   export: Callable | None = None,
                   domain: str = "analysis") -> Stage:
    """Register a stage.

    Either pass ``run`` (full control) or ``artifact`` + ``render``:
    the generated runner fetches the artifact through the session —
    passing each option's value as the artifact parameter named by
    the option's ``dest`` — and renders it.  ``render`` may be a
    callable taking the artifact value, or the *name* of a renderer in
    :mod:`repro.core.report` (resolved lazily to avoid import cycles).
    """
    if name in _STAGES:
        raise ValueError(f"stage {name!r} registered twice")
    if run is None:
        if artifact is None or render is None:
            raise ValueError(f"stage {name!r} needs run= or "
                             f"artifact=+render=")
        run = _artifact_runner(artifact, render, options)
    stage = Stage(name=name, help=help, paper=paper, run=run,
                  artifact=artifact, order=order,
                  options=tuple(options), export=export,
                  domain=domain)
    _STAGES[name] = stage
    return stage


def _artifact_runner(artifact_name: str,
                     render: Callable[[Any], str] | str,
                     options: tuple[StageOption, ...]) -> Callable:
    def run(session: "AnalysisSession", args: Any) -> str:
        kwargs = {opt.dest: getattr(args, opt.dest, opt.default)
                  for opt in options}
        value = session.artifact(artifact_name, **kwargs)
        return _resolve_render(render)(value)

    return run


def _resolve_render(render: Callable[[Any], str] | str) \
        -> Callable[[Any], str]:
    if callable(render):
        return render
    from .core import report
    return getattr(report, render)


def iter_stages() -> tuple[Stage, ...]:
    """All registered stages, in registration order."""
    _ensure_registered()
    return tuple(_STAGES.values())


def get_stage(name: str) -> Stage:
    _ensure_registered()
    try:
        return _STAGES[name]
    except KeyError:
        known = ", ".join(sorted(_STAGES))
        raise KeyError(f"unknown stage {name!r} (known: {known})") \
            from None


def stages_in_all() -> tuple[Stage, ...]:
    """The stages ``repro all`` runs, in their registered order keys."""
    return tuple(sorted((s for s in iter_stages() if s.order is not None),
                        key=lambda s: s.order))


def check_registry() -> tuple[str, ...]:
    """Validate the registries; return a topological artifact order.

    Raises ``ValueError`` when a declared dependency is unknown, when a
    stage references an unknown artifact, or when the declared
    dependency graph has a cycle.  (Name uniqueness is enforced at
    registration time.)
    """
    _ensure_registered()
    for stage in _STAGES.values():
        if stage.artifact is not None and stage.artifact not in _ARTIFACTS:
            raise ValueError(f"stage {stage.name!r} references unknown "
                             f"artifact {stage.artifact!r}")
    for spec in _ARTIFACTS.values():
        for dep in spec.deps:
            if dep not in _ARTIFACTS:
                raise ValueError(f"artifact {spec.name!r} declares "
                                 f"unknown dep {dep!r}")
    order: list[str] = []
    state: dict[str, int] = {}        # 0 = visiting, 1 = done

    def visit(name: str, chain: tuple[str, ...]) -> None:
        mark = state.get(name)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join(chain + (name,))
            raise ValueError(f"artifact dependency cycle: {cycle}")
        state[name] = 0
        for dep in _ARTIFACTS[name].deps:
            visit(dep, chain + (name,))
        state[name] = 1
        order.append(name)

    for name in _ARTIFACTS:
        visit(name, ())
    return tuple(order)


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------

#: Ambient session per universe object.  Weakly keyed so discarded
#: universes (seed sweeps, throwaway configs) do not pin their memos.
_SESSIONS: "WeakKeyDictionary[SyntheticUS, AnalysisSession]" = \
    WeakKeyDictionary()


class AnalysisSession:
    """One universe plus a lazily-materialized, memoized artifact graph.

    Constructing a session makes it the *ambient* session of its
    universe: every ``repro.core`` analysis called with that universe
    routes its shared sub-computations through this session's memo.
    """

    def __init__(self, universe: SyntheticUS | None = None, *,
                 config: UniverseConfig | None = None):
        if universe is None:
            universe = SyntheticUS(config or UniverseConfig())
        elif config is not None:
            raise ValueError("pass universe or config, not both")
        self.universe = universe
        self._memo: dict[tuple, Any] = {}
        self._building: list[tuple] = []
        #: (consumer, dependency) artifact edges observed at run time.
        self.edges: set[tuple[str, str]] = set()
        _SESSIONS[universe] = self

    # ------------------------------------------------------------------
    def artifact(self, name: str, **params: Any) -> Any:
        """Materialize an artifact, computing it at most once.

        The memo key is the artifact name plus its *canonical* build
        parameters (declared defaults applied), so every call spelling
        of the same computation shares one entry.  Builds are timed as
        ``artifact.<name>`` and counted as ``session.miss.<name>``;
        reuses count as ``session.hit.<name>``.
        """
        spec = get_artifact_spec(name)
        key = (name, spec.canonical_params(params))
        if self._building:
            self.edges.add((self._building[-1][0], name))
        if key in self._memo:
            STATS.count("session.hits")
            STATS.count(f"session.hit.{name}")
            trace_event(f"session.hit.{name}", artifact=name)
            return self._memo[key]
        if key in self._building:
            chain = " -> ".join(k[0] for k in self._building) \
                + f" -> {name}"
            raise RuntimeError(f"artifact cycle at run time: {chain}")
        STATS.count("session.misses")
        STATS.count(f"session.miss.{name}")
        self._building.append(key)
        try:
            with trace_span(f"artifact.{name}", artifact=name,
                            **{k: repr(v) for k, v in key[1]}) as sp:
                value = spec.build(self, **params)
        finally:
            self._building.pop()
        self._memo[key] = value
        if _ARTIFACT_OBSERVER is not None:
            _ARTIFACT_OBSERVER(name, key, sp.duration, value)
        return value

    def run(self, stage_name: str, args: Any = None) -> str:
        """Run a registered stage and return its rendered text."""
        return get_stage(stage_name).run(self, args)

    # ------------------------------------------------------------------
    def materialized(self) -> tuple[tuple, ...]:
        """Memo keys of every artifact built or reused so far."""
        return tuple(self._memo)

    def is_materialized(self, name: str, **params: Any) -> bool:
        spec = get_artifact_spec(name)
        return (name, spec.canonical_params(params)) in self._memo

    def invalidate(self, name: str | None = None) -> int:
        """Drop memo entries (all, or one artifact's every
        parameterization); returns the number dropped.  A dropped
        artifact is recomputed on next use unless the ``--cache-dir``
        disk cache holds its join results."""
        if name is None:
            dropped = len(self._memo)
            self._memo.clear()
            return dropped
        keys = [k for k in self._memo if k[0] == name]
        for key in keys:
            del self._memo[key]
        return len(keys)


def session_of(universe: SyntheticUS) -> AnalysisSession:
    """The ambient session for a universe (created on first use).

    Each universe object maps to exactly one ambient session at a
    time, so analyses called functionally with the same universe share
    artifacts, while distinct universes (different seeds, sizes,
    configs) never do.
    """
    session = _SESSIONS.get(universe)
    if session is None:
        session = AnalysisSession(universe)
    return session

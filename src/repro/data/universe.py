"""The synthetic US: one object wiring every substrate together.

:class:`SyntheticUS` builds (lazily, with per-configuration caching) the
population surface, the WHP raster, the transceiver universe, the county
layer and the per-year fire seasons, with the shared parameters
(placement exponent, urban half-saturation) kept consistent across
components — the calibration of the WHP class thresholds depends on
that consistency.  Under a ``--cache-dir`` each component is also a
result-cache entry, so a warm run loads the universe instead of
synthesizing it (:mod:`repro.data.snapshot`).

Scale is controlled by ``n_transceivers``.  Tests use ~20k, benchmarks
~150k; results are reported both raw and rescaled to the paper's
5,364,949-transceiver universe via :meth:`SyntheticUS.scaled`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..obs.trace import span
from ..runtime.cache import active_cache
from . import snapshot
from .cells import (
    PAPER_TRANSCEIVER_COUNT,
    CellUniverse,
    PointSet,
    generate_cells,
    generate_points,
)
from .counties import CountyLayer, build_counties
from .dirs import DirsSimulation, simulate_dirs
from .population import PopulationSurface
from .whp import WhpModel, build_whp
from .wildfires import FireSeason, generate_2019_season, generate_fire_season

__all__ = ["UniverseConfig", "SyntheticUS", "default_universe",
           "small_universe", "SCALE_PRESETS", "scale_config",
           "universe_for_scale"]


@dataclass(frozen=True)
class UniverseConfig:
    """Reproducible configuration for a synthetic US."""

    n_transceivers: int = 150_000
    seed: int = 20_190_722
    pop_resolution_deg: float = 0.1
    whp_resolution_deg: float = 0.05
    placement_exponent: float = 0.85
    urban_halfsat: float = 50_000.0
    mean_per_site: float = 5.6


class SyntheticUS:
    """Lazily-built synthetic United States.

    Every component is built at most once per instance; instances are
    cheap until a component is touched.  Each first read is a
    ``data.<name>`` span (which, traced, records how far the build
    raised the process's peak memory) whose ``source`` attribute says
    whether the component was ``loaded`` from the result cache or
    ``built``; a memoized read is not.  With a cache directory
    configured, the population surface, WHP model, cells, counties,
    fire seasons and validation samples are cache entries
    (:mod:`repro.data.snapshot`): a hit is loaded, a miss is built and
    stored.
    """

    def __init__(self, config: UniverseConfig | None = None):
        self.config = config or UniverseConfig()
        self._population: PopulationSurface | None = None
        self._whp: WhpModel | None = None
        self._cells: CellUniverse | None = None
        self._counties: CountyLayer | None = None
        self._seasons: dict[int, FireSeason] = {}
        self._dirs: DirsSimulation | None = None
        self._validation_cells: dict[int, PointSet] = {}

    def _component(self, name: str, build, **params):
        """Component ``name`` loaded from the result cache, or built
        (and stored when a cache is configured), in its ``data.<name>``
        span."""
        with span(f"data.{name}", **params) as sp:
            cache = active_cache()
            if cache is not None:
                key = snapshot.component_key(name, params, self.config)
                entry = cache.get(key)
                if entry is not None:
                    sp.set(source="loaded")
                    return snapshot.decode(name, entry)
            sp.set(source="built")
            value = build()
            if cache is not None:
                cache.put(key, snapshot.encode(name, value))
            return value

    # ------------------------------------------------------------------
    @property
    def population(self) -> PopulationSurface:
        if self._population is None:
            self._population = self._component(
                "population", lambda: PopulationSurface(
                    resolution_deg=self.config.pop_resolution_deg))
        return self._population

    @property
    def whp(self) -> WhpModel:
        if self._whp is None:
            self._whp = self._component("whp", lambda: build_whp(
                self.population,
                seed=self.config.seed + 1,
                resolution_deg=self.config.whp_resolution_deg,
                placement_exponent=self.config.placement_exponent,
                urban_halfsat=self.config.urban_halfsat,
            ))
        return self._whp

    @property
    def cells(self) -> CellUniverse:
        if self._cells is None:
            self._cells = self._component("cells", lambda: generate_cells(
                self.population,
                n_transceivers=self.config.n_transceivers,
                seed=self.config.seed + 2,
                placement_exponent=self.config.placement_exponent,
                mean_per_site=self.config.mean_per_site,
                urban_halfsat=self.config.urban_halfsat,
            ))
        return self._cells

    @property
    def counties(self) -> CountyLayer:
        if self._counties is None:
            self._counties = self._component(
                "counties", lambda: build_counties(self.population))
        return self._counties

    def fire_season(self, year: int) -> FireSeason:
        """The fire season for a year (2019 includes the scripted fires)."""
        if year not in self._seasons:
            def build() -> FireSeason:
                if year == 2019:
                    return generate_2019_season(
                        self.whp, seed=self.config.seed + 19)
                return generate_fire_season(
                    year, self.whp, seed=self.config.seed + year)
            self._seasons[year] = self._component("fire_seasons", build,
                                                  year=year)
        return self._seasons[year]

    def validation_cells(self, oversample: int = 8) -> PointSet:
        """A denser transceiver sample for low-variance validation.

        The §3.4 validation counts transceivers inside 2019 perimeters —
        a ~1e-4 tail event, far too rare at test scale.  This draws the
        coordinates of an ``oversample``-times larger universe (same
        generator, distinct seed) purely for that estimate; fractions
        are unbiased and counts are rescaled by the matching factor.
        Validation reads nothing but coordinates, so no provider, PLMN
        or radio is drawn.
        """
        key = int(oversample)
        if key not in self._validation_cells:
            self._validation_cells[key] = self._component(
                "validation_cells", lambda: generate_points(
                    self.population,
                    n_transceivers=self.config.n_transceivers * key,
                    seed=self.config.seed + 7,
                    placement_exponent=self.config.placement_exponent,
                    mean_per_site=self.config.mean_per_site,
                ), oversample=key)
        return self._validation_cells[key]

    @property
    def dirs(self) -> DirsSimulation:
        """The 2019 California DIRS case-study simulation."""
        if self._dirs is None:
            with span("data.dirs"):
                self._dirs = simulate_dirs(
                    self.cells, self.fire_season(2019).fires,
                    seed=self.config.seed + 3)
        return self._dirs

    @property
    def universe_scale(self) -> float:
        """Factor mapping synthetic counts to paper-universe counts.

        ``generate_cells`` returns exactly ``n_transceivers`` rows, so
        this is read from the config without drawing the universe.
        """
        return PAPER_TRANSCEIVER_COUNT / self.config.n_transceivers

    def scaled(self, count) -> int:
        """A study-universe count as a paper-universe count, rounded."""
        return int(round(count * self.universe_scale))


@lru_cache(maxsize=4)
def _cached_universe(config: UniverseConfig) -> SyntheticUS:
    return SyntheticUS(config)


def default_universe() -> SyntheticUS:
    """The benchmark-scale universe (~150k transceivers), cached."""
    return _cached_universe(UniverseConfig())


def small_universe(n_transceivers: int = 20_000,
                   seed: int = 20_190_722) -> SyntheticUS:
    """A test-scale universe (coarser WHP grid, fewer transceivers)."""
    return _cached_universe(UniverseConfig(
        n_transceivers=n_transceivers,
        seed=seed,
        whp_resolution_deg=0.1,
    ))


#: Named universe scales for the `--scale` CLI knob and the stratified
#: test tier.  "paper" is the full 5,364,949-transceiver OpenCelliD
#: snapshot on a 0.01-degree WHP grid — the compute-budget equivalent of
#: the paper's 270 m raster (a literal 0.0025-degree CONUS grid would be
#: ~245M cells / ~20 GB and is out of reach for the synthetic pipeline).
SCALE_PRESETS: dict[str, UniverseConfig] = {
    "tiny": UniverseConfig(n_transceivers=20_000, whp_resolution_deg=0.1),
    "seed": UniverseConfig(),
    "paper": UniverseConfig(n_transceivers=PAPER_TRANSCEIVER_COUNT,
                            whp_resolution_deg=0.01),
}


def scale_config(scale: str) -> UniverseConfig:
    """The :class:`UniverseConfig` behind a named scale."""
    try:
        return SCALE_PRESETS[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from "
            f"{sorted(SCALE_PRESETS)}") from None


def universe_for_scale(scale: str) -> SyntheticUS:
    """The (cached) synthetic US at a named scale."""
    return _cached_universe(scale_config(scale))

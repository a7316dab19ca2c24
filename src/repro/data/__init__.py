"""Dataset substrates: the synthetic US.

Each module replaces one of the paper's inputs (see DESIGN.md §2 for the
substitution table): states/cities/roads/population form the geographic
backbone; cells replaces OpenCelliD; whp replaces the USFS raster;
wildfires replaces GeoMAC; counties replaces Census TIGER; dirs replaces
the FCC reports; ecoregions embeds the Littell et al. projections;
providers/radios model the PLMN registry and technology mixes.
"""

from .cells import (
    PAPER_TRANSCEIVER_COUNT,
    PROVIDER_GROUPS,
    CellUniverse,
    PointSet,
    generate_cells,
    generate_points,
)
from .cities import PAPER_METROS, City, city_by_name, conus_cities
from .counties import (
    POP_CATEGORY_NAMES,
    County,
    CountyLayer,
    PopCategory,
    build_counties,
    categorize_population,
)
from .dirs import (
    DIRS_REGION,
    DIRS_REPORT_DAYS,
    DirsDailyReport,
    DirsSimulation,
    simulate_dirs,
)
from .ecoregions import (
    Ecoregion,
    ecoregion_at,
    slc_denver_ecoregions,
    slc_denver_window,
)
from .fsim import BurnProbability, FsimConfig, derive_whp_classes, run_fsim
from .historical_stats import HISTORICAL_YEARS, STUDY_YEARS, YearStats, year_stats
from .population import CONUS_POPULATION, PopulationSurface
from .powergrid import PowerGrid, build_power_grid
from .providers import (
    MAJOR_PROVIDERS,
    Plmn,
    Provider,
    provider_market_shares,
    provider_registry,
    resolve_provider,
)
from .radios import RADIO_NAMES, RadioType, draw_radio_types, technology_mix
from .states import (
    SOUTHEASTERN_STATES,
    WESTERN_STATES,
    State,
    StateAssigner,
    conus_bbox,
    conus_states,
)
from .universe import (
    SCALE_PRESETS,
    SyntheticUS,
    UniverseConfig,
    default_universe,
    scale_config,
    small_universe,
    universe_for_scale,
)
from .whp import (
    AT_RISK_CLASSES,
    WHP_CLASS_NAMES,
    WhpModel,
    WHPClass,
    build_whp,
    class_counts,
)
from .wildfires import (
    SCRIPTED_LA_FIRES_2019,
    FirePerimeter,
    FireSeason,
    generate_2019_season,
    generate_fire_season,
    scripted_2019_fires,
    star_polygon,
)

__all__ = [
    "PointSet", "CellUniverse", "generate_points", "generate_cells",
    "PROVIDER_GROUPS",
    "PAPER_TRANSCEIVER_COUNT",
    "City", "conus_cities", "city_by_name", "PAPER_METROS",
    "County", "CountyLayer", "PopCategory", "build_counties",
    "categorize_population", "POP_CATEGORY_NAMES",
    "DirsDailyReport", "DirsSimulation", "simulate_dirs",
    "DIRS_REGION", "DIRS_REPORT_DAYS",
    "Ecoregion", "ecoregion_at", "slc_denver_ecoregions",
    "slc_denver_window",
    "YearStats", "year_stats", "HISTORICAL_YEARS", "STUDY_YEARS",
    "PopulationSurface", "CONUS_POPULATION",
    "PowerGrid", "build_power_grid",
    "FsimConfig", "BurnProbability", "run_fsim", "derive_whp_classes",
    "Provider", "Plmn", "provider_registry", "resolve_provider",
    "provider_market_shares", "MAJOR_PROVIDERS",
    "RadioType", "RADIO_NAMES", "technology_mix", "draw_radio_types",
    "State", "StateAssigner", "conus_states", "conus_bbox",
    "WESTERN_STATES", "SOUTHEASTERN_STATES",
    "SyntheticUS", "UniverseConfig", "default_universe", "small_universe",
    "SCALE_PRESETS", "scale_config", "universe_for_scale",
    "WhpModel", "WHPClass", "WHP_CLASS_NAMES", "build_whp", "class_counts",
    "AT_RISK_CLASSES",
    "FirePerimeter", "FireSeason", "generate_fire_season",
    "generate_2019_season", "scripted_2019_fires", "star_polygon",
    "SCRIPTED_LA_FIRES_2019",
]

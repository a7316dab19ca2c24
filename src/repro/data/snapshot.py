"""The synthesized universe as result-cache entries.

Every component :class:`~repro.data.universe.SyntheticUS` synthesizes —
the population surface with its road distance, the WHP model's four
rasters, the transceiver universe, the county layer, each fire season
and each validation sample — is stored as one ordinary
:class:`~repro.runtime.ResultCache` entry, so a run on a warm
``--cache-dir`` loads the universe instead of generating it.  This
module owns every component's array layout: :func:`encode` flattens a
component into named arrays and :func:`decode` rebuilds an equal object
from them through the component's own constructors, running no
generator.  Entries hold plain numeric and fixed-width string arrays,
so they load with ``allow_pickle=False``.

An entry's key (:func:`component_key`) digests the component name, its
parameters (a fire season's year, a validation sample's oversample),
the universe config and :func:`generator_token`, a digest of the
source of every generator.  Editing a generator therefore retires old
entries by itself; there is no version constant to bump.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from ..geo.geometry import BBox, Polygon
from ..geo.raster import GridSpec, Raster
from ..runtime.cache import cache_key
from .cells import CellUniverse, PointSet
from .counties import County, CountyLayer
from .population import PopulationSurface
from .whp import WhpModel
from .wildfires import FirePerimeter, FireSeason

__all__ = ["component_key", "generator_token", "encode", "decode"]

_PACKAGE = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def generator_token() -> bytes:
    """Digest of the generators' source (``repro/data/*.py`` and
    ``repro/geo/*.py``) and the numpy version; computed once."""
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted([*_PACKAGE.glob("data/*.py"),
                        *_PACKAGE.glob("geo/*.py")]):
        h.update(path.relative_to(_PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.digest()


def component_key(component: str, params: dict, config) -> str:
    """Result-cache key of one universe component."""
    return cache_key("universe", component, tuple(sorted(params.items())),
                     dataclasses.astuple(config), generator_token())


def encode(component: str, value) -> dict[str, np.ndarray]:
    """A component as the flat named arrays of its cache entry.

    ``component`` is the name of its ``data.<component>`` span:
    ``population``, ``whp``, ``cells``, ``counties``, ``fire_seasons``
    or ``validation_cells``.
    """
    return _CODECS[component][0](value)


def decode(component: str, entry: dict[str, np.ndarray]):
    """The component a cache entry holds, rebuilt without its
    generator."""
    return _CODECS[component][1](entry)


# ----------------------------------------------------------------------
# Array layouts
# ----------------------------------------------------------------------

def _grid_array(grid: GridSpec) -> np.ndarray:
    b = grid.bbox
    return np.array([b.min_lon, b.min_lat, b.max_lon, b.max_lat, grid.res])


def _grid(entry: dict) -> GridSpec:
    *box, res = entry["grid"].tolist()
    return GridSpec(BBox(*box), res)


def _strings(values) -> np.ndarray:
    return np.array(list(values), dtype=np.str_)


def _encode_population(pop: PopulationSurface) -> dict:
    return {"grid": _grid_array(pop.grid), "density": pop.raster.data,
            "road_distance": pop.road_distance.data,
            "total_population": np.int64(pop.total_population),
            "corridor": np.array([pop.corridor_share,
                                  pop.corridor_halfwidth_deg])}


def _decode_population(entry: dict) -> PopulationSurface:
    grid = _grid(entry)
    share, halfwidth = entry["corridor"].tolist()
    return PopulationSurface.from_rasters(
        Raster(grid, entry["density"]),
        Raster(grid, entry["road_distance"]),
        total_population=int(entry["total_population"]),
        corridor_share=share, corridor_halfwidth_deg=halfwidth)


#: The WHP model's rasters, which share one grid.
_WHP_RASTERS = ("raster", "fuel", "urbanization", "placement_weight")


def _encode_whp(whp: WhpModel) -> dict:
    return {"grid": _grid_array(whp.grid),
            **{name: getattr(whp, name).data for name in _WHP_RASTERS}}


def _decode_whp(entry: dict) -> WhpModel:
    grid = _grid(entry)
    return WhpModel(**{name: Raster(grid, entry[name])
                       for name in _WHP_RASTERS})


def _encode_columns(points: PointSet) -> dict:
    return {name: getattr(points, name) for name in type(points).COLUMNS}


def _decode_columns(kind: type[PointSet], entry: dict) -> PointSet:
    return kind(**{name: entry[name] for name in kind.COLUMNS})


def _encode_counties(layer: CountyLayer) -> dict:
    counties = layer.counties
    b = layer.bbox
    return {
        "names": _strings(c.name for c in counties),
        "states": _strings(c.state for c in counties),
        # No anchor is an empty name; every real anchor city has one.
        "anchors": _strings(c.anchor_city or "" for c in counties),
        "boxes": np.array([[c.bbox.min_lon, c.bbox.min_lat,
                            c.bbox.max_lon, c.bbox.max_lat]
                           for c in counties]).reshape(-1, 4),
        "populations": np.array([c.population for c in counties],
                                dtype=np.int64),
        "layout": np.array([layer.tile_deg, b.min_lon, b.min_lat,
                            b.max_lon, b.max_lat]),
        "n_named": np.int64(layer.n_named),
    }


def _decode_counties(entry: dict) -> CountyLayer:
    counties = [
        County(name=name, state=state, bbox=BBox(*box),
               population=population, anchor_city=anchor or None)
        for name, state, box, population, anchor in zip(
            entry["names"].tolist(), entry["states"].tolist(),
            entry["boxes"].tolist(), entry["populations"].tolist(),
            entry["anchors"].tolist())]
    tile_deg, *box = entry["layout"].tolist()
    return CountyLayer(counties, tile_deg, BBox(*box),
                       n_named=int(entry["n_named"]))


def _encode_season(season: FireSeason) -> dict:
    fires = season.fires
    # Generated perimeters have no holes (``Polygon.from_ccw_ring``), so
    # only their exteriors are stored.
    rings = [fire.polygon.exterior for fire in fires]
    return {
        "year": np.int64(season.year),
        "names": _strings(f.name for f in fires),
        "years": np.array([f.year for f in fires], dtype=np.int64),
        "days": np.array([(f.start_doy, f.end_doy) for f in fires],
                         dtype=np.int64).reshape(-1, 2),
        "acres": np.array([f.acres for f in fires], dtype=np.float64),
        "agencies": _strings(f.agency for f in fires),
        "methods": _strings(f.method for f in fires),
        # Every exterior ring, concatenated; fire i's is
        # rings[offsets[i]:offsets[i + 1]].
        "offsets": np.cumsum([0, *map(len, rings)], dtype=np.int64),
        "rings": np.concatenate(rings),
    }


def _decode_season(entry: dict) -> FireSeason:
    rings, offsets = entry["rings"], entry["offsets"]
    starts = offsets[:-1].tolist()
    ends = offsets[1:].tolist()
    # Every ring's bounding box in two reductions; min and max are
    # exact, so each equals the box the ring's constructor would take.
    lows = np.minimum.reduceat(rings, starts).tolist()
    highs = np.maximum.reduceat(rings, starts).tolist()
    fires = [
        FirePerimeter(name=name, year=year, start_doy=start, end_doy=end,
                      acres=acres,
                      polygon=Polygon.from_ccw_ring(
                          rings[lo:hi], BBox(*low, *high)),
                      agency=agency, method=method)
        for name, year, (start, end), acres, agency, method, lo, hi,
        low, high in zip(
            entry["names"].tolist(), entry["years"].tolist(),
            entry["days"].tolist(), entry["acres"].tolist(),
            entry["agencies"].tolist(), entry["methods"].tolist(),
            starts, ends, lows, highs)]
    return FireSeason(year=int(entry["year"]), fires=fires)


_CODECS = {
    "population": (_encode_population, _decode_population),
    "whp": (_encode_whp, _decode_whp),
    "cells": (_encode_columns, partial(_decode_columns, CellUniverse)),
    "counties": (_encode_counties, _decode_counties),
    "fire_seasons": (_encode_season, _decode_season),
    "validation_cells": (_encode_columns, partial(_decode_columns, PointSet)),
}

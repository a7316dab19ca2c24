"""Scale-stratified differential tests for the batched hot path.

The numerical hot path is batched three ways: one crossing-number
kernel over ring edge tables (``points_in_ring``,
``Polygon.contains_many`` and the grid index's ring join all run it),
CSR candidate-run gathering in the grid index, and tiled raster
sampling.  Each must be *bit-identical* to the legacy serial arithmetic
at every scale the pipeline runs — so the oracle stack here is
explicit:

* ``points_in_ring_serial`` — the original per-edge loop, kept verbatim
  as the reference kernel;
* an exhaustive scan (no index, no bbox prefilter) built on the serial
  kernel with manual hole handling — independent of every fast path;
* the scalar ``point_in_ring`` spot check (which additionally treats
  exact-boundary points as inside; random points never hit that case).

Strata: ``tiny`` (2k clustered random points), ``seed`` (the shared
20k synthetic universe with its real fire season), and
``paper_sampled`` (a deterministic 1% stratified draw of the full
5,364,949-transceiver paper universe).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.overlay import overlay_fires, overlay_fires_bruteforce
from repro.geo.geometry import MultiPolygon
from repro.geo.predicates import (
    point_in_ring,
    points_in_ring,
    points_in_ring_serial,
)
from repro.runtime import dispatch as runtime_dispatch
from repro.runtime import shutdown_pools

from .test_differential import (
    assert_identical,
    random_fires,
    random_universe,
)

SCALES = ("tiny", "seed", "paper_sampled")


@pytest.fixture(scope="module")
def paper_sampled_cells():
    """Deterministic 1% stratified draw of the 5.36M paper universe."""
    from repro.data.universe import universe_for_scale

    return universe_for_scale("paper").cells.stratified_sample(0.01)


@pytest.fixture
def scaled(request, universe, paper_sampled_cells):
    """(cells, fires) for a named scale stratum."""
    scale = request.param
    if scale == "tiny":
        return random_universe(0, 2_000), random_fires(0, 4)
    if scale == "seed":
        return universe.cells, universe.fire_season(2018).fires
    return paper_sampled_cells, random_fires(7, 6, year=2019)


def _exhaustive_inside(polygon, lons, lats) -> np.ndarray:
    """Full-scan polygon membership on the serial oracle kernel.

    No index, no bbox prefilter, manual hole subtraction — shares no
    code with the batched fast paths beyond the ring representation.
    """
    if isinstance(polygon, MultiPolygon):
        out = np.zeros(len(lons), dtype=bool)
        for poly in polygon.polygons:
            out |= _exhaustive_inside(poly, lons, lats)
        return out
    inside = points_in_ring_serial(lons, lats, polygon.exterior)
    for hole in polygon.holes:
        inside &= ~points_in_ring_serial(lons, lats, hole)
    return inside


def _each_polygon(fires):
    for fire in fires:
        poly = fire.polygon
        if isinstance(poly, MultiPolygon):
            yield from poly.polygons
        else:
            yield poly


@pytest.mark.parametrize("scaled", SCALES, indirect=True)
def test_batch_pip_equals_serial_pip(scaled):
    """The batched kernel is bitwise the per-edge loop, per ring."""
    cells, fires = scaled
    for poly in _each_polygon(fires):
        for ring in (poly.exterior, *poly.holes):
            batch = points_in_ring(cells.lons, cells.lats, ring)
            serial = points_in_ring_serial(cells.lons, cells.lats, ring)
            assert batch.dtype == serial.dtype
            assert (batch == serial).all()


@pytest.mark.parametrize("scaled", SCALES, indirect=True)
def test_batch_pip_equals_scalar_pip(scaled):
    """Spot-check the batch kernel against the scalar crossing test.

    The scalar test additionally reports exact-boundary points as
    inside; continuous random coordinates never land there, so strict
    equality is the correct assertion for these samples.
    """
    cells, fires = scaled
    rng = np.random.default_rng(99)
    idx = rng.choice(len(cells), size=min(200, len(cells)),
                     replace=False)
    for poly in _each_polygon(fires):
        batch = points_in_ring(cells.lons[idx], cells.lats[idx],
                               poly.exterior)
        for k, i in enumerate(idx):
            scalar = point_in_ring(float(cells.lons[i]),
                                   float(cells.lats[i]), poly.exterior)
            assert batch[k] == scalar


@pytest.mark.parametrize("scaled", SCALES, indirect=True)
def test_index_query_equals_exhaustive_scan(scaled):
    """Grid-index polygon queries == the oracle full scan, per fire."""
    cells, fires = scaled
    index = cells.index()
    for fire in fires:
        hits = np.zeros(len(cells), dtype=bool)
        hits[index.query_polygon(fire.polygon)] = True
        reference = _exhaustive_inside(fire.polygon, cells.lons,
                                       cells.lats)
        assert (hits == reference).all()


@pytest.mark.parametrize("scaled", SCALES, indirect=True)
def test_overlay_parallel_serial_bruteforce_identical(
        scaled, monkeypatch):
    """parallel == serial == bruteforce == exhaustive scan, per scale."""
    monkeypatch.setattr(runtime_dispatch, "MIN_PARALLEL_POINTS", 64)
    monkeypatch.setattr(runtime_dispatch, "OVERLAY_WORK_FACTOR", 1)
    monkeypatch.setattr(runtime_dispatch, "CPU_COUNT_OVERRIDE", 8)
    try:
        cells, fires = scaled
        year = fires[0].year
        reference = overlay_fires_bruteforce(cells, fires, year=year)
        serial = overlay_fires(cells, fires, year=year, workers=1,
                               use_cache=False)
        parallel = overlay_fires(cells, fires, year=year, workers=4,
                                 use_cache=False)
        assert_identical(serial, reference)
        assert_identical(parallel, reference)
        oracle = np.zeros(len(cells), dtype=bool)
        for fire in fires:
            oracle |= _exhaustive_inside(fire.polygon, cells.lons,
                                         cells.lats)
        assert (reference.in_perimeter_mask == oracle).all()
    finally:
        shutdown_pools()


def test_stratified_sample_is_deterministic_and_stratified():
    cells = random_universe(5, 5_000)
    cells.provider_group[:] = np.arange(5_000, dtype=np.int64) % 3
    cells.radio[:] = np.arange(5_000, dtype=np.int64) % 2
    a = cells.stratified_sample(0.1)
    b = cells.stratified_sample(0.1)
    assert (a.lons == b.lons).all() and (a.site_ids == b.site_ids).all()
    # every (provider_group, radio) stratum survives at ~the fraction
    for g in range(3):
        for r in range(2):
            full = ((cells.provider_group == g)
                    & (cells.radio == r)).sum()
            kept = ((a.provider_group == g) & (a.radio == r)).sum()
            assert kept == -(-full // 10)  # ceil(full / step)

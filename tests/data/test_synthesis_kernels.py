"""Reference equivalence of the universe-synthesis kernels.

Each fast kernel is compared bit for bit with the per-cell or
per-element code it replaced, kept here as the reference: the windowed
outer-sum wildland fronts, the memoized ignition CDF against
``Generator.choice``, the batched per-site fill against its scalar
loop, the PLMN lookup, the code-based radio draw, and the batched
star-polygon perimeters against the per-fire ``star_polygon`` body.
Every perimeter generator's output is pinned by digest as well.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.cells import (
    MAX_PER_SITE,
    PROVIDER_GROUPS,
    _draw_plmns,
    _fill_to_total,
    generate_cells,
)
from repro.data.cities import conus_cities
from repro.data.providers import MAJOR_PROVIDERS, provider_registry
from repro.data.radios import (
    _LTE_RURAL_TILT,
    _draw_radio_types_by_code,
    draw_radio_types,
    technology_mix,
)
from repro.data.states import conus_bbox
from repro.data.whp import WhpModel, _wildland_front_field, build_whp
from repro.data.wildfires import (
    _star_trig,
    generate_fire_season,
    scripted_2019_fires,
    star_polygon,
    star_polygons,
)
from repro.geo.geometry import Polygon
from repro.geo.projection import acres_to_sqmeters, meters_per_degree
from repro.geo.raster import GridSpec, Raster
from repro.hazard import GridIgnitedFireHazard, WindFootprintHazard
from repro.hazard.scenarios import get_scenario
from repro.runtime.stats import STATS
from tests.hazard.test_protocol import _event_token


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# Wildland fronts ------------------------------------------------------

def _front_field_reference(grid: GridSpec) -> np.ndarray:
    """Every front evaluated at every cell center of a full meshgrid."""
    col_mesh, row_mesh = np.meshgrid(np.arange(grid.width),
                                     np.arange(grid.height))
    lons, lats = grid.cell_center(row_mesh.ravel(), col_mesh.ravel())
    out = np.zeros(lons.shape)
    for city in conus_cities():
        front = city.wildland_front
        if front is None:
            continue
        flon, flat, sigma, boost = front
        d2 = ((lons - flon) * np.cos(np.radians(flat))) ** 2 \
            + (lats - flat) ** 2
        out += boost * np.exp(-d2 / (2.0 * sigma * sigma))
    return out


@pytest.mark.parametrize("res", [0.1, 0.05, 0.02])
def test_windowed_front_field_equals_full_grid(res):
    grid = GridSpec(conus_bbox(), res)
    assert _same_bits(_wildland_front_field(grid),
                      _front_field_reference(grid))


def test_exp_is_exactly_zero_past_the_window():
    x = -np.concatenate([np.linspace(750.0, 800.0, 1001),
                         [750.0, 1e3, 1e6, 1e300]])
    assert (np.exp(x) == 0.0).all()


def test_build_whp_samples_each_grid_cell_four_times(universe):
    pop = universe.population
    before = STATS.get("raster.samples")
    whp = build_whp(pop, resolution_deg=0.2)
    assert STATS.get("raster.samples") - before == 4 * whp.grid.shape[0] \
        * whp.grid.shape[1]


# Ignition CDF ---------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 250, 5000])
def test_cdf_draw_equals_generator_choice(whp, n):
    weights = whp.ignition_weights().ravel()
    ref = np.random.default_rng(99 + n)
    fast = np.random.default_rng(99 + n)
    want = ref.choice(len(weights), size=n, p=weights / weights.sum())
    got = whp.ignition_cdf().searchsorted(fast.random(n), side="right")
    assert _same_bits(got.astype(np.int64), want)
    assert fast.random() == ref.random()


def test_cdf_is_memoized(whp):
    assert whp.ignition_cdf() is whp.ignition_cdf()


def test_cdf_rejects_weights_with_no_mass(whp):
    grid = whp.grid
    barren = WhpModel(
        raster=Raster(grid, np.zeros(grid.shape, dtype=np.int8)),
        fuel=whp.fuel, urbanization=whp.urbanization,
        placement_weight=whp.placement_weight)
    with pytest.raises(ValueError, match="positive finite"):
        barren.ignition_cdf()


# Per-site fill --------------------------------------------------------

def _fill_reference(per_site: np.ndarray, total: int,
                    rng: np.random.Generator) -> None:
    """The scalar loop: one ``integers`` draw per step."""
    n_sites = len(per_site)
    current = int(per_site.sum())
    while current != total:
        i = int(rng.integers(n_sites))
        if current < total and per_site[i] < MAX_PER_SITE:
            per_site[i] += 1
            current += 1
        elif current > total and per_site[i] > 1:
            per_site[i] -= 1
            current -= 1


def _check_fill(per_site: np.ndarray, total: int, seed: int) -> None:
    ref, fast = per_site.copy(), per_site.copy()
    rng_ref = np.random.default_rng(seed)
    rng_fast = np.random.default_rng(seed)
    _fill_reference(ref, total, rng_ref)
    _fill_to_total(fast, total, rng_fast)
    assert _same_bits(fast, ref)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_sites=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       saturation=st.floats(min_value=0.0, max_value=1.0),
       target=st.floats(min_value=0.0, max_value=1.0))
def test_batched_fill_replays_the_scalar_loop(n_sites, seed, saturation,
                                              target):
    """Random deficits and surpluses, with a share of the sites
    already at a bound (12 when padding, 1 when trimming)."""
    rng = np.random.default_rng(seed)
    per_site = np.clip(rng.geometric(1.0 / 5.6, size=n_sites),
                       1, MAX_PER_SITE)
    capped = rng.random(n_sites) < saturation
    per_site[capped] = rng.choice([1, MAX_PER_SITE], size=capped.sum())
    total = n_sites + int(round(target * (MAX_PER_SITE - 1) * n_sites))
    _check_fill(per_site, total, seed + 1)


@pytest.mark.parametrize("case", ["deficit", "surplus", "all_full",
                                  "all_single", "one_site", "exact"])
def test_batched_fill_edge_cases(case):
    rng = np.random.default_rng(5)
    per_site = np.clip(rng.geometric(1.0 / 5.6, size=2000),
                       1, MAX_PER_SITE)
    total = {"deficit": int(per_site.sum()) + 3000,
             "surplus": int(per_site.sum()) - 3000,
             "all_full": MAX_PER_SITE * 2000,
             "all_single": 2000,
             "exact": int(per_site.sum())}.get(case)
    if case == "one_site":
        per_site, total = np.array([3]), 11
    _check_fill(per_site, total, 17)


def test_generate_cells_matches_the_scalar_fill(universe, monkeypatch):
    import repro.data.cells as cells_mod

    fast = generate_cells(universe.population, 3000, seed=8)
    monkeypatch.setattr(cells_mod, "_fill_to_total", _fill_reference)
    ref = generate_cells(universe.population, 3000, seed=8)
    for name in ("lons", "lats", "site_ids", "mcc", "mnc",
                 "provider_group", "radio"):
        assert _same_bits(getattr(fast, name), getattr(ref, name)), name


# Unreachable totals ---------------------------------------------------

def test_generate_cells_rejects_mean_below_one(universe):
    with pytest.raises(ValueError, match="mean_per_site"):
        generate_cells(universe.population, 2000, mean_per_site=0.5)


def test_generate_cells_rejects_unreachable_total():
    """Sites hold at most 12, so 100 sites cannot take 2,000
    transceivers.  Runs in a child so that a fill loop without progress
    fails on the timeout instead of hanging the suite."""
    code = ("from repro.data.population import PopulationSurface\n"
            "from repro.data.cells import generate_cells\n"
            "generate_cells(PopulationSurface(resolution_deg=0.5), 2000,"
            " mean_per_site=20.0)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ValueError: 2000 transceivers do not fit "
                           "100 sites")


# PLMN and radio draws -------------------------------------------------

def _draw_plmns_reference(groups, rng):
    """Per-element list comprehensions over the PLMN records."""
    registry = provider_registry()
    mcc = np.empty(len(groups), dtype=np.int32)
    mnc = np.empty(len(groups), dtype=np.int32)
    for code, name in enumerate(PROVIDER_GROUPS):
        mask = groups == code
        count = int(mask.sum())
        if count == 0:
            continue
        if name == "Others":
            plmns = [p for prov in registry.values()
                     if prov.name not in MAJOR_PROVIDERS
                     for p in prov.plmns]
            weights = np.full(len(plmns), 1.0 / len(plmns))
        else:
            plmns = list(registry[name].plmns)
            weights = 1.0 / (np.arange(len(plmns)) + 1.0)
            weights /= weights.sum()
        pick = rng.choice(len(plmns), size=count, p=weights)
        mcc[mask] = np.array([plmns[i].mcc for i in pick], dtype=np.int32)
        mnc[mask] = np.array([plmns[i].mnc for i in pick], dtype=np.int32)
    return mcc, mnc


def _draw_radio_types_reference(groups, ruralness, rng):
    """String comparisons over the name array, one pass per group."""
    groups = np.asarray(groups)
    ruralness = np.clip(np.asarray(ruralness, dtype=float), 0.0, 1.0)
    n = len(groups)
    out = np.empty(n, dtype=np.int8)
    u = rng.random(n)
    for group in set(groups.tolist()):
        mask = groups == group
        base = np.array(technology_mix(group), dtype=float)
        probs = np.tile(base, (int(mask.sum()), 1))
        tilt = _LTE_RURAL_TILT * ruralness[mask]
        non_lte = probs[:, :3].sum(axis=1)
        scale = np.where(non_lte > 0,
                         (non_lte - tilt).clip(0.0) / np.where(
                             non_lte > 0, non_lte, 1.0),
                         0.0)
        probs[:, :3] *= scale[:, None]
        probs[:, 3] = 1.0 - probs[:, :3].sum(axis=1)
        cdf = np.cumsum(probs, axis=1)
        draws = (u[mask][:, None] > cdf).sum(axis=1)
        out[mask] = draws.astype(np.int8)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plmn_lookup_equals_per_element_lists(seed):
    groups = np.random.default_rng(seed).integers(
        0, len(PROVIDER_GROUPS), size=20_000).astype(np.int8)
    rng_ref = np.random.default_rng(seed + 10)
    rng_fast = np.random.default_rng(seed + 10)
    want = _draw_plmns_reference(groups, rng_ref)
    got = _draw_plmns(groups, rng_fast)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n_groups", [1, 3, len(PROVIDER_GROUPS)])
def test_radio_draw_by_code_equals_by_name(n_groups):
    rng = np.random.default_rng(n_groups)
    codes = rng.integers(0, n_groups, size=30_000).astype(np.int8)
    ruralness = rng.uniform(-0.2, 1.2, size=codes.size)
    names = np.array(PROVIDER_GROUPS)[codes]
    rngs = [np.random.default_rng(42) for _ in range(3)]
    want = _draw_radio_types_reference(names, ruralness, rngs[0])
    by_name = draw_radio_types(names, ruralness, rngs[1])
    by_code = _draw_radio_types_by_code(codes, PROVIDER_GROUPS, ruralness,
                                        rngs[2])
    assert _same_bits(by_name, want) and _same_bits(by_code, want)
    states = [r.bit_generator.state for r in rngs]
    assert states[0] == states[1] == states[2]


def test_radio_draw_by_name_handles_unknown_groups():
    names = np.array(["Verizon", "Acme Wireless", "AT&T", "Acme Wireless"])
    ruralness = np.array([0.1, 0.9, 0.5, 0.3])
    want = _draw_radio_types_reference(names, ruralness,
                                       np.random.default_rng(3))
    got = draw_radio_types(names, ruralness, np.random.default_rng(3))
    assert _same_bits(got, want)


# Star-polygon perimeters ----------------------------------------------

def _star_polygon_reference(lon: float, lat: float, acres: float,
                            rng: np.random.Generator, n_vertices: int = 24,
                            roughness: float = 0.45, elongation: float = 1.0,
                            bearing_deg: float = 0.0) -> Polygon:
    """The per-fire ``star_polygon`` body the batched kernel replaced."""
    from scipy import ndimage

    if acres <= 0:
        raise ValueError("fire area must be positive")
    if elongation < 1.0:
        raise ValueError("elongation must be >= 1")
    noise = rng.standard_normal(n_vertices)
    noise = ndimage.uniform_filter1d(noise, size=5, mode="wrap")
    noise = noise / max(np.abs(noise).max(), 1e-9)
    radii_rel = np.maximum(1.0 + roughness * noise, 0.25)

    cos_theta, sin_theta, sin_dtheta = _star_trig(n_vertices)
    radii_next = np.concatenate((radii_rel[1:], radii_rel[:1]))
    unit_area = 0.5 * float(np.sum(radii_rel * radii_next) * sin_dtheta)
    base_r = math.sqrt(acres_to_sqmeters(acres) / unit_area)

    x = base_r * radii_rel * cos_theta
    y = base_r * radii_rel * sin_theta
    if elongation > 1.0:
        stretch = math.sqrt(elongation)
        wind = math.radians(90.0 - bearing_deg)
        ca, sa = math.cos(wind), math.sin(wind)
        along = (x * ca + y * sa) * stretch
        across = (-x * sa + y * ca) / stretch
        x = along * ca - across * sa
        y = along * sa + across * ca

    mx, my = meters_per_degree(lat)
    lons = lon + x / mx
    lats = lat + y / my
    return Polygon.from_ccw_ring(np.column_stack([lons, lats]))


_FIRE = st.tuples(
    st.floats(-125.0, -65.0),                                  # lon
    st.floats(20.0, 55.0),                                     # lat
    st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),             # acres
    st.one_of(st.just(1.0),                                    # elongation
              st.floats(1.0, 8.0, exclude_min=True)),
    st.floats(-720.0, 720.0),                                  # bearing
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fires=st.lists(_FIRE, min_size=1, max_size=6),
       n_vertices=st.integers(3, 64),
       roughness=st.sampled_from([0.15, 0.45]),
       seed=st.integers(0, 2**32 - 1))
def test_star_polygons_equal_the_per_fire_body(fires, n_vertices,
                                               roughness, seed):
    """Each row of one batched call is the ring and box a lone fire got
    from the per-fire body, whatever fires share the block."""
    lons, lats, acres, elongation, bearing = map(list, zip(*fires))
    noise = np.stack([np.random.default_rng([seed, i])
                      .standard_normal(n_vertices)
                      for i in range(len(fires))])
    got = star_polygons(lons, lats, acres, noise, roughness=roughness,
                        elongation=elongation, bearing_deg=bearing)
    assert len(got) == len(fires)
    for i, poly in enumerate(got):
        want = _star_polygon_reference(
            lons[i], lats[i], acres[i], np.random.default_rng([seed, i]),
            n_vertices, roughness, elongation[i], bearing[i])
        assert poly.exterior.dtype == want.exterior.dtype
        assert poly.exterior.shape == want.exterior.shape
        assert poly.exterior.tobytes() == want.exterior.tobytes()
        assert poly.bbox == want.bbox
        assert not poly.exterior.flags.writeable


def test_star_polygon_is_one_batched_row():
    """The public one-fire call draws its noise as the old body did."""
    for seed, kwargs in ((1, {}), (2, {"elongation": 3.0,
                                       "bearing_deg": 225.0}),
                         (3, {"n_vertices": 20, "roughness": 0.15,
                              "elongation": 6.5, "bearing_deg": 80.0})):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = star_polygon(-118.0, 34.0, 20_000.0, rngs[0], **kwargs)
        want = _star_polygon_reference(-118.0, 34.0, 20_000.0, rngs[1],
                                       **kwargs)
        assert got.exterior.tobytes() == want.exterior.tobytes()
        assert got.bbox == want.bbox
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_star_polygons_reject_what_the_body_rejected():
    noise = np.zeros((2, 24))
    with pytest.raises(ValueError, match="area"):
        star_polygons([-110.0, -111.0], [40.0, 41.0], [10.0, 0.0], noise)
    with pytest.raises(ValueError, match="elongation"):
        star_polygons([-110.0, -111.0], [40.0, 41.0], [10.0, 5.0], noise,
                      elongation=[1.0, 0.5])
    assert star_polygons([], [], [], np.zeros((0, 24))) == []


# Fire perimeter pins --------------------------------------------------

#: The engine benchmark's grid-ignition weight (``e2ebench/engine.py``).
_ENGINE_GRID_FIRE = {"n_events": 1500, "total_acres": 40_000_000.0}


def _scenario_member_0(universe, name):
    scenario = get_scenario(name)
    events = list(scenario.hazard.ensemble_member(universe, scenario.year,
                                                  0))
    for extra in scenario.extra_hazards:
        events.extend(extra.ensemble_member(universe, scenario.year, 0))
    return events


#: Every perimeter generator's output on the shared small universe, as
#: the ``_event_token`` digest it had when each fire still made its own
#: ``star_polygon`` call: the batched kernel must not move one byte.
#: The ``grid-ignition-season`` scenario's member 0 is ``grid_fire-0``
#: (the default hazard in 2019), so it has no pin of its own.
_PERIMETER_PINS = {
    "season-2000": (
        lambda u: u.fire_season(2000).fires,
        "c720e233e3c74e706d934b7062fdc03d71b6eaef6324bf537943d0aa8e2dd699"),
    "season-2018": (
        lambda u: u.fire_season(2018).fires,
        "8c83501b80b99c48b8c81a5b6cc9c68790e4e3dbf82a1b334897ecc2594b98b8"),
    "season-2019": (
        lambda u: u.fire_season(2019).fires,
        "b09877f7491e2a49fd4f5cb37a8bbcbe5f278756600a722cd588f91431ba53e3"),
    "season-2017-elongated": (
        lambda u: generate_fire_season(2017, u.whp, seed=5,
                                       elongation_range=(1.0, 4.0)).fires,
        "c6191e388a904ba5ea43575e2b9d1e890925707904b43872077086e0003e4bc2"),
    "scripted-2019": (
        lambda u: scripted_2019_fires(),
        "444d1c839e6b5651dc1045aa1cb8c3b7baf9219b385fdab91807bb616236f1e4"),
    "grid_fire-0": (
        lambda u: GridIgnitedFireHazard().ensemble_member(u, 2019, 0),
        "210f57e4156609b6273fa87997560549b4af9431b3b420c5e3d56f38935f7e38"),
    "grid_fire-1": (
        lambda u: GridIgnitedFireHazard().ensemble_member(u, 2019, 1),
        "6c46c58cd1f784b6f57c36eeb3b24270e7ab20dcc343e0103a7f9d80e26ed743"),
    "grid_fire-engine-0": (
        lambda u: GridIgnitedFireHazard(**_ENGINE_GRID_FIRE)
        .ensemble_member(u, 2019, 0),
        "61ebf01e515b623d0192854d86b70b70509ab2cbe7c0c47cbe0e94ff9bc16c8c"),
    "grid_fire-engine-1": (
        lambda u: GridIgnitedFireHazard(**_ENGINE_GRID_FIRE)
        .ensemble_member(u, 2019, 1),
        "d1826300ada29de5590b0800b2fcbcee050c78c2cab6271daa69caed0f566c78"),
    "wind-0": (
        lambda u: WindFootprintHazard().ensemble_member(u, 2019, 0),
        "1dfb8d18a0fe01764006a14b03844a8bbfb8fe55ef896002a1e864d9488daa7b"),
    "scenario-2025-la-style-0": (
        lambda u: _scenario_member_0(u, "2025-la-style"),
        "89f4b9226221b34d91efbcf5723b392797a0c75b642807324bc24c776a3ad3c1"),
    "scenario-wui-expansion-0": (
        lambda u: _scenario_member_0(u, "wui-expansion"),
        "4584463ae8202b2d7de7a5071115d61872bbb54f413e9910da0d327ffe639930"),
}


@pytest.mark.parametrize("key", sorted(_PERIMETER_PINS))
def test_perimeters_are_pinned(universe, key):
    events, digest = _PERIMETER_PINS[key]
    assert _event_token(events(universe)) == digest

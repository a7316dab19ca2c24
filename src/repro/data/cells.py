"""Synthetic cell-transceiver universe (OpenCelliD substitute).

The OpenCelliD snapshot the paper uses has 5,364,949 transceivers in the
conterminous US.  Analyses only consume per-transceiver (lon, lat,
MCC/MNC, radio type); we generate those with the spatial and categorical
structure the paper's results depend on:

* sites sampled from the population surface with a flattening exponent
  (cell sites are less concentrated than people, §2.2.3 / Figure 2),
* 1–12 transceivers per site (multi-tenant towers; the paper infers
  towers from co-located transceivers),
* provider mix with per-provider rural/urban footprint biases (Table 2),
* technology mix per provider with a rural LTE tilt (Table 3),
* ~100 m location jitter mimicking OpenCelliD's triangulation error.

Storage is struct-of-arrays (numpy), scaling to millions of rows.  CSV
I/O follows the OpenCelliD column layout so a real snapshot can be
loaded instead.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from ..geo.index import UniformGridIndex
from ..obs.trace import span
from .population import PopulationSurface
from .providers import (
    MAJOR_PROVIDERS,
    provider_market_shares,
    provider_registry,
    rural_affinity,
)
from .radios import RadioType, _draw_radio_types_by_code

__all__ = ["PointSet", "CellUniverse", "SiteTable", "generate_points",
           "generate_cells", "PROVIDER_GROUPS", "PAPER_TRANSCEIVER_COUNT"]

#: The paper's OpenCelliD CONUS snapshot size (2019-10-22).
PAPER_TRANSCEIVER_COUNT = 5_364_949

#: Canonical provider groups, in Table 2 order; index = stored code.
PROVIDER_GROUPS = (*MAJOR_PROVIDERS, "Others")

#: Transceivers per site are drawn in ``[1, MAX_PER_SITE]``.
MAX_PER_SITE = 12

#: Cell size, in degrees, of every point set's grid index.
INDEX_CELL_DEG = 0.25


@dataclass(frozen=True)
class SiteTable:
    """One row per cell site, in ascending site-id order.

    Transceivers sharing a ``site_id`` form one site; ``order`` is the
    stable argsort of the universe's ``site_ids`` and ``starts`` each
    site's first position in it, so ``order[starts]`` is every site's
    first transceiver (what ``np.unique(..., return_index=True)``
    returns) and a per-site reduction is one ``reduceat``.
    """

    ids: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    lons: np.ndarray
    lats: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def max(self, values: np.ndarray) -> np.ndarray:
        """Per-site maximum of a per-transceiver array."""
        return np.maximum.reduceat(values[self.order], self.starts)

    def any(self, mask: np.ndarray) -> np.ndarray:
        """Per-site OR of a per-transceiver boolean mask."""
        return np.logical_or.reduceat(mask[self.order], self.starts)


@dataclass
class PointSet:
    """Transceiver coordinates alone: what a spatial join reads.

    ``index()`` and ``content_token()`` serve :func:`overlay_fires` and
    :func:`classify_cells`, which read nothing else; the §3.4
    validation sample is a bare point set, and :class:`CellUniverse`
    adds the per-transceiver categorical columns.
    """

    #: Per-row columns, all of ``len(lons)`` rows; ``subset`` slices
    #: each of them.
    COLUMNS: ClassVar[tuple[str, ...]] = ("lons", "lats")

    lons: np.ndarray          # float64, degrees
    lats: np.ndarray          # float64, degrees
    _index: UniformGridIndex | None = field(default=None, repr=False,
                                            kw_only=True)
    _token: bytes | None = field(default=None, repr=False, kw_only=True)

    def __len__(self) -> int:
        return len(self.lons)

    def __post_init__(self):
        n = len(self.lons)
        for name in self.COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    def index(self) -> UniformGridIndex:
        """Spatial index over all points, in ``INDEX_CELL_DEG`` cells
        (built once, on first use, in a ``geo.index`` span)."""
        if self._index is None:
            with span("geo.index", n_points=len(self),
                      cell_deg=INDEX_CELL_DEG):
                self._index = UniformGridIndex(self.lons, self.lats,
                                               INDEX_CELL_DEG)
        return self._index

    def content_token(self) -> bytes:
        """Digest of the coordinates (computed once).

        The runtime result cache keys spatial joins by this token:
        universes generated from different seeds, sizes or placement
        parameters hash to different tokens because their coordinate
        bytes differ, while the same configuration always re-hashes to
        the same token.
        """
        if self._token is None:
            h = hashlib.sha256()
            for arr in (self.lons, self.lats):
                h.update(np.ascontiguousarray(arr).tobytes())
            self._token = h.digest()
        return self._token

    def subset(self, mask_or_idx):
        """A new set of the same type restricted to the given
        mask/index array."""
        return type(self)(**{name: getattr(self, name)[mask_or_idx]
                             for name in self.COLUMNS})


@dataclass
class CellUniverse(PointSet):
    """Struct-of-arrays container for the transceiver universe."""

    COLUMNS: ClassVar[tuple[str, ...]] = (
        *PointSet.COLUMNS, "site_ids", "mcc", "mnc", "provider_group",
        "radio")

    site_ids: np.ndarray      # int64; transceivers sharing a site share id
    mcc: np.ndarray           # int32
    mnc: np.ndarray           # int32
    provider_group: np.ndarray  # int8 index into PROVIDER_GROUPS
    radio: np.ndarray         # int8 RadioType code
    _sites: SiteTable | None = field(default=None, repr=False,
                                     kw_only=True)

    @property
    def universe_scale(self) -> float:
        """Factor mapping synthetic counts to paper-universe counts."""
        return PAPER_TRANSCEIVER_COUNT / max(len(self), 1)

    def stratified_sample(self, fraction: float) -> "CellUniverse":
        """Deterministic stratified subsample of the universe.

        Strata are (provider_group, radio) pairs; within each stratum
        every ``round(1/fraction)``-th transceiver (in storage order) is
        kept.  No RNG involved: the same universe and fraction always
        select the same rows, which is what the scale-stratified
        differential tests key on.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        step = max(1, int(round(1.0 / fraction)))
        strata = (self.provider_group.astype(np.int64) * 64
                  + self.radio.astype(np.int64))
        picks = [np.flatnonzero(strata == s)[::step]
                 for s in np.unique(strata)]
        idx = np.sort(np.concatenate(picks))
        return self.subset(idx)

    def group_names(self) -> np.ndarray:
        """Provider group name per transceiver."""
        return np.array(PROVIDER_GROUPS)[self.provider_group]

    def sites(self) -> SiteTable:
        """The per-site table (computed once, cached)."""
        if self._sites is None:
            order = np.argsort(self.site_ids, kind="stable")
            sorted_ids = self.site_ids[order]
            new_site = np.ones(len(order), dtype=bool)
            new_site[1:] = sorted_ids[1:] != sorted_ids[:-1]
            starts = np.flatnonzero(new_site)
            first = order[starts]
            self._sites = SiteTable(ids=sorted_ids[starts], order=order,
                                    starts=starts, lons=self.lons[first],
                                    lats=self.lats[first])
        return self._sites

    def n_sites(self) -> int:
        return len(self.sites())

    # ------------------------------------------------------------------
    # OpenCelliD-style CSV I/O
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write in the OpenCelliD column layout."""
        radio_names = {int(r): r.name for r in RadioType}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radio", "mcc", "net", "area", "cell",
                             "lon", "lat"])
            for i in range(len(self)):
                writer.writerow([
                    radio_names[int(self.radio[i])],
                    int(self.mcc[i]), int(self.mnc[i]),
                    int(self.site_ids[i]), i,
                    f"{self.lons[i]:.6f}", f"{self.lats[i]:.6f}",
                ])

    @classmethod
    def from_csv(cls, path: str | Path) -> "CellUniverse":
        """Read an OpenCelliD-layout CSV (synthetic or real).

        A ``lon`` or ``lat`` that is not a finite number, or an
        ``mcc``, ``net`` or ``area`` that is not an integer, raises
        ``ValueError`` naming the file and line.
        """
        radio_codes = {r.name: int(r) for r in RadioType}
        rows = {"lon": [], "lat": [], "site": [], "mcc": [], "mnc": [],
                "radio": []}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)

            def number(convert, column, value):
                try:
                    return convert(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}, line {reader.line_num}: non-numeric "
                        f"{column}={value!r}") from None

            for rec in reader:
                lon = number(float, "lon", rec["lon"])
                lat = number(float, "lat", rec["lat"])
                if not (math.isfinite(lon) and math.isfinite(lat)):
                    raise ValueError(
                        f"{path}, line {reader.line_num}: non-finite "
                        f"coordinate lon={rec['lon']!r} "
                        f"lat={rec['lat']!r}")
                rows["lon"].append(lon)
                rows["lat"].append(lat)
                rows["site"].append(number(int, "area",
                                           rec.get("area") or 0))
                rows["mcc"].append(number(int, "mcc", rec["mcc"]))
                rows["mnc"].append(number(int, "net", rec["net"]))
                rows["radio"].append(radio_codes.get(rec["radio"], 0))
        mcc = np.array(rows["mcc"], dtype=np.int32)
        mnc = np.array(rows["mnc"], dtype=np.int32)
        groups = _groups_from_plmns(mcc, mnc)
        return cls(
            lons=np.array(rows["lon"]), lats=np.array(rows["lat"]),
            site_ids=np.array(rows["site"], dtype=np.int64),
            mcc=mcc, mnc=mnc, provider_group=groups,
            radio=np.array(rows["radio"], dtype=np.int8),
        )


def _groups_from_plmns(mcc: np.ndarray, mnc: np.ndarray) -> np.ndarray:
    """Resolve provider-group codes for PLMN arrays."""
    from .providers import resolve_provider
    lookup = {name: i for i, name in enumerate(PROVIDER_GROUPS)}
    out = np.empty(len(mcc), dtype=np.int8)
    cache: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(mcc.tolist(), mnc.tolist())):
        code = cache.get(key)
        if code is None:
            name = resolve_provider(*key)
            if name not in lookup and name != "Unknown":
                name = "Others"
            code = lookup.get(name, lookup["Others"])
            cache[key] = code
        out[i] = code
    return out


def _draw_coordinates(pop: PopulationSurface, n_transceivers: int,
                      seed: int, placement_exponent: float,
                      mean_per_site: float, jitter_m: float):
    """The first draws of every universe: site placement, per-site
    counts and location jitter.

    Returns the generator (for the draws that follow), the per-site
    counts and the transceiver coordinates.
    """
    if n_transceivers <= 0:
        raise ValueError("n_transceivers must be positive")
    if not mean_per_site >= 1.0:
        raise ValueError(f"mean_per_site must be >= 1, got {mean_per_site}")
    n_sites = max(1, int(round(n_transceivers / mean_per_site)))
    if not n_sites <= n_transceivers <= MAX_PER_SITE * n_sites:
        raise ValueError(
            f"{n_transceivers} transceivers do not fit {n_sites} sites "
            f"of 1-{MAX_PER_SITE} each (mean_per_site={mean_per_site})")
    rng = np.random.default_rng(seed)

    site_lons, site_lats = pop.sample_points(n_sites, rng,
                                             exponent=placement_exponent)

    # Transceivers per site: geometric-ish, clipped to [1, 12].
    per_site = np.clip(rng.geometric(1.0 / mean_per_site, size=n_sites),
                       1, MAX_PER_SITE)
    # Adjust total to exactly n_transceivers by trimming/padding.
    _fill_to_total(per_site, n_transceivers, rng)

    lons = np.repeat(site_lons, per_site)
    lats = np.repeat(site_lats, per_site)

    # OpenCelliD-style location noise per transceiver.
    jitter_deg = jitter_m / 111_000.0
    lons += rng.normal(0.0, jitter_deg, size=len(lons))
    lats += rng.normal(0.0, jitter_deg, size=len(lats))
    return rng, per_site, lons, lats


def generate_points(pop: PopulationSurface, n_transceivers: int,
                    seed: int = 11, placement_exponent: float = 0.85,
                    mean_per_site: float = 5.6,
                    jitter_m: float = 120.0) -> PointSet:
    """The coordinates :func:`generate_cells` draws for the same
    arguments, bit for bit, without drawing the categorical columns."""
    _, _, lons, lats = _draw_coordinates(
        pop, n_transceivers, seed, placement_exponent, mean_per_site,
        jitter_m)
    return PointSet(lons=lons, lats=lats)


def generate_cells(pop: PopulationSurface, n_transceivers: int,
                   seed: int = 11, placement_exponent: float = 0.85,
                   mean_per_site: float = 5.6,
                   jitter_m: float = 120.0,
                   urban_halfsat: float = 50_000.0) -> CellUniverse:
    """Generate the synthetic transceiver universe.

    ``placement_exponent`` and ``urban_halfsat`` must match the WHP model
    for its calibration to hold; :class:`repro.data.universe.SyntheticUS`
    wires them together.
    """
    rng, per_site, lons, lats = _draw_coordinates(
        pop, n_transceivers, seed, placement_exponent, mean_per_site,
        jitter_m)
    site_of = np.repeat(np.arange(len(per_site), dtype=np.int64),
                        per_site)

    # Urbanization at each site drives provider and technology biases.
    density = pop.density_at(lons, lats).astype(float)
    u = density / (density + urban_halfsat)
    ruralness = 1.0 - u

    groups = _draw_provider_groups(u, rng)
    mcc, mnc = _draw_plmns(groups, rng)
    radio = _draw_radio_types_by_code(groups, PROVIDER_GROUPS, ruralness,
                                      rng)

    return CellUniverse(lons=lons, lats=lats, site_ids=site_of,
                        mcc=mcc, mnc=mnc, provider_group=groups,
                        radio=radio)


def _fill_to_total(per_site: np.ndarray, total: int,
                   rng: np.random.Generator) -> None:
    """Pad or trim ``per_site`` in place until it sums to ``total``.

    Replays the scalar loop "draw ``i = rng.integers(n_sites)``; move
    site ``i`` one step toward the total unless it sits at its bound"
    in batches, with the same draws and the same final rng state.  The
    loop stops the moment the total is reached, and each draw moves it
    at most one step, so it makes at least ``need`` more draws: draw
    exactly ``need`` with one ``integers(n, size=need)`` call (the same
    stream as ``need`` scalar calls).  A site's ``k``-th draw of the
    batch is accepted iff ``k`` is below its room (``12 - count`` when
    padding, ``count - 1`` when trimming), so it takes
    ``min(draws, room)`` steps.  Needs ``n_sites <= total <= 12 *
    n_sites``, which leaves room somewhere while ``need > 0``.
    """
    need = total - int(per_site.sum())
    step = 1 if need > 0 else -1
    need = abs(need)
    while need:
        sites, draws = np.unique(rng.integers(len(per_site), size=need),
                                 return_counts=True)
        room = (MAX_PER_SITE - per_site[sites] if step > 0
                else per_site[sites] - 1)
        taken = np.minimum(draws, room)
        per_site[sites] += step * taken
        need -= int(taken.sum())


def _draw_provider_groups(u: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Provider-group draw with rural-affinity tilt.

    Group weight at a point: share * (1 + affinity * (1 - 2u)); u in
    [0, 1], so rural points (u→0) boost positive-affinity providers.
    """
    shares = provider_market_shares()
    base = np.array([shares[g] for g in PROVIDER_GROUPS])
    affinity = np.array([rural_affinity(g) for g in PROVIDER_GROUPS])
    weights = base[None, :] * (1.0 + affinity[None, :]
                               * (1.0 - 2.0 * u[:, None]))
    weights = np.clip(weights, 1e-9, None)
    weights /= weights.sum(axis=1, keepdims=True)
    cdf = np.cumsum(weights, axis=1)
    draws = (rng.random(len(u))[:, None] > cdf).sum(axis=1)
    return draws.astype(np.int8)


def _draw_plmns(groups: np.ndarray, rng: np.random.Generator) \
        -> tuple[np.ndarray, np.ndarray]:
    """Vectorized PLMN assignment per transceiver."""
    registry = provider_registry()
    mcc = np.empty(len(groups), dtype=np.int32)
    mnc = np.empty(len(groups), dtype=np.int32)
    for code, name in enumerate(PROVIDER_GROUPS):
        mask = groups == code
        count = int(mask.sum())
        if count == 0:
            continue
        if name == "Others":
            # Pool every regional carrier's PLMNs, uniform over carriers.
            plmns = [p for prov in registry.values()
                     if prov.name not in MAJOR_PROVIDERS
                     for p in prov.plmns]
            weights = np.full(len(plmns), 1.0 / len(plmns))
        else:
            plmns = list(registry[name].plmns)
            weights = 1.0 / (np.arange(len(plmns)) + 1.0)
            weights /= weights.sum()
        pick = rng.choice(len(plmns), size=count, p=weights)
        mcc[mask] = np.array([p.mcc for p in plmns], dtype=np.int32)[pick]
        mnc[mask] = np.array([p.mnc for p in plmns], dtype=np.int32)[pick]
    return mcc, mnc

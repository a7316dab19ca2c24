"""Cellular service providers and PLMN (MCC/MNC) resolution.

The paper identifies providers from OpenCelliD's MCC/MNC pairs and notes
the core difficulty: "the largest service providers do not have a single
MCC/MNC combination that identifies their entire network, but have many
hundreds that they have acquired through business expansion, mergers, or
acquisitions".  We reproduce that structure: each major carrier owns a
block of PLMN ids including legacy codes inherited from acquired networks
(e.g. AT&T absorbing Cingular/Centennial codes, T-Mobile absorbing
MetroPCS, Verizon absorbing Alltel), plus 46 regional carriers with a
couple of PLMNs each — matching the paper's footnote that 46 smaller
providers have at-risk infrastructure.

``resolve_provider`` is the cross-reference lookup the paper performs
against mcc-mnc.com / IFAST.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "MAJOR_PROVIDERS",
    "Provider",
    "Plmn",
    "provider_registry",
    "resolve_provider",
    "provider_market_shares",
    "rural_affinity",
]

#: Canonical provider groups in the paper's Table 2 order.
MAJOR_PROVIDERS = ("AT&T", "T-Mobile", "Sprint", "Verizon")


@dataclass(frozen=True)
class Plmn:
    """A Public Land Mobile Network identity."""

    mcc: int
    mnc: int
    network_name: str
    provider: str  # canonical group after mergers/acquisitions


@dataclass(frozen=True)
class Provider:
    """A canonical provider group."""

    name: str
    market_share: float      # share of the transceiver universe
    rural_affinity: float    # >0 = relatively more rural footprint
    plmns: tuple[Plmn, ...]


# Universe shares implied by the paper's Table 2 (count / percent):
# AT&T 101,930/5.44% -> 1.874M; T-Mobile 69,360/4.26% -> 1.628M;
# Sprint 32,417/3.90% -> 0.831M; Verizon 42,493/5.50% -> 0.773M;
# Others 15,369/3.90% -> 0.394M.  Normalized below.
_SHARES = {
    "AT&T": 0.3409,
    "T-Mobile": 0.2962,
    "Sprint": 0.1512,
    "Verizon": 0.1406,
}
_OTHERS_SHARE = 1.0 - sum(_SHARES.values())

# Relative rural footprint, tuned so the per-provider at-risk percentages
# reproduce Table 2's ordering (Verizon and AT&T most rural-exposed,
# Sprint the most urban).
_RURAL_AFFINITY = {
    "AT&T": 0.22,
    "T-Mobile": -0.08,
    "Sprint": -0.42,
    "Verizon": 0.28,
    "Others": -0.38,
}

# Major-carrier PLMN blocks: (mnc, network name) under MCC 310/311/312.
# These mix current ids with acquired legacy brands, mirroring the messy
# real registry.
_MAJOR_PLMNS: dict[str, list[tuple[int, int, str]]] = {
    "AT&T": [
        (310, 410, "AT&T Mobility"), (310, 280, "AT&T Mobility"),
        (310, 380, "AT&T Mobility"), (310, 170, "AT&T (Cingular)"),
        (310, 150, "AT&T (Cingular)"), (310, 680, "AT&T (Dobson)"),
        (310, 980, "AT&T (Centennial)"), (311, 180, "AT&T Mobility"),
        (310, 560, "AT&T (Dobson CellularOne)"), (310, 30, "AT&T (Centennial)"),
        (310, 70, "AT&T Mobility"), (310, 90, "AT&T (Edge Wireless)"),
        (310, 950, "AT&T (XIT Wireless)"), (311, 70, "AT&T (Aio)"),
        (310, 16, "AT&T (Cricket legacy)"), (310, 470, "AT&T FirstNet"),
    ],
    "T-Mobile": [
        (310, 260, "T-Mobile USA"), (310, 200, "T-Mobile (VoiceStream)"),
        (310, 210, "T-Mobile (VoiceStream)"), (310, 220, "T-Mobile"),
        (310, 230, "T-Mobile"), (310, 240, "T-Mobile"),
        (310, 250, "T-Mobile"), (310, 270, "T-Mobile (Powertel)"),
        (310, 310, "T-Mobile (Aerial)"), (310, 490, "T-Mobile (SunCom)"),
        (310, 660, "T-Mobile (MetroPCS)"), (310, 800, "T-Mobile"),
        (310, 160, "T-Mobile"), (310, 300, "T-Mobile (iWireless)"),
    ],
    "Sprint": [
        (310, 120, "Sprint PCS"), (311, 490, "Sprint"),
        (312, 530, "Sprint"), (311, 870, "Sprint (Boost)"),
        (311, 880, "Sprint (Virgin Mobile)"), (310, 53, "Sprint (Virgin)"),
        (316, 10, "Sprint (Nextel iDEN)"), (310, 940, "Sprint (iPCS)"),
    ],
    "Verizon": [
        (311, 480, "Verizon Wireless"), (310, 4, "Verizon"),
        (310, 5, "Verizon"), (310, 12, "Verizon"),
        (311, 110, "Verizon"), (311, 270, "Verizon"),
        (311, 390, "Verizon (Alltel)"), (310, 13, "Verizon (Alltel)"),
        (310, 590, "Verizon (Alltel legacy)"), (311, 489, "Verizon"),
    ],
}

# 46 regional/rural carriers (paper footnote 1).  Real-world-flavored
# names; each gets one or two PLMNs assigned programmatically.
_REGIONAL_NAMES = [
    "US Cellular", "C Spire", "Cellular One of NE Arizona", "GCI Wireless",
    "Appalachian Wireless", "Bluegrass Cellular", "Carolina West Wireless",
    "Cellcom", "Chariton Valley", "Chat Mobility", "Copper Valley Telecom",
    "Cordova Wireless", "Custer Telephone", "East Kentucky Network",
    "Epic Touch", "Farmers Mutual Telephone", "Five Star Wireless",
    "Golden West Cellular", "Illinois Valley Cellular", "Inland Cellular",
    "James Valley Wireless", "Kaplan Telephone", "Leaco Rural Telephone",
    "Limitless Mobile", "Matanuska Telephone", "Mid-Rivers Communications",
    "Mobi PCS", "Nemont Telephone", "Nex-Tech Wireless",
    "Northwest Missouri Cellular", "Panhandle Telephone", "Peoples Wireless",
    "Pine Belt Wireless", "Pine Cellular", "Pioneer Cellular",
    "Plateau Wireless", "Redzone Wireless", "Sagebrush Cellular",
    "SI Wireless", "Silver Star Wireless", "SRT Communications",
    "Thumb Cellular", "Triangle Communications", "Union Wireless",
    "United Wireless", "Viaero Wireless",
]


@lru_cache(maxsize=1)
def provider_registry() -> dict[str, Provider]:
    """Build the full provider registry (cached)."""
    registry: dict[str, Provider] = {}
    for name, rows in _MAJOR_PLMNS.items():
        plmns = tuple(Plmn(mcc, mnc, net, name) for mcc, mnc, net in rows)
        registry[name] = Provider(
            name=name,
            market_share=_SHARES[name],
            rural_affinity=_RURAL_AFFINITY[name],
            plmns=plmns,
        )
    # Regional carriers share the "Others" bucket evenly; PLMNs assigned
    # from a reserved MNC range so they never collide with the majors.
    regional_plmns: list[Plmn] = []
    per_share = _OTHERS_SHARE / len(_REGIONAL_NAMES)
    mnc = 700  # reserved range; no major carrier uses 700-799
    others: list[Provider] = []
    for name in _REGIONAL_NAMES:
        own = (Plmn(310, mnc, name, name), Plmn(311, mnc, name, name))
        mnc += 2
        regional_plmns.extend(own)
        others.append(Provider(name=name, market_share=per_share,
                               rural_affinity=_RURAL_AFFINITY["Others"],
                               plmns=own))
    for p in others:
        registry[p.name] = p
    return registry


@lru_cache(maxsize=1)
def _plmn_lookup() -> dict[tuple[int, int], Plmn]:
    table: dict[tuple[int, int], Plmn] = {}
    for provider in provider_registry().values():
        for plmn in provider.plmns:
            key = (plmn.mcc, plmn.mnc)
            if key in table:
                raise ValueError(f"duplicate PLMN in registry: {key}")
            table[key] = plmn
    return table


def resolve_provider(mcc: int, mnc: int) -> str:
    """Canonical provider group for an MCC/MNC pair.

    Unknown pairs resolve to ``"Unknown"`` — the paper cross-references
    several sources precisely because coverage of the id space is spotty.
    """
    plmn = _plmn_lookup().get((int(mcc), int(mnc)))
    if plmn is None:
        return "Unknown"
    return plmn.provider


def provider_market_shares() -> dict[str, float]:
    """Universe share per canonical group (majors + 'Others')."""
    shares = dict(_SHARES)
    shares["Others"] = _OTHERS_SHARE
    return shares


def rural_affinity(group: str) -> float:
    """Rural-footprint bias used by the transceiver sampler."""
    return _RURAL_AFFINITY.get(group, _RURAL_AFFINITY["Others"])

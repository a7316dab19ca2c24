"""Radio access technologies and the per-provider technology mix.

OpenCelliD records one of four radio types per transceiver (the paper's
Table 3): GSM, UMTS, CDMA and LTE.  The mix is strongly provider-dependent
— CDMA exists only on the Verizon/Sprint side, GSM/UMTS on the AT&T/
T-Mobile side — and LTE skews slightly rural because by the 2019 snapshot
LTE build-outs had the widest geographic footprint.  There were no 5G
transceivers in the snapshot (§3.5), which we reproduce by not modeling
5G at all (the enum reserves the value for forward compatibility).
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import IntEnum

import numpy as np

__all__ = ["RadioType", "RADIO_NAMES", "technology_mix", "draw_radio_types"]


class RadioType(IntEnum):
    """Radio access technology codes (stable, storage-friendly)."""

    GSM = 0
    UMTS = 1
    CDMA = 2
    LTE = 3
    NR5G = 4  # reserved; absent from the 2019 snapshot by construction


RADIO_NAMES = {r: r.name if r is not RadioType.NR5G else "5G"
               for r in RadioType}

# Base technology mix per provider group: (GSM, UMTS, CDMA, LTE).
_MIX = {
    "AT&T": (0.10, 0.34, 0.00, 0.56),
    "T-Mobile": (0.16, 0.34, 0.00, 0.50),
    "Sprint": (0.00, 0.08, 0.42, 0.50),
    "Verizon": (0.00, 0.02, 0.46, 0.52),
    "Others": (0.18, 0.22, 0.22, 0.38),
}

#: Additive rural tilt applied to the LTE share (taken from GSM/UMTS/CDMA
#: proportionally): LTE footprints reach farther into low-density areas.
_LTE_RURAL_TILT = 0.10


def technology_mix(group: str) -> tuple[float, float, float, float]:
    """Base (GSM, UMTS, CDMA, LTE) shares for a provider group."""
    return _MIX.get(group, _MIX["Others"])


def draw_radio_types(groups: np.ndarray, ruralness: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorized radio-type draw.

    Parameters
    ----------
    groups:
        Array of provider group names (``"AT&T"`` ... ``"Others"``).
    ruralness:
        Array in [0, 1]; 1 = deep wildland, 0 = dense urban core.  Shifts
        probability mass toward LTE in rural cells.
    rng:
        Seeded generator.

    Returns
    -------
    Array of :class:`RadioType` integer codes.
    """
    names, codes = np.unique(np.asarray(groups), return_inverse=True)
    return _draw_radio_types_by_code(codes, names.tolist(), ruralness, rng)


def _draw_radio_types_by_code(codes: np.ndarray, names: Sequence[str],
                              ruralness: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """:func:`draw_radio_types` for groups given as integer codes.

    ``names[code]`` is the provider group of each code.  Draws the same
    types from the same rng stream as :func:`draw_radio_types` on
    ``np.asarray(names)[codes]``, without comparing name strings.
    """
    codes = np.asarray(codes)
    ruralness = np.clip(np.asarray(ruralness, dtype=float), 0.0, 1.0)
    n = len(codes)
    out = np.empty(n, dtype=np.int8)
    u = rng.random(n)
    for code, group in enumerate(names):
        mask = codes == code
        count = int(mask.sum())
        if count == 0:
            continue
        base = np.array(technology_mix(group), dtype=float)
        probs = np.tile(base, (count, 1))
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

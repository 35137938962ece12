"""The van der Waals interaction model.

Two Rydberg atoms a distance d apart interact by the isotropic van der
Waals law V = C6/d^6 appropriate for s-orbital Rydberg states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C6_97S

__all__ = ["VdwModel", "vdw_interaction", "separation_for_interaction"]


@dataclass(frozen=True)
class VdwModel:
    """Isotropic van der Waals interaction, V(d) = c6/d^6.

    ``c6`` is C6/hbar in rad/us*um^6; the default is the Rb |97S_1/2>
    pair coefficient.
    """

    c6: float = C6_97S

    def __post_init__(self):
        if not (np.isfinite(self.c6) and self.c6 > 0):
            raise ValueError("c6 must be positive and finite")


def vdw_interaction(model: VdwModel, dist):
    """Interaction strength V/hbar in rad/us at a distance (or array of distances) in um."""
    dist = np.asarray(dist, dtype=float)
    if (dist <= 0).any():
        raise ValueError("distance must be positive")
    with np.errstate(divide="ignore", over="ignore"):  # inf or 0 at the float limits
        return model.c6 / dist**6


def separation_for_interaction(model: VdwModel, interaction: float) -> float:
    """Distance in um at which the pair interaction equals ``interaction``.

    Inverse of :func:`vdw_interaction`; the round trip is exact to
    floating-point accuracy.
    """
    if interaction <= 0:
        raise ValueError("interaction must be positive")
    return float((model.c6 / interaction) ** (1.0 / 6.0))

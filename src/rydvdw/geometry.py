"""Qubit geometry and the van der Waals interaction model.

Two trapped atoms sit near trap centers a distance ``trap_separation``
apart along x.  Their actual positions are the centers plus small
offsets, and the pair interaction follows the isotropic van der Waals
law V = C6/d^6 appropriate for s-orbital Rydberg states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C6_97S

__all__ = ["VdwModel", "QubitGeometry", "distance", "vdw_interaction", "separation_for_interaction"]


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


@dataclass(frozen=True)
class QubitGeometry:
    """Positions of the two qubits relative to their trap centers.

    The control trap sits at the origin and the target trap at
    (trap_separation, 0, 0); ``control_offset`` and ``target_offset``
    are the atoms' displacements from their own centers, in um.
    """

    trap_separation: float
    control_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    target_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.trap_separation) and self.trap_separation > 0):
            raise ValueError("trap_separation must be positive and finite")
        for offset in (self.control_offset, self.target_offset):
            if len(offset) != 3 or not all(np.isfinite(x) for x in offset):
                raise ValueError("offsets must be finite 3-vectors")


def distance(geometry: QubitGeometry) -> float:
    """Actual qubit-qubit distance in um."""
    xc, yc, zc = geometry.control_offset
    xt, yt, zt = geometry.target_offset
    return float(
        np.sqrt((xc - xt - geometry.trap_separation) ** 2 + (yc - yt) ** 2 + (zc - zt) ** 2)
    )


def vdw_interaction(model: VdwModel, dist):
    """Interaction strength V/hbar in rad/us at a distance (or array of distances) in um."""
    dist = np.asarray(dist, dtype=float)
    if (dist <= 0).any():
        raise ValueError("distance must be positive")
    return model.c6 / dist**6


def separation_for_interaction(model: VdwModel, interaction: float) -> float:
    """Distance in um at which the pair interaction equals ``interaction``.

    Inverse of :func:`vdw_interaction`; the round trip is exact to
    floating-point accuracy.
    """
    if interaction <= 0:
        raise ValueError("interaction must be positive")
    return float((model.c6 / interaction) ** (1.0 / 6.0))

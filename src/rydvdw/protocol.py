"""Pulse sequences for the weak-interaction controlled-phase and CNOT gates.

Both gates run in three effective steps.  A pi pulse moves the control
qubit's |1> into the Rydberg state, a double-length drive on the target
(with a sign flip of the Rabi frequency at its midpoint) accumulates a
conditional phase through detuned Rabi cycles, and a final pi pulse
returns the control qubit to the ground state.

The conditional phase comes from the pair interaction V acting as a
detuning on the target's |r1> <-> |rr> transition.  One full cycle of
the generalized Rabi oscillation, of duration t = 2*pi/obar with
obar = sqrt(omega^2 + V^2), returns the state with phase
-pi*(1 + V/obar) instead of the resonant -pi.  Two such cycles (one per
sign of the drive) give a controlled phase

    theta = -2*pi*V/sqrt(omega_target^2 + V^2)   (mod 2*pi),

which is tuned anywhere in (0, 2*pi) by choosing V, i.e. the qubit
separation.  The sign flip makes the single-atom contribution cancel
exactly, so the gate has no rotation error at the design interaction.

For theta = pi the same sequence with the target drive split equally
between |0> -> |r> and |1> -> |r> acts only on the bright superposition
(|0>+|1>)/sqrt(2) and yields a CNOT directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import CONTROL, TARGET, Level
from .geometry import VdwModel, separation_for_interaction

__all__ = [
    "Pulse",
    "GateProtocol",
    "ProtocolParams",
    "solve_interaction_for_phase",
    "phase_from_interaction",
    "build_cz_protocol",
    "build_cnot_protocol",
    "hyperfine_leakage_estimate",
    "rydberg_exposure",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Pulse:
    """One piecewise-constant drive segment.

    Parameters
    ----------
    actor : str
        Which atom is addressed, ``"control"`` or ``"target"``.
    couplings : tuple of (from_level, to_level, amplitude)
        Driven transitions with complex Rabi frequencies in rad/us.
    duration : float
        Segment length in us.
    """

    actor: str
    couplings: tuple[tuple[Level, Level, complex], ...]
    duration: float

    def __post_init__(self):
        if self.actor not in (CONTROL, TARGET):
            raise ValueError(f"unknown actor {self.actor!r}")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("pulse duration must be positive")
        for frm, to, amp in self.couplings:
            Level(frm), Level(to)  # raises on unknown levels
            if frm == to:
                raise ValueError("coupling must connect distinct levels")
            if not np.isfinite(amp):
                raise ValueError("coupling amplitude must be finite")

    def drives(self):
        return [(self.actor, frm, to, amp) for frm, to, amp in self.couplings]


@dataclass(frozen=True)
class GateProtocol:
    """An ordered pulse sequence plus its design parameters.

    ``kind`` is ``"cz"`` or ``"cnot"``; ``theta`` is the controlled
    phase the sequence is designed for, and ``nominal_interaction`` the
    pair interaction (rad/us) at which it is exact.
    """

    pulses: tuple[Pulse, ...]
    nominal_interaction: float
    kind: str
    theta: float

    def segments(self, interaction: float | None = None) -> list[tuple[np.ndarray, float]]:
        """Hamiltonian/duration pairs, optionally at an off-design interaction."""
        v = self.nominal_interaction if interaction is None else interaction
        return [
            (dynamics.build_hamiltonian(pulse.drives(), v), pulse.duration)
            for pulse in self.pulses
        ]

    @property
    def duration(self) -> float:
        return sum(pulse.duration for pulse in self.pulses)


@dataclass(frozen=True)
class ProtocolParams:
    """Solved operating point of a gate.

    Fields are mutually consistent: ``t_cycle`` is one full detuned
    Rabi cycle 2*pi/sqrt(omega_target^2 + interaction^2), ``t_gate``
    the full sequence duration, and ``separation`` the trap spacing at
    which the van der Waals interaction takes the design value.
    """

    omega_control: float
    omega_target: float
    interaction: float
    theta: float
    t_cycle: float
    t_gate: float
    separation: float

    @classmethod
    def solve(
        cls,
        theta: float,
        omega_control: float,
        omega_target: float,
        vdw: VdwModel | None = None,
    ) -> "ProtocolParams":
        """Solve the full parameter chain for a requested phase.

        Parameters
        ----------
        theta : float
            Controlled phase in (0, 2*pi).
        omega_control, omega_target : float
            Rabi frequencies in rad/us, both positive.
        vdw : VdwModel, optional
            Interaction model used to convert the solved interaction
            into a trap separation.
        """
        if omega_control <= 0 or omega_target <= 0:
            raise ValueError("Rabi frequencies must be positive")
        interaction = solve_interaction_for_phase(theta, omega_target)
        obar = np.hypot(omega_target, interaction)
        t_cycle = TWO_PI / obar
        t_gate = TWO_PI / omega_control + 2.0 * t_cycle
        separation = separation_for_interaction(vdw or VdwModel(), interaction)
        return cls(
            omega_control=omega_control,
            omega_target=omega_target,
            interaction=interaction,
            theta=theta,
            t_cycle=t_cycle,
            t_gate=t_gate,
            separation=separation,
        )


def solve_interaction_for_phase(theta: float, omega_target: float) -> float:
    """Interaction strength giving a controlled phase ``theta``.

    Inverts theta = 2*pi*(1 - V/sqrt(omega_target^2 + V^2)) on
    theta in (0, 2*pi).  With x = 1 - theta/(2*pi) the solution is
    V = omega_target * x / sqrt(1 - x^2); theta -> 0 needs V -> inf
    and is rejected.

    Parameters
    ----------
    theta : float
        Controlled phase in radians, strictly inside (0, 2*pi).
    omega_target : float
        Target-atom Rabi frequency in rad/us, positive.

    Returns
    -------
    float
        Interaction V/hbar in rad/us (0 at theta -> 2*pi).
    """
    if omega_target <= 0:
        raise ValueError("omega_target must be positive")
    if not 0.0 < theta < TWO_PI:
        raise ValueError(f"theta must lie strictly inside (0, 2*pi); got {theta!r}")
    x = 1.0 - theta / TWO_PI
    return omega_target * x / np.sqrt(1.0 - x * x)


def phase_from_interaction(interaction: float, omega_target: float) -> float:
    """Controlled phase in (0, 2*pi] produced by a given interaction.

    Forward form of :func:`solve_interaction_for_phase`: the per-cycle
    return phase is -pi*(1 + V/obar), two cycles give -2*pi*V/obar,
    reported modulo 2*pi as 2*pi*(1 - V/obar).
    """
    if interaction < 0 or omega_target <= 0:
        raise ValueError("expected interaction >= 0 and omega_target > 0")
    obar = np.hypot(omega_target, interaction)
    return TWO_PI * (1.0 - interaction / obar)


def build_cz_protocol(params: ProtocolParams) -> GateProtocol:
    """Four-segment controlled-phase sequence.

    Pulse 1 is a pi pulse on the control (+omega_control), pulse 2 is
    two detuned Rabi cycles on the target with amplitudes +/-
    omega_target and duration ``t_cycle`` each, and pulse 3 is a pi
    pulse on the control with the drive sign flipped, which undoes the
    excitation including its phase.
    """
    t_pi = np.pi / params.omega_control
    ryd = (Level.G1, Level.RYD)
    pulses = (
        Pulse(CONTROL, ((*ryd, complex(params.omega_control)),), t_pi),
        Pulse(TARGET, ((*ryd, complex(params.omega_target)),), params.t_cycle),
        Pulse(TARGET, ((*ryd, complex(-params.omega_target)),), params.t_cycle),
        Pulse(CONTROL, ((*ryd, complex(-params.omega_control)),), t_pi),
    )
    return GateProtocol(
        pulses=pulses,
        nominal_interaction=params.interaction,
        kind="cz",
        theta=params.theta,
    )


def build_cnot_protocol(params: ProtocolParams) -> GateProtocol:
    """Four-segment CNOT sequence; requires theta = pi.

    Pulses 1 and 3 are identical pi pulses on the control (no sign
    flip).  Pulse 2 drives both target transitions |0> -> |r> and
    |1> -> |r> with amplitudes +/- omega_target/sqrt(2), so only the
    bright state (|0>+|1>)/sqrt(2) couples, with full strength
    omega_target, while (|0>-|1>)/sqrt(2) is dark.
    """
    if abs(params.theta - np.pi) > 1e-9:
        raise ValueError("the CNOT sequence requires theta = pi (omega_target = sqrt(3)*V)")
    t_pi = np.pi / params.omega_control
    amp = params.omega_target / np.sqrt(2.0)
    control_pi = Pulse(
        CONTROL, ((Level.G1, Level.RYD, complex(params.omega_control)),), t_pi
    )

    def target_half(sign: float) -> Pulse:
        return Pulse(
            TARGET,
            (
                (Level.G0, Level.RYD, complex(sign * amp)),
                (Level.G1, Level.RYD, complex(sign * amp)),
            ),
            params.t_cycle,
        )

    return GateProtocol(
        pulses=(control_pi, target_half(+1.0), target_half(-1.0), control_pi),
        nominal_interaction=params.interaction,
        kind="cnot",
        theta=params.theta,
    )


def build_protocol(params: ProtocolParams, kind: str) -> GateProtocol:
    """Dispatch to the CZ or CNOT builder."""
    if kind == "cz":
        return build_cz_protocol(params)
    if kind == "cnot":
        return build_cnot_protocol(params)
    raise ValueError(f"unknown gate kind {kind!r}")


def hyperfine_leakage_estimate(omega_target: float, hyperfine_splitting: float) -> float:
    """Probability of off-resonantly exciting |0> through the qubit splitting.

    Static estimate 2*(omega/splitting)^2, valid for splitting >>
    omega; it is a bookkeeping number only and never enters the
    dynamics (around 1e-8 for typical parameters).
    """
    if hyperfine_splitting <= 0:
        raise ValueError("hyperfine splitting must be positive")
    ratio = omega_target / hyperfine_splitting
    return 2.0 * ratio * ratio


def rydberg_exposure(protocol: GateProtocol, interaction: float | None = None) -> float:
    """Average time spent in Rydberg states over the four gate inputs, in us.

    Every computational basis state is propagated through the sequence,
    its Rydberg excitations (|rr> twice) integrated exactly, and the four
    integrals averaged.  Multiplied by 1/lifetime this gives the Rydberg
    decay error.
    """
    _, exposure = dynamics.propagate(
        protocol.segments(interaction),
        np.eye(dynamics.DIM)[:, dynamics.COMPUTATIONAL],
        dynamics.RYDBERG_WEIGHT,
    )
    return float(exposure.mean())

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
    "GateProtocol",
    "solve_interaction_for_phase",
    "hyperfine_leakage_estimate",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GateProtocol:
    """A solved gate: its operating point, from which it builds its pulses.

    ``kind`` is ``"cz"`` or ``"cnot"`` and ``theta`` the controlled
    phase the sequence is designed for.  The other fields are mutually
    consistent: ``nominal_interaction`` is the pair interaction (rad/us)
    at which the gate is exact, ``t_cycle`` one full detuned Rabi cycle
    2*pi/sqrt(omega_target^2 + V^2), ``t_gate`` the full sequence
    duration, and ``separation`` the trap spacing (um) at which the van
    der Waals interaction takes the design value.
    """

    kind: str
    theta: float
    omega_control: float
    omega_target: float
    nominal_interaction: float
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
        kind: str = "cz",
    ) -> "GateProtocol":
        """Solve the full parameter chain for a requested phase.

        Parameters
        ----------
        theta : float
            Controlled phase in (0, 2*pi); the CNOT requires theta = pi.
        omega_control, omega_target : float
            Rabi frequencies in rad/us, both positive and finite.
        vdw : VdwModel, optional
            Interaction model used to convert the solved interaction
            into a trap separation.
        kind : str
            ``"cz"`` or ``"cnot"``.

        Raises ValueError where a solved interaction, duration or
        separation is not positive and finite: theta -> 0 needs an
        infinite interaction, and a tiny or huge drive overflows a
        duration or the separation.
        """
        if kind not in ("cz", "cnot"):
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "cnot" and abs(theta - np.pi) > 1e-9:
            raise ValueError("the CNOT sequence requires theta = pi (omega_target = sqrt(3)*V)")
        if not (0 < omega_control < np.inf and 0 < omega_target < np.inf):
            raise ValueError(
                f"Rabi frequencies {omega_control!r} and {omega_target!r} rad/us must be positive and finite"
            )

        def positive(name, value):
            if not 0 < value < np.inf:
                raise ValueError(
                    f"theta {theta!r} rad with Rabi frequencies {omega_control!r} and {omega_target!r} "
                    f"rad/us give {name} {float(value)!r}; each must be positive and finite"
                )
            return value

        with np.errstate(divide="ignore", over="ignore"):
            interaction = positive("interaction", solve_interaction_for_phase(theta, omega_target))
            t_cycle = positive("t_cycle", TWO_PI / np.hypot(omega_target, interaction))
            t_gate = positive("t_gate", TWO_PI / omega_control + 2.0 * t_cycle)
            separation = positive("separation", separation_for_interaction(vdw or VdwModel(), interaction))
        return cls(
            kind=kind,
            theta=theta,
            omega_control=omega_control,
            omega_target=omega_target,
            nominal_interaction=interaction,
            t_cycle=t_cycle,
            t_gate=t_gate,
            separation=separation,
        )

    def segments(self, interaction=None) -> list[tuple[np.ndarray, float]]:
        """The four (Hamiltonian, duration) pairs of the sequence.

        ``interaction`` (rad/us) defaults to the design value; the
        Hamiltonians are what :func:`rydvdw.gates.simulate` walks, and
        :func:`rydvdw.gates.gate_fidelity` is their closed form.
        Pulse 1 is a pi pulse on the control (+omega_control) and pulses 2
        and 3 are one detuned Rabi cycle each on the target, of duration
        ``t_cycle`` and opposite drive signs.  For CZ the target drive is
        +/- omega_target on |1> -> |r>, and pulse 4 is the control pi pulse with the drive
        sign flipped, which undoes the excitation including its phase.
        For CNOT pulse 4 repeats pulse 1, and the target drive is
        +/- omega_target/sqrt(2) on both |0> -> |r> and |1> -> |r>, so
        only the bright state (|0>+|1>)/sqrt(2) couples, with full
        strength omega_target, while (|0>-|1>)/sqrt(2) is dark.
        """
        v = self.nominal_interaction if interaction is None else interaction
        t_pi = np.pi / self.omega_control
        if self.kind == "cnot":
            lower, amp = (Level.G0, Level.G1), self.omega_target / np.sqrt(2.0)
            back = self.omega_control
        else:
            lower, amp, back = (Level.G1,), self.omega_target, -self.omega_control
        pulses = [
            ([(CONTROL, Level.G1, Level.RYD, complex(self.omega_control))], t_pi),
            ([(TARGET, level, Level.RYD, complex(amp)) for level in lower], self.t_cycle),
            ([(TARGET, level, Level.RYD, complex(-amp)) for level in lower], self.t_cycle),
            ([(CONTROL, Level.G1, Level.RYD, complex(back))], t_pi),
        ]
        return [(dynamics.build_hamiltonian(drives, v), duration) for drives, duration in pulses]


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

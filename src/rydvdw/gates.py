"""Gate simulation and average-fidelity scoring.

The simulated gate is summarized by the 4x4 matrix of computational
basis amplitudes after the full pulse sequence, and its decay cost by
the time its inputs spend in Rydberg states; one walk of the 9-level
dynamics gives both at any interaction.  Population left in Rydberg
levels makes the matrix sub-unitary; that leakage is kept and scored by
the average-fidelity formula of Pedersen, Moller and Molmer, Phys. Lett.
A 367, 47 (2007), which is valid for non-unitary actuals.  The fidelity
at many interactions (a table, a separation sweep) and the exposure at
the design interaction need no walk: both are closed forms of resonant
and detuned Rabi cycles.
"""

from __future__ import annotations

import numpy as np

from . import dynamics
from .protocol import GateProtocol

__all__ = [
    "design_exposure", "gate_fidelity", "ideal_cz", "ideal_cnot", "ideal_gate", "pedersen_fidelity", "simulate",
]


def ideal_cz(theta: float) -> np.ndarray:
    """Target controlled-phase matrix diag(1, 1, 1, e^{i*theta})."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)


def ideal_cnot() -> np.ndarray:
    """Target CNOT matrix (|10> <-> |11| swap)."""
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = gate[1, 1] = gate[2, 3] = gate[3, 2] = 1.0
    return gate


def ideal_gate(protocol: GateProtocol) -> np.ndarray:
    """The target matrix a protocol was designed for."""
    return ideal_cnot() if protocol.kind == "cnot" else ideal_cz(protocol.theta)


#: The four computational basis states, as columns.
_INPUTS = np.eye(dynamics.DIM)[:, dynamics.COMPUTATIONAL]


def simulate(protocol: GateProtocol, interaction=None):
    """Walk the sequence once for the gate matrix and the Rydberg exposure.

    One :func:`rydvdw.dynamics.propagate` walks each computational basis state
    through the 9-dimensional dynamics; column j of the gate holds the
    computational amplitudes of the evolved state j.  The walk always integrates
    each input's Rydberg excitations (|rr> twice) exactly, and reports their
    mean over the four inputs; at the design interaction that is
    :func:`design_exposure`, which prices the decay error.

    Parameters
    ----------
    protocol : GateProtocol
        Pulse sequence to simulate.
    interaction : float, optional
        Pair interaction in rad/us; defaults to the protocol's design
        value.  Pulse durations are never rescaled, so an off-design value
        produces exactly the error a fluctuating atom spacing would.

    Returns
    -------
    gate : ndarray
        Complex 4x4 matrix with its |00> element made real and positive;
        sub-unitary if population leaked out of the qubits.
    exposure : float
        Time in Rydberg states averaged over the four inputs, in us.
    """
    states, integral = dynamics.propagate(protocol.segments(interaction), _INPUTS)
    gate = states[dynamics.COMPUTATIONAL]
    anchor = gate[0, 0]
    if abs(anchor) > 1e-12:
        gate = gate * (abs(anchor) / anchor)
    return gate, float(integral.mean())


def pedersen_fidelity(actual: np.ndarray, ideal: np.ndarray) -> float:
    """Average gate fidelity [|Tr(U^d A)|^2 + Tr(U^d A A^d U)] / 20.

    ``ideal`` (U) must be unitary; ``actual`` (A) may be any 4x4
    contraction.  Both traces are elementwise sums, no matrix product:
    sum(conj(U) A), and, as U is unitary, Tr(A A^d) = sum |A|^2.  Equals
    1 exactly when A matches U up to a global phase, and is insensitive
    to that phase.
    """
    actual = np.asarray(actual, dtype=complex)
    ideal = np.asarray(ideal, dtype=complex)
    if actual.shape != (4, 4) or ideal.shape != (4, 4):
        raise ValueError("gate matrices must be 4x4")
    trace = (ideal.conj() * actual).sum()
    return float((abs(trace) ** 2 + (np.abs(actual) ** 2).sum()) / 20.0)


def gate_fidelity(protocol: GateProtocol, interactions) -> np.ndarray:
    """Average fidelity of the simulated gate to the ideal one at each
    interaction (rad/us), in closed form; an array of their shape.

    Only the |11> input feels the interaction: the sequence returns |00>,
    |01> and |10> exactly, and |11> with the amplitude k of two detuned Rabi
    cycles on {|r1>, |rr>}, one per drive sign.  So Pedersen's formula gives
    F = (12 + 6 Re(k e^{-i theta}) + 2 |k|^2) / 20, the CNOT's at theta = pi
    (it is CZ(pi) in the target's bright/dark basis).  With w the target
    drive, t = ``t_cycle``, obar = hypot(w, V) and h = obar t/2,

        k = e^{i (obar - V) t} + e^{-i V t} (2 sin^2 h (w/obar)^2 - i sin 2h (obar - V)/obar),

    where obar - V = w^2/(obar + V) is formed without cancellation, so the
    far-below-L phase e^{-i V t}, rounded as V t grows, only multiplies
    terms of order (w/V)^2.  It agrees with :func:`pedersen_fidelity` of
    :func:`simulate`'s gate to a few ulps.
    """
    v = np.asarray(interactions, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("interaction must be finite")
    w, t = protocol.omega_target, protocol.t_cycle
    theta = np.pi if protocol.kind == "cnot" else protocol.theta
    obar = np.hypot(w, v)
    half = 0.5 * obar * t
    lag = w * (w / (obar + v))  # w / (obar + V) <= 1: no overflow at a huge drive
    kept = np.exp(1j * lag * t) + np.exp(-1j * v * t) * (
        2.0 * (np.sin(half) * w / obar) ** 2 - 1j * np.sin(2.0 * half) * lag / obar
    )
    return (12.0 + 6.0 * np.real(kept * np.exp(-1j * theta)) + 2.0 * np.abs(kept) ** 2) / 20.0


def design_exposure(protocol: GateProtocol) -> float:
    """Time in Rydberg states (|rr> twice) averaged over the four computational
    inputs at the design interaction, in us, in closed form: :func:`simulate`'s
    exposure without the walk.

    With t = ``t_cycle``, w the target drive, obar = hypot(w, V0) and t_pi the
    control pi pulse, |00> never leaves the ground states; |01> spends
    t - sin(w t)/w in two resonant partial cycles, the second retracing the first;
    |10> spends t_pi + 2t with the control excited; and |11> adds to that
    (w/obar)^2 t, the |rr> occupation of two full detuned cycles.  For the CNOT
    the bright halves of each input pair sum to the same total.  So

        E = (2 t_pi + 5 t + (w/obar)^2 t - sin(w t)/w) / 4,

    that is 1/(4 f_c) + B(theta)/f_t with B = (5q + q^3 - sin(2 pi q)/(2 pi))/4,
    q = w/obar, and the drives f in MHz.
    """
    w, t = protocol.omega_target, protocol.t_cycle
    share = (w / np.hypot(w, protocol.nominal_interaction)) ** 2
    return float((2.0 * np.pi / protocol.omega_control + (5.0 + share) * t - np.sin(w * t) / w) / 4.0)

"""Gate simulation and average-fidelity scoring.

The simulated gate is summarized by the 4x4 matrix of computational
basis amplitudes after the full pulse sequence, and its decay cost by
the time its inputs spend in Rydberg states; one walk gives both.
Population left in Rydberg levels makes the matrix sub-unitary; that
leakage is kept and scored by the average-fidelity formula of Pedersen,
Moller and Molmer, Phys. Lett. A 367, 47 (2007), which is valid for
non-unitary actuals.
"""

from __future__ import annotations

import numpy as np

from . import dynamics
from .protocol import GateProtocol

__all__ = ["gate_fidelity", "ideal_cz", "ideal_cnot", "ideal_gate", "pedersen_fidelity", "simulate"]


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

    Each computational basis state is propagated through the full
    9-dimensional dynamics; column j of the gate holds the computational
    amplitudes of the evolved state j.  The same walk integrates each
    input's Rydberg excitations (|rr> twice) exactly; their mean over the
    four inputs, times 1/lifetime, is the Rydberg decay error.

    Parameters
    ----------
    protocol : GateProtocol
        Pulse sequence to simulate.
    interaction : float or array_like, optional
        Pair interaction in rad/us, or an array of them simulated as one
        batch; defaults to the protocol's design value.  Pulse durations
        are never rescaled, so an off-design value produces exactly the
        error a fluctuating atom spacing would.

    Returns
    -------
    gate : ndarray
        Complex matrices of shape ``interaction.shape + (4, 4)``, (4, 4)
        for a scalar interaction, each with its |00> element made real
        and positive; sub-unitary if population leaked out of the qubits.
    exposure : float or ndarray
        Time in Rydberg states averaged over the four inputs, in us: a
        float for a scalar interaction, else an array of its shape.
    """
    states, integral = dynamics.propagate(protocol.segments(interaction), _INPUTS, dynamics.RYDBERG_WEIGHT)
    gate = states[..., dynamics.COMPUTATIONAL, :]
    anchor = gate[..., 0, 0]
    magnitude = np.abs(anchor)
    phase = np.divide(magnitude, anchor, out=np.ones_like(anchor), where=magnitude > 1e-12)
    exposure = integral.mean(axis=-1)
    return gate * phase[..., None, None], float(exposure) if exposure.ndim == 0 else exposure


def pedersen_fidelity(actual: np.ndarray, ideal: np.ndarray):
    """Average gate fidelity [|Tr(U^d A)|^2 + Tr(U^d A A^d U)] / 20.

    ``ideal`` (U) must be unitary; ``actual`` (A) may be any 4x4
    contraction, or a stack of them with shape (..., 4, 4).  Both traces
    are elementwise sums, no matrix product: sum(conj(U) A), and, as U
    is unitary, Tr(A A^d) = sum |A|^2.  Equals 1 exactly when A matches
    U up to a global phase, and is insensitive to that phase.  Returns a
    float for one matrix, else an array of the stack's shape.
    """
    actual = np.asarray(actual, dtype=complex)
    ideal = np.asarray(ideal, dtype=complex)
    if actual.shape[-2:] != (4, 4) or ideal.shape != (4, 4):
        raise ValueError("gate matrices must be 4x4")
    trace = (ideal.conj() * actual).sum(axis=(-2, -1))
    purity = (np.abs(actual) ** 2).sum(axis=(-2, -1))
    fidelity = (np.abs(trace) ** 2 + purity) / 20.0
    return float(fidelity) if fidelity.ndim == 0 else fidelity


#: Most interactions propagated as one stack; a reference-config fidelity
#: table is one stack.
MAX_STACK = 4001


def gate_fidelity(protocol: GateProtocol, interactions) -> np.ndarray:
    """Fidelity of the simulated gate to the ideal one at each interaction.

    The interactions (rad/us) are propagated in stacks of at most
    ``MAX_STACK``, so memory does not grow with their number; the walk
    skips :func:`simulate`'s exposure integral, which doubles its cost,
    and its phase fix, which :func:`pedersen_fidelity` cannot see: the
    raw computational block is scored.  Returns an array of their shape.
    """
    interactions = np.asarray(interactions, dtype=float)
    flat = interactions.ravel()
    ideal = ideal_gate(protocol)
    fidelity = np.empty(flat.size)
    for start in range(0, flat.size, MAX_STACK):
        states, _ = dynamics.propagate(protocol.segments(flat[start : start + MAX_STACK]), _INPUTS)
        fidelity[start : start + MAX_STACK] = pedersen_fidelity(states[..., dynamics.COMPUTATIONAL, :], ideal)
    return fidelity.reshape(interactions.shape)

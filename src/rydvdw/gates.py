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


#: Most interactions propagated as one stack.  A stack's 9x9 complex
#: Hamiltonians take 166 KB per pulse, about one ``noise.BLOCK`` temporary,
#: so a walk's temporaries stay in cache and its peak memory does not grow
#: with the number of interactions; each interaction is propagated on its
#: own matrix, so the stack size moves no value.  Measured on a 2-core Xeon
#: at 64, 128, 192 and 256: the peak RSS of a cold reference-config
#: ``fidelity`` run is 45.6, 46.2, 47.0 and 47.8 MB (53.8 as one stack of
#: 4001).  128 is the smallest whose 805-knot table builds no slower than as
#: one stack (median 24.1 against 26.6 ms, faster in 228 of 290
#: alternating pairs); at 64, 27.2 ms, faster in only 119 of 290.
MAX_STACK = 128


def _walk(protocol: GateProtocol, interactions: np.ndarray, weight=None):
    """Propagate the four computational inputs at each of the flat
    ``interactions``, ``MAX_STACK`` at a time.  Yields, per stack, its slice
    of ``interactions``, the raw computational blocks, shape (stack, 4, 4),
    and the integral of ``weight`` per input, shape (stack, 4), or None
    without ``weight`` (see :func:`rydvdw.dynamics.propagate`)."""
    for start in range(0, interactions.size, MAX_STACK):
        stack = slice(start, start + MAX_STACK)
        states, integral = dynamics.propagate(protocol.segments(interactions[stack]), _INPUTS, weight)
        yield stack, states[..., dynamics.COMPUTATIONAL, :], integral


def simulate(protocol: GateProtocol, interaction=None):
    """Walk the sequence once for the gate matrix and the Rydberg exposure.

    Each computational basis state is propagated through the full
    9-dimensional dynamics; column j of the gate holds the computational
    amplitudes of the evolved state j.  The same walk integrates each
    input's Rydberg excitations (|rr> twice) exactly; their mean over the
    four inputs, times 1/lifetime, is the Rydberg decay error.  An array of
    interactions is walked in stacks of at most ``MAX_STACK``, so beyond
    its outputs memory does not grow with their number.

    Parameters
    ----------
    protocol : GateProtocol
        Pulse sequence to simulate.
    interaction : float or array_like, optional
        Pair interaction in rad/us, or an array of them; defaults to the
        protocol's design value.  Pulse durations are never rescaled, so an
        off-design value produces exactly the error a fluctuating atom
        spacing would.

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
    interactions = np.asarray(protocol.nominal_interaction if interaction is None else interaction, dtype=float)
    gate = np.empty((interactions.size, 4, 4), dtype=complex)
    exposure = np.empty(interactions.size)
    for stack, block, integral in _walk(protocol, interactions.ravel(), dynamics.RYDBERG_WEIGHT):
        anchor = block[:, 0, 0]
        magnitude = np.abs(anchor)
        phase = np.divide(magnitude, anchor, out=np.ones_like(anchor), where=magnitude > 1e-12)
        gate[stack] = block * phase[:, None, None]
        exposure[stack] = integral.mean(axis=-1)
    if interactions.ndim == 0:
        return gate[0], float(exposure[0])
    return gate.reshape(interactions.shape + (4, 4)), exposure.reshape(interactions.shape)


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


def gate_fidelity(protocol: GateProtocol, interactions) -> np.ndarray:
    """Fidelity of the simulated gate to the ideal one at each interaction.

    The interactions (rad/us) are walked as in :func:`simulate`, in stacks
    of at most ``MAX_STACK``, but without its exposure integral, which
    doubles the cost of a walk, and its phase fix, which
    :func:`pedersen_fidelity` cannot see: the raw computational block is
    scored.  Returns an array of their shape.
    """
    interactions = np.asarray(interactions, dtype=float)
    ideal = ideal_gate(protocol)
    fidelity = np.empty(interactions.size)
    for stack, block, _ in _walk(protocol, interactions.ravel()):
        fidelity[stack] = pedersen_fidelity(block, ideal)
    return fidelity.reshape(interactions.shape)

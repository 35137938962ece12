"""State-vector dynamics of two driven three-level atoms.

Each atom carries the qubit states |0>, |1> and one Rydberg state |r>.
The pair Hilbert space is 9-dimensional with basis index
``3*control + target`` and level ordering (|0>, |1>, |r>).  All
Hamiltonians are piecewise constant, so propagators are evaluated
exactly through a Hermitian eigendecomposition rather than by ODE
stepping; at this matrix size that is both faster and free of
step-size error.

Angular frequencies are in rad/us, durations in us (hbar = 1).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError

__all__ = [
    "Level",
    "DIM",
    "CONTROL",
    "TARGET",
    "basis_index",
    "basis_state",
    "build_hamiltonian",
    "exponentiate",
    "rydberg_exposure_integral",
]


class Level(IntEnum):
    """Single-atom levels: the two qubit states and the Rydberg state."""

    G0 = 0
    G1 = 1
    RYD = 2


#: Dimension of the two-atom Hilbert space.
DIM = 9

#: Actor labels for drives and pulses.
CONTROL = "control"
TARGET = "target"

#: Number of Rydberg excitations carried by each two-atom basis state;
#: used to weight populations in the decay-exposure integral.
RYDBERG_WEIGHT = np.array(
    [(c == Level.RYD) + (t == Level.RYD) for c in Level for t in Level],
    dtype=float,
)


def basis_index(control: int, target: int) -> int:
    """Flat index of |control, target> in the two-atom basis."""
    return 3 * int(control) + int(target)


def basis_state(control: int, target: int) -> np.ndarray:
    """Unit amplitude vector for the product state |control, target>."""
    state = np.zeros(DIM, dtype=complex)
    state[basis_index(control, target)] = 1.0
    return state


def build_hamiltonian(
    drives: Iterable[tuple[str, int, int, complex]],
    interaction=0.0,
) -> np.ndarray:
    """Assemble the two-atom Hamiltonian for one pulse segment.

    Each drive contributes (amp/2)|to><from| + H.c. on the addressed
    atom (tensored with identity on the other), and the Rydberg pair
    interaction adds ``interaction`` on |rr><rr|.  Only that entry
    depends on the interaction, so a whole stack of interactions shares
    one drive part.

    Parameters
    ----------
    drives : iterable of (actor, from_level, to_level, amplitude)
        ``actor`` is ``"control"`` or ``"target"``; levels are
        :class:`Level` values; ``amplitude`` is a complex Rabi
        frequency in rad/us.
    interaction : float or array_like
        Pair-state energy shift V/hbar in rad/us, or an array of them.
        Positive for the repulsive van der Waals case; a negative value
        flips the sign of the shift.

    Returns
    -------
    ndarray
        Hermitian complex matrices of shape ``interaction.shape + (9, 9)``;
        (9, 9) for a scalar interaction.
    """
    interaction = np.asarray(interaction, dtype=float)
    if not np.isfinite(interaction).all():
        raise ValueError("interaction must be finite")
    single = {
        CONTROL: np.zeros((3, 3), dtype=complex),
        TARGET: np.zeros((3, 3), dtype=complex),
    }
    for actor, from_level, to_level, amplitude in drives:
        if actor not in single:
            raise ValueError(f"unknown actor {actor!r}; expected 'control' or 'target'")
        if not np.isfinite(amplitude):
            raise ValueError(f"drive amplitude {amplitude!r} is not finite")
        frm, to = Level(from_level), Level(to_level)
        if frm == to:
            raise ValueError("drive must couple two distinct levels")
        single[actor][to, frm] += amplitude / 2.0
    eye = np.eye(3)
    drive = np.kron(single[CONTROL] + single[CONTROL].conj().T, eye)
    drive += np.kron(eye, single[TARGET] + single[TARGET].conj().T)
    hamiltonian = np.broadcast_to(drive, interaction.shape + drive.shape).copy()
    rr = basis_index(Level.RYD, Level.RYD)
    hamiltonian[..., rr, rr] += interaction
    return hamiltonian


def _check_hermitian(hamiltonian: np.ndarray, tol: float = 1e-12) -> None:
    asymmetry = np.abs(hamiltonian - hamiltonian.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(hamiltonian).max(axis=(-2, -1)))
    if (asymmetry > tol * scale).any():
        raise NumericError(f"Hamiltonian is not Hermitian (asymmetry {asymmetry.max():.2e})")


def _eigh(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, with a failure raised as NumericError."""
    _check_hermitian(hamiltonian)
    try:
        return np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def exponentiate(hamiltonian: np.ndarray, duration: float) -> np.ndarray:
    """Exact propagator exp(-i H t) of a constant Hamiltonian.

    Parameters
    ----------
    hamiltonian : ndarray
        Hermitian matrix in rad/us, or a stack of them with shape
        (..., n, n); a stack is diagonalized in one batched call.
    duration : float
        Evolution time in us, >= 0.

    Returns
    -------
    ndarray
        Unitary matrices of the same shape.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    energies, modes = _eigh(hamiltonian)
    phases = np.exp(-1j * energies * duration)
    return (modes * phases[..., None, :]) @ modes.conj().swapaxes(-1, -2)


def rydberg_exposure_integral(
    segments: Sequence[tuple[np.ndarray, float]],
    initial_states: Sequence[np.ndarray],
) -> float:
    """Time-integrated Rydberg occupation, averaged over the four gate inputs.

    For every initial state the expected number of Rydberg excitations
    (single excitations count once, |rr> twice) is integrated exactly
    over the whole pulse sequence.  In the eigenbasis H = sum_m E_m |m><m|
    of a constant segment of length T, with amplitudes C = M^dag psi and
    weight matrix W = M^dag diag(RYDBERG_WEIGHT) M, the segment adds

        Re sum_mn conj(C_m) C_n W_mn T exp(i w T/2) sinc(w T/2),
        w = E_m - E_n,

    (Van Loan, IEEE TAC 23, 395, 1978).  The sum is divided by 4: the
    input average runs over the four qubit basis states and callers pass
    only the states that evolve.

    Parameters
    ----------
    segments : sequence of (hamiltonian, duration)
        Piecewise-constant pulse sequence.
    initial_states : sequence of ndarray
        Input states to accumulate (typically |01>, |10>, |11>).

    Returns
    -------
    float
        Exposure time in us.
    """
    states = np.stack([np.asarray(state, dtype=complex) for state in initial_states], axis=1)
    total = 0.0
    for hamiltonian, duration in segments:
        energies, modes = _eigh(hamiltonian)
        coeffs = modes.conj().T @ states
        weight = (modes.conj().T * RYDBERG_WEIGHT) @ modes
        half = 0.5 * duration * (energies[:, None] - energies[None, :])
        kernel = duration * np.exp(1j * half) * np.sinc(half / np.pi)
        total += float(np.sum(coeffs.conj() * ((weight * kernel) @ coeffs)).real)
        states = modes @ (np.exp(-1j * energies * duration)[:, None] * coeffs)
    return total / 4.0

"""State-vector dynamics of two driven three-level atoms.

Each atom carries the qubit states |0>, |1> and one Rydberg state |r>.
The pair Hilbert space is 9-dimensional with basis index
``3*control + target`` and level ordering (|0>, |1>, |r>).  All
Hamiltonians are piecewise constant, so :func:`propagate` moves states
exactly through one Hermitian eigendecomposition per segment rather
than by ODE stepping; at this matrix size that is both faster and free
of step-size error.  The eigendecomposition is cyclic complex Jacobi
rotation, not LAPACK: each gate segment is a direct sum of small blocks
(2x2 for CZ, 3x3 for CNOT) and a rotation never couples two blocks, so
each block's eigenphases carry errors on that block's own scale, not on
the interaction's (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
1204, 1992).  The gate matrix and the Rydberg exposure both come from
that one walk (:func:`rydvdw.gates.simulate`), at any interaction.

Angular frequencies are in rad/us, durations in us (hbar = 1).
"""

from __future__ import annotations

import math
import sys
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
    "build_hamiltonian",
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


#: Flat indices of |00>, |01>, |10>, |11>: the gate's computational inputs.
COMPUTATIONAL = [basis_index(c, t) for c in (Level.G0, Level.G1) for t in (Level.G0, Level.G1)]


def build_hamiltonian(
    drives: Iterable[tuple[str, int, int, complex]],
    interaction: float = 0.0,
) -> np.ndarray:
    """Assemble the two-atom Hamiltonian for one pulse segment.

    Each drive contributes (amp/2)|to><from| + H.c. on the addressed
    atom (tensored with identity on the other), and the Rydberg pair
    interaction adds ``interaction`` on |rr><rr|.

    Parameters
    ----------
    drives : iterable of (actor, from_level, to_level, amplitude)
        ``actor`` is ``"control"`` or ``"target"``; levels are
        :class:`Level` values; ``amplitude`` is a complex Rabi
        frequency in rad/us.
    interaction : float
        Pair-state energy shift V/hbar in rad/us.  Positive for the
        repulsive van der Waals case; a negative value flips the sign of
        the shift.  An array is refused.

    Returns
    -------
    ndarray
        Hermitian complex (9, 9) matrix.
    """
    if np.ndim(interaction) != 0 or not np.isfinite(interaction):
        raise ValueError(f"interaction must be one finite float; got {interaction!r}")
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
    hamiltonian = np.kron(single[CONTROL] + single[CONTROL].conj().T, eye)
    hamiltonian += np.kron(eye, single[TARGET] + single[TARGET].conj().T)
    rr = basis_index(Level.RYD, Level.RYD)
    hamiltonian[rr, rr] += interaction
    return hamiltonian


#: Most cyclic Jacobi sweeps one eigendecomposition may take, the last rotating nothing.
_SWEEPS = 32


def _jacobi_eigh(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies E and unitary modes M of a Hermitian matrix, H = M diag(E) M^dag, by cyclic
    complex Jacobi rotations.

    Each sweep visits the upper off-diagonals (p, q) in turn and zeroes every one that is not
    negligible, |a_pq| > eps (|a_pp| + |a_qq|)/2, by the rotation of its 2x2 block: with
    g = a_pq/|a_pq|, theta = (a_qq - a_pp)/(2|a_pq|), t = sign(theta)/(|theta| + hypot(theta, 1)),
    c = 1/hypot(t, 1) and s = t c, the rotation is [[c, s], [-s conj(g), c conj(g)]] in the
    (p, q) plane and the new diagonal a_pp - t|a_pq|, a_qq + t|a_pq|.  The scalars are Python
    floats formed by ``math.hypot``, so nothing squares an entry.  It stops after a sweep that
    rotates nothing, and raises :class:`NumericError` if :data:`_SWEEPS` sweeps do not reach one.
    """
    a = np.array(hamiltonian, dtype=complex)
    modes = np.eye(len(a), dtype=complex)
    eps = sys.float_info.epsilon
    diagonal = a.diagonal().real.tolist()
    for _ in range(_SWEEPS):
        rotated = False
        for p in range(len(a) - 1):
            row = a[p].tolist()
            for q in range(p + 1, len(a)):
                apq = row[q]
                size = abs(apq)
                app, aqq = diagonal[p], diagonal[q]
                if size <= eps * (abs(app) + abs(aqq)) / 2:
                    continue
                rotated = True
                theta = (aqq - app) / (2.0 * size)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                back = (apq / size).conjugate()
                for m in (a, modes):
                    column = m[:, p].copy()
                    m[:, p] = c * column - (s * back) * m[:, q]
                    m[:, q] = s * column + (c * back) * m[:, q]
                # a Hermitian A: its rows are the conjugated columns, and the block is diagonal
                a[p] = a[:, p].conj()
                a[q] = a[:, q].conj()
                a[p, q] = a[q, p] = 0.0
                diagonal[p], diagonal[q] = app - t * size, aqq + t * size
                a[p, p], a[q, q] = diagonal[p], diagonal[q]
                row = a[p].tolist()
        if not rotated:
            return np.array(diagonal), modes
    raise NumericError(f"eigendecomposition failed: no convergence in {_SWEEPS} Jacobi sweeps")


def propagate(segments: Sequence[tuple[np.ndarray, float]], states):
    """Advance state columns through a piecewise-constant pulse sequence and
    integrate their Rydberg exposure; the step of :func:`rydvdw.gates.simulate`.

    Each segment (H, t) is diagonalized once by Jacobi rotations, H = M diag(E) M^dag, and
    with amplitudes C = M^dag psi the states move as M exp(-i E t) C;
    no propagator matrix is formed.  A block of H far from the others in energy keeps its
    eigenphases to its own relative precision, so the walk holds the closed forms of
    :mod:`rydvdw.gates` at any interaction up to ``config.MAX_OVERRIDE_MHZ``.  ``segments`` are as
    :meth:`rydvdw.protocol.GateProtocol.segments` builds them, Hermitian
    by construction and not re-checked: (9, 9) matrices in rad/us with
    finite durations >= 0 in us; ``states`` holds the columns of a (9, k)
    array.  Any other shape is refused.

    The same E, M and C give the exact time integral of the expected
    number of Rydberg excitations, :data:`RYDBERG_WEIGHT`: with
    W = M^dag diag(RYDBERG_WEIGHT) M a segment adds (Van Loan, IEEE TAC
    23, 395, 1978)

        Re sum_mn conj(C_m) C_n W_mn t exp(i w t/2) sinc(w t/2),
        w = E_m - E_n.

    Returns the evolved (9, k) columns and each column's exposure in us, shape (k,).
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or len(states) != DIM:
        raise ValueError(f"states must be a ({DIM}, k) array; got shape {states.shape}")
    integral = 0.0
    for hamiltonian, duration in segments:
        if np.shape(hamiltonian) != (DIM, DIM):
            raise ValueError(f"a segment needs one ({DIM}, {DIM}) matrix; got shape {np.shape(hamiltonian)}")
        if not 0 <= duration < np.inf:
            raise ValueError(f"duration must be nonnegative and finite; got {duration!r}")
        energies, modes = _jacobi_eigh(hamiltonian)
        adjoint = modes.conj().T
        coeffs = adjoint @ states
        observable = (adjoint * RYDBERG_WEIGHT) @ modes
        half = 0.5 * duration * (energies[:, None] - energies[None, :])
        kernel = duration * np.exp(1j * half) * np.sinc(half / np.pi)
        integral = integral + (coeffs.conj() * ((observable * kernel) @ coeffs)).sum(axis=0).real
        states = modes @ (np.exp(-1j * energies * duration)[:, None] * coeffs)
    return states, integral

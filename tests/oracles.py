"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the package: propagation is done
by fixed-step RK4 instead of eigendecomposition, populations are
integrated by the trapezoid rule on the RK4 trajectory, and the
two-level return amplitude, and with it the phase-gate fidelity, comes
from the closed-form SU(2) rotation algebra, the gate matrix is rebuilt
from the pulse recipe with hand-assembled Hamiltonians and scipy's Pade
matrix exponential, the exact exposure comes from Van Loan's
block-matrix exponential on the same Hamiltonians, the grid average is
the literal 6-D sum, and the table interpolant is scipy's not-a-knot
``CubicSpline``, the spread of a truncated Gaussian is its closed-form
variance, and the truncated Monte Carlo draw re-scans every offset of a
block after each redraw.
"""

import math

import numpy as np
import scipy.linalg
from scipy.interpolate import CubicSpline


def rk4_propagator(hamiltonian, duration, step=1e-4):
    """Fixed-step RK4 integration of dU/dt = -i H U from the identity."""
    dim = hamiltonian.shape[0]
    n_steps = max(1, int(np.ceil(duration / step)))
    h = duration / n_steps
    gen = -1j * hamiltonian
    unitary = np.eye(dim, dtype=complex)
    for _ in range(n_steps):
        k1 = gen @ unitary
        k2 = gen @ (unitary + 0.5 * h * k1)
        k3 = gen @ (unitary + 0.5 * h * k2)
        k4 = gen @ (unitary + h * k3)
        unitary = unitary + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return unitary


def rk4_rydberg_exposure(segments, initial_states, weights, step=2e-4):
    """Trapezoid integral of the weighted population along RK4 trajectories.

    ``weights`` assigns each basis state its Rydberg-excitation count.
    Divides by 4 to match the four-input average convention.
    """
    total = 0.0
    for state0 in initial_states:
        state = np.asarray(state0, dtype=complex)
        for hamiltonian, duration in segments:
            if duration == 0.0:
                continue
            n_steps = max(2, int(np.ceil(duration / step)))
            h = duration / n_steps
            gen = -1j * hamiltonian
            populations = np.empty(n_steps + 1)
            populations[0] = weights @ np.abs(state) ** 2
            for i in range(n_steps):
                k1 = gen @ state
                k2 = gen @ (state + 0.5 * h * k1)
                k3 = gen @ (state + 0.5 * h * k2)
                k4 = gen @ (state + h * k3)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                populations[i + 1] = weights @ np.abs(state) ** 2
            total += float(np.trapezoid(populations, dx=h))
    return total / 4.0


def detuned_cycle_amplitude(omega, interaction, duration):
    """Return amplitude <a| exp(-i H t) |a> for H = [[0, w/2], [w/2, V]].

    From the SU(2) decomposition H = V/2 + (w/2) sx - (V/2) sz: with
    obar = sqrt(w^2 + V^2), the diagonal element is
    exp(-i V t/2) * (cos(obar t/2) - i sin(obar t/2) * (-V/obar)).
    """
    obar = np.hypot(omega, interaction)
    half = 0.5 * obar * duration
    nz = -interaction / obar
    return np.exp(-0.5j * interaction * duration) * (np.cos(half) - 1j * np.sin(half) * nz)


def cz_diagonal_entry(omega, nominal_interaction, actual_interaction):
    """Closed-form |11> -> |11> amplitude of the phase-gate sequence.

    Pulse 2 is two back-to-back cycles of duration 2*pi/obar(nominal),
    with drive signs + then -, acting on the {|r1>, |rr>} block at the
    actual interaction; the control pi pulses contribute i * (-i) = 1.

    This grouping forms exp(-iVt) and the rotation by obar t separately,
    and their phases cancel to obar - V.  Where obar and V differ only by
    rounding (u = d/L near 0.02-0.1), that cancellation loses up to about
    1e-8 in the fidelity for theta != pi (9.8e-9 at theta 5, against a
    60-digit evaluation).  At theta = pi the fidelity reads the real part
    of an amplitude that is nearly real there, so the phase error drops
    out to first order.  Every test that uses it, or
    :func:`phase_gate_fidelity`, stays at theta = pi or at u >= 0.25,
    where the loss is below 5e-13.
    """
    t_cycle = 2.0 * np.pi / np.hypot(omega, nominal_interaction)
    obar = np.hypot(omega, actual_interaction)
    half = 0.5 * obar * t_cycle
    c, s = np.cos(half), np.sin(half)
    nx = omega / obar
    nz = -actual_interaction / obar
    # (0,0) element of U(-w) U(+w) on the block, each U a rotation by
    # angle obar*t about (+-nx, 0, nz) times the phase exp(-iVt/2)
    element = (1.0 - 2.0 * s * s * nz * nz) - 2.0j * c * s * nz
    return np.exp(-1j * actual_interaction * t_cycle) * element


def phase_gate_fidelity(theta, omega_target, interaction):
    """Closed-form average fidelity of the CZ(theta) sequence at an actual
    interaction against diag(1, 1, 1, e^{i theta}); the CNOT's is the same at
    theta = pi, as it is CZ(pi) in the target's bright/dark basis.

    The |00>, |01>, |10> entries are exactly 1 and |11> keeps the amplitude k of
    :func:`cz_diagonal_entry`, so Pedersen's formula with
    M = diag(1, 1, 1, k e^{-i theta}) gives (Tr M M^dag + |Tr M|^2) / 20
    = (12 + 6 Re(k e^{-i theta}) + 2 |k|^2) / 20.  The design interaction
    inverts theta = 2 pi (1 - V/sqrt(w_t^2 + V^2)).  It inherits the
    grouping loss of :func:`cz_diagonal_entry` (about 1e-8 for theta != pi
    at u near 0.02-0.1).
    """
    x = 1.0 - theta / (2.0 * np.pi)
    design = omega_target * x / np.sqrt(1.0 - x * x)
    kept = cz_diagonal_entry(omega_target, design, interaction)
    return (12.0 + 6.0 * np.real(kept * np.exp(-1j * theta)) + 2.0 * np.abs(kept) ** 2) / 20.0


def barred_basis_change():
    """Two-qubit change of basis I (x) B with B columns (|0>-|1>, |0>+|1>)/sqrt(2)."""
    b = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    return np.kron(np.eye(2), b)


def _pulse_sequence(kind, theta, omega_control, omega_target, interaction):
    """(Hamiltonian, duration) pairs of the CZ(theta) or CNOT sequence at
    one actual interaction, hand-built in the basis 3*control + target
    with levels (|0>, |1>, |r>).

    The design interaction follows from theta = 2*pi*(1 - V/sqrt(w_t^2 + V^2));
    pulses are: control pi pulse on |1> <-> |r>, two target cycles of
    length 2*pi/sqrt(w_t^2 + V^2) with drive signs + then -, and a
    control pi pulse (sign-flipped for CZ, repeated for CNOT).  The CNOT
    target pulses drive |0> <-> |r> and |1> <-> |r>, each at w_t/sqrt(2).
    """
    x = 1.0 - theta / (2.0 * np.pi)
    design = omega_target * x / np.sqrt(1.0 - x * x)
    t_pi = np.pi / omega_control
    t_cycle = 2.0 * np.pi / np.hypot(omega_target, design)

    def single(couplings):
        h = np.zeros((3, 3), dtype=complex)
        for level, amp in couplings:  # each couples |level> <-> |r>
            h[2, level] += amp / 2.0
            h[level, 2] += np.conj(amp) / 2.0
        return h

    def pulse(control=(), target=()):
        h = np.kron(single(control), np.eye(3)) + np.kron(np.eye(3), single(target))
        h[8, 8] += interaction
        return h

    if kind == "cz":
        targets = [[(1, sign * omega_target)] for sign in (1.0, -1.0)]
        last = -omega_control
    else:
        amp = omega_target / np.sqrt(2.0)
        targets = [[(0, sign * amp), (1, sign * amp)] for sign in (1.0, -1.0)]
        last = omega_control
    return [
        (pulse(control=[(1, omega_control)]), t_pi),
        (pulse(target=targets[0]), t_cycle),
        (pulse(target=targets[1]), t_cycle),
        (pulse(control=[(1, last)]), t_pi),
    ]


def expm_gate_matrix(kind, theta, omega_control, omega_target, interaction):
    """4x4 computational block of the CZ(theta) or CNOT sequence at one
    actual interaction, by ``scipy.linalg.expm`` of hand-built Hamiltonians.

    The global phase is fixed by making the |00> -> |00> entry real and
    positive.
    """
    total = np.eye(9, dtype=complex)
    for h, duration in _pulse_sequence(kind, theta, omega_control, omega_target, interaction):
        total = scipy.linalg.expm(-1j * h * duration) @ total
    qubits = [0, 1, 3, 4]
    gate = total[np.ix_(qubits, qubits)]
    return gate * (abs(gate[0, 0]) / gate[0, 0])


def van_loan_exposure(kind, theta, omega_control, omega_target, interaction):
    """Rydberg exposure (us) of the CZ(theta) or CNOT sequence, exact per segment.

    For a segment of length T, the top-right block F of
    expm(T [[-iH, W], [0, -iH]]) is U(T) times the integral of
    U(s)^dag W U(s) over [0, T] (Van Loan 1978), with U(s) = exp(-iHs)
    and W the diagonal Rydberg-excitation count.  The inputs are |01>,
    |10>, |11> (and |00> for CNOT); the sum is divided by 4.
    """
    counts = np.array([(c == 2) + (t == 2) for c in range(3) for t in range(3)], dtype=float)
    inputs = [0, 1, 3, 4] if kind == "cnot" else [1, 3, 4]
    states = np.eye(9, dtype=complex)[:, inputs]
    total = 0.0
    for h, duration in _pulse_sequence(kind, theta, omega_control, omega_target, interaction):
        block = np.zeros((18, 18), dtype=complex)
        block[:9, :9] = block[9:, 9:] = -1j * h * duration
        block[:9, 9:] = np.diag(counts) * duration
        full = scipy.linalg.expm(block)
        unitary = full[:9, :9]
        integral = unitary.conj().T @ full[:9, 9:]
        total += float(np.einsum("ik,ij,jk->", states.conj(), integral, states).real)
        states = unitary @ states
    return total / 4.0


def grid_mean_full(table, delta, sigma_perp, sigma_z, separation):
    """Literal sum of ``table(distance)`` over every 6-tuple of the product grid.

    Each coordinate runs over {-1.5, ..., 1.5} in steps of ``delta``
    (in units of its own sigma) with Gaussian weights normalized per
    coordinate; x and y use ``sigma_perp``, z uses ``sigma_z``, and the
    traps sit ``separation`` apart along x.  Only sensible on coarse grids.
    """
    nodes = np.linspace(-1.5, 1.5, round(3.0 / delta) + 1)
    w1 = np.exp(-0.5 * nodes**2)
    w1 /= w1.sum()
    xs = nodes * sigma_perp
    zs = nodes * sigma_z
    m = len(nodes)
    w3 = w1[:, None, None] * w1[None, :, None] * w1[None, None, :]
    acc = 0.0
    wsum = 0.0
    # outer loop over the control coordinates, inner block over the target's
    for ic, xc in enumerate(xs):
        for jc, yc in enumerate(xs):
            dx = xc - xs[:, None, None] - separation
            dy = yc - xs[None, :, None]
            for kc, zc in enumerate(zs):
                dz = zc - zs[None, None, :]
                dist = np.sqrt(dx**2 + dy**2 + dz**2)
                fid = np.asarray(table(dist.ravel())).reshape((m, m, m))
                weight = w1[ic] * w1[jc] * w1[kc] * w3
                acc += float(np.sum(weight * fid))
                wsum += float(np.sum(weight))
    return acc / wsum


def cubic_spline(distances, values):
    """scipy's not-a-knot cubic spline through the table's knots; NaN
    outside ``[distances[0], distances[-1]]``."""
    return CubicSpline(distances, values, extrapolate=False)


def truncated_normal_variance(a):
    """Variance of a standard normal truncated to [-a, a]:
    1 - 2 a phi(a) / (2 Phi(a) - 1), where 2 Phi(a) - 1 = erf(a / sqrt(2))."""
    density = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return 1.0 - 2.0 * a * density / math.erf(a / math.sqrt(2.0))


def truncated_distances_rescan(sigma_perp, sigma_z, separation, n_samples, seed, truncate, block):
    """Truncated Monte Carlo distances drawn ``block`` samples at a time: six
    standard normal offsets per sample, every one beyond ``truncate`` redrawn
    (the whole block re-scanned after each pass) until none is, then the
    distance of the three scaled differences from the trap ``separation``."""
    rng = np.random.default_rng(seed)
    scale = np.array([sigma_perp, sigma_perp, sigma_z])[:, None]
    out = []
    for start in range(0, n_samples, block):
        offsets = rng.standard_normal((6, min(block, n_samples - start)))
        bad = np.abs(offsets) > truncate
        while bad.any():
            offsets[bad] = rng.standard_normal(int(bad.sum()))
            bad = np.abs(offsets) > truncate
        diff = (offsets[:3] - offsets[3:]) * scale
        diff[0] -= separation
        out.append(np.sqrt(np.sum(diff**2, axis=0)))
    return np.concatenate(out)

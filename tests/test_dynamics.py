import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydvdw import MHZ
from rydvdw.dynamics import (
    DIM,
    RYDBERG_WEIGHT,
    Level,
    basis_index,
    build_hamiltonian,
    propagate,
)
from rydvdw.errors import NumericError

from .helpers import basis_state, evolve, exponentiate
from .oracles import detuned_cycle_amplitude, rk4_propagator

OMEGA = 0.8 * MHZ
V = OMEGA / np.sqrt(3.0)
OBAR = np.hypot(OMEGA, V)


def drive_strategy():
    level_pairs = st.sampled_from([(0, 2), (1, 2), (0, 1), (2, 1), (2, 0)])
    amp = st.complex_numbers(min_magnitude=0.0, max_magnitude=50.0, allow_nan=False, allow_infinity=False)
    one = st.tuples(st.sampled_from(["control", "target"]), level_pairs, amp).map(
        lambda d: (d[0], d[1][0], d[1][1], d[2])
    )
    return st.lists(one, max_size=4)


class TestBuildHamiltonian:
    def test_no_drives_no_interaction_is_zero(self):
        assert np.array_equal(build_hamiltonian([]), np.zeros((DIM, DIM)))

    def test_single_control_drive_structure(self):
        h = build_hamiltonian([("control", Level.G1, Level.RYD, OMEGA)])
        expected = np.zeros((DIM, DIM), dtype=complex)
        for target in range(3):
            i, j = basis_index(Level.RYD, target), basis_index(Level.G1, target)
            expected[i, j] = expected[j, i] = OMEGA / 2.0
        assert np.allclose(h, expected, atol=1e-15)
        # exactly three coupled pairs, nothing else
        assert np.count_nonzero(h) == 6

    def test_driven_block_eigenvalues(self):
        h = build_hamiltonian([("target", Level.G1, Level.RYD, OMEGA)], interaction=V)
        idx = [basis_index(Level.RYD, Level.G1), basis_index(Level.RYD, Level.RYD)]
        block = h[np.ix_(idx, idx)]
        # oracle: direct eigensolve of the independently assembled 2x2
        oracle = np.linalg.eigvalsh(np.array([[0.0, OMEGA / 2], [OMEGA / 2, V]]))
        assert np.allclose(np.linalg.eigvalsh(block), oracle, atol=1e-14)
        assert np.allclose(sorted(oracle), [(V - OBAR) / 2, (V + OBAR) / 2], atol=1e-12)
        assert np.isclose(OBAR, 2 * np.pi * 0.9237604307, atol=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_hamiltonian([("control", Level.G1, Level.RYD, np.inf)])
        with pytest.raises(ValueError):
            build_hamiltonian([("control", Level.G1, Level.G1, 1.0)])
        with pytest.raises(ValueError):
            build_hamiltonian([("elsewhere", Level.G1, Level.RYD, 1.0)])
        with pytest.raises(ValueError):
            build_hamiltonian([("control", 3, Level.RYD, 1.0)])
        with pytest.raises(ValueError):
            build_hamiltonian([], interaction=np.nan)

    @given(drives=drive_strategy(), interaction=st.floats(-50, 50))
    @settings(max_examples=50)
    def test_always_hermitian(self, drives, interaction):
        h = build_hamiltonian(drives, interaction)
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_interaction_stack_shares_the_drive_part(self):
        drives = [("control", Level.G1, Level.RYD, OMEGA), ("target", Level.G0, Level.RYD, 0.3j)]
        interactions = np.array([[0.0, V], [-V, 40.0], [1e-3, 7.0]])
        stack = build_hamiltonian(drives, interactions)
        assert stack.shape == (3, 2, DIM, DIM)
        for index in np.ndindex(interactions.shape):
            assert np.array_equal(stack[index], build_hamiltonian(drives, interactions[index]))
        with pytest.raises(ValueError):
            build_hamiltonian(drives, np.array([V, np.inf]))


class TestExponentiate:
    def test_zero_hamiltonian_gives_identity(self):
        u = exponentiate(np.zeros((DIM, DIM)), 3.7)
        assert np.allclose(u, np.eye(DIM), atol=1e-15)

    def test_resonant_pi_pulse_maps(self):
        h = build_hamiltonian([("control", Level.G1, Level.RYD, OMEGA)])
        u = exponentiate(h, np.pi / OMEGA)
        out = u @ basis_state(Level.G1, Level.G0)
        assert np.allclose(out, -1j * basis_state(Level.RYD, Level.G0), atol=1e-12)
        out = u @ basis_state(Level.G1, Level.G1)
        assert np.allclose(out, -1j * basis_state(Level.RYD, Level.G1), atol=1e-12)

    def test_detuned_full_cycle_return_phase(self):
        h = build_hamiltonian([("target", Level.G1, Level.RYD, OMEGA)], interaction=V)
        u = exponentiate(h, 2 * np.pi / OBAR)
        amp = u[basis_index(2, 1), basis_index(2, 1)]
        assert abs(abs(amp) - 1.0) < 1e-12
        assert np.isclose(amp, np.exp(-1j * np.pi * (1 + V / OBAR)), atol=1e-12)

    @given(drives=drive_strategy(), interaction=st.floats(0, 50), t=st.floats(0, 10))
    @settings(max_examples=50)
    def test_unitarity(self, drives, interaction, t):
        u = exponentiate(build_hamiltonian(drives, interaction), t)
        assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-10

    def test_matches_rk4_reference(self):
        h = build_hamiltonian([("target", Level.G1, Level.RYD, OMEGA)], interaction=V)
        t = 2 * np.pi / OBAR
        assert np.abs(exponentiate(h, t) - rk4_propagator(h, t)).max() < 1e-6

    def test_rejects_negative_duration_and_nonhermitian(self):
        for duration in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                exponentiate(np.zeros((DIM, DIM)), duration)
        bad = np.zeros((DIM, DIM), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NumericError):
            exponentiate(bad, 1.0)
        # one bad matrix fails the whole stack, whatever the others' scale
        stack = build_hamiltonian([("target", 1, 2, 1e3)], np.array([0.0, 0.0]))
        stack[1] = bad
        with pytest.raises(NumericError):
            exponentiate(stack, 1.0)

    def test_stack_matches_single_calls(self):
        drives = [("target", Level.G1, Level.RYD, OMEGA), ("control", Level.G0, Level.RYD, -OMEGA)]
        interactions = np.geomspace(V / 100, 100 * V, 7)
        stack = exponentiate(build_hamiltonian(drives, interactions), 0.83)
        assert stack.shape == (7, DIM, DIM)
        for v, u in zip(interactions, stack):
            assert np.abs(u - exponentiate(build_hamiltonian(drives, v), 0.83)).max() < 1e-13
            assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


class TestEvolve:
    def test_identity_segments_keep_state(self):
        psi = basis_state(Level.G1, Level.G1)
        assert np.array_equal(evolve(psi, [np.eye(DIM)] * 3), psi)

    def test_adjoint_roundtrip(self):
        h = build_hamiltonian([("control", Level.G1, Level.RYD, OMEGA)], interaction=V)
        u = exponentiate(h, 0.37)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
        psi /= np.linalg.norm(psi)
        assert np.abs(evolve(psi, [u, u.conj().T]) - psi).max() < 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            evolve(basis_state(0, 0), [])

    def test_full_cz_sequence_flips_11(self):
        t_pi = np.pi / OMEGA
        t_cycle = 2 * np.pi / OBAR
        us = [
            exponentiate(build_hamiltonian([("control", 1, 2, OMEGA)], V), t_pi),
            exponentiate(build_hamiltonian([("target", 1, 2, OMEGA)], V), t_cycle),
            exponentiate(build_hamiltonian([("target", 1, 2, -OMEGA)], V), t_cycle),
            exponentiate(build_hamiltonian([("control", 1, 2, -OMEGA)], V), t_pi),
        ]
        out = evolve(basis_state(Level.G1, Level.G1), us)
        assert np.allclose(out, -basis_state(Level.G1, Level.G1), atol=1e-9)


class TestPhaseLawInvariant:
    @given(
        omega=st.floats(0.5, 30.0),
        interaction=st.floats(0.01, 30.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_detuned_cycle_phase_law(self, omega, interaction, sign):
        v = sign * interaction
        obar = np.hypot(omega, v)
        h = build_hamiltonian([("target", Level.G1, Level.RYD, omega)], interaction=v)
        u = exponentiate(h, 2 * np.pi / obar)
        amp = u[basis_index(2, 1), basis_index(2, 1)]
        assert abs(abs(amp) - 1.0) < 1e-10
        expected = -np.pi * (1.0 + v / obar)
        delta = (np.angle(amp) - expected + np.pi) % (2 * np.pi) - np.pi
        assert abs(delta) < 1e-9
        # closed-form SU(2) oracle agrees
        assert np.isclose(amp, detuned_cycle_amplitude(omega, v, 2 * np.pi / obar), atol=1e-10)

    @given(omega=st.floats(0.5, 30.0), t=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_sign_flip_cancellation(self, omega, t):
        plus = exponentiate(build_hamiltonian([("target", 1, 2, omega)], V), t)
        minus = exponentiate(build_hamiltonian([("target", 1, 2, -omega)], V), t)
        prod = minus @ plus
        for state in (basis_state(Level.G0, Level.G1), basis_state(Level.G0, Level.RYD)):
            assert np.abs(prod @ state - state).max() < 1e-12


def cz_segments(hamiltonian_interaction=V):
    """The CZ pulses designed for V, with the Hamiltonians at another interaction or a stack."""
    t_pi, t_cycle = np.pi / OMEGA, 2 * np.pi / OBAR
    return [
        (build_hamiltonian([("control", 1, 2, OMEGA)], hamiltonian_interaction), t_pi),
        (build_hamiltonian([("target", 1, 2, OMEGA)], hamiltonian_interaction), t_cycle),
        (build_hamiltonian([("target", 1, 2, -OMEGA)], hamiltonian_interaction), t_cycle),
        (build_hamiltonian([("control", 1, 2, -OMEGA)], hamiltonian_interaction), t_pi),
    ]


def driven_inputs():
    """|01>, |10> and |11> as the columns of one array."""
    return np.stack([basis_state(0, 1), basis_state(1, 0), basis_state(1, 1)], axis=1)


class TestRydbergExposure:
    def test_population_counts_excitations(self):
        # the exposure weights: |rr> counts twice, one Rydberg atom once
        assert RYDBERG_WEIGHT[basis_index(2, 2)] == 2.0
        assert RYDBERG_WEIGHT[basis_index(2, 1)] == 1.0
        assert RYDBERG_WEIGHT[basis_index(0, 0)] == 0.0

    def test_zero_durations_integrate_to_zero(self):
        segments = [(h, 0.0) for h, _ in cz_segments()]
        _, integral = propagate(segments, driven_inputs(), RYDBERG_WEIGHT)
        assert integral.sum() / 4.0 == 0.0

    def test_nominal_value_against_closed_form(self):
        # exact piecewise integral of the populations: pi pulses give
        # pi/(2*w) each, a fully Rydberg control adds the pulse-2 span,
        # the |01> cycles add t0 - sin(w t0)/w, the |rr> admixture
        # (3/4) t0
        t_cycle = 2 * np.pi / OBAR
        closed = 0.25 * (
            2 * np.pi / OMEGA + 5.75 * t_cycle - np.sin(OMEGA * t_cycle) / OMEGA
        )
        _, integral = propagate(cz_segments(), driven_inputs(), RYDBERG_WEIGHT)
        value = integral.sum() / 4.0
        assert abs(value - closed) < 1e-9
        assert abs(value - 1.91) < 0.02


class TestPropagate:
    def test_states_match_the_product_of_propagators(self):
        states, integral = propagate(cz_segments(), driven_inputs())
        assert integral is None
        unitaries = [exponentiate(h, t) for h, t in cz_segments()]
        for column, state in zip(states.T, driven_inputs().T):
            assert np.abs(column - evolve(state, unitaries)).max() < 1e-13

    def test_stack_matches_single_calls(self):
        interactions = np.geomspace(V / 100, 100 * V, 6).reshape(2, 3)
        states, integral = propagate(cz_segments(interactions), driven_inputs(), RYDBERG_WEIGHT)
        assert states.shape == (2, 3, DIM, 3) and integral.shape == (2, 3, 3)
        for index in np.ndindex(interactions.shape):
            single = propagate(cz_segments(interactions[index]), driven_inputs(), RYDBERG_WEIGHT)
            assert np.abs(states[index] - single[0]).max() < 1e-13
            assert np.abs(integral[index] - single[1]).max() < 1e-13

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from rydvdw import MHZ
from rydvdw.dynamics import CONTROL, TARGET, Level, build_hamiltonian
from rydvdw.gates import ideal_cnot, pedersen_fidelity, simulate
from rydvdw.protocol import (
    GateProtocol,
    hyperfine_leakage_estimate,
    solve_interaction_for_phase,
)

from .helpers import basis_state, evolve, exponentiate
from .oracles import barred_basis_change, rk4_rydberg_exposure, van_loan_exposure

OMEGA = 0.8 * MHZ


class TestSolveInteraction:
    def test_pi_gives_sqrt3_ratio(self):
        v = solve_interaction_for_phase(np.pi, OMEGA)
        assert np.isclose(v, OMEGA / np.sqrt(3.0), rtol=1e-14)
        assert np.isclose(v / MHZ, 0.4619, atol=5e-5)

    @given(omega=st.floats(0.1, 100.0))
    @settings(max_examples=30)
    def test_pi_ratio_is_omega_independent(self, omega):
        assert np.isclose(solve_interaction_for_phase(np.pi, omega) / omega, 1 / np.sqrt(3), rtol=1e-14)

    def test_three_pi_over_two_against_root_finder(self):
        theta = 1.5 * np.pi
        v = solve_interaction_for_phase(theta, OMEGA)
        assert np.isclose(v, OMEGA / np.sqrt(15.0), rtol=1e-12)
        # oracle: root of the forward phase condition, written out literally
        forward = lambda vv: 2 * np.pi * (1 - vv / np.hypot(OMEGA, vv)) - theta
        assert np.isclose(v, brentq(forward, 1e-6, 10 * OMEGA, xtol=1e-14), rtol=1e-10)

    def test_round_trip_across_theta_grid(self):
        for theta in np.arange(0.1, 6.25, 0.1):
            v = solve_interaction_for_phase(theta, OMEGA)
            assert abs(2 * np.pi * (1 - v / np.hypot(OMEGA, v)) - theta) < 1e-12

    def test_rejects_out_of_range_theta(self):
        for theta in (0.0, -1.0, 2 * np.pi, 7.0):
            with pytest.raises(ValueError):
                solve_interaction_for_phase(theta, OMEGA)
        with pytest.raises(ValueError):
            solve_interaction_for_phase(np.pi, -1.0)


class TestGateProtocol:
    def test_solved_fields_are_consistent(self):
        p = GateProtocol.solve(np.pi, OMEGA, OMEGA)
        obar = np.hypot(p.omega_target, p.nominal_interaction)
        assert np.isclose(p.t_cycle, 2 * np.pi / obar, rtol=1e-14)
        assert np.isclose(p.t_gate, 2 * np.pi / p.omega_control + 2 * p.t_cycle, rtol=1e-14)
        assert abs(p.separation - 20.99) < 0.01
        phase = 2 * np.pi * (1 - p.nominal_interaction / obar)
        assert np.isclose(phase, p.theta, atol=1e-12)

    def test_rejects_nonpositive_rabi(self):
        with pytest.raises(ValueError):
            GateProtocol.solve(np.pi, 0.0, OMEGA)

    @pytest.mark.parametrize("omega_control, omega_target", [(np.inf, OMEGA), (OMEGA, np.nan), (-OMEGA, OMEGA)])
    def test_rejects_non_finite_rabi(self, omega_control, omega_target):
        with pytest.raises(ValueError, match="must be positive and finite"):
            GateProtocol.solve(np.pi, omega_control, omega_target)

    @pytest.mark.parametrize(
        "theta, omega_control, omega_target, solved",
        [
            (5e-324, OMEGA, OMEGA, "interaction inf"),  # theta -> 0 needs V -> inf
            (np.pi, 1e-320, OMEGA, "t_gate inf"),  # pi / omega_control overflows
            (np.pi, OMEGA, 1e-320, "t_cycle inf"),
        ],
    )
    def test_rejects_a_solution_that_overflows(self, theta, omega_control, omega_target, solved):
        with pytest.raises(ValueError, match=f"give {solved}; each must be positive and finite"):
            GateProtocol.solve(theta, omega_control, omega_target)

    @given(theta=st.floats(5e-324, 1e-9))
    @settings(max_examples=50)
    def test_tiny_theta_raises_or_solves_a_finite_gate(self, theta):
        # below about 7e-16 rad, 1 - theta / 2 pi rounds to 1 and V overflows
        try:
            p = GateProtocol.solve(theta, OMEGA, OMEGA)
        except ValueError as exc:
            assert "give interaction inf; each must be positive and finite" in str(exc)
            return
        for value in (p.nominal_interaction, p.t_cycle, p.t_gate, p.separation):
            assert 0 < value < np.inf

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="swap")

    def test_segment_durations_sum_to_the_gate_time(self):
        for kind in ("cz", "cnot"):
            p = GateProtocol.solve(np.pi, OMEGA, OMEGA, kind=kind)
            assert np.isclose(sum(duration for _, duration in p.segments()), p.t_gate, rtol=1e-14)


class TestCzProtocol:
    def test_pulse_structure(self):
        p = GateProtocol.solve(np.pi, OMEGA, 2 * OMEGA)
        segments = p.segments(0.0)
        t_pi = np.pi / OMEGA
        assert [duration for _, duration in segments] == [t_pi, p.t_cycle, p.t_cycle, t_pi]
        # target cycles and control pulses: each pair with opposite drive signs
        control = build_hamiltonian([(CONTROL, Level.G1, Level.RYD, OMEGA)])
        target = build_hamiltonian([(TARGET, Level.G1, Level.RYD, 2 * OMEGA)])
        for (hamiltonian, _), expected in zip(segments, (control, target, -target, -control)):
            assert np.array_equal(hamiltonian, expected)

    @pytest.mark.parametrize("theta", [np.pi, np.pi / 2])
    def test_nominal_gate_matrix(self, theta):
        p = GateProtocol.solve(theta, OMEGA, OMEGA)
        gate = simulate(p)[0]
        expected = np.diag([1, 1, 1, np.exp(1j * theta)])
        assert np.abs(gate - expected).max() < 1e-9

    def test_vanishing_interaction_limit_is_identity(self):
        p = GateProtocol.solve(2 * np.pi - 1e-4, OMEGA, OMEGA)
        gate = simulate(p)[0]
        assert np.abs(gate - np.eye(4)).max() < 2e-4

    def test_channel_exactness_off_nominal(self, nominal_protocol):
        nominal = nominal_protocol.nominal_interaction
        for v in np.geomspace(nominal / 100, nominal * 100, 9):
            gate = simulate(nominal_protocol, v)[0]
            off_diag = gate - np.diag(np.diag(gate))
            assert np.abs(off_diag).max() < 1e-10
            assert np.abs(np.diag(gate)[:3] - 1.0).max() < 1e-10


class TestCnotProtocol:
    def test_nominal_matrix_and_fidelity(self):
        gate = simulate(GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot"))[0]
        assert np.abs(gate - ideal_cnot()).max() < 1e-9
        assert pedersen_fidelity(gate, ideal_cnot()) > 1 - 1e-9

    def test_requires_theta_pi(self):
        with pytest.raises(ValueError, match="requires theta = pi"):
            GateProtocol.solve(np.pi / 2, OMEGA, OMEGA, kind="cnot")

    def test_pulses_one_and_three_identical(self):
        # the first and last (control) pulses repeat; the target cycles drive both qubit levels
        p = GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot")
        segments = p.segments(0.0)
        assert np.array_equal(segments[0][0], segments[3][0])
        assert segments[0][1] == segments[3][1] == np.pi / OMEGA
        for (hamiltonian, duration), sign in ((segments[1], 1), (segments[2], -1)):
            amp = sign * p.omega_target / np.sqrt(2)
            both = [(TARGET, Level.G0, Level.RYD, amp), (TARGET, Level.G1, Level.RYD, amp)]
            assert np.allclose(hamiltonian, build_hamiltonian(both), rtol=1e-14, atol=0)
            assert duration == p.t_cycle

    def test_dark_state_picks_up_minus_sign(self):
        # control |1>, target (|0>-|1>)/sqrt(2): dark during pulse 2,
        # comes back with an overall -1
        protocol = GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot")
        unitaries = [exponentiate(h, t) for h, t in protocol.segments()]
        dark = (basis_state(1, 0) - basis_state(1, 1)) / np.sqrt(2)
        assert np.abs(evolve(dark, unitaries) - (-dark)).max() < 1e-9

    def test_input_00_untouched(self):
        protocol = GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot")
        unitaries = [exponentiate(h, t) for h, t in protocol.segments()]
        out = evolve(basis_state(0, 0), unitaries)
        assert np.abs(out - basis_state(0, 0)).max() < 1e-9

    def test_equivalent_to_cz_in_barred_basis(self):
        gate = simulate(GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot"))[0]
        basis_change = barred_basis_change()
        barred = basis_change.conj().T @ gate @ basis_change
        assert np.abs(barred - np.diag([1, 1, -1, 1])).max() < 1e-9


class TestGateDuration:
    def test_reference_points(self):
        p = GateProtocol.solve(np.pi, OMEGA, OMEGA)
        assert abs(p.t_gate - 3.4151) < 1e-4
        fast = GateProtocol.solve(np.pi, 4.6 * MHZ, 4.6 * MHZ)
        assert abs(fast.t_gate - 0.594) < 0.005
        # control pi pulse out and back, two detuned cycles on the target
        cycle = 2 * np.pi / np.hypot(p.omega_target, p.nominal_interaction)
        assert np.isclose(p.t_gate, 2 * np.pi / OMEGA + 2 * cycle, rtol=1e-14)

    def test_strong_drive_limit(self):
        p = GateProtocol.solve(np.pi, OMEGA, 1e9)
        assert np.isclose(p.t_gate, 2 * np.pi / OMEGA, rtol=1e-8)


class TestHyperfineLeakage:
    def test_reference_value(self):
        leak = hyperfine_leakage_estimate(OMEGA, 2 * np.pi * 6.8e3)
        assert np.isclose(leak, 2.8e-8, atol=5e-10)

    def test_trivial_cases(self):
        assert hyperfine_leakage_estimate(0.0, 1.0) == 0.0
        assert np.isclose(hyperfine_leakage_estimate(1.0, 100.0), 2e-4, rtol=1e-14)
        with pytest.raises(ValueError):
            hyperfine_leakage_estimate(1.0, 0.0)


class TestRydbergExposure:
    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2),
        control_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
        target_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
    )
    @settings(max_examples=25, deadline=None)
    def test_design_exposure_splits_by_drive(self, cnot, theta, control_mhz, target_mhz):
        # 1/(4 f_c) + B(theta)/f_t us (f in MHz): the two control pi pulses hold half
        # the inputs in |r> for pi/omega_c on average; B is measured at 1 MHz each
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        shape = simulate(GateProtocol.solve(theta, MHZ, MHZ, kind=kind))[1] - 0.25
        protocol = GateProtocol.solve(theta, control_mhz * MHZ, target_mhz * MHZ, kind=kind)
        expected = 0.25 / control_mhz + shape / target_mhz
        assert abs(simulate(protocol)[1] - expected) <= 1e-13 * expected

    def test_doubled_control_rabi_against_rk4(self, nominal_protocol):
        protocol = GateProtocol.solve(
            np.pi, 2 * nominal_protocol.omega_control, nominal_protocol.omega_target
        )
        value = simulate(protocol)[1]
        from rydvdw.dynamics import RYDBERG_WEIGHT

        inputs = [basis_state(0, 1), basis_state(1, 0), basis_state(1, 1)]
        oracle = rk4_rydberg_exposure(protocol.segments(), inputs, RYDBERG_WEIGHT, step=2e-4)
        assert abs(value - oracle) / oracle < 1e-6

    def test_scaling_with_both_rabis(self, nominal_protocol):
        # T_exposure / (2*pi/omega_c) stays 1.52 when both drives scale
        base = simulate(nominal_protocol)[1]
        ratio = base / (2 * np.pi / nominal_protocol.omega_control)
        scaled_protocol = GateProtocol.solve(np.pi, 2.5 * OMEGA, 2.5 * OMEGA)
        scaled = simulate(scaled_protocol)[1]
        scaled_ratio = scaled / (2 * np.pi / scaled_protocol.omega_control)
        assert abs(ratio - 1.52) < 0.02
        assert abs(ratio - scaled_ratio) < 1e-9

    @given(
        kind=st.sampled_from(["cz", "cnot"]),
        theta=st.floats(0.2, 2 * np.pi - 0.2, exclude_min=True, exclude_max=True),
        control_exponent=st.floats(-1.0, 1.0),
        target_exponent=st.floats(-1.0, 1.0),
        interaction_exponent=st.one_of(st.none(), st.floats(-2.0, 2.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_van_loan_oracle(
        self, kind, theta, control_exponent, target_exponent, interaction_exponent
    ):
        # None stands for V = 0, where the segment eigenvalues are degenerate
        if kind == "cnot":
            theta = np.pi
        omega_control = 10.0**control_exponent * MHZ
        omega_target = 10.0**target_exponent * MHZ
        protocol = GateProtocol.solve(theta, omega_control, omega_target, kind=kind)
        interaction = (
            0.0
            if interaction_exponent is None
            else protocol.nominal_interaction * 10.0**interaction_exponent
        )
        value = simulate(protocol, interaction)[1]
        oracle = van_loan_exposure(kind, theta, omega_control, omega_target, interaction)
        assert abs(value - oracle) <= 1e-10 * oracle

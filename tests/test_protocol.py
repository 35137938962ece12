import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from rydvdw import MHZ
from rydvdw.dynamics import CONTROL, TARGET, Level, basis_state, evolve, exponentiate
from rydvdw.gates import extract_gate_matrix, ideal_cnot, pedersen_fidelity
from rydvdw.protocol import (
    GateProtocol,
    ProtocolParams,
    Pulse,
    build_cnot_protocol,
    build_cz_protocol,
    build_protocol,
    hyperfine_leakage_estimate,
    phase_from_interaction,
    rydberg_exposure,
    solve_interaction_for_phase,
)

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
            assert abs(phase_from_interaction(v, OMEGA) - theta) < 1e-12

    def test_rejects_out_of_range_theta(self):
        for theta in (0.0, -1.0, 2 * np.pi, 7.0):
            with pytest.raises(ValueError):
                solve_interaction_for_phase(theta, OMEGA)
        with pytest.raises(ValueError):
            solve_interaction_for_phase(np.pi, -1.0)


class TestProtocolParams:
    def test_solved_fields_are_consistent(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        obar = np.hypot(p.omega_target, p.interaction)
        assert np.isclose(p.t_cycle, 2 * np.pi / obar, rtol=1e-14)
        assert np.isclose(p.t_gate, 2 * np.pi / p.omega_control + 2 * p.t_cycle, rtol=1e-14)
        assert abs(p.separation - 20.99) < 0.01
        assert np.isclose(phase_from_interaction(p.interaction, p.omega_target), p.theta, atol=1e-12)

    def test_rejects_nonpositive_rabi(self):
        with pytest.raises(ValueError):
            ProtocolParams.solve(np.pi, 0.0, OMEGA)


class TestCzProtocol:
    def test_pulse_structure(self):
        p = ProtocolParams.solve(np.pi, OMEGA, 2 * OMEGA)
        protocol = build_cz_protocol(p)
        assert [pulse.actor for pulse in protocol.pulses] == [CONTROL, TARGET, TARGET, CONTROL]
        first_half, second_half = protocol.pulses[1], protocol.pulses[2]
        assert first_half.duration == second_half.duration == p.t_cycle
        assert first_half.couplings[0][2] == -second_half.couplings[0][2]
        # control pulses: equal duration, opposite drive sign
        assert protocol.pulses[0].duration == protocol.pulses[3].duration
        assert protocol.pulses[0].couplings[0][2] == -protocol.pulses[3].couplings[0][2]

    @pytest.mark.parametrize("theta", [np.pi, np.pi / 2])
    def test_nominal_gate_matrix(self, theta):
        p = ProtocolParams.solve(theta, OMEGA, OMEGA)
        gate = extract_gate_matrix(build_cz_protocol(p))
        expected = np.diag([1, 1, 1, np.exp(1j * theta)])
        assert np.abs(gate - expected).max() < 1e-9

    def test_vanishing_interaction_limit_is_identity(self):
        p = ProtocolParams.solve(2 * np.pi - 1e-4, OMEGA, OMEGA)
        gate = extract_gate_matrix(build_cz_protocol(p))
        assert np.abs(gate - np.eye(4)).max() < 2e-4

    def test_channel_exactness_off_nominal(self, nominal_protocol):
        nominal = nominal_protocol.nominal_interaction
        for v in np.geomspace(nominal / 100, nominal * 100, 9):
            gate = extract_gate_matrix(nominal_protocol, v)
            off_diag = gate - np.diag(np.diag(gate))
            assert np.abs(off_diag).max() < 1e-10
            assert np.abs(np.diag(gate)[:3] - 1.0).max() < 1e-10


class TestCnotProtocol:
    def test_nominal_matrix_and_fidelity(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        gate = extract_gate_matrix(build_cnot_protocol(p))
        assert np.abs(gate - ideal_cnot()).max() < 1e-9
        assert pedersen_fidelity(gate, ideal_cnot()) > 1 - 1e-9

    def test_requires_theta_pi(self):
        p = ProtocolParams.solve(np.pi / 2, OMEGA, OMEGA)
        with pytest.raises(ValueError):
            build_cnot_protocol(p)

    def test_pulses_one_and_three_identical(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        protocol = build_cnot_protocol(p)
        assert protocol.pulses[0] == protocol.pulses[3]
        for pulse, sign in ((protocol.pulses[1], 1), (protocol.pulses[2], -1)):
            amps = sorted((frm, to, amp) for frm, to, amp in pulse.couplings)
            assert amps[0][:2] == (Level.G0, Level.RYD)
            assert amps[1][:2] == (Level.G1, Level.RYD)
            for _, _, amp in amps:
                assert np.isclose(amp, sign * p.omega_target / np.sqrt(2), rtol=1e-14)

    def test_dark_state_picks_up_minus_sign(self):
        # control |1>, target (|0>-|1>)/sqrt(2): dark during pulse 2,
        # comes back with an overall -1
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        protocol = build_cnot_protocol(p)
        unitaries = [exponentiate(h, t) for h, t in protocol.segments()]
        dark = (basis_state(1, 0) - basis_state(1, 1)) / np.sqrt(2)
        assert np.abs(evolve(dark, unitaries) - (-dark)).max() < 1e-9

    def test_input_00_untouched(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        protocol = build_cnot_protocol(p)
        unitaries = [exponentiate(h, t) for h, t in protocol.segments()]
        out = evolve(basis_state(0, 0), unitaries)
        assert np.abs(out - basis_state(0, 0)).max() < 1e-9

    def test_equivalent_to_cz_in_barred_basis(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        gate = extract_gate_matrix(build_cnot_protocol(p))
        basis_change = barred_basis_change()
        barred = basis_change.conj().T @ gate @ basis_change
        assert np.abs(barred - np.diag([1, 1, -1, 1])).max() < 1e-9


class TestGateDuration:
    def test_reference_points(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        assert abs(p.t_gate - 3.4151) < 1e-4
        fast = ProtocolParams.solve(np.pi, 4.6 * MHZ, 4.6 * MHZ)
        assert abs(fast.t_gate - 0.594) < 0.005
        # control pi pulse out and back, two detuned cycles on the target
        cycle = 2 * np.pi / np.hypot(p.omega_target, p.interaction)
        assert np.isclose(p.t_gate, 2 * np.pi / OMEGA + 2 * cycle, rtol=1e-14)

    def test_strong_drive_limit(self):
        p = ProtocolParams.solve(np.pi, OMEGA, 1e9)
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
    def test_doubled_control_rabi_against_rk4(self, nominal_params):
        p = ProtocolParams.solve(np.pi, 2 * nominal_params.omega_control, nominal_params.omega_target)
        protocol = build_cz_protocol(p)
        value = rydberg_exposure(protocol)
        from rydvdw.dynamics import RYDBERG_WEIGHT

        inputs = [basis_state(0, 1), basis_state(1, 0), basis_state(1, 1)]
        oracle = rk4_rydberg_exposure(protocol.segments(), inputs, RYDBERG_WEIGHT, step=2e-4)
        assert abs(value - oracle) / oracle < 1e-6

    def test_scaling_with_both_rabis(self, nominal_protocol, nominal_params):
        # T_exposure / (2*pi/omega_c) stays 1.52 when both drives scale
        base = rydberg_exposure(nominal_protocol)
        ratio = base / (2 * np.pi / nominal_params.omega_control)
        scaled_params = ProtocolParams.solve(np.pi, 2.5 * OMEGA, 2.5 * OMEGA)
        scaled = rydberg_exposure(build_cz_protocol(scaled_params))
        scaled_ratio = scaled / (2 * np.pi / scaled_params.omega_control)
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
        protocol = build_protocol(ProtocolParams.solve(theta, omega_control, omega_target), kind)
        interaction = (
            0.0
            if interaction_exponent is None
            else protocol.nominal_interaction * 10.0**interaction_exponent
        )
        value = rydberg_exposure(protocol, interaction)
        oracle = van_loan_exposure(kind, theta, omega_control, omega_target, interaction)
        assert abs(value - oracle) <= 1e-10 * oracle


class TestPulseValidation:
    def test_pulse_invariants(self):
        with pytest.raises(ValueError):
            Pulse("control", ((Level.G1, Level.RYD, 1.0),), 0.0)
        with pytest.raises(ValueError):
            Pulse("nobody", ((Level.G1, Level.RYD, 1.0),), 1.0)
        with pytest.raises(ValueError):
            Pulse("control", ((Level.G1, Level.G1, 1.0),), 1.0)
        with pytest.raises(ValueError):
            Pulse("control", ((Level.G1, Level.RYD, complex(np.nan, 0)),), 1.0)

    def test_protocol_duration(self):
        p = ProtocolParams.solve(np.pi, OMEGA, OMEGA)
        protocol = build_cz_protocol(p)
        assert np.isclose(protocol.duration, p.t_gate, rtol=1e-14)

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydvdw import MHZ
from rydvdw.gates import (
    design_exposure,
    gate_fidelity,
    ideal_cnot,
    ideal_cz,
    ideal_gate,
    pedersen_fidelity,
    simulate,
)
from rydvdw.protocol import GateProtocol

from .helpers import traced_peak
from .oracles import cz_diagonal_entry, expm_gate_matrix, phase_gate_fidelity, van_loan_exposure

OMEGA = 0.8 * MHZ


def random_unitary(rng, n=4):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestIdealGates:
    def test_cz_and_cnot_are_unitary(self):
        for gate in (ideal_cz(0.7), ideal_cz(np.pi), ideal_cnot()):
            assert np.abs(gate.conj().T @ gate - np.eye(4)).max() < 1e-14

    def test_cz_phase_placement(self):
        gate = ideal_cz(0.31)
        assert gate[3, 3] == np.exp(0.31j)
        assert np.allclose(np.diag(gate)[:3], 1.0)


class TestExtractGateMatrix:
    def test_nominal_cz(self, nominal_protocol):
        gate = simulate(nominal_protocol)[0]
        assert np.abs(gate - ideal_cz(nominal_protocol.theta)).max() < 1e-9

    def test_zero_interaction_gives_identity(self, nominal_protocol):
        gate = simulate(nominal_protocol, interaction=0.0)[0]
        assert np.abs(gate - np.eye(4)).max() < 1e-9

    def test_off_nominal_matches_two_level_oracle(self, nominal_protocol):
        v = 1.1 * nominal_protocol.nominal_interaction
        gate = simulate(nominal_protocol, v)[0]
        off_diag = gate - np.diag(np.diag(gate))
        assert np.abs(off_diag).max() < 1e-12
        entry = gate[3, 3]
        assert abs(entry) < 1.0 - 1e-6  # leakage out of |11> (fourth order in the mismatch)
        mismatch = (np.angle(entry) - nominal_protocol.theta) % (2 * np.pi)
        assert min(mismatch, 2 * np.pi - mismatch) > 1e-3
        design = nominal_protocol.nominal_interaction
        oracle = cz_diagonal_entry(nominal_protocol.omega_target, design, v)
        assert np.isclose(entry, oracle, atol=1e-10)

    def test_global_phase_normalization(self, nominal_protocol):
        gate = simulate(nominal_protocol, 0.7 * nominal_protocol.nominal_interaction)[0]
        assert gate[0, 0].imag == 0.0
        assert gate[0, 0].real > 0.0

    @given(
        kind=st.sampled_from(["cz", "cnot"]),
        theta=st.floats(0.2, 2 * np.pi - 0.2, exclude_min=True, exclude_max=True),
        omega_control_exponent=st.floats(-1.0, 1.0),
        omega_target_exponent=st.floats(-1.0, 1.0),
        exponents=st.lists(st.floats(-2.0, 2.0), max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_expm_oracle_and_single_calls(
        self, kind, theta, omega_control_exponent, omega_target_exponent, exponents
    ):
        if kind == "cnot":
            theta = np.pi
        # log-uniform in 0.1-10 MHz, so the slow decade holding 0.8 MHz gets half the draws
        omega_control = 10.0**omega_control_exponent * MHZ
        omega_target = 10.0**omega_target_exponent * MHZ
        protocol = GateProtocol.solve(theta, omega_control, omega_target, kind=kind)
        design = protocol.nominal_interaction
        interactions = design * 10.0 ** np.array([-2.0, 0.0, 2.0, *exponents])
        oracle_at_design = expm_gate_matrix(kind, theta, omega_control, omega_target, design)
        assert np.abs(oracle_at_design - ideal_gate(protocol)).max() < 1e-9
        for interaction in interactions:
            gate = simulate(protocol, interaction)[0]
            assert gate.shape == (4, 4)
            oracle = expm_gate_matrix(kind, theta, omega_control, omega_target, interaction)
            assert np.abs(gate - oracle).max() < 1e-10


class TestPedersenFidelity:
    def test_perfect_match(self):
        gate = ideal_cz(np.pi)
        assert np.isclose(pedersen_fidelity(gate, gate), 1.0, atol=1e-14)

    def test_single_extra_pi_phase(self):
        # flipping one basis state's sign: |Tr|^2 = 4, purity term 4
        actual = ideal_cz(np.pi).copy()
        actual[1, 1] *= -1.0
        assert np.isclose(pedersen_fidelity(actual, ideal_cz(np.pi)), 0.4, atol=1e-14)

    def test_total_leakage(self):
        assert pedersen_fidelity(np.zeros((4, 4)), ideal_cnot()) == 0.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            pedersen_fidelity(np.eye(3), np.eye(4))
        with pytest.raises(ValueError):
            pedersen_fidelity(np.eye(4), np.stack([np.eye(4)] * 2))
        # one matrix per call: a stack of actuals is refused, not broadcast
        with pytest.raises(ValueError):
            pedersen_fidelity(np.stack([np.eye(4)] * 2), np.eye(4))

    @given(seed=st.integers(0, 2**31), scale=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_bounded_for_contractions(self, seed, scale):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        norm = np.linalg.norm(z, ord=2)
        actual = z * (scale / norm if norm > 0 else 0.0)
        value = pedersen_fidelity(actual, random_unitary(rng))
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(seed=st.integers(0, 2**31), phase=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=50)
    def test_global_phase_invariance(self, seed, phase):
        rng = np.random.default_rng(seed)
        actual = random_unitary(rng)
        ideal = random_unitary(rng)
        base = pedersen_fidelity(actual, ideal)
        assert abs(pedersen_fidelity(np.exp(1j * phase) * actual, ideal) - base) < 1e-12

    @given(
        seed=st.integers(0, 2**31),
        scale=st.floats(0.0, 1.0),
        cnot=st.booleans(),
        theta=st.floats(0.0, 2 * np.pi),
        phase=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=60)
    def test_matches_literal_formula(self, seed, scale, cnot, theta, phase):
        # the elementwise sums against [|Tr(U^d A)|^2 + Tr(U^d A A^d U)] / 20 with matrix products
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        norm = np.linalg.norm(z, ord=2)
        actual = z * (scale / norm if norm > 0 else 0.0)
        ideal = ideal_cnot() if cnot else ideal_cz(theta)
        overlap = ideal.conj().T @ actual
        literal = (abs(np.trace(overlap)) ** 2 + np.trace(overlap @ overlap.conj().T).real) / 20.0
        value = pedersen_fidelity(actual, ideal)
        assert isinstance(value, float)
        assert abs(value - literal) <= 1e-15
        assert abs(pedersen_fidelity(np.exp(1j * phase) * actual, ideal) - value) <= 1e-15

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_unitary_purity_term_is_four(self, seed):
        rng = np.random.default_rng(seed)
        actual = random_unitary(rng)
        ideal = random_unitary(rng)
        overlap = ideal.conj().T @ actual
        purity = np.trace(overlap @ overlap.conj().T).real
        assert abs(purity - 4.0) < 1e-12


class TestGateFidelity:
    def test_scalar_gives_zero_dim_array(self, nominal_protocol):
        value = gate_fidelity(nominal_protocol, nominal_protocol.nominal_interaction)
        assert value.shape == () and abs(value - 1.0) < 1e-9

    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2, exclude_min=True, exclude_max=True),
        omega_control_exponent=st.floats(-1.0, 1.0),
        omega_target_exponent=st.floats(-1.0, 1.0),
        exponents=st.lists(st.floats(-2.0, 2.0), max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_form_oracle(
        self, cnot, theta, omega_control_exponent, omega_target_exponent, exponents
    ):
        # V0/100 to 100 V0 at 0.1-10 MHz drives, for CZ(theta) and CNOT
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        omega_target = 10.0**omega_target_exponent * MHZ
        protocol = GateProtocol.solve(theta, 10.0**omega_control_exponent * MHZ, omega_target, kind=kind)
        interactions = protocol.nominal_interaction * 10.0 ** np.array([-2.0, 0.0, 2.0, *exponents])
        oracle = phase_gate_fidelity(theta, omega_target, interactions)
        assert np.abs(gate_fidelity(protocol, interactions) - oracle).max() <= 1e-13

    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2),
        exponent=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scores_the_simulated_gate(self, cnot, theta, exponent):
        # the closed form against Pedersen's formula on the walked gate, V0/100 to 100 V0:
        # two algorithms, a few ulps apart (3.1e-15 in 5000 draws); the mpmath test bounds the kernel
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        protocol = GateProtocol.solve(theta, OMEGA, OMEGA, kind=kind)
        interaction = protocol.nominal_interaction * 10.0**exponent
        expected = pedersen_fidelity(simulate(protocol, interaction)[0], ideal_gate(protocol))
        assert abs(gate_fidelity(protocol, interaction) - expected) <= 1e-14

    @pytest.mark.parametrize("kind", ["cz", "cnot"])
    def test_huge_drive_does_not_overflow(self, kind):
        # w**2 overflows at a 1e300 MHz drive; the kernel never forms it
        protocol = GateProtocol.solve(np.pi, MHZ, 1e300 * MHZ, kind=kind)
        interactions = protocol.nominal_interaction * np.array([0.5, 1.0, 2.0])
        walked = [pedersen_fidelity(simulate(protocol, v)[0], ideal_gate(protocol)) for v in interactions]
        assert np.abs(gate_fidelity(protocol, interactions) - walked).max() <= 1e-14

    @pytest.mark.parametrize("kind, theta", [("cz", 0.3), ("cz", 1.0), ("cz", np.pi), ("cz", 5.0),
                                             ("cz", 6.0), ("cnot", np.pi)])
    def test_matches_sixty_digit_evaluation(self, kind, theta):
        # k and Pedersen's formula at 60 digits, from the protocol's own float inputs, for a
        # trap from u = 0.005 (V = 6.4e13 V0, where V t rounds to 1e-2 rad) to u = 40
        protocol = GateProtocol.solve(theta, OMEGA, OMEGA, kind=kind)
        u = np.geomspace(0.005, 40.0, 241)
        interactions = protocol.nominal_interaction * u**-6.0
        with mpmath.workdps(60):
            w, t = mpmath.mpf(protocol.omega_target), mpmath.mpf(protocol.t_cycle)
            phase = mpmath.expjpi(-1) if kind == "cnot" else mpmath.expj(-mpmath.mpf(protocol.theta))
            exact = []
            for v in map(mpmath.mpf, interactions):
                obar = mpmath.sqrt(w * w + v * v)
                kept = mpmath.expj(-v * t) * (
                    mpmath.cos(obar * t) + 1j * mpmath.sin(obar * t) * v / obar
                    + 2 * (mpmath.sin(obar * t / 2) * w / obar) ** 2
                )
                exact.append(float((12 + 6 * mpmath.re(kept * phase) + 2 * abs(kept) ** 2) / 20))
        assert np.abs(gate_fidelity(protocol, interactions) - exact).max() <= 1e-15


class TestDesignExposure:
    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2, exclude_min=True, exclude_max=True),
        control_mhz=st.floats(np.log(0.05), np.log(8.0)).map(np.exp),
        target_mhz=st.floats(np.log(0.05), np.log(8.0)).map(np.exp),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_van_loan_oracle_and_the_walk(self, cnot, theta, control_mhz, target_mhz):
        # within 1.9e-14 of the oracle's expm and 2.6e-15 of the walk over 700 draws
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        protocol = GateProtocol.solve(theta, control_mhz * MHZ, target_mhz * MHZ, kind=kind)
        value = design_exposure(protocol)
        oracle = van_loan_exposure(kind, theta, protocol.omega_control, protocol.omega_target,
                                   protocol.nominal_interaction)
        assert abs(value - oracle) <= 1e-13 * oracle
        walked = simulate(protocol)[1]
        assert abs(value - walked) <= 1e-14 * walked


class TestBoundedWalk:
    """The closed form over many interactions holds a few arrays of their size."""

    @pytest.fixture
    def interactions(self, nominal_protocol):
        return nominal_protocol.nominal_interaction * np.linspace(0.5, 1.5, 4001)

    def test_gate_fidelity(self, nominal_protocol, interactions):
        gate_fidelity(nominal_protocol, interactions[:10])  # first-call allocations aside
        assert traced_peak(lambda: gate_fidelity(nominal_protocol, interactions)) <= 4e6


class TestFidelityPeak:
    def test_maximum_sits_at_design_interaction(self, nominal_protocol):
        ideal = ideal_cz(nominal_protocol.theta)
        design = nominal_protocol.nominal_interaction
        window = np.linspace(0.8, 1.2, 401) * design
        values = [
            pedersen_fidelity(simulate(nominal_protocol, v)[0], ideal) for v in window
        ]
        peak = int(np.argmax(values))
        assert abs(window[peak] - design) <= (window[1] - window[0]) / 2
        assert values[peak] > 1 - 1e-9


#: Controlled phases in (0, 2 pi).  The design interaction grows as
#: omega_target * sqrt(pi / theta); below theta = 1e-9 (5.6e4 omega_target)
#: the rounding of its pulse phases approaches the 1e-12 bounds.
THETAS = st.floats(1e-9, 2 * np.pi, exclude_max=True)


class TestAcrossParameterSpace:
    """The propagated gate and exposure over random phases and 0.1-10 MHz drives."""

    @given(
        theta=THETAS,
        control_exponent=st.floats(-1.0, 1.0),
        target_exponent=st.floats(-1.0, 1.0),
        interaction_exponent=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cz_channel_stays_diagonal(
        self, theta, control_exponent, target_exponent, interaction_exponent
    ):
        # criterion 9 off the reference protocol: from V/100 to 100 V
        protocol = GateProtocol.solve(theta, 10.0**control_exponent * MHZ, 10.0**target_exponent * MHZ)
        gate = simulate(protocol, protocol.nominal_interaction * 10.0**interaction_exponent)[0]
        assert np.abs(gate - np.diag(np.diag(gate))).max() < 1e-10
        assert np.abs(np.diag(gate)[:3] - 1.0).max() < 1e-10

    @given(
        kind=st.sampled_from(["cz", "cnot"]),
        theta=THETAS,
        control_exponent=st.floats(-1.0, 1.0),
        target_exponent=st.floats(-1.0, 1.0),
        scale_fraction=st.floats(0.0, 1.0),
        interaction_exponent=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_both_rabi_frequencies_at_fixed_reduced_interaction(
        self, kind, theta, control_exponent, target_exponent, scale_fraction, interaction_exponent
    ):
        # H = lambda H~(V/lambda) and t = t~/lambda: the gate depends only on V/V0
        if kind == "cnot":
            theta = np.pi
        # lambda keeps both scaled drives inside 0.1-10 MHz too
        low = -1.0 - min(control_exponent, target_exponent)
        high = 1.0 - max(control_exponent, target_exponent)
        scale = 10.0 ** (low + scale_fraction * (high - low))
        omega_control = 10.0**control_exponent * MHZ
        omega_target = 10.0**target_exponent * MHZ
        reduced = 10.0**interaction_exponent
        fidelities, exposures = [], []
        for factor in (1.0, scale):
            protocol = GateProtocol.solve(
                theta, factor * omega_control, factor * omega_target, kind=kind
            )
            interaction = reduced * protocol.nominal_interaction
            fidelities.append(gate_fidelity(protocol, interaction))
            exposures.append(simulate(protocol, interaction)[1] * protocol.omega_control)
        assert abs(fidelities[1] - fidelities[0]) < 1e-12
        assert abs(exposures[1] - exposures[0]) < 1e-12 * exposures[0]

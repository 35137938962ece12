"""End-to-end acceptance checks at their contract tolerances.

Each test exercises one release criterion and registers a PASS/FAIL
line that the conftest prints in the terminal summary.
"""

import time

import numpy as np

from rydvdw import MHZ
from rydvdw.dynamics import basis_index, build_hamiltonian
from rydvdw.gates import ideal_cnot, ideal_cz, pedersen_fidelity, simulate
from rydvdw.noise import (
    GridSpec,
    NoiseConfig,
    draw_distances,
    grid_average_fidelity,
    inflate_sigmas,
    monte_carlo_average_fidelity,
)
from rydvdw.protocol import GateProtocol

from .conftest import ACCEPTANCE_RESULTS
from .helpers import basis_state, exponentiate
from .oracles import rk4_propagator

OMEGA = 0.8 * MHZ

#: Grid steps and reference mean fidelities for the convergence study.
REFERENCE_SERIES = {0.25: 0.9910, 0.2: 0.9912, 0.15: 0.9914, 0.12: 0.9920, 0.1: 0.9920}


def check(number, description, passed, detail):
    ACCEPTANCE_RESULTS.append((number, description, bool(passed), detail))
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description} [{detail}]")
    assert passed, f"criterion {number} failed: {description} [{detail}]"


def test_criterion_1_detuned_cycle_phase_law():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        omega = rng.uniform(0.5, 40.0)
        interaction = rng.uniform(0.05, 40.0)
        obar = np.hypot(omega, interaction)
        h = build_hamiltonian([("target", 1, 2, omega)], interaction)
        u = exponentiate(h, 2 * np.pi / obar)
        amp = u[basis_index(2, 1), basis_index(2, 1)]
        expected = -np.pi * (1.0 + interaction / obar)
        delta = (np.angle(amp) - expected + np.pi) % (2 * np.pi) - np.pi
        worst = max(worst, abs(delta), abs(abs(amp) - 1.0))
    elapsed = time.perf_counter() - tic
    check(
        1,
        "detuned-cycle return phase matches -pi*(1 + V/obar) on 50 random pairs",
        worst < 1e-9 and elapsed < 1.0,
        f"worst deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_controlled_phase_matrices():
    tic = time.perf_counter()
    worst = 0.0
    for theta in (np.pi / 2, np.pi, 1.5 * np.pi):
        gate = simulate(GateProtocol.solve(theta, OMEGA, OMEGA))[0]
        worst = max(worst, np.abs(gate - ideal_cz(theta)).max())
    elapsed = time.perf_counter() - tic
    check(
        2,
        "CZ(theta) matrix equals diag(1,1,1,e^{i theta}) for theta in {pi/2, pi, 3pi/2}",
        worst < 1e-9 and elapsed < 1.0,
        f"worst |gate - ideal| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_cnot_fidelity():
    tic = time.perf_counter()
    params = GateProtocol.solve(np.pi, OMEGA, OMEGA, kind="cnot")
    assert abs(params.omega_target / params.nominal_interaction - np.sqrt(3)) < 1e-12
    gate = simulate(params)[0]
    fidelity = pedersen_fidelity(gate, ideal_cnot())
    elapsed = time.perf_counter() - tic
    check(
        3,
        "CNOT fidelity >= 1 - 1e-9 at omega_target = sqrt(3) * interaction",
        fidelity >= 1 - 1e-9 and elapsed < 1.0,
        f"fidelity {fidelity:.12f}, {elapsed:.2f}s",
    )


def test_criterion_4_parameter_chain():
    slow = GateProtocol.solve(np.pi, OMEGA, OMEGA)
    fast = GateProtocol.solve(np.pi, 4.6 * MHZ, 4.6 * MHZ)
    ok = (
        abs(slow.separation - 20.99) <= 0.01
        and abs(slow.t_gate - 3.42) <= 0.02
        and abs(fast.t_gate - 0.594) <= 0.005
    )
    check(
        4,
        "parameter chain: L = 20.99 um, t_gate = 3.42 us (0.8 MHz) and 0.594 us (4.6 MHz)",
        ok,
        f"L {slow.separation:.4f} um, t_gate {slow.t_gate:.4f} / {fast.t_gate:.4f} us",
    )


def test_criterion_5_decay_budget(nominal_protocol):
    exposure = simulate(nominal_protocol)[1]
    ratio = exposure / (2 * np.pi / nominal_protocol.omega_control)
    e_room = exposure / (0.311 * 1e3)
    e_cold = exposure / (1.10 * 1e3)
    ok = (
        abs(exposure - 1.91) <= 0.02
        and abs(ratio - 1.52) <= 0.02
        and abs(e_room - 6.14e-3) / 6.14e-3 <= 0.02
        and abs(e_cold - 1.74e-3) / 1.74e-3 <= 0.02
    )
    check(
        5,
        "decay budget: exposure 1.91 us (1.52 cycles), errors 6.14e-3 / 1.74e-3",
        ok,
        f"exposure {exposure:.4f} us, ratio {ratio:.4f}, errors {e_room:.3e} / {e_cold:.3e}",
    )


def test_criterion_6_sigma_inflation(nominal_noise, nominal_protocol):
    sigmas = inflate_sigmas(nominal_noise, nominal_protocol.t_gate)
    ok = abs(sigmas.sigma_z - 1.52) <= 0.01 and abs(sigmas.sigma_perp - 0.32) <= 0.01
    check(
        6,
        "free-flight inflation gives (sigma_z, sigma_perp) = (1.52, 0.32) um at 10 uK",
        ok,
        f"({sigmas.sigma_z:.4f}, {sigmas.sigma_perp:.4f}) um",
    )


def test_criterion_7_grid_fidelity_series(nominal_protocol, reduced_sigmas, nominal_table):
    tic = time.perf_counter()
    series = {}
    for delta in REFERENCE_SERIES:
        series[delta] = grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(delta))
    elapsed = time.perf_counter() - tic
    deviations = {
        delta: abs(series[delta] - reference)
        for delta, reference in REFERENCE_SERIES.items()
    }
    estimate = series[0.1]
    exposure = simulate(nominal_protocol)[1]
    net_room = estimate - exposure / (0.311 * 1e3)
    net_cold = estimate - exposure / (1.10 * 1e3)
    ok = (
        all(dev <= 1e-3 for dev in deviations.values())
        and abs(estimate - 0.992) <= 1e-3
        and abs(net_room - 0.986) <= 1e-3
        and abs(net_cold - 0.990) <= 1e-3
        and elapsed < 120.0
    )
    values = ", ".join(f"{d}: {series[d]:.4f}" for d in REFERENCE_SERIES)
    check(
        7,
        "grid-averaged fidelity matches the reference series and nets 0.986 / 0.990",
        ok,
        f"{values}; estimate {estimate:.4f}, nets {net_room:.4f} / {net_cold:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_propagator_vs_rk4(nominal_protocol):
    tic = time.perf_counter()
    worst = 0.0
    for hamiltonian, duration in nominal_protocol.segments():
        exact = exponentiate(hamiltonian, duration)
        reference = rk4_propagator(hamiltonian, duration, step=1e-4)
        worst = max(worst, np.abs(exact - reference).max())
    elapsed = time.perf_counter() - tic
    check(
        8,
        "eigendecomposition propagator matches fixed-step RK4 (1e-4 us) on every pulse",
        worst < 1e-6,
        f"worst max-norm difference {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_channel_exactness(nominal_protocol):
    nominal = nominal_protocol.nominal_interaction
    worst_off = 0.0
    worst_diag = 0.0
    for interaction in np.geomspace(nominal / 100, nominal * 100, 20):
        gate = simulate(nominal_protocol, interaction)[0]
        off_diag = gate - np.diag(np.diag(gate))
        worst_off = max(worst_off, np.abs(off_diag).max())
        worst_diag = max(worst_diag, np.abs(np.diag(gate)[:3] - 1.0).max())
    ok = worst_off < 1e-10 and worst_diag < 1e-10
    check(
        9,
        "CZ channel stays diagonal with unit |00>,|01>,|10> entries for V/100 .. 100V",
        ok,
        f"worst off-diagonal {worst_off:.2e}, worst diagonal deviation {worst_diag:.2e}",
    )


def test_criterion_10_grid_vs_truncated_mc(reduced_sigmas, nominal_table):
    tic = time.perf_counter()
    grid = grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(0.1))
    distances = draw_distances(reduced_sigmas, 1.0, 1_000_000, seed=20210901, truncate=1.5)
    mc = monte_carlo_average_fidelity(nominal_table, distances)
    elapsed = time.perf_counter() - tic
    gap = abs(mc.mean_fidelity - grid)
    bound = max(3 * mc.stderr, 1e-3)
    check(
        10,
        "truncated Monte Carlo (1e6 samples) agrees with the delta=0.1 grid estimate",
        gap <= bound,
        f"gap {gap:.2e} vs bound {bound:.2e}, {elapsed:.1f}s",
    )

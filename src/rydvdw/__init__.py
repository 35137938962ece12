"""Entangling gates between distant neutral atoms via weak van der Waals
Rydberg interactions: pulse-sequence design, exact state-vector
simulation, decay budget, and position-fluctuation-averaged fidelity."""

# before the submodules, which may read it
__version__ = "0.1.0"

from .constants import C6_97S, LIFETIME_97S_4K_MS, LIFETIME_97S_300K_MS, MHZ
from .dynamics import Level, build_hamiltonian
from .errors import ConfigError, NumericError
from .gates import gate_fidelity, ideal_cnot, ideal_cz, pedersen_fidelity, simulate
from .geometry import VdwModel, separation_for_interaction, vdw_interaction
from .noise import (
    FidelityReport,
    FidelityTable,
    GridSpec,
    InflatedSigmas,
    NoiseConfig,
    PositionAverages,
    decay_error,
    draw_distances,
    grid_average_fidelity,
    grid_window,
    inflate_sigmas,
    monte_carlo_average_fidelity,
    position_averages,
    reduced,
)
from .protocol import (
    GateProtocol,
    hyperfine_leakage_estimate,
    solve_interaction_for_phase,
)

import numpy as np
import pytest

from rydvdw import MHZ, FidelityTable, GateProtocol, NoiseConfig
from rydvdw.noise import grid_window, inflate_sigmas, reduced

#: (criterion number, description, passed, detail) tuples filled in by
#: tests/test_acceptance.py and printed at the end of the run.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  criterion {number:2d}: {description} [{detail}]")


@pytest.fixture(scope="session")
def nominal_protocol():
    """Reference CZ gate: theta=pi, 0.8 MHz Rabi frequencies."""
    return GateProtocol.solve(np.pi, 0.8 * MHZ, 0.8 * MHZ)


@pytest.fixture(scope="session")
def nominal_noise(nominal_protocol):
    return NoiseConfig(trap_separation=nominal_protocol.separation)


@pytest.fixture(scope="session")
def nominal_sigmas(nominal_noise, nominal_protocol):
    return inflate_sigmas(nominal_noise, nominal_protocol.t_gate)


@pytest.fixture(scope="session")
def reduced_sigmas(nominal_protocol, nominal_noise):
    """The nominal spreads in design separations L, the table's unit: there the
    nominal traps sit exactly 1 apart."""
    return reduced(nominal_protocol, nominal_noise)[1]


@pytest.fixture(scope="session")
def nominal_table(nominal_protocol, reduced_sigmas):
    """The table over the grid window, which also holds every draw truncated at 1.5 sigma."""
    return FidelityTable(nominal_protocol, *grid_window(reduced_sigmas, 1.0))

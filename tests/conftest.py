import numpy as np
import pytest

from rydvdw import MHZ, FidelityTable, NoiseConfig, ProtocolParams, VdwModel
from rydvdw.noise import grid_window, inflate_sigmas
from rydvdw.protocol import build_cz_protocol

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
def nominal_params():
    """Reference CZ operating point: theta=pi, 0.8 MHz Rabi frequencies."""
    return ProtocolParams.solve(np.pi, 0.8 * MHZ, 0.8 * MHZ)


@pytest.fixture(scope="session")
def nominal_protocol(nominal_params):
    return build_cz_protocol(nominal_params)


@pytest.fixture(scope="session")
def nominal_noise(nominal_params):
    return NoiseConfig(trap_separation=nominal_params.separation)


@pytest.fixture(scope="session")
def nominal_sigmas(nominal_noise, nominal_params):
    return inflate_sigmas(nominal_noise, nominal_params.t_gate)


@pytest.fixture(scope="session")
def nominal_table(nominal_protocol, nominal_noise, nominal_sigmas):
    """The table over the grid window, which also holds every draw truncated at 1.5 sigma."""
    window = grid_window(nominal_noise, nominal_sigmas)
    return FidelityTable(nominal_protocol, VdwModel(), nominal_noise.trap_separation, *window)

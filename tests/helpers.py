"""A CLI runner, readers of the CLI's output formats, basis states and
plain propagators.

The package only writes its records; these parse them back for the
tests, ``run_cli`` captures one command line's exit code and streams,
``exponentiate`` forms the propagator matrix that the package never
needs, and ``evolve`` applies propagators to one state vector in turn.
"""

import contextlib
import csv
import io
from typing import NamedTuple

import numpy as np

from rydvdw.cli import main
from rydvdw.dynamics import DIM, basis_index, propagate


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(argv):
    """Run ``main(argv)`` in-process, returning its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


def basis_state(control: int, target: int) -> np.ndarray:
    """Unit amplitude vector for the product state |control, target>."""
    state = np.zeros(DIM, dtype=complex)
    state[basis_index(control, target)] = 1.0
    return state


def exponentiate(hamiltonian: np.ndarray, duration: float) -> np.ndarray:
    """Exact propagator exp(-i H t) of a constant Hamiltonian, or of a
    stack of them with shape (..., n, n): ``propagate`` applied to the
    identity.  Unitary matrices of the same shape."""
    return propagate([(hamiltonian, duration)], np.eye(np.shape(hamiltonian)[-1]))[0]


def evolve(state, unitaries):
    """Apply a sequence of propagators to a state vector, in order."""
    if len(unitaries) == 0:
        raise ValueError("need at least one propagator")
    out = np.asarray(state, dtype=complex)
    for unitary in unitaries:
        out = unitary @ out
    return out


def complex_matrix_from_json(data):
    """Complex matrix from the nested [re, im] pairs of a record."""
    return np.array([[complex(re, im) for re, im in row] for row in data])


def rows_from_csv(text):
    """Parse CSV back into dict rows, restoring ints and floats."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = int(value)
            except ValueError:
                try:
                    parsed[key] = float(value)
                except ValueError:
                    parsed[key] = value
        rows.append(parsed)
    return rows

"""Readers of the CLI's output formats and a plain state propagator.

The package only writes its records; these parse them back for the
tests, and ``evolve`` applies propagators to one state vector in turn.
"""

import csv
import io

import numpy as np


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

"""Fixed reference work that gauges how fast the machine runs right now.

    python3 probe.py

A fresh interpreter that imports the libraries rydvdw's commands import
and then does a little of each kind of work they do: an interpreted
loop, many small Hermitian eigendecompositions, and a cubic spline
evaluated over a large array.  It never imports rydvdw, so no change to
the package can move it.  ``run.py`` times it between studies and scales
the study times by it (see ``run.Study.scale``).
"""

import click  # noqa: F401
import numpy as np
import scipy.integrate  # noqa: F401
from scipy.interpolate import CubicSpline

LOOP = 300_000
EIGH_CALLS = 3_000
SPLINE_KNOTS = 4_001
SPLINE_POINTS = 1_000_000
SPLINE_PASSES = 1


def main() -> None:
    rng = np.random.default_rng(0)
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    matrix = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    hermitian = matrix + matrix.conj().T
    for _ in range(EIGH_CALLS):
        np.linalg.eigh(hermitian)
    knots = np.linspace(0.0, 10.0, SPLINE_KNOTS)
    spline = CubicSpline(knots, np.sin(knots))
    points = rng.random(SPLINE_POINTS) * 10.0
    for _ in range(SPLINE_PASSES):
        total += float(spline(points).sum())
    if not np.isfinite(total):
        raise SystemExit("probe: non-finite result")


if __name__ == "__main__":
    main()

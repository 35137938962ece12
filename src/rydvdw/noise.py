"""Position-fluctuation averaging of the gate fidelity, plus the decay budget.

The atoms' positions scatter around their trap centers with transverse
spread sigma_perp (x and y) and longitudinal spread sigma_z, each
inflated by half the free-flight distance travelled while the traps
are off during the gate.  The fluctuating distance moves the pair
interaction off its design value and costs fidelity.

The average fidelity is taken over the six offset coordinates
(x_c, y_c, z_c, x_t, y_t, z_t), either on a deterministic product grid
truncated at +/-1.5 sigma per coordinate with Gaussian weights
normalized coordinate-by-coordinate, or by Monte Carlo sampling of the
(by default untruncated) Gaussians.

Two exact structural reductions keep this cheap.  First, the fidelity
depends on the offsets only through the scalar distance, so it is
tabulated once on a dense distance axis and interpolated.  Second, the
grid sum depends on each coordinate pair only through its difference;
regrouping the product weights into difference weights (a discrete
autocorrelation) collapses the 6-D sum to 3-D without changing its
value.  The y and z differences enter the distance only squared and
their weights are symmetric, so each is folded onto its nonnegative
half with the weights of the two signs summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import KB, RB87_MASS_KG, SIGMA_PERP0_DEFAULT, SIGMA_Z0_DEFAULT
from .gates import gate_fidelity
from .geometry import VdwModel, vdw_interaction
from .protocol import GateProtocol

__all__ = [
    "NoiseConfig",
    "InflatedSigmas",
    "GridSpec",
    "FidelityReport",
    "inflate_sigmas",
    "FidelityTable",
    "TableWindowError",
    "grid_average_fidelity",
    "monte_carlo_average_fidelity",
    "decay_error",
]

#: Per-coordinate truncation of the position grid, in units of sigma.
GRID_HALF_RANGE = 1.5


class TableWindowError(ValueError):
    """The fidelity table's distance window reaches zero distance."""


@dataclass(frozen=True)
class NoiseConfig:
    """Trap, temperature and lifetime parameters for the error model.

    Lengths in um, temperature in uK, mass in kg, lifetime in ms.
    """

    trap_separation: float
    sigma_z0: float = SIGMA_Z0_DEFAULT
    sigma_perp0: float = SIGMA_PERP0_DEFAULT
    temperature: float = 10.0
    atom_mass: float = RB87_MASS_KG
    rydberg_lifetime: float = 0.311

    def __post_init__(self):
        for name in ("trap_separation", "sigma_z0", "sigma_perp0", "temperature",
                     "atom_mass", "rydberg_lifetime"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class InflatedSigmas:
    """Effective r.m.s. spreads after free-flight inflation.

    ``flight_length`` is the r.m.s. distance v_rms * t_gate an atom
    drifts during the gate; half of it is added to each trap spread.
    """

    sigma_z: float
    sigma_perp: float
    flight_length: float
    v_rms: float


@dataclass(frozen=True)
class GridSpec:
    """Product-grid quadrature step.

    Each coordinate runs over {-1.5, -1.5+delta, ..., 1.5} in units of
    its own sigma.  ``delta`` must divide the full 3-sigma span so the
    listed endpoints are actually reachable and the grid stays uniform.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta <= GRID_HALF_RANGE:
            raise ValueError(f"delta must lie in (0, {GRID_HALF_RANGE}], got {self.delta!r}")
        span = 2.0 * GRID_HALF_RANGE
        if abs(round(span / self.delta) * self.delta - span) > 1e-9:
            raise ValueError(
                f"delta {self.delta!r} does not evenly divide the +-{GRID_HALF_RANGE} sigma range"
            )

    def points(self) -> np.ndarray:
        """Dimensionless grid nodes from -1.5 to +1.5 inclusive."""
        n = round(2.0 * GRID_HALF_RANGE / self.delta)
        return np.linspace(-GRID_HALF_RANGE, GRID_HALF_RANGE, n + 1)


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of a fidelity-averaging run: the mean over ``sample_count``
    grid nodes or samples and, for Monte Carlo, its standard error."""

    mean_fidelity: float
    sample_count: int
    method: str
    stderr: float | None = None


def inflate_sigmas(cfg: NoiseConfig, t_gate: float) -> InflatedSigmas:
    """Add the free-flight drift to the trap position spreads.

    The one-axis thermal speed is v_rms = sqrt(kB*T/m); over a gate of
    duration ``t_gate`` (us) the average position change is
    v_rms*t_gate/2, which inflates both spreads additively.
    """
    v_rms = float(np.sqrt(KB * cfg.temperature * 1e-6 / cfg.atom_mass))  # m/s == um/us
    flight = v_rms * t_gate
    return InflatedSigmas(
        sigma_z=cfg.sigma_z0 + flight / 2.0,
        sigma_perp=cfg.sigma_perp0 + flight / 2.0,
        flight_length=flight,
        v_rms=v_rms,
    )


class FidelityTable:
    """Dense 1-D table of gate fidelity versus qubit distance.

    The fidelity of a fixed pulse sequence depends on the atom
    positions only through their distance, via the van der Waals
    interaction.  Propagating all tabulated distances as one batch and
    interpolating with a not-a-knot cubic spline on the uniform knots
    turns the millions of grid/sample evaluations into lookups; samples
    falling outside the tabulated window (9 sigma_z around the trap
    separation, endpoints included) are evaluated directly, again as
    one batch.
    """

    def __init__(
        self,
        protocol: GateProtocol,
        vdw: VdwModel,
        trap_separation: float,
        sigma_z: float,
        n_points: int = 4001,
    ):
        if n_points < 4:
            raise ValueError(f"a not-a-knot spline needs n_points >= 4, got {n_points!r}")
        lo = trap_separation - 9.0 * sigma_z
        hi = trap_separation + 9.0 * sigma_z
        if lo <= 0.0:
            raise TableWindowError(
                f"trap separation {trap_separation:.4g} um with sigma_z {sigma_z:.4g} um "
                "puts the +-9 sigma_z table window at nonpositive distances"
            )
        self.protocol = protocol
        self.vdw = vdw
        self.trap_separation = trap_separation
        self.distances = np.linspace(lo, hi, n_points)
        self.values = self.evaluate(self.distances)
        self._step = (hi - lo) / (n_points - 1)
        self._coefficients = _spline_coefficients(self.values, self._step)

    def evaluate(self, dist):
        """Direct (table-free) fidelity at one distance or an array of them."""
        fidelity = gate_fidelity(self.protocol, vdw_interaction(self.vdw, dist))
        return float(fidelity) if fidelity.ndim == 0 else fidelity

    def __call__(self, dist):
        dist = np.asarray(dist, dtype=float)
        inside = (dist >= self.distances[0]) & (dist <= self.distances[-1])
        out = np.empty(dist.shape)
        out[inside] = self._interpolate(dist[inside])
        if not inside.all():
            out[~inside] = self.evaluate(dist[~inside])
        return float(out) if out.ndim == 0 else out

    def _interpolate(self, dist: np.ndarray) -> np.ndarray:
        """Spline value at in-window distances, by Horner's rule on the
        cubic of each distance's interval (the last one closes at ``hi``)."""
        index = ((dist - self.distances[0]) / self._step).astype(np.intp)
        np.minimum(index, len(self.distances) - 2, out=index)
        offset = dist - self.distances[index]
        out = self._coefficients[0][index]
        for row in self._coefficients[1:]:
            out *= offset
            out += row[index]
        return out


def _spline_coefficients(values: np.ndarray, step: float) -> np.ndarray:
    """Power-basis coefficients, shape (4, n-1), of the not-a-knot cubic
    spline through ``values`` on knots ``step`` apart.

    Row k multiplies (d - knot)**(3-k) on each interval.  The knot
    slopes s solve the tridiagonal equations of C2 continuity plus the
    not-a-knot end conditions (third derivative continuous across the
    second and the second-last knot), divided by ``step``; one Thomas
    sweep solves them, and its last pivot is nonzero for n >= 4.
    """
    m = np.diff(values) / step
    rhs = np.empty(len(values))
    rhs[0] = (5.0 * m[0] + m[1]) / 2.0
    rhs[1:-1] = 3.0 * (m[:-1] + m[1:])
    rhs[-1] = (m[-2] + 5.0 * m[-1]) / 2.0
    # rows: s0 + 2 s1; s(i-1) + 4 s(i) + s(i+1); 2 s(n-2) + s(n-1)
    rhs = rhs.tolist()
    upper = [2.0]
    for i in range(1, len(rhs) - 1):
        pivot = 4.0 - upper[-1]
        upper.append(1.0 / pivot)
        rhs[i] = (rhs[i] - rhs[i - 1]) / pivot
    rhs[-1] = (rhs[-1] - 2.0 * rhs[-2]) / (1.0 - 2.0 * upper[-1])
    for i in range(len(rhs) - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
    slopes = np.array(rhs)
    curvature = (slopes[:-1] + slopes[1:] - 2.0 * m) / step
    return np.stack([
        curvature / step,
        (m - slopes[:-1]) / step - curvature,
        slopes[:-1],
        values[:-1],
    ])


def _difference_weights(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Difference offsets (in sigma units) and their summed weights.

    For one coordinate pair (a, b) on the same uniform grid with
    normalized Gaussian weights w, the joint weight of each difference
    a - b is the correlation of w with itself; the offsets run over the
    doubled grid in steps of delta.
    """
    nodes = grid.points()
    weights = np.exp(-0.5 * nodes**2)
    weights /= weights.sum()
    diff_weights = np.convolve(weights, weights[::-1])
    n = len(nodes) - 1
    diff_offsets = np.arange(-n, n + 1) * grid.delta
    return diff_offsets, diff_weights


def _grid_mean_paired(table, grid: GridSpec, sigmas: InflatedSigmas, separation: float) -> float:
    offsets, weights = _difference_weights(grid)
    # y and z differences enter only squared: fold -k onto +k, summing weights
    n = len(offsets) // 2
    folded = weights[n:].copy()
    folded[1:] += weights[n - 1::-1]
    dx = offsets * sigmas.sigma_perp  # x_c - x_t
    dy = offsets[n:] * sigmas.sigma_perp
    dz = offsets[n:] * sigmas.sigma_z
    dist = np.sqrt(
        (dx[:, None, None] - separation) ** 2
        + dy[None, :, None] ** 2
        + dz[None, None, :] ** 2
    )
    fid = table(dist.ravel()).reshape(dist.shape)
    w = weights[:, None, None] * folded[None, :, None] * folded[None, None, :]
    return float(np.sum(w * fid) / np.sum(w))


def grid_average_fidelity(
    table: FidelityTable, sigmas: InflatedSigmas, grid: GridSpec
) -> FidelityReport:
    """Deterministic grid average of the fidelity over qubit positions.

    Every coordinate is sampled on {-1.5, ..., +1.5} sigma with step
    ``delta`` and Gaussian weights normalized per coordinate; the pair
    interaction is recomputed from the actual distance of each offset
    tuple (around the table's trap separation), summed through the
    exact difference-coordinate regrouping.
    """
    mean = _grid_mean_paired(table, grid, sigmas, table.trap_separation)
    return FidelityReport(mean, len(grid.points()) ** 6, "grid-paired")


def monte_carlo_average_fidelity(
    table: FidelityTable,
    sigmas: InflatedSigmas,
    n_samples: int,
    seed: int,
    truncate: float | None = None,
) -> FidelityReport:
    """Monte Carlo average of the fidelity over qubit positions.

    Draws the six offsets from independent Gaussians (untruncated by
    default; set ``truncate=1.5`` to match the grid's support) and
    reports the sample mean and its standard error.  Identical seeds
    give bit-identical reports.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    offsets = rng.standard_normal((6, n_samples))
    if truncate is not None:
        bad = np.abs(offsets) > truncate
        while bad.any():
            offsets[bad] = rng.standard_normal(int(bad.sum()))
            bad = np.abs(offsets) > truncate
    scale = np.array([
        sigmas.sigma_perp,  # x_c
        sigmas.sigma_perp,  # y_c
        sigmas.sigma_z,     # z_c
        sigmas.sigma_perp,  # x_t
        sigmas.sigma_perp,  # y_t
        sigmas.sigma_z,     # z_t
    ])
    offsets *= scale[:, None]
    dist = np.sqrt(
        (offsets[0] - offsets[3] - table.trap_separation) ** 2
        + (offsets[1] - offsets[4]) ** 2
        + (offsets[2] - offsets[5]) ** 2
    )
    fid = table(dist)
    mean = float(np.mean(fid))
    stderr = float(np.std(fid, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    label = "mc-truncated" if truncate is not None else "mc"
    return FidelityReport(mean, n_samples, label, stderr)


def decay_error(exposure: float, lifetime_ms: float) -> float:
    """Rydberg decay error: the exposure (us) over the lifetime (ms), dimensionless."""
    return exposure / (lifetime_ms * 1e3)

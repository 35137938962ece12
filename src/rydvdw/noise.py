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
(by default untruncated) Gaussians.  The distance depends only on the
three differences x_c - x_t, y_c - y_t and z_c - z_t, so the untruncated
Monte Carlo draws those, each N(0, 2 sigma**2), instead of six offsets.

Two exact structural reductions keep this cheap.  First, the fidelity
depends on the offsets only through the distance d, and on d only through
u = d/L, L the design separation (C6/d**6 = V0 u**-6, V0 = C6/L**6 the
design interaction), so one table over u serves every drive and C6 at a
phase.  It is tabulated once over exactly the u the grid and the draws
reach, which take the spreads and the trap separation in units of L, and
interpolated; a lookup outside it is an error.  The grid reaches the same
u at every step, in closed form.  Second, the grid sum depends on each
coordinate pair only through its difference; regrouping the product
weights into difference weights (a discrete autocorrelation) collapses
the 6-D sum to 3-D without changing its value.  The y and z differences
enter the distance only squared and their weights are symmetric, so each
is folded onto its nonnegative half with the weights of the two signs
summed.

Everything runs in blocks of about ``BLOCK`` points: the table lookup
and the Monte Carlo draw write into one output block by block, the lookup
and the grid reuse one set of scratch arrays for every block, the grid
streams whole x-difference rows of the folded grid, reducing each block
against its weights by two matrix-vector products, and the Monte Carlo
mean merges each block's mean and sum of squared deviations.  So no
average forms a full-size weight or fidelity array, and only the draw
holds a full-size one, its distances.  The grid average returns its mean,
the Monte Carlo average its mean, sample count and standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import (
    KB,
    LIFETIME_97S_300K_MS,
    RB87_MASS_KG,
    SIGMA_PERP0_DEFAULT,
    SIGMA_Z0_DEFAULT,
    TEMPERATURE_DEFAULT_UK,
)
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
    "grid_window",
    "draw_distances",
    "grid_average_fidelity",
    "monte_carlo_average_fidelity",
    "decay_error",
]

#: Per-coordinate truncation of the position grid, in units of sigma.
GRID_HALF_RANGE = 1.5

#: Largest knot spacing of the fidelity table in u = d/L, times lo for a window
#: from lo > 1: so a window far beyond L keeps distinct knots, where 1/3072 falls
#: below an ulp.  The spline error goes as its fourth power: at 1/3072 (6.833 nm
#: on the reference config) the largest of 1e5 uniform probes against the
#: closed-form CZ(pi) fidelity is 3.5e-12 on the reference grid window (u in
#: [0.954, 1.070]), but 2.4e-6 on u in [0.25, 0.35] (a 6.28 um trap on the
#: reference design) and 1.0e-5 on [0.001, 0.4].  The ``fidelity`` record
#: reports ``FidelityTable.spline_error``, the error measured at every knot
#: interval's midpoint: 0.92x, 0.75x and 1.00x of the probes' on those windows.
KNOT_SPACING = 1.0 / 3072

#: Most knots a table may have: a window some 40 design separations wide.
MAX_KNOTS = 2**17

#: Points per block of a table lookup, a grid average or a Monte Carlo draw.
#: A block's arrays (128 KB each) stay in cache and in memory already
#: mapped; 2**13 to 2**15 time alike, 2**17 about twice as slow.  Lookups and
#: the grid reuse theirs from block to block: freeing them each block made
#: the allocator return the heap top to the system and fault it back in.
BLOCK = 2**14


@dataclass(frozen=True)
class NoiseConfig:
    """Trap, temperature and lifetime parameters for the error model.

    Lengths in um, temperature in uK, mass in kg, lifetime in ms.
    """

    trap_separation: float
    sigma_z0: float = SIGMA_Z0_DEFAULT
    sigma_perp0: float = SIGMA_PERP0_DEFAULT
    temperature: float = TEMPERATURE_DEFAULT_UK
    atom_mass: float = RB87_MASS_KG
    rydberg_lifetime: float = LIFETIME_97S_300K_MS

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{item.name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class InflatedSigmas:
    """Effective r.m.s. spreads after free-flight inflation.

    ``flight_length`` is the r.m.s. distance v_rms * t_gate an atom
    drifts during the gate; half of it is added to each trap spread.
    """

    sigma_z: float
    sigma_perp: float
    flight_length: float


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
    """Outcome of a Monte Carlo average: the mean over ``sample_count``
    samples and its standard error."""

    mean_fidelity: float
    sample_count: int
    stderr: float


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
    )


class FidelityTable:
    """Dense 1-D table of gate fidelity versus reduced qubit distance u = d/L.

    The fidelity of a fixed pulse sequence depends on the atom positions only
    through the interaction V0 u**-6, V0 = ``protocol.nominal_interaction``.
    Evaluating :func:`rydvdw.gates.gate_fidelity` at the knots in one call
    and interpolating with a not-a-knot cubic spline on the uniform knots
    turns the millions of grid/sample evaluations into lookups.  At least
    four knots run from ``lo`` to ``hi``, at most ``KNOT_SPACING * max(1, lo)``
    apart, over at least one such spacing; a lookup outside them raises
    ValueError.  The table keeps its ``protocol`` to measure its own error.
    """

    def __init__(self, protocol: GateProtocol, lo: float, hi: float):
        self.protocol = protocol
        spacing = KNOT_SPACING * max(1.0, lo)
        if not (0.0 < lo <= hi and (hi - lo) / spacing < MAX_KNOTS):
            raise ValueError(
                f"table window [{lo!r}, {hi!r}] needs 0 < lo <= hi and under {MAX_KNOTS} knots"
            )
        hi = max(hi, lo + spacing)
        self.distances = np.linspace(lo, hi, max(4, math.ceil((hi - lo) / spacing) + 1))
        self.values = self._exact(self.distances)
        self._step = (hi - lo) / (len(self.distances) - 1)
        self._coefficients = _spline_coefficients(self.values, self._step)
        # a lookup block's interval indices, offsets and coefficients, reused by every block
        self._scratch = np.empty(BLOCK, dtype=np.intp), np.empty(BLOCK), np.empty(BLOCK)

    def __call__(self, dist):
        """Fidelity at a distance (a float) or an array of them (same shape),
        ``BLOCK`` distances at a time into one output array.  The blocks share
        the table's scratch arrays, so a table serves one call at a time."""
        dist = np.asarray(dist, dtype=float)
        flat = dist.ravel()
        out = np.empty(flat.size)
        lo, hi = self.distances[0], self.distances[-1]
        for start in range(0, flat.size, BLOCK):
            block, fid = flat[start : start + BLOCK], out[start : start + BLOCK]
            inside = (block >= lo) & (block <= hi)
            if not inside.all():
                raise ValueError(
                    f"distance {float(block[~inside][0])!r} lies outside the "
                    f"fidelity table's window [{lo!r}, {hi!r}]"
                )
            # Horner's rule on the cubic of each distance's interval (the last closes at hi)
            index, offset, coefficient = (scratch[: len(block)] for scratch in self._scratch)
            np.subtract(block, lo, out=offset)
            np.divide(offset, self._step, out=offset)
            np.copyto(index, offset, casting="unsafe")  # truncates, as astype does
            np.minimum(index, len(self.distances) - 2, out=index)
            # every index is in range; mode "raise" would buffer each output
            np.subtract(block, np.take(self.distances, index, out=offset, mode="clip"), out=offset)
            np.take(self._coefficients[0], index, out=fid, mode="clip")
            for row in self._coefficients[1:]:
                fid *= offset
                fid += np.take(row, index, out=coefficient, mode="clip")
        return float(out[0]) if dist.ndim == 0 else out.reshape(dist.shape)

    def _exact(self, dist: np.ndarray) -> np.ndarray:
        """The closed-form fidelity at distances ``dist`` in design separations."""
        design = VdwModel(self.protocol.nominal_interaction)
        return gate_fidelity(self.protocol, vdw_interaction(design, dist))

    def spline_error(self) -> float:
        """Largest gap between the table and the closed-form fidelity at the
        midpoint of every knot interval, where a cubic spline's error peaks:
        one fidelity call and one lookup over the n-1 midpoints."""
        midpoints = 0.5 * (self.distances[:-1] + self.distances[1:])
        return float(np.abs(self(midpoints) - self._exact(midpoints)).max())


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
    # k/n of the full 2 * 1.5 sigma span, rounded once: the ends are exactly
    # +-3 at every step, as grid_window assumes (k * delta can miss 3 by an ulp)
    n = len(nodes) - 1
    diff_offsets = np.arange(-n, n + 1) * (2.0 * GRID_HALF_RANGE) / n
    return diff_offsets, diff_weights


def grid_window(sigmas: InflatedSigmas, separation: float) -> tuple[float, float]:
    """Nearest and farthest qubit distance on the position grid of any step, traps s apart:
    [s - 3 sigma_perp, sqrt((s + 3 sigma_perp)**2 + (3 sigma_perp)**2 + (3 sigma_z)**2)],
    as every step's differences end at exactly +-3 sigma.  Both ends are the grid's own
    distances to the bit, summed in :func:`grid_average_fidelity`'s order.  A grid that
    reaches zero distance (3 sigma_perp at or past s) gets a nearest end at or below 0."""
    # in Python floats, whose products overflow to inf silently (where ** raises)
    s, x, z = float(separation), 3.0 * float(sigmas.sigma_perp), 3.0 * float(sigmas.sigma_z)
    return s - x, math.sqrt((s + x) * (s + x) + x * x + z * z)


def grid_average_fidelity(
    table: FidelityTable, sigmas: InflatedSigmas, separation: float, grid: GridSpec
) -> float:
    """Deterministic grid average of the fidelity over qubit positions.

    Every coordinate is sampled on {-1.5, ..., +1.5} sigma with step
    ``delta`` and Gaussian weights normalized per coordinate; the pair
    interaction is recomputed from the actual distance of each offset
    tuple (the traps ``separation`` apart, in the table's unit), summed
    through the exact difference-coordinate regrouping, in blocks of whole
    x-difference rows of the folded difference grid.
    """
    offsets, weights = _difference_weights(grid)
    # y and z differences enter only squared: fold -k onto +k, summing weights
    n = len(offsets) // 2
    folded = weights[n:].copy()
    folded[1:] += weights[n - 1::-1]
    plane_weights = np.outer(folded, folded).ravel()
    rows = max(1, BLOCK // plane_weights.size)
    total = norm = 0.0
    # near the float limit a distance overflows to inf, and its table window is refused
    with np.errstate(over="ignore"):
        dx = offsets * sigmas.sigma_perp  # x_c - x_t
        dy2 = (offsets[n:] * sigmas.sigma_perp) ** 2
        dz2 = (offsets[n:] * sigmas.sigma_z) ** 2
        # one distance block, reused by every x-difference row block
        buffer = np.empty((rows, len(dy2), len(dz2)))
        for start in range(0, len(dx), rows):
            x_weights = weights[start : start + rows]
            dist = buffer[: len(x_weights)]
            np.add((dx[start : start + rows, None, None] - separation) ** 2 + dy2[None, :, None], dz2, out=dist)
            np.sqrt(dist, out=dist)
            total += x_weights @ (table(dist.reshape(-1, plane_weights.size)) @ plane_weights)
            norm += x_weights.sum()
    return float(total / (norm * plane_weights.sum()))


def draw_distances(
    sigmas: InflatedSigmas, separation: float, n_samples: int, seed: int, truncate: float | None = None
) -> np.ndarray:
    """Qubit distances of ``n_samples`` Monte Carlo position draws, the traps
    ``separation`` apart (the spreads' unit), ``BLOCK`` samples at a time.

    The distance depends on the six offsets only through the differences
    x_c - x_t, y_c - y_t and z_c - z_t.  Untruncated (the default), each is
    the difference of two independent N(0, sigma**2) offsets, so it is drawn
    directly as N(0, 2 sigma**2).  With ``truncate=GRID_HALF_RANGE`` (the
    grid's support) a block draws the six offsets, redraws each until it
    lies within ``truncate`` sigma, and takes their differences.  Identical
    seeds give bit-identical distances.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    # near the float limit a distance overflows to inf or NaN, and its table window is refused
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.array([sigmas.sigma_perp, sigmas.sigma_perp, sigmas.sigma_z])[:, None]
        if truncate is None:
            scale *= np.sqrt(2.0)
        for start in range(0, n_samples, BLOCK):
            size = min(BLOCK, n_samples - start)
            if truncate is None:
                diff = rng.standard_normal((3, size))
            else:
                offsets = rng.standard_normal((6, size))
                # only a redrawn offset can still be out of range: the index of
                # those shrinks each pass, in the C order a mask would take them
                flat = offsets.ravel()
                redraw = np.flatnonzero(np.abs(flat) > truncate)
                while redraw.size:
                    flat[redraw] = rng.standard_normal(redraw.size)
                    redraw = redraw[np.abs(flat[redraw]) > truncate]
                diff = offsets[:3] - offsets[3:]
            diff *= scale
            diff[0] -= separation
            np.square(diff, out=diff)
            np.sqrt(diff.sum(axis=0), out=out[start : start + size])
    return out


def monte_carlo_average_fidelity(table: FidelityTable, distances: np.ndarray) -> FidelityReport:
    """Mean fidelity over the :func:`draw_distances` output, with its
    standard error; one draw has no standard error.

    The fidelities are looked up ``BLOCK`` at a time, and each block's mean
    and sum of squared deviations are merged into the running ones by the
    pairwise update of Chan, Golub and LeVeque (1979).  A single block gives
    exactly ``np.mean`` and ``np.std(ddof=1) / sqrt(n)``.
    """
    n_samples = len(distances)
    if n_samples < 2:
        raise ValueError(f"a standard error needs 2 or more distances, got {n_samples}")
    mean = squares = 0.0
    for start in range(0, n_samples, BLOCK):
        fid = table(distances[start : start + BLOCK])
        block_mean = float(np.mean(fid))
        # the block's share of the samples so far: exactly 1 on the first block,
        # which so adds exactly its own mean and squares
        shift, share = block_mean - mean, len(fid) / (start + len(fid))
        mean += shift * share
        squares += float(np.sum(np.square(fid - block_mean))) + shift**2 * start * share
    stderr = math.sqrt(squares / (n_samples - 1)) / math.sqrt(n_samples)
    return FidelityReport(mean, n_samples, stderr)


def decay_error(exposure: float, lifetime_ms: float) -> float:
    """Rydberg decay error: the exposure (us) over the lifetime (ms), dimensionless;
    infinite for a lifetime too short to divide by."""
    return exposure / (lifetime_ms * 1e3)

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
phase.  It is tabulated once over the u the grid reaches, which takes the
spreads and the trap separation in units of L (:func:`reduced`), and
interpolated; a lookup outside it is an error.  The grid reaches the same
u at every step, in closed form, so the window is known before any draw;
the Monte Carlo takes the few draws beyond it from the closed form and
counts them.  Second, the grid sum depends on each coordinate pair only
through its difference; regrouping the product weights into difference
weights (a discrete autocorrelation) collapses the 6-D sum to 3-D without
changing its value.  The y and z differences
enter the distance only squared and their weights are symmetric, so each
is folded onto its nonnegative half with the weights of the two signs
summed.

Everything runs in blocks of about ``BLOCK`` points, and each block reuses
one set of buffers.  The table evaluates its spline in knot units, so a
lookup is an interval index, four gathers and Horner's rule.  The grid
streams whole x-difference rows of the folded grid: it forms each
point's knot coordinate from squared differences precomputed in knot
units, evaluates the block in place and reduces it against its weights by
two matrix-vector products.  The draw forms its distances a block at a
time, one coordinate difference after another, from normals of the
package's own counter-based stream (SplitMix64 and Marsaglia's polar
method, :class:`_NormalStream`), so a seed draws alike under every numpy
version and CPU whose float64 ``log`` rounds alike (numpy's vectorized
``log`` differs from the C library's in the last bit for about 0.35% of
arguments in (0, 1), so another CPU or build may round some of them
otherwise), and the Monte Carlo never imports ``numpy.random``.  The Monte Carlo
evaluates each block in place, prices its draws beyond the table's window
by the closed form, in their slots, and merges each block's mean and sum
of squared deviations.  So no average forms a full-size distance, weight
or fidelity array.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import astuple, dataclass, fields

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
    "reduced",
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
#: reports ``FidelityTable.spline_errors``, the first the error measured at every
#: knot interval's midpoint: 0.92x, 0.75x and 1.00x of the probes' on those windows.
KNOT_SPACING = 1.0 / 3072

#: Most knots a table may have: a window some 40 design separations wide.
MAX_KNOTS = 2**17

#: Points per block of a spline evaluation, a grid average (whole rows, at least
#: one) or a Monte Carlo draw.  A block's arrays (128 KB each) stay in cache and in
#: memory already mapped.  Against 2**14, in 25 interleaved in-process pairs on a
#: 2-vCPU Xeon (the 16-row temperature sweep at grid step 0.05; the reference
#: ``fidelity`` run): 2**13 is slower, faster in 1 and 4 pairs (medians 124.9 against
#: 105.0 ms; 104.9 against 99.3 ms); 2**15 and 2**16 are 3-7% faster, in 21 to 24
#: pairs, but double or quadruple every buffer; 2**17 is 9% slower on the sweep and 3%
#: faster on ``fidelity``.
#: The table, the grid and the Monte Carlo reuse theirs from block to block: freeing
#: them each block made the allocator return the heap top to the system and fault it
#: back in.
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

    Each coordinate runs over {-1.5, -1.5+delta, ..., 1.5} in units of its own
    sigma, in ``steps`` intervals.  ``delta`` must divide the full 3-sigma span
    so the listed endpoints are actually reachable and the grid stays uniform.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta <= GRID_HALF_RANGE:
            raise ValueError(f"delta must lie in (0, {GRID_HALF_RANGE}], got {self.delta!r}")
        if abs(self.steps * self.delta - 2.0 * GRID_HALF_RANGE) > 1e-9:
            raise ValueError(
                f"delta {self.delta!r} does not evenly divide the +-{GRID_HALF_RANGE} sigma range"
            )

    @property
    def steps(self) -> int:
        """m, the intervals per coordinate: the 3-sigma span over ``delta``, rounded."""
        return round(2.0 * GRID_HALF_RANGE / self.delta)

    def points(self) -> np.ndarray:
        """Dimensionless grid nodes from -1.5 to +1.5 inclusive."""
        return np.linspace(-GRID_HALF_RANGE, GRID_HALF_RANGE, self.steps + 1)


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of a Monte Carlo average: the mean over ``sample_count``
    samples, its standard error, and how many of the samples lay outside the
    table's window and took the closed form."""

    mean_fidelity: float
    sample_count: int
    stderr: float
    direct_evaluations: int


def inflate_sigmas(cfg: NoiseConfig, t_gate: float) -> InflatedSigmas:
    """Add the free-flight drift to the trap position spreads.

    The one-axis thermal speed is v_rms = sqrt(kB*T/m); over a gate of
    duration ``t_gate`` (us) the average position change is
    v_rms*t_gate/2, which inflates both spreads additively.
    """
    # in Python floats, whose products overflow to inf silently: a hot or light atom on a slow
    # gate inflates the spreads to inf, which the averages' windows then refuse
    v_rms = math.sqrt(KB * float(cfg.temperature) * 1e-6 / float(cfg.atom_mass))  # m/s == um/us
    flight = v_rms * float(t_gate)
    return InflatedSigmas(
        sigma_z=cfg.sigma_z0 + flight / 2.0,
        sigma_perp=cfg.sigma_perp0 + flight / 2.0,
        flight_length=flight,
    )


def reduced(protocol: GateProtocol, ncfg: NoiseConfig) -> tuple[InflatedSigmas, InflatedSigmas, float]:
    """The spreads of ``ncfg`` inflated over ``protocol``'s gate, in um; then those spreads
    and the trap separation in design separations L, the fidelity table's unit: the
    ``sigmas`` and ``separation`` arguments of the averages."""
    sigmas, length = inflate_sigmas(ncfg, protocol.t_gate), protocol.separation
    return sigmas, InflatedSigmas(*(value / length for value in astuple(sigmas))), ncfg.trap_separation / length


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
        self._design = VdwModel(protocol.nominal_interaction)
        spacing = KNOT_SPACING * max(1.0, lo)
        if not (0.0 < lo <= hi and (hi - lo) / spacing < MAX_KNOTS):
            raise ValueError(
                f"table window [{lo!r}, {hi!r}] needs 0 < lo <= hi and under {MAX_KNOTS} knots"
            )
        hi = max(hi, lo + spacing)
        self.distances = np.linspace(lo, hi, max(4, math.ceil((hi - lo) / spacing) + 1))
        self.values = self._exact(self.distances)
        self._coefficients = _spline_coefficients(self.values)
        # a block's interval indices, offsets and coefficients, reused by every block
        self._scratch = np.empty(BLOCK, dtype=np.intp), np.empty(BLOCK), np.empty(BLOCK)

    def __call__(self, dist):
        """Fidelity at a distance (a float) or an array of them (same shape).  The input's
        minimum and maximum check the window (a NaN fails both); then its knot coordinates fill
        the output, which :meth:`_evaluate` evaluates in place, ``BLOCK`` at a time in the
        table's scratch arrays, so a table serves one call at a time."""
        dist = np.asarray(dist, dtype=float)
        flat = dist.ravel()
        lo, hi = self.distances[0], self.distances[-1]
        if flat.size and not (lo <= flat.min() and flat.max() <= hi):
            bad = float(flat[~((flat >= lo) & (flat <= hi))][0])
            raise ValueError(f"distance {bad!r} lies outside the fidelity table's window [{lo!r}, {hi!r}]")
        out = self._evaluate(self._knot_coordinates(flat, np.empty(flat.size)))
        return float(out[0]) if dist.ndim == 0 else out.reshape(dist.shape)

    def _knot_coordinates(self, dist: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Distances ``dist`` as knot coordinates (d - lo) (n-1) / (hi - lo), knot i at i,
        written into and returned as ``t``."""
        lo, hi = self.distances[0], self.distances[-1]
        return np.multiply(np.subtract(dist, lo, out=t), (len(self.distances) - 1) / (hi - lo), out=t)

    def _evaluate(self, t: np.ndarray) -> np.ndarray:
        """The spline at the knot coordinates of the 1-D array ``t``, in place, ``BLOCK`` at a time.
        A coordinate above -1 takes its interval's cubic (truncation toward zero floors it), the
        last from n-2 on, so one an ulp outside [0, n-1] extrapolates an end cubic by an ulp."""
        last = len(self.distances) - 2
        for start in range(0, len(t), BLOCK):
            block = t[start : start + BLOCK]
            index, offset, coefficient = (scratch[: len(block)] for scratch in self._scratch)
            # in floats, which run several times faster than integer minimum and subtraction
            np.minimum(np.trunc(block, out=offset), last, out=offset)
            np.copyto(index, offset, casting="unsafe")
            np.subtract(block, offset, out=offset)
            # Horner's rule; every index is in range, and mode "raise" would buffer each output
            np.take(self._coefficients[0], index, out=block, mode="clip")
            for row in self._coefficients[1:]:
                block *= offset
                block += np.take(row, index, out=coefficient, mode="clip")
        return t

    def _exact(self, dist: np.ndarray) -> np.ndarray:
        """The closed-form fidelity at distances ``dist`` in design separations."""
        return gate_fidelity(self.protocol, vdw_interaction(self._design, dist))

    def spline_errors(self) -> tuple[float, float]:
        """Largest gap between the table and the closed-form fidelity at the
        midpoint of every knot interval, where a cubic spline's error peaks, and
        the largest over the interior intervals 1..n-3 alone: one fidelity call and
        one lookup over the n-1 midpoints.  The first normally peaks in the first,
        not-a-knot interval, which only the nearest Monte Carlo draws reach: on the
        reference run's 357-knot table 3.24e-12 there, 2.28e-12 in the last and
        1.29e-12 in between."""
        midpoints = 0.5 * (self.distances[:-1] + self.distances[1:])
        gaps = np.abs(self(midpoints) - self._exact(midpoints))
        return float(gaps.max()), float(gaps[1:-1].max())


def _spline_coefficients(values: np.ndarray) -> np.ndarray:
    """Power-basis coefficients, shape (4, n-1), of the not-a-knot cubic
    spline through ``values`` at knot coordinates 0, 1, ..., n-1.

    Row k multiplies (t - i)**(3-k) on interval i.  The knot slopes s
    solve the tridiagonal equations of C2 continuity plus the not-a-knot
    end conditions (third derivative continuous across the second and the
    second-last knot); one Thomas sweep solves them, and its last pivot is
    nonzero for n >= 4.
    """
    m = np.diff(values)
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
    curvature = slopes[:-1] + slopes[1:] - 2.0 * m
    return np.stack([curvature, m - slopes[:-1] - curvature, slopes[:-1], values[:-1]])


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
    n = grid.steps
    diff_offsets = np.arange(-n, n + 1) * (2.0 * GRID_HALF_RANGE) / n
    return diff_offsets, diff_weights


def grid_window(sigmas: InflatedSigmas, separation: float) -> tuple[float, float]:
    """Nearest and farthest qubit distance on the position grid of any step, traps s apart:
    [s - 3 sigma_perp, sqrt((s + 3 sigma_perp)**2 + (3 sigma_perp)**2 + (3 sigma_z)**2)],
    as every step's differences end at exactly +-3 sigma.  A grid that reaches zero
    distance (3 sigma_perp at or past s) gets a nearest end at or below 0."""
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
    x-difference rows of the folded difference grid.  A :func:`grid_window`
    outside the table's window raises ValueError before any work.
    """
    lo, hi = table.distances[0], table.distances[-1]
    near, far = grid_window(sigmas, separation)
    if not (lo <= near and far <= hi):
        raise ValueError(
            f"grid window [{near!r}, {far!r}] lies outside the fidelity table's window [{lo!r}, {hi!r}]"
        )
    offsets, weights = _difference_weights(grid)
    # y and z differences enter only squared: fold -k onto +k, summing weights
    n = len(offsets) // 2
    folded = weights[n:].copy()
    folded[1:] += weights[n - 1::-1]
    plane_weights = np.outer(folded, folded).ravel()
    # the squared differences in knot units, k knots per unit distance: a point's
    # knot coordinate is k d - k lo, k d the root of its x term plus its y-z term
    k = (len(table.distances) - 1) / (hi - lo)
    axial = ((offsets * sigmas.sigma_perp - separation) * k) ** 2  # x_c - x_t
    dy2, dz2 = (offsets[n:] * sigmas.sigma_perp * k) ** 2, (offsets[n:] * sigmas.sigma_z * k) ** 2
    plane = np.add.outer(dy2, dz2).ravel()
    rows = max(1, BLOCK // plane.size)
    total = norm = 0.0
    # one block of knot coordinates, reused by every x-difference row block
    buffer = np.empty((rows, plane.size))
    for start in range(0, len(axial), rows):
        x_weights = weights[start : start + rows]
        t = buffer[: len(x_weights)]
        np.add(axial[start : start + rows, None], plane, out=t)
        np.sqrt(t, out=t)
        t -= lo * k
        table._evaluate(t.reshape(-1))
        total += x_weights @ (t @ plane_weights)
        norm += x_weights.sum()
    return float(total / (norm * plane_weights.sum()))


#: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment of its state and the two
#: multipliers of its output mix, a bijection of 64-bit words.
_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_WORD = 2**64 - 1

#: Most polar attempts a :class:`_NormalStream` mixes at once: what it asks for one ``BLOCK``
#: of normals, BLOCK/2 pairs at an acceptance of pi/4, so a block's difference takes one batch.
_ATTEMPTS = (BLOCK // 2) * 4 // 3 + 16


def _mix(words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of the uint64 array ``words``, in place (``scratch`` as long);
    uint64 arrays wrap silently, where scalars warn."""
    for shift, multiplier in zip((30, 27), _MULTIPLIERS):
        words ^= np.right_shift(words, shift, out=scratch)
        words *= multiplier
    words ^= np.right_shift(words, 31, out=scratch)
    return words


def _seed_key(seed: int) -> int:
    """The stream key of a seed in [0, 2**64): its SplitMix64 mix, one to one."""
    words = np.array([seed], dtype=np.uint64)
    return int(_mix(words, np.empty_like(words))[0])


class _NormalStream:
    """Standard normals from a counter-based stream: SplitMix64 from state ``key``, whose word c
    (from 1) is the mix of key + c gamma, and Marsaglia's polar method (Marsaglia & Bray, SIAM
    Rev. 6, 260, 1964).  Polar attempt a takes words 2a+1 and 2a+2, each read as the uniform
    (2t+1) 2**-53 on (-1, 1), t its top 53 bits as a signed integer, so never 0; it is accepted
    if s = u*u + v*v < 1 and gives the normals u r and v r, r = sqrt(-2 ln(s) / s).  A request
    for n normals takes the next ceil(n/2) accepted attempts, in order, and drops the second
    normal of the last if n is odd.  The counter ``attempts`` advances only over the attempts
    used, so the normals do not depend on how many attempts are mixed at once (at most
    ``_ATTEMPTS``).  Its buffers serve every request."""

    def __init__(self, key: int):
        self.key, self.attempts = key, 0
        # the Weyl steps c gamma of one batch's words, the words, their uniforms, and s
        self._weyl = np.arange(1, 2 * _ATTEMPTS + 1, dtype=np.uint64)
        self._weyl *= _GAMMA
        self._words, self._uniforms = np.empty_like(self._weyl), np.empty(2 * _ATTEMPTS)
        self._squares = np.empty(_ATTEMPTS)

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Fill the 1-D float array ``out`` with the stream's next normals, and return it."""
        done, n = 0, len(out)
        while done < n:
            pairs = (n - done + 1) // 2
            count = min(len(self._squares), pairs * 4 // 3 + 16)  # 1/acceptance is 4/pi, 1.27
            # word c is the mix of key + c gamma: 2 count words from 2 attempts + 1 on
            batch = np.add(self._weyl[: 2 * count], (self.key + 2 * self.attempts * _GAMMA) & _WORD,
                           out=self._words[: 2 * count])
            u = self._uniforms[: 2 * count]
            _mix(batch, u.view(np.uint64))
            # 2t+1 from the top 53 bits t as a signed integer: an odd integer below 2**53 in size
            signed = np.right_shift(batch.view(np.int64), 10, out=batch.view(np.int64))
            signed |= 1
            np.copyto(u, signed, casting="unsafe")
            u *= 2.0**-53
            square = np.square(u, out=batch.view(float))
            s = np.add(square[0::2], square[1::2], out=self._squares[:count])
            used = np.flatnonzero(s < 1.0)[:pairs]
            k = len(used)
            self.attempts += count if k < pairs else int(used[-1]) + 1
            # r for each accepted attempt, in the words' scratch
            # every index is in range, and mode "raise" would buffer each output
            accepted = np.take(s, used, out=square[:k], mode="clip")
            r = np.log(accepted, out=square[count : count + k])
            r *= -2.0
            r /= accepted
            np.sqrt(r, out=r)
            full = min(k, (n - done) // 2)
            block = out[done : done + 2 * full]
            np.take(u.view(complex), used[:full], out=block.view(complex), mode="clip")
            block[0::2] *= r[:full]
            block[1::2] *= r[:full]
            done += 2 * full
            if full < k:
                out[done] = u[2 * used[-1]] * r[-1]
                done += 1
        return out


def draw_distances(
    sigmas: InflatedSigmas, separation: float, n_samples: int, seed: int, truncate: float | None = None
) -> Iterator[np.ndarray]:
    """Qubit distances of ``n_samples`` Monte Carlo position draws, the traps
    ``separation`` apart (the spreads' unit), yielded ``BLOCK`` samples at a time.

    The distance depends on the six offsets only through the differences
    x_c - x_t, y_c - y_t and z_c - z_t.  Untruncated (the default), each is
    the difference of two independent N(0, sigma**2) offsets, so it is drawn
    directly as N(0, 2 sigma**2): a block takes BLOCK normals per difference,
    x, y, then z.  With ``truncate=GRID_HALF_RANGE`` (the grid's support) a
    block takes the control's then the target's offsets per difference,
    redraws each until it lies within ``truncate`` sigma, and takes their
    difference.  The normals come from :class:`_NormalStream`, keyed by
    ``seed`` (0 to 2**64 - 1), a package-owned stream: a seed draws alike under
    every numpy version and CPU whose float64 ``log`` rounds alike, as the
    normals take numpy's ``log``, whose last bit can differ across CPUs and
    builds.  A block is formed one difference at a time, in the distance
    buffer and one buffer of normals; it is a view of the distance buffer that
    the next block overwrites (copy a block to keep it), so a draw holds a few
    blocks however many samples it yields.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    stream = _NormalStream(_seed_key(seed))
    size = min(BLOCK, n_samples)
    dist, normals = np.empty(size), np.empty(size if truncate is None else 2 * size)
    # in Python floats, whose products overflow to inf silently; a distance that overflows to
    # inf or NaN is refused by the average, and the error state never spans a yield
    factor = math.sqrt(2.0) if truncate is None else 1.0
    perp, z = factor * float(sigmas.sigma_perp), factor * float(sigmas.sigma_z)
    for start in range(0, n_samples, BLOCK):
        m = min(BLOCK, n_samples - start)
        for axis, scale in enumerate((perp, perp, z)):
            if truncate is None:
                diff = stream.fill(normals[:m])
            else:
                offsets = stream.fill(normals[: 2 * m])
                # only a redrawn offset can still be out of range: the index of
                # those shrinks each pass, in the order a mask would take them
                redraw = np.flatnonzero(np.abs(offsets) > truncate)
                while redraw.size:
                    offsets[redraw] = stream.fill(np.empty(redraw.size))
                    redraw = redraw[np.abs(offsets[redraw]) > truncate]
                diff = np.subtract(offsets[:m], offsets[m:], out=offsets[:m])
            with np.errstate(over="ignore", invalid="ignore"):
                diff *= scale
                if axis == 0:
                    diff -= separation
                    np.square(diff, out=dist[:m])
                else:
                    dist[:m] += np.square(diff, out=diff)
        yield np.sqrt(dist[:m], out=dist[:m])


def _merged(moments, values: np.ndarray):
    """The running ``moments`` (mean, sum of squared deviations, count) merged
    with those of ``values`` by the pairwise update of Chan, Golub and LeVeque
    (1979); ``values`` are overwritten with their deviations."""
    mean, squares, total = moments
    count = len(values)
    block_mean = float(np.sum(values)) / count
    spread = np.subtract(values, block_mean, out=values)
    # the block's share of the samples so far: exactly 1 on the first block,
    # which so adds exactly its own mean and squares
    shift, share = block_mean - mean, count / (total + count)
    squares += float(np.sum(np.square(spread, out=spread))) + shift**2 * total * share
    return mean + shift * share, squares, total + count


def monte_carlo_average_fidelity(
    table: FidelityTable,
    sigmas: InflatedSigmas,
    separation: float,
    n_samples: int,
    seed: int,
    truncate: float | None = None,
) -> FidelityReport:
    """Mean fidelity over ``n_samples`` :func:`draw_distances` draws (same
    arguments), with its standard error; one draw has no standard error.

    Each block of draws is looked up in ``table``, in place in the draw's
    buffer, where it lies in the table's window.  The block's draws outside
    it (NaN included) take the closed form on their own, written into their
    slots, so they cost work in their number only; the report counts them in
    ``direct_evaluations``.  An outside distance that is not finite, or so
    near that its interaction overflows, raises ValueError.  Each block
    merges once into the running mean and sum of squared deviations
    (:func:`_merged`); a single block gives exactly ``np.mean`` and
    ``np.std(ddof=1) / sqrt(n)``.  The buffers are allocated once per call.
    """
    if n_samples < 2:
        raise ValueError(f"a standard error needs 2 or more samples, got {n_samples}")
    lo, hi = table.distances[0], table.distances[-1]
    size = min(BLOCK, n_samples)
    mask, below_hi = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    moments, direct = (0.0, 0.0, 0), 0
    for block in draw_distances(sigmas, separation, n_samples, seed, truncate):
        m = len(block)
        # outside the window: not lo <= d <= hi, as NaN is not
        np.greater_equal(block, lo, out=mask[:m])
        np.logical_and(mask[:m], np.less_equal(block, hi, out=below_hi[:m]), out=mask[:m])
        outside = np.flatnonzero(np.logical_not(mask[:m], out=mask[:m]))
        if outside.size:
            far = block[outside]
            if not np.isfinite(far).all():
                raise ValueError(f"a Monte Carlo distance is {float(far[~np.isfinite(far)][0])!r}")
            exact, direct = table._exact(far), direct + outside.size
            block[outside] = lo
        values = table._evaluate(table._knot_coordinates(block, block))
        if outside.size:
            values[outside] = exact
        moments = _merged(moments, values)
    mean, squares, _ = moments
    stderr = math.sqrt(squares / (n_samples - 1)) / math.sqrt(n_samples)
    return FidelityReport(mean, n_samples, stderr, direct)


def decay_error(exposure: float, lifetime_ms: float) -> float:
    """Rydberg decay error: the exposure (us) over the lifetime (ms), dimensionless;
    infinite for a lifetime too short to divide by."""
    return exposure / (lifetime_ms * 1e3)

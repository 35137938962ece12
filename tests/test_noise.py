import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st

from rydvdw import MHZ
from rydvdw.gates import gate_fidelity
from rydvdw.geometry import VdwModel, vdw_interaction
from rydvdw.noise import (
    BLOCK,
    KNOT_SPACING,
    MAX_KNOTS,
    FidelityTable,
    GridSpec,
    InflatedSigmas,
    NoiseConfig,
    decay_error,
    draw_distances,
    grid_average_fidelity,
    grid_window,
    inflate_sigmas,
    monte_carlo_average_fidelity,
    reduced,
)
from rydvdw import noise
from rydvdw.budget import price
from rydvdw.noise import _GAMMA, _NormalStream, _difference_weights, _mix, _seed_key
from rydvdw.gates import simulate
from rydvdw.protocol import GateProtocol

from .helpers import traced_peak
from .oracles import (
    PolarNormals,
    cubic_spline,
    exact_position_average,
    grid_mean_full,
    monte_carlo_distances,
    phase_gate_fidelity,
    splitmix64,
    truncated_normal_variance,
)

VDW = VdwModel()


def mc_average(protocol, noise, n_samples, seed, truncate=None):
    """The fidelity command's Monte Carlo path: the table over the grid window
    in design separations, then the priced draw on it."""
    (report,) = price(protocol, noise, (), n_samples, seed, truncate).mc
    return report


def drawn(*args, **kwargs):
    """Every distance of a :func:`draw_distances` draw, each block copied out
    of the buffer that the next block overwrites."""
    return np.concatenate([block.copy() for block in draw_distances(*args, **kwargs)])


def closed_form(protocol, dist):
    """The fidelity at distances ``dist`` in design separations, from the kernel."""
    return gate_fidelity(protocol, vdw_interaction(VdwModel(protocol.nominal_interaction), dist))


def centered_table(protocol, spacings):
    """A table ``spacings`` knot spacings wide (just under, so that it has
    exactly ``ceil(spacings) + 1`` knots) centered on the design separation."""
    half = 0.5 * spacings * (1 - 1e-9) * KNOT_SPACING
    return FidelityTable(protocol, 1.0 - half, 1.0 + half)


def horner_reference(table, dist):
    """The table's spline at ``dist`` in one pass over the whole array."""
    dist = np.asarray(dist, dtype=float)
    lo, hi = table.distances[0], table.distances[-1]
    t = (dist.ravel() - lo) * ((len(table.distances) - 1) / (hi - lo))
    return knot_reference(table, t).reshape(dist.shape)


def knot_reference(table, t):
    """The table's spline at the knot coordinates ``t`` (knot i at i) in one pass."""
    index = np.minimum(t.astype(np.intp), len(table.distances) - 2)
    offset = t - index
    out = table._coefficients[0][index]
    for row in table._coefficients[1:]:
        out *= offset
        out += row[index]
    return out


def unfolded_grid_mean(table, sigmas, separation, delta):
    """The grid mean as the unfolded 3-D sum over all (2m+1)**3 differences,
    built from scratch (the literal 6-D sum takes about 45 s at delta 0.1)."""
    m = round(3 / delta)
    nodes = np.linspace(-1.5, 1.5, m + 1)
    weights = np.exp(-0.5 * nodes**2)
    weights = np.convolve(weights, weights) / weights.sum() ** 2
    offsets = np.linspace(-3.0, 3.0, 2 * m + 1)
    dx = offsets[:, None, None] * sigmas.sigma_perp - separation
    dy = offsets[None, :, None] * sigmas.sigma_perp
    dz = offsets[None, None, :] * sigmas.sigma_z
    fid = table(np.sqrt(dx**2 + dy**2 + dz**2))
    w = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    return np.sum(w * fid) / np.sum(w)


class ConstantTable:
    """Stand-in fidelity table returning a fixed value on [1e-3, 1e3]."""

    distances = np.array([1e-3, 1e3])

    def __init__(self, value=1.0):
        self.value = value

    def _evaluate(self, t):
        t[...] = self.value
        return t


class CountingTable:
    """Wraps a fidelity table's spline evaluation (``table._evaluate``, or
    ``kernel`` on the knot coordinates) and keeps a copy of every knot coordinate
    it is given and of the value it returns (the grid reuses one buffer for
    every block)."""

    def __init__(self, table, kernel=None):
        self.distances = table.distances
        self.kernel = table._evaluate if kernel is None else kernel
        self.evaluated, self.values = [], []

    def _evaluate(self, t):
        self.evaluated.append(t.copy())
        t[...] = self.kernel(t)
        self.values.append(t.copy())
        return t

    @property
    def lookups(self):
        return sum(t.size for t in self.evaluated)


class TestInflateSigmas:
    def test_reference_point(self, nominal_noise, nominal_protocol):
        sigmas = inflate_sigmas(nominal_noise, nominal_protocol.t_gate)
        assert abs(sigmas.sigma_z - 1.52) < 0.01
        assert abs(sigmas.sigma_perp - 0.32) < 0.01

    def test_vrms_against_constants_arithmetic(self, nominal_noise, nominal_protocol):
        sigmas = inflate_sigmas(nominal_noise, nominal_protocol.t_gate)
        # oracle: sqrt(kB * T / m) from scipy.constants, in m/s == um/us
        mass = 86.909180527 * scipy.constants.atomic_mass
        expected = np.sqrt(scipy.constants.k * 10e-6 / mass)
        v_rms = sigmas.flight_length / nominal_protocol.t_gate
        assert np.isclose(v_rms, expected, rtol=1e-12)
        assert abs(v_rms - 0.031) < 1e-4

    def test_cold_limit_recovers_bare_sigmas(self, nominal_protocol):
        cfg = NoiseConfig(trap_separation=21.0, temperature=1e-30)
        sigmas = inflate_sigmas(cfg, nominal_protocol.t_gate)
        assert np.isclose(sigmas.sigma_z, cfg.sigma_z0, atol=1e-12)
        assert np.isclose(sigmas.sigma_perp, cfg.sigma_perp0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(trap_separation=21.0, temperature=-1.0)
        with pytest.raises(ValueError):
            NoiseConfig(trap_separation=0.0)


class TestGridSpec:
    def test_grid_points_quarter_step(self):
        points = GridSpec(0.25).points()
        assert len(points) == 13
        assert points[0] == -1.5 and points[-1] == 1.5
        assert np.allclose(points + points[::-1], 0.0, atol=1e-12)

    def test_all_reference_steps_divide_the_range(self):
        for delta, count in ((0.25, 13), (0.2, 16), (0.15, 21), (0.12, 26), (0.1, 31)):
            points = GridSpec(delta).points()
            assert len(points) == count
            assert points[0] == -1.5 and points[-1] == 1.5

    def test_validation(self):
        for delta in (0.0, -0.1, 1.6, 0.4):  # 0.4 does not divide the 3-sigma span
            with pytest.raises(ValueError):
                GridSpec(delta)


class TestWeights:
    @pytest.mark.parametrize("delta", [0.25, 0.2, 0.15, 0.12, 0.1, 0.75])
    def test_average_of_constant_is_one(self, delta):
        table = ConstantTable(1.0)
        sigmas = InflatedSigmas(sigma_z=1.5, sigma_perp=0.3, flight_length=0.1)
        mean = grid_average_fidelity(table, sigmas, 21.0, GridSpec(delta))
        assert abs(mean - 1.0) < 1e-14

    def test_difference_weights_normalized_and_symmetric(self):
        offsets, weights = _difference_weights(GridSpec(0.25))
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.allclose(weights, weights[::-1], atol=1e-15)
        assert np.allclose(offsets, -offsets[::-1], atol=1e-15)
        assert len(offsets) == 2 * 13 - 1

    def test_paired_equals_full_enumeration(self, nominal_table, reduced_sigmas):
        for delta in (0.75, 0.5, 0.25):
            spec = GridSpec(delta)
            paired = grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, spec)
            full = grid_mean_full(
                nominal_table, delta, reduced_sigmas.sigma_perp, reduced_sigmas.sigma_z, 1.0
            )
            assert abs(paired - full) < 1e-12

    def test_folded_grid_lookup_count(self, nominal_table, reduced_sigmas):
        # delta 0.1: m = 30 steps per 3 sigma; dx keeps both signs, dy and dz fold
        counting = CountingTable(nominal_table)
        paired = grid_average_fidelity(counting, reduced_sigmas, 1.0, GridSpec(0.1))
        assert counting.lookups == 61 * 31**2
        assert abs(paired - unfolded_grid_mean(nominal_table, reduced_sigmas, 1.0, 0.1)) < 1e-12

    @pytest.mark.parametrize("delta", [0.25, 0.1, 3 / 47])
    @pytest.mark.parametrize("block", ["1", "7", "plane-1", "plane", "plane+1", "default"])
    def test_block_edges(self, nominal_table, reduced_sigmas, monkeypatch, delta, block):
        # a block is whole x-difference rows of (m+1)**2 points, at least one: up
        # to plane+1 each block is one row, the default holds several and a rest
        m = round(3 / delta)
        plane = (m + 1) ** 2
        sizes = {"1": 1, "7": 7, "plane-1": plane - 1, "plane": plane, "plane+1": plane + 1}
        unfolded = unfolded_grid_mean(nominal_table, reduced_sigmas, 1.0, delta)
        monkeypatch.setattr("rydvdw.noise.BLOCK", sizes.get(block, BLOCK))
        # evaluated in one pass, so that BLOCK splits the grid only
        counting = CountingTable(nominal_table, partial(knot_reference, nominal_table))
        paired = grid_average_fidelity(counting, reduced_sigmas, 1.0, GridSpec(delta))
        assert counting.lookups == (2 * m + 1) * plane
        assert abs(paired - unfolded) < 1e-12


class TestFidelityTable:
    def test_matches_direct_simulation_on_grid_distances(
        self, nominal_protocol, nominal_table, nominal_sigmas, nominal_noise
    ):
        # distances (um) that actually occur on the quadrature grid, looked up at u = d/L
        rng = np.random.default_rng(11)
        sep = nominal_noise.trap_separation
        lo = sep - 3 * nominal_sigmas.sigma_perp
        hi = np.sqrt(
            (sep + 3 * nominal_sigmas.sigma_perp) ** 2
            + (3 * nominal_sigmas.sigma_perp) ** 2
            + (3 * nominal_sigmas.sigma_z) ** 2
        )
        for dist in rng.uniform(lo, hi, 50):
            direct = gate_fidelity(nominal_protocol, vdw_interaction(VDW, dist))
            assert abs(nominal_table(dist / nominal_protocol.separation) - direct) < 1e-10

    def test_out_of_window_raises(self, nominal_table):
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        for far in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
            with pytest.raises(ValueError, match=repr(float(far))):
                nominal_table(far)
            with pytest.raises(ValueError, match="outside the fidelity table's window"):
                nominal_table(np.array([[lo, hi], [far, lo]]))
        with pytest.raises(ValueError):
            nominal_table(np.nan)

    @pytest.mark.parametrize("n_knots", [4, 7, 101, 4001])
    def test_matches_scipy_spline_oracle(self, nominal_protocol, n_knots):
        table = centered_table(nominal_protocol, n_knots - 1)
        assert len(table.distances) == n_knots
        spline = cubic_spline(table.distances, table.values)
        lo, hi = table.distances[0], table.distances[-1]
        rng = np.random.default_rng(n_knots)
        inside = np.concatenate([rng.uniform(lo, hi, 2000), table.distances, [lo, hi]])
        assert np.abs(table(inside) - spline(inside)).max() < 1e-13
        grid = inside[:2000].reshape(40, 50)
        values = table(grid)
        assert values.shape == (40, 50)
        assert np.abs(values - spline(grid)).max() < 1e-13
        for d in (lo, hi, inside[0]):
            value = table(np.float64(d))
            assert isinstance(value, float) and abs(value - spline(d)) < 1e-13

    @given(
        lo=st.one_of(st.floats(0.05, 0.9), st.floats(1.0 - 1e-3, 1.0 + 1e-3), st.floats(30.0, 1e6)),
        knots=st.integers(4, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_knot_unit_kernel_matches_scipy_spline(self, nominal_protocol, lo, knots, seed):
        # windows below, at and far beyond the design separation, probed at every knot, at lo
        # and hi and at random distances, and evaluated at the integer knot coordinates
        table = FidelityTable(nominal_protocol, lo, lo + (knots - 1) * (1 - 1e-9) * KNOT_SPACING * max(1.0, lo))
        assert len(table.distances) == knots
        spline = cubic_spline(table.distances, table.values)
        lo, hi = table.distances[0], table.distances[-1]
        probe = np.concatenate([table.distances, [lo, hi], np.random.default_rng(seed).uniform(lo, hi, 500)])
        assert np.abs(table(probe) - spline(probe)).max() < 1e-13
        at_knots = table._evaluate(np.arange(knots, dtype=float))
        assert np.abs(at_knots - spline(table.distances)).max() < 1e-13

    def test_needs_four_knots(self, nominal_protocol):
        # a window narrower than three knot spacings (here 1.5) still gets the
        # four a not-a-knot spline needs, and its ends exactly
        lo, hi = 1.0 - 2.5e-4, 1.0 + 2.5e-4
        table = FidelityTable(nominal_protocol, lo, hi)
        assert len(table.distances) == 4
        assert table.distances[0] == lo and table.distances[-1] == hi
        spline = cubic_spline(table.distances, table.values)
        probe = np.linspace(lo, hi, 9)
        assert np.abs(table(probe) - spline(probe)).max() < 1e-13

    @pytest.mark.parametrize("u, width", [(0.9, 0.0), (1.0, 1e-5), (4.8e28, 0.0)])
    def test_collapsed_window_gets_one_knot_spacing(self, nominal_protocol, u, width):
        # atoms at rest, or spreads below an ulp of the trap separation, give
        # lo == hi; 4.8e28 is a 1e30 um trap on the reference design, where
        # 1/3072 lies below one ulp and only a spacing scaled by lo stays distinct
        table = FidelityTable(nominal_protocol, u, u + width)
        spacing = KNOT_SPACING * max(1.0, u)
        assert len(table.distances) == 4 and len(np.unique(table.distances)) == 4
        assert table.distances[0] == u and table.distances[-1] == u + spacing
        assert table(u) == table.values[0]

    def test_knot_spacing_scales_with_separation(self, nominal_protocol):
        # KNOT_SPACING design separations apart, or KNOT_SPACING * lo for a window beyond L
        for lo, hi in ((0.9, 1.15), (0.15, 0.55), (1.6, 2.3), (3.2, 11.4)):
            table = FidelityTable(nominal_protocol, lo, hi)
            spacing = KNOT_SPACING * max(1.0, lo)
            assert len(table.distances) == int(np.ceil((hi - lo) / spacing)) + 1
            assert np.diff(table.distances).max() <= spacing * (1 + 1e-9)
            assert table.distances[0] == lo and table.distances[-1] == hi
        with pytest.raises(ValueError, match=f"under {MAX_KNOTS} knots"):
            FidelityTable(nominal_protocol, 0.05, 1e5)

    def test_rejects_range_reaching_zero_distance(self, nominal_protocol):
        for lo, hi in ((0.0, 5.0), (-1.0, 5.0), (6.0, 5.0), (np.nan, 5.0)):
            with pytest.raises(ValueError, match="0 < lo <= hi"):
                FidelityTable(nominal_protocol, lo, hi)

    def test_batched_build_matches_pointwise_evaluation(self, nominal_protocol):
        table = centered_table(nominal_protocol, 100)
        design = VdwModel(nominal_protocol.nominal_interaction)
        pointwise = [gate_fidelity(nominal_protocol, vdw_interaction(design, float(u))) for u in table.distances]
        assert np.abs(table.values - pointwise).max() < 1e-13

    @given(
        cnot=st.booleans(),
        theta=st.floats(0.1 * np.pi, 1.9 * np.pi),
        omega_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
        temperature=st.floats(1.0, 32.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_spline_error_bound(self, cnot, theta, omega_mhz, temperature, seed):
        # a window as wide as the grid and 2e4 draws reach, in design
        # separations, against the fidelity at the distance in um
        theta = np.pi if cnot else theta
        kind = "cnot" if cnot else "cz"
        protocol = GateProtocol.solve(theta, omega_mhz * MHZ, omega_mhz * MHZ, VDW, kind)
        noise = NoiseConfig(trap_separation=protocol.separation, temperature=temperature)
        scaled = reduced(protocol, noise)[1:]
        lo, hi = grid_window(*scaled)
        distances = drawn(*scaled, 20_000, seed)
        lo, hi = min(lo, distances.min()), max(hi, distances.max())
        table = FidelityTable(protocol, lo, hi)
        probe = np.random.default_rng(seed).uniform(lo, hi, 200)
        direct = gate_fidelity(protocol, vdw_interaction(VDW, probe * protocol.separation))
        assert np.abs(table(probe) - direct).max() <= 1e-8
        # and near the midpoint error the table reports, at 1e5 probes against the closed form:
        # 0.907-1.0005x over 1000 windows of this domain (1e4 probes, about ten per knot
        # interval, can miss a peak in one end interval and read 0.4x of it)
        probe = np.random.default_rng(seed).uniform(lo, hi, 10**5)
        oracle = phase_gate_fidelity(theta, protocol.omega_target, protocol.nominal_interaction * probe**-6.0)
        worst, interior = table.spline_errors()
        assert 0.85 <= worst / np.abs(table(probe) - oracle).max() <= 1.01
        assert interior <= worst

    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_blocked_lookup_is_the_one_shot_lookup(self, nominal_table, size):
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        dist = np.random.default_rng(size).uniform(lo, hi, size)
        dist[:2] = (lo, hi)[:size]
        values = nominal_table(dist)
        assert values.shape == (size,)
        assert np.array_equal(values, horner_reference(nominal_table, dist))

    def test_blocked_lookup_keeps_the_input_shape(self, nominal_table):
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        grid = np.random.default_rng(5).uniform(lo, hi, (3, BLOCK + 1))
        values = nominal_table(grid)
        assert values.shape == grid.shape
        assert np.array_equal(values, horner_reference(nominal_table, grid))
        value = nominal_table(np.float64(grid[0, 0]))
        assert isinstance(value, float) and value == values[0, 0]

    @pytest.mark.parametrize("far", ["below", "above", "nan", "above, then nan"])
    def test_out_of_window_in_the_last_block_raises(self, nominal_table, far):
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        above = np.nextafter(hi, np.inf)
        # (second block, last block): the error names the first distance outside the window
        second, last = {"below": (lo, np.nextafter(lo, 0.0)), "above": (lo, above), "nan": (lo, np.nan),
                        "above, then nan": (above, np.nan)}[far]
        dist = np.full(3 * BLOCK + 7, lo)
        dist[BLOCK + 5], dist[-2] = second, last
        bad = last if second == lo else second
        with pytest.raises(ValueError, match=f"distance {float(bad)!r} lies outside"):
            nominal_table(dist)

    def test_lookup_memory_is_its_output(self, nominal_table):
        # blocked, a lookup holds its output and one block of temporaries
        dist = np.linspace(nominal_table.distances[0], nominal_table.distances[-1], 10**6)
        assert traced_peak(lambda: nominal_table(dist)) < 1.5 * dist.nbytes

    def test_spline_error_on_the_reference_grid_window(self, nominal_protocol, nominal_table):
        # 1e5 uniform probes against the closed-form fidelity (3.5e-12 measured)
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        probe = np.random.default_rng(3).uniform(lo, hi, 10**5)
        interaction = nominal_protocol.nominal_interaction * probe**-6.0
        oracle = phase_gate_fidelity(nominal_protocol.theta, nominal_protocol.omega_target, interaction)
        assert np.abs(nominal_table(probe) - oracle).max() <= 1e-11

    @pytest.mark.parametrize("window", [(0.9, 1.12), (1.5, 2.5), (0.25, 0.35), (0.001, 0.4)])
    def test_spline_error_against_the_table_error(self, nominal_protocol, window):
        # the midpoint error against the error of 1e5 probes: 0.91x on the first two windows,
        # 0.75x on [0.25, 0.35], where the fidelity wiggles within a knot spacing, 1.00x on the last
        table = FidelityTable(nominal_protocol, *window)
        probe = np.random.default_rng(3).uniform(*window, 10**5)
        interaction = nominal_protocol.nominal_interaction * probe**-6.0
        oracle = phase_gate_fidelity(nominal_protocol.theta, nominal_protocol.omega_target, interaction)
        assert 0.7 <= table.spline_errors()[0] / np.abs(table(probe) - oracle).max() <= 1.0

    def test_spline_error_is_the_midpoint_gap(self, nominal_protocol, nominal_table):
        midpoints = 0.5 * (nominal_table.distances[:-1] + nominal_table.distances[1:])
        interaction = nominal_protocol.nominal_interaction * midpoints**-6.0
        oracle = phase_gate_fidelity(np.pi, nominal_protocol.omega_target, interaction)
        gaps = np.abs(nominal_table(midpoints) - oracle)
        worst, interior = nominal_table.spline_errors()
        assert abs(gaps.max() - worst) <= 1e-14
        # and without the two end intervals: 1.29e-12 on the 357-knot table, 3.24e-12 at its first
        assert abs(gaps[1:-1].max() - interior) <= 1e-14
        assert len(nominal_table.distances) == 357 and interior <= 1.5e-12 < 3e-12 <= worst

    def test_design_distance_is_perfect(self, nominal_table):
        assert abs(nominal_table(1.0) - 1.0) < 1e-9


#: A drive in MHz, log-uniform over 0.1-10.
DRIVES_MHZ = st.floats(np.log(0.1), np.log(10.0)).map(np.exp)


class TestReducedDistance:
    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2),
        drives=st.tuples(DRIVES_MHZ, DRIVES_MHZ, DRIVES_MHZ, DRIVES_MHZ),
        c6_exponent=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_one_table_serves_every_drive_and_c6(self, cnot, theta, drives, c6_exponent):
        # two drive pairs, one at C6 scaled by 1e-2 to 1e2: the tables agree, and so
        # does the fidelity at d = u L propagated in um (at every fourth knot)
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        vdw = VdwModel(VDW.c6 * 10.0**c6_exponent)
        first = GateProtocol.solve(theta, drives[0] * MHZ, drives[1] * MHZ, VDW, kind)
        second = GateProtocol.solve(theta, drives[2] * MHZ, drives[3] * MHZ, vdw, kind)
        table = FidelityTable(first, 0.8, 1.6)
        assert np.abs(FidelityTable(second, 0.8, 1.6).values - table.values).max() < 1e-13
        direct = gate_fidelity(second, vdw_interaction(vdw, table.distances[::4] * second.separation))
        assert np.abs(direct - table.values[::4]).max() < 1e-13

    @given(control_mhz=DRIVES_MHZ, target_mhz=DRIVES_MHZ)
    @settings(max_examples=6, deadline=None)
    def test_cnot_table_is_the_cz_pi_table(self, control_mhz, target_mhz):
        # the CNOT is CZ(pi) in the target's bright/dark basis, which Pedersen's
        # formula does not see
        cnot, cz = (
            GateProtocol.solve(np.pi, control_mhz * MHZ, target_mhz * MHZ, VDW, kind)
            for kind in ("cnot", "cz")
        )
        assert np.abs(FidelityTable(cnot, 0.8, 1.6).values - FidelityTable(cz, 0.8, 1.6).values).max() < 1e-13


class TestGridAverage:
    def test_vanishing_sigma_gives_unity(self, nominal_protocol):
        tiny = InflatedSigmas(sigma_z=5e-9, sigma_perp=5e-9, flight_length=0.0)
        table = FidelityTable(nominal_protocol, *grid_window(tiny, 1.0))
        assert abs(grid_average_fidelity(table, tiny, 1.0, GridSpec(0.25)) - 1.0) < 1e-9

    def test_monotone_refinement(self, reduced_sigmas, nominal_table):
        means = {}
        for delta in (0.5, 0.25, 0.125):
            means[delta] = grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(delta))
        first = abs(means[0.25] - means[0.5])
        second = abs(means[0.125] - means[0.25])
        assert second < first

    @given(
        cnot=st.booleans(),
        theta=st.floats(1e-9, 2 * np.pi, exclude_max=True),
        control_exponent=st.floats(-1.0, 1.0),
        target_exponent=st.floats(-1.0, 1.0),
        reach=st.floats(0.01, 0.99),
        aspect_exponent=st.floats(-1.0, 0.7),
    )
    @settings(max_examples=12, deadline=None)
    def test_paired_equals_full_enumeration_across_parameter_space(
        self, cnot, theta, control_exponent, target_exponent, reach, aspect_exponent
    ):
        # CZ(theta) or CNOT at 0.1-10 MHz drives; 3 sigma_perp = reach * L, and
        # sigma_z from sigma_perp / 10 to 5 sigma_perp, in design separations L
        kind, theta = ("cnot", np.pi) if cnot else ("cz", theta)
        protocol = GateProtocol.solve(
            theta, 10.0**control_exponent * MHZ, 10.0**target_exponent * MHZ, VDW, kind
        )
        sigma_perp = reach / 3
        sigma_z = sigma_perp * 10.0**aspect_exponent
        sigmas = InflatedSigmas(sigma_z=sigma_z, sigma_perp=sigma_perp, flight_length=0.0)
        table = FidelityTable(protocol, *grid_window(sigmas, 1.0))
        for delta in (0.75, 0.5):
            paired = grid_average_fidelity(table, sigmas, 1.0, GridSpec(delta))
            full = grid_mean_full(table, delta, sigma_perp, sigma_z, 1.0)
            assert abs(paired - full) < 1e-12

    def test_finest_grid_memory_is_a_few_blocks(self, reduced_sigmas, nominal_table):
        # delta 0.02, the finest a config may ask for: 301 * 151**2 distances,
        # 55 MB as one array, streamed a row at a time
        peak = traced_peak(lambda: grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(0.02)))
        assert peak < 4e6


class TestGridWindow:
    def test_closed_form(self, nominal_noise, nominal_sigmas):
        sep, perp, z = nominal_noise.trap_separation, nominal_sigmas.sigma_perp, nominal_sigmas.sigma_z
        lo, hi = grid_window(nominal_sigmas, sep)  # in um, the spreads' unit
        assert lo == sep - 3 * perp
        assert np.isclose(hi, np.sqrt((sep + 3 * perp) ** 2 + (3 * perp) ** 2 + (3 * z) ** 2), rtol=1e-15)

    def test_difference_offsets_end_at_exactly_three_sigma(self):
        # the window takes every step's ends at exactly +-3; k * delta misses
        # them by an ulp for 43 of the n <= 600, n = 47 the first
        for n in range(2, 601):
            offsets, _ = _difference_weights(GridSpec(3 / n))
            assert offsets[0] == -3.0 and offsets[n] == 0.0 and offsets[-1] == 3.0
            assert GridSpec(3 / n).steps == n == len(GridSpec(3 / n).points()) - 1

    @pytest.mark.parametrize("delta", [0.5, 0.1, 3 / 47])
    def test_grid_spans_the_table_in_knot_units(self, nominal_table, reduced_sigmas, delta):
        # the table is the grid window: every knot coordinate the grid evaluates lies
        # within a few ulps of [0, n-1], and the nearest and farthest points map to its
        # ends and take the window ends' values (47 * (3/47) is not exactly 3)
        counting = CountingTable(nominal_table)
        grid_average_fidelity(counting, reduced_sigmas, 1.0, GridSpec(delta))
        t, values = np.concatenate(counting.evaluated), np.concatenate(counting.values)
        lo, hi = nominal_table.distances[0], nominal_table.distances[-1]
        last = len(nominal_table.distances) - 1
        ulp = np.spacing(hi * last / (hi - lo))
        assert abs(t.min()) <= 4 * ulp and abs(t.max() - last) <= 4 * ulp
        ends = nominal_table(np.array(grid_window(reduced_sigmas, 1.0)))
        assert np.abs(values[[t.argmin(), t.argmax()]] - ends).max() <= 1e-15

    def test_refuses_a_table_short_of_the_window(self, nominal_protocol, nominal_table, reduced_sigmas):
        # a table one knot spacing short at either end, or a NaN spread, is refused before any work
        lo, hi = grid_window(reduced_sigmas, 1.0)
        for window in ((lo + KNOT_SPACING, hi), (lo, hi - KNOT_SPACING)):
            table = CountingTable(FidelityTable(nominal_protocol, *window))
            with pytest.raises(ValueError, match=re.escape(f"grid window [{lo!r}, {hi!r}] lies outside")):
                grid_average_fidelity(table, reduced_sigmas, 1.0, GridSpec(0.5))
            assert table.lookups == 0
        nan = InflatedSigmas(sigma_z=np.nan, sigma_perp=reduced_sigmas.sigma_perp, flight_length=0.0)
        with pytest.raises(ValueError, match=r"nan\] lies outside the fidelity table's window"):
            grid_average_fidelity(nominal_table, nan, 1.0, GridSpec(0.5))


SPLITMIX64_FROM_ZERO = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestNormalStream:
    def test_splitmix64_known_answers(self):
        # the first three words from state 0, and seed 0 mixes to the key 0
        words = np.arange(1, 4, dtype=np.uint64) * _GAMMA
        assert _mix(words, np.empty_like(words)).tolist() == SPLITMIX64_FROM_ZERO == splitmix64(0, 3)
        assert _seed_key(0) == 0

    def test_every_seed_of_the_schema_has_its_own_key(self):
        # the mix is a bijection of 64-bit words: distinct seeds, distinct keys, none past 2**64
        seeds = [0, 1, 2, 20210901, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
        keys = [_seed_key(seed) for seed in seeds]
        assert len(set(keys)) == len(seeds) and all(0 <= key < 2**64 for key in keys)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_normals_are_the_scalar_reference(self, seed):
        # requests of odd and even sizes, one of a full block: each takes ceil(n/2) pairs
        stream, reference = _NormalStream(_seed_key(seed)), PolarNormals(seed)
        for n in (1, 2, 3, 7, BLOCK, 5, 1):
            assert stream.fill(np.empty(n)).tolist() == reference.take(n)

    @pytest.mark.parametrize("batch", [1, 2, 17, 1000])
    def test_normals_do_not_depend_on_the_batch(self, monkeypatch, batch):
        # the counter advances over the attempts used, however many were mixed
        sizes = (1, 5, 4096, 3, 10_001)
        default = _NormalStream(_seed_key(3))
        monkeypatch.setattr(noise, "_ATTEMPTS", batch)
        small = _NormalStream(_seed_key(3))
        for n in sizes:
            assert np.array_equal(small.fill(np.empty(n)), default.fill(np.empty(n)))
        assert small.attempts == default.attempts

    def test_moments_of_ten_million_normals(self):
        # mean 0, variance 1 and fourth moment 3, each within 5 standard errors:
        # sqrt(1/n), sqrt(2/n) and sqrt(96/n), as E x**8 = 105; streamed in 1e6 chunks
        stream, chunk, n = _NormalStream(_seed_key(20210901)), np.empty(10**6), 10**7
        total = squares = fourth = 0.0
        for _ in range(n // len(chunk)):
            x = stream.fill(chunk)
            x2 = x * x
            total, squares, fourth = total + x.sum(), squares + x2.sum(), fourth + x2 @ x2
        assert abs(total / n) < 5 * math.sqrt(1 / n)
        assert abs(squares / n - 1.0) < 5 * math.sqrt(2 / n)
        assert abs(fourth / n - 3.0) < 5 * math.sqrt(96 / n)


class TestMonteCarlo:
    def test_vanishing_sigma(self, nominal_protocol, nominal_noise):
        # 1e-9 um trap spreads, which a 1e-30 uK free flight widens by some 2e-17 um
        tiny = replace(nominal_noise, sigma_z0=1e-9, sigma_perp0=1e-9, temperature=1e-30)
        report = mc_average(nominal_protocol, tiny, n_samples=2000, seed=3)
        assert abs(report.mean_fidelity - 1.0) < 1e-9
        assert report.stderr < 1e-12

    def test_seed_determinism(self, nominal_sigmas, nominal_noise):
        sep = nominal_noise.trap_separation
        a = drawn(nominal_sigmas, sep, n_samples=5000, seed=99)
        b = drawn(nominal_sigmas, sep, n_samples=5000, seed=99)
        assert np.array_equal(a, b)
        c = drawn(nominal_sigmas, sep, n_samples=5000, seed=100)
        assert not np.array_equal(a, c)
        truncated = partial(drawn, nominal_sigmas, sep, 5000, 99, truncate=1.5)
        assert np.array_equal(truncated(), truncated())

    @pytest.mark.parametrize("seed", [1, 20210901])
    @pytest.mark.parametrize("n_samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_truncated_draw_is_the_rescanning_draw(self, nominal_sigmas, nominal_noise, n_samples, seed):
        # redrawing only the offsets still out of range keeps the stream and the draws
        sep = nominal_noise.trap_separation
        expected = monte_carlo_distances(
            nominal_sigmas.sigma_perp, nominal_sigmas.sigma_z, sep, n_samples, seed, 1.5, BLOCK
        )
        assert np.array_equal(drawn(nominal_sigmas, sep, n_samples, seed, truncate=1.5), expected)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n_samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_untruncated_draw_is_the_scalar_reference(self, nominal_sigmas, nominal_noise, n_samples, seed):
        # the schema's first and last seeds, through the whole draw, bit for bit
        sep = nominal_noise.trap_separation
        expected = monte_carlo_distances(
            nominal_sigmas.sigma_perp, nominal_sigmas.sigma_z, sep, n_samples, seed, None, BLOCK
        )
        assert np.array_equal(drawn(nominal_sigmas, sep, n_samples, seed), expected)

    @pytest.mark.parametrize("truncate", [None, 1.5])
    def test_draw_does_not_depend_on_the_stream_batch(self, monkeypatch, reduced_sigmas, truncate):
        expected = drawn(reduced_sigmas, 1.0, BLOCK + 3, 8, truncate)
        monkeypatch.setattr(noise, "_ATTEMPTS", 37)
        assert np.array_equal(drawn(reduced_sigmas, 1.0, BLOCK + 3, 8, truncate), expected)

    @pytest.mark.parametrize("truncate", [None, 1.5])
    def test_mean_square_distance(self, nominal_sigmas, nominal_noise, truncate):
        # d**2 = (dx - L)**2 + dy**2 + dz**2, each difference of two offsets of
        # variance v sigma**2 (v = 1 untruncated): E[d**2] = L**2 + v (4 sigma_perp**2 + 2 sigma_z**2)
        sep = nominal_noise.trap_separation
        square = drawn(nominal_sigmas, sep, 10**6, seed=31, truncate=truncate) ** 2
        v = 1.0 if truncate is None else truncated_normal_variance(truncate)
        expected = sep**2 + v * (4 * nominal_sigmas.sigma_perp**2 + 2 * nominal_sigmas.sigma_z**2)
        stderr = np.std(square, ddof=1) / np.sqrt(square.size)
        assert abs(np.mean(square) - expected) < 5 * stderr

    @pytest.mark.parametrize("truncate", [None, 1.5])
    def test_monte_carlo_memory_is_a_few_blocks(self, reduced_sigmas, nominal_table, truncate):
        # 1e6 samples, 8 MB as one distance array: the draw, the lookups and the closed form
        # of each block's 1.5% of untruncated draws beyond the grid window go a block at a time,
        # each evaluated in place in the draw's distance buffer (1.00 MB measured: the distance
        # and normals buffers, 0.26 MB, and the normal stream's, 0.61 MB, mixing one block's
        # polar attempts at once; truncated 1.34 MB, with the redraw masks of one difference)
        monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 2, 5, truncate)
        peak = traced_peak(
            lambda: monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 10**6, 5, truncate)
        )
        assert peak < (1.5e6 if truncate is None else 4e6)

    def test_mean_memory_is_a_few_blocks(self, nominal_protocol, reduced_sigmas):
        # a table beyond every draw: all 1e6 fidelities come from the closed form, a block at a time
        # (2.9 MB measured, 1.8 MB of it the closed form's temporaries over one block)
        table = FidelityTable(nominal_protocol, 2.0, 2.1)
        peak = traced_peak(lambda: monte_carlo_average_fidelity(table, reduced_sigmas, 1.0, 10**6, 5))
        assert peak < 4e6

    @pytest.mark.parametrize("n_samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_streamed_moments_at_block_edges(self, nominal_protocol, reduced_sigmas, n_samples):
        # a table over every draw: all of them are looked up
        distances = drawn(reduced_sigmas, 1.0, n_samples, n_samples)
        table = FidelityTable(nominal_protocol, distances.min(), distances.max())
        report = monte_carlo_average_fidelity(table, reduced_sigmas, 1.0, n_samples, n_samples)
        fid = table(distances)
        assert (report.sample_count, report.direct_evaluations) == (n_samples, 0)
        assert abs(report.mean_fidelity - np.mean(fid)) <= 1e-15 * abs(np.mean(fid))
        stderr = np.std(fid, ddof=1) / np.sqrt(n_samples)
        assert abs(report.stderr - stderr) <= 1e-15 * stderr

    def test_report_is_the_sample_mean(self, nominal_protocol, reduced_sigmas):
        distances = drawn(reduced_sigmas, 1.0, 7, 3)
        table = FidelityTable(nominal_protocol, distances.min(), distances.max())
        report = monte_carlo_average_fidelity(table, reduced_sigmas, 1.0, 7, 3)
        fid = table(distances)
        assert report.sample_count == 7
        assert report.mean_fidelity == np.mean(fid)
        assert report.stderr == np.std(fid, ddof=1) / np.sqrt(7)

    @given(
        n_samples=st.sampled_from([2, 7, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
        truncate=st.sampled_from([None, 1.5]),
        quantiles=st.one_of(st.just((0.0, 1.0)), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
    )
    @settings(max_examples=25, deadline=None)
    def test_draws_outside_the_table_take_the_closed_form(
        self, nominal_protocol, reduced_sigmas, n_samples, seed, truncate, quantiles
    ):
        # a table over the draws between two quantiles (all of them at (0, 1)), and sigmas
        # twice the nominal ones, so that the draws reach far from the design separation
        sigmas = InflatedSigmas(2 * reduced_sigmas.sigma_z, 2 * reduced_sigmas.sigma_perp, 0.0)
        distances = drawn(sigmas, 1.0, n_samples, seed, truncate)
        table = FidelityTable(nominal_protocol, *np.quantile(distances, sorted(quantiles)))
        lo, hi = table.distances[0], table.distances[-1]
        inside = (distances >= lo) & (distances <= hi)
        fid = closed_form(nominal_protocol, distances)
        fid[inside] = table(distances[inside])
        report = monte_carlo_average_fidelity(table, sigmas, 1.0, n_samples, seed, truncate)
        assert report.direct_evaluations == np.count_nonzero(~inside)
        assert abs(report.mean_fidelity - np.mean(fid)) <= 1e-15 * np.mean(fid)
        stderr = np.std(fid, ddof=1) / np.sqrt(n_samples)
        assert abs(report.stderr - stderr) <= 1e-12 * stderr

    def test_draws_outside_a_narrow_table_take_the_closed_form(self, nominal_protocol, reduced_sigmas):
        # a table one knot spacing wide at the design separation: nearly every draw is outside,
        # so the closed form takes nearly all of every block, the last a short one
        table = FidelityTable(nominal_protocol, 1.0, 1.0)
        report = monte_carlo_average_fidelity(table, reduced_sigmas, 1.0, 3 * BLOCK + 5, 11)
        distances = drawn(reduced_sigmas, 1.0, 3 * BLOCK + 5, 11)
        inside = (distances >= 1.0) & (distances <= table.distances[-1])
        fid = closed_form(nominal_protocol, distances)
        fid[inside] = table(distances[inside])
        assert report.direct_evaluations == np.count_nonzero(~inside) > 2 * BLOCK
        assert abs(report.mean_fidelity - np.mean(fid)) <= 1e-15 * np.mean(fid)

    def test_non_finite_draw_outside_the_table_raises(self):
        # traps 1e154 design separations apart: the window's far end squares to 1.4e308,
        # but a draw 3.2 sigma_z out overflows to inf, beyond it
        protocol = GateProtocol.solve(np.pi, 0.8 * MHZ, 0.8 * MHZ)
        sigmas = InflatedSigmas(sigma_z=2e153, sigma_perp=1.0, flight_length=0.0)
        table = FidelityTable(protocol, *grid_window(sigmas, 1e154))
        with pytest.raises(ValueError, match="Monte Carlo distance is inf"):
            monte_carlo_average_fidelity(table, sigmas, 1e154, 20_000, 1)

    def test_truncated_sampler_stays_within_bounds(self, nominal_protocol, nominal_noise, nominal_sigmas):
        truncated = drawn(nominal_sigmas, nominal_noise.trap_separation, 50_000, 17, truncate=1.5)
        lo, hi = grid_window(nominal_sigmas, nominal_noise.trap_separation)
        assert lo <= truncated.min() and truncated.max() <= hi
        report = mc_average(nominal_protocol, nominal_noise, 50_000, 17, truncate=1.5)
        # truncated support can only raise the mean above the untruncated run
        untruncated = mc_average(nominal_protocol, nominal_noise, 50_000, 17)
        assert report.mean_fidelity > untruncated.mean_fidelity

    def test_agrees_with_grid_oracle(self, reduced_sigmas, nominal_table):
        grid = grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(0.1))
        mc = monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 200_000, seed=7, truncate=1.5)
        assert abs(mc.mean_fidelity - grid) < max(3 * mc.stderr, 1e-3)

    def test_untruncated_mean_is_the_gauss_hermite_average(self, nominal_protocol, reduced_sigmas, nominal_table):
        # 20 Gauss-Hermite nodes per difference: 0.98454891146465 on the reference (16 nodes
        # give 0.98454891146641); twenty seeds, each within 5 of its standard errors
        exact = exact_position_average(np.pi, nominal_protocol.omega_target, reduced_sigmas.sigma_perp,
                                       reduced_sigmas.sigma_z, 1.0)
        assert abs(exact - 0.98454891146465) < 1e-13
        for seed in range(1, 21):
            mc = monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 200_000, seed)
            assert abs(mc.mean_fidelity - exact) < 5 * mc.stderr, seed

    def test_truncated_mean_is_the_truncated_limit(self, nominal_protocol, reduced_sigmas, nominal_table):
        # the grid's delta -> 0 limit, 16 Gauss-Legendre nodes on each |difference|
        exact = exact_position_average(np.pi, nominal_protocol.omega_target, reduced_sigmas.sigma_perp,
                                       reduced_sigmas.sigma_z, 1.0, truncate=1.5, nodes=16)
        assert abs(exact - 0.99184259007791) < 1e-13
        for seed in range(1, 6):
            mc = monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 200_000, seed, truncate=1.5)
            assert abs(mc.mean_fidelity - exact) < 5 * mc.stderr, seed

    def test_rejects_zero_samples(self, nominal_sigmas, nominal_noise):
        with pytest.raises(ValueError):
            next(draw_distances(nominal_sigmas, nominal_noise.trap_separation, n_samples=0, seed=1))

    def test_rejects_a_single_distance(self, nominal_table, reduced_sigmas):
        # one draw has no standard error
        with pytest.raises(ValueError, match="standard error"):
            monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 1, seed=1)


class TestDecayError:
    def test_room_temperature_lifetime(self, nominal_protocol):
        value = decay_error(simulate(nominal_protocol)[1], 0.311)
        assert abs(value - 6.14e-3) / 6.14e-3 < 0.02

    def test_cryogenic_lifetime(self, nominal_protocol):
        value = decay_error(simulate(nominal_protocol)[1], 1.10)
        assert abs(value - 1.74e-3) / 1.74e-3 < 0.02

    def test_infinite_lifetime_limit(self, nominal_protocol):
        assert decay_error(simulate(nominal_protocol)[1], 1e12) < 1e-12

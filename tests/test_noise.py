import numpy as np
import pytest
import scipy.constants

from rydvdw import MHZ
from rydvdw.geometry import VdwModel, vdw_interaction
from rydvdw.noise import (
    FidelityTable,
    GridSpec,
    InflatedSigmas,
    NoiseConfig,
    decay_error,
    grid_average_fidelity,
    grid_convergence,
    inflate_sigmas,
    monte_carlo_average_fidelity,
)
from rydvdw.noise import _difference_weights, _grid_mean_paired

from .oracles import cubic_spline, grid_mean_full

VDW = VdwModel()


class ConstantTable:
    """Stand-in fidelity table returning a fixed value."""

    def __init__(self, value=1.0):
        self.value = value

    def __call__(self, dist):
        return self.value * np.ones_like(np.asarray(dist, dtype=float))


class CountingTable:
    """Wraps a fidelity table and counts the distances looked up."""

    def __init__(self, table):
        self.table = table
        self.lookups = 0

    def __call__(self, dist):
        self.lookups += np.size(dist)
        return self.table(dist)


class TestInflateSigmas:
    def test_reference_point(self, nominal_noise, nominal_params):
        sigmas = inflate_sigmas(nominal_noise, nominal_params.t_gate)
        assert abs(sigmas.sigma_z - 1.52) < 0.01
        assert abs(sigmas.sigma_perp - 0.32) < 0.01

    def test_vrms_against_constants_arithmetic(self, nominal_noise, nominal_params):
        sigmas = inflate_sigmas(nominal_noise, nominal_params.t_gate)
        # oracle: sqrt(kB * T / m) from scipy.constants, in m/s == um/us
        mass = 86.909180527 * scipy.constants.atomic_mass
        expected = np.sqrt(scipy.constants.k * 10e-6 / mass)
        assert np.isclose(sigmas.v_rms, expected, rtol=1e-12)
        assert abs(sigmas.v_rms - 0.031) < 1e-4
        assert np.isclose(sigmas.flight_length, expected * nominal_params.t_gate, rtol=1e-12)

    def test_cold_limit_recovers_bare_sigmas(self, nominal_params):
        cfg = NoiseConfig(trap_separation=21.0, temperature=1e-30)
        sigmas = inflate_sigmas(cfg, nominal_params.t_gate)
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
        sigmas = InflatedSigmas(sigma_z=1.5, sigma_perp=0.3, flight_length=0.1, v_rms=0.03)
        mean = _grid_mean_paired(table, GridSpec(delta), sigmas, 21.0)
        assert abs(mean - 1.0) < 1e-14

    def test_difference_weights_normalized_and_symmetric(self):
        offsets, weights = _difference_weights(GridSpec(0.25))
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.allclose(weights, weights[::-1], atol=1e-15)
        assert np.allclose(offsets, -offsets[::-1], atol=1e-15)
        assert len(offsets) == 2 * 13 - 1

    def test_paired_equals_full_enumeration(self, nominal_table, nominal_sigmas):
        for delta in (0.75, 0.5, 0.25):
            spec = GridSpec(delta)
            paired = _grid_mean_paired(nominal_table, spec, nominal_sigmas, 20.99)
            full = grid_mean_full(
                nominal_table, delta, nominal_sigmas.sigma_perp, nominal_sigmas.sigma_z, 20.99
            )
            assert abs(paired - full) < 1e-12

    def test_folded_grid_lookup_count(self, nominal_table, nominal_sigmas):
        # delta 0.1: m = 30 steps per 3 sigma; dx keeps both signs, dy and dz fold
        counting = CountingTable(nominal_table)
        paired = _grid_mean_paired(counting, GridSpec(0.1), nominal_sigmas, 20.99)
        assert counting.lookups == 61 * 31**2
        # the literal 6-D sum takes about 45 s here, so the reference is the
        # unfolded 3-D sum over all 61**3 differences, built from scratch
        nodes = np.linspace(-1.5, 1.5, 31)
        weights = np.exp(-0.5 * nodes**2)
        weights = np.convolve(weights, weights) / weights.sum() ** 2
        offsets = np.linspace(-3.0, 3.0, 61)
        dx = offsets[:, None, None] * nominal_sigmas.sigma_perp - 20.99
        dy = offsets[None, :, None] * nominal_sigmas.sigma_perp
        dz = offsets[None, None, :] * nominal_sigmas.sigma_z
        fid = nominal_table(np.sqrt(dx**2 + dy**2 + dz**2))
        w = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
        assert abs(paired - np.sum(w * fid) / np.sum(w)) < 1e-12


class TestFidelityTable:
    def test_matches_direct_simulation_on_grid_distances(self, nominal_table, nominal_sigmas, nominal_noise):
        # distances that actually occur on the quadrature grid
        rng = np.random.default_rng(11)
        sep = nominal_noise.trap_separation
        lo = sep - 3 * nominal_sigmas.sigma_perp
        hi = np.sqrt(
            (sep + 3 * nominal_sigmas.sigma_perp) ** 2
            + (3 * nominal_sigmas.sigma_perp) ** 2
            + (3 * nominal_sigmas.sigma_z) ** 2
        )
        for dist in rng.uniform(lo, hi, 50):
            assert abs(nominal_table(dist) - nominal_table.evaluate(dist)) < 1e-10

    def test_out_of_range_falls_back_to_direct(self, nominal_table, nominal_noise, monkeypatch):
        sep = nominal_noise.trap_separation
        far = sep + 20 * 1.52
        assert abs(nominal_table(far) - nominal_table.evaluate(far)) < 1e-14
        # window is sep +- 9 sigma_z, about 7.3 .. 34.7 um
        dist = np.array([[far, sep, 5.0], [sep + 0.3, 6.5, far + 3.0]])
        outside = (dist < nominal_table.distances[0]) | (dist > nominal_table.distances[-1])
        calls = []
        evaluate = nominal_table.evaluate
        monkeypatch.setattr(nominal_table, "evaluate", lambda d: calls.append(d) or evaluate(d))
        values = nominal_table(dist)
        assert values.shape == dist.shape
        assert len(calls) == 1 and np.array_equal(calls[0], dist[outside])
        spline = cubic_spline(nominal_table.distances, nominal_table.values)
        for d, value, out in zip(dist.ravel(), values.ravel(), outside.ravel()):
            expected = evaluate(d) if out else spline(d)
            assert abs(value - expected) < 1e-14

    @pytest.mark.parametrize("n_points", [4, 7, 101, 4001])
    def test_matches_scipy_spline_oracle(self, nominal_protocol, nominal_noise, n_points):
        table = FidelityTable(
            nominal_protocol, VDW, nominal_noise.trap_separation, 1.52, n_points=n_points
        )
        spline = cubic_spline(table.distances, table.values)
        lo, hi = table.distances[0], table.distances[-1]
        rng = np.random.default_rng(n_points)
        inside = np.concatenate([rng.uniform(lo, hi, 2000), table.distances, [lo, hi]])
        assert np.abs(table(inside) - spline(inside)).max() < 1e-13
        grid = inside[:2000].reshape(40, 50)
        values = table(grid)
        assert values.shape == (40, 50)
        assert np.abs(values - spline(grid)).max() < 1e-13
        for d in (lo, hi, inside[0]):
            value = table(np.float64(d))
            assert isinstance(value, float) and abs(value - spline(d)) < 1e-13
        # one ulp outside the inclusive window: direct evaluation, where the oracle gives NaN
        outside = np.array([np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)])
        assert np.isnan(spline(outside)).all()
        assert np.abs(table(outside) - table.evaluate(outside)).max() < 1e-14

    def test_needs_four_knots(self, nominal_protocol, nominal_noise):
        with pytest.raises(ValueError, match="n_points"):
            FidelityTable(nominal_protocol, VDW, nominal_noise.trap_separation, 1.52, n_points=3)

    def test_rejects_range_reaching_zero_distance(self, nominal_protocol):
        with pytest.raises(ValueError):
            FidelityTable(nominal_protocol, VDW, trap_separation=5.0, sigma_z=1.0)

    def test_batched_build_matches_pointwise_evaluation(self, nominal_protocol, nominal_noise):
        table = FidelityTable(nominal_protocol, VDW, nominal_noise.trap_separation, 0.5, n_points=101)
        pointwise = [table.evaluate(float(d)) for d in table.distances]
        assert np.abs(table.values - pointwise).max() < 1e-13

    def test_design_distance_is_perfect(self, nominal_table, nominal_noise):
        assert abs(nominal_table(nominal_noise.trap_separation) - 1.0) < 1e-9


class TestGridAverage:
    def test_vanishing_sigma_gives_unity(self, nominal_protocol, nominal_noise):
        tiny = InflatedSigmas(sigma_z=1e-7, sigma_perp=1e-7, flight_length=0.0, v_rms=0.0)
        report = grid_average_fidelity(
            nominal_protocol, VDW, nominal_noise, tiny, GridSpec(0.25)
        )
        assert abs(report.mean_fidelity - 1.0) < 1e-9

    def test_monotone_refinement(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        means = {}
        for delta in (0.5, 0.25, 0.125):
            means[delta] = grid_average_fidelity(
                nominal_protocol, VDW, nominal_noise, nominal_sigmas, GridSpec(delta),
                table=nominal_table,
            ).mean_fidelity
        first = abs(means[0.25] - means[0.5])
        second = abs(means[0.125] - means[0.25])
        assert second < first

    def test_convergence_series_report(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        report = grid_convergence(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas, [0.5, 0.25],
            table=nominal_table,
        )
        assert [delta for delta, _ in report.convergence] == [0.5, 0.25]
        assert report.mean_fidelity == dict(report.convergence)[0.25]
        assert np.isclose(report.net_fidelity, report.mean_fidelity - report.decay_error, rtol=1e-14)
        assert 0.0 <= report.mean_fidelity <= 1.0

    def test_sample_count(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        report = grid_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas, GridSpec(0.25),
            table=nominal_table,
        )
        assert report.sample_count == 13**6


class TestMonteCarlo:
    def test_vanishing_sigma(self, nominal_protocol, nominal_noise):
        tiny = InflatedSigmas(sigma_z=1e-9, sigma_perp=1e-9, flight_length=0.0, v_rms=0.0)
        report = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, tiny, n_samples=2000, seed=3
        )
        assert abs(report.mean_fidelity - 1.0) < 1e-9
        assert report.stderr < 1e-12

    def test_seed_determinism(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        kwargs = dict(n_samples=5000, seed=99, table=nominal_table)
        a = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas, **kwargs
        )
        b = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas, **kwargs
        )
        assert a.mean_fidelity == b.mean_fidelity and a.stderr == b.stderr
        c = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas,
            n_samples=5000, seed=100, table=nominal_table,
        )
        assert c.mean_fidelity != a.mean_fidelity

    def test_truncated_sampler_stays_within_bounds(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        report = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas,
            n_samples=50_000, seed=17, truncate=1.5, table=nominal_table,
        )
        assert report.method == "mc-truncated"
        # truncated support can only raise the mean above the untruncated run
        untruncated = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas,
            n_samples=50_000, seed=17, table=nominal_table,
        )
        assert report.mean_fidelity > untruncated.mean_fidelity

    def test_agrees_with_grid_oracle(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        grid = grid_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas, GridSpec(0.1),
            table=nominal_table,
        )
        mc = monte_carlo_average_fidelity(
            nominal_protocol, VDW, nominal_noise, nominal_sigmas,
            n_samples=200_000, seed=7, truncate=1.5, table=nominal_table,
        )
        assert abs(mc.mean_fidelity - grid.mean_fidelity) < max(3 * mc.stderr, 1e-3)

    def test_rejects_zero_samples(self, nominal_protocol, nominal_noise, nominal_sigmas, nominal_table):
        with pytest.raises(ValueError):
            monte_carlo_average_fidelity(
                nominal_protocol, VDW, nominal_noise, nominal_sigmas,
                n_samples=0, seed=1, table=nominal_table,
            )


class TestDecayError:
    def test_room_temperature_lifetime(self, nominal_protocol, nominal_params):
        cfg = NoiseConfig(trap_separation=nominal_params.separation, rydberg_lifetime=0.311)
        value = decay_error(nominal_protocol, cfg)
        assert abs(value - 6.14e-3) / 6.14e-3 < 0.02

    def test_cryogenic_lifetime(self, nominal_protocol, nominal_params):
        cfg = NoiseConfig(trap_separation=nominal_params.separation, rydberg_lifetime=1.10)
        value = decay_error(nominal_protocol, cfg)
        assert abs(value - 1.74e-3) / 1.74e-3 < 0.02

    def test_infinite_lifetime_limit(self, nominal_protocol, nominal_params):
        cfg = NoiseConfig(trap_separation=nominal_params.separation, rydberg_lifetime=1e12)
        assert decay_error(nominal_protocol, cfg) < 1e-12

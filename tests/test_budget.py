"""``budget.price``: one call prices a design point, as the commands render it."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydvdw.budget import decay_errors, price
from rydvdw.cli import run_fidelity
from rydvdw.config import DEFAULT_SEED, load_config, parse_config
from rydvdw.errors import ConfigError
from rydvdw.gates import design_exposure
from rydvdw.noise import (FidelityTable, GridSpec, grid_average_fidelity, grid_window, inflate_sigmas,
                          monte_carlo_average_fidelity, reduced)

from .test_golden import CASES, GOLDEN

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json"


class TestPrice:
    @pytest.mark.parametrize("truncate", [None, 1.5])
    def test_equals_the_averages_it_calls(self, nominal_protocol, nominal_noise, truncate):
        # out of order: the table is the hottest's, not the last's
        temperatures = (5.0, 20.0, 10.0)
        budget = price(nominal_protocol, nominal_noise, (0.25, 0.1), 5000, 9, truncate, temperatures)
        hottest = reduced(nominal_protocol, replace(nominal_noise, temperature=20.0))
        assert np.array_equal(budget.table.distances,
                              FidelityTable(nominal_protocol, *grid_window(*hottest[1:])).distances)
        for temperature, sigmas, means, report in zip(temperatures, budget.sigmas, budget.grid, budget.mc,
                                                      strict=True):
            spreads, *scaled = reduced(nominal_protocol, replace(nominal_noise, temperature=temperature))
            assert sigmas == spreads
            assert means == tuple(grid_average_fidelity(budget.table, *scaled, GridSpec(d)) for d in (0.25, 0.1))
            assert report == monte_carlo_average_fidelity(budget.table, *scaled, 5000, 9, truncate)
        # two grid steps and a Monte Carlo at each of three temperatures
        assert len(budget.seconds) == 9 and min(budget.seconds) > 0.0
        assert budget.grid_nodes == (13**6, 31**6)
        assert budget.grid_lookups == 3 * sum((2 * m + 1) * (m + 1) ** 2 for m in (12, 30)) == 3 * (
            25 * 13**2 + 61 * 31**2)
        assert budget.exposure == design_exposure(nominal_protocol)
        assert budget.decay == decay_errors(budget.exposure, nominal_noise.rydberg_lifetime)

    def test_one_temperature_is_the_config_temperature(self, nominal_protocol, nominal_noise, nominal_sigmas,
                                                       nominal_table, reduced_sigmas):
        budget = price(nominal_protocol, nominal_noise, (0.5,), 2000, 3)
        assert np.array_equal(budget.table.distances, nominal_table.distances)
        assert budget.sigmas == (nominal_sigmas,)
        assert budget.grid == ((grid_average_fidelity(nominal_table, reduced_sigmas, 1.0, GridSpec(0.5)),),)
        assert budget.mc == (monte_carlo_average_fidelity(nominal_table, reduced_sigmas, 1.0, 2000, 3),)

    @pytest.mark.parametrize("temperatures", [(), (5.0, 15.0)])
    def test_nothing_to_average(self, nominal_protocol, nominal_noise, temperatures):
        budget = price(nominal_protocol, nominal_noise, temperatures=temperatures)
        rows = max(1, len(temperatures))
        assert (budget.grid, budget.mc, budget.seconds, budget.grid_nodes, budget.grid_lookups) == (
            ((),) * rows, (), (), (), 0)
        asked = temperatures or (nominal_noise.temperature,)
        assert budget.sigmas == tuple(inflate_sigmas(replace(nominal_noise, temperature=t), nominal_protocol.t_gate)
                                      for t in asked)
        assert budget.decay == decay_errors(design_exposure(nominal_protocol), nominal_noise.rydberg_lifetime)

    def test_hottest_row_is_a_price_at_that_temperature(self, nominal_protocol, nominal_noise):
        budget = price(nominal_protocol, nominal_noise, (0.25,), 2000, 5, temperatures=(5.0, 10.0, 15.0))
        alone = price(nominal_protocol, replace(nominal_noise, temperature=15.0), (0.25,), 2000, 5)
        assert np.array_equal(budget.table.distances, alone.table.distances)
        assert (budget.sigmas[-1], budget.grid[-1], budget.mc[-1]) == (alone.sigmas[0], alone.grid[0], alone.mc[0])
        assert budget.decay == alone.decay and budget.exposure == alone.exposure

    def test_equals_every_number_of_the_fidelity_record(self):
        cfg = load_config(REFERENCE)
        assert cfg.mode == "both" and not cfg.mc_truncated
        results = run_fidelity(cfg).results
        budget = price(cfg.protocol, cfg.noise, cfg.deltas, cfg.mc_samples, cfg.seed)
        (sigmas,), (means,), (mc,), decay = budget.sigmas, budget.grid, budget.mc, budget.decay
        assert set(results) == {"sigma_z_um", "sigma_perp_um", "rydberg_exposure_us", "csv_rows", "wall_times",
                                "grid", "mc", "diagnostics"}
        assert (results["sigma_z_um"], results["sigma_perp_um"]) == (sigmas.sigma_z, sigmas.sigma_perp)
        assert results["rydberg_exposure_us"] == budget.exposure
        finest = means[cfg.deltas.index(min(cfg.deltas))]
        assert results["grid"] == {
            "mean_fidelity": finest, "decay_error": decay["decay_error"], "net_fidelity": finest - decay["decay_error"],
            "sample_count": budget.grid_nodes[-1], "method": "grid-paired", "truncation": 1.5,
            "convergence": [[delta, mean] for delta, mean in zip(cfg.deltas, means)], "estimate": finest,
        }
        assert results["mc"] == {
            "mean_fidelity": mc.mean_fidelity, "decay_error": decay["decay_error"],
            "net_fidelity": mc.mean_fidelity - decay["decay_error"], "sample_count": mc.sample_count,
            "method": "mc", "stderr": mc.stderr, "truncation": None,
        }
        rows = [{key: value for key, value in row.items() if key != "wallTime"} for row in results["csv_rows"]]
        assert rows == [
            {"delta": label, "meanFidelity": mean, "netFidelity300K": mean - decay["decay_error_300k"],
             "netFidelity4K": mean - decay["decay_error_4k"], "samples": count}
            for label, mean, count in zip(cfg.deltas + ("mc",), means + (mc.mean_fidelity,),
                                          budget.grid_nodes + (mc.sample_count,))
        ]
        assert len(results["wall_times"]) == len(budget.seconds) == len(rows)
        worst, interior = budget.table.spline_errors()
        assert results["diagnostics"] == {
            "table_knots": len(budget.table.distances), "spline_error": worst, "spline_error_interior": interior,
            "direct_evaluations": mc.direct_evaluations, "grid_lookups": budget.grid_lookups,
        }


class TestPriceErrors:
    """Each config error a command meets while it prices is raised by ``price``, word for word
    as the command printed it before pricing moved out of the CLI (``tests/golden``)."""

    @pytest.mark.parametrize(
        "case, arguments, field",
        [
            ("exit_grid_at_zero_distance", {"deltas": (0.5,)}, "noise.sigma_perp0_um"),
            ("exit_window_over_max_knots",
             {"deltas": (0.5,), "temperatures": (10.0, 1.7e9), "temperature_field": "sweep.stop"}, "sweep.stop"),
            ("exit_overflowing_draw", {"n_samples": 20000, "seed": DEFAULT_SEED}, "noise.trap_separation_um"),
            ("exit_infinite_decay", {"deltas": (0.5,)}, "noise.rydberg_lifetime_ms"),
        ],
    )
    def test_names_the_field_the_command_names(self, case, arguments, field):
        cfg = parse_config(CASES[case][1])
        golden = json.loads((GOLDEN / f"{case}.json").read_text())
        with pytest.raises(ConfigError) as raised:
            price(cfg.protocol, cfg.noise, **arguments)
        assert (golden["exit_code"], golden["stderr"]) == (2, f"config error: {raised.value}\n")
        assert str(raised.value).startswith(f"invalid config field '{field}'")

    def test_an_overflowing_draw_is_named_before_the_decay(self):
        # a draw that overflows and a lifetime too short to divide by: the draw comes first
        noise = {**CASES["exit_overflowing_draw"][1]["noise"], "rydberg_lifetime_ms": 1e-320}
        cfg = parse_config({"noise": noise})
        with pytest.raises(ConfigError, match="^invalid config field 'noise.trap_separation_um'"):
            price(cfg.protocol, cfg.noise, (), 20000, 1)
        with pytest.raises(ConfigError, match="^invalid config field 'noise.rydberg_lifetime_ms'"):
            price(cfg.protocol, cfg.noise)

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rydvdw
from rydvdw.cli import main, run_fidelity, run_simulate, run_solve, run_sweep
from rydvdw.config import SCHEMA, load_config, parse_config
from rydvdw.errors import ConfigError
from rydvdw.protocol import rydberg_exposure
from rydvdw.records import (
    ResultRecord,
    complex_matrix_from_json,
    complex_matrix_to_json,
    rows_from_csv,
    rows_to_csv,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults_are_a_valid_config(self):
        cfg = parse_config({})
        assert cfg.kind == "cz" and cfg.mode == "grid"

    def test_unknown_field_is_named(self):
        with pytest.raises(ConfigError, match="frequency_mhz"):
            parse_config({"drive": {"frequency_mhz": 1.0}})
        with pytest.raises(ConfigError, match="threads"):
            parse_config({"threads": 4})

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="noise.temperature_uk"):
            parse_config({"noise": {"temperature_uk": -3.0}})

    def test_cnot_requires_pi(self):
        with pytest.raises(ConfigError, match="theta_rad"):
            parse_config({"gate": {"kind": "cnot", "theta_rad": 1.0}})

    def test_non_dividing_delta_rejected(self):
        with pytest.raises(ConfigError, match="sampling.deltas"):
            parse_config({"sampling": {"deltas": [0.4]}})

    def test_docs_schema_matches_source(self):
        docs = Path(__file__).resolve().parents[1] / "docs" / "config.schema.json"
        assert json.loads(docs.read_text()) == SCHEMA

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


class TestSolveCommand:
    def test_reference_chain(self, runner, tmp_path):
        path = write_config(tmp_path, {})
        result = runner.invoke(main, ["solve", "--config", path])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert abs(record["params"]["separation_um"] - 20.99) < 0.01
        assert abs(record["params"]["t_gate_us"] - 3.415) < 0.005
        assert abs(record["params"]["interaction_mhz"] - 0.4619) < 1e-3

    def test_cold_solve_imports_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from rydvdw.cli import main\n"
            "try:\n"
            "    main(['solve', '--config', sys.argv[1]])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(rydvdw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", code, write_config(tmp_path, {})],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert abs(json.loads(result.stdout)["params"]["separation_um"] - 20.99) < 0.01

    def test_fast_drive_duration(self, runner, tmp_path):
        path = write_config(
            tmp_path, {"drive": {"omega_control_mhz": 4.6, "omega_target_mhz": 4.6}}
        )
        result = runner.invoke(main, ["solve", "--config", path])
        record = json.loads(result.output)
        assert abs(record["params"]["t_gate_us"] - 0.594) < 0.005

    def test_malformed_config_exits_2(self, runner, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma_z0_um": -1.0}})
        result = runner.invoke(main, ["solve", "--config", path])
        assert result.exit_code == 2
        assert "sigma_z0_um" in result.output

    @pytest.mark.parametrize("c6_text", ["1e305", "1e400"])  # json reads 1e400 as inf
    def test_non_finite_c6_exits_2(self, runner, tmp_path, c6_text):
        path = tmp_path / "config.json"
        path.write_text('{"vdw": {"c6_thz_um6": %s}}' % c6_text)
        result = runner.invoke(main, ["solve", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error: invalid config field 'vdw.c6_thz_um6'" in result.output

    def test_interaction_override_rejected_outside_simulate(self, runner, tmp_path):
        path = write_config(tmp_path, {"overrides": {"interaction_mhz": 0.5}})
        result = runner.invoke(main, ["solve", "--config", path])
        assert result.exit_code == 2
        assert "config error: invalid config field 'overrides.interaction_mhz'" in result.output

    @pytest.mark.parametrize("command", ["solve", "fidelity", "sweep"])
    def test_separation_override_rejected_outside_simulate(self, runner, tmp_path, command):
        # the trap separation of the noise model is noise.trap_separation_um
        payload = {
            "overrides": {"separation_um": 21.0},
            "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2},
            "sampling": {"deltas": [0.5]},
        }
        result = runner.invoke(main, [command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert "config error: invalid config field 'overrides.separation_um'" in result.output

    def test_numeric_failure_exits_1(self, runner, tmp_path, monkeypatch):
        # no valid config is known to break the eigensolver, so make it fail
        def broken_eigh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
        path = write_config(tmp_path, {})
        result = runner.invoke(main, ["simulate", "--config", path])
        assert result.exit_code == 1
        assert "numeric error: eigendecomposition failed" in result.output


class TestSimulateCommand:
    def test_cz_report(self, runner, tmp_path):
        path = write_config(tmp_path, {})
        result = runner.invoke(main, ["simulate", "--config", path])
        assert result.exit_code == 0
        record = json.loads(result.output)
        res = record["results"]
        assert res["nominal_fidelity"] > 1 - 1e-9
        assert abs(res["rydberg_exposure_us"] - 1.91) < 0.02
        assert abs(res["decay_error_300k"] - 6.14e-3) / 6.14e-3 < 0.02
        assert abs(res["decay_error_4k"] - 1.74e-3) / 1.74e-3 < 0.02
        gate = complex_matrix_from_json(res["gate_matrix"])
        assert np.abs(gate - np.diag([1, 1, 1, -1])).max() < 1e-9

    def test_cnot_report(self, runner, tmp_path):
        path = write_config(tmp_path, {"gate": {"kind": "cnot"}})
        result = runner.invoke(main, ["simulate", "--config", path])
        record = json.loads(result.output)
        gate = complex_matrix_from_json(record["results"]["gate_matrix"])
        ideal = np.zeros((4, 4))
        ideal[0, 0] = ideal[1, 1] = ideal[2, 3] = ideal[3, 2] = 1.0
        assert np.abs(gate - ideal).max() < 1e-9

    def test_zero_interaction_override_gives_identity(self, runner, tmp_path):
        path = write_config(tmp_path, {"overrides": {"interaction_mhz": 0.0}})
        result = runner.invoke(main, ["simulate", "--config", path])
        record = json.loads(result.output)
        gate = complex_matrix_from_json(record["results"]["gate_matrix"])
        assert np.abs(gate - np.eye(4)).max() < 1e-9

    def test_conflicting_overrides_rejected(self):
        cfg = parse_config(
            {"overrides": {"interaction_mhz": 0.5, "separation_um": 21.0}}
        )
        with pytest.raises(ConfigError):
            run_simulate(cfg)

    def test_infinite_decay_error_exits_1_without_output(self, runner, tmp_path):
        # exposure / lifetime overflows to inf, which JSON cannot carry
        path = write_config(tmp_path, {"noise": {"rydberg_lifetime_ms": 1e-320}})
        result = runner.invoke(main, ["simulate", "--config", path])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "numeric error: " in result.stderr


class TestFidelityCommand:
    CONFIG = {
        "sampling": {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 20000, "mc_truncated": True},
    }

    def test_json_report(self, runner, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        result = runner.invoke(main, ["fidelity", "--config", path])
        assert result.exit_code == 0
        record = json.loads(result.output)
        grid = record["results"]["grid"]
        assert [d for d, _ in grid["convergence"]] == [0.5, 0.25]
        assert 0.97 < grid["mean_fidelity"] < 1.0
        mc = record["results"]["mc"]
        assert abs(mc["mean_fidelity"] - grid["mean_fidelity"]) < 0.005

    def test_csv_rows_round_trip(self, runner, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "rows.csv"
        result = runner.invoke(
            main, ["fidelity", "--config", path, "--format", "csv", "--out", str(out)]
        )
        assert result.exit_code == 0
        rows = rows_from_csv(out.read_text())
        assert [row["delta"] for row in rows] == [0.5, 0.25, "mc"]
        for row in rows:
            assert set(row) == {
                "delta", "meanFidelity", "netFidelity300K", "netFidelity4K", "samples", "wallTime",
            }
            # shorter lifetime costs more fidelity
            assert row["netFidelity300K"] < row["netFidelity4K"] < row["meanFidelity"]
        # values parse back to the exact floats that were written
        again = rows_from_csv(rows_to_csv(rows))
        assert again == rows

    @pytest.mark.parametrize(
        "noise", [{"sigma_z0_um": 5.0}, {"trap_separation_um": 5.0}]
    )
    def test_table_window_at_zero_distance_exits_2(self, runner, tmp_path, noise):
        # the +-9 sigma_z table window reaches zero distance
        path = write_config(tmp_path, {"noise": noise, "sampling": {"deltas": [0.5]}})
        result = runner.invoke(main, ["fidelity", "--config", path])
        assert result.exit_code == 2
        assert "config error: invalid config field 'noise.sigma_z0_um'" in result.output
        separation = noise.get("trap_separation_um", 20.99)
        assert f"trap separation {separation:.4g} um" in result.output

    @pytest.mark.parametrize(
        "payload",
        [
            CONFIG,
            {"sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3},
             "sampling": {"deltas": [0.5]}},
        ],
    )
    def test_exposure_computed_once_per_command(self, monkeypatch, payload):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rydberg_exposure(*args, **kwargs)

        monkeypatch.setattr("rydvdw.cli.rydberg_exposure", counted)
        run = run_sweep if "sweep" in payload else run_fidelity
        run(parse_config(payload))
        assert len(calls) == 1

    def test_tiny_sigma_returns_unity(self, runner, tmp_path):
        payload = {
            "noise": {"sigma_z0_um": 1e-6, "sigma_perp0_um": 1e-6, "temperature_uk": 1e-12},
            "sampling": {"mode": "grid", "deltas": [0.5]},
        }
        path = write_config(tmp_path, payload)
        result = runner.invoke(main, ["fidelity", "--config", path])
        record = json.loads(result.output)
        assert abs(record["results"]["grid"]["mean_fidelity"] - 1.0) < 1e-6

    def test_rerun_from_record_config_reproduces_numbers(self):
        cfg = parse_config(dict(self.CONFIG))
        first = run_fidelity(cfg)
        second = run_fidelity(parse_config(first.config))
        a, b = dict(first.results), dict(second.results)
        for results in (a, b):
            results.pop("wall_times")
            for row in results["csv_rows"]:
                row.pop("wallTime")
        assert a == b

    def test_convergence_series_report(self):
        results = run_fidelity(
            parse_config({"sampling": {"mode": "grid", "deltas": [0.5, 0.25]}})
        ).results
        grid = results["grid"]
        assert [delta for delta, _ in grid["convergence"]] == [0.5, 0.25]
        assert grid["mean_fidelity"] == grid["estimate"] == dict(map(tuple, grid["convergence"]))[0.25]
        assert grid["sample_count"] == 13**6
        assert np.isclose(grid["decay_error"], results["rydberg_exposure_us"] / 311.0, rtol=1e-14)
        assert np.isclose(grid["net_fidelity"], grid["mean_fidelity"] - grid["decay_error"], rtol=1e-14)
        assert 0.0 <= grid["mean_fidelity"] <= 1.0

    def test_reference_convergence_series(self):
        cfg = parse_config(
            {"sampling": {"mode": "grid", "deltas": [0.25, 0.2, 0.15, 0.12, 0.1]}}
        )
        grid = run_fidelity(cfg).results["grid"]
        series = dict(map(tuple, grid["convergence"]))
        for delta, reference in ((0.25, 0.9910), (0.2, 0.9912), (0.15, 0.9914), (0.12, 0.9920), (0.1, 0.9920)):
            assert abs(series[delta] - reference) <= 1e-3
        assert abs(grid["estimate"] - 0.992) <= 1e-3
        assert abs(grid["net_fidelity"] - 0.986) <= 1e-3

    def test_seed_flag_changes_mc(self, runner, tmp_path):
        path = write_config(tmp_path, {"sampling": {"mode": "mc", "mc_samples": 5000}})
        outputs = []
        for seed in ("1", "1", "2"):
            result = runner.invoke(main, ["fidelity", "--config", path, "--seed", seed])
            outputs.append(json.loads(result.output)["results"]["mc"]["mean_fidelity"])
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]


class TestSweepCommand:
    def test_two_point_sweep_has_two_rows(self, runner, tmp_path):
        payload = {"sweep": {"axis": "separation", "start": 20.0, "stop": 22.0, "points": 2}}
        path = write_config(tmp_path, payload)
        result = runner.invoke(main, ["sweep", "--config", path])
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert len(rows) == 2
        assert [row["value"] for row in rows] == [20.0, 22.0]

    def test_separation_sweep_peaks_at_design_point(self):
        cfg = parse_config(
            {"sweep": {"axis": "separation", "start": 20.19, "stop": 21.79, "points": 41}}
        )
        rows = run_sweep(cfg).results["rows"]
        values = [row["nominal_fidelity"] for row in rows]
        peak_value = rows[int(np.argmax(values))]["value"]
        step = rows[1]["value"] - rows[0]["value"]
        assert abs(peak_value - 20.99) <= step / 2 + 1e-9

    def test_temperature_sweep_is_nonincreasing(self):
        cfg = parse_config(
            {
                "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3},
                "sampling": {"deltas": [0.25]},
            }
        )
        rows = run_sweep(cfg).results["rows"]
        means = [row["mean_fidelity"] for row in rows]
        assert means[0] >= means[1] >= means[2]

    def test_omega_sweep_ignores_drive_block(self):
        # the swept frequency drives both atoms; drive.omega_*_mhz do not enter the rows
        sweep = {"axis": "omega", "start": 0.8, "stop": 4.6, "points": 3}
        plain = run_sweep(parse_config({"sweep": sweep})).results["rows"]
        drive = {"omega_control_mhz": 2.0, "omega_target_mhz": 0.5}
        driven = run_sweep(parse_config({"sweep": sweep, "drive": drive})).results["rows"]
        assert driven == plain

    def test_omega_sweep_reports_chain(self):
        cfg = parse_config(
            {"sweep": {"axis": "omega", "start": 0.8, "stop": 4.6, "points": 2}}
        )
        rows = run_sweep(cfg).results["rows"]
        assert abs(rows[0]["t_gate_us"] - 3.415) < 0.005
        assert abs(rows[1]["t_gate_us"] - 0.594) < 0.005
        for row in rows:
            assert row["nominal_fidelity"] > 1 - 1e-9

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "omega", "start": 0.8, "stop": 4.6, "points": 2},
            {"axis": "separation", "start": 20.0, "stop": 22.0, "points": 3},
            {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2},
        ],
    )
    def test_csv_cells_parse_as_numbers(self, runner, tmp_path, sweep):
        path = write_config(tmp_path, {"sweep": sweep, "sampling": {"deltas": [0.5]}})
        out = tmp_path / "rows.csv"
        result = runner.invoke(main, ["sweep", "--config", path, "--out", str(out)])
        assert result.exit_code == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == sweep["points"]
        for row in rows:
            assert row.pop("axis") == sweep["axis"]
            assert all(isinstance(value, float) for value in row.values()), row

    def test_sweep_requires_block(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(parse_config({}))

    def test_values_sorted_even_if_range_reversed(self):
        cfg = parse_config(
            {"sweep": {"axis": "separation", "start": 22.0, "stop": 20.0, "points": 3}}
        )
        rows = run_sweep(cfg).results["rows"]
        assert [row["value"] for row in rows] == sorted(row["value"] for row in rows)


class TestRecords:
    def test_record_json_round_trip(self):
        record = run_solve(parse_config({}))
        clone = ResultRecord.from_json(record.to_json())
        assert clone == record

    def test_complex_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = complex_matrix_from_json(
            json.loads(json.dumps(complex_matrix_to_json(matrix)))
        )
        assert np.array_equal(back, matrix)

    def test_csv_round_trip_types(self):
        rows = [{"delta": 0.25, "meanFidelity": 0.9912345678901234, "samples": 13**6, "label": "x"}]
        parsed = rows_from_csv(rows_to_csv(rows))
        assert parsed == rows

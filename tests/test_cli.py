import errno
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rydvdw
from rydvdw import MHZ
from rydvdw.budget import _spread_field
from rydvdw.cli import run_fidelity, run_simulate, run_solve, run_sweep
from rydvdw.config import MAX_OVERRIDE_MHZ, SCHEMA, RunConfig, load_config, parse_config
from rydvdw.errors import ConfigError
from rydvdw.gates import design_exposure, gate_fidelity, simulate
from rydvdw.geometry import VdwModel, vdw_interaction
from rydvdw.noise import KNOT_SPACING, NoiseConfig, draw_distances, inflate_sigmas, reduced
from rydvdw.protocol import GateProtocol
from rydvdw.records import ResultRecord, complex_matrix_to_json, rows_to_csv

from .helpers import complex_matrix_from_json, rows_from_csv, run_cli
from .oracles import rk4_gate_matrix


@pytest.fixture
def tables(monkeypatch):
    """The fidelity tables a command builds, in order: ``budget.price`` builds them (the tests
    that find one table are this spy's positive controls)."""
    built = []

    class Kept(rydvdw.budget.FidelityTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr("rydvdw.budget.FidelityTable", Kept)
    return built


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults_are_a_valid_config(self):
        cfg = parse_config({})
        assert cfg.protocol.kind == "cz" and cfg.mode == "grid"

    def test_defaults_are_the_reference_design_point(self):
        cfg = parse_config({})
        assert cfg.protocol == GateProtocol.solve(math.pi, 0.8 * MHZ, 0.8 * MHZ)
        assert cfg.vdw == VdwModel()
        assert cfg.noise == NoiseConfig(trap_separation=cfg.protocol.separation)

    @pytest.mark.parametrize("kind, theta", [("cz", 2.0), ("cnot", math.pi)])
    def test_every_field_reaches_its_place(self, kind, theta):
        # distinct non-default values: a field mapped to the wrong place shows
        raw = {
            "gate": {"kind": kind, "theta_rad": theta},
            "drive": {"omega_control_mhz": 1.3, "omega_target_mhz": 0.6},
            "vdw": {"c6_thz_um6": 45.0},
            "noise": {"sigma_z0_um": 1.2, "sigma_perp0_um": 0.3, "temperature_uk": 7.0,
                      "atom_mass_kg": 1.4e-25, "rydberg_lifetime_ms": 0.5, "trap_separation_um": 19.0},
            "sampling": {"mode": "mc", "deltas": [0.5, 0.3], "mc_samples": 300, "mc_truncated": True},
            "overrides": {"interaction_mhz": 0.25},
            "sweep": {"axis": "omega", "start": 0.5, "stop": 1.0, "points": 4.0},
            "seed": 7,
        }
        vdw = VdwModel(MHZ * 45.0 * 1e6)
        assert parse_config(raw) == RunConfig(
            protocol=GateProtocol.solve(theta, 1.3 * MHZ, 0.6 * MHZ, vdw, kind),
            vdw=vdw,
            noise=NoiseConfig(trap_separation=19.0, sigma_z0=1.2, sigma_perp0=0.3, temperature=7.0,
                              atom_mass=1.4e-25, rydberg_lifetime=0.5),
            mode="mc",
            deltas=(0.5, 0.3),
            mc_samples=300,
            mc_truncated=True,
            interaction_override=0.25 * MHZ,
            sweep={"axis": "omega", "start": 0.5, "stop": 1.0, "points": 4},
            seed=7,
            raw=raw,
        )

    def test_separation_override_is_its_interaction(self):
        cfg = parse_config({"overrides": {"separation_um": 19.0}})
        assert cfg.interaction_override == vdw_interaction(VdwModel(), 19.0)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"gate": {"theta_rad": 1e-20}}, "gate.theta_rad"),
            ({"drive": {"omega_control_mhz": 1e-320}}, "drive"),
            ({"overrides": {"interaction_mhz": 0.5, "separation_um": 21.0}}, "overrides"),
            ({"overrides": {"separation_um": 1e-60}}, "overrides.separation_um"),
        ],
    )
    def test_design_point_fault_is_named_on_load(self, payload, field):
        with pytest.raises(ConfigError, match=re.escape(f"invalid config field '{field}'")):
            parse_config(payload)

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

    @pytest.mark.parametrize(
        "deltas, quoted",
        [([0.5, 0.5, 0.25], "0.5 and 0.5 make one 6-step grid"),
         ([0.1, 0.1 + 1e-12], f"0.1 and {0.1 + 1e-12!r} make one 30-step grid")],
        ids=["twice", "one-grid"],
    )
    def test_repeated_grid_step_exits_2(self, tmp_path, deltas, quoted):
        # a step twice, or two steps that round to one grid, would price one grid twice
        path = write_config(tmp_path, {"sampling": {"deltas": deltas}})
        result = run_cli(["fidelity", "--config", path])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"config error: invalid config field 'sampling.deltas': {quoted}\n"

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

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("fidelity", {"sampling": {"mode": "mc", "mc_samples": 300.0}}),
            ("fidelity", {"seed": 5.0, "sampling": {"mode": "mc", "mc_samples": 300}}),
            ("sweep", {"sweep": {"axis": "omega", "start": 0.8, "stop": 1.6, "points": 5.0}}),
        ],
    )
    def test_integer_valued_floats_run(self, tmp_path, command, payload):
        # the schema takes 5.0 as an integer, and numpy must get an int
        path = write_config(tmp_path, payload)
        result = run_cli([command, "--config", path, "--format", "json"])
        assert result.exit_code == 0, result.output
        results = json.loads(result.output)["results"]
        if command == "sweep":
            assert len(results["rows"]) == 5
        else:
            assert results["mc"]["sample_count"] == 300

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            # each would allocate tens to hundreds of GiB
            ("fidelity", {"sampling": {"deltas": [0.001]}}, "sampling.deltas.0"),
            ("fidelity", {"sampling": {"mode": "mc", "mc_samples": 1e10}}, "sampling.mc_samples"),
            ("sweep", {"sweep": {"axis": "separation", "start": 20.0, "stop": 22.0, "points": 1e10}},
             "sweep.points"),
        ],
    )
    def test_array_sizing_fields_are_bounded(self, tmp_path, command, payload, field):
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"config error: invalid config field '{field}'" in result.stderr


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "--config", "c.json"],
            ["solve"],
            ["solve", "--config"],
            ["solve", "--config", "c.json", "--threads", "2"],
            ["solve", "--config", "c.json", "--format", "xml"],
            ["solve", "--conf", "c.json"],  # no abbreviations
        ],
    )
    def test_usage_error_exits_2(self, argv):
        result = run_cli(argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "usage: rydvdw" in result.stderr

    @pytest.mark.parametrize("name, code", [("missing/out.json", errno.ENOENT), ("", errno.EISDIR)])
    def test_unwritable_out_exits_2(self, tmp_path, name, code):
        # a missing directory, or a directory itself
        out = os.path.join(tmp_path, name)
        result = run_cli(["solve", "--config", write_config(tmp_path, {}), "--out", out])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"output error: cannot write output file {out}: ")
        assert os.strerror(code) in result.stderr

    def test_help_lists_each_runner(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0
        for runner in (run_solve, run_simulate, run_fidelity, run_sweep):
            name = runner.__name__.removeprefix("run_")
            summary = " ".join(runner.__doc__.splitlines()[0].split())
            assert f"{name} " in result.stdout
            assert summary in " ".join(result.stdout.split())


class TestSolveCommand:
    def test_reference_chain(self, tmp_path):
        path = write_config(tmp_path, {})
        result = run_cli(["solve", "--config", path])
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
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'jsonschema', 'click'))\n"
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

    def test_fast_drive_duration(self, tmp_path):
        path = write_config(
            tmp_path, {"drive": {"omega_control_mhz": 4.6, "omega_target_mhz": 4.6}}
        )
        result = run_cli(["solve", "--config", path])
        record = json.loads(result.output)
        assert abs(record["params"]["t_gate_us"] - 0.594) < 0.005

    def test_malformed_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma_z0_um": -1.0}})
        result = run_cli(["solve", "--config", path])
        assert result.exit_code == 2
        assert "sigma_z0_um" in result.output

    @pytest.mark.parametrize("c6_text", ["1e305", "1e400"])  # json reads 1e400 as inf
    def test_non_finite_c6_exits_2(self, tmp_path, c6_text):
        path = tmp_path / "config.json"
        path.write_text('{"vdw": {"c6_thz_um6": %s}}' % c6_text)
        result = run_cli(["solve", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error: invalid config field 'vdw.c6_thz_um6'" in result.output

    def test_interaction_override_rejected_outside_simulate(self, tmp_path):
        path = write_config(tmp_path, {"overrides": {"interaction_mhz": 0.5}})
        result = run_cli(["solve", "--config", path])
        assert result.exit_code == 2
        assert "config error: invalid config field 'overrides.interaction_mhz'" in result.output

    @pytest.mark.parametrize("command", ["solve", "fidelity", "sweep"])
    def test_separation_override_rejected_outside_simulate(self, tmp_path, command):
        # the trap separation of the noise model is noise.trap_separation_um
        payload = {
            "overrides": {"separation_um": 21.0},
            "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2},
            "sampling": {"deltas": [0.5]},
        }
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert "config error: invalid config field 'overrides.separation_um'" in result.output

    @pytest.mark.parametrize("command", ["solve", "simulate", "fidelity"])
    def test_overflowing_pulse_duration_exits_2(self, tmp_path, command):
        # pi / omega_control overflows to an infinite pulse
        path = write_config(tmp_path, {"drive": {"omega_control_mhz": 1e-320}})
        result = run_cli([command, "--config", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'drive'" in result.stderr

    @pytest.mark.parametrize("command", ["solve", "fidelity"])
    def test_tiny_theta_names_theta(self, tmp_path, command):
        # theta -> 0 needs an infinite interaction, whatever the drive
        path = write_config(tmp_path, {"gate": {"theta_rad": 1e-20}})
        result = run_cli([command, "--config", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'gate.theta_rad'" in result.stderr

    @pytest.mark.parametrize("command", ["fidelity", "simulate"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_exits_2(self, tmp_path, command, text):
        # Python's json reads these, but they are not JSON numbers
        path = tmp_path / "config.json"
        path.write_text('{"noise": {"temperature_uk": %s}}' % text)
        result = run_cli([command, "--config", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'noise.temperature_uk'" in result.stderr

    def test_overflowing_hyperfine_estimate_names_the_target_drive(self, tmp_path):
        # 2 (omega_target / splitting)^2 overflows to inf, which JSON cannot hold
        path = write_config(tmp_path, {"drive": {"omega_target_mhz": 1e300}})
        result = run_cli(["solve", "--config", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'drive.omega_target_mhz'" in result.stderr

    def test_numeric_failure_exits_1(self, tmp_path, monkeypatch):
        # no valid config is known to break the eigensolver, so make it fail: one Jacobi sweep
        # rotates the first pulse's blocks and leaves no sweep to find them diagonal
        monkeypatch.setattr(rydvdw.dynamics, "_SWEEPS", 1)
        path = write_config(tmp_path, {})
        result = run_cli(["simulate", "--config", path])
        assert result.exit_code == 1
        assert "numeric error: eigendecomposition failed" in result.output


class TestSimulateCommand:
    def test_cz_report(self, tmp_path):
        path = write_config(tmp_path, {})
        result = run_cli(["simulate", "--config", path])
        assert result.exit_code == 0
        record = json.loads(result.output)
        res = record["results"]
        assert res["nominal_fidelity"] > 1 - 1e-9
        assert abs(res["rydberg_exposure_us"] - 1.91) < 0.02
        assert abs(res["decay_error_300k"] - 6.14e-3) / 6.14e-3 < 0.02
        assert abs(res["decay_error_4k"] - 1.74e-3) / 1.74e-3 < 0.02
        gate = complex_matrix_from_json(res["gate_matrix"])
        assert np.abs(gate - np.diag([1, 1, 1, -1])).max() < 1e-9
        # the walk against the closed forms (3.3e-16 and 2.2e-16 us measured), and no leakage (4.4e-16)
        assert res["diagnostics"]["kernel_gap"] <= 3e-15 and res["diagnostics"]["exposure_gap"] <= 4e-15
        assert abs(res["diagnostics"]["leakage"]) <= 1e-15

    def test_cnot_report(self, tmp_path):
        path = write_config(tmp_path, {"gate": {"kind": "cnot"}})
        result = run_cli(["simulate", "--config", path])
        record = json.loads(result.output)
        gate = complex_matrix_from_json(record["results"]["gate_matrix"])
        ideal = np.zeros((4, 4))
        ideal[0, 0] = ideal[1, 1] = ideal[2, 3] = ideal[3, 2] = 1.0
        assert np.abs(gate - ideal).max() < 1e-9
        # 2.2e-16 and 8.9e-16 us measured, and a leakage of 2.2e-16
        diagnostics = record["results"]["diagnostics"]
        assert diagnostics["kernel_gap"] <= 3e-15 and diagnostics["exposure_gap"] <= 4e-15
        assert abs(diagnostics["leakage"]) <= 1e-15

    @given(
        cnot=st.booleans(),
        theta=st.floats(0.2, 2 * np.pi - 0.2, exclude_min=True, exclude_max=True),
        control_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
        target_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
    )
    @settings(max_examples=30, deadline=None)
    def test_design_point_gaps_are_rounding(self, cnot, theta, control_mhz, target_mhz):
        # in 120000 draws kernel_gap was at most 4.2e-15 and exposure_gap 3.5e-15 of the exposure,
        # which reaches 14 us (and its gap 3.6e-14 us) at 0.1 MHz drives
        gate = {"kind": "cnot", "theta_rad": np.pi} if cnot else {"kind": "cz", "theta_rad": theta}
        drive = {"omega_control_mhz": control_mhz, "omega_target_mhz": target_mhz}
        results = run_simulate(parse_config({"gate": gate, "drive": drive})).results
        diagnostics = results["diagnostics"]
        assert diagnostics["kernel_gap"] <= 1e-14
        assert diagnostics["exposure_gap"] <= 1e-14 * results["rydberg_exposure_us"]
        assert abs(diagnostics["leakage"]) <= 1e-14

    @pytest.mark.parametrize("overrides", [{"interaction_mhz": 0.0}, {"interaction_mhz": 0.3},
                                           {"interaction_mhz": 5.0}, {"separation_um": 19.0}],
                             ids=lambda overrides: "_".join(f"{k}={v}" for k, v in overrides.items()))
    def test_override_gaps(self, overrides):
        # the closed-form exposure holds at the design interaction only
        cfg = parse_config({"overrides": overrides})
        results = run_simulate(cfg).results
        closed = float(gate_fidelity(cfg.protocol, cfg.interaction_override))
        leakage = 1.0 - (np.abs(complex_matrix_from_json(results["gate_matrix"])) ** 2).sum() / 4.0
        assert results["diagnostics"] == {"kernel_gap": abs(results["nominal_fidelity"] - closed),
                                          "exposure_gap": None, "leakage": leakage}

    @pytest.mark.parametrize("gate, interaction", [({"kind": "cz"}, 5.0), ({"kind": "cz", "theta_rad": 2.0}, 0.3),
                                                   ({"kind": "cnot"}, 0.1)],
                             ids=["cz-5MHz", "cz-theta2-0.3MHz", "cnot-0.1MHz"])
    def test_off_design_leakage_is_the_rk4_walk(self, gate, interaction):
        # the population the inputs leave in Rydberg states (0.024 for CZ(pi) at 5 MHz), by RK4
        cfg = parse_config({"gate": gate, "overrides": {"interaction_mhz": interaction}})
        protocol = cfg.protocol
        gate = rk4_gate_matrix(protocol.kind, protocol.theta, protocol.omega_control, protocol.omega_target,
                               interaction * MHZ)
        leakage = run_simulate(cfg).results["diagnostics"]["leakage"]
        assert leakage > 1e-4
        assert abs(leakage - (1.0 - (np.abs(gate) ** 2).sum() / 4.0)) <= 1e-9

    def test_zero_interaction_override_gives_identity(self, tmp_path):
        path = write_config(tmp_path, {"overrides": {"interaction_mhz": 0.0}})
        result = run_cli(["simulate", "--config", path])
        record = json.loads(result.output)
        gate = complex_matrix_from_json(record["results"]["gate_matrix"])
        assert np.abs(gate - np.eye(4)).max() < 1e-9

    def test_conflicting_overrides_rejected(self):
        with pytest.raises(ConfigError):
            cfg = parse_config(
                {"overrides": {"interaction_mhz": 0.5, "separation_um": 21.0}}
            )
            run_simulate(cfg)

    @pytest.mark.parametrize("command", ["simulate", "fidelity"])
    def test_infinite_decay_error_exits_2_without_output(self, tmp_path, command):
        # exposure / lifetime overflows to inf: the lifetime is too short to price
        path = write_config(tmp_path, {"noise": {"rydberg_lifetime_ms": 1e-320}})
        result = run_cli([command, "--config", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'noise.rydberg_lifetime_ms'" in result.stderr

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "omega", "start": 0.8, "stop": 1.6, "points": 2},
            {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2},
        ],
    )
    def test_infinite_decay_error_on_a_sweep_exits_2(self, tmp_path, sweep):
        payload = {"noise": {"rydberg_lifetime_ms": 1e-320}, "sampling": {"deltas": [0.5]}, "sweep": sweep}
        result = run_cli(["sweep", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'noise.rydberg_lifetime_ms'" in result.stderr


class TestFidelityCommand:
    CONFIG = {
        "sampling": {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 20000, "mc_truncated": True},
    }

    def test_json_report(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        result = run_cli(["fidelity", "--config", path])
        assert result.exit_code == 0
        record = json.loads(result.output)
        grid = record["results"]["grid"]
        assert [d for d, _ in grid["convergence"]] == [0.5, 0.25]
        assert 0.97 < grid["mean_fidelity"] < 1.0
        mc = record["results"]["mc"]
        assert abs(mc["mean_fidelity"] - grid["mean_fidelity"]) < 0.005

    def test_csv_rows_round_trip(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "rows.csv"
        result = run_cli(["fidelity", "--config", path, "--format", "csv", "--out", str(out)]
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
        "noise", [{"sigma_perp0_um": 8.0}, {"trap_separation_um": 0.9}]
    )
    def test_table_window_at_zero_distance_exits_2(self, tmp_path, noise):
        # 3 inflated sigma_perp reach past the trap separation: the grid reaches zero distance
        path = write_config(tmp_path, {"noise": noise, "sampling": {"deltas": [0.5]}})
        result = run_cli(["fidelity", "--config", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'noise.sigma_perp0_um'" in result.stderr
        separation = noise.get("trap_separation_um", 20.99)
        assert f"{separation:.4g} um trap separation" in result.stderr

    def test_grid_reaching_zero_distance_exits_before_the_draw(self, tmp_path, monkeypatch):
        draws = []
        monte_carlo = rydvdw.budget.monte_carlo_average_fidelity

        def counted(*args, **kwargs):
            draws.append(args)
            return monte_carlo(*args, **kwargs)

        monkeypatch.setattr("rydvdw.budget.monte_carlo_average_fidelity", counted)
        reference = json.loads((Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json").read_text())
        sampling = {**reference["sampling"], "mc_samples": 2000}
        payload = {**reference, "noise": {**reference["noise"], "sigma_perp0_um": 8.0}, "sampling": sampling}
        assert payload["sampling"]["mode"] == "both"
        result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
        assert (result.exit_code, result.stdout, draws) == (2, "", [])
        assert "config error: invalid config field 'noise.sigma_perp0_um'" in result.stderr
        # the spy's positive control: the same run at the reference spread draws once
        payload["noise"] = reference["noise"]
        result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
        assert (result.exit_code, len(draws)) == (0, 1)

    def test_grid_reaching_zero_distance_names_sigma_perp(self, tmp_path):
        payload = {"noise": {"trap_separation_um": 0.9, "temperature_uk": 12.5}}
        cfg = parse_config(payload)
        assert cfg.noise == NoiseConfig(trap_separation=0.9, temperature=12.5)
        sigmas = inflate_sigmas(cfg.noise, cfg.protocol.t_gate)
        result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'noise.sigma_perp0_um'" in result.stderr
        for quoted in (f"{sigmas.sigma_perp:.4g} um, inflated at 12.5 uK", "0.9 um trap separation"):
            assert quoted in result.stderr

    @pytest.mark.parametrize(
        "noise", [{"sigma_z0_um": 5.0}, {"trap_separation_um": 5.0}]
    )
    def test_wide_spreads_away_from_zero_run(self, tmp_path, noise):
        # every grid distance lies 3 um or more from zero, and the draws beyond the grid
        # take the closed form
        payload = {"noise": noise, "sampling": {"mode": "both", "deltas": [0.5], "mc_samples": 2000}}
        result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 0, result.output
        results = json.loads(result.stdout)["results"]
        for method in ("grid", "mc"):
            assert 0.0 < results[method]["mean_fidelity"] < 1.0

    @pytest.mark.parametrize(
        "payload, expected",
        [
            # atoms at rest at the trap centers: every distance is the design separation
            ({"noise": {"sigma_z0_um": 1e-20, "sigma_perp0_um": 1e-20, "temperature_uk": 1e-30}}, None),
            # no interaction: CZ(pi) acts as the identity, fidelity (4 + 4) / 20
            ({"noise": {"trap_separation_um": 1e30}}, 0.4),
            # the solved separation dwarfs the spreads
            ({"vdw": {"c6_thz_um6": 1e300}}, 1.0),
        ],
    )
    def test_window_narrower_than_a_knot_spacing_runs(self, payload, expected):
        # spreads below an ulp of the separation collapse the window to one distance
        cfg = parse_config({**payload, "sampling": {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 200}})
        if expected is None:
            protocol = cfg.protocol
            expected = gate_fidelity(protocol, protocol.nominal_interaction)
        results = run_fidelity(cfg).results
        for method in ("grid", "mc"):
            assert abs(results[method]["mean_fidelity"] - expected) < 1e-12

    @pytest.mark.parametrize(
        "payload, expected",
        [({"noise": {"trap_separation_um": 1e30}}, 0.4), ({"vdw": {"c6_thz_um6": 1e300}}, 1.0)],
    )
    def test_window_narrower_than_a_knot_spacing_on_a_temperature_sweep(self, tmp_path, payload, expected):
        sweep = {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3}
        payload = {**payload, "sampling": {"deltas": [0.5]}, "sweep": sweep}
        result = run_cli(["sweep", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 0, result.output
        rows = rows_from_csv(result.stdout)
        assert len(rows) == 3
        for row in rows:
            assert abs(row["mean_fidelity"] - expected) < 1e-12

    @pytest.mark.parametrize(
        "payload",
        [
            CONFIG,
            {"sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3},
             "sampling": {"deltas": [0.5]}},
        ],
    )
    def test_exposure_computed_once_per_command(self, monkeypatch, payload):
        # the closed form prices the decay once, and neither command walks
        calls = {"design_exposure": [], "simulate": []}

        def counted(name, func):
            def call(*args, **kwargs):
                calls[name].append(args)
                return func(*args, **kwargs)

            return call

        # budget.price computes the exposure; the CLI's own name would take any second call
        for module in ("budget", "cli"):
            monkeypatch.setattr(f"rydvdw.{module}.design_exposure", counted("design_exposure", design_exposure))
        monkeypatch.setattr("rydvdw.cli.simulate", counted("simulate", simulate))
        run = run_sweep if "sweep" in payload else run_fidelity
        run(parse_config(payload))
        assert len(calls["design_exposure"]) == 1
        assert calls["simulate"] == []
        # the walk spy's positive control: simulate walks once
        run_simulate(parse_config({}))
        assert len(calls["simulate"]) == 1

    def test_tiny_sigma_returns_unity(self, tmp_path):
        payload = {
            "noise": {"sigma_z0_um": 1e-6, "sigma_perp0_um": 1e-6, "temperature_uk": 1e-12},
            "sampling": {"mode": "grid", "deltas": [0.5]},
        }
        path = write_config(tmp_path, payload)
        result = run_cli(["fidelity", "--config", path])
        record = json.loads(result.output)
        assert abs(record["results"]["grid"]["mean_fidelity"] - 1.0) < 1e-6
        # its table is the minimum four knots, still measured at their three midpoints
        # (5.9e-14 measured)
        diagnostics = record["results"]["diagnostics"]
        interior = diagnostics.pop("spline_error_interior")
        assert interior <= diagnostics.pop("spline_error") <= 1e-12
        # and the one delta-0.5 grid looks up its (2m+1)(m+1)**2 folded points, m = 6
        assert diagnostics == {"table_knots": 4, "direct_evaluations": 0, "grid_lookups": 13 * 7**2}

    def test_diagnostics_describe_the_table(self, tables):
        results = run_fidelity(parse_config(dict(self.CONFIG))).results
        (table,) = tables
        worst, interior = table.spline_errors()
        diagnostics = {"table_knots": len(table.distances), "spline_error": worst, "spline_error_interior": interior}
        assert results["rydberg_exposure_us"] == design_exposure(parse_config(dict(self.CONFIG)).protocol)
        # every draw truncated at the grid's support lies in its window
        diagnostics["direct_evaluations"] = 0
        diagnostics["grid_lookups"] = 13 * 7**2 + 25 * 13**2  # m = 6 and 12
        assert results["diagnostics"] == diagnostics and 0.0 < diagnostics["spline_error"] < 1e-8
        assert interior <= worst

    def test_both_mode_grid_is_the_grid_mode_grid(self):
        # the table is the grid window's alone, so the draws no longer move the grid numbers
        reference = load_config(Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json").raw
        assert reference["sampling"]["mode"] == "both"
        both = run_fidelity(parse_config(reference)).results
        sampling = {**reference["sampling"], "mode": "grid"}
        grid = run_fidelity(parse_config({**reference, "sampling": sampling})).results
        assert both["grid"] == grid["grid"] and both["grid"]["convergence"] == grid["grid"]["convergence"]
        for row in both["csv_rows"] + grid["csv_rows"]:
            row.pop("wallTime")
        assert both["csv_rows"][:-1] == grid["csv_rows"]
        assert both["diagnostics"]["table_knots"] == grid["diagnostics"]["table_knots"] == 357
        # and the reference draws beyond the window are counted, none without a draw
        assert (both["diagnostics"]["direct_evaluations"], grid["diagnostics"]["direct_evaluations"]) == (14448, 0)

    def test_cold_error_budget_never_loads_numpy_random(self, tmp_path):
        # the 1e6 reference draws come from the package's stream: numpy.random, and hashlib,
        # which its first default_rng loads through secrets, stay out of a cold run
        code = (
            "import sys\n"
            "from rydvdw.cli import main\n"
            "main(['fidelity', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random') or m.endswith('hashlib'))\n"
            "assert not loaded, loaded\n"
        )
        config = Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json"
        src = str(Path(rydvdw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out.json")],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "out.json").read_text())["results"]["mc"]["sample_count"] == 10**6

    def test_grid_lookups_count_the_folded_grid(self):
        # the reference config's five steps look up sum (2m+1)(m+1)**2 folded points, beside
        # the (m+1)**6 nominal nodes each reports; an mc-only run looks up none
        reference = load_config(Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json").raw
        steps = [round(3 / delta) for delta in reference["sampling"]["deltas"]]
        results = run_fidelity(parse_config(reference)).results
        assert results["diagnostics"]["grid_lookups"] == sum((2 * m + 1) * (m + 1) ** 2 for m in steps) == 123339
        assert [row["samples"] for row in results["csv_rows"][:-1]] == [(m + 1) ** 6 for m in steps]
        sampling = {**reference["sampling"], "mode": "mc", "mc_samples": 2000}
        assert run_fidelity(parse_config({**reference, "sampling": sampling})).results["diagnostics"]["grid_lookups"] == 0

    def test_mc_run_reaching_zero_distance_tabulates_from_the_traps(self, tables):
        # 3 sigma_perp reach past a 0.9 um trap separation: a grid run is refused, but a
        # Monte Carlo run alone tabulates from the traps' distance, and the nearer draws
        # (and those beyond the window) take the closed form
        payload = {"noise": {"trap_separation_um": 0.9}, "sampling": {"mode": "mc", "mc_samples": 5000}}
        cfg = parse_config(payload)
        results = run_fidelity(cfg).results
        (table,) = tables
        _, sigmas, separation = reduced(cfg.protocol, cfg.noise)
        assert table.distances[0] == separation == 0.9 / cfg.protocol.separation
        distances = np.concatenate([block.copy() for block in draw_distances(sigmas, separation, 5000, cfg.seed)])
        outside = (distances < table.distances[0]) | (distances > table.distances[-1])
        assert results["diagnostics"]["direct_evaluations"] == np.count_nonzero(outside) > 0
        assert 0.0 < results["mc"]["mean_fidelity"] < 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mc_run_at_a_vanishing_trap_separation_runs(self, tables):
        # a 1e-55 um trap: the interaction at the traps' own distance overflows, so the
        # table starts one knot spacing from zero distance instead
        sampling = {"mode": "mc", "mc_samples": 2000}
        cfg = parse_config({"noise": {"trap_separation_um": 1e-55}, "sampling": sampling})
        results = run_fidelity(cfg).results
        (table,) = tables
        assert table.distances[0] == KNOT_SPACING
        assert 0.0 < results["mc"]["mean_fidelity"] < 1.0 and results["diagnostics"]["direct_evaluations"] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_draw_names_the_trap_separation(self, tmp_path):
        # traps 1e154 design separations apart: the grid window stays finite, but draws
        # 3.2 sigma_z out overflow to inf; the separation, larger than both spreads, is named
        length = parse_config({}).protocol.separation
        noise = {"trap_separation_um": 1e154 * length, "sigma_z0_um": 2e153 * length}
        for mode in ("mc", "both"):
            payload = {"noise": noise, "sampling": {"mode": mode, "deltas": [0.5], "mc_samples": 20000}}
            result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
            assert (result.exit_code, result.stdout) == (2, "")
            assert "config error: invalid config field 'noise.trap_separation_um'" in result.stderr
            assert "Monte Carlo distance is inf" in result.stderr

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

    @pytest.mark.parametrize("truncated", [False, True])
    def test_average_blocks_carry_label_and_count(self, truncated):
        # the grid counts its (m+1)**6 nominal nodes, Monte Carlo its samples
        sampling = {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 3000, "mc_truncated": truncated}
        results = run_fidelity(parse_config({"sampling": sampling})).results
        grid, mc = results["grid"], results["mc"]
        assert grid["method"] == "grid-paired" and grid["sample_count"] == 13**6
        assert "stderr" not in grid
        assert mc["method"] == ("mc-truncated" if truncated else "mc") and mc["sample_count"] == 3000
        assert mc["stderr"] > 0.0
        # the support of each: 1.5 sigma per coordinate, or the whole Gaussian
        assert grid["truncation"] == 1.5 and mc["truncation"] == (1.5 if truncated else None)
        assert [row["samples"] for row in results["csv_rows"]] == [7**6, 13**6, 3000]

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

    def test_seed_flag_changes_mc(self, tmp_path):
        path = write_config(tmp_path, {"sampling": {"mode": "mc", "mc_samples": 5000}})
        outputs = []
        for seed in ("1", "1", "2"):
            result = run_cli(["fidelity", "--config", path, "--seed", seed])
            outputs.append(json.loads(result.output)["results"]["mc"]["mean_fidelity"])
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_seed_flag_is_echoed_in_config(self, tmp_path):
        # re-running the echoed config repeats the flagged run exactly
        path = write_config(tmp_path, {"sampling": {"mode": "mc", "mc_samples": 2000}})
        result = run_cli(["fidelity", "--config", path, "--seed", "7"])
        assert result.exit_code == 0, result.output
        record = json.loads(result.stdout)
        assert record["config"]["seed"] == 7
        again = run_fidelity(parse_config(record["config"])).results["mc"]
        assert again["mean_fidelity"] == record["results"]["mc"]["mean_fidelity"]

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_single_mc_sample_exits_2(self, tmp_path, mode):
        # one draw has no standard error
        payload = {"sampling": {"mode": mode, "deltas": [0.5], "mc_samples": 1}}
        result = run_cli(["fidelity", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'sampling.mc_samples'" in result.stderr

    @pytest.mark.parametrize("truncated", [False, True])
    def test_seeds_at_the_schema_ends_draw(self, tmp_path, truncated):
        # 0 and 2**64 - 1 key two different streams, with no integer overflow warning
        path = write_config(tmp_path, {"sampling": {"mode": "mc", "mc_samples": 2000, "mc_truncated": truncated}})
        means = []
        for seed in ("0", str(2**64 - 1)):
            result = run_cli(["fidelity", "--config", path, "--seed", seed])
            assert (result.exit_code, result.stderr) == (0, "")
            means.append(json.loads(result.stdout)["results"]["mc"]["mean_fidelity"])
        assert means[0] != means[1] and all(0.9 < mean < 1.0 for mean in means)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_exits_2(self, tmp_path, seed):
        path = write_config(tmp_path, {"sampling": {"mode": "mc", "mc_samples": 2000}})
        result = run_cli(["fidelity", "--config", path, "--seed", seed])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "config error: invalid config field 'seed'" in result.stderr

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("fidelity", {"noise": {"sigma_z0_um": 1e6}}, "sigma_z0_um"),
            ("fidelity", {"noise": {"sigma_z0_um": 1e300}}, "sigma_z0_um"),
            ("fidelity", {"noise": {"sigma_z0_um": 1e6}, "sampling": {"mode": "mc"}}, "sigma_z0_um"),
            ("fidelity", {"noise": {"sigma_z0_um": 1e300}, "sampling": {"mode": "mc"}}, "sigma_z0_um"),
            ("fidelity", {"noise": {"sigma_perp0_um": 1e4}, "sampling": {"mode": "mc"}}, "sigma_perp0_um"),
            # inf - inf: every draw is NaN
            ("fidelity", {"noise": {"sigma_perp0_um": 1e308}, "sampling": {"mode": "mc"}}, "sigma_perp0_um"),
            ("sweep", {"noise": {"sigma_z0_um": 1e6},
                       "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2}},
             "sigma_z0_um"),
            # the free flight widens the spreads: its hot or light atom is named, not a
            # spread that holds its default (the grid reaches zero distance first)
            ("fidelity", {"noise": {"temperature_uk": 3e5}}, "temperature_uk"),
            ("fidelity", {"noise": {"temperature_uk": 1e308}}, "temperature_uk"),
            ("fidelity", {"noise": {"temperature_uk": 1e308}, "sampling": {"mode": "mc"}}, "temperature_uk"),
            ("fidelity", {"noise": {"atom_mass_kg": 1e-320}}, "atom_mass_kg"),
            ("fidelity", {"noise": {"atom_mass_kg": 1e-320}, "sampling": {"mode": "mc"}}, "atom_mass_kg"),
            ("sweep", {"noise": {"atom_mass_kg": 1e-320},
                       "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 2}},
             "atom_mass_kg"),
        ],
    )
    def test_table_window_too_wide_exits_2(self, tmp_path, command, payload, field):
        # the window would need MAX_KNOTS knots or more, or the grid reaches zero
        # distance; the field behind the larger spread is named
        payload["sampling"] = {"deltas": [0.5], "mc_samples": 1000, **payload.get("sampling", {})}
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"config error: invalid config field 'noise.{field}'" in result.stderr
        assert "np.float64" not in result.stderr


class TestSpreadField:
    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"sigma_z0": 1e6, "temperature": 3e5}, "noise.sigma_z0_um"),
            # the flight is at fault: the farther of the two from the reference point
            ({"temperature": 3e5, "atom_mass": 1e-30}, "noise.atom_mass_kg"),
            ({"temperature": 3e9, "atom_mass": 1e-30}, "noise.temperature_uk"),
        ],
    )
    def test_names_the_field_that_widened_the_spread(
        self, nominal_noise, nominal_protocol, changes, field
    ):
        noise = replace(nominal_noise, **changes)
        assert _spread_field(nominal_protocol, noise, "z") == field

    @pytest.mark.parametrize(
        "drives, changes, field",
        [
            # the flight is v_rms t_gate: a drive 1e6 times slower than 0.8 MHz outweighs an atom
            # 1e11 times hotter, whose v_rms grows by 3e5, but not one 1e13 times hotter
            ((0.8e-6, 0.8), {"temperature": 1e12}, "drive.omega_control_mhz"),
            ((0.8, 0.8e-6), {"temperature": 1e12}, "drive.omega_target_mhz"),
            ((0.8e-6, 0.8), {"temperature": 1e14}, "noise.temperature_uk"),
            ((0.8e-6, 0.8e-7), {"atom_mass": 1e-38}, "drive.omega_target_mhz"),
            ((0.8e-6, 0.8), {"atom_mass": 1e-40}, "noise.atom_mass_kg"),
        ],
    )
    def test_names_the_slower_drive_when_the_gate_outlasts_the_heat(self, nominal_noise, drives, changes, field):
        protocol = GateProtocol.solve(np.pi, drives[0] * MHZ, drives[1] * MHZ)
        assert _spread_field(protocol, replace(nominal_noise, **changes), "z") == field


class TestSweepCommand:
    @pytest.mark.parametrize(
        "noise, start, stop, field",
        [
            # the table serves the hottest temperature, whose grid reaches zero distance
            pytest.param({}, 5.0, 3e5, "sweep.stop", id="5.0-300000.0-sweep.stop"),
            pytest.param({}, 1e308, 5.0, "sweep.start", id="1e+308-5.0-sweep.start"),
            # 2100 um traps stay clear of zero distance, but the hottest table window,
            # u in [1.59, 242.5], needs more than MAX_KNOTS knots
            pytest.param({"trap_separation_um": 2100}, 10, 1.7e9, "sweep.stop", id="2100um-10-1.7e9-sweep.stop"),
            pytest.param({"trap_separation_um": 2100}, 1.7e9, 10, "sweep.start", id="2100um-1.7e9-10-sweep.start"),
        ],
    )
    def test_hottest_sweep_end_is_named(self, tmp_path, noise, start, stop, field):
        payload = {"noise": noise, "sweep": {"axis": "temperature", "start": start, "stop": stop, "points": 2},
                   "sampling": {"deltas": [0.5]}}
        result = run_cli(["sweep", "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"config error: invalid config field '{field}'" in result.stderr

    def test_two_point_sweep_has_two_rows(self, tmp_path):
        payload = {"sweep": {"axis": "separation", "start": 20.0, "stop": 22.0, "points": 2}}
        path = write_config(tmp_path, payload)
        result = run_cli(["sweep", "--config", path])
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

    @pytest.mark.parametrize("kind", ["cz", "cnot"])
    def test_temperature_row_is_the_fidelity_grid_estimate(self, kind):
        # the row at the config temperature (10 uK) averages as the fidelity command does
        base = {"gate": {"kind": kind, "theta_rad": np.pi}, "sampling": {"mode": "grid", "deltas": [0.1]}}
        grid = run_fidelity(parse_config(base)).results["grid"]
        sweep = {"axis": "temperature", "start": 2.0, "stop": 32.0, "points": 16}
        rows = run_sweep(parse_config({**base, "sweep": sweep})).results["rows"]
        (row,) = [row for row in rows if row["value"] == 10.0]
        assert abs(row["mean_fidelity"] - grid["estimate"]) < 1e-12
        assert abs(row["net_fidelity"] - grid["net_fidelity"]) < 1e-12

    @pytest.mark.parametrize("kind", ["cz", "cnot"])
    def test_hottest_temperature_row_is_the_fidelity_grid_estimate(self, kind):
        # the sweep's one table is the 32 uK fidelity run's, so the row equals it exactly
        base = {"gate": {"kind": kind, "theta_rad": np.pi}, "sampling": {"mode": "grid", "deltas": [0.05]}}
        sweep = {"axis": "temperature", "start": 2.0, "stop": 32.0, "points": 16}
        row = run_sweep(parse_config({**base, "sweep": sweep})).results["rows"][-1]
        grid = run_fidelity(parse_config({**base, "noise": {"temperature_uk": 32.0}})).results["grid"]
        assert row["value"] == 32.0
        assert (row["mean_fidelity"], row["net_fidelity"]) == (grid["mean_fidelity"], grid["net_fidelity"])

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
    def test_csv_cells_parse_as_numbers(self, tmp_path, sweep):
        path = write_config(tmp_path, {"sweep": sweep, "sampling": {"deltas": [0.5]}})
        out = tmp_path / "rows.csv"
        result = run_cli(["sweep", "--config", path, "--out", str(out)])
        assert result.exit_code == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == sweep["points"]
        for row in rows:
            assert row.pop("axis") == sweep["axis"]
            assert all(isinstance(value, float) for value in row.values()), row

    @staticmethod
    def assert_omega_rows_are_simulate_records(gate):
        # each row prices the config with both drives at the row's omega from the closed forms,
        # as the fidelity record does, and sits within 1e-14 of the simulate record's walk
        sweep = {"axis": "omega", "start": 0.5, "stop": 5.0, "points": 3}
        for row in run_sweep(parse_config({"gate": gate, "sweep": sweep})).results["rows"]:
            drive = {"omega_control_mhz": row["value"], "omega_target_mhz": row["value"]}
            cfg = parse_config({"gate": gate, "drive": drive})
            protocol = cfg.protocol
            assert row["nominal_fidelity"] == float(gate_fidelity(protocol, protocol.nominal_interaction))
            assert row["rydberg_exposure_us"] == design_exposure(protocol)
            fidelity = run_fidelity(parse_config({**cfg.raw, "sampling": {"deltas": [0.5]}}))
            assert row["rydberg_exposure_us"] == fidelity.results["rydberg_exposure_us"]
            record = run_simulate(cfg)
            fields = {**record.params, **record.results}
            assert abs(row["nominal_fidelity"] - fields["nominal_fidelity"]) < 1e-14
            for key in ("rydberg_exposure_us", "decay_error_300k"):
                assert abs(row[key] / fields[key] - 1.0) < 1e-14, key
            for key in ("t_gate_us", "separation_um"):
                assert row[key] == fields[key], key

    @given(theta=st.floats(0.2, 2 * np.pi - 0.2))
    @settings(max_examples=10, deadline=None)
    def test_cz_omega_row_is_the_simulate_record(self, theta):
        self.assert_omega_rows_are_simulate_records({"kind": "cz", "theta_rad": theta})

    def test_cnot_omega_row_is_the_simulate_record(self):
        self.assert_omega_rows_are_simulate_records({"kind": "cnot", "theta_rad": np.pi})

    @pytest.mark.parametrize("end", ["start", "stop"])
    def test_overflowing_omega_sweep_end_is_named(self, tmp_path, end):
        # pi / omega overflows at the 1e-320 MHz end of the sweep
        sweep = {"axis": "omega", "start": 1.0, "stop": 1.0, "points": 2, end: 1e-320}
        result = run_cli(["sweep", "--config", write_config(tmp_path, {"sweep": sweep})])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"config error: invalid config field 'sweep.{end}'" in result.stderr

    def test_sweep_requires_block(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(parse_config({}))

    def test_values_sorted_even_if_range_reversed(self):
        cfg = parse_config(
            {"sweep": {"axis": "separation", "start": 22.0, "stop": 20.0, "points": 3}}
        )
        rows = run_sweep(cfg).results["rows"]
        assert [row["value"] for row in rows] == sorted(row["value"] for row in rows)


class TestOneWalkPerDesignPoint:
    """A simulated gate is one propagation: its matrix and its exposure come from the same walk.
    Only the simulate command walks, and its record's kernel_gap and exposure_gap score that walk.
    Fidelities at many interactions, a table's or a separation sweep's, and the fidelity and
    exposure at the design interaction, which price an omega row and the decay, are closed forms."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        propagate = rydvdw.dynamics.propagate

        def counted(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr("rydvdw.dynamics.propagate", counted)
        return calls

    def test_simulate_walks_once(self, walks):
        run_simulate(parse_config({}))
        assert len(walks) == 1

    def test_reference_fidelity_never_walks(self, walks, tables):
        # its one table and its exposure are closed forms
        run_fidelity(load_config(Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json"))
        assert len(tables) == 1 and walks == []

    @pytest.mark.parametrize("points", [2, 5])
    def test_omega_sweep_walks_once_per_point(self, walks, tables, points):
        # the name dates from when each row walked; a row is now priced in closed form, so none walks
        sweep = {"axis": "omega", "start": 0.5, "stop": 5.0, "points": points}
        assert len(run_sweep(parse_config({"sweep": sweep})).results["rows"]) == points
        assert walks == [] and tables == []

    @pytest.mark.parametrize("sweep", [
        {"axis": "separation", "start": 15.0, "stop": 30.0, "points": 401},
        {"axis": "temperature", "start": 2.0, "stop": 32.0, "points": 4},
    ], ids=lambda sweep: sweep["axis"])
    def test_sweep_never_walks(self, walks, tables, sweep):
        # a temperature sweep builds one table for every temperature
        run_sweep(parse_config({"sweep": sweep, "sampling": {"deltas": [0.5]}}))
        assert walks == []
        assert len(tables) == (1 if sweep["axis"] == "temperature" else 0)

    @pytest.mark.parametrize("gate", [{"kind": "cz", "theta_rad": np.pi}, {"kind": "cnot", "theta_rad": np.pi}],
                             ids=lambda gate: gate["kind"])
    def test_walked_and_closed_form_records_differ_by_the_gaps(self, gate):
        # simulate carries the walked exposure and fidelity, the fidelity record (and an omega row)
        # the closed forms; the simulate record's diagnostics are the distance between the two
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json").read_text())
        cfg = parse_config({**raw, "gate": gate, "sampling": {"mode": "grid", "deltas": [0.5]}})
        walked = run_simulate(cfg).results
        record = run_fidelity(cfg).results
        protocol = cfg.protocol
        closed, gaps = float(gate_fidelity(protocol, protocol.nominal_interaction)), walked["diagnostics"]
        assert abs(walked["rydberg_exposure_us"] - record["rydberg_exposure_us"]) == gaps["exposure_gap"]
        assert abs(walked["nominal_fidelity"] - closed) == gaps["kernel_gap"]


class TestInfiniteInteraction:
    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("sweep", {"sweep": {"axis": "separation", "start": 1e-60, "stop": 22.0, "points": 2}},
             "sweep.start"),
            ("sweep", {"sweep": {"axis": "separation", "start": 22.0, "stop": 1e-60, "points": 2}},
             "sweep.stop"),
            ("simulate", {"overrides": {"separation_um": 1e-60}}, "overrides.separation_um"),
            ("simulate", {"overrides": {"interaction_mhz": 1e308}}, "overrides.interaction_mhz"),
        ],
    )
    def test_config_value_giving_infinite_interaction_is_named(self, tmp_path, command, payload, field):
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"config error: invalid config field '{field}'" in result.stderr


class TestOverrideRange:
    @pytest.mark.parametrize("interaction", [5e306, 2.8e307])
    def test_interaction_beyond_the_walk_exits_2(self, tmp_path, interaction):
        # both lie above the schema's maximum, near where the walk's phases overflow: at 2.8e307 MHz
        # to a NaN exposure that named the lifetime
        result = run_cli(["simulate", "--config", write_config(tmp_path, {"overrides": {"interaction_mhz": interaction}})])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("config error: invalid config field 'overrides.interaction_mhz'")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("separation, code", [(1e-17, 2), (1e-15, 0)])
    def test_separation_beyond_the_walk_exits_2(self, tmp_path, separation, code):
        # 39.5 THz um^6 at 1e-17 um is 4e109 MHz, at 1e-15 um 4e97 MHz
        result = run_cli(["simulate", "--config", write_config(tmp_path, {"overrides": {"separation_um": separation}})])
        assert result.exit_code == code
        if code:
            assert result.stderr.startswith("config error: invalid config field 'overrides.separation_um'")

    def test_walk_holds_the_closed_form_up_to_the_maximum(self):
        gaps = [run_simulate(parse_config({"overrides": {"interaction_mhz": float(value)}})).results["diagnostics"]
                ["kernel_gap"] for value in np.geomspace(1e-3, MAX_OVERRIDE_MHZ, 200)]
        assert max(gaps) < 1e-14

    @given(
        cnot=st.booleans(),
        theta=st.floats(0, 2 * np.pi, exclude_min=True, exclude_max=True),
        control_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
        target_mhz=st.floats(np.log(0.1), np.log(10.0)).map(np.exp),
        interaction_mhz=st.floats(np.log(1e-3), np.log(MAX_OVERRIDE_MHZ)).map(lambda x: min(np.exp(x), MAX_OVERRIDE_MHZ)),
    )
    # an eigensolver accurate only to eps V scrambled this design's drive-scale eigenphases:
    # its walked fidelity was 0.7338, 0.157 off the closed form
    @example(cnot=False, theta=0.8827524346223083, control_mhz=1.7772048824583537, target_mhz=6.096838030181302,
             interaction_mhz=1.7378622964395062e16)
    @settings(max_examples=100, deadline=None)
    def test_walk_holds_the_closed_form_across_designs(self, cnot, theta, control_mhz, target_mhz, interaction_mhz):
        gate = {"kind": "cnot", "theta_rad": np.pi} if cnot else {"kind": "cz", "theta_rad": theta}
        payload = {"gate": gate, "drive": {"omega_control_mhz": control_mhz, "omega_target_mhz": target_mhz},
                   "overrides": {"interaction_mhz": interaction_mhz}}
        try:
            cfg = parse_config(payload)
        except ConfigError:
            # a phase so near 0 that its design interaction is infinite
            assume(False)
        assert run_simulate(cfg).results["diagnostics"]["kernel_gap"] < 1e-14


class TestNumberFields:
    FIELDS = [
        "drive.omega_control_mhz", "drive.omega_target_mhz", "gate.theta_rad", "vdw.c6_thz_um6",
        "noise.sigma_z0_um", "noise.sigma_perp0_um", "noise.temperature_uk", "noise.atom_mass_kg",
        "noise.rydberg_lifetime_ms", "noise.trap_separation_um",
    ]
    VALUES = [1e-300, 1e-30, 1e-9, 1e-3, 0.5, 3, 6.28, 1e3, 1e9, 1e30, 1e300]
    SWEEPS = {
        "separation": {"axis": "separation", "start": 18.0, "stop": 22.0, "points": 3},
        "omega": {"axis": "omega", "start": 0.5, "stop": 1.0, "points": 3},
        "temperature": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3},
    }

    OVERFLOWS = [
        ("fidelity", {"noise": {"sigma_z0_um": 1e300}}, "noise.sigma_z0_um"),
        # the squared separation overflows every distance: the separation is named, not a spread
        ("fidelity", {"noise": {"trap_separation_um": 1e300}}, "noise.trap_separation_um"),
        ("fidelity", {"noise": {"sigma_perp0_um": 1e308}, "sampling": {"mode": "mc"}},
         "noise.sigma_perp0_um"),
        ("sweep", {"noise": {"sigma_z0_um": 1e300}, "sweep": SWEEPS["temperature"]}, "noise.sigma_z0_um"),
        ("sweep", {"noise": {"trap_separation_um": 1e300}, "sweep": SWEEPS["temperature"]},
         "noise.trap_separation_um"),
        ("sweep", {"sweep": {"axis": "separation", "start": 1e-60, "stop": 22.0, "points": 2}},
         "sweep.start"),
        ("simulate", {"overrides": {"separation_um": 1e-60}}, "overrides.separation_um"),
        ("fidelity", {"noise": {"trap_separation_um": 1e300}, "sampling": {"mode": "mc"}},
         "noise.trap_separation_um"),
        ("fidelity",
         {"noise": {"trap_separation_um": 1e300}, "sampling": {"mode": "mc", "mc_truncated": True}},
         "noise.trap_separation_um"),
        # 3 sigma_perp overflow: the grid reaches any separation
        ("fidelity", {"noise": {"sigma_perp0_um": 1e308}}, "noise.sigma_perp0_um"),
        ("sweep", {"noise": {"sigma_perp0_um": 1e308}, "sweep": SWEEPS["temperature"]}, "noise.sigma_perp0_um"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, payload, field",
        OVERFLOWS,
        ids=[f"{command}-payload{i}" for i, (command, _, _) in enumerate(OVERFLOWS)],
    )
    def test_overflow_prints_only_its_config_error(self, tmp_path, command, payload, field):
        payload["sampling"] = {"deltas": [0.5], "mc_samples": 200, **payload.get("sampling", {})}
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"config error: invalid config field '{field}'")
        assert result.stderr.count("\n") == 1

    FLIGHTS = [
        # v_rms t_gate overflows: the slow drive outweighs the heat or the light atom
        ("fidelity", {"drive": {"omega_control_mhz": 1e-200}, "noise": {"temperature_uk": 1e300}},
         "drive.omega_control_mhz"),
        ("fidelity", {"drive": {"omega_control_mhz": 1e-200}, "noise": {"atom_mass_kg": 1e-300},
                      "sampling": {"mode": "mc"}}, "drive.omega_control_mhz"),
        ("sweep", {"drive": {"omega_target_mhz": 1e-250},
                   "sweep": {"axis": "temperature", "start": 5.0, "stop": 1e300, "points": 2}},
         "drive.omega_target_mhz"),
        # kB T / m overflows, so v_rms is infinite at any drive
        ("fidelity", {"noise": {"temperature_uk": 1e300, "atom_mass_kg": 1e-300}}, "noise.temperature_uk"),
        ("fidelity", {"noise": {"temperature_uk": 1e20, "atom_mass_kg": 1e-320}, "sampling": {"mode": "mc"}},
         "noise.atom_mass_kg"),
    ]

    @pytest.mark.parametrize("command, payload, field", FLIGHTS)
    def test_overflowing_flight_names_the_field_behind_it(self, tmp_path, command, payload, field):
        # under the suite's warnings-as-errors: the flight is formed in Python floats
        payload["sampling"] = {"deltas": [0.5], "mc_samples": 200, **payload.get("sampling", {})}
        cfg = parse_config(payload)
        hottest = replace(cfg.noise, temperature=payload["sweep"]["stop"]) if command == "sweep" else cfg.noise
        assert math.isinf(inflate_sigmas(hottest, cfg.protocol.t_gate).flight_length)
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(f"config error: invalid config field '{field}'")
        assert result.stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        field=st.sampled_from(FIELDS),
        value=st.sampled_from(VALUES),
        command=st.sampled_from(["solve", "simulate", "fidelity", *SWEEPS]),
        mc_samples=st.integers(2, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_number_field_exits_0_or_2(self, tmp_path_factory, field, value, command, mc_samples):
        block, name = field.split(".")
        payload = {block: {name: value}, "sampling": {"mode": "both", "deltas": [0.5], "mc_samples": mc_samples}}
        argv = [command]
        if command in self.SWEEPS:
            argv, payload["sweep"] = ["sweep"], self.SWEEPS[command]
        result = run_cli([*argv, "--config", write_config(tmp_path_factory.getbasetemp(), payload)])
        assert result.exit_code in (0, 2), result.output
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert "invalid config field '" in result.stderr
            assert result.stdout == ""
        else:
            assert result.stdout


class TestRecords:
    @pytest.mark.parametrize("command, payload", [
        ("solve", {}),
        ("simulate", {}),
        ("fidelity", {"sampling": {"mode": "grid", "deltas": [0.5]}}),
        ("sweep", {"sweep": {"axis": "omega", "start": 0.5, "stop": 1.0, "points": 2}}),
    ])
    def test_every_record_carries_its_versions(self, tmp_path, command, payload):
        result = run_cli([command, "--config", write_config(tmp_path, payload), "--format", "json"])
        versions = json.loads(result.stdout)["versions"]
        python = platform.python_version()
        assert versions == {"rydvdw": rydvdw.__version__, "numpy": np.__version__, "python": python}

    def test_record_json_round_trip(self):
        record = run_solve(parse_config({}))
        clone = ResultRecord(**json.loads(record.to_json()))
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


class TestNoLinalg:
    """Every command runs without numpy.linalg, so none faults in LAPACK's code and workspace."""

    @pytest.fixture
    def no_linalg(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a command called numpy.linalg")

        modules = [np.linalg, *([np.linalg._linalg] if hasattr(np.linalg, "_linalg") else [])]
        for module in modules:
            for name in np.linalg.__all__:
                if callable(getattr(module, name, None)) and not isinstance(getattr(module, name), type):
                    monkeypatch.setattr(module, name, refused)

    @pytest.mark.parametrize("command, payload", [
        ("solve", {}),
        ("simulate", {}),
        ("simulate", {"gate": {"kind": "cnot"}, "overrides": {"interaction_mhz": 0.3}}),
        ("fidelity", {"sampling": {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 1000}}),
        *[("sweep", {"sweep": sweep, "sampling": {"deltas": [0.5]}}) for sweep in TestNumberFields.SWEEPS.values()],
    ], ids=["solve", "simulate", "simulate-cnot-override", "fidelity", *(f"sweep-{axis}" for axis in TestNumberFields.SWEEPS)])
    def test_commands_never_call_numpy_linalg(self, tmp_path, no_linalg, command, payload):
        result = run_cli([command, "--config", write_config(tmp_path, payload)])
        assert result.exit_code == 0, result.output
        assert result.stdout


class TestColdExit:
    """Importing ``rydvdw.cli`` freezes the collector's heap, so a cold command exits without
    tearing down its imports; the exit still flushes every output and keeps every exit code."""

    SRC = str(Path(rydvdw.__file__).resolve().parents[1])

    def cold(self, *args, text=True):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([self.SRC, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-W", "error", *args],
                              capture_output=True, text=text, env=env, timeout=120)

    def test_only_the_cli_freezes(self):
        code = (
            "import gc\n"
            "import rydvdw\n"
            "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
            "import rydvdw.cli\n"
            "assert gc.get_freeze_count() > 10000, gc.get_freeze_count()\n"
        )
        result = self.cold("-c", code)
        assert result.returncode == 0, result.stderr

    def test_module_run_freezes_before_main(self, tmp_path):
        # run rydvdw.cli as `python -m` does, and read the freeze count when main parses its arguments
        code = (
            "import argparse, gc, runpy, sys\n"
            "parse_args = argparse.ArgumentParser.parse_args\n"
            "def counted(self, *args, **kwargs):\n"
            "    print(f'frozen {gc.get_freeze_count()}', file=sys.stderr)\n"
            "    return parse_args(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.parse_args = counted\n"
            "assert gc.get_freeze_count() == 0\n"
            "sys.argv = ['rydvdw', 'solve', '--config', sys.argv[1]]\n"
            "runpy.run_module('rydvdw.cli', run_name='__main__', alter_sys=True)\n"
        )
        result = self.cold("-c", code, write_config(tmp_path, {}))
        assert result.returncode == 0, result.stderr
        counts = re.findall(r"^frozen (\d+)$", result.stderr, re.M)
        assert len(counts) == 1 and int(counts[0]) > 10000, result.stderr
        assert abs(json.loads(result.stdout)["params"]["separation_um"] - 20.99) < 0.01

    def test_piped_sweep_is_complete(self, tmp_path):
        payload = {"sweep": {"axis": "separation", "start": 15.0, "stop": 30.0, "points": 401}}
        result = self.cold("-m", "rydvdw.cli", "sweep", "--config", write_config(tmp_path, payload), text=False)
        assert (result.returncode, result.stderr) == (0, b"")
        expected = rydvdw.cli._render(run_sweep(parse_config(payload)), "csv")
        assert result.stdout == expected.encode()
        assert len(rows_from_csv(expected)) == 401

    def test_out_file_is_complete(self, tmp_path):
        out = tmp_path / "simulate.json"
        result = self.cold("-m", "rydvdw.cli", "simulate", "--config", write_config(tmp_path, {}), "--out", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert json.loads(out.read_text())["results"]["diagnostics"]["kernel_gap"] < 1e-12

    def test_config_error_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"noise": {"sigma_z0_um": -1.0}})
        result = self.cold("-m", "rydvdw.cli", "solve", "--config", path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("config error: invalid config field 'noise.sigma_z0_um'")

    def test_numeric_failure_exits_1(self, tmp_path):
        # no valid config is known to break the eigensolver: leave it no sweep to converge in
        code = (
            "import sys\n"
            "import rydvdw.dynamics\n"
            "rydvdw.dynamics._SWEEPS = 0\n"
            "from rydvdw.cli import main\n"
            "main(['simulate', '--config', sys.argv[1]])\n"
        )
        result = self.cold("-c", code, write_config(tmp_path, {}))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("numeric error: eigendecomposition failed")

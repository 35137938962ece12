"""Command-line front end.

Four subcommands cover the workflow: ``solve`` inverts the phase
condition into interaction strength, trap separation and timings
without simulating anything; ``simulate`` runs the sequence at the
design interaction and reports the gate matrix and decay budget;
``fidelity`` averages the fidelity over position fluctuations on the
quadrature grid and/or by Monte Carlo; ``sweep`` scans separation,
Rabi frequency or temperature and emits one row per value.

Exit codes: 0 on success, 1 on numerical failure, 2 on configuration
errors.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import click
import numpy as np

from .config import RunConfig, load_config, parse_config
from .constants import LIFETIME_97S_4K_MS, LIFETIME_97S_300K_MS, MHZ, HYPERFINE_SPLITTING_RB87
from .errors import ConfigError, NumericError
from .gates import extract_gate_matrix, gate_fidelity, ideal_gate, pedersen_fidelity
from .geometry import VdwModel, vdw_interaction
from .noise import (
    FidelityTable,
    GridSpec,
    NoiseConfig,
    TableWindowError,
    grid_average_fidelity,
    inflate_sigmas,
    monte_carlo_average_fidelity,
)
from .protocol import (
    GateProtocol,
    ProtocolParams,
    build_protocol,
    hyperfine_leakage_estimate,
    rydberg_exposure,
)
from .records import ResultRecord, complex_matrix_to_json, rows_to_csv

__all__ = ["main", "run_solve", "run_simulate", "run_fidelity", "run_sweep"]


def _solve_point(cfg: RunConfig) -> tuple[ProtocolParams, VdwModel]:
    vdw = VdwModel(cfg.c6)
    params = ProtocolParams.solve(cfg.theta, cfg.omega_control, cfg.omega_target, vdw)
    if cfg.interaction_override is not None:
        raise ConfigError(
            "invalid config field 'overrides.interaction_mhz': "
            "only 'simulate' accepts an interaction override"
        )
    return params, vdw


def _params_dict(params: ProtocolParams) -> dict:
    return {
        "theta_rad": params.theta,
        "omega_control_mhz": params.omega_control / MHZ,
        "omega_target_mhz": params.omega_target / MHZ,
        "interaction_mhz": params.interaction / MHZ,
        "t_cycle_us": params.t_cycle,
        "t_gate_us": params.t_gate,
        "separation_um": params.separation,
    }


def _noise_config(cfg: RunConfig, params: ProtocolParams) -> NoiseConfig:
    separation = cfg.trap_separation or cfg.separation_override or params.separation
    return NoiseConfig(
        trap_separation=separation,
        sigma_z0=cfg.sigma_z0,
        sigma_perp0=cfg.sigma_perp0,
        temperature=cfg.temperature,
        atom_mass=cfg.atom_mass,
        rydberg_lifetime=cfg.rydberg_lifetime,
    )


def run_solve(cfg: RunConfig) -> ResultRecord:
    """Parameter chain only; no dynamics."""
    params, _ = _solve_point(cfg)
    leakage = hyperfine_leakage_estimate(params.omega_target, HYPERFINE_SPLITTING_RB87)
    return ResultRecord(
        command="solve",
        config=cfg.raw,
        params=_params_dict(params),
        results={"hyperfine_leakage_estimate": leakage},
    )


def run_simulate(cfg: RunConfig) -> ResultRecord:
    """Single gate at the design point (or an explicit interaction override)."""
    vdw = VdwModel(cfg.c6)
    params = ProtocolParams.solve(cfg.theta, cfg.omega_control, cfg.omega_target, vdw)
    protocol = build_protocol(params, cfg.kind)
    interaction = cfg.interaction_override
    if cfg.separation_override is not None:
        if interaction is not None:
            raise ConfigError(
                "invalid config field 'overrides': give either interaction_mhz "
                "or separation_um, not both"
            )
        interaction = vdw_interaction(vdw, cfg.separation_override)
    gate = extract_gate_matrix(protocol, interaction)
    fidelity = pedersen_fidelity(gate, ideal_gate(protocol))
    exposure = rydberg_exposure(protocol, interaction)
    return ResultRecord(
        command="simulate",
        config=cfg.raw,
        params=_params_dict(params),
        results={
            "interaction_used_mhz": (params.interaction if interaction is None else interaction) / MHZ,
            "gate_matrix": complex_matrix_to_json(gate),
            "nominal_fidelity": fidelity,
            "rydberg_exposure_us": exposure,
            "decay_error": exposure / (cfg.rydberg_lifetime * 1e3),
            "decay_error_300k": exposure / (LIFETIME_97S_300K_MS * 1e3),
            "decay_error_4k": exposure / (LIFETIME_97S_4K_MS * 1e3),
        },
    )


def _report_dict(report) -> dict:
    out = {
        "mean_fidelity": report.mean_fidelity,
        "decay_error": report.decay_error,
        "net_fidelity": report.net_fidelity,
        "sample_count": report.sample_count,
        "method": report.method,
    }
    if report.stderr is not None:
        out["stderr"] = report.stderr
    if report.convergence:
        out["convergence"] = [[delta, mean] for delta, mean in report.convergence]
    return out


def run_fidelity(cfg: RunConfig) -> ResultRecord:
    """Position-noise averaged fidelity by grid quadrature and/or Monte Carlo."""
    params, vdw = _solve_point(cfg)
    protocol = build_protocol(params, cfg.kind)
    ncfg = _noise_config(cfg, params)
    sigmas = inflate_sigmas(ncfg, params.t_gate)
    table = FidelityTable(protocol, vdw, ncfg.trap_separation, sigmas.sigma_z)
    exposure = rydberg_exposure(protocol)
    results: dict = {
        "sigma_z_um": sigmas.sigma_z,
        "sigma_perp_um": sigmas.sigma_perp,
        "rydberg_exposure_us": exposure,
        "csv_rows": [],
        "wall_times": {},
    }

    def csv_row(label, mean, samples, wall):
        return {
            "delta": label,
            "meanFidelity": mean,
            "netFidelity300K": mean - exposure / (LIFETIME_97S_300K_MS * 1e3),
            "netFidelity4K": mean - exposure / (LIFETIME_97S_4K_MS * 1e3),
            "samples": samples,
            "wallTime": wall,
        }

    if cfg.mode in ("grid", "both"):
        series = []
        for delta in cfg.deltas:
            tic = time.perf_counter()
            report = grid_average_fidelity(
                protocol, vdw, ncfg, sigmas, GridSpec(delta), table=table, exposure=exposure
            )
            wall = time.perf_counter() - tic
            series.append((delta, report))
            results["csv_rows"].append(
                csv_row(delta, report.mean_fidelity, report.sample_count, wall)
            )
            results["wall_times"][f"grid_{delta}"] = wall
        finest = min(series, key=lambda item: item[0])[1]
        grid_dict = _report_dict(finest)
        grid_dict["convergence"] = [[d, r.mean_fidelity] for d, r in series]
        grid_dict["estimate"] = finest.mean_fidelity
        results["grid"] = grid_dict
    if cfg.mode in ("mc", "both"):
        tic = time.perf_counter()
        report = monte_carlo_average_fidelity(
            protocol,
            vdw,
            ncfg,
            sigmas,
            n_samples=cfg.mc_samples,
            seed=cfg.seed,
            truncate=1.5 if cfg.mc_truncated else None,
            table=table,
            exposure=exposure,
        )
        wall = time.perf_counter() - tic
        results["mc"] = _report_dict(report)
        results["csv_rows"].append(
            csv_row("mc", report.mean_fidelity, report.sample_count, wall)
        )
        results["wall_times"]["mc"] = wall
    return ResultRecord(
        command="fidelity", config=cfg.raw, params=_params_dict(params), results=results
    )


def run_sweep(cfg: RunConfig) -> ResultRecord:
    """Scan one axis, one result row per value (values sorted ascending)."""
    if not cfg.sweep:
        raise ConfigError("invalid config field 'sweep': required for the sweep command")
    axis = cfg.sweep["axis"]
    values = np.sort(np.linspace(cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["points"]))
    params, vdw = _solve_point(cfg)
    rows = []
    if axis == "separation":
        protocol = build_protocol(params, cfg.kind)
        interactions = vdw_interaction(vdw, values)
        fidelities = gate_fidelity(protocol, interactions)
        for sep, interaction, fidelity in zip(values, interactions, fidelities):
            rows.append({
                "axis": axis,
                "value": float(sep),
                "interaction_mhz": float(interaction / MHZ),
                "nominal_fidelity": float(fidelity),
            })
    elif axis == "omega":
        for omega_mhz in values:
            omega = float(omega_mhz) * MHZ
            p = ProtocolParams.solve(cfg.theta, omega, omega, vdw)
            protocol = build_protocol(p, cfg.kind)
            gate = extract_gate_matrix(protocol)
            exposure = rydberg_exposure(protocol)
            rows.append({
                "axis": axis,
                "value": float(omega_mhz),
                "interaction_mhz": p.interaction / MHZ,
                "separation_um": p.separation,
                "t_gate_us": p.t_gate,
                "rydberg_exposure_us": exposure,
                "decay_error_300k": exposure / (LIFETIME_97S_300K_MS * 1e3),
                "nominal_fidelity": pedersen_fidelity(gate, ideal_gate(protocol)),
            })
    elif axis == "temperature":
        protocol = build_protocol(params, cfg.kind)
        ncfg_base = _noise_config(cfg, params)
        # one table reused across temperatures: size its range for the
        # largest sigma_z in the scan
        sigma_hot = inflate_sigmas(
            replace(ncfg_base, temperature=float(values[-1])), params.t_gate
        ).sigma_z
        table = FidelityTable(protocol, vdw, ncfg_base.trap_separation, sigma_hot)
        exposure = rydberg_exposure(protocol)
        delta = min(cfg.deltas)
        for temp in values:
            ncfg = replace(ncfg_base, temperature=float(temp))
            sigmas = inflate_sigmas(ncfg, params.t_gate)
            report = grid_average_fidelity(
                protocol, vdw, ncfg, sigmas, GridSpec(delta), table=table, exposure=exposure
            )
            rows.append({
                "axis": axis,
                "value": float(temp),
                "sigma_z_um": sigmas.sigma_z,
                "sigma_perp_um": sigmas.sigma_perp,
                "delta": delta,
                "mean_fidelity": report.mean_fidelity,
                "net_fidelity": report.net_fidelity,
            })
    else:  # unreachable behind schema validation
        raise ConfigError(f"invalid config field 'sweep.axis': unknown axis {axis!r}")
    return ResultRecord(
        command="sweep", config=cfg.raw, params=_params_dict(params), results={"rows": rows}
    )


_RUNNERS = {
    "solve": run_solve,
    "simulate": run_simulate,
    "fidelity": run_fidelity,
    "sweep": run_sweep,
}


def _emit(record: ResultRecord, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        rows = record.results.get("rows") or record.results.get("csv_rows")
        if not rows:
            row = {**record.params}
            row.update(
                {k: v for k, v in record.results.items() if isinstance(v, (int, float, str))}
            )
            rows = [row]
        text = rows_to_csv(rows)
    else:
        text = record.to_json() + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _execute(command: str, config_path: str, out, seed, fmt) -> None:
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg.seed = seed
        record = _RUNNERS[command](cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except TableWindowError as exc:
        click.echo(f"config error: invalid config field 'noise.sigma_z0_um': {exc}", err=True)
        sys.exit(2)
    except (NumericError, ValueError, np.linalg.LinAlgError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(1)
    default_fmt = "csv" if command == "sweep" else "json"
    _emit(record, out, fmt or default_fmt)


def _common_options(func):
    func = click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file.")(func)
    func = click.option("--out", type=click.Path(), default=None, help="Write output here instead of stdout.")(func)
    func = click.option("--seed", type=int, default=None, help="Override the config RNG seed.")(func)
    func = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="Output format.")(func)
    return func


@click.group()
def main():
    """Weak van der Waals Rydberg gate designer and error-budget simulator."""


@main.command()
@_common_options
def solve(config_path, out, seed, fmt):
    """Solve theta -> interaction, separation and timings (no dynamics)."""
    _execute("solve", config_path, out, seed, fmt)


@main.command()
@_common_options
def simulate(config_path, out, seed, fmt):
    """Simulate one gate and report its matrix and decay budget."""
    _execute("simulate", config_path, out, seed, fmt)


@main.command()
@_common_options
def fidelity(config_path, out, seed, fmt):
    """Average the gate fidelity over qubit position fluctuations."""
    _execute("fidelity", config_path, out, seed, fmt)


@main.command()
@_common_options
def sweep(config_path, out, seed, fmt):
    """Scan separation, Rabi frequency, or temperature."""
    _execute("sweep", config_path, out, seed, fmt)


if __name__ == "__main__":
    main()

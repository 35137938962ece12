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

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config, parse_config
from .constants import LIFETIME_97S_4K_MS, LIFETIME_97S_300K_MS, MHZ, HYPERFINE_SPLITTING_RB87
from .errors import ConfigError, NumericError
from .gates import extract_gate_matrix, gate_fidelity, ideal_gate, pedersen_fidelity
from .geometry import VdwModel, vdw_interaction
from .noise import (
    KNOT_SPACING,
    MAX_KNOTS,
    FidelityTable,
    GridSpec,
    NoiseConfig,
    decay_error,
    draw_distances,
    grid_average_fidelity,
    grid_window,
    inflate_sigmas,
    monte_carlo_average_fidelity,
    spread_field,
)
from .protocol import (
    GateProtocol,
    hyperfine_leakage_estimate,
    rydberg_exposure,
    solve_interaction_for_phase,
)
from .records import ResultRecord, complex_matrix_to_json, rows_to_csv

__all__ = ["main", "run_solve", "run_simulate", "run_fidelity", "run_sweep"]


def _solve_point(
    cfg: RunConfig, allow_overrides: bool = False, drive_field: str = "drive"
) -> tuple[GateProtocol, VdwModel]:
    """The gate at the design point of the config, its Rabi frequencies set by
    ``drive_field``; only ``simulate`` takes ``overrides``."""
    overrides = cfg.raw.get("overrides", {})
    if overrides and not allow_overrides:
        raise ConfigError(
            f"invalid config field 'overrides.{next(iter(overrides))}': "
            "only 'simulate' accepts overrides"
        )
    vdw = VdwModel(cfg.c6)
    try:
        protocol = GateProtocol.solve(cfg.theta, cfg.omega_control, cfg.omega_target, vdw, cfg.kind)
    except ValueError as exc:
        # the config is valid, so a tiny or huge frequency overflowed a duration or
        # the separation, or theta -> 0 needs an infinite interaction whatever the drive
        with np.errstate(divide="ignore", over="ignore"):
            interaction = solve_interaction_for_phase(cfg.theta, cfg.omega_target)
        theta_at_fault = np.isinf(interaction) and np.isfinite(cfg.omega_target)
        field = "gate.theta_rad" if theta_at_fault else drive_field
        raise ConfigError(f"invalid config field '{field}': {exc}") from None
    return protocol, vdw


def _params_dict(protocol: GateProtocol) -> dict:
    return {
        "theta_rad": protocol.theta,
        "omega_control_mhz": protocol.omega_control / MHZ,
        "omega_target_mhz": protocol.omega_target / MHZ,
        "interaction_mhz": protocol.nominal_interaction / MHZ,
        "t_cycle_us": protocol.t_cycle,
        "t_gate_us": protocol.t_gate,
        "separation_um": protocol.separation,
    }


def _noise_config(cfg: RunConfig, protocol: GateProtocol) -> NoiseConfig:
    separation = cfg.trap_separation or protocol.separation
    return NoiseConfig(
        trap_separation=separation,
        sigma_z0=cfg.sigma_z0,
        sigma_perp0=cfg.sigma_perp0,
        temperature=cfg.temperature,
        atom_mass=cfg.atom_mass,
        rydberg_lifetime=cfg.rydberg_lifetime,
    )


def _sampled_table(protocol, vdw, ncfg, sigmas, window, draws) -> FidelityTable:
    """The table over exactly the distances a run looks up: the grid ``window``
    (lo, hi) joined with the Monte Carlo ``draws``, either one None if not taken.
    A window too wide for the table names the field behind the larger spread (the
    grid window keeps 3 sigma_perp under the trap separation), or the trap separation
    if a distance overflowed and it exceeds both spreads; one narrower than a knot
    spacing (spreads below an ulp of it) gets a table one knot spacing wide."""
    lo, hi = window or (np.inf, 0.0)
    if draws is not None:
        lo, hi = float(np.minimum(lo, draws.min())), float(np.maximum(hi, draws.max()))
    spacing = KNOT_SPACING * ncfg.trap_separation
    if not (hi - lo) / spacing < MAX_KNOTS:
        if not np.isfinite(hi - lo) and ncfg.trap_separation > max(sigmas.sigma_z, sigmas.sigma_perp):
            raise ConfigError(
                f"invalid config field 'noise.trap_separation_um': a {ncfg.trap_separation!r} um "
                f"trap separation overflows the table window to [{lo!r}, {hi!r}] um"
            )
        wide = spread_field(ncfg, sigmas, "z" if sigmas.sigma_z >= sigmas.sigma_perp else "perp")
        raise ConfigError(
            f"invalid config field '{wide}': spreads sigma_z {sigmas.sigma_z:.4g} and "
            f"sigma_perp {sigmas.sigma_perp:.4g} um need a table window [{lo!r}, {hi!r}] um "
            f"of {MAX_KNOTS} knots or more"
        )
    return FidelityTable(protocol, vdw, ncfg.trap_separation, lo, max(hi, lo + spacing))


def _decay_errors(exposure: float, lifetime_ms: float) -> dict:
    """The decay error of ``exposure`` at the config lifetime and at the 97S
    lifetimes at 300 K and 4 K."""
    return {
        "decay_error": decay_error(exposure, lifetime_ms),
        "decay_error_300k": decay_error(exposure, LIFETIME_97S_300K_MS),
        "decay_error_4k": decay_error(exposure, LIFETIME_97S_4K_MS),
    }


def _position_average(table, sigmas, deltas, errors: dict, draws=None, method="mc") -> dict:
    """The grid series over ``deltas`` and the Monte Carlo mean (labelled ``method``)
    over ``draws``, if any, on ``table``, net of the :func:`_decay_errors`
    ``errors``: the CSV rows and wall times of every average, the "grid" block of
    the finest step with the series, and the "mc" block."""
    out: dict = {"csv_rows": [], "wall_times": {}}
    blocks = {}
    averages = [(f"grid_{delta}", delta, grid_average_fidelity, sigmas, GridSpec(delta)) for delta in deltas]
    if draws is not None:
        averages.append(("mc", "mc", monte_carlo_average_fidelity, draws, method))
    for key, label, average, *args in averages:
        tic = time.perf_counter()
        report = average(table, *args)
        out["wall_times"][key] = wall = time.perf_counter() - tic
        mean = report.mean_fidelity
        out["csv_rows"].append({
            "delta": label,
            "meanFidelity": mean,
            "netFidelity300K": mean - errors["decay_error_300k"],
            "netFidelity4K": mean - errors["decay_error_4k"],
            "samples": report.sample_count,
            "wallTime": wall,
        })
        blocks[key] = {
            "mean_fidelity": mean,
            "decay_error": errors["decay_error"],
            "net_fidelity": mean - errors["decay_error"],
            "sample_count": report.sample_count,
            "method": report.method,
            **({} if report.stderr is None else {"stderr": report.stderr}),
        }
    if deltas:
        finest = blocks[f"grid_{min(deltas)}"]
        series = [[delta, blocks[f"grid_{delta}"]["mean_fidelity"]] for delta in deltas]
        out["grid"] = {**finest, "convergence": series, "estimate": finest["mean_fidelity"]}
    if draws is not None:
        out["mc"] = blocks["mc"]
    return out


def _interaction_at(vdw: VdwModel, dist, field: str):
    """The interaction at config distance(s) ``dist``; an infinite one names ``field``."""
    interaction = vdw_interaction(vdw, dist)
    if not np.isfinite(interaction).all():
        nearest = float(np.min(dist))
        raise ConfigError(f"invalid config field '{field}': infinite interaction at {nearest!r} um")
    return interaction


def run_solve(cfg: RunConfig) -> ResultRecord:
    """Solve theta -> interaction, separation and timings (no dynamics)."""
    protocol, _ = _solve_point(cfg)
    leakage = hyperfine_leakage_estimate(protocol.omega_target, HYPERFINE_SPLITTING_RB87)
    if not np.isfinite(leakage):
        raise ConfigError(
            f"invalid config field 'drive.omega_target_mhz': the hyperfine leakage "
            f"estimate of a {protocol.omega_target!r} rad/us drive overflows to {leakage!r}"
        )
    return ResultRecord(
        command="solve",
        config=cfg.raw,
        params=_params_dict(protocol),
        results={"hyperfine_leakage_estimate": leakage},
    )


def run_simulate(cfg: RunConfig) -> ResultRecord:
    """Simulate one gate (design point or override); report its matrix and decay budget."""
    protocol, vdw = _solve_point(cfg, allow_overrides=True)
    interaction = cfg.interaction_override
    if cfg.separation_override is not None:
        if interaction is not None:
            raise ConfigError(
                "invalid config field 'overrides': give either interaction_mhz "
                "or separation_um, not both"
            )
        interaction = _interaction_at(vdw, cfg.separation_override, "overrides.separation_um")
    gate = extract_gate_matrix(protocol, interaction)
    fidelity = pedersen_fidelity(gate, ideal_gate(protocol))
    exposure = rydberg_exposure(protocol, interaction)
    return ResultRecord(
        command="simulate",
        config=cfg.raw,
        params=_params_dict(protocol),
        results={
            "interaction_used_mhz": (protocol.nominal_interaction if interaction is None else interaction) / MHZ,
            "gate_matrix": complex_matrix_to_json(gate),
            "nominal_fidelity": fidelity,
            "rydberg_exposure_us": exposure,
            **_decay_errors(exposure, cfg.rydberg_lifetime),
        },
    )


def run_fidelity(cfg: RunConfig) -> ResultRecord:
    """Average the gate fidelity over position fluctuations, on the grid and/or by Monte Carlo."""
    protocol, vdw = _solve_point(cfg)
    ncfg = _noise_config(cfg, protocol)
    sigmas = inflate_sigmas(ncfg, protocol.t_gate)
    grid, mc = cfg.mode in ("grid", "both"), cfg.mode in ("mc", "both")
    window = grid_window(ncfg, sigmas) if grid else None
    truncate = 1.5 if cfg.mc_truncated else None
    draws = draw_distances(sigmas, ncfg.trap_separation, cfg.mc_samples, cfg.seed, truncate) if mc else None
    table = _sampled_table(protocol, vdw, ncfg, sigmas, window, draws)
    exposure = rydberg_exposure(protocol)
    results = {
        "sigma_z_um": sigmas.sigma_z,
        "sigma_perp_um": sigmas.sigma_perp,
        "rydberg_exposure_us": exposure,
        **_position_average(
            table, sigmas, cfg.deltas if grid else [], _decay_errors(exposure, ncfg.rydberg_lifetime),
            draws, "mc-truncated" if truncate else "mc",
        ),
    }
    return ResultRecord(
        command="fidelity", config=cfg.raw, params=_params_dict(protocol), results=results
    )


def run_sweep(cfg: RunConfig) -> ResultRecord:
    """Scan separation, Rabi frequency or temperature: one row per value, ascending.

    The ``omega`` axis re-solves the chain per point with both atoms
    driven at the swept frequency, so ``drive.omega_*_mhz`` do not
    enter its rows.
    """
    if not cfg.sweep:
        raise ConfigError("invalid config field 'sweep': required for the sweep command")
    axis = cfg.sweep["axis"]
    values = np.sort(np.linspace(cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["points"]))
    protocol, vdw = _solve_point(cfg)
    rows = []
    if axis == "separation":
        nearest = "sweep.start" if cfg.sweep["start"] <= cfg.sweep["stop"] else "sweep.stop"
        interactions = _interaction_at(vdw, values, nearest)
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
            field = "sweep.start" if omega_mhz == cfg.sweep["start"] else "sweep.stop"
            point = replace(cfg, omega_control=omega, omega_target=omega)
            swept, _ = _solve_point(point, drive_field=field)
            gate = extract_gate_matrix(swept)
            exposure = rydberg_exposure(swept)
            rows.append({
                "axis": axis,
                "value": float(omega_mhz),
                "interaction_mhz": swept.nominal_interaction / MHZ,
                "separation_um": swept.separation,
                "t_gate_us": swept.t_gate,
                "rydberg_exposure_us": exposure,
                "decay_error_300k": _decay_errors(exposure, cfg.rydberg_lifetime)["decay_error_300k"],
                "nominal_fidelity": pedersen_fidelity(gate, ideal_gate(swept)),
            })
    elif axis == "temperature":
        ncfg_base = _noise_config(cfg, protocol)
        # one table for every temperature: both sigmas grow with it, so the
        # hottest grid reaches farthest
        hottest = replace(ncfg_base, temperature=float(values[-1]))
        hot = inflate_sigmas(hottest, protocol.t_gate)
        hot_field = "sweep.stop" if cfg.sweep["stop"] >= cfg.sweep["start"] else "sweep.start"
        table = _sampled_table(protocol, vdw, hottest, hot, grid_window(hottest, hot, hot_field), None)
        errors = _decay_errors(rydberg_exposure(protocol), ncfg_base.rydberg_lifetime)
        delta = min(cfg.deltas)
        for temp in values:
            sigmas = inflate_sigmas(replace(ncfg_base, temperature=float(temp)), protocol.t_gate)
            grid = _position_average(table, sigmas, [delta], errors)["grid"]
            rows.append({
                "axis": axis,
                "value": float(temp),
                "sigma_z_um": sigmas.sigma_z,
                "sigma_perp_um": sigmas.sigma_perp,
                "delta": delta,
                "mean_fidelity": grid["mean_fidelity"],
                "net_fidelity": grid["net_fidelity"],
            })
    else:  # unreachable behind schema validation
        raise ConfigError(f"invalid config field 'sweep.axis': unknown axis {axis!r}")
    return ResultRecord(
        command="sweep", config=cfg.raw, params=_params_dict(protocol), results={"rows": rows}
    )


_RUNNERS = {
    "solve": run_solve,
    "simulate": run_simulate,
    "fidelity": run_fidelity,
    "sweep": run_sweep,
}


def _render(record: ResultRecord, fmt: str) -> str:
    if fmt == "csv":
        rows = record.results.get("rows") or record.results.get("csv_rows")
        if not rows:
            row = {**record.params}
            row.update(
                {k: v for k, v in record.results.items() if isinstance(v, (int, float, str))}
            )
            rows = [row]
        return rows_to_csv(rows)
    return record.to_json() + "\n"


def _execute(command: str, config_path: str, out, seed, fmt) -> None:
    try:
        cfg = load_config(config_path)
        if seed is not None:
            # through the walker, and into the echoed config so that it re-runs
            cfg = parse_config({**cfg.raw, "seed": seed})
        record = _RUNNERS[command](cfg)
        text = _render(record, fmt or ("csv" if command == "sweep" else "json"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (NumericError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        sys.exit(1)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> None:
    """Weak van der Waals Rydberg gate designer and error-budget simulator."""
    parser = argparse.ArgumentParser(prog="rydvdw", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, runner in _RUNNERS.items():
        summary = runner.__doc__.splitlines()[0]
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.add_argument("--config", required=True, help="JSON config file.")
        sub.add_argument("--out", help="Write output here instead of stdout.")
        sub.add_argument("--seed", type=int, help="Override the config RNG seed.")
        sub.add_argument("--format", choices=("csv", "json"), help="Output format.")
    args = parser.parse_args(argv)
    _execute(args.command, args.config, args.out, args.seed, args.format)


if __name__ == "__main__":
    main()

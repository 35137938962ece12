"""Command-line front end.

Four subcommands cover the workflow: ``solve`` inverts the phase
condition into interaction strength, trap separation and timings
without simulating anything; ``simulate`` runs the sequence at the
design interaction and reports the gate matrix, the decay budget and
the walk's distance from the closed forms that price the other commands;
``fidelity`` averages the fidelity over position fluctuations on the
quadrature grid and/or by Monte Carlo; ``sweep`` scans separation,
Rabi frequency or temperature and emits one row per value.

Exit codes: 0 on success, 1 on numerical failure, 2 on configuration
errors, a malformed command line or an ``--out`` that cannot be written.

Importing this module calls ``gc.freeze()``: a command exits without tearing down its imports.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from .budget import decay_errors, price
from .config import RunConfig, interaction_at, load_config, parse_config, solve_gate
from .constants import HYPERFINE_SPLITTING_RB87, MHZ
from .errors import ConfigError, NumericError
from .gates import design_exposure, gate_fidelity, ideal_gate, pedersen_fidelity, simulate
from .noise import GRID_HALF_RANGE
from .protocol import GateProtocol, hyperfine_leakage_estimate
from .records import ResultRecord, complex_matrix_to_json, rows_to_csv

__all__ = ["main", "run_solve", "run_simulate", "run_fidelity", "run_sweep"]


def _reject_overrides(cfg: RunConfig) -> None:
    """Only ``simulate`` takes ``overrides``."""
    overrides = cfg.raw.get("overrides", {})
    if overrides:
        raise ConfigError(
            f"invalid config field 'overrides.{next(iter(overrides))}': "
            "only 'simulate' accepts overrides"
        )


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


def _block(mean: float, count: int, decay: float, **labels) -> dict:
    """A ``fidelity`` record's block of one average over ``count`` samples, net of ``decay``."""
    return dict(mean_fidelity=mean, decay_error=decay, net_fidelity=mean - decay, sample_count=count, **labels)


def run_solve(cfg: RunConfig) -> ResultRecord:
    """Solve theta -> interaction, separation and timings (no dynamics)."""
    _reject_overrides(cfg)
    protocol = cfg.protocol
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
    protocol, interaction = cfg.protocol, cfg.interaction_override
    used = protocol.nominal_interaction if interaction is None else interaction
    gate, exposure = simulate(protocol, interaction)
    fidelity = pedersen_fidelity(gate, ideal_gate(protocol))
    return ResultRecord(
        command="simulate",
        config=cfg.raw,
        params=_params_dict(protocol),
        results={
            "interaction_used_mhz": used / MHZ,
            "gate_matrix": complex_matrix_to_json(gate),
            "nominal_fidelity": fidelity,
            "rydberg_exposure_us": exposure,
            **decay_errors(exposure, cfg.noise.rydberg_lifetime),
            # the walk against the closed forms that price every other record; the exposure's
            # holds at the design interaction only
            "diagnostics": {
                "kernel_gap": abs(fidelity - float(gate_fidelity(protocol, used))),
                "exposure_gap": abs(exposure - design_exposure(protocol)) if interaction is None else None,
                # the mean population the four inputs leave outside the qubit states
                "leakage": float(1.0 - (np.abs(gate) ** 2).sum() / 4.0),
            },
        },
    )


def run_fidelity(cfg: RunConfig) -> ResultRecord:
    """Average the gate fidelity over position fluctuations, on the grid and/or by Monte Carlo."""
    _reject_overrides(cfg)
    deltas = cfg.deltas if cfg.mode in ("grid", "both") else ()
    n_samples = cfg.mc_samples if cfg.mode in ("mc", "both") else 0
    truncate = GRID_HALF_RANGE if cfg.mc_truncated else None
    budget = price(cfg.protocol, cfg.noise, deltas, n_samples, cfg.seed, truncate)
    (sigmas,), (means,), seconds, errors = budget.sigmas, budget.grid, budget.seconds, budget.decay
    report = budget.mc[0] if budget.mc else None
    # (wall-time key, CSV label, mean, sample count) of each average, in the order of its seconds
    rows = [(f"grid_{delta}", delta, mean, count)
            for delta, mean, count in zip(deltas, means, budget.grid_nodes)]
    rows += [] if report is None else [("mc", "mc", report.mean_fidelity, report.sample_count)]
    results = {
        "sigma_z_um": sigmas.sigma_z,
        "sigma_perp_um": sigmas.sigma_perp,
        "rydberg_exposure_us": budget.exposure,
        "csv_rows": [
            {"delta": label, "meanFidelity": mean, "netFidelity300K": mean - errors["decay_error_300k"],
             "netFidelity4K": mean - errors["decay_error_4k"], "samples": count, "wallTime": wall}
            for (_, label, mean, count), wall in zip(rows, seconds)
        ],
        "wall_times": {key: wall for (key, *_), wall in zip(rows, seconds)},
    }
    if deltas:
        _, _, mean, count = rows[deltas.index(min(deltas))]
        finest = _block(mean, count, errors["decay_error"], method="grid-paired", truncation=GRID_HALF_RANGE)
        convergence = [list(pair) for pair in zip(deltas, means)]
        results["grid"] = {**finest, "convergence": convergence, "estimate": mean}
    if report is not None:
        method = "mc-truncated" if cfg.mc_truncated else "mc"
        results["mc"] = _block(report.mean_fidelity, report.sample_count, errors["decay_error"], method=method,
                               stderr=report.stderr, truncation=truncate)
    spline_error, spline_error_interior = budget.table.spline_errors()
    results["diagnostics"] = {
        "table_knots": len(budget.table.distances),
        "spline_error": spline_error,
        "spline_error_interior": spline_error_interior,
        "direct_evaluations": 0 if report is None else report.direct_evaluations,
        "grid_lookups": budget.grid_lookups,
    }
    return ResultRecord(
        command="fidelity", config=cfg.raw, params=_params_dict(cfg.protocol), results=results
    )


def run_sweep(cfg: RunConfig) -> ResultRecord:
    """Scan separation, Rabi frequency or temperature: one row per value, ascending.

    The ``omega`` axis re-solves the chain per point with both atoms driven at
    the swept frequency, so ``drive.omega_*_mhz`` do not enter its rows.  No axis
    walks the dynamics: every row is priced by the closed forms of :mod:`rydvdw.gates`.
    """
    if not cfg.sweep:
        raise ConfigError("invalid config field 'sweep': required for the sweep command")
    _reject_overrides(cfg)
    axis = cfg.sweep["axis"]
    values = np.sort(np.linspace(cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["points"]))
    protocol = cfg.protocol
    rows = []
    if axis == "separation":
        nearest = "sweep.start" if cfg.sweep["start"] <= cfg.sweep["stop"] else "sweep.stop"
        interactions = interaction_at(cfg.vdw, values, nearest)
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
            swept = solve_gate(protocol.theta, omega, omega, cfg.vdw, protocol.kind, field)
            exposure = design_exposure(swept)
            rows.append({
                "axis": axis,
                "value": float(omega_mhz),
                "interaction_mhz": swept.nominal_interaction / MHZ,
                "separation_um": swept.separation,
                "t_gate_us": swept.t_gate,
                "rydberg_exposure_us": exposure,
                "decay_error_300k": decay_errors(exposure, cfg.noise.rydberg_lifetime)["decay_error_300k"],
                "nominal_fidelity": float(gate_fidelity(swept, swept.nominal_interaction)),
            })
    elif axis == "temperature":
        hot_field = "sweep.stop" if cfg.sweep["stop"] >= cfg.sweep["start"] else "sweep.start"
        delta, temperatures = min(cfg.deltas), tuple(values.tolist())
        budget = price(protocol, cfg.noise, (delta,), temperatures=temperatures, temperature_field=hot_field)
        for temp, sigmas, (mean,) in zip(temperatures, budget.sigmas, budget.grid):
            rows.append({
                "axis": axis,
                "value": temp,
                "sigma_z_um": sigmas.sigma_z,
                "sigma_perp_um": sigmas.sigma_perp,
                "delta": delta,
                "mean_fidelity": mean,
                "net_fidelity": mean - budget.decay["decay_error"],
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
    except (NumericError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        sys.exit(1)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"output error: cannot write output file {out}: {exc}", file=sys.stderr)
        sys.exit(2)


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


# A command keeps everything its imports built until the process ends: in the permanent
# generation no collection walks it, and the interpreter's exit does not tear it down.
gc.freeze()

if __name__ == "__main__":
    main()

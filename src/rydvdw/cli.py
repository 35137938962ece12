"""Command-line front end.

Four subcommands cover the workflow: ``solve`` inverts the phase
condition into interaction strength, trap separation and timings
without simulating anything; ``simulate`` runs the sequence at the
design interaction and reports the gate matrix and decay budget;
``fidelity`` averages the fidelity over position fluctuations on the
quadrature grid and/or by Monte Carlo; ``sweep`` scans separation,
Rabi frequency or temperature and emits one row per value.

Exit codes: 0 on success, 1 on numerical failure, 2 on configuration
errors, a malformed command line or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, replace

import numpy as np

from .config import RunConfig, interaction_at, load_config, parse_config, solve_gate
from .constants import (HYPERFINE_SPLITTING_RB87, LIFETIME_97S_4K_MS, LIFETIME_97S_300K_MS, MHZ,
                        RB87_MASS_KG, TEMPERATURE_DEFAULT_UK)
from .errors import ConfigError, NumericError
from .gates import gate_fidelity, ideal_gate, pedersen_fidelity, simulate
from .noise import (
    GRID_HALF_RANGE,
    KNOT_SPACING,
    FidelityTable,
    GridSpec,
    InflatedSigmas,
    NoiseConfig,
    decay_error,
    grid_average_fidelity,
    grid_window,
    inflate_sigmas,
    monte_carlo_average_fidelity,
)
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


def _spread_field(ncfg: NoiseConfig, sigmas: InflatedSigmas, axis, temperature_field="noise.temperature_uk"):
    """The config field behind a spread too wide on ``axis`` ("perp" or "z"): its trap
    spread, or, where the free flight adds more, the temperature (``temperature_field``)
    or the atom mass, whichever lies further from 10 uK and Rb-87 towards a faster atom."""
    if not sigmas.flight_length / 2.0 > getattr(ncfg, f"sigma_{axis}0"):
        return f"noise.sigma_{axis}0_um"
    hotter, lighter = ncfg.temperature / TEMPERATURE_DEFAULT_UK, RB87_MASS_KG / ncfg.atom_mass
    return temperature_field if hotter >= lighter else "noise.atom_mass_kg"


def _reduced(protocol: GateProtocol, ncfg: NoiseConfig, sigmas: InflatedSigmas):
    """The spreads and the trap separation in design separations L, the fidelity
    table's unit: the ``sigmas`` and ``separation`` arguments of the averages."""
    length = protocol.separation
    return InflatedSigmas(*(value / length for value in astuple(sigmas))), ncfg.trap_separation / length


def _spread_error(protocol, ncfg, sigmas, overflow, temperature_field, exc) -> ConfigError:
    """The config error for reduced distances that the table or the closed form refuses (``exc``
    says why): it names the field behind the larger spread, or the trap separation if a distance
    ``overflow``-ed and the separation exceeds both spreads, and the temperature as
    ``temperature_field``."""
    axis = "z" if sigmas.sigma_z >= sigmas.sigma_perp else "perp"
    far = overflow and ncfg.trap_separation > max(sigmas.sigma_z, sigmas.sigma_perp)
    field = "noise.trap_separation_um" if far else _spread_field(ncfg, sigmas, axis, temperature_field)
    return ConfigError(
        f"invalid config field '{field}': a {ncfg.trap_separation!r} um trap separation and spreads "
        f"sigma_z {sigmas.sigma_z:.4g} and sigma_perp {sigmas.sigma_perp:.4g} um, "
        f"in {protocol.separation:.4g} um design separations: {exc}"
    )


def _sampled_table(protocol, ncfg, sigmas, reduced, grid, temperature_field):
    """The table over the :func:`grid_window` of the :func:`_reduced` spreads and separation s,
    which is known before any draw; the Monte Carlo takes its draws beyond it from the closed
    form.  A window reaching zero distance names :func:`_spread_field` for sigma_perp (sigma_z
    adds in quadrature) if ``grid``; a Monte Carlo run alone tabulates from s instead, or from
    one knot spacing if s lies nearer to zero (where the interaction would overflow), and its
    nearer draws take the closed form.  A window the table refuses is a :func:`_spread_error`,
    overflowed if either end is not finite."""
    lo, hi = grid_window(*reduced)
    if not lo > 0.0:
        if grid:
            raise ConfigError(
                f"invalid config field '{_spread_field(ncfg, sigmas, 'perp', temperature_field)}': the "
                f"position grid reaches zero distance, as 3 sigma_perp (3 x {sigmas.sigma_perp:.4g} um, "
                f"inflated at {ncfg.temperature:.4g} uK) reach the {ncfg.trap_separation:.4g} um trap separation"
            )
        lo = max(reduced[1], KNOT_SPACING)
    try:
        return FidelityTable(protocol, lo, hi)
    except ValueError as exc:
        raise _spread_error(protocol, ncfg, sigmas, not np.isfinite(hi - lo), temperature_field, exc) from None


def _decay_errors(exposure: float, lifetime_ms: float) -> dict:
    """The decay error of ``exposure`` at the config lifetime and at the 97S
    lifetimes at 300 K and 4 K.  The exposure is finite, so an error that is
    not (a lifetime too short to divide by) names the lifetime field."""
    error = decay_error(exposure, lifetime_ms)
    if not np.isfinite(error):
        raise ConfigError(
            f"invalid config field 'noise.rydberg_lifetime_ms': {lifetime_ms!r} ms "
            f"makes the decay error of a {exposure!r} us exposure {error!r}"
        )
    return {
        "decay_error": error,
        "decay_error_300k": decay_error(exposure, LIFETIME_97S_300K_MS),
        "decay_error_4k": decay_error(exposure, LIFETIME_97S_4K_MS),
    }


def _position_average(table, reduced, deltas, errors: dict, monte_carlo=None, truncated=False) -> dict:
    """The ``fidelity`` record's averages on ``table``, net of the :func:`_decay_errors`
    ``errors``: its CSV rows and wall times, the "grid" block of the finest of ``deltas``
    with their series, and the "mc" block of the report ``monte_carlo()`` returns, if
    given, timed with its draw; ``direct_evaluations``, the draws it took from the
    closed form (0 without it); and ``grid_lookups``, the table lookups of every grid
    step.  A grid step counts its (m+1)**6 nominal nodes, but looks up (2m+1)(m+1)**2
    folded differences.  Each block states its support in sigmas, ``truncation``: None
    for an untruncated draw."""
    out: dict = {"csv_rows": [], "wall_times": {}, "direct_evaluations": 0, "grid_lookups": 0}
    blocks = {}
    averages = [(f"grid_{delta}", delta, GridSpec(delta)) for delta in deltas]
    if monte_carlo is not None:
        averages.append(("mc", "mc", None))
    for key, label, grid in averages:
        tic = time.perf_counter()
        if grid is None:
            report = monte_carlo()
            mean, count = report.mean_fidelity, report.sample_count
            out["direct_evaluations"] = report.direct_evaluations
            labels = {"method": "mc-truncated" if truncated else "mc", "stderr": report.stderr,
                      "truncation": GRID_HALF_RANGE if truncated else None}
        else:
            mean = grid_average_fidelity(table, *reduced, grid)
            nodes = len(grid.points())
            out["grid_lookups"] += (2 * nodes - 1) * nodes**2
            count, labels = nodes**6, {"method": "grid-paired", "truncation": GRID_HALF_RANGE}
        out["wall_times"][key] = wall = time.perf_counter() - tic
        out["csv_rows"].append({
            "delta": label,
            "meanFidelity": mean,
            "netFidelity300K": mean - errors["decay_error_300k"],
            "netFidelity4K": mean - errors["decay_error_4k"],
            "samples": count,
            "wallTime": wall,
        })
        blocks[key] = {
            "mean_fidelity": mean,
            "decay_error": errors["decay_error"],
            "net_fidelity": mean - errors["decay_error"],
            "sample_count": count,
            **labels,
        }
    if deltas:
        finest = blocks[f"grid_{min(deltas)}"]
        series = [[delta, blocks[f"grid_{delta}"]["mean_fidelity"]] for delta in deltas]
        out["grid"] = {**finest, "convergence": series, "estimate": finest["mean_fidelity"]}
    if monte_carlo is not None:
        out["mc"] = blocks["mc"]
    return out


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
    gate, exposure = simulate(protocol, interaction)
    return ResultRecord(
        command="simulate",
        config=cfg.raw,
        params=_params_dict(protocol),
        results={
            "interaction_used_mhz": (protocol.nominal_interaction if interaction is None else interaction) / MHZ,
            "gate_matrix": complex_matrix_to_json(gate),
            "nominal_fidelity": pedersen_fidelity(gate, ideal_gate(protocol)),
            "rydberg_exposure_us": exposure,
            **_decay_errors(exposure, cfg.noise.rydberg_lifetime),
        },
    )


def run_fidelity(cfg: RunConfig) -> ResultRecord:
    """Average the gate fidelity over position fluctuations, on the grid and/or by Monte Carlo."""
    _reject_overrides(cfg)
    protocol, ncfg = cfg.protocol, cfg.noise
    sigmas = inflate_sigmas(ncfg, protocol.t_gate)
    reduced = _reduced(protocol, ncfg, sigmas)
    grid, mc = cfg.mode in ("grid", "both"), cfg.mode in ("mc", "both")
    table = _sampled_table(protocol, ncfg, sigmas, reduced, grid, "noise.temperature_uk")
    gate, exposure = simulate(protocol)
    # the walked design gate scored against the closed form the table is built from
    walked = pedersen_fidelity(gate, ideal_gate(protocol))
    kernel_gap = abs(walked - float(gate_fidelity(protocol, protocol.nominal_interaction)))

    def monte_carlo():
        truncate = GRID_HALF_RANGE if cfg.mc_truncated else None
        try:
            return monte_carlo_average_fidelity(table, *reduced, cfg.mc_samples, cfg.seed, truncate)
        except ValueError as exc:
            # a draw beyond the window whose distance, or interaction, overflowed
            raise _spread_error(protocol, ncfg, sigmas, True, "noise.temperature_uk", exc) from None

    averages = _position_average(
        table, reduced, cfg.deltas if grid else [], _decay_errors(exposure, ncfg.rydberg_lifetime),
        monte_carlo if mc else None, cfg.mc_truncated,
    )
    direct_evaluations, grid_lookups = averages.pop("direct_evaluations"), averages.pop("grid_lookups")
    results = {
        "sigma_z_um": sigmas.sigma_z,
        "sigma_perp_um": sigmas.sigma_perp,
        "rydberg_exposure_us": exposure,
        **averages,
        "diagnostics": {
            "table_knots": len(table.distances),
            "spline_error": table.spline_error(),
            "kernel_gap": kernel_gap,
            "direct_evaluations": direct_evaluations,
            "grid_lookups": grid_lookups,
        },
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
            gate, exposure = simulate(swept)
            rows.append({
                "axis": axis,
                "value": float(omega_mhz),
                "interaction_mhz": swept.nominal_interaction / MHZ,
                "separation_um": swept.separation,
                "t_gate_us": swept.t_gate,
                "rydberg_exposure_us": exposure,
                "decay_error_300k": _decay_errors(exposure, cfg.noise.rydberg_lifetime)["decay_error_300k"],
                "nominal_fidelity": pedersen_fidelity(gate, ideal_gate(swept)),
            })
    elif axis == "temperature":
        # one table for every temperature: both sigmas grow with it, so the
        # hottest grid reaches farthest
        hottest = replace(cfg.noise, temperature=float(values[-1]))
        hot = inflate_sigmas(hottest, protocol.t_gate)
        hot_field = "sweep.stop" if cfg.sweep["stop"] >= cfg.sweep["start"] else "sweep.start"
        table = _sampled_table(protocol, hottest, hot, _reduced(protocol, hottest, hot), True, hot_field)
        decay = _decay_errors(simulate(protocol)[1], cfg.noise.rydberg_lifetime)["decay_error"]
        delta = min(cfg.deltas)
        for temp in values:
            sigmas = inflate_sigmas(replace(cfg.noise, temperature=float(temp)), protocol.t_gate)
            mean = grid_average_fidelity(table, *_reduced(protocol, cfg.noise, sigmas), GridSpec(delta))
            rows.append({
                "axis": axis,
                "value": float(temp),
                "sigma_z_um": sigmas.sigma_z,
                "sigma_perp_um": sigmas.sigma_perp,
                "delta": delta,
                "mean_fidelity": mean,
                "net_fidelity": mean - decay,
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


if __name__ == "__main__":
    main()

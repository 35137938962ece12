"""The error budget of one design point, in one call.

:func:`price` averages the gate fidelity over thermal position noise, on the paired grid and/or
by Monte Carlo, on one :class:`~rydvdw.noise.FidelityTable` for every temperature asked for, and
prices the decay of the design exposure.  A point it cannot price raises the ConfigError naming
the field at fault: only :mod:`rydvdw.config` and this module name a design point's fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .constants import (DRIVE_DEFAULT_MHZ, LIFETIME_97S_4K_MS, LIFETIME_97S_300K_MS, MHZ, RB87_MASS_KG,
                        TEMPERATURE_DEFAULT_UK)
from .errors import ConfigError
from .gates import design_exposure
from .noise import (KNOT_SPACING, FidelityReport, FidelityTable, GridSpec, InflatedSigmas, NoiseConfig, decay_error,
                    grid_average_fidelity, grid_window, inflate_sigmas, monte_carlo_average_fidelity, reduced)
from .protocol import GateProtocol

__all__ = ["Budget", "price", "decay_errors"]


@dataclass(frozen=True)
class Budget:
    """What :func:`price` found: the ``table`` that served every average, the design ``exposure``
    in us and its ``decay`` errors; per temperature, in the order given, the inflated ``sigmas``
    in um, the ``grid`` mean at each step and the Monte Carlo report ``mc`` (none without draws);
    the wall ``seconds`` of each average as run (at each temperature the grid's, then the Monte
    Carlo's); the (m+1)**6 ``grid_nodes`` of each step, m = ``GridSpec.steps``, and the
    (2m+1)(m+1)**2 folded ``grid_lookups`` of all grid averages."""

    table: FidelityTable
    exposure: float
    decay: dict
    sigmas: tuple[InflatedSigmas, ...]
    grid: tuple[tuple[float, ...], ...]
    mc: tuple[FidelityReport, ...]
    seconds: tuple[float, ...]
    grid_nodes: tuple[int, ...]
    grid_lookups: int


def price(protocol: GateProtocol, ncfg: NoiseConfig, deltas: tuple[float, ...] = (), n_samples: int = 0,
          seed: int = 0, truncate: float | None = None, temperatures: tuple[float, ...] = (),
          temperature_field: str = "noise.temperature_uk") -> Budget:
    """The fidelity of ``protocol``'s gate averaged over the positions of ``ncfg``: a
    :func:`grid_average_fidelity` at each step of ``deltas``, then, if ``n_samples``, a
    :func:`monte_carlo_average_fidelity` of that many draws (``seed``, ``truncate``), each timed,
    at each of ``temperatures`` (``ncfg``'s own if none); and the :func:`decay_errors` of the
    :func:`design_exposure` at ``ncfg``'s lifetime.  A refused table window, a draw whose distance
    or interaction overflowed (a :func:`_spread_error`) and a decay error that is not finite raise
    a ConfigError, in that order, with a hot temperature named ``temperature_field``."""
    temperatures = temperatures or (ncfg.temperature,)
    # one table for every temperature: both sigmas grow with it, so the hottest grid reaches farthest
    table = _sampled_table(protocol, replace(ncfg, temperature=max(temperatures)), bool(deltas), temperature_field)
    exposure = design_exposure(protocol)
    grids = [GridSpec(delta) for delta in deltas]
    sigmas, means, reports, seconds = [], [], [], []
    for temperature in temperatures:
        noise = replace(ncfg, temperature=temperature)
        spreads, *scaled = reduced(protocol, noise)
        means.append([])
        for grid in grids:
            tic = time.perf_counter()
            means[-1].append(grid_average_fidelity(table, *scaled, grid))
            seconds.append(time.perf_counter() - tic)
        if n_samples:
            tic = time.perf_counter()
            try:
                reports.append(monte_carlo_average_fidelity(table, *scaled, n_samples, seed, truncate))
            except ValueError as exc:
                # a draw beyond the window whose distance, or interaction, overflowed
                raise _spread_error(protocol, noise, True, temperature_field, exc) from None
            seconds.append(time.perf_counter() - tic)
        sigmas.append(spreads)
    lookups = len(temperatures) * sum((2 * g.steps + 1) * (g.steps + 1) ** 2 for g in grids)
    return Budget(table, exposure, decay_errors(exposure, ncfg.rydberg_lifetime), tuple(sigmas),
                  tuple(map(tuple, means)), tuple(reports), tuple(seconds), tuple((g.steps + 1) ** 6 for g in grids),
                  lookups)


def decay_errors(exposure: float, lifetime_ms: float) -> dict:
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


def _spread_field(protocol: GateProtocol, ncfg: NoiseConfig, axis, temperature_field="noise.temperature_uk"):
    """The config field behind a spread too wide on ``axis`` ("perp" or "z") over ``protocol``'s
    gate: its trap spread, or, where the free flight v_rms t_gate adds more, the factor of the
    flight furthest from the reference point (10 uK, Rb-87, 0.8 MHz drives) towards a longer one:
    the temperature (``temperature_field``) or the atom mass, each under v_rms's square root, or
    the slower drive, whose part of t_gate goes as its inverse."""
    if not inflate_sigmas(ncfg, protocol.t_gate).flight_length / 2.0 > getattr(ncfg, f"sigma_{axis}0"):
        return f"noise.sigma_{axis}0_um"
    hotter, lighter = ncfg.temperature / TEMPERATURE_DEFAULT_UK, RB87_MASS_KG / ncfg.atom_mass
    control = protocol.omega_control <= protocol.omega_target
    slower = DRIVE_DEFAULT_MHZ * MHZ / float(min(protocol.omega_control, protocol.omega_target))
    if slower * slower > max(hotter, lighter):
        return "drive.omega_control_mhz" if control else "drive.omega_target_mhz"
    return temperature_field if hotter >= lighter else "noise.atom_mass_kg"


def _spread_error(protocol, ncfg, overflow, temperature_field, exc) -> ConfigError:
    """The config error for reduced distances that the table or the closed form refuses (``exc``
    says why): it names the field behind the larger spread, or the trap separation if a distance
    ``overflow``-ed and the separation exceeds both spreads, and the temperature as
    ``temperature_field``."""
    sigmas = reduced(protocol, ncfg)[0]
    axis = "z" if sigmas.sigma_z >= sigmas.sigma_perp else "perp"
    far = overflow and ncfg.trap_separation > max(sigmas.sigma_z, sigmas.sigma_perp)
    field = "noise.trap_separation_um" if far else _spread_field(protocol, ncfg, axis, temperature_field)
    return ConfigError(
        f"invalid config field '{field}': a {ncfg.trap_separation!r} um trap separation and spreads "
        f"sigma_z {sigmas.sigma_z:.4g} and sigma_perp {sigmas.sigma_perp:.4g} um, "
        f"in {protocol.separation:.4g} um design separations: {exc}"
    )


def _sampled_table(protocol, ncfg, grid, temperature_field):
    """The table over the :func:`grid_window` of the :func:`reduced` spreads and separation s,
    which is known before any draw; the Monte Carlo takes its draws beyond it from the closed
    form.  A window reaching zero distance names :func:`_spread_field` for sigma_perp (sigma_z
    adds in quadrature) if ``grid``; a Monte Carlo run alone tabulates from s instead, or from
    one knot spacing if s lies nearer to zero (where the interaction would overflow), and its
    nearer draws take the closed form.  A window the table refuses is a :func:`_spread_error`,
    overflowed if either end is not finite."""
    sigmas, scaled, separation = reduced(protocol, ncfg)
    lo, hi = grid_window(scaled, separation)
    if not lo > 0.0:
        if grid:
            raise ConfigError(
                f"invalid config field '{_spread_field(protocol, ncfg, 'perp', temperature_field)}': the "
                f"position grid reaches zero distance, as 3 sigma_perp (3 x {sigmas.sigma_perp:.4g} um, "
                f"inflated at {ncfg.temperature:.4g} uK) reach the {ncfg.trap_separation:.4g} um trap separation"
            )
        lo = max(separation, KNOT_SPACING)
    try:
        return FidelityTable(protocol, lo, hi)
    except ValueError as exc:
        raise _spread_error(protocol, ncfg, not np.isfinite(hi - lo), temperature_field, exc) from None

"""Run configuration: the JSON schema, and parsing into the solved design point.

Configuration files are plain JSON in MHz, um, uK, ms and radians; every
field defaults to the reference operating point (theta = pi CZ gate at
0.8 MHz Rabi frequency on the Rb 97S_1/2 state), so ``{}`` is valid.
:func:`parse_config` walks :data:`SCHEMA`, converts to internal units and
solves the :class:`GateProtocol` every command runs on, with its
:class:`VdwModel` and the :class:`NoiseConfig` that prices it (trap
separation ``noise.trap_separation_um``, else the solved one), so a
design-point fault is reported when the config loads.  Every fault is a
:class:`ConfigError` naming its field: this module and :mod:`rydvdw.budget` name
a design point's, :mod:`rydvdw.cli` a command's (``overrides``, ``sweep``, the hyperfine drive).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import C6_97S, DRIVE_DEFAULT_MHZ, MHZ
from .errors import ConfigError
from .geometry import VdwModel, vdw_interaction
from .noise import GridSpec, NoiseConfig
from .protocol import GateProtocol, solve_interaction_for_phase

__all__ = ["SCHEMA", "RunConfig", "load_config", "parse_config", "solve_gate", "interaction_at",
           "DEFAULT_SEED", "MAX_OVERRIDE_MHZ"]

DEFAULT_SEED = 20210901

_positive = {"type": "number", "exclusiveMinimum": 0}

#: Largest interaction ``simulate`` walks under ``overrides``, in MHz.  Over 60 random designs (CZ
#: at theta 0.01 to 2 pi - 0.01 and CNOT, drives 0.1 to 10 MHz, 1000 log-spaced points each from
#: 1e-3 MHz) the walked fidelity holds the closed form within 1.6e-15 up to here, and within 1e-14
#: beyond it until the walk's phases overflow, first at 6.4e306 MHz; at 2.8e307 MHz the walked
#: exposure is NaN.
MAX_OVERRIDE_MHZ = 1e100

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "rydvdw run configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["cz", "cnot"]},
                "theta_rad": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 6.283185307179586,
                },
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "omega_control_mhz": _positive,
                "omega_target_mhz": _positive,
            },
        },
        "vdw": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"c6_thz_um6": _positive},
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma_z0_um": _positive,
                "sigma_perp0_um": _positive,
                "temperature_uk": _positive,
                "atom_mass_kg": _positive,
                "rydberg_lifetime_ms": _positive,
                "trap_separation_um": _positive,
            },
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["grid", "mc", "both"]},
                # deltas and mc_samples set streamed work, sweep.points sizes arrays; at
                # the reference point the peak memory at each bound is about 32 MB (deltas),
                # 31 MB (mc_samples) and 0.49 GB (sweep.points, nearly all rows and CSV text)
                "deltas": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "minimum": 0.02, "maximum": 1.5},
                },
                "mc_samples": {"type": "integer", "minimum": 2, "maximum": 10**7},
                "mc_truncated": {"type": "boolean"},
            },
        },
        "overrides": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "interaction_mhz": {"type": "number", "minimum": 0, "maximum": MAX_OVERRIDE_MHZ},
                "separation_um": _positive,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "start", "stop", "points"],
            "properties": {
                "axis": {"enum": ["separation", "omega", "temperature"]},
                "start": _positive,
                "stop": _positive,
                "points": {"type": "integer", "minimum": 2, "maximum": 10**6},
            },
        },
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration in internal units: the solved gate, its interaction
    and noise models, the run settings, and ``interaction_override`` (rad/us), the
    ``overrides`` block with a separation turned into its interaction."""

    protocol: GateProtocol
    vdw: VdwModel
    noise: NoiseConfig
    mode: str
    deltas: tuple[float, ...]
    mc_samples: int
    mc_truncated: bool
    interaction_override: float | None
    sweep: dict | None
    seed: int
    raw: dict


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "boolean": lambda value: isinstance(value, bool),
    # JSON Schema: a boolean is not a number, and 3.0 is an integer; unlike
    # jsonschema, NaN and +-Infinity (which Python's json reads) are not numbers
    "number": lambda value: isinstance(value, int) and not isinstance(value, bool)
    or isinstance(value, float) and math.isfinite(value),
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool))
    or (isinstance(value, float) and value.is_integer()),
}

#: Bound keyword -> (comparison that breaks it, the words of the message).
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _validate(value, schema: dict, path: tuple = ()) -> None:
    """Check ``value`` against ``schema`` with the JSON Schema keywords
    :data:`SCHEMA` uses, raising :class:`ConfigError` at the first fault
    with its dotted field (``<root>`` for the top level)."""

    def fault(message: str):
        where = ".".join(str(part) for part in path) or "<root>"
        raise ConfigError(f"invalid config field '{where}': {message}")

    if "type" in schema and not _TYPES[schema["type"]](value):
        fault(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and value not in schema["enum"]:
        fault(f"{value!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](value):
        for keyword, (breaks, words) in _BOUNDS.items():
            if keyword in schema and breaks(value, schema[keyword]):
                fault(f"{value!r} is {words} {schema[keyword]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fault(f"{value!r} is too short")
        for index, item in enumerate(value):
            _validate(item, schema.get("items", {}), path + (index,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fault(f"{key!r} is a required property")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], path + (key,))
            elif schema.get("additionalProperties") is False:
                fault(f"Additional properties are not allowed ({key!r} was unexpected)")


def solve_gate(theta, omega_control, omega_target, vdw, kind, drive_field="drive") -> GateProtocol:
    """:meth:`GateProtocol.solve` on a valid config, whose fault is then a tiny or
    huge frequency that overflowed a duration or the separation, named as
    ``drive_field``, or theta -> 0, which needs an infinite interaction whatever
    the drive, named as ``gate.theta_rad``."""
    try:
        return GateProtocol.solve(theta, omega_control, omega_target, vdw, kind)
    except ValueError as exc:
        with np.errstate(divide="ignore", over="ignore"):
            interaction = solve_interaction_for_phase(theta, omega_target)
        theta_at_fault = np.isinf(interaction) and np.isfinite(omega_target)
        field = "gate.theta_rad" if theta_at_fault else drive_field
        raise ConfigError(f"invalid config field '{field}': {exc}") from None


def interaction_at(vdw: VdwModel, dist, field: str):
    """The interaction at config distance(s) ``dist``; an infinite one names ``field``."""
    interaction = vdw_interaction(vdw, dist)
    if not np.isfinite(interaction).all():
        nearest = float(np.min(dist))
        raise ConfigError(f"invalid config field '{field}': infinite interaction at {nearest!r} um")
    return interaction


def parse_config(raw: dict) -> RunConfig:
    """Validate a configuration dict against the schema, apply units and
    solve its design point.

    Raises :class:`ConfigError` naming the offending field on any
    schema violation or design-point fault.
    """
    _validate(raw, SCHEMA)
    sampling = raw.get("sampling", {})
    deltas = tuple(sampling.get("deltas", (0.25, 0.2, 0.15, 0.12, 0.1)))
    steps: dict[int, float] = {}
    for delta in deltas:
        try:
            step = GridSpec(delta).steps
            if step in steps:
                raise ValueError(f"{steps[step]!r} and {delta!r} make one {step}-step grid")
        except ValueError as exc:
            raise ConfigError(f"invalid config field 'sampling.deltas': {exc}") from exc
        steps[step] = delta
    vdw_block, overrides = raw.get("vdw", {}), raw.get("overrides", {})
    # h x THz um^6 -> rad/us um^6: 1 THz = 1e6 cycles/us
    c6 = MHZ * vdw_block["c6_thz_um6"] * 1e6 if "c6_thz_um6" in vdw_block else C6_97S
    interaction = overrides["interaction_mhz"] * MHZ if "interaction_mhz" in overrides else None
    # a finite value can overflow in internal units
    if not math.isfinite(c6):
        raise ConfigError(f"invalid config field 'vdw.c6_thz_um6': {c6!r} in internal units")

    gate, drive = raw.get("gate", {}), raw.get("drive", {})
    kind, theta = gate.get("kind", "cz"), gate.get("theta_rad", math.pi)
    if kind == "cnot" and abs(theta - math.pi) > 1e-9:
        raise ConfigError("invalid config field 'gate.theta_rad': cnot requires theta_rad = pi")
    vdw = VdwModel(c6)
    omega_control = drive.get("omega_control_mhz", DRIVE_DEFAULT_MHZ) * MHZ
    omega_target = drive.get("omega_target_mhz", DRIVE_DEFAULT_MHZ) * MHZ
    protocol = solve_gate(theta, omega_control, omega_target, vdw, kind)
    if "separation_um" in overrides:
        if interaction is not None:
            raise ConfigError(
                "invalid config field 'overrides': give either interaction_mhz "
                "or separation_um, not both"
            )
        interaction = interaction_at(vdw, overrides["separation_um"], "overrides.separation_um")
        if interaction > MAX_OVERRIDE_MHZ * MHZ:
            raise ConfigError(
                f"invalid config field 'overrides.separation_um': {overrides['separation_um']!r} um gives "
                f"{float(interaction / MHZ)!r} MHz, above the {MAX_OVERRIDE_MHZ!r} MHz that is walked"
            )
    # each noise field is a NoiseConfig field with its unit appended
    noise = {key.rsplit("_", 1)[0]: value for key, value in raw.get("noise", {}).items()}
    return RunConfig(
        protocol=protocol,
        vdw=vdw,
        noise=NoiseConfig(**{"trap_separation": protocol.separation, **noise}),
        mode=sampling.get("mode", "grid"),
        deltas=deltas,
        # the schema takes 3.0 as an integer; numpy counts and seeds need an int
        mc_samples=int(sampling.get("mc_samples", 100_000)),
        mc_truncated=sampling.get("mc_truncated", False),
        interaction_override=interaction,
        sweep={**raw["sweep"], "points": int(raw["sweep"]["points"])} if "sweep" in raw else None,
        seed=int(raw.get("seed", DEFAULT_SEED)),
        raw=raw,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)

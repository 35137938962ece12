"""Run configuration: JSON schema, loading, and unit conversion.

Configuration files are plain JSON.  Frequencies are given in MHz and
converted internally to rad/us; lengths are um, temperatures uK,
lifetimes ms, and the controlled phase is in radians.  Every field has
a default matching the reference operating point (theta = pi CZ gate
at 0.8 MHz Rabi frequency on the Rb 97S_1/2 state), so ``{}`` is a
valid configuration.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

from .constants import (
    C6_97S,
    MHZ,
    RB87_MASS_KG,
    SIGMA_PERP0_DEFAULT,
    SIGMA_Z0_DEFAULT,
    TEMPERATURE_DEFAULT_UK,
)
from .errors import ConfigError
from .noise import GridSpec

__all__ = ["SCHEMA", "RunConfig", "load_config", "parse_config", "DEFAULT_SEED"]

DEFAULT_SEED = 20210901

_positive = {"type": "number", "exclusiveMinimum": 0}

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
                # deltas, mc_samples and sweep.points size arrays; at the reference
                # point each bound keeps the peak memory under about 0.7 GB
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
                "interaction_mhz": {"type": "number", "minimum": 0},
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


@dataclass
class RunConfig:
    """Validated configuration with units converted to internal ones."""

    kind: str = "cz"
    theta: float = math.pi
    omega_control: float = 0.8 * MHZ
    omega_target: float = 0.8 * MHZ
    c6: float = C6_97S
    sigma_z0: float = SIGMA_Z0_DEFAULT
    sigma_perp0: float = SIGMA_PERP0_DEFAULT
    temperature: float = TEMPERATURE_DEFAULT_UK
    atom_mass: float = RB87_MASS_KG
    rydberg_lifetime: float = 0.311
    trap_separation: float | None = None
    mode: str = "grid"
    deltas: tuple[float, ...] = (0.25, 0.2, 0.15, 0.12, 0.1)
    mc_samples: int = 100_000
    mc_truncated: bool = False
    interaction_override: float | None = None
    separation_override: float | None = None
    sweep: dict | None = None
    seed: int = DEFAULT_SEED
    raw: dict = field(default_factory=dict)


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


def parse_config(raw: dict) -> RunConfig:
    """Validate a configuration dict against the schema and apply units.

    Raises :class:`ConfigError` naming the offending field on any
    schema violation.
    """
    _validate(raw, SCHEMA)
    cfg = RunConfig(raw=raw)
    gate = raw.get("gate", {})
    cfg.kind = gate.get("kind", cfg.kind)
    cfg.theta = gate.get("theta_rad", cfg.theta)
    drive = raw.get("drive", {})
    cfg.omega_control = drive.get("omega_control_mhz", 0.8) * MHZ
    cfg.omega_target = drive.get("omega_target_mhz", 0.8) * MHZ
    if "c6_thz_um6" in raw.get("vdw", {}):
        # h x THz um^6 -> rad/us um^6: 1 THz = 1e6 cycles/us
        cfg.c6 = MHZ * raw["vdw"]["c6_thz_um6"] * 1e6
    noise = raw.get("noise", {})
    cfg.sigma_z0 = noise.get("sigma_z0_um", cfg.sigma_z0)
    cfg.sigma_perp0 = noise.get("sigma_perp0_um", cfg.sigma_perp0)
    cfg.temperature = noise.get("temperature_uk", cfg.temperature)
    cfg.atom_mass = noise.get("atom_mass_kg", cfg.atom_mass)
    cfg.rydberg_lifetime = noise.get("rydberg_lifetime_ms", cfg.rydberg_lifetime)
    cfg.trap_separation = noise.get("trap_separation_um", None)
    sampling = raw.get("sampling", {})
    cfg.mode = sampling.get("mode", cfg.mode)
    cfg.deltas = tuple(sampling.get("deltas", cfg.deltas))
    for delta in cfg.deltas:
        try:
            GridSpec(delta)
        except ValueError as exc:
            raise ConfigError(f"invalid config field 'sampling.deltas': {exc}") from exc
    # the schema takes 3.0 as an integer; numpy counts and seeds need an int
    cfg.mc_samples = int(sampling.get("mc_samples", cfg.mc_samples))
    cfg.mc_truncated = sampling.get("mc_truncated", cfg.mc_truncated)
    overrides = raw.get("overrides", {})
    if "interaction_mhz" in overrides:
        cfg.interaction_override = overrides["interaction_mhz"] * MHZ
    cfg.separation_override = overrides.get("separation_um", None)
    if "sweep" in raw:
        cfg.sweep = {**raw["sweep"], "points": int(raw["sweep"]["points"])}
    cfg.seed = int(raw.get("seed", cfg.seed))
    # a finite value can overflow in internal units
    converted = {"vdw.c6_thz_um6": cfg.c6, "overrides.interaction_mhz": cfg.interaction_override}
    for name, value in converted.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"invalid config field '{name}': {value!r} in internal units")

    if cfg.kind == "cnot" and abs(cfg.theta - math.pi) > 1e-9:
        raise ConfigError("invalid config field 'gate.theta_rad': cnot requires theta_rad = pi")
    return cfg


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

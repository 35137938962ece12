"""The config validator against jsonschema on the same ``SCHEMA``.

Configs are the reference one with every field filled in, and valid
configs drawn from the schema itself.  Each case then changes one field:
a wrong type, an empty list, a boolean for a number, 3.0 for an
integer, a value just past each bound, a non-finite number, an unknown
key or a missing required key.  The package's walker and jsonschema
must agree on accept or reject and on the dotted field at fault, except
on purpose for NaN and +-Infinity in a number field: jsonschema takes
them as numbers, the walker rejects them and names the field.
"""

import json
import math
from functools import reduce
from operator import getitem
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from rydvdw.config import SCHEMA, _validate
from rydvdw.errors import ConfigError

#: The keywords the walker implements, plus the annotations it ignores.
WALKER_KEYWORDS = {
    "type", "enum", "properties", "additionalProperties", "required", "items",
    "minItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
}
ANNOTATIONS = {"$schema", "title"}

VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
BOUNDS = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum")


def valid(schema):
    """Strategy for instances of ``schema`` that satisfy it."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        properties = schema["properties"]
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {key: valid(properties[key]) for key in required},
            optional={key: valid(sub) for key, sub in properties.items() if key not in required},
        )
    if kind == "array":
        return st.lists(valid(schema["items"]), min_size=schema.get("minItems", 0), max_size=3)
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        low, high = schema.get("minimum"), schema.get("maximum")
        exact = st.integers(low, 2**53 if high is None else min(high, 2**53))
        return st.integers(low, high) | exact.map(float)  # 5.0 is an integer too
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    high = schema.get("maximum", schema.get("exclusiveMaximum"))
    return st.floats(
        low, high,
        exclude_min="exclusiveMinimum" in schema,
        exclude_max="exclusiveMaximum" in schema,
        allow_nan=False,
        allow_infinity=False,
    )


def schema_paths(schema, path=()):
    """Every (path, subschema) in ``schema``; array items get index 0."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from schema_paths(sub, path + (key,))
    if "items" in schema:
        yield from schema_paths(schema["items"], path + (0,))


PATHS = list(schema_paths(SCHEMA))


def past(keyword, bound, kind):
    """The nearest value of ``kind`` that breaks the bound ``keyword``."""
    if keyword.startswith("exclusive"):
        return bound
    direction = -1 if keyword == "minimum" else 1
    return bound + direction if kind == "integer" else math.nextafter(bound, direction * math.inf)


def mutations(schema, value):
    """Single-field replacements of a valid ``value`` of ``schema``."""
    out = ["text", None, [], [value], True, False, math.inf, math.nan]
    kind = schema.get("type")
    if kind == "integer":
        out.append(float(value))
    for keyword in BOUNDS:
        if keyword in schema:
            out.append(past(keyword, schema[keyword], kind))
    if isinstance(value, dict):
        out.append({**value, "unknown_key": 1.0})
        out += [{k: v for k, v in value.items() if k != key} for key in schema.get("required", ())]
    return out


def jsonschema_field(raw):
    """Dotted field of jsonschema's error, as ``jsonschema.validate`` picks it, or None."""
    error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(raw))
    if error is None:
        return None
    return ".".join(str(part) for part in error.absolute_path) or "<root>"


def expected_field(raw, path, schema, mutation):
    """The dotted field the walker must name for ``raw``, or None."""
    if schema.get("type") == "number" and isinstance(mutation, float) and not math.isfinite(mutation):
        return ".".join(str(part) for part in path)
    return jsonschema_field(raw)


def walker_field(raw):
    try:
        _validate(raw, SCHEMA)
    except ConfigError as exc:
        return str(exc).split("'")[1]
    return None


def test_schema_uses_only_walker_keywords():
    VALIDATOR.check_schema(SCHEMA)
    used = set()
    for _, schema in PATHS:
        used |= set(schema)
    assert used - ANNOTATIONS <= WALKER_KEYWORDS, used - ANNOTATIONS - WALKER_KEYWORDS


def replaced(raw, path, value):
    """``raw`` with the field at ``path`` set to ``value``."""
    if not path:
        return value
    reduce(getitem, path[:-1], raw)[path[-1]] = value
    return raw


def full_config():
    """The reference config with every optional field and block filled in."""
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "reference_cz.json").read_text())
    raw["noise"].update(atom_mass_kg=1.443e-25, trap_separation_um=21.0)
    raw["overrides"] = {"interaction_mhz": 0.46, "separation_um": 21.0}
    raw["sweep"] = {"axis": "omega", "start": 0.8, "stop": 3.2, "points": 3}
    return raw


def test_walker_agrees_with_jsonschema_on_every_field():
    assert walker_field(full_config()) is None and jsonschema_field(full_config()) is None
    disagreements = []
    for path, schema in PATHS:
        for mutation in mutations(schema, reduce(getitem, path, full_config())):
            raw = replaced(full_config(), path, mutation)
            if walker_field(raw) != expected_field(raw, path, schema, mutation):
                disagreements.append((path, mutation, walker_field(raw), jsonschema_field(raw)))
    assert not disagreements


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_walker_agrees_with_jsonschema(data):
    raw = data.draw(valid(SCHEMA))
    assert walker_field(raw) is None and jsonschema_field(raw) is None
    path, schema = data.draw(st.sampled_from(PATHS))
    # draw in the blocks on the way to the field that the config lacks
    holder, holder_schema = raw, SCHEMA
    for key in path[:-1]:
        holder_schema = holder_schema["properties"][key] if isinstance(key, str) else holder_schema["items"]
        if key not in holder:
            holder[key] = data.draw(valid(holder_schema))
        holder = holder[key]
    if not path:
        value = raw
    elif isinstance(holder, list) or path[-1] in holder:  # arrays hold index 0
        value = holder[path[-1]]
    else:
        value = data.draw(valid(schema))
    mutation = data.draw(st.sampled_from(mutations(schema, value)))
    raw = replaced(raw, path, mutation)
    assert walker_field(raw) == expected_field(raw, path, schema, mutation)

"""Golden records: each command's output on a few configs, pinned.

Every case runs one command line in process and compares its exit code,
its stderr and its parsed stdout (the JSON record, or the CSV rows of a
sweep) with ``tests/golden/<case>.json``.  Keys, strings and integers
must match exactly, floats within ``FLOAT_TOLERANCE`` absolute: BLAS dot
products, SIMD ``sin`` and ``exp`` and numpy's ``log`` may round the
last bit otherwise on another CPU or build.  A record's ``run_id``,
``timestamp`` and ``versions``, and its wall times, change from run to
run and are left out.

A change that must keep every output as it is leaves these files alone.
``python -m tests.test_golden`` rewrites them from the current code, for
a change that moves an output on purpose and says so.
"""

import json
import math
from pathlib import Path

import pytest

from .helpers import rows_from_csv, run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = json.loads((ROOT / "configs" / "reference_cz.json").read_text())

FLOAT_TOLERANCE = 1e-12

#: Keys that differ from run to run, wherever they appear in a record or a row.
VOLATILE = {"run_id", "timestamp", "versions", "wall_times", "wallTime"}

#: Case name -> (command, config).
CASES = {
    "fidelity_reference": ("fidelity", REFERENCE),
    "fidelity_cnot_both": ("fidelity", {
        "gate": {"kind": "cnot"},
        "sampling": {"mode": "both", "deltas": [0.5, 0.25], "mc_samples": 20000},
    }),
    # 3 sigma_perp reach past a 0.9 um trap: the Monte Carlo alone tabulates from the traps
    "fidelity_mc_truncated_trap_0.9um": ("fidelity", {
        "noise": {"trap_separation_um": 0.9},
        "sampling": {"mode": "mc", "mc_samples": 5000, "mc_truncated": True},
    }),
    "sweep_separation": ("sweep", {"sweep": {"axis": "separation", "start": 19.0, "stop": 23.0, "points": 5}}),
    "sweep_omega": ("sweep", {"sweep": {"axis": "omega", "start": 0.8, "stop": 1.6, "points": 3}}),
    "sweep_temperature": ("sweep", {
        "sweep": {"axis": "temperature", "start": 5.0, "stop": 15.0, "points": 3},
        "sampling": {"deltas": [0.5, 0.25]},
    }),
    "simulate_reference": ("simulate", REFERENCE),
    # the four config errors a priced design point can raise while it runs
    "exit_grid_at_zero_distance": ("fidelity", {
        "noise": {"sigma_perp0_um": 8.0}, "sampling": {"deltas": [0.5]},
    }),
    "exit_window_over_max_knots": ("sweep", {
        "noise": {"trap_separation_um": 2100},
        "sweep": {"axis": "temperature", "start": 10.0, "stop": 1.7e9, "points": 2},
        "sampling": {"deltas": [0.5]},
    }),
    "exit_overflowing_draw": ("fidelity", {
        "noise": {"trap_separation_um": 1e154 * 20.99, "sigma_z0_um": 2e153 * 20.99},
        "sampling": {"mode": "mc", "mc_samples": 20000},
    }),
    "exit_infinite_decay": ("fidelity", {"noise": {"rydberg_lifetime_ms": 1e-320}}),
}


def run_case(name, tmp_path) -> dict:
    """The exit code, stderr and parsed stdout of case ``name``, volatile keys dropped."""
    command, payload = CASES[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(payload))
    result = run_cli([command, "--config", str(config)])
    if not result.stdout:
        stdout = None
    elif command == "sweep":
        stdout = rows_from_csv(result.stdout)
    else:
        stdout = json.loads(result.stdout)
    return {"exit_code": result.exit_code, "stderr": result.stderr, "stdout": _stable(stdout)}


def _stable(value):
    if isinstance(value, dict):
        return {key: _stable(item) for key, item in value.items() if key not in VOLATILE}
    if isinstance(value, list):
        return [_stable(item) for item in value]
    return value


def mismatches(got, want, path="") -> list[str]:
    """Where ``got`` departs from ``want``: a float by more than the tolerance, anything else
    (key, string, integer, bool, None, length) by any change at all, or a change of type."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isfinite(want) and abs(got - want) <= FLOAT_TOLERANCE:
            return []
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} ({type(got).__name__}) != {want!r} ({type(want).__name__})"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [line for key in want for line in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [line for i, (a, b) in enumerate(zip(got, want)) for line in mismatches(a, b, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run_case(name, tmp_path)
    assert mismatches(got, want) == []


def test_every_golden_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize(
    "got, want, bad",
    [
        (1.0 + 5e-13, 1.0, False),
        (1.0 + 5e-12, 1.0, True),
        (1, 1.0, True),
        (True, 1, True),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}, True),
        ([0.5], [0.5, 0.25], True),
        (None, "", True),
    ],
)
def test_comparison_catches_what_it_must(got, want, bad):
    assert bool(mismatches(got, want)) == bad


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            data = run_case(case, Path(scratch))
            (GOLDEN / f"{case}.json").write_text(json.dumps(data, indent=1) + "\n")

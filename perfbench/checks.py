"""Correctness checks on each command's output, and the values they expect.

Every check takes the text the command wrote, raises :class:`CheckFailed`
naming the first value out of tolerance, and otherwise returns the
headline values it read, which the benchmark prints so that a change
that moves a result shows in its output.  Stdlib only: the benchmark
process never imports the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math

#: Acceptance criteria 4 and 5: (expected, absolute tolerance).
SEPARATION_UM = (20.99, 0.01)
T_GATE_US = (3.42, 0.02)
EXPOSURE_US = (1.91, 0.02)

#: Acceptance criterion 7: grid mean per step, the delta=0.1 estimate and
#: its net fidelities at 300 K and 4 K, all to 1e-3.
GRID_SERIES = {0.25: 0.9910, 0.2: 0.9912, 0.15: 0.9914, 0.12: 0.9920, 0.1: 0.9920}
GRID_ESTIMATE = 0.992
NET_300K = 0.986
NET_4K = 0.990
GRID_TOL = 1e-3

#: Untruncated Monte Carlo mean on the reference config at the parent
#: commit; a run with another seed must land within MC_STDERRS standard
#: errors of it.
MC_MEAN = 0.98457
MC_STDERRS = 5.0

#: Design-point fidelity floor and the ceiling every fidelity obeys.
DESIGN_FLOOR = 1.0 - 1e-9
FIDELITY_CEILING = 1.0 + 1e-12

#: Temperature sweep (uK, mean fidelity, net fidelity) on the reference
#: point at grid step 0.05, as computed at the parent commit.
THERMAL_TOL = 1e-6
THERMAL_ROWS = (
    (2.0, 0.993007055752885, 0.9868792931206741),
    (4.0, 0.9925649059026597, 0.9864371432704488),
    (6.0, 0.992216440896154, 0.9860886782639432),
    (8.0, 0.9919164890476524, 0.9857887264154416),
    (10.0, 0.9916475511816355, 0.9855197885494247),
    (12.0, 0.9914006515200177, 0.9852728888878068),
    (14.0, 0.9911704573731848, 0.985042694740974),
    (16.0, 0.9909534937672526, 0.9848257311350418),
    (18.0, 0.9907473466778223, 0.9846195840456115),
    (20.0, 0.9905502582505186, 0.9844224956183077),
    (22.0, 0.9903609012826574, 0.9842331386504466),
    (24.0, 0.9901782445417353, 0.9840504819095245),
    (26.0, 0.9900014678407199, 0.983873705208509),
    (28.0, 0.9898299060923423, 0.9837021434601315),
    (30.0, 0.9896630111010198, 0.983535248468809),
    (32.0, 0.989500324667709, 0.9833725620354982),
)


class CheckFailed(Exception):
    """An output value is missing or outside its tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def within(name: str, value: float, expected: float, tol: float) -> None:
    require(
        math.isfinite(value) and abs(value - expected) <= tol,
        f"{name} = {value!r}, expected {expected!r} +- {tol!r}",
    )


def read_rows(text: str, points: int) -> list[dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == points, f"{len(rows)} rows, expected {points}")
    return rows


def check_budget(text: str) -> dict:
    """``fidelity`` on the reference config: criteria 4, 5 and 7, and the MC mean."""
    record = json.loads(text)
    params, results = record["params"], record["results"]
    within("separation_um", params["separation_um"], *SEPARATION_UM)
    within("t_gate_us", params["t_gate_us"], *T_GATE_US)
    within("rydberg_exposure_us", results["rydberg_exposure_us"], *EXPOSURE_US)
    grid = results["grid"]
    series = dict((delta, mean) for delta, mean in grid["convergence"])
    require(sorted(series) == sorted(GRID_SERIES), f"grid steps {sorted(series)}")
    for delta, expected in GRID_SERIES.items():
        within(f"grid mean at delta {delta}", series[delta], expected, GRID_TOL)
    within("grid estimate", grid["estimate"], GRID_ESTIMATE, GRID_TOL)
    finest = next(row for row in results["csv_rows"] if row["delta"] == 0.1)
    within("net fidelity 300 K", finest["netFidelity300K"], NET_300K, GRID_TOL)
    within("net fidelity 4 K", finest["netFidelity4K"], NET_4K, GRID_TOL)
    mc = results["mc"]
    within("MC mean", mc["mean_fidelity"], MC_MEAN, MC_STDERRS * mc["stderr"])
    return {
        "separation_um": params["separation_um"],
        "t_gate_us": params["t_gate_us"],
        "rydberg_exposure_us": results["rydberg_exposure_us"],
        "grid_estimate": grid["estimate"],
        "net_fidelity_300k": finest["netFidelity300K"],
        "net_fidelity_4k": finest["netFidelity4K"],
        "mc_mean": mc["mean_fidelity"],
        "mc_stderr": mc["stderr"],
    }


def check_solve(text: str, theta: float) -> dict:
    """``solve``: the operating point exists for the requested phase."""
    params = json.loads(text)["params"]
    within("theta_rad", params["theta_rad"], theta, 1e-12)
    for name in ("interaction_mhz", "t_gate_us", "separation_um"):
        require(params[name] > 0, f"{name} = {params[name]!r} is not positive")
    return {"theta_rad": theta, "separation_um": params["separation_um"]}


def check_simulate(text: str) -> dict:
    """``simulate`` at the design point: exact gate, positive exposure."""
    results = json.loads(text)["results"]
    fidelity = results["nominal_fidelity"]
    require(
        DESIGN_FLOOR <= fidelity <= FIDELITY_CEILING,
        f"design-point fidelity {fidelity!r} outside [{DESIGN_FLOOR!r}, {FIDELITY_CEILING!r}]",
    )
    require(results["rydberg_exposure_us"] > 0, "rydberg_exposure_us is not positive")
    return {"nominal_fidelity": fidelity, "rydberg_exposure_us": results["rydberg_exposure_us"]}


def check_omega_rows(text: str, points: int) -> dict:
    """``omega`` sweep: every row is a design point with positive exposure."""
    rows = read_rows(text, points)
    for row in rows:
        fidelity = float(row["nominal_fidelity"])
        require(
            DESIGN_FLOOR <= fidelity <= FIDELITY_CEILING,
            f"design-point fidelity {fidelity!r} at omega {row['value']}",
        )
        exposure = float(row["rydberg_exposure_us"])
        require(exposure > 0, f"exposure {exposure!r} at omega {row['value']}")
    return {"min_exposure_us": min(float(row["rydberg_exposure_us"]) for row in rows)}


def check_separation_rows(text: str, points: int) -> dict:
    """``separation`` sweep: every fidelity lies in [0, 1]."""
    rows = read_rows(text, points)
    for row in rows:
        fidelity = float(row["nominal_fidelity"])
        require(
            0.0 <= fidelity <= FIDELITY_CEILING,
            f"fidelity {fidelity!r} at separation {row['value']}",
        )
    return {"min_fidelity": min(float(row["nominal_fidelity"]) for row in rows)}


def check_thermal_rows(text: str, expected=THERMAL_ROWS) -> dict:
    """``temperature`` sweep: each row matches the parent commit's value."""
    rows = read_rows(text, len(expected))
    for row, (temperature, mean, net) in zip(rows, expected):
        within("temperature_uk", float(row["value"]), temperature, 1e-9)
        within(f"mean fidelity at {temperature} uK", float(row["mean_fidelity"]), mean, THERMAL_TOL)
        within(f"net fidelity at {temperature} uK", float(row["net_fidelity"]), net, THERMAL_TOL)
    return {
        "mean_fidelity_coldest": float(rows[0]["mean_fidelity"]),
        "mean_fidelity_hottest": float(rows[-1]["mean_fidelity"]),
    }

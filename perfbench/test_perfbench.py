"""Tests of the benchmark's own code; run with ``python3 -m pytest perfbench``."""

import json
import sys
import types
from functools import partial

import pytest

import checks
import run
from spans import Tracer, layer_metrics, self_times


def span(name, start, end, parent=None, work=None, key=None):
    return [name, start, end, parent, 0, work, key]


def test_self_time_of_nested_spans():
    spans = [
        span("cli.run_fidelity", 0.0, 10.0),
        span("noise.FidelityTable.__init__", 1.0, 4.0, parent=0),
        span("noise.FidelityTable.evaluate", 2.0, 3.0, parent=1),
        span("noise.grid_average_fidelity", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a.f", 0.0, 10.0), span("a.g", 2.0, 6.0, 0), span("a.h", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_wraps_every_name_a_function_is_bound_to(monkeypatch):
    package = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    inner.leaf.__module__ = "fakepkg.inner"
    outer.leaf = inner.leaf  # from .inner import leaf
    exec("def branch(x):\n    return leaf(x) * 2\n", outer.__dict__)
    outer.branch.__module__ = "fakepkg.outer"
    for module in (package, inner, outer):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = Tracer(command=3)
    assert tracer.install("fakepkg") == 2
    assert outer.branch(1) == 4 and inner.leaf(1) == 2
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer.branch", None, 3), ("inner.leaf", 0, 3), ("inner.leaf", None, 3)]


def test_layer_metrics_counts_and_ratios():
    build, grid = "noise.FidelityTable.__init__", "noise.grid_average_fidelity"
    command = [
        span("cli.run_fidelity", 0.0, 10.0),
        span(build, 1.0, 4.0, 0, work=5),
        span("noise.FidelityTable.evaluate", 1.5, 2.0, 1),
        span(grid, 4.0, 6.0, 0),
        span("noise.FidelityTable.__call__", 4.5, 5.5, 3, work=8),
        span("noise.FidelityTable.evaluate", 5.0, 5.2, 4),
        span("protocol.rydberg_exposure", 6.0, 7.0, 0, key=1),
        span("protocol.rydberg_exposure", 7.0, 8.0, 0, key=1),
    ]
    metrics = layer_metrics([command])
    assert metrics["noise.table_points"] == 5
    assert metrics["noise.direct_evals"] == 1
    assert metrics["noise.grid_points"] == 8
    assert metrics["noise.table_hit_ratio"] == pytest.approx(7 / 8)
    assert metrics["noise.table_build_s"] == pytest.approx(2.5)
    assert metrics["protocol.exposure_useful_ratio"] == pytest.approx(0.5)
    assert metrics["cli.run_s"] == pytest.approx(3.0)


def fake_study(traced, wall, probe=1.0):
    spans = [span("cli.import", 0.0, 0.5), span("cli.run_sweep", 0.6, wall)] if traced else None
    outcome = run.Outcome("sweep", 0.0, wall, setup_s=0.5, cpu_s=1.5, maxrss_mb=90.0, spans=spans)
    probes = None if traced else (probe, probe)
    return run.Study(traced, [outcome], probes)


def test_end_to_end_times_are_scaled_by_the_probe():
    reference = run.PROBE_REFERENCE_S
    studies = [fake_study(False, 2.0, probe=reference), fake_study(False, 3.0, probe=2 * reference),
               fake_study(False, 4.0, probe=reference / 2)]
    studies[0].probes = (0.5 * reference, 1.5 * reference)
    metrics = run.end_to_end(studies)
    assert metrics["study_s"] == pytest.approx(2.0)  # median of 2.0, 1.5 and 8.0
    assert metrics["setup_s"] == pytest.approx(0.5)  # median of 0.5, 0.25 and 1.0
    assert metrics["peak_rss_mb"] == 90.0


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(trace, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    studies = [fake_study(False, 2.0), fake_study(bool(trace), 2.5)]
    metrics = run.per_layer(studies) if trace else run.end_to_end(studies)
    line = run.result_line(metrics, specs, attempted=2, failed=0)
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    args = run.parse_args(["--workload", "thermal_scan", "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)])
    run.report(args, studies, metrics, specs, failed_ratio=0.0)
    printed = capsys.readouterr().out
    for s in specs + [{"name": "failed_ratio", "unit": "ratio"}]:
        assert any(l.split()[:1] == [s["name"]] and l.split()[-1] == s["unit"]
                   for l in printed.splitlines())


def thermal_csv(rows):
    lines = ["axis,value,mean_fidelity,net_fidelity"]
    lines += [f"temperature,{t!r},{mean!r},{net!r}" for t, mean, net in rows]
    return "\n".join(lines) + "\n"


def test_wrong_expected_value_fails_the_command_without_crashing(tmp_path):
    out = tmp_path / "temperature.out"
    out.write_text(thermal_csv(checks.THERMAL_ROWS))
    command = run.Command("temperature", "sweep", {}, checks.check_thermal_rows)
    assert run.judge(command, out) == (None, {
        "mean_fidelity_coldest": checks.THERMAL_ROWS[0][1],
        "mean_fidelity_hottest": checks.THERMAL_ROWS[-1][1],
    })

    wrong = list(checks.THERMAL_ROWS)
    wrong[5] = (wrong[5][0], wrong[5][1] + 1e-5, wrong[5][2])
    command.check = partial(checks.check_thermal_rows, expected=wrong)
    failure, headline = run.judge(command, out)
    assert failure.startswith("CheckFailed: mean fidelity at 12.0 uK") and headline == {}

    out.write_text("not,a\nsweep\n")
    failure, _ = run.judge(command, out)
    assert failure is not None

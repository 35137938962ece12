"""Cold-CLI benchmark of rydvdw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A workload is a study a user
runs as a sequence of ``rydvdw`` commands; the benchmark repeats it for
``--seconds`` seconds.  Each command runs in a fresh interpreter
(``child.py``), one after another, because every CLI user pays a cold
start and a process that stays up would reward caches no user sees.
The package is imported from ``src/`` of the checkout; this process
never imports it, and uses the standard library only.

Workloads (configs are generated from ``--seed``):

* ``budget_reference``: ``fidelity`` on ``configs/reference_cz.json``
  with the Monte Carlo seed set to ``--seed``: the paper's error budget
  (fidelity table, grid series, 1e6-sample MC, exposure).
* ``design_scan``: ``solve``, ``simulate``, an omega sweep for CZ at a
  seed-drawn theta, one for CNOT, and a separation sweep.  Many
  protocols at one interaction each; no table, grid or Monte Carlo.
* ``thermal_scan``: a temperature sweep at grid step 0.05: one table,
  then the paired grid once per temperature.

With ``--trace 0`` it reports the end-to-end metrics of untraced runs:
``study_s``, the wall time from spawning a study's first command to its
last output being written (median over the studies of the run);
``setup_s``, the time from spawn until ``rydvdw.cli`` is imported and
the config loaded (median over all commands); ``peak_rss_mb``, the
largest max-RSS of a study's commands (median over studies).  Both times
are scaled to a reference machine speed: a fixed probe (``probe.py``)
runs before and after every study, and a study's times are multiplied
by ``PROBE_REFERENCE_S`` over the mean wall time of its two probes.  On a
shared host the speed of the machine drifts by up to 2x over minutes;
the probe never imports rydvdw, so the scaling removes that drift but
not a change to the package.  The raw wall times are in the report.  ``failed_ratio``, commands
that exit non-zero or fail their check over commands attempted, is
printed in the report and carried by ``failed``/``attempted``.

With ``--trace 1`` it alternates untraced and traced studies; a traced
command wraps every public function of the package and the per-layer
metrics are counts and self times of those spans (``spans.py``).

The last line of stdout is one JSON object; the lines above it are a
readable report with the headline values and the machine facts.  Each
run leaves its configs, outputs, logs and per-study timings
(``studies.json``) in ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from spans import layer_metrics, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

#: A run must end within 180 s; no command may run past this share of it.
RUN_DEADLINE_S = 170.0
#: Busy time before the first timed command.  On a shared virtual machine
#: whose cores were idle, multi-threaded BLAS calls run several times
#: slower for about the first second of load, which would make the first
#: study of every run an outlier.
WARMUP_S = 2.0
#: Wall time of ``probe.py`` at the reference machine speed: about its
#: wall time on a quiet 2-vCPU x86-64 host.  It only sets the unit.
PROBE_REFERENCE_S = 1.25

OMEGA_SWEEP = {"axis": "omega", "start": 0.5, "stop": 5.0, "points": 25}
SEPARATION_SWEEP = {"axis": "separation", "start": 15.0, "stop": 30.0, "points": 401}
TEMPERATURE_SWEEP = {"axis": "temperature", "start": 2.0, "stop": 32.0, "points": 16}
REFERENCE_POINT = {
    "gate": {"kind": "cz", "theta_rad": math.pi},
    "drive": {"omega_control_mhz": 0.8, "omega_target_mhz": 0.8},
    "vdw": {"c6_thz_um6": 39.5},
    "noise": {"sigma_z0_um": 1.47, "sigma_perp0_um": 0.27, "rydberg_lifetime_ms": 0.311},
}
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Command:
    """One CLI command of a workload, with the check its output must pass."""

    label: str
    command: str
    config: dict
    check: Callable[[str], dict]


@dataclass
class Outcome:
    """What one command did, as seen from the benchmark process."""

    label: str
    spawned: float
    ended: float
    setup_s: float | None = None
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    failure: str | None = None
    headline: dict = field(default_factory=dict)
    spans: list | None = None


@dataclass
class Study:
    traced: bool
    outcomes: list[Outcome]
    #: Wall times of the probe run just before and just after the study.
    probes: tuple[float, float] | None = None

    @property
    def wall_s(self) -> float:
        return self.outcomes[-1].ended - self.outcomes[0].spawned

    @property
    def scale(self) -> float:
        """Factor that brings this study's times to the reference machine speed."""
        return PROBE_REFERENCE_S / statistics.fmean(self.probes)


def budget_reference(seed: int) -> list[Command]:
    config = json.loads((ROOT / "configs" / "reference_cz.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    return [Command("fidelity", "fidelity", config, checks.check_budget)]


def design_scan(seed: int) -> list[Command]:
    theta = random.Random(seed).uniform(0.5 * math.pi, 1.5 * math.pi)
    cz = {**REFERENCE_POINT, "gate": {"kind": "cz", "theta_rad": theta}}
    omega_rows = partial(checks.check_omega_rows, points=OMEGA_SWEEP["points"])
    return [
        Command("solve", "solve", cz, partial(checks.check_solve, theta=theta)),
        Command("simulate", "simulate", cz, checks.check_simulate),
        Command("omega_cz", "sweep", {**cz, "sweep": OMEGA_SWEEP}, omega_rows),
        Command(
            "omega_cnot", "sweep",
            {**REFERENCE_POINT, "gate": {"kind": "cnot", "theta_rad": math.pi},
             "sweep": OMEGA_SWEEP},
            omega_rows,
        ),
        Command(
            "separation", "sweep", {**cz, "sweep": SEPARATION_SWEEP},
            partial(checks.check_separation_rows, points=SEPARATION_SWEEP["points"]),
        ),
    ]


def thermal_scan(seed: int) -> list[Command]:
    config = {**REFERENCE_POINT, "sampling": {"deltas": [0.05]}, "sweep": TEMPERATURE_SWEEP}
    return [Command("temperature", "sweep", config, checks.check_thermal_rows)]


WORKLOADS = {
    "budget_reference": budget_reference,
    "design_scan": design_scan,
    "thermal_scan": thermal_scan,
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``, killing it after ``timeout`` s; returns its rusage."""

    def kill(signum, frame):
        os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def spawn(argv: list[str], log: Path, timeout: float):
    """Run one child to completion; returns (spawn time, exit code, rusage)."""
    with open(log, "w", encoding="utf-8") as handle:
        spawned = now()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT
        )
        try:
            usage = reap(proc, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return spawned, proc.returncode, usage


def judge(command: Command, path: Path) -> tuple[str | None, dict]:
    """Run a command's check on its output: (failure reason or None, headline)."""
    try:
        return None, command.check(path.read_text(encoding="utf-8"))
    except Exception as exc:  # any defect in the output fails this command only
        return f"{type(exc).__name__}: {exc}", {}


def base_path(index: int, command: Command) -> Path:
    """Stem of the files of one command: config, output, log, timings, spans."""
    return WORK / f"{index}_{command.label}"


def run_command(command: Command, index: int, traced: bool, deadline: float) -> Outcome:
    """Spawn one command and read its timestamps; checks come after the study."""
    base = base_path(index, command)
    for suffix in (".out", ".timings.json", ".spans.json"):
        base.with_suffix(suffix).unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), command.command,
            str(base.with_suffix(".json")), str(base.with_suffix(".out")),
            str(base.with_suffix(".timings.json"))]
    if traced:
        argv += ["--trace", str(base.with_suffix(".spans.json")),
                 "--command-id", str(index)]
    spawned, code, usage = spawn(argv, base.with_suffix(".log"), deadline - now())
    outcome = Outcome(command.label, spawned, now(),
                      cpu_s=usage.ru_utime + usage.ru_stime, maxrss_mb=usage.ru_maxrss / 1024.0)
    timings = base.with_suffix(".timings.json")
    record = json.loads(timings.read_text(encoding="utf-8")) if timings.exists() else {}
    stamps = record.get("stamps", {})
    if "loaded" in stamps:
        outcome.setup_s = stamps["loaded"] - spawned
    outcome.ended = stamps.get("written", outcome.ended)
    if code != 0:
        log = base.with_suffix(".log").read_text(encoding="utf-8", errors="replace")
        outcome.failure = f"exit code {code}: {log.strip()[-300:]}"
    elif not Path(str(record.get("rydvdw"))).is_relative_to(ROOT / "src"):
        outcome.failure = f"imported rydvdw from {record.get('rydvdw')}, not {ROOT / 'src'}"
    return outcome


def evaluate(command: Command, index: int, outcome: Outcome, traced: bool) -> None:
    """Check a finished command's output and load its spans."""
    base = base_path(index, command)
    if outcome.failure is None:
        outcome.failure, outcome.headline = judge(command, base.with_suffix(".out"))
    if traced and base.with_suffix(".spans.json").exists():
        outcome.spans = json.loads(base.with_suffix(".spans.json").read_text(encoding="utf-8"))
    if outcome.failure:
        print(f"perfbench: {command.label} failed: {outcome.failure}", file=sys.stderr)


def probe(deadline: float) -> float:
    """Wall time of one run of ``probe.py``."""
    spawned, code, _ = spawn([sys.executable, str(HERE / "probe.py")], WORK / "probe.log",
                             deadline - now())
    ended = now()
    if code != 0:
        sys.exit(f"perfbench: probe failed (exit code {code}):\n{(WORK / 'probe.log').read_text()}")
    return ended - spawned


def measure(commands: list[Command], seconds: float, trace: bool, deadline: float) -> list[Study]:
    """Repeat the workload's study until ``seconds`` would be exceeded.

    With ``trace`` the studies alternate untraced and traced, starting
    untraced, and there is at least one of each.  Without it the probe
    runs between studies.  Outputs are checked after each study, so
    checking is not timed.
    """
    start = now()
    studies: list[Study] = []
    laps: list[float] = []
    before = None if trace else probe(deadline)
    for traced in itertools.cycle([False, True] if trace else [False]):
        lap = now()
        study = Study(traced, [
            run_command(command, index, traced, deadline) for index, command in enumerate(commands)
        ])
        if not trace:
            after = probe(deadline)
            study.probes, before = (before, after), after
        for index, (command, outcome) in enumerate(zip(commands, study.outcomes)):
            evaluate(command, index, outcome, traced)
        studies.append(study)
        laps.append(now() - lap)
        elapsed = now() - start
        typical = max(laps[-2:])
        enough = len(studies) >= (2 if trace else 1)
        if enough and (elapsed + typical > seconds or now() + typical > deadline):
            return studies


def warm_up(deadline: float) -> None:
    argv = [sys.executable, str(HERE / "child.py"), "warmup",
            str(ROOT / "configs" / "reference_cz.json"), str(WARMUP_S)]
    log = WORK / "warmup.log"
    _, code, _ = spawn(argv, log, deadline - now())
    if code != 0:
        sys.exit(f"perfbench: warm-up failed (exit code {code}):\n{log.read_text()}")


def fastest(studies: list[Study]) -> float:
    """Wall time of the fastest study.

    On a shared machine interference only adds time, and it comes in
    bursts, so the fastest of alternating traced and untraced studies
    compares the two best.
    """
    return min(study.wall_s for study in studies)


def end_to_end(studies: list[Study]) -> dict[str, float]:
    setups = [o.setup_s * s.scale for s in studies for o in s.outcomes if o.setup_s is not None]
    return {
        "study_s": statistics.median(s.wall_s * s.scale for s in studies),
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": statistics.median(
            max(o.maxrss_mb for o in study.outcomes) for study in studies
        ),
    }


def per_layer(studies: list[Study]) -> dict[str, float]:
    untraced = [s for s in studies if not s.traced]
    traced = [s for s in studies if s.traced]
    per_study = [layer_metrics([o.spans or [] for o in s.outcomes]) for s in traced]
    # median_low: an observed value, so counts stay whole numbers
    metrics = {name: statistics.median_low(m[name] for m in per_study) for name in per_study[0]}
    metrics["cli.cpu_s"] = statistics.median_low(
        sum(o.cpu_s for o in s.outcomes) for s in untraced
    )
    metrics["trace.overhead_ratio"] = fastest(traced) / fastest(untraced)
    return metrics


def result_line(metrics: dict[str, float], specs: list[dict], attempted: int, failed: int) -> dict:
    """The final JSON object: every metric of ``specs``, by name with its unit."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "git_commit": git_commit(),
    }


def report(args, studies: list[Study], metrics: dict, specs: list[dict], failed_ratio: float):
    traced = sum(study.traced for study in studies)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{len(studies) - traced} untraced and {traced} traced studies")
    for spec in specs:
        print(f"  {spec['name']:32s} {metrics[spec['name']]!r:>24} {spec['unit']}")
    print(f"  {'failed_ratio':32s} {failed_ratio!r:>24} ratio")
    for traced in (False, True):
        walls = sorted(round(s.wall_s, 4) for s in studies if s.traced == traced)
        if walls:
            print(f"{'traced' if traced else 'untraced'} study wall times (s): {walls}")
    probes = [round(p, 4) for s in studies if s.probes for p in s.probes[:1]] + [
        round(s.probes[1], 4) for s in studies[-1:] if s.probes]
    if probes:
        print(f"probe wall times (s), reference {PROBE_REFERENCE_S}: {probes}")
    headline = {o.label: o.headline for o in studies[-1].outcomes}
    print("headline: " + json.dumps(headline, sort_keys=True))
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Cold-CLI benchmark of rydvdw.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    deadline = now() + RUN_DEADLINE_S
    for required in ("src/rydvdw/cli.py", "configs/reference_cz.json", "BENCHMARK.json"):
        if not (ROOT / required).is_file():
            sys.exit(f"perfbench: {required} not found; run from a rydvdw source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    commands = WORKLOADS[args.workload](args.seed)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for index, command in enumerate(commands):
        config = base_path(index, command).with_suffix(".json")
        config.write_text(json.dumps(command.config, indent=2), encoding="utf-8")
    warm_up(deadline)

    studies = measure(commands, args.seconds, bool(args.trace), deadline)
    outcomes = [o for study in studies for o in study.outcomes]
    raw = [{"traced": s.traced, "wall_s": s.wall_s, "probes": s.probes,
            "commands": [{k: v for k, v in vars(o).items() if k != "spans"} for o in s.outcomes]}
           for s in studies]
    (WORK / "studies.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    failed = sum(o.failure is not None for o in outcomes)
    metrics = per_layer(studies) if args.trace else end_to_end(studies)
    report(args, studies, metrics, specs, failed / len(outcomes))
    print(json.dumps(result_line(metrics, specs, len(outcomes), failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

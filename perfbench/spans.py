"""Spans: recording them inside a traced command, and turning them into
per-layer metrics in the benchmark process.

A span is ``[name, start, end, parent, command, work, key]``: the
wrapped function's name (``<module>.<qualname>``, so the module is the
layer), monotonic start and end in seconds, the index of the enclosing
span or ``None``, the command's id within its study, an optional work
size (points tabulated, distances looked up, samples drawn) and an
optional key that identifies the inputs (used to count repeated work).

This module is stdlib only; the command side imports numpy lazily,
after the package under test has already imported it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, COMMAND, WORK, KEY = range(7)

#: Dunder methods worth a span; other dunders are plumbing.
TRACED_DUNDERS = ("__init__", "__call__")


def now() -> float:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _exposure_key(args, kwargs, result):
    protocol = args[0]
    interaction = args[1] if len(args) > 1 else kwargs.get("interaction")
    if interaction is None:
        interaction = protocol.nominal_interaction
    return hash((repr(protocol), float(interaction)))


def _lookup_size(args, kwargs, result):
    import numpy

    return int(numpy.size(args[1]))


#: Per-function hooks that record the work size or input key of a call.
WORK_HOOKS = {
    "noise.FidelityTable.__init__": lambda args, kwargs, result: len(args[0].distances),
    "noise.FidelityTable.__call__": _lookup_size,
    "noise.monte_carlo_average_fidelity": lambda args, kwargs, result: result.sample_count,
}
KEY_HOOKS = {"protocol.rydberg_exposure": _exposure_key}


class Tracer:
    """Wraps the public functions of a package and records one span per call."""

    def __init__(self, command: int):
        self.command = command
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), None, parent, self.command, None, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = now()
        self._stack.pop()

    def wrap(self, name: str, func):
        work, key = WORK_HOOKS.get(name), KEY_HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if work is not None:
                self.spans[index][WORK] = work(args, kwargs, result)
            if key is not None:
                self.spans[index][KEY] = key(args, kwargs, result)
            return result

        return traced

    def install(self, package: str) -> int:
        """Wrap every public function and method of the imported modules of
        ``package``, at every module-level name it is bound to.

        ``from .gates import extract_gate_matrix`` binds the same function
        in ``noise`` and ``cli``; all those names get the one wrapper, so a
        call is traced whichever name it goes through.  Returns the number
        of functions wrapped.
        """
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        return len(wrappers)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and (
                attr not in TRACED_DUNDERS or dataclasses.is_dataclass(cls)
            ):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][START]):
            lo, hi = max(spans[child][START], reach), min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-layer counts and self times of one study, from each command's spans."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    work = defaultdict(int)
    layer_s = defaultdict(float)
    distinct_exposures = 0
    direct_evals = grid_points = 0
    mc_inclusive_s = 0.0
    grid = {"noise.grid_average_fidelity", "noise.grid_convergence"}
    for spans in commands:
        exposure_keys = set()
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            calls[name] += 1
            self_s[name] += own
            layer_s[name.partition(".")[0]] += own
            if span[WORK] is not None:
                work[name] += span[WORK]
            if span[KEY] is not None:
                exposure_keys.add(span[KEY])
            parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else None
            if name == "noise.FidelityTable.evaluate" and parent != "noise.FidelityTable.__init__":
                direct_evals += 1
            if name == "noise.FidelityTable.__call__" and parent in grid:
                grid_points += span[WORK]
            if name == "noise.monte_carlo_average_fidelity":
                mc_inclusive_s += span[END] - span[START]
        distinct_exposures += len(exposure_keys)
    lookups = work["noise.FidelityTable.__call__"]
    mc_samples = work["noise.monte_carlo_average_fidelity"]
    return {
        "cli.import_s": self_s["cli.import"],
        "cli.run_s": sum(v for k, v in self_s.items() if k.startswith("cli.run_")),
        "config.load_s": layer_s["config"],
        "records.serialize_s": layer_s["records"],
        "protocol.exposure_calls": calls["protocol.rydberg_exposure"],
        "protocol.exposure_s": self_s["protocol.rydberg_exposure"],
        "protocol.exposure_useful_ratio": _ratio(
            distinct_exposures, calls["protocol.rydberg_exposure"]
        ),
        "dynamics.hamiltonian_calls": calls["dynamics.build_hamiltonian"],
        "dynamics.hamiltonian_s": self_s["dynamics.build_hamiltonian"],
        "dynamics.propagator_calls": calls["dynamics.exponentiate"],
        "dynamics.propagator_s": self_s["dynamics.exponentiate"],
        "dynamics.exposure_integral_s": self_s["dynamics.rydberg_exposure_integral"],
        "gates.extract_calls": calls["gates.extract_gate_matrix"],
        "gates.extract_s": self_s["gates.extract_gate_matrix"],
        "gates.fidelity_s": self_s["gates.pedersen_fidelity"],
        "geometry.interaction_calls": calls["geometry.vdw_interaction"],
        "noise.table_builds": calls["noise.FidelityTable.__init__"],
        "noise.table_points": work["noise.FidelityTable.__init__"],
        "noise.table_build_s": self_s["noise.FidelityTable.__init__"],
        "noise.table_lookups": lookups,
        "noise.table_lookup_s": self_s["noise.FidelityTable.__call__"],
        "noise.direct_evals": direct_evals,
        "noise.table_hit_ratio": _ratio(lookups - direct_evals, lookups),
        "noise.grid_calls": sum(calls[name] for name in grid),
        "noise.grid_points": grid_points,
        "noise.grid_s": sum(self_s[name] for name in grid),
        "noise.mc_samples": mc_samples,
        "noise.mc_s": self_s["noise.monte_carlo_average_fidelity"],
        "noise.mc_samples_per_s": _ratio(mc_samples, mc_inclusive_s),
    }

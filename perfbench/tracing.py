"""Span recording around qcoremap's public functions, from outside the package.

Each hook replaces one function binding (the name a caller module looks up
at call time) with a wrapper that records a span: name, start, end, parent
span and the benchmark's current instance id. ``Patches.restore`` puts every
original binding back. A hook whose target no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import tracemalloc
from time import perf_counter

import numpy as np

MB = 1024.0 * 1024.0


class Patches:
    """Replaced attribute bindings, restored in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make_wrapper, label: str) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def resolve(module: str, attr: str):
    """Return (owner, final attribute) for 'Class.method' style paths, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, last


def _gates(args, kwargs, result):
    return len(result.gates)


def _cells(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["costs"])
    return int(shape[0] * shape[1])


def _ops(args, kwargs, result):
    aux = sum(1 for op in result if op.auxiliary)
    return [len(result) - aux, aux]


def _changed(args, kwargs, result):
    initial = args[1] if len(args) > 1 else kwargs["initial"]
    return int(not np.array_equal(np.asarray(result), np.asarray(initial)))


# (span name, measure on return, [(module, attribute), ...]). Every module
# that imports a function by name holds its own binding, so each is listed.
HOOKS = [
    ("generators.build", _gates, [("qcoremap.generators", "BenchmarkSpec.build")]),
    ("qasm.parse", None, [("qcoremap.qasm", "parse_qasm")]),
    ("circuit.timeslice", None, [
        ("qcoremap.circuit", "timeslice"), ("qcoremap.hqa", "timeslice"),
        ("qcoremap.fgp", "timeslice"), ("qcoremap.harness", "timeslice"),
        ("qcoremap.oracle", "timeslice"),
    ]),
    ("lookahead.window", None, [("qcoremap.hqa", "window_matrix"), ("qcoremap.fgp", "window_matrix")]),
    ("hungarian.solve", _cells, [("qcoremap.hqa", "solve")]),
    ("hqa.map", None, [("qcoremap.hqa", "map_circuit"), ("qcoremap.harness", "map_circuit")]),
    ("hqa.step", None, [("qcoremap.hqa", "hqa_step")]),
    ("hqa.parity_fix", _ops, [("qcoremap.hqa", "parity_fix")]),
    ("fgp.map", None, [("qcoremap.fgp", "fgp_map_circuit"), ("qcoremap.harness", "fgp_map_circuit")]),
    ("fgp.refine", _changed, [("qcoremap.fgp", "roee_refine")]),
    ("assignment.validate", None, [
        ("qcoremap.assignment", "validate_path"), ("qcoremap.harness", "validate_path"),
    ]),
    ("assignment.count", None, [
        ("qcoremap.assignment", "count_communications"),
        ("qcoremap.harness", "count_communications"),
    ]),
    ("oracle.solve", None, [("qcoremap.oracle", "minimum_communications")]),
    ("harness.sweep", None, [("qcoremap.harness", "sweep_cores")]),
    ("harness.run", None, [("qcoremap.harness", "run_single")]),
]

# Spans whose allocations are measured with tracemalloc, one call at a time.
MEMORY_SPANS = {"oracle.solve"}


class Tracer:
    """In-memory span log. A span is [name, start, end, parent, instance, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None
        self.patches = Patches()

    def install(self) -> None:
        for name, measure, targets in HOOKS:
            for module, attr in targets:
                found = resolve(module, attr)
                label = f"{module}.{attr}"
                if found is None:
                    self.patches.missing.append(label)
                    continue
                self.patches.replace(*found, self._wrapper_factory(name, measure), label)

    def remove(self) -> None:
        self.patches.restore()

    @property
    def missing(self) -> list[str]:
        return self.patches.missing

    def _wrapper_factory(self, name, measure):
        memory = name in MEMORY_SPANS

        def make(original):
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.instance, None]
                self.spans.append(span)
                self.stack.append(index)
                if memory:
                    tracemalloc.start()
                span[1] = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    span[5] = f"raised {type(exc).__name__}"
                    raise
                finally:
                    span[2] = perf_counter()
                    self.stack.pop()
                    if memory:
                        span.append(tracemalloc.get_traced_memory()[1] / MB)
                        tracemalloc.stop()
                if measure is not None:
                    span[5] = measure(args, kwargs, result)
                return result

            return wrapper

        return make

    def write(self, path, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps(dict(header, missing_layers=self.missing)) + "\n")
            for name, start, end, parent, instance, extra, *rest in self.spans:
                doc = {
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "instance": instance,
                }
                if extra is not None:
                    doc["extra"] = extra
                if rest:
                    doc["peak_alloc_mb"] = rest[0]
                out.write(json.dumps(doc) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy time, call counts and ratios from one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, list] = {}
    peak_alloc = 0.0
    for index, (name, start, end, _parent, _instance, extra, *rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child_time[index])
        calls[name] = calls.get(name, 0) + 1
        if extra is not None and not isinstance(extra, str):
            extras.setdefault(name, []).append(extra)
        if rest:
            peak_alloc = max(peak_alloc, rest[0])

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls.get("hungarian.solve", 0)
    repaired = calls.get("hqa.parity_fix", 0)
    mapper_calls = calls.get("hqa.map", 0) + calls.get("fgp.map", 0)
    ops = extras.get("hqa.parity_fix", [])
    return {
        "generators.build_s": total.get("generators.build", 0.0),
        "generators.gates": float(sum(extras.get("generators.build", []))),
        "qasm.parse_s": total.get("qasm.parse", 0.0),
        "circuit.timeslice_s": total.get("circuit.timeslice", 0.0),
        "circuit.timeslice_calls": float(calls.get("circuit.timeslice", 0)),
        "circuit.timeslice_per_instance": ratio(calls.get("circuit.timeslice", 0), mapper_calls),
        "lookahead.window_s": total.get("lookahead.window", 0.0),
        "lookahead.window_calls": float(calls.get("lookahead.window", 0)),
        "hungarian.solve_s": total.get("hungarian.solve", 0.0),
        "hungarian.solve_calls": float(solves),
        "hungarian.cells_mean": ratio(sum(extras.get("hungarian.solve", [])), solves),
        "hqa.step_self_s": own.get("hqa.step", 0.0) + own.get("hqa.parity_fix", 0.0),
        "hqa.steps": float(calls.get("hqa.step", 0)),
        "hqa.ops": float(sum(primary for primary, _ in ops)),
        "hqa.aux_ops": float(sum(aux for _, aux in ops)),
        "hqa.rounds_per_step": ratio(solves, repaired),
        "fgp.refine_s": total.get("fgp.refine", 0.0),
        "fgp.refine_calls": float(calls.get("fgp.refine", 0)),
        "fgp.refine_changed_frac": ratio(
            sum(extras.get("fgp.refine", [])), calls.get("fgp.refine", 0)
        ),
        "assignment.validate_s": total.get("assignment.validate", 0.0),
        "oracle.solve_s": total.get("oracle.solve", 0.0),
        "oracle.calls": float(calls.get("oracle.solve", 0)),
        "oracle.peak_alloc_mb": peak_alloc,
        "harness.self_s": own.get("harness.sweep", 0.0) + own.get("harness.run", 0.0),
    }

"""The benchmark's view of the package: every traced name resolves, every
call the workloads make still binds, and the environment record still builds.

perfbench/ is not a package, so its modules are loaded by file path. Each is
registered in sys.modules before it runs, as dataclasses need to find the
module of the class they decorate.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from qcoremap import INFINITE, Architecture, fgp, gen_random, harness, hqa, map_circuit

ROOT = Path(__file__).resolve().parent.parent


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
run = load("perfbench_run", ROOT / "perfbench" / "run.py")


def test_every_hook_resolves_and_is_removed():
    original = getattr(fgp, "roee_refine", None)
    split = np.zeros((4, 4))
    split[0, 2] = split[2, 0] = INFINITE
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert fgp.roee_refine is not original
        fgp.roee_refine(split, [0, 0, 1, 1])
        fgp.roee_refine(np.zeros((4, 4)), [0, 0, 1, 1])
    finally:
        tracer.remove()
    assert fgp.roee_refine is original
    # The fgp.refine measure reads the initial partition as the second argument.
    assert [span[5] for span in tracer.spans if span[0] == "fgp.refine"] == [1, 0]


def test_solve_spans_measure_hqa_matrices(monkeypatch):
    # hungarian.solve_s, solve_calls and cells_mean come from the spans of
    # qcoremap.hqa.solve; each span's cells must be the r x k of the nested
    # list hqa hands it, or those metrics read 0 with no error.
    matrices = []
    solve = hqa.solve
    monkeypatch.setattr(hqa, "solve", lambda cost: matrices.append(cost) or solve(cost))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        map_circuit(gen_random(24, cycles=8, p=0.5, seed=3), Architecture(4, 6))
    finally:
        tracer.remove()
    cells = [span[5] for span in tracer.spans if span[0] == "hungarian.solve"]
    assert cells
    assert all(isinstance(m, list) and isinstance(m[0], list) for m in matrices)
    assert cells == [len(m) * len(m[0]) for m in matrices]


def test_sweep_probes_see_every_run(monkeypatch):
    # sweep-cores' probes wrap harness's run_single and its two mapper
    # bindings; a run whose mapper call bypasses them leaves its probe
    # without a path, and the pass reports an error.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    monkeypatch.setattr(workloads.SweepCores, "QUBITS", 12)
    monkeypatch.setattr(workloads.SweepCores, "CORE_COUNTS", (2, 6))
    result = workloads.SweepCores(1).run_pass(None)
    assert len(result.calls) == 8 * 2 * 2  # default benchmarks x cores x mappers
    assert result.errors == []
    assert [c for c in result.calls if c.failed] == []


def test_environment_record_builds():
    assert run.environment()["numba_enabled"] is False


def test_workload_calls_still_bind(monkeypatch):
    # The workloads import their sibling modules by plain name.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    # tiny-exact calls both mappers (with their config objects) and the oracle.
    tiny = workloads.TinyExact(1)
    inputs = tiny.setup()
    tiny.prepare(inputs)
    result = tiny.run_pass(inputs)
    assert result.calls
    assert result.errors == []
    assert [c for c in result.calls if c.failed] == []
    # sweep-cores enters through harness.sweep_cores with these keywords.
    sweep = workloads.SweepCores
    inspect.signature(harness.sweep_cores).bind(
        num_qubits=sweep.QUBITS, core_counts=sweep.CORE_COUNTS, replicas=1, seed=1
    )
    # sweep-cores wraps these three bindings of the harness.
    for name in ("run_single", "map_circuit", "fgp_map_circuit"):
        assert callable(getattr(harness, name))
    # map-hqa parses, slices and maps, then calls validate_path and
    # count_communications itself; a ghz and a random input cover both calls.
    map_hqa = workloads.MapHqa(1)
    inputs = [i for i in map_hqa.setup() if i.instance.endswith("q120@10")]
    inputs = [inputs[0], inputs[-1]]
    assert [i.instance.split(":")[0] for i in inputs] == ["ghz", "random"]
    map_hqa.prepare(inputs)
    result = map_hqa.run_pass(inputs)
    assert len(result.calls) == 2
    assert result.errors == []
    assert [c for c in result.calls if c.failed] == []

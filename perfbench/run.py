"""qcoremap benchmark: one workload, untraced (end-to-end) or traced (per layer).

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-cores --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment and run details. A result file with one row per
instance, and for traced runs the spans, go to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_REPEATS = 3


def _import_program() -> float:
    """Import qcoremap from this checkout's src/ and return the time taken."""
    src = ROOT / "src"
    if not (src / "qcoremap" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcoremap package under {src.name}/ in this checkout")
    started = perf_counter()
    sys.path.insert(0, str(src))
    import qcoremap

    elapsed = perf_counter() - started
    if Path(qcoremap.__file__).resolve().parent != (src / "qcoremap").resolve():
        raise SystemExit("error: qcoremap was imported from outside this checkout")
    return elapsed


def _source_digest() -> str:
    """Hash of the program and benchmark sources, which fix every output."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcoremap").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    from qcoremap import _jit

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_enabled": bool(_jit.NUMBA_ENABLED),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def check_repeatable(name: str, seed: int, env: dict, digest: str) -> str | None:
    """Compare this run's digest with an earlier run of the same code and seed."""
    key = f"{name}-s{seed}-{env['source_digest']}-numba{int(env['numba_enabled'])}"
    path = OUT / f"digest-{key}.txt"
    if not path.exists():
        path.write_text(digest + "\n")
        return None
    earlier = path.read_text().strip()
    return None if earlier == digest else f"digest {digest} differs from an earlier run's {earlier}"


@dataclass
class Outcome:
    passes: list  # every PassResult of the run; all must agree on the digest
    counted: list  # the mapper calls behind ``attempted`` and ``failed``
    metrics: dict[str, float]
    details: dict
    rows: list[dict]  # one per mapper call of the last pass


def _rows(passes) -> list[dict]:
    """One row per (instance, mapper): result and median latency over the passes."""
    latencies: dict[tuple, list[float]] = {}
    for p in passes:
        for call, ms in zip(p.calls, p.latencies_ms()):
            latencies.setdefault((call.instance, call.mapper), []).append(ms)
    return [
        {
            "instance": c.instance,
            "mapper": c.mapper,
            "comms": c.comms,
            "problem": c.problem,
            "ms": statistics.median(latencies[(c.instance, c.mapper)]),
        }
        for c in passes[-1].calls
    ]


def untraced(workload, seconds: float, import_s: float) -> Outcome:
    from calibrate import Clock

    setup_clock = Clock()
    for _ in range(SETUP_REPEATS):
        inputs = workload.setup()
        setup_clock.mark()
    setups = [seg * setup_clock.scale(i) for i, seg in enumerate(setup_clock.segments)]
    workload.prepare(inputs)
    passes, durations = [], []
    started = perf_counter()
    while True:  # stop before a pass that would end after ``seconds``
        passes.append(workload.run_pass(inputs))
        durations.append(perf_counter() - started - sum(durations))
        if perf_counter() - started + statistics.median(durations) > seconds:
            break
    walls = [p.wall_s for p in passes]
    calls = [c for p in passes for c in p.calls]
    rows = _rows(passes)
    latencies = [row["ms"] for row in rows]
    failed_frac = sum(c.failed for c in calls) / len(calls)
    metrics = {
        "wall_s": statistics.median(walls),
        "map_ms_p50": percentile(latencies, 0.5),
        "comms": float(sum(row["comms"] or 0 for row in rows)),
        "ok_frac": 1.0 - failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s * setup_clock.scale(0) + statistics.median(setups),
    }
    by_mapper = _comms_by_mapper(passes[-1].calls)
    details = {
        # Reported, not bounded: zero where a workload has no such work, and
        # p90 rests on fewer than 100 instances except on tiny-exact.
        "report": {
            "map_ms_p90": {"value": percentile(latencies, 0.9), "unit": "ms", "instances": len(rows)},
            "failed_frac": {"value": failed_frac, "unit": "ratio"},
            "comms_hqa": {"value": by_mapper["hqa"], "unit": "count"},
            "comms_fgp": {"value": by_mapper["fgp"], "unit": "count"},
        },
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [p.clock.raw_s() for p in passes],
        "pass_speed": [p.clock.speed() for p in passes],
        "setup_raw_s": setup_clock.segments,
        "import_raw_s": import_s,
        "failures": _failure_counts(calls),
    }
    return Outcome(passes, calls, metrics, details, rows)


def traced(workload, trace_file: Path, header: dict) -> Outcome:
    from tracing import Tracer, layer_metrics

    inputs = workload.setup()
    workload.prepare(inputs)
    base = workload.run_pass(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.instance = "setup"
        workload.setup()
        tracer.instance = None
        run = workload.run_pass(inputs, tracer)
    finally:
        tracer.remove()
    tracer.write(trace_file, header)
    metrics = layer_metrics(tracer.spans)
    comms = _comms_by_mapper(run.calls)
    for mapper in ("hqa", "fgp"):
        calls = [c for c in run.calls if c.mapper == mapper]
        metrics[f"{mapper}.attempted"] = float(len(calls))
        metrics[f"{mapper}.failed"] = float(sum(c.failed for c in calls))
        metrics[f"{mapper}.comms"] = float(comms[mapper])
        metrics[f"{mapper}.opt_ratio"] = float(run.extra.get(f"{mapper}_opt_ratio", 0.0))
    metrics["oracle.skipped"] = float(run.extra.get("oracle_skipped", 0))
    metrics["harness.fgp_over_hqa_geomean"] = float(run.extra.get("fgp_over_hqa_geomean", 0.0))
    metrics["trace.overhead_s"] = run.wall_s - base.wall_s
    details = {
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": run.wall_s,
        "speed": [base.clock.speed(), run.clock.speed()],
        "spans": len(tracer.spans),
        "missing_layers": tracer.missing,
        "failures": _failure_counts(run.calls),
    }
    return Outcome([base, run], run.calls, metrics, details, _rows([run]))


def _comms_by_mapper(calls) -> dict[str, int]:
    out = {"hqa": 0, "fgp": 0}
    for c in calls:
        out[c.mapper] += c.comms or 0
    return out


def _failure_counts(calls) -> dict[str, int]:
    out: dict[str, int] = {}
    for c in calls:
        if c.failed:
            label = f"{c.mapper}: {c.problem.split(':')[0]}"
            out[label] = out.get(label, 0) + 1
    return out


def _declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units from BENCHMARK.json for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def main(argv=None) -> int:
    from importlib import import_module

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    workloads = import_module("workloads").WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload '{args.workload}', choose from {sorted(workloads)}")
    workload = workloads[args.workload](args.seed)
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)

    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        outcome = traced(workload, trace_file, {"env": env, "workload": args.workload})
    else:
        outcome = untraced(workload, args.seconds, import_s)

    errors = [e for p in outcome.passes for e in p.errors]
    digests = sorted({p.digest() for p in outcome.passes})
    if len(digests) > 1:
        errors.append(f"per-instance relocation digests differ between passes: {digests}")
    repeat_error = check_repeatable(args.workload, args.seed, env, digests[0])
    if repeat_error:
        errors.append(repeat_error)
    details = dict(outcome.details, digest=digests[0], errors=errors[:20], error_count=len(errors))
    result = {
        "correct": not errors,
        "attempted": len(outcome.counted),
        "failed": sum(c.failed for c in outcome.counted),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in _declared_metrics(args.trace).items()
        },
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "details": details, "result": result, "instances": outcome.rows})
        + "\n"
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

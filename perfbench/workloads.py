"""The three benchmark workloads.

Each workload draws its inputs from the seed in ``setup`` and runs one pass
over them in ``run_pass``. A pass returns every mapper entry call it made,
with the call's latency and either the relocation count recounted by
``checker`` or the reason the call failed. qcoremap functions are always
looked up on their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

from qcoremap import assignment, circuit, fgp, generators, harness, hqa, oracle, qasm

import checker
from calibrate import ARRAY, Clock
from tracing import Patches

HQA = "hqa"
FGP = "fgp"


@dataclass
class Call:
    """One mapper entry call (map_circuit or fgp_map_circuit)."""

    instance: str
    mapper: str
    ms: float
    comms: int | None = None
    problem: str | None = None
    segment: int = 0  # the pass clock's segment holding this call

    @property
    def failed(self) -> bool:
        return self.problem is not None


@dataclass
class PassResult:
    clock: Clock
    calls: list[Call]
    errors: list[str] = field(default_factory=list)  # wrong outputs or verdicts
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.clock.scaled_s()

    def latencies_ms(self) -> list[float]:
        return [c.ms * self.clock.scale(c.segment) for c in self.calls]

    def digest(self) -> str:
        return checker.digest((c.instance, c.mapper, c.comms, c.problem) for c in self.calls)


def _reference(circ) -> tuple[int, list]:
    gates = [tuple(g.qubits) for g in circ.gates]
    return circ.num_qubits, checker.asap_layers(circ.num_qubits, gates)


def _check(call: Call, reference, capacities, path, program_count=None) -> str | None:
    """Fill call.comms from the path; return a problem if the output is wrong."""
    num_qubits, layers = reference
    problem, recount = checker.check_path(
        num_qubits, layers, capacities, [a.core_of for a in path.assignments]
    )
    if problem is None and program_count is not None and program_count != recount:
        problem = f"program counts {program_count} relocations, path has {recount}"
    if problem is not None:
        call.problem = f"checker: {problem}"
        return f"{call.instance}/{call.mapper}: {problem}"
    call.comms = recount
    return None


def _mapper_name(harness_name: str) -> str:
    return HQA if harness_name == harness.MAPPER_HQA else FGP


class SweepCores:
    """harness.sweep_cores at 120 qubits: all default benchmarks, both mappers.

    The sweep generates, slices, maps and validates inside the timed pass.
    The benchmark observes it through wrappers on the harness's own
    bindings of run_single and the two mapper entry points.
    """

    name = "sweep-cores"
    QUBITS = 120
    CORE_COUNTS = (2, 12)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        return None

    def prepare(self, inputs) -> None:
        pass

    def run_pass(self, inputs, tracer=None) -> PassResult:
        captured: list[tuple] = []
        failed: list[Call] = []
        slot: dict = {}
        patches = Patches()

        def probe_run(original):
            def run_single(spec, arch, mapper, *args, **kwargs):
                slot.clear()
                key = f"{spec.family}:{spec.params_str()}:{spec.seed}@{arch.num_cores}x{arch.capacity}"
                if tracer is not None:
                    tracer.instance = f"{key}/{mapper}"
                try:
                    record = original(spec, arch, mapper, *args, **kwargs)
                except Exception as exc:
                    failed.append(Call(key, _mapper_name(mapper), slot.get("ms", 0.0), problem=type(exc).__name__))
                    raise
                captured.append(
                    (key, mapper, arch, record, slot["circuit"], slot["path"], slot["ms"], clock.mark())
                )
                return record

            return run_single

        def probe_map(original):
            def mapper(circ, arch, *args, **kwargs):
                slot["circuit"] = circ
                started = perf_counter()
                try:
                    slot["path"] = original(circ, arch, *args, **kwargs)
                finally:
                    slot["ms"] = (perf_counter() - started) * 1000.0
                return slot["path"]

            return mapper

        patches.replace(harness, "run_single", probe_run, "qcoremap.harness.run_single")
        patches.replace(harness, "map_circuit", probe_map, "qcoremap.harness.map_circuit")
        patches.replace(harness, "fgp_map_circuit", probe_map, "qcoremap.harness.fgp_map_circuit")
        errors: list[str] = []
        ratios: list[dict] = []
        clock = Clock()
        try:
            _records, ratios = harness.sweep_cores(
                num_qubits=self.QUBITS, core_counts=self.CORE_COUNTS, replicas=1, seed=self.seed
            )
        except Exception as exc:  # a crashed sweep is reported, not raised
            errors.append(f"sweep_cores raised {type(exc).__name__}: {exc}")
        finally:
            clock.mark()
            patches.restore()
        if patches.missing:
            errors.append(f"sweep hooks missing: {patches.missing}")

        calls = []
        for key, mapper, arch, record, circ, path, ms, segment in captured:
            call = Call(key, _mapper_name(mapper), ms, segment=segment)
            error = _check(call, _reference(circ), arch.capacities, path, record.communications)
            if error:
                errors.append(error)
            calls.append(call)
        calls.extend(failed)
        logs = [
            math.log(float(row["ratio_fgp_over_hqa"]))
            for row in ratios
            if row["family"] != "ghz" and 0 < float(row["ratio_fgp_over_hqa"]) < math.inf
        ]
        geomean = math.exp(sum(logs) / len(logs)) if logs else 0.0
        return PassResult(clock, calls, errors, {"fgp_over_hqa_geomean": geomean})


@dataclass
class MapInput:
    instance: str
    text: str
    arch: object
    circuit: object
    reference: tuple | None = None


class MapHqa:
    """The ``qcoremap map`` path with the default hqa mapper.

    Set-up generates and serializes every family on 10 cores at 120 and
    200 qubits and on 12 cores at 168 qubits, each core filled
    to an even capacity. Quantum volume has depth LAYERS and random circuits
    LAYERS cycles, at the density listed for the cell; the seed draws the
    seeds of these stochastic circuits, so a pass does the same amount of
    work for every seed. The timed pass parses, slices, maps, validates and
    counts, as the command does.
    """

    name = "map-hqa"
    FAMILIES = ("ghz", "cuccaro", "qft", "quantum_volume", "grover", "random")
    CELLS = ((10, 120), (10, 200), (12, 168))  # (cores, qubits)
    DENSITIES = (0.3, 0.8, 0.5)  # random circuits, one per cell
    LAYERS = 12

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[MapInput]:
        rng = random.Random(f"{self.name}:{self.seed}")
        inputs = []
        for family in self.FAMILIES:
            stochastic = family in ("quantum_volume", "random")
            for (cores, q), density in zip(self.CELLS, self.DENSITIES):
                spec = generators.BenchmarkSpec(
                    family=family,
                    num_qubits=q,
                    depth=self.LAYERS if family == "quantum_volume" else None,
                    cycles=self.LAYERS if family == "random" else None,
                    density=density if family == "random" else None,
                    seed=rng.randrange(2**31) if stochastic else None,
                )
                circ = spec.build()
                inputs.append(
                    MapInput(
                        f"{family}:{spec.params_str()}:{spec.seed}:q{q}@{cores}",
                        qasm.serialize_qasm(circ),
                        assignment.Architecture(cores, q // cores),
                        circ,
                    )
                )
        return inputs

    def prepare(self, inputs) -> None:
        for item in inputs:
            item.reference = _reference(item.circuit)

    def run_pass(self, inputs, tracer=None) -> PassResult:
        config = hqa.HqaConfig()
        calls = []
        results = []
        clock = Clock()
        for item in inputs:
            if tracer is not None:
                tracer.instance = item.instance
            call = Call(item.instance, HQA, 0.0)
            path = count = None
            try:
                circ = qasm.parse_qasm(item.text)
                sliced = circuit.timeslice(circ)
                begun = perf_counter()
                try:
                    path = hqa.map_circuit(circ, item.arch, config)
                finally:
                    call.ms = (perf_counter() - begun) * 1000.0
                assignment.validate_path(path, sliced.slices, item.arch)
                count = assignment.count_communications(path)
            except Exception as exc:  # counted as a failed call
                call.problem = type(exc).__name__
            call.segment = clock.mark()
            calls.append(call)
            results.append((item, call, path, count))
        errors = []
        for item, call, path, count in results:
            if not call.failed:
                error = _check(call, item.reference, item.arch.capacities, path, count)
                if error:
                    errors.append(error)
        return PassResult(clock, calls, errors)


@dataclass
class TinyInput:
    instance: str
    circuit: object
    arch: object
    capacities: tuple
    feasible: bool
    states: int
    reference: tuple


class TinyExact:
    """Small instances mapped by both mappers and solved by the oracle.

    The architectures form a fixed grid: 2-4 cores with uniform even,
    uniform odd and non-uniform capacities, each with every qubit count
    from 2 to 8 that fits, so most are only partly filled. Every grid point
    appears CYCLES times. Instance i has TWO_QUBIT_GATES[i % 7] cx gates
    (with one-qubit gates between some); the seed draws their qubits. The
    oracle's cost is set by the grid, which keeps a pass's work steady
    across seeds. Each instance is labelled with the exact feasibility
    condition; the oracle must agree with every label, mappers run on
    feasible instances only, and fgp only on uniform capacities, its
    documented domain.
    """

    name = "tiny-exact"
    CAPACITIES = (
        (2, 2), (4, 4), (2, 2, 2), (4, 4, 4), (2, 2, 2, 2), (4, 4, 4, 4),
        (1, 1), (3, 3), (5, 5), (1, 1, 1), (3, 3, 3), (5, 5, 5),
        (1, 1, 1, 1), (3, 3, 3, 3), (5, 5, 5, 5),
        (1, 2), (2, 3), (1, 4), (3, 5), (1, 2, 3), (2, 3, 4), (1, 1, 2),
        (2, 2, 3), (1, 3, 5), (1, 2, 2, 3), (1, 2, 3, 4), (2, 3, 3, 4),
    )
    CYCLES = 2
    TWO_QUBIT_GATES = (2, 3, 4, 5, 6, 7, 8)  # cycled over the instances
    MARK_EVERY = 4  # instances per clock segment; the array kernel takes ~8 ms

    def __init__(self, seed: int):
        self.seed = seed
        # The oracle holds a states x states x qubits comparison tensor.
        # Instances whose tensor would exceed 1/64 of physical memory
        # (at most 256 MiB) are skipped and counted.
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        self.oracle_ceiling = min(physical // 64, 1 << 28)

    def setup(self) -> list[TinyInput]:
        rng = random.Random(f"{self.name}:{self.seed}")
        grid = [(caps, n) for caps in self.CAPACITIES for n in range(2, min(8, sum(caps)) + 1)]
        inputs = []
        for i, (caps, n) in enumerate(grid * self.CYCLES):
            gates = []
            for _ in range(self.TWO_QUBIT_GATES[i % len(self.TWO_QUBIT_GATES)]):
                if rng.random() < 0.25:
                    gates.append(circuit.Gate("h", (rng.randrange(n),)))
                gates.append(circuit.Gate("cx", tuple(rng.sample(range(n), 2))))
            circ = circuit.Circuit(n, tuple(gates))
            reference = _reference(circ)
            uniform = len(set(caps)) == 1
            arch = (
                assignment.Architecture(len(caps), caps[0])
                if uniform
                else assignment.Architecture(len(caps), max(caps), core_capacities=caps)
            )
            inputs.append(
                TinyInput(
                    f"t{i}:n{n}:c{'-'.join(map(str, caps))}",
                    circ,
                    arch,
                    caps,
                    checker.feasible(n, reference[1], caps),
                    checker.capacity_states(n, caps),
                    reference,
                )
            )
        return inputs

    def prepare(self, inputs) -> None:
        pass

    def run_pass(self, inputs, tracer=None) -> PassResult:
        config_hqa = hqa.HqaConfig()
        config_fgp = fgp.FgpConfig()
        results = []
        unmarked: list[Call] = []
        skipped = 0
        clock = Clock(ARRAY)  # the oracle's array work dominates a pass
        for item in inputs:
            if tracer is not None:
                tracer.instance = item.instance
            outputs = []
            if item.feasible:
                mappers = [(HQA, hqa.map_circuit, config_hqa)]
                if len(set(item.capacities)) == 1:
                    mappers.append((FGP, fgp.fgp_map_circuit, config_fgp))
                for name, entry, config in mappers:
                    call = Call(item.instance, name, 0.0)
                    path = None
                    begun = perf_counter()
                    try:
                        path = entry(item.circuit, item.arch, config)
                    except Exception as exc:  # counted as a failed call
                        call.problem = type(exc).__name__
                    call.ms = (perf_counter() - begun) * 1000.0
                    outputs.append((call, path))
            optimum = None
            if item.states ** 2 * item.circuit.num_qubits > self.oracle_ceiling:
                skipped += 1
            else:
                try:
                    optimum = oracle.minimum_communications(item.circuit, item.arch)
                except oracle.OracleInfeasibleError:
                    optimum = "infeasible"
            results.append((item, outputs, optimum))
            unmarked.extend(call for call, _path in outputs)
            if len(results) % self.MARK_EVERY == 0 or len(results) == len(inputs):
                segment = clock.mark()
                for call in unmarked:
                    call.segment = segment
                unmarked.clear()

        calls, errors = [], []
        sums = {HQA: [0, 0], FGP: [0, 0]}  # [mapper relocations, optimum]
        for item, outputs, optimum in results:
            if optimum is not None and (optimum != "infeasible") != item.feasible:
                errors.append(f"{item.instance}: oracle says {optimum}, label feasible={item.feasible}")
            for call, path in outputs:
                calls.append(call)
                if path is None:
                    continue
                error = _check(call, item.reference, item.capacities, path)
                if error:
                    errors.append(error)
                elif isinstance(optimum, int):
                    if call.comms < optimum:
                        errors.append(f"{item.instance}/{call.mapper}: {call.comms} below optimum {optimum}")
                    sums[call.mapper][0] += call.comms
                    sums[call.mapper][1] += optimum
        extra = {
            "oracle_skipped": skipped,
            "hqa_opt_ratio": sums[HQA][0] / sums[HQA][1] if sums[HQA][1] else 0.0,
            "fgp_opt_ratio": sums[FGP][0] / sums[FGP][1] if sums[FGP][1] else 0.0,
        }
        return PassResult(clock, calls, errors, extra)


WORKLOADS = {w.name: w for w in (SweepCores, MapHqa, TinyExact)}

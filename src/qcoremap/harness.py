"""Experiment harness: benchmark x architecture sweeps over both mappers.

Produces per-run records plus ratio rows comparing the two mappers (or the
two cost functions), with stochastic benchmarks replicated over seeds and
summarized by the median. Output is byte-stable for fixed flags when timing
is suppressed.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, fields

from .assignment import Architecture, count_communications, validate_path
from .circuit import Circuit, timeslice
from .fgp import fgp_map_circuit
from .generators import STOCHASTIC_FAMILIES, BenchmarkSpec
from .hqa import HqaConfig, map_circuit

MAPPER_HQA = "hqa"
MAPPER_FGP = "fgp_roee"

DEFAULT_BENCHMARKS = (
    "ghz",
    "cuccaro",
    "qft",
    "quantum_volume",
    "grover",
    "random:0.3",
    "random:0.5",
    "random:0.8",
)
DEFAULT_CORE_SWEEP = (2, 3, 4, 5, 6, 10, 12)
DEFAULT_QUBIT_SWEEP = (40, 80, 120, 160, 200)
DEFAULT_ATTRACTION_QUBITS = (32, 48, 64, 80, 96, 112)


class UsageError(ValueError):
    """Invalid sweep parameters (wrong divisibility, unknown names, ...)."""


@dataclass
class RunRecord:
    family: str
    params: str
    num_qubits: int
    num_cores: int
    capacity: int
    mapper: str
    use_attraction: bool
    seed: int
    num_slices: int
    num_2q_gates: int
    communications: int
    wall_time_ms: float


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def parse_benchmark_names(names) -> list[tuple[str, float | None]]:
    """Parse 'family' or 'random:<density>' entries into (family, density) pairs."""
    out = []
    for name in names:
        family, _, density = name.partition(":")
        if density:
            if family != "random":
                raise UsageError(f"only the random family takes a density, got '{name}'")
            try:
                out.append((family, float(density)))
            except ValueError:
                raise UsageError(f"bad density in '{name}'") from None
        else:
            out.append((family, None))
    return out


def _run_mapper(circuit: Circuit, arch: Architecture, mapper: str, use_attraction: bool):
    """Map ``circuit`` with ``mapper`` (hqa with or without attraction, or
    fgp-roee), which slices it, and validate every slice of the path.

    The mapper raises CapacityError for a circuit the cores cannot hold
    before it slices it.
    Returns the path, the milliseconds taken to slice and map, and the
    path's ``RunRecord`` counts: ``num_slices``, ``num_2q_gates`` and
    ``communications``.
    """
    if mapper not in (MAPPER_HQA, MAPPER_FGP):
        raise UsageError(f"unknown mapper '{mapper}'")
    started = time.perf_counter()
    if mapper == MAPPER_HQA:
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=use_attraction))
    else:
        path = fgp_map_circuit(circuit, arch)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    sliced = timeslice(circuit)  # the mapper's slicing, stored on the circuit
    validate_path(path, sliced, arch)
    return path, elapsed_ms, {
        "num_slices": sliced.num_slices,
        "num_2q_gates": len(sliced.pairs[0]),
        "communications": count_communications(path),
    }


def run_single(
    spec: BenchmarkSpec,
    arch: Architecture,
    mapper: str,
    use_attraction: bool = True,
    *,
    circuit: Circuit | None = None,
) -> RunRecord:
    """Generate, slice, map, validate every slice, and count relocations.

    ``circuit`` is ``spec``'s circuit when the caller has already built it;
    by default it is built here.
    """
    if circuit is None:
        circuit = spec.build()
    _path, elapsed_ms, counts = _run_mapper(circuit, arch, mapper, use_attraction)
    return RunRecord(
        family=spec.family,
        params=spec.params_str(),
        num_qubits=circuit.num_qubits,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        mapper=mapper,
        use_attraction=use_attraction if mapper == MAPPER_HQA else False,
        seed=spec.seed if spec.seed is not None else 0,
        wall_time_ms=elapsed_ms,
        **counts,
    )


def _specs(
    family: str, density: float | None, num_qubits: int, seed: int, replicas: int
) -> list[BenchmarkSpec]:
    """One benchmark's specs at ``num_qubits``, one per seed: ``replicas``
    seeds from ``seed`` for a stochastic family, ``seed`` alone otherwise. A
    family or size the generators reject is a ``UsageError``."""
    seeds = range(seed, seed + replicas) if family in STOCHASTIC_FAMILIES else (seed,)
    try:
        return [
            BenchmarkSpec(family=family, num_qubits=num_qubits, density=density, seed=s)
            for s in seeds
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio_str(numerator: float, denominator: float) -> str:
    if denominator == 0:
        return "nan" if numerator == 0 else "inf"
    return repr(numerator / denominator)


def _cell_architecture(
    num_qubits: int, num_cores: int | None, capacity: int | None
) -> Architecture:
    """The architecture of one sweep cell, which fixes ``num_qubits`` and
    either ``num_cores`` or ``capacity``: the other must be their exact
    quotient, and the capacity even. ``num_qubits`` is checked first, so a
    bad qubit count is not reported as the core count or capacity it yields.
    """
    if num_qubits < 1:
        raise UsageError(f"need at least one qubit, got {num_qubits}")
    if num_cores is not None:
        if num_cores < 1:
            raise UsageError(f"need at least one core, got {num_cores}")
        if num_qubits % num_cores:
            raise UsageError(f"{num_cores} cores do not divide {num_qubits} qubits")
        capacity = num_qubits // num_cores
    else:
        if capacity < 1:
            raise UsageError(f"capacity must be positive, got {capacity}")
        if num_qubits % capacity:
            raise UsageError(f"{num_qubits} qubits is not a multiple of capacity {capacity}")
        num_cores = num_qubits // capacity
    if capacity % 2:
        raise UsageError(
            f"{num_qubits} qubits over {num_cores} cores give odd capacity {capacity}; "
            "an even number of qubits per core is required"
        )
    return Architecture(num_cores, capacity)


def _distinct(values, what: str) -> list:
    """``values`` as a list; a value listed twice is a UsageError naming ``what``."""
    values = list(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{what} {value} is listed twice")
    return values


def _sweep(benchmarks, cells, runs, seed: int, replicas: int, ratio=None):
    """Map every benchmark on every cell, once per seed and run.

    ``cells`` are ``(num_qubits, num_cores, capacity)`` triples for
    ``_cell_architecture``. Every input is checked before the first circuit
    is mapped: the benchmark and cell lists (not empty, no benchmark listed
    twice), ``replicas`` (at least one), every cell's architecture and every
    benchmark spec.
    ``runs`` are ``(mapper, use_attraction)`` pairs, mapped in that order.
    ``ratio``, when given, is ``(numerator run, denominator run, (numerator
    column, denominator column, ratio column))``, and each cell then gets a
    row comparing the two runs' median communications.
    """
    families = parse_benchmark_names(benchmarks)
    if not families:
        raise UsageError("the benchmark list is empty")
    _distinct(
        (f"'{family}'" if density is None else f"'{family}:{density}'" for family, density in families),
        "benchmark",
    )
    if replicas < 1:
        raise UsageError(f"need at least one replica, got {replicas}")
    if not cells:
        raise UsageError("the swept list of core or qubit counts is empty")
    cells = [(cell[0], _cell_architecture(*cell)) for cell in cells]
    cell_specs = [
        [_specs(family, density, num_qubits, seed, replicas) for num_qubits, _ in cells]
        for family, density in families
    ]
    records: list[RunRecord] = []
    ratio_rows: list[dict] = []
    for (family, density), specs_by_cell in zip(families, cell_specs):
        # Each circuit is built once and kept only while a later cell of the
        # same qubit count will map it again.
        circuits: dict[BenchmarkSpec, Circuit] = {}
        for i, ((num_qubits, arch), specs) in enumerate(zip(cells, specs_by_cell)):
            needed_later = any(q == num_qubits for q, _ in cells[i + 1 :])
            comms: dict[tuple[str, bool], list[int]] = {run: [] for run in runs}
            for spec in specs:
                circuit = circuits.pop(spec, None)
                if circuit is None:
                    circuit = spec.build()
                if needed_later:
                    circuits[spec] = circuit
                for mapper, attraction in runs:
                    record = run_single(spec, arch, mapper, attraction, circuit=circuit)
                    records.append(record)
                    comms[(mapper, attraction)].append(record.communications)
            if ratio is not None:
                numerator_run, denominator_run, (numerator_col, denominator_col, ratio_col) = ratio
                numerator = _median(comms[numerator_run])
                denominator = _median(comms[denominator_run])
                ratio_rows.append(
                    {
                        "family": family,
                        "params": "" if density is None else f"p={density}",
                        "num_qubits": num_qubits,
                        "num_cores": arch.num_cores,
                        "capacity": arch.capacity,
                        numerator_col: repr(numerator),
                        denominator_col: repr(denominator),
                        ratio_col: _ratio_str(numerator, denominator),
                    }
                )
    return _sorted_records(records), ratio_rows


def _sorted_records(records: list[RunRecord]) -> list[RunRecord]:
    return sorted(
        records,
        key=lambda r: (
            r.family,
            r.params,
            r.num_cores,
            r.num_qubits,
            r.mapper,
            r.use_attraction,
            r.seed,
        ),
    )


def _mapper_comparison(benchmarks, cells, mappers, attraction_modes, seed, replicas):
    """Sweep ``mappers``, hqa once per attraction mode; with both mappers,
    each cell's ratio row is fgp over hqa, with attraction when it is run."""
    runs = [
        (mapper, attraction)
        for mapper in mappers
        for attraction in (attraction_modes if mapper == MAPPER_HQA else (False,))
    ]
    ratio = None
    if MAPPER_FGP in mappers and MAPPER_HQA in mappers:
        ratio = (
            (MAPPER_FGP, False),
            (MAPPER_HQA, True in attraction_modes),
            ("comms_fgp_roee", "comms_hqa", "ratio_fgp_over_hqa"),
        )
    return _sweep(benchmarks, cells, runs, seed, replicas, ratio)


def sweep_cores(
    benchmarks=DEFAULT_BENCHMARKS,
    num_qubits: int = 120,
    core_counts=DEFAULT_CORE_SWEEP,
    mappers=(MAPPER_FGP, MAPPER_HQA),
    attraction_modes=(True,),
    seed: int = 1,
    replicas: int = 5,
):
    """Fixed circuit size, varying core count; q/N must be an even integer."""
    cells = [(num_qubits, n, None) for n in _distinct(core_counts, "core count")]
    return _mapper_comparison(benchmarks, cells, mappers, attraction_modes, seed, replicas)


def sweep_qubits(
    benchmarks=DEFAULT_BENCHMARKS,
    num_cores: int = 10,
    qubit_counts=DEFAULT_QUBIT_SWEEP,
    mappers=(MAPPER_FGP, MAPPER_HQA),
    attraction_modes=(True,),
    seed: int = 1,
    replicas: int = 5,
):
    """Fixed core count, varying circuit size; q/N must be an even integer."""
    cells = [(q, num_cores, None) for q in _distinct(qubit_counts, "qubit count")]
    return _mapper_comparison(benchmarks, cells, mappers, attraction_modes, seed, replicas)


def sweep_attraction(
    benchmarks=("cuccaro", "random:0.5"),
    capacity: int = 16,
    qubit_counts=DEFAULT_ATTRACTION_QUBITS,
    seed: int = 1,
    replicas: int = 5,
):
    """Attraction on vs off for the Hungarian mapper at fixed qubits per core."""
    cells = [(q, None, capacity) for q in _distinct(qubit_counts, "qubit count")]
    off, on = (MAPPER_HQA, False), (MAPPER_HQA, True)
    ratio = (off, on, ("comms_attraction_off", "comms_attraction_on", "ratio_off_over_on"))
    return _sweep(benchmarks, cells, [off, on], seed, replicas, ratio)


def records_to_csv(records: list[RunRecord], include_timing: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        row = []
        for name in CSV_COLUMNS:
            value = getattr(r, name)
            if name == "wall_time_ms":
                value = repr(round(value, 3)) if include_timing else ""
            elif isinstance(value, bool):
                value = "true" if value else "false"
            row.append(value)
        writer.writerow(row)
    return buf.getvalue()


def ratios_to_csv(ratio_rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if ratio_rows:
        columns = list(ratio_rows[0].keys())
        writer.writerow(columns)
        for row in ratio_rows:
            writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def records_to_json(records: list[RunRecord], include_timing: bool = True) -> str:
    docs = []
    for r in records:
        doc = {name: getattr(r, name) for name in CSV_COLUMNS}
        if include_timing:
            doc["wall_time_ms"] = round(doc["wall_time_ms"], 3)
        else:
            del doc["wall_time_ms"]
        docs.append(doc)
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


def ratios_to_json(ratio_rows: list[dict]) -> str:
    return json.dumps(ratio_rows, indent=2, sort_keys=True) + "\n"

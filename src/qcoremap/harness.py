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
from .fgp import FgpConfig, fgp_map_circuit
from .generators import BenchmarkSpec
from .hqa import HqaConfig, map_circuit
from .lookahead import DEFAULT_HORIZON

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


def make_spec(family: str, density: float | None, num_qubits: int, seed: int) -> BenchmarkSpec:
    try:
        return BenchmarkSpec(
            family=family, num_qubits=num_qubits, density=density, seed=seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def run_single(
    spec: BenchmarkSpec,
    arch: Architecture,
    mapper: str,
    use_attraction: bool = True,
    horizon: int = DEFAULT_HORIZON,
    *,
    circuit: Circuit | None = None,
) -> RunRecord:
    """Generate, slice, map, validate every slice, and count relocations.

    ``circuit`` is ``spec``'s circuit when the caller has already built it;
    by default it is built here.
    """
    if circuit is None:
        circuit = spec.build()
    if mapper not in (MAPPER_HQA, MAPPER_FGP):
        raise UsageError(f"unknown mapper '{mapper}'")
    started = time.perf_counter()
    sliced = timeslice(circuit)
    if mapper == MAPPER_HQA:
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=use_attraction, horizon=horizon))
    else:
        path = fgp_map_circuit(circuit, arch, FgpConfig(horizon=horizon))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    validate_path(path, sliced.slices, arch)
    return RunRecord(
        family=spec.family,
        params=spec.params_str(),
        num_qubits=circuit.num_qubits,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        mapper=mapper,
        use_attraction=use_attraction if mapper == MAPPER_HQA else False,
        seed=spec.seed if spec.seed is not None else 0,
        num_slices=sliced.num_slices,
        num_2q_gates=circuit.two_qubit_count,
        communications=count_communications(path),
        wall_time_ms=elapsed_ms,
    )


def _seeds_for(family: str, base_seed: int, replicas: int) -> list[int]:
    if family in ("quantum_volume", "random"):
        return [base_seed + i for i in range(replicas)]
    return [base_seed]


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio_str(numerator: float, denominator: float) -> str:
    if denominator == 0:
        return "nan" if numerator == 0 else "inf"
    return repr(numerator / denominator)


def _check_even_split(num_qubits: int, num_cores: int) -> int:
    if num_qubits % num_cores:
        raise UsageError(f"{num_cores} cores do not divide {num_qubits} qubits")
    capacity = num_qubits // num_cores
    if capacity % 2:
        raise UsageError(
            f"{num_qubits} qubits over {num_cores} cores give odd capacity {capacity}; "
            "an even number of qubits per core is required"
        )
    return capacity


def _mapper_comparison_sweep(
    benchmarks,
    cells,  # list of (num_qubits, num_cores)
    mappers,
    attraction_modes,  # list of bool, for hqa rows
    seed: int,
    replicas: int,
    horizon: int,
):
    records: list[RunRecord] = []
    ratio_rows: list[dict] = []
    for family, density in parse_benchmark_names(benchmarks):
        for num_qubits, num_cores in cells:
            capacity = _check_even_split(num_qubits, num_cores)
            arch = Architecture(num_cores, capacity)
            comms: dict[tuple[str, bool], list[int]] = {}
            for s in _seeds_for(family, seed, replicas):
                spec = make_spec(family, density, num_qubits, s)
                circuit = spec.build()
                for mapper in mappers:
                    modes = attraction_modes if mapper == MAPPER_HQA else [False]
                    for attraction in modes:
                        record = run_single(
                            spec, arch, mapper, attraction, horizon, circuit=circuit
                        )
                        records.append(record)
                        comms.setdefault((mapper, attraction), []).append(
                            record.communications
                        )
            if MAPPER_FGP in mappers and MAPPER_HQA in mappers:
                hqa_mode = True in attraction_modes
                fgp_med = _median(comms[(MAPPER_FGP, False)])
                hqa_med = _median(comms[(MAPPER_HQA, hqa_mode)])
                ratio_rows.append(
                    {
                        "family": family,
                        "params": "" if density is None else f"p={density}",
                        "num_qubits": num_qubits,
                        "num_cores": num_cores,
                        "capacity": capacity,
                        "comms_fgp_roee": repr(fgp_med),
                        "comms_hqa": repr(hqa_med),
                        "ratio_fgp_over_hqa": _ratio_str(fgp_med, hqa_med),
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


def sweep_cores(
    benchmarks=DEFAULT_BENCHMARKS,
    num_qubits: int = 120,
    core_counts=DEFAULT_CORE_SWEEP,
    mappers=(MAPPER_FGP, MAPPER_HQA),
    attraction_modes=(True,),
    seed: int = 1,
    replicas: int = 5,
    horizon: int = DEFAULT_HORIZON,
):
    """Fixed circuit size, varying core count; q/N must be an even integer."""
    cells = [(num_qubits, n) for n in core_counts]
    return _mapper_comparison_sweep(
        benchmarks, cells, mappers, list(attraction_modes), seed, replicas, horizon
    )


def sweep_qubits(
    benchmarks=DEFAULT_BENCHMARKS,
    num_cores: int = 10,
    qubit_counts=DEFAULT_QUBIT_SWEEP,
    mappers=(MAPPER_FGP, MAPPER_HQA),
    attraction_modes=(True,),
    seed: int = 1,
    replicas: int = 5,
    horizon: int = DEFAULT_HORIZON,
):
    """Fixed core count, varying circuit size; q/N must be an even integer."""
    cells = [(q, num_cores) for q in qubit_counts]
    return _mapper_comparison_sweep(
        benchmarks, cells, mappers, list(attraction_modes), seed, replicas, horizon
    )


def sweep_attraction(
    benchmarks=("cuccaro", "random:0.5"),
    capacity: int = 16,
    qubit_counts=DEFAULT_ATTRACTION_QUBITS,
    seed: int = 1,
    replicas: int = 5,
    horizon: int = DEFAULT_HORIZON,
):
    """Attraction on vs off for the Hungarian mapper at fixed qubits per core."""
    if capacity % 2:
        raise UsageError(f"capacity must be even, got {capacity}")
    records: list[RunRecord] = []
    ratio_rows: list[dict] = []
    for family, density in parse_benchmark_names(benchmarks):
        for num_qubits in qubit_counts:
            if num_qubits % capacity:
                raise UsageError(f"{num_qubits} qubits is not a multiple of capacity {capacity}")
            arch = Architecture(num_qubits // capacity, capacity)
            comms: dict[bool, list[int]] = {True: [], False: []}
            for s in _seeds_for(family, seed, replicas):
                spec = make_spec(family, density, num_qubits, s)
                circuit = spec.build()
                for attraction in (False, True):
                    record = run_single(
                        spec, arch, MAPPER_HQA, attraction, horizon, circuit=circuit
                    )
                    records.append(record)
                    comms[attraction].append(record.communications)
            off_med = _median(comms[False])
            on_med = _median(comms[True])
            ratio_rows.append(
                {
                    "family": family,
                    "params": "" if density is None else f"p={density}",
                    "num_qubits": num_qubits,
                    "num_cores": arch.num_cores,
                    "capacity": capacity,
                    "comms_attraction_off": repr(off_med),
                    "comms_attraction_on": repr(on_med),
                    "ratio_off_over_on": _ratio_str(off_med, on_med),
                }
            )
    return _sorted_records(records), ratio_rows


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

"""Command-line harness: generate benchmarks, map circuits, run sweeps.

Exit codes: 0 success, 1 validation or mapping failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assignment import (
    Architecture,
    MappingInfeasibleError,
    MappingValidationError,
    count_communications,
    validate_path,
)
from .circuit import pair_arrays, timeslice
from .fgp import fgp_map_circuit
from .generators import FAMILIES, BenchmarkSpec
from .harness import (
    DEFAULT_ATTRACTION_QUBITS,
    DEFAULT_BENCHMARKS,
    DEFAULT_CORE_SWEEP,
    DEFAULT_QUBIT_SWEEP,
    MAPPER_FGP,
    MAPPER_HQA,
    UsageError,
    ratios_to_csv,
    ratios_to_json,
    records_to_csv,
    records_to_json,
    sweep_attraction,
    sweep_cores,
    sweep_qubits,
)
from .hqa import HqaConfig, map_circuit
from .oracle import OracleInfeasibleError, minimum_communications
from .qasm import QasmError, parse_qasm, serialize_qasm

_MAPPER_FLAGS = {"hqa": MAPPER_HQA, "fgp-roee": MAPPER_FGP}


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _name_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _add_sweep_flags(parser: argparse.ArgumentParser, with_mapper: bool = True):
    parser.add_argument("--benchmarks", type=_name_list, default=None,
                        help="comma list of families; random takes a density as random:0.5")
    if with_mapper:
        parser.add_argument("--mapper", choices=["hqa", "fgp-roee", "both"], default="both")
        parser.add_argument("--attraction", choices=["on", "off", "both"], default="on")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--replicas", type=int, default=5,
                        help="seeds per stochastic benchmark configuration")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", type=Path, default=None,
                        help="records file; ratios go to <out>.ratios.<ext>")
    parser.add_argument("--no-timing", action="store_true",
                        help="suppress wall_time_ms for byte-stable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoremap",
        description="Map quantum circuits onto multi-core architectures and "
        "count inter-core communications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a benchmark circuit as OpenQASM 2.0")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--qubits", type=int, required=True)
    gen.add_argument("--depth", type=int, default=None, help="quantum_volume layers")
    gen.add_argument("--cycles", type=int, default=None, help="random circuit cycles")
    gen.add_argument("--density", type=float, default=None, help="random two-qubit density")
    gen.add_argument("--iterations", type=int, default=None, help="grover iterations")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", type=Path, default=None)

    mp = sub.add_parser("map", help="map a QASM file; writes assignment-path JSON")
    mp.add_argument("qasm", type=Path, help="input file, or - for stdin")
    mp.add_argument("--cores", type=int, required=True)
    mp.add_argument("--capacity", type=int, required=True)
    mp.add_argument("--mapper", choices=["hqa", "fgp-roee"], default="hqa")
    mp.add_argument("--attraction", choices=["on", "off"], default="on")
    mp.add_argument("--out", type=Path, default=None,
                    help="path JSON file (default stdout, metrics then on stderr)")

    sc = sub.add_parser("sweep-cores", help="fixed qubit count, varying core count")
    sc.add_argument("--qubits", type=int, default=120)
    sc.add_argument("--cores", type=_int_list, default=list(DEFAULT_CORE_SWEEP))
    _add_sweep_flags(sc)

    sq = sub.add_parser("sweep-qubits", help="fixed core count, varying qubit count")
    sq.add_argument("--cores", type=int, default=10)
    sq.add_argument("--qubits", type=_int_list, default=list(DEFAULT_QUBIT_SWEEP))
    _add_sweep_flags(sq)

    sa = sub.add_parser("sweep-attraction", help="attraction on vs off for the hqa mapper")
    sa.add_argument("--capacity", type=int, default=16)
    sa.add_argument("--qubits", type=_int_list, default=list(DEFAULT_ATTRACTION_QUBITS))
    _add_sweep_flags(sa, with_mapper=False)

    orc = sub.add_parser("oracle", help="exact optimum communications for tiny instances")
    orc.add_argument("qasm", type=Path, help="input file, or - for stdin")
    orc.add_argument("--cores", type=int, required=True)
    orc.add_argument("--capacity", type=int, required=True)
    orc.add_argument("--max-states", type=int, default=1 << 23,
                     help="budget on cores ** qubits, the size of the oracle's grid "
                     "(default %(default)s)")
    return parser


def _read_qasm(path: Path) -> str:
    if str(path) == "-":
        return sys.stdin.read()
    return path.read_text()


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _ratios_path(out: Path) -> Path:
    return out.with_suffix(".ratios" + out.suffix)


def _cmd_generate(args) -> int:
    spec = BenchmarkSpec(
        family=args.family,
        num_qubits=args.qubits,
        depth=args.depth,
        cycles=args.cycles,
        density=args.density,
        iterations=args.iterations,
        seed=args.seed,
    )
    _emit(serialize_qasm(spec.build()), args.out)
    return 0


def _cmd_map(args) -> int:
    circuit = parse_qasm(_read_qasm(args.qasm))
    arch = Architecture(args.cores, args.capacity)
    sliced = timeslice(circuit)
    if _MAPPER_FLAGS[args.mapper] == MAPPER_HQA:
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=args.attraction == "on"))
    else:
        path = fgp_map_circuit(circuit, arch)
    validate_path(path, sliced.slices, arch)
    metrics = json.dumps(
        {
            "num_qubits": circuit.num_qubits,
            "num_slices": sliced.num_slices,
            "num_2q_gates": len(pair_arrays(sliced)[0]),
            "mapper": _MAPPER_FLAGS[args.mapper],
            "communications": count_communications(path),
        },
        sort_keys=True,
    )
    if args.out is None:
        sys.stdout.write(path.to_json() + "\n")
        sys.stderr.write(metrics + "\n")
    else:
        args.out.write_text(path.to_json() + "\n")
        sys.stdout.write(metrics + "\n")
    return 0


def _selected_mappers(flag: str) -> tuple[str, ...]:
    if flag == "both":
        return (MAPPER_FGP, MAPPER_HQA)
    return (_MAPPER_FLAGS[flag],)


def _attraction_modes(flag: str) -> tuple[bool, ...]:
    return {"on": (True,), "off": (False,), "both": (True, False)}[flag]


def _write_sweep(records, ratios, args) -> int:
    timing = not args.no_timing
    if args.format == "csv":
        records_text = records_to_csv(records, include_timing=timing)
        ratios_text = ratios_to_csv(ratios)
    else:
        records_text = records_to_json(records, include_timing=timing)
        ratios_text = ratios_to_json(ratios)
    if args.out is None:
        sys.stdout.write(records_text)
        sys.stdout.write("\n")
        sys.stdout.write(ratios_text)
    else:
        args.out.write_text(records_text)
        _ratios_path(args.out).write_text(ratios_text)
    return 0


def _cmd_sweep_cores(args) -> int:
    records, ratios = sweep_cores(
        benchmarks=args.benchmarks or DEFAULT_BENCHMARKS,
        num_qubits=args.qubits,
        core_counts=args.cores,
        mappers=_selected_mappers(args.mapper),
        attraction_modes=_attraction_modes(args.attraction),
        seed=args.seed,
        replicas=args.replicas,
    )
    return _write_sweep(records, ratios, args)


def _cmd_sweep_qubits(args) -> int:
    records, ratios = sweep_qubits(
        benchmarks=args.benchmarks or DEFAULT_BENCHMARKS,
        num_cores=args.cores,
        qubit_counts=args.qubits,
        mappers=_selected_mappers(args.mapper),
        attraction_modes=_attraction_modes(args.attraction),
        seed=args.seed,
        replicas=args.replicas,
    )
    return _write_sweep(records, ratios, args)


def _cmd_sweep_attraction(args) -> int:
    records, ratios = sweep_attraction(
        benchmarks=args.benchmarks or ("cuccaro", "random:0.5"),
        capacity=args.capacity,
        qubit_counts=args.qubits,
        seed=args.seed,
        replicas=args.replicas,
    )
    return _write_sweep(records, ratios, args)


def _cmd_oracle(args) -> int:
    circuit = parse_qasm(_read_qasm(args.qasm))
    arch = Architecture(args.cores, args.capacity)
    sliced = timeslice(circuit)
    optimum = minimum_communications(circuit, arch, max_states=args.max_states)
    sys.stdout.write(
        json.dumps(
            {
                "num_qubits": circuit.num_qubits,
                "num_slices": sliced.num_slices,
                "optimum_communications": optimum,
            },
            sort_keys=True,
        )
        + "\n"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "map": _cmd_map,
    "sweep-cores": _cmd_sweep_cores,
    "sweep-qubits": _cmd_sweep_qubits,
    "sweep-attraction": _cmd_sweep_attraction,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, QasmError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (
        MappingValidationError,
        MappingInfeasibleError,
        OracleInfeasibleError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

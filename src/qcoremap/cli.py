"""Command-line harness: generate benchmarks, map circuits, run sweeps.

Exit codes: 0 success; 1 when the architecture cannot hold or map the
circuit, a path fails validation, or memory runs out; 2 usage error, bad
QASM included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .assignment import Architecture, CapacityError, MappingInfeasibleError, MappingValidationError
from .circuit import timeslice
from .generators import FAMILIES, BenchmarkSpec
from .harness import (
    MAPPER_FGP,
    MAPPER_HQA,
    ratios_to_csv,
    ratios_to_json,
    records_to_csv,
    records_to_json,
)
from .oracle import OracleInfeasibleError, minimum_communications
from .qasm import parse_qasm, serialize_qasm

_MAPPER_FLAGS = {"hqa": MAPPER_HQA, "fgp-roee": MAPPER_FGP}
_SWEEP_MAPPERS = {"hqa": (MAPPER_HQA,), "fgp-roee": (MAPPER_FGP,), "both": (MAPPER_FGP, MAPPER_HQA)}
_ATTRACTION_MODES = {"on": (True,), "off": (False,), "both": (True, False)}


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _name_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


# Each sweep command's help and its own flags: (flag, type, harness keyword).
_SWEEP_COMMANDS = {
    "sweep-cores": ("fixed qubit count, varying core count",
                    [("--qubits", int, "num_qubits"), ("--cores", _int_list, "core_counts")]),
    "sweep-qubits": ("fixed core count, varying qubit count",
                     [("--cores", int, "num_cores"), ("--qubits", _int_list, "qubit_counts")]),
    "sweep-attraction": ("attraction on vs off for the hqa mapper",
                         [("--capacity", int, "capacity"), ("--qubits", _int_list, "qubit_counts")]),
}


def _add_sweep_parser(sub, name: str):
    """A sweep command's parser. Its flags store under the harness function's
    keywords, and a flag left out is not passed, so the harness default applies."""
    description, flags = _SWEEP_COMMANDS[name]
    parser = sub.add_parser(name, help=description, argument_default=argparse.SUPPRESS)
    for flag, parse, keyword in flags:
        parser.add_argument(flag, type=parse, dest=keyword, metavar=flag[2:].upper())
    parser.add_argument("--benchmarks", type=_name_list,
                        help="comma list of families; random takes a density as random:0.5")
    if name != "sweep-attraction":
        parser.add_argument("--mapper", dest="mappers", choices=list(_SWEEP_MAPPERS))
        parser.add_argument("--attraction", dest="attraction_modes",
                            choices=list(_ATTRACTION_MODES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--replicas", type=int,
                        help="seeds per stochastic benchmark configuration")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", type=Path, default=None,
                        help="records file; ratios go to <out>.ratios.<ext>")
    parser.add_argument("--no-timing", action="store_true", default=False,
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

    for name in _SWEEP_COMMANDS:
        _add_sweep_parser(sub, name)

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
    mapper = _MAPPER_FLAGS[args.mapper]
    path, _elapsed_ms, counts = harness._run_mapper(
        circuit, Architecture(args.cores, args.capacity), mapper, args.attraction == "on"
    )
    metrics = json.dumps(
        {"num_qubits": circuit.num_qubits, "mapper": mapper, **counts}, sort_keys=True
    )
    if args.out is None:
        sys.stdout.write(path.to_json() + "\n")
        sys.stderr.write(metrics + "\n")
    else:
        args.out.write_text(path.to_json() + "\n")
        sys.stdout.write(metrics + "\n")
    return 0


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


def _cmd_sweep(args) -> int:
    """Call the harness function named after the command with the sweep flags given."""
    options = dict(vars(args))
    for name in ("command", "format", "out", "no_timing"):
        del options[name]
    if "mappers" in options:
        options["mappers"] = _SWEEP_MAPPERS[options["mappers"]]
    if "attraction_modes" in options:
        options["attraction_modes"] = _ATTRACTION_MODES[options["attraction_modes"]]
    sweep = getattr(harness, args.command.replace("-", "_"))
    records, ratios = sweep(**options)
    return _write_sweep(records, ratios, args)


def _cmd_oracle(args) -> int:
    circuit = parse_qasm(_read_qasm(args.qasm))
    arch = Architecture(args.cores, args.capacity)
    optimum = minimum_communications(circuit, arch, max_states=args.max_states)
    sliced = timeslice(circuit)
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
    **dict.fromkeys(_SWEEP_COMMANDS, _cmd_sweep),
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CapacityError, MappingInfeasibleError, MappingValidationError,
            OracleInfeasibleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1
    except ValueError as exc:  # UsageError and QasmError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""qcoremap: map quantum circuits onto multi-core architectures.

Two mappers produce one qubit-to-core assignment per timeslice: a
Hungarian-matching repair of split two-qubit operations (the default) and a
balanced partition-refinement baseline. The quality metric is the number of
inter-core qubit relocations.
"""

from .assignment import (
    Architecture,
    Assignment,
    AssignmentPath,
    CapacityError,
    MappingValidationError,
    count_communications,
    initial_assignment,
    is_valid,
    validate_path,
)
from .circuit import Circuit, Gate, TimeslicedCircuit, interacting_pairs, timeslice
from .fgp import FgpConfig, ValidityUnreachableError, fgp_map_circuit, roee_refine
from .generators import (
    BenchmarkSpec,
    gen_cuccaro,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_quantum_volume,
    gen_random,
)
from .hqa import HqaConfig, MappingInfeasibleError, UnfeasibleOp, hqa_step, map_circuit
from .hungarian import (
    FORBIDDEN,
    AssignmentSolution,
    InfeasibleMatrixError,
    shift_to_nonnegative,
    solve,
)
from .lookahead import INFINITE
from .oracle import OracleInfeasibleError, minimum_communications
from .qasm import QasmError, parse_qasm, serialize_qasm

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "Assignment",
    "AssignmentPath",
    "AssignmentSolution",
    "BenchmarkSpec",
    "CapacityError",
    "Circuit",
    "FORBIDDEN",
    "FgpConfig",
    "Gate",
    "HqaConfig",
    "INFINITE",
    "InfeasibleMatrixError",
    "MappingInfeasibleError",
    "MappingValidationError",
    "OracleInfeasibleError",
    "QasmError",
    "TimeslicedCircuit",
    "UnfeasibleOp",
    "ValidityUnreachableError",
    "count_communications",
    "fgp_map_circuit",
    "gen_cuccaro",
    "gen_ghz",
    "gen_grover",
    "gen_qft",
    "gen_quantum_volume",
    "gen_random",
    "hqa_step",
    "initial_assignment",
    "interacting_pairs",
    "is_valid",
    "map_circuit",
    "minimum_communications",
    "parse_qasm",
    "roee_refine",
    "serialize_qasm",
    "shift_to_nonnegative",
    "solve",
    "timeslice",
    "validate_path",
    "__version__",
]

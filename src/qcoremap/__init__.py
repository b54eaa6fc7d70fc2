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
    MappingInfeasibleError,
    MappingValidationError,
    count_communications,
    initial_assignment,
    validate_path,
)
from .circuit import Circuit, Gate, TimeslicedCircuit, timeslice
from .fgp import FgpConfig, fgp_map_circuit, roee_refine
from .generators import (
    BenchmarkSpec,
    gen_cuccaro,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_quantum_volume,
    gen_random,
)
from .hqa import HqaConfig, UnfeasibleOp, hqa_step, map_circuit
from .hungarian import FORBIDDEN, AssignmentSolution, InfeasibleMatrixError, solve
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
    "map_circuit",
    "minimum_communications",
    "parse_qasm",
    "roee_refine",
    "serialize_qasm",
    "solve",
    "timeslice",
    "validate_path",
    "__version__",
]

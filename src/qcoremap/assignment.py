"""Multi-core architectures, per-slice qubit placements, and the relocation metric.

One inter-core communication is one qubit relocation (one teleportation).
Moving a qubit from core A to core B costs exactly 1 regardless of which
cores are involved: connectivity is all-to-all within and between cores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import Gate


class CapacityError(ValueError):
    """Architecture cannot hold the requested number of qubits."""


class MappingValidationError(RuntimeError):
    """A produced assignment violates co-location or capacity for its slice."""


@dataclass(frozen=True)
class Architecture:
    """N cores with all-to-all connectivity inside and between cores.

    core_capacities overrides the uniform capacity when set; the CLI only
    exposes the uniform form.
    """

    num_cores: int
    capacity: int
    core_capacities: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.num_cores < 1:
            raise ValueError(f"need at least one core, got {self.num_cores}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.core_capacities is not None:
            object.__setattr__(self, "core_capacities", tuple(self.core_capacities))
            if len(self.core_capacities) != self.num_cores:
                raise ValueError("core_capacities length must equal num_cores")
            if any(c < 1 for c in self.core_capacities):
                raise ValueError("every core capacity must be positive")

    @property
    def capacities(self) -> tuple[int, ...]:
        return self.core_capacities or (self.capacity,) * self.num_cores

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    @property
    def is_uniform(self) -> bool:
        return self.core_capacities is None or len(set(self.core_capacities)) == 1


@dataclass(frozen=True)
class Assignment:
    """Total map from qubit index to core index."""

    core_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "core_of", tuple(map(int, self.core_of)))

    @property
    def num_qubits(self) -> int:
        return len(self.core_of)

    def loads(self, num_cores: int) -> list[int]:
        counts = [0] * num_cores
        for c in self.core_of:
            counts[c] += 1
        return counts


def initial_assignment(num_qubits: int, arch: Architecture) -> Assignment:
    """Block layout: fill cores in index order up to capacity."""
    if num_qubits > arch.total_capacity:
        raise CapacityError(
            f"{num_qubits} qubits exceed total capacity {arch.total_capacity} "
            f"({arch.num_cores} cores)"
        )
    core_of = []
    core = 0
    used = 0
    caps = arch.capacities
    for _ in range(num_qubits):
        while used >= caps[core]:
            core += 1
            used = 0
        core_of.append(core)
        used += 1
    return Assignment(tuple(core_of))


def is_valid(assignment: Assignment, gates: Iterable[Gate], arch: Architecture) -> bool:
    """True iff every two-qubit gate is co-located and no core exceeds capacity.

    Raises MappingValidationError when a core index lies outside the
    architecture: such an assignment is malformed, not merely invalid.
    """
    core_of = assignment.core_of
    cores = set(range(arch.num_cores))
    if not cores.issuperset(core_of):
        bad = sorted(set(core_of) - cores)
        raise MappingValidationError(
            f"core indices {bad} lie outside 0..{arch.num_cores - 1}"
        )
    loads = assignment.loads(arch.num_cores)
    if any(load > cap for load, cap in zip(loads, arch.capacities)):
        return False
    return _pairs_co_located(core_of, gates)


def _pairs_co_located(core_of: Sequence[int], gates: Iterable[Gate]) -> bool:
    """True iff both qubits of every two-qubit gate share a core."""
    for g in gates:
        qubits = g.qubits
        if len(qubits) == 2 and core_of[qubits[0]] != core_of[qubits[1]]:
            return False
    return True


def moved_qubits(before: Assignment, after: Assignment) -> int:
    """Number of qubits whose core differs between two assignments."""
    return sum(1 for a, b in zip(before.core_of, after.core_of) if a != b)


@dataclass(frozen=True)
class AssignmentPath:
    """One assignment per timeslice; the mapper's output."""

    num_qubits: int
    num_cores: int
    capacity: int
    assignments: tuple[Assignment, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))

    @property
    def num_slices(self) -> int:
        return len(self.assignments)

    def to_json(self) -> str:
        doc = {
            "num_qubits": self.num_qubits,
            "num_cores": self.num_cores,
            "capacity": self.capacity,
            "slices": [list(a.core_of) for a in self.assignments],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AssignmentPath":
        doc = json.loads(text)
        return cls(
            num_qubits=doc["num_qubits"],
            num_cores=doc["num_cores"],
            capacity=doc["capacity"],
            assignments=tuple(Assignment(tuple(row)) for row in doc["slices"]),
        )


def count_communications(path: AssignmentPath | Sequence[Assignment]) -> int:
    """Total qubit relocations across consecutive assignments.

    The first assignment is the free initial layout; nothing is charged for it.
    A slice that keeps the previous slice's assignment object moves nothing.
    """
    assignments = path.assignments if isinstance(path, AssignmentPath) else tuple(path)
    total = 0
    for before, after in zip(assignments, assignments[1:]):
        if before is not after:
            total += moved_qubits(before, after)
    return total


def validate_path(path: AssignmentPath, sliced_slices, arch: Architecture) -> None:
    """Raise MappingValidationError unless every slice's assignment is valid
    and places exactly the path's qubits.

    Assignments are immutable, so when a slice reuses the previous slice's
    assignment object, its range, length and capacity are already checked;
    only the co-location of the new slice's pairs is.
    """
    if path.num_slices != len(sliced_slices):
        raise MappingValidationError(
            f"path has {path.num_slices} assignments for {len(sliced_slices)} slices"
        )
    checked = None
    for t, (assignment, gates) in enumerate(zip(path.assignments, sliced_slices)):
        if assignment is checked:
            if not _pairs_co_located(assignment.core_of, gates):
                raise MappingValidationError(f"assignment for slice {t} is invalid")
            continue
        if assignment.num_qubits != path.num_qubits:
            raise MappingValidationError(
                f"assignment for slice {t} places {assignment.num_qubits} qubits, "
                f"path has {path.num_qubits}"
            )
        if not is_valid(assignment, gates, arch):
            raise MappingValidationError(f"assignment for slice {t} is invalid")
        checked = assignment

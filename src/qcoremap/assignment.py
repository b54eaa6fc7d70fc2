"""Multi-core architectures, per-slice qubit placements, and the relocation metric.

One inter-core communication is one qubit relocation (one teleportation).
Moving a qubit from core A to core B costs exactly 1 regardless of which
cores are involved: connectivity is all-to-all within and between cores.

A slice with P pairs over n qubits fits iff ``sum_j floor(c_j / 2) >= P`` and
``sum_j c_j >= n``; both mappers check it, and place pairs, with this module.

``validate_path`` is the one validity check for a mapper's output and
``count_communications`` the one relocation count. Both treat a slice whose
row equals the previous slice's as unchanged, whether or not the mapper
reused the previous ``Assignment`` object.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Sequence

import numpy as np

from .circuit import TimeslicedCircuit
from .hungarian import solve


class CapacityError(ValueError):
    """Architecture cannot hold the requested number of qubits."""


class MappingInfeasibleError(RuntimeError):
    """A slice has more two-qubit gates than the cores can hold as pairs."""


class MappingValidationError(RuntimeError):
    """A produced assignment violates co-location or capacity for its slice."""


@dataclass(frozen=True)
class Architecture:
    """N cores with all-to-all connectivity inside and between cores.

    core_capacities overrides the uniform capacity when set; the CLI only
    exposes the uniform form. The mappers, checks and oracle read only
    ``capacities``; ``capacity``, the label written to paths and run
    records, is always the largest core's capacity, so with core_capacities
    set it must equal their maximum.
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
            if self.capacity != max(self.core_capacities):
                raise ValueError("capacity must equal the largest core capacity")

    @property
    def capacities(self) -> tuple[int, ...]:
        return self.core_capacities or (self.capacity,) * self.num_cores

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)


@dataclass(frozen=True)
class Assignment:
    """Total map from qubit index to core index."""

    core_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "core_of", tuple(map(int, self.core_of)))


def unchecked_assignment(core_of: tuple[int, ...]) -> Assignment:
    """An Assignment built without ``__post_init__``, for a caller whose
    ``core_of`` is already a tuple of plain ints, as ``to_json`` needs."""
    assignment = object.__new__(Assignment)
    object.__setattr__(assignment, "core_of", core_of)
    return assignment


def initial_assignment(num_qubits: int, arch: Architecture) -> Assignment:
    """Block layout: fill cores in index order up to capacity. This is the one
    source of CapacityError, raised in O(num_cores) before any per-qubit work."""
    if num_qubits > arch.total_capacity:
        raise CapacityError(
            f"{num_qubits} qubits exceed total capacity {arch.total_capacity} "
            f"({arch.num_cores} cores)"
        )
    slots = chain.from_iterable(map(repeat, range(arch.num_cores), arch.capacities))
    return unchecked_assignment(tuple(islice(slots, num_qubits)))


def check_pair_slots(offsets: np.ndarray, arch: Architecture) -> None:
    """Raise MappingInfeasibleError if a slice (``offsets`` as in a slicing's
    ``pairs``) has more pairs than the cores hold, ``sum_j floor(c_j / 2)``."""
    slots = sum(cap // 2 for cap in arch.capacities)
    for t, count in enumerate(np.diff(offsets).tolist()):
        if count > slots:
            raise MappingInfeasibleError(
                f"slice {t} has {count} two-qubit gates, but the cores hold at most "
                f"{slots} co-located pairs (sum of floor(capacity / 2))"
            )


def place_pairs(core_of: Sequence[int], a: np.ndarray, b: np.ndarray, arch: Architecture):
    """Place the slice with pairs ``(a[i], b[i])`` afresh from ``core_of``: the
    pairs are matched to the ``floor(c_j / 2)`` pair slots of each core by
    relocation count, every other index keeps its core while it has room, in
    index order, and the rest fill the lowest cores with room. Returns the cores."""
    caps = arch.capacities
    pairs = list(zip(a.tolist(), b.tolist()))
    slot_core = [core for core, cap in enumerate(caps) for _ in range(cap // 2)]
    if len(pairs) > len(slot_core):
        raise MappingInfeasibleError(
            f"{len(pairs)} two-qubit gates exceed the {len(slot_core)} pair slots of the cores"
        )
    cost = [[(core_of[x] != core) + (core_of[y] != core) for core in slot_core] for x, y in pairs]
    placed = list(core_of)
    room = list(caps)
    for (x, y), slot in zip(pairs, solve(cost).col_of_row):
        placed[x] = placed[y] = slot_core[slot]
        room[slot_core[slot]] -= 2
    in_pairs = {q for pair in pairs for q in pair}
    displaced = []
    for q, core in enumerate(core_of):
        if q not in in_pairs:
            if room[core] > 0:
                room[core] -= 1
            else:
                displaced.append(q)
    for q in displaced:
        placed[q] = next(c for c, r in enumerate(room) if r > 0)
        room[placed[q]] -= 1
    return placed


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


def count_communications(path: AssignmentPath | Sequence[Assignment]) -> int:
    """Total qubit relocations across consecutive assignments: the entries
    in which each slice's row differs from the previous slice's.

    The first assignment is the free initial layout; nothing is charged for it.
    """
    assignments = path.assignments if isinstance(path, AssignmentPath) else path
    rows = [a.core_of for a in assignments]
    total = 0
    for before, after in zip(rows, rows[1:]):
        if before is not after and before != after:
            total += sum(map(operator.ne, before, after))
    return total


def validate_path(path: AssignmentPath, sliced: TimeslicedCircuit, arch: Architecture) -> None:
    """Raise MappingValidationError unless the path's ``num_cores`` and
    ``capacity`` are the architecture's, its ``num_qubits`` is the circuit's,
    it has one assignment per slice, and every slice's row places exactly the
    circuit's qubits on cores ``0..num_cores-1``, fills no core past its
    capacity, and puts both qubits of each of the slice's two-qubit gates on
    one core. An error about a row names its slice.

    Of the slicing this reads ``num_qubits`` and the ``pairs`` arrays.

    This is the one validity check. A row equal to the previous slice's has
    passed the checks that depend on the row alone, so for it only the
    co-location of the new slice's pairs is checked.
    """
    num_qubits = sliced.num_qubits
    pa, pb, offsets = sliced.pairs
    if (path.num_cores, path.capacity) != (arch.num_cores, arch.capacity):
        raise MappingValidationError(
            f"path is for {path.num_cores} cores of capacity {path.capacity}, "
            f"the architecture has {arch.num_cores} of {arch.capacity}"
        )
    if not path.assignments and path.num_qubits != num_qubits:
        raise MappingValidationError(
            f"path has {path.num_qubits} qubits and the circuit {num_qubits}"
        )
    if path.num_slices != len(offsets) - 1:
        raise MappingValidationError(
            f"path has {path.num_slices} assignments for {len(offsets) - 1} slices"
        )
    cores = set(range(arch.num_cores))
    capacities = arch.capacities
    a, b, bounds = pa.tolist(), pb.tolist(), offsets.tolist()
    checked = None
    for t, assignment in enumerate(path.assignments):
        core_of = assignment.core_of
        if core_of is not checked and core_of != checked:
            if len(core_of) != num_qubits or len(core_of) != path.num_qubits:
                raise MappingValidationError(
                    f"assignment for slice {t} places {len(core_of)} qubits, "
                    f"path has {path.num_qubits} and the circuit {num_qubits}"
                )
            if not cores.issuperset(core_of):
                raise MappingValidationError(
                    f"assignment for slice {t} uses core indices "
                    f"{sorted(set(core_of) - cores)} outside 0..{arch.num_cores - 1}"
                )
            loads = [0] * arch.num_cores
            for core in core_of:
                loads[core] += 1
            if any(map(operator.gt, loads, capacities)):
                raise MappingValidationError(
                    f"assignment for slice {t} is invalid: a core holds more than its capacity"
                )
            checked = core_of
        for x, y in zip(a[bounds[t]:bounds[t + 1]], b[bounds[t]:bounds[t + 1]]):
            if core_of[x] != core_of[y]:
                raise MappingValidationError(
                    f"assignment for slice {t} is invalid: it splits the pair {(x, y)}"
                )

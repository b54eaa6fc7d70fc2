"""Mapper that repairs each timeslice transition by assigning split two-qubit
operations to cores with an iterative minimum-cost matching.

For the transition into slice t+1, every two-qubit gate whose endpoints sit in
different cores becomes an operation to place. Both endpoints of an operation
always land in the same core, so the produced assignment is valid by
construction. A placement costs 1 relocation when one endpoint already lives
in the target core and 2 otherwise; cores without two free slots are
forbidden targets. Optionally, costs are reduced by the attraction each
operation feels toward a core's remaining residents, weighted by how soon
they interact.

Odd or unequal capacities can leave operations pending while every core has
at most one free slot. The step then evicts a qubit that no two-qubit gate of
the slice uses from a core with one free slot into another such core (one
relocation), which gives the first core room for a pair. When no such
eviction exists, the slice is placed afresh from the incoming assignment:
its pairs are matched to the ``floor(c_j / 2)`` pair slots of each core by
relocation count, and every other qubit stays in its core while there is
room. So the mapper raises only on infeasible input: when the qubits exceed
the total capacity (``CapacityError``) or some slice has more two-qubit gates
than ``sum_j floor(c_j / 2)`` (``MappingInfeasibleError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import Architecture, Assignment, AssignmentPath, initial_assignment
from .circuit import Circuit, Gate, TimeslicedCircuit, timeslice
from .hungarian import FORBIDDEN, shift_to_nonnegative, solve
from .lookahead import DEFAULT_HORIZON, pair_arrays, window_matrix

LIFTED = -1  # residency marker for qubits pulled out of their core


class MappingInfeasibleError(RuntimeError):
    """A slice has more two-qubit gates than the cores can hold as pairs."""


@dataclass(frozen=True)
class UnfeasibleOp:
    """A qubit pair that must be co-located for the next slice."""

    qa: int
    qb: int
    auxiliary: bool = False

    @property
    def qubits(self) -> tuple[int, int]:
        return (self.qa, self.qb)


@dataclass(frozen=True)
class HqaConfig:
    use_attraction: bool = True
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def collect_unfeasible(prev: Assignment, gates: Sequence[Gate]) -> list[UnfeasibleOp]:
    """Two-qubit gates of the slice whose endpoints sit in different cores, in gate order."""
    core_of = prev.core_of
    return [
        UnfeasibleOp(g.qubits[0], g.qubits[1])
        for g in gates
        if g.is_two_qubit and core_of[g.qubits[0]] != core_of[g.qubits[1]]
    ]


def parity_fix(
    ops: Sequence[UnfeasibleOp], prev: Assignment, gates: Sequence[Gate], num_cores: int
) -> list[UnfeasibleOp]:
    """Append auxiliary operations so every core loses an even number of qubits.

    Cores housing an odd count of operation endpoints are sorted ascending and
    paired consecutively; each pair contributes one auxiliary operation built
    from one spare qubit per core. Spare preference per core: lowest idle
    qubit, else lowest qubit acting only in one-qubit gates. Failing both,
    every remaining resident is half of a co-located two-qubit pair; the
    lowest such pair is lifted as an operation of its own (keeping the pair
    together preserves validity), which frees space but yields no single
    spare, so that core stays unpaired. Unpaired leftovers arise only under
    odd capacities or partially filled cores.
    """
    core_of = prev.core_of
    acting: set[int] = set()
    in_two_qubit: set[int] = set()
    partner_of: dict[int, int] = {}
    for g in gates:
        acting.update(g.qubits)
        if g.is_two_qubit:
            a, b = g.qubits
            in_two_qubit.update((a, b))
            partner_of[a] = b
            partner_of[b] = a

    out = list(ops)
    lifted = {q for op in out for q in op.qubits}
    counts = [0] * num_cores
    for q in lifted:
        counts[core_of[q]] += 1

    odd_residents: dict[int, list[int]] = {c: [] for c in range(num_cores) if counts[c] % 2}
    for q, core in enumerate(core_of):
        if core in odd_residents:
            odd_residents[core].append(q)
    spares: list[tuple[int, int]] = []
    for core, residents in odd_residents.items():
        residents = [q for q in residents if q not in lifted]
        spare = next((q for q in residents if q not in acting), None)
        if spare is None:
            spare = next((q for q in residents if q not in in_two_qubit), None)
        if spare is None:
            if residents:
                q = residents[0]
                out.append(UnfeasibleOp(q, partner_of[q], auxiliary=True))
                lifted.update((q, partner_of[q]))
            continue
        spares.append((core, spare))

    for (_, qa), (_, qb) in zip(spares[::2], spares[1::2]):
        out.append(UnfeasibleOp(qa, qb, auxiliary=True))
    return out


def _base_cost_matrix(ops: Sequence[UnfeasibleOp], prev: Assignment, free: np.ndarray):
    num_cores = len(free)
    cost = np.full((len(ops), num_cores), 2.0)
    core_of = prev.core_of
    for i, op in enumerate(ops):
        cost[i, core_of[op.qa]] = 1.0
        cost[i, core_of[op.qb]] = 1.0
    cost[:, free < 2] = FORBIDDEN
    return cost


def _attraction_matrix(
    ops: Sequence[UnfeasibleOp], residency: np.ndarray, weights: np.ndarray, num_cores: int
):
    onehot = np.zeros((len(residency), num_cores))
    resident = np.flatnonzero(residency >= 0)
    onehot[resident, residency[resident]] = 1.0
    pull = np.empty((len(ops), num_cores))
    for i, op in enumerate(ops):
        pull[i] = (weights[op.qa] + weights[op.qb]) @ onehot / 2.0
    return pull


def hqa_step(
    prev: Assignment,
    sliced: TimeslicedCircuit,
    t: int,
    arch: Architecture,
    config: HqaConfig = HqaConfig(),
) -> Assignment:
    """Repair the transition from slice t to slice t+1; t = -1 repairs slice 0.

    Look-ahead weights for attraction are anchored at slice t, matching the
    decay seen by the transition being repaired. Placement base costs always
    read the incoming assignment: lifted qubits still physically sit in their
    old core until the transition happens. When operations are pending and
    no core has two free slots, an idle qubit is evicted to open one
    (``_evict_idle``), or else the slice is placed afresh (``_replace_slice``).
    """
    gates = sliced.slices[t + 1]
    ops = collect_unfeasible(prev, gates)
    if not ops:
        return prev
    ops = parity_fix(ops, prev, gates, arch.num_cores)

    residency = np.asarray(prev.core_of, dtype=np.int64)
    for op in ops:
        residency[op.qa] = LIFTED
        residency[op.qb] = LIFTED
    caps = np.asarray(arch.capacities, dtype=np.int64)
    free = caps - np.bincount(residency[residency >= 0], minlength=arch.num_cores)

    weights = None
    if config.use_attraction:
        weights = window_matrix(sliced.num_qubits, *pair_arrays(sliced), t, config.horizon)

    remaining = list(ops)
    while remaining:
        available = int((free >= 2).sum())
        if available == 0:
            if not _evict_idle(remaining[0], prev, gates, residency, free):
                return _replace_slice(prev, gates, arch)
            available = 1
        batch = remaining[: min(len(remaining), available)]
        cost = _base_cost_matrix(batch, prev, free)
        if weights is not None:
            finite = np.isfinite(cost)
            pull = _attraction_matrix(batch, residency, weights, arch.num_cores)
            cost[finite] -= pull[finite]
        solution = solve(shift_to_nonnegative(cost))
        for op, core in zip(batch, solution.col_of_row):
            residency[op.qa] = core
            residency[op.qb] = core
            free[core] -= 2
        remaining = remaining[len(batch):]
    return Assignment(tuple(residency.tolist()))


def _evict_idle(
    op: UnfeasibleOp, prev: Assignment, gates: Sequence[Gate], residency: np.ndarray, free: np.ndarray
) -> bool:
    """Move one resident that no two-qubit gate of the slice uses from a core
    with one free slot into another such core, so the first can take a pair.

    The source is an endpoint's home core of ``op`` when one qualifies, since
    ``op`` then costs 1 there instead of 2, else the lowest qualifying core;
    the evicted qubit is the lowest such resident, and the target the lowest
    other core with one free slot, homes of ``op`` last. Returns False when
    no such move exists.
    """
    open_cores = [int(c) for c in np.flatnonzero(free == 1)]
    if len(open_cores) < 2:
        return False
    homes = {prev.core_of[op.qa], prev.core_of[op.qb]}
    in_pairs = {q for g in gates if g.is_two_qubit for q in g.qubits}
    for source in sorted(open_cores, key=lambda c: (c not in homes, c)):
        idle = next(
            (q for q in np.flatnonzero(residency == source).tolist() if q not in in_pairs), None
        )
        if idle is None:
            continue
        target = min((c for c in open_cores if c != source), key=lambda c: (c in homes, c))
        residency[idle] = target
        free[source] += 1
        free[target] -= 1
        return True
    return False


def _replace_slice(prev: Assignment, gates: Sequence[Gate], arch: Architecture) -> Assignment:
    """Place slice ``gates`` afresh from ``prev``.

    Each pair is matched to one of the ``floor(c_j / 2)`` pair slots of a
    core at the cost of its relocations; then every other qubit stays in its
    core while there is room, in qubit order, and the rest fill the lowest
    cores with room.
    """
    caps = arch.capacities
    core_of = prev.core_of
    pairs = [g.qubits for g in gates if g.is_two_qubit]
    slot_core = [core for core, cap in enumerate(caps) for _ in range(cap // 2)]
    if len(pairs) > len(slot_core):
        raise MappingInfeasibleError(
            f"{len(pairs)} two-qubit gates exceed the {len(slot_core)} pair slots of the cores"
        )
    cost = [[(core_of[a] != core) + (core_of[b] != core) for core in slot_core] for a, b in pairs]
    placed = list(core_of)
    room = list(caps)
    for (a, b), slot in zip(pairs, solve(cost).col_of_row):
        placed[a] = placed[b] = slot_core[slot]
        room[slot_core[slot]] -= 2
    in_pairs = {q for pair in pairs for q in pair}
    displaced = []
    for q, core in enumerate(core_of):
        if q in in_pairs:
            continue
        if room[core] > 0:
            room[core] -= 1
        else:
            displaced.append(q)
    for q in displaced:
        core = next(c for c, r in enumerate(room) if r > 0)
        placed[q] = core
        room[core] -= 1
    return Assignment(tuple(placed))


def _check_pair_slots(offsets: np.ndarray, arch: Architecture) -> None:
    """Raise MappingInfeasibleError if a slice has more two-qubit gates than
    the cores can hold as co-located pairs, ``sum_j floor(c_j / 2)``."""
    slots = sum(cap // 2 for cap in arch.capacities)
    counts = np.diff(offsets)
    over = np.flatnonzero(counts > slots)
    if over.size:
        t = int(over[0])
        raise MappingInfeasibleError(
            f"slice {t} has {int(counts[t])} two-qubit gates, but the cores hold at most "
            f"{slots} co-located pairs (sum of floor(capacity / 2))"
        )


def map_circuit(
    circuit: Circuit, arch: Architecture, config: HqaConfig = HqaConfig()
) -> AssignmentPath:
    """Produce one valid assignment per timeslice by repairing every transition.

    The slice-0 repair of the block layout is the free initial placement;
    relocation counting starts at the transition into slice 1. Raises
    CapacityError when the qubits exceed the total capacity and
    MappingInfeasibleError when a slice has more two-qubit gates than
    ``sum_j floor(c_j / 2)``; every other input is mapped.
    """
    sliced = timeslice(circuit)
    current = initial_assignment(circuit.num_qubits, arch)
    assignments: list[Assignment] = []
    if sliced.num_slices > 0:
        _check_pair_slots(pair_arrays(sliced)[2], arch)
        for t in range(-1, sliced.num_slices - 1):
            current = hqa_step(current, sliced, t, arch, config)
            assignments.append(current)
    return AssignmentPath(
        num_qubits=circuit.num_qubits,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

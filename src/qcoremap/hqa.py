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
    """No core has room for a pending operation (odd capacity corner)."""


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

    spares: list[tuple[int, int]] = []
    for core in (c for c in range(num_cores) if counts[c] % 2):
        residents = sorted(q for q in range(len(core_of)) if core_of[q] == core and q not in lifted)
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
    _pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Assignment:
    """Repair the transition from slice t to slice t+1; t = -1 repairs slice 0.

    Look-ahead weights for attraction are anchored at slice t, matching the
    decay seen by the transition being repaired. Placement base costs always
    read the incoming assignment: lifted qubits still physically sit in their
    old core until the transition happens.
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
        pa, pb, offsets = _pairs if _pairs is not None else pair_arrays(sliced)
        weights = window_matrix(sliced.num_qubits, pa, pb, offsets, t, config.horizon)

    remaining = list(ops)
    while remaining:
        available = int((free >= 2).sum())
        if available == 0:
            raise MappingInfeasibleError(
                f"no core has two free slots for {len(remaining)} pending operation(s); "
                "odd-capacity saturated architectures can be genuinely unassignable"
            )
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
    return Assignment(tuple(int(c) for c in residency))


def map_circuit(
    circuit: Circuit, arch: Architecture, config: HqaConfig = HqaConfig()
) -> AssignmentPath:
    """Produce one valid assignment per timeslice by repairing every transition.

    The slice-0 repair of the block layout is the free initial placement;
    relocation counting starts at the transition into slice 1.
    """
    sliced = timeslice(circuit)
    current = initial_assignment(circuit.num_qubits, arch)
    assignments: list[Assignment] = []
    if sliced.num_slices > 0:
        pairs = pair_arrays(sliced)
        for t in range(-1, sliced.num_slices - 1):
            current = hqa_step(current, sliced, t, arch, config, _pairs=pairs)
            assignments.append(current)
    return AssignmentPath(
        num_qubits=circuit.num_qubits,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

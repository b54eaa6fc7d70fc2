"""Mapper that repairs each timeslice transition by assigning split two-qubit
operations to cores with an iterative minimum-cost matching.

For the transition into slice t+1, every pair of the slice (from the slicing's
``pairs`` arrays, which every mapping pass reads) whose endpoints sit in
different cores becomes an operation to place. Both endpoints of an operation
always land in the same core, so the produced assignment is valid by
construction. A placement costs 1 relocation when one endpoint already lives
in the target core and 2 otherwise; cores without two free slots are forbidden
targets. Optionally, costs are reduced by the attraction each operation feels
toward a core's remaining residents, weighted by how soon they interact.

Each transition's placement problem is built once, after parity repair: a
base row per operation, its look-ahead row, and a qubit-by-core membership
matrix of the residents that every placement keeps current. The operations
are then placed in gate order, in rounds of as many as cores have two free
slots; a round's pull is one product of its look-ahead rows with the
membership, and ``hungarian.solve`` gets the round's costs as nested lists.

Odd or unequal capacities can leave operations pending while every core has
at most one free slot. The step then evicts a qubit that no pair of the slice
uses from a core with one free slot into another such core (one relocation),
which gives the first core room for a pair. When no such eviction exists, the
slice is placed afresh by ``assignment.place_pairs``, which fgp shares. So the
mapper raises only on infeasible input: when the qubits exceed the total
capacity (``CapacityError``) or some slice has more two-qubit gates than
``sum_j floor(c_j / 2)`` (``MappingInfeasibleError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .assignment import Architecture, Assignment, AssignmentPath, initial_assignment
from .assignment import check_pair_slots, place_pairs, unchecked_assignment
from .circuit import Circuit, TimeslicedCircuit, timeslice
from .hungarian import FORBIDDEN, solve
from .lookahead import DEFAULT_HORIZON, window_matrix

LIFTED = -1  # residency marker for qubits pulled out of their core


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


def collect_unfeasible(prev: Assignment, a: Sequence[int], b: Sequence[int]) -> list[UnfeasibleOp]:
    """Pairs ``(a[i], b[i])`` of the slice whose endpoints sit in different cores, in gate order."""
    core_of = prev.core_of
    return [UnfeasibleOp(qa, qb) for qa, qb in zip(a, b) if core_of[qa] != core_of[qb]]


def parity_fix(
    ops: Sequence[UnfeasibleOp], prev: Assignment, a: Sequence[int], b: Sequence[int],
    one_qubit: Collection[int], num_cores: int,
) -> list[UnfeasibleOp]:
    """Append auxiliary operations so every core loses an even number of qubits.

    ``a`` and ``b`` are the slice's pair endpoints and ``one_qubit`` the
    qubits of its one-qubit gates. Cores housing an odd count of operation
    endpoints are sorted ascending and paired consecutively; each pair
    contributes one auxiliary operation built from one spare qubit per core.
    Spare preference per core: lowest idle qubit, else lowest qubit acting
    only in a one-qubit gate. Failing both, every remaining resident is half
    of a co-located pair; the lowest such pair is lifted as an operation of
    its own (keeping the pair together preserves validity), which frees space
    but yields no single spare, so that core stays unpaired. Unpaired
    leftovers arise only under odd capacities or partially filled cores.

    Only odd cores are scanned: ``core_of.index`` steps through a core's
    residents lowest first, and the scan stops at the first idle one, so a
    transition pays for the residents it visits, not for every qubit.
    """
    core_of = prev.core_of
    partner_of = dict(zip(a, b))
    partner_of.update(zip(b, a))

    out = list(ops)
    lifted = {q for op in out for q in op.qubits}
    counts = [0] * num_cores
    for q in lifted:
        counts[core_of[q]] += 1

    spares: list[int] = []
    for core in range(num_cores):
        if not counts[core] % 2:
            continue
        paired = acting = spare = None
        q = -1
        while True:
            try:
                q = core_of.index(core, q + 1)
            except ValueError:
                break
            if q in partner_of:  # lifted, or half of a co-located pair
                if paired is None and q not in lifted:
                    paired = q
            elif q not in one_qubit:
                spare = q
                break
            elif acting is None:
                acting = q
        if spare is None:
            spare = acting
        if spare is not None:
            spares.append(spare)
        elif paired is not None:
            # Its partner shares the core, so no later core sees either.
            out.append(UnfeasibleOp(paired, partner_of[paired], auxiliary=True))

    for qa, qb in zip(spares[::2], spares[1::2]):
        out.append(UnfeasibleOp(qa, qb, auxiliary=True))
    return out


def _membership(residency: Sequence[int], num_cores: int) -> np.ndarray:
    """Qubit-by-core 0/1 matrix of the residents; lifted qubits have no 1."""
    cores = np.array(residency)
    member = np.zeros((len(residency), num_cores))
    # A lifted qubit's -1 indexes the last column, where it writes a 0.
    member[np.arange(len(residency)), cores] = cores >= 0
    return member


def hqa_step(
    prev: Assignment,
    sliced: TimeslicedCircuit,
    t: int,
    arch: Architecture,
    config: HqaConfig = HqaConfig(),
) -> Assignment:
    """Repair the transition from slice t to slice t+1; t = -1 repairs slice 0.

    The transition's problem is built once: each operation's base row (1 at
    an endpoint's home core, 2 elsewhere), read from the incoming assignment
    because lifted qubits still sit in their old core until the transition
    happens, and with attraction its look-ahead row ``(W[qa] + W[qb]) / 2``,
    anchored at slice t to match the decay the repaired transition sees.
    A qubit-by-core membership matrix of the residents is kept current by
    each placement and rebuilt after an eviction, so a round's pull is one
    product of its rows with it. Each endpoint has at most one pair per
    slice, so a pull sums at most two ``2**-d`` terms per slice ahead,
    d <= 32: a multiple of ``2**-33`` below 1, exact in any grouping.

    Each round places the next operations in gate order, as many as cores
    have two free slots, by one ``solve`` on nested lists. When operations
    are pending and no core has two free slots, an idle qubit is evicted to
    open one (``_evict_idle``), or else ``place_pairs`` places the slice
    afresh. Either row holds only the plain ints of the incoming assignment
    and of ``solve``, so the result is built by ``unchecked_assignment``.
    """
    pa, pb, offsets = sliced.pairs
    lo, hi = offsets[t + 1], offsets[t + 2]
    a, b = pa[lo:hi].tolist(), pb[lo:hi].tolist()
    ops = collect_unfeasible(prev, a, b)
    if not ops:
        return prev
    singles, single_offsets = sliced.singles
    one_qubit = set(singles[single_offsets[t + 1]:single_offsets[t + 2]].tolist())
    ops = parity_fix(ops, prev, a, b, one_qubit, arch.num_cores)

    num_cores = arch.num_cores
    core_of = prev.core_of
    residency = list(core_of)
    base = []
    for op in ops:
        residency[op.qa] = residency[op.qb] = LIFTED
        row = [2.0] * num_cores
        row[core_of[op.qa]] = row[core_of[op.qb]] = 1.0
        base.append(row)
    free = list(arch.capacities)
    for core in residency:
        if core >= 0:
            free[core] -= 1

    look = member = None
    if config.use_attraction:
        weights = window_matrix(sliced.num_qubits, pa, pb, offsets, t, DEFAULT_HORIZON)
        qa = [op.qa for op in ops]
        qb = [op.qb for op in ops]
        look = (weights[qa] + weights[qb]) / 2.0
        member = _membership(residency, num_cores)

    start = 0
    while start < len(ops):
        available = sum(1 for room in free if room >= 2)
        if available == 0:
            if not _evict_idle(ops[start], prev, {*a, *b}, residency, free):
                return unchecked_assignment(tuple(place_pairs(core_of, pa[lo:hi], pb[lo:hi], arch)))
            if member is not None:
                member = _membership(residency, num_cores)
            available = 1
        end = min(len(ops), start + available)
        if look is None:
            pull = [[0.0] * num_cores] * (end - start)
        else:
            pull = (look[start:end] @ member).tolist()
        cost = [
            [FORBIDDEN if room < 2 else cell - p for cell, p, room in zip(row, pulled, free)]
            for row, pulled in zip(base[start:end], pull)
        ]
        for op, core in zip(ops[start:end], solve(cost).col_of_row):
            residency[op.qa] = residency[op.qb] = core
            free[core] -= 2
            if member is not None:
                member[op.qa, core] = member[op.qb, core] = 1.0
        start = end
    return unchecked_assignment(tuple(residency))


def _evict_idle(
    op: UnfeasibleOp, prev: Assignment, paired: set[int], residency: list[int], free: list[int]
) -> bool:
    """Move one resident that is not ``paired`` in the slice from a core with
    one free slot into another such core, so the first can take a pair.

    The source is an endpoint's home core of ``op`` when one qualifies, since
    ``op`` then costs 1 there instead of 2, else the lowest qualifying core;
    the evicted qubit is the lowest such resident, and the target the lowest
    other core with one free slot, homes of ``op`` last. Updates ``residency``
    and ``free`` in place; returns False when no such move exists.
    """
    open_cores = [c for c, room in enumerate(free) if room == 1]
    if len(open_cores) < 2:
        return False
    homes = {prev.core_of[op.qa], prev.core_of[op.qb]}
    for source in sorted(open_cores, key=lambda c: (c not in homes, c)):
        idle = next(
            (q for q, core in enumerate(residency) if core == source and q not in paired), None
        )
        if idle is None:
            continue
        target = min((c for c in open_cores if c != source), key=lambda c: (c in homes, c))
        residency[idle] = target
        free[source] += 1
        free[target] -= 1
        return True
    return False


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
    check_pair_slots(sliced.pairs[2], arch)
    for t in range(-1, sliced.num_slices - 1):
        current = hqa_step(current, sliced, t, arch, config)
        assignments.append(current)
    return AssignmentPath(
        num_qubits=circuit.num_qubits,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

"""Scalar definitions of hqa's placement costs and of the look-ahead weight.

These are the former one-entry-at-a-time functions of ``qcoremap.hqa`` and
``qcoremap.lookahead``, kept unchanged as the specification that the
batched cost matrices and ``window_matrix`` are tested against. No mapper
calls them.
"""

from __future__ import annotations

from typing import Sequence

from qcoremap.assignment import Assignment
from qcoremap.circuit import TimeslicedCircuit
from qcoremap.hqa import UnfeasibleOp
from qcoremap.hungarian import FORBIDDEN
from qcoremap.lookahead import DEFAULT_HORIZON, window_matrix


def interacting_pairs(gates) -> set[tuple[int, int]]:
    """Unordered qubit pairs touched by two-qubit gates, as (low, high) tuples."""
    return {(min(g.qubits), max(g.qubits)) for g in gates if len(g.qubits) == 2}


def attraction_qubit(
    qi: int,
    core_j: int,
    residency: Sequence[int],
    sliced: TimeslicedCircuit,
    t: int,
    horizon: int = DEFAULT_HORIZON,
) -> float:
    """Pull of qubit qi toward core_j: summed look-ahead weights to its residents.

    ``residency`` maps each qubit to its current core, with LIFTED (-1) for
    qubits pulled into the unassigned pool; lifted qubits exert no attraction.
    """
    pa, pb, offsets = sliced.pairs
    weights = window_matrix(sliced.num_qubits, pa, pb, offsets, t, horizon)
    total = 0.0
    for q, core in enumerate(residency):
        if core == core_j and q != qi:
            total += weights[qi, q]
    return total


def cost_basic(
    op: UnfeasibleOp, core_j: int, prev: Assignment, free_spaces: Sequence[int]
) -> float:
    """Relocations to place both endpoints in core_j, or FORBIDDEN if it lacks 2 slots."""
    if free_spaces[core_j] < 2:
        return FORBIDDEN
    if prev.core_of[op.qa] == core_j or prev.core_of[op.qb] == core_j:
        return 1.0
    return 2.0


def cost_attraction(
    op: UnfeasibleOp,
    core_j: int,
    prev: Assignment,
    free_spaces: Sequence[int],
    residency: Sequence[int],
    sliced: TimeslicedCircuit,
    t: int,
    horizon: int = DEFAULT_HORIZON,
) -> float:
    """cost_basic minus the mean attraction of the operation's endpoints to core_j."""
    base = cost_basic(op, core_j, prev, free_spaces)
    if base == FORBIDDEN:
        return FORBIDDEN
    pull = (
        attraction_qubit(op.qa, core_j, residency, sliced, t, horizon)
        + attraction_qubit(op.qb, core_j, residency, sliced, t, horizon)
    ) / 2.0
    return base - pull


def lookahead_weight(
    sliced: TimeslicedCircuit, t: int, qi: int, qj: int, horizon: int = DEFAULT_HORIZON
) -> float:
    """Decayed count of future interactions between qi and qj after slice t.

    Sums 2**-(m - t) over slices m in (t, t + horizon] where some two-qubit
    gate acts on both qubits.
    """
    if qi == qj:
        raise ValueError("look-ahead weight needs two distinct qubits")
    pair = (qi, qj) if qi < qj else (qj, qi)
    total = 0.0
    t_end = min(sliced.num_slices - 1, t + horizon)
    for m in range(t + 1, t_end + 1):
        if pair in interacting_pairs(sliced.slices[m]):
            total += 2.0 ** (-(m - t))
    return total

"""Reference exhaustive oracle over enumerated capacity-respecting states.

This is the former ``qcoremap.oracle`` dynamic program, kept unchanged as the
reference that ``tests/test_oracle.py`` compares the grid oracle against. It
enumerates every capacity-respecting assignment and builds a
``states x states`` relocation table, so it only suits the tiniest instances.
It slices the circuit with ``scalar_reference.asap_slices``, not with
``timeslice``, so it shares no slicing code with the grid oracle.
It returns 0 for a circuit with no slices even when the architecture cannot
hold it; the grid oracle raises there.
"""

from __future__ import annotations

import itertools

import numpy as np

from qcoremap.assignment import Architecture
from qcoremap.circuit import Circuit
from qcoremap.oracle import OracleInfeasibleError

from scalar_reference import asap_slices


def _all_states(num_qubits: int, arch: Architecture, max_states: int) -> np.ndarray:
    if arch.num_cores ** num_qubits > max_states * 64:
        raise ValueError(
            f"{arch.num_cores}**{num_qubits} assignments exceed the oracle budget"
        )
    caps = arch.capacities
    states = []
    for combo in itertools.product(range(arch.num_cores), repeat=num_qubits):
        loads = [0] * arch.num_cores
        ok = True
        for c in combo:
            loads[c] += 1
            if loads[c] > caps[c]:
                ok = False
                break
        if ok:
            states.append(combo)
    if len(states) > max_states:
        raise ValueError(f"{len(states)} feasible states exceed the oracle budget")
    return np.asarray(states, dtype=np.int8)


def minimum_communications(
    circuit: Circuit, arch: Architecture, max_states: int = 100_000
) -> int:
    """True minimum total relocations over all valid assignment paths.

    The slice-0 assignment is free, matching the mappers' accounting.
    """
    slices = asap_slices(circuit)
    if not slices:
        return 0
    states = _all_states(circuit.num_qubits, arch, max_states)
    if len(states) == 0:
        raise OracleInfeasibleError("architecture cannot hold the circuit")
    # moves[i, j] = qubits whose core differs between state i and state j
    moves = (states[:, None, :] != states[None, :, :]).sum(axis=2)

    def valid_indices(gates) -> np.ndarray:
        keep = np.ones(len(states), dtype=bool)
        for a, b in (g.qubits for g in gates if len(g.qubits) == 2):
            keep &= states[:, a] == states[:, b]
        return np.flatnonzero(keep)

    current = valid_indices(slices[0])
    if len(current) == 0:
        raise OracleInfeasibleError("no valid assignment for slice 0")
    cost = np.zeros(len(current), dtype=np.int64)
    for t in range(1, len(slices)):
        nxt = valid_indices(slices[t])
        if len(nxt) == 0:
            raise OracleInfeasibleError(f"no valid assignment for slice {t}")
        cost = (cost[:, None] + moves[np.ix_(current, nxt)]).min(axis=0)
        current = nxt
    return int(cost.min())

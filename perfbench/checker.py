"""Independent reference checks for mapper outputs.

Nothing here calls qcoremap: the slicing, validity rules, relocation count,
feasibility verdict and state count are re-derived from the problem
statement, so a defect in the code under test cannot vouch for itself.
Inputs are plain data: each gate is a tuple of qubit indices and each
assignment a sequence of core indices.
"""

from __future__ import annotations

import hashlib
from math import comb


def asap_layers(num_qubits: int, gates) -> list[list[tuple[int, ...]]]:
    """Layer gates as soon as possible: each gate goes one layer after the
    latest layer that touched any of its qubits."""
    last = [-1] * num_qubits
    layers: list[list[tuple[int, ...]]] = []
    for qubits in gates:
        layer = 1 + max(last[q] for q in qubits)
        if layer == len(layers):
            layers.append([])
        layers[layer].append(qubits)
        for q in qubits:
            last[q] = layer
    return layers


def check_path(num_qubits: int, layers, capacities, assignments) -> tuple[str | None, int]:
    """Return (problem, relocations) for a per-slice assignment path.

    ``problem`` is None when every slice co-locates each two-qubit gate and
    keeps every core within its own capacity. Relocations are the qubits
    whose core differs between consecutive slices; the first slice is free.
    """
    if len(assignments) != len(layers):
        return f"{len(assignments)} assignments for {len(layers)} slices", 0
    num_cores = len(capacities)
    relocations = 0
    previous = None
    for t, (cores, layer) in enumerate(zip(assignments, layers)):
        if len(cores) != num_qubits:
            return f"slice {t} places {len(cores)} of {num_qubits} qubits", 0
        loads = [0] * num_cores
        for core in cores:
            if not 0 <= core < num_cores:
                return f"slice {t} uses core {core} of {num_cores}", 0
            loads[core] += 1
        for core, (load, cap) in enumerate(zip(loads, capacities)):
            if load > cap:
                return f"slice {t} puts {load} qubits in core {core} of capacity {cap}", 0
        for qubits in layer:
            if len(qubits) == 2 and cores[qubits[0]] != cores[qubits[1]]:
                return f"slice {t} splits the pair {qubits}", 0
        if previous is not None:
            relocations += sum(1 for a, b in zip(previous, cores) if a != b)
        previous = cores
    return None, relocations


def feasible(num_qubits: int, layers, capacities) -> bool:
    """Exact O(cores) condition per slice: P pairs fit iff
    sum_j floor(c_j / 2) >= P and sum_j c_j >= n."""
    if sum(capacities) < num_qubits:
        return False
    pair_slots = sum(c // 2 for c in capacities)
    return all(sum(1 for g in layer if len(g) == 2) <= pair_slots for layer in layers)


def capacity_states(num_qubits: int, capacities) -> int:
    """Number of placements of labelled qubits that respect every capacity.

    ways[m] counts placements of m chosen qubits into the cores seen so far;
    adding a core of capacity c picks which i <= c of them it holds.
    """
    ways = [1] + [0] * num_qubits
    for cap in capacities:
        ways = [
            sum(comb(m, i) * ways[m - i] for i in range(min(cap, m) + 1))
            for m in range(num_qubits + 1)
        ]
    return ways[num_qubits]


def digest(rows) -> str:
    """Short stable hash of per-instance results, for determinism checks."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]

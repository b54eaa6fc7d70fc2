"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from qcoremap import Architecture, Circuit, Gate


@st.composite
def circuits(draw, max_qubits: int = 8, max_gates: int = 30):
    """Random small circuits mixing one- and two-qubit gates."""
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=0, max_value=max_gates))
    gates = []
    for _ in range(num_gates):
        if draw(st.booleans()):
            q = draw(st.integers(min_value=0, max_value=n - 1))
            gates.append(Gate("h", (q,)))
        else:
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 2))
            if b >= a:
                b += 1
            gates.append(Gate("cx", (a, b)))
    return Circuit(n, tuple(gates))


def tiny_instances(count: int = 400, seed: int = 15):
    """Seeded tiny instances that the paper sweeps never reach, as a list of
    (circuit, arch): 2-4 cores of capacity 1-5, half of them non-uniform,
    2-8 qubits and 1-8 cx, each cx preceded by a one-qubit gate half the time.

    Odd, unequal or partly filled cores are what drive hqa into parity's
    leftover spares, idle evictions and the ``place_pairs`` fallback.
    """
    rng = random.Random(seed)
    instances = []
    for i in range(count):
        k = rng.randint(2, 4)
        if i % 2:
            caps = [rng.randint(1, 5) for _ in range(k)]
            while len(set(caps)) == 1:
                caps[rng.randrange(k)] = rng.randint(1, 5)
            arch = Architecture(k, max(caps), core_capacities=tuple(caps))
        else:
            arch = Architecture(k, rng.randint(1, 5))
        n = rng.randint(2, min(8, arch.total_capacity))
        gates = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                gates.append(Gate("h", (rng.randrange(n),)))
            gates.append(Gate("cx", tuple(rng.sample(range(n), 2))))
        instances.append((Circuit(n, tuple(gates)), arch))
    return instances


def brute_force_assignment(costs: np.ndarray):
    """Reference minimum-cost matching by exhaustive permutation search.

    Returns (col_of_row, total_cost) with the lexicographically smallest
    column sequence among cost minima; permutations are generated in
    lexicographic order so the first minimum wins. None when infeasible.
    """
    import itertools

    r, k = costs.shape
    best_cols = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k), r):
        total = sum(costs[i, c] for i, c in enumerate(perm))
        if total < best_cost:
            best_cost = total
            best_cols = perm
    if best_cols is None or not np.isfinite(best_cost):
        return None
    return best_cols, best_cost

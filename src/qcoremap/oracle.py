"""Exact minimum-relocation oracle for tiny instances.

A placement of ``n`` qubits on ``k`` cores is a core vector, stored as the
flat index ``sum_q core(q) * k**q`` of a grid of ``k**n`` cells: qubit ``q``
is base-``k`` digit ``q``. A dynamic program over slices keeps, for every
cell, the fewest relocations of a valid path ending there; cells that
overfill a core or split a pair of the current slice hold a sentinel.

Relocations between two placements are the Hamming distance of their core
vectors, which is separable. So one slice transition,
``min_i cost[i] + d(i, j)``, is a distance transform taken one qubit axis at
a time: along axis ``q`` a cell keeps its cost or takes the axis minimum plus
one (Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled Functions",
Theory of Computing 2012). A slice costs O(n * k**n) and no
``states x states`` table exists. Memory is a few bytes per cell, so the
budget bounds ``k**n`` itself.
"""

from __future__ import annotations

import numpy as np

from .assignment import Architecture
from .circuit import Circuit, timeslice

# Cost of an invalid cell; one transition adds at most 1 to it before the
# minimum, so int32 cannot overflow.
UNREACHABLE = 1 << 30


class OracleInfeasibleError(RuntimeError):
    """Some slice admits no valid assignment at all."""


def _axis(grid: np.ndarray, k: int, n: int, q: int) -> np.ndarray:
    """View of a flat grid whose middle axis is qubit ``q``'s core.

    A 3-D view rather than an n-D one: numpy caps ndim at 64, and one core
    allows any qubit count.
    """
    return grid.reshape(k ** (n - 1 - q), k, k**q)


def _capacity_mask(arch: Architecture, n: int) -> np.ndarray:
    """Cells whose core loads all stay within capacity."""
    k = arch.num_cores
    fits = np.ones(k**n, dtype=bool)
    load = np.empty(k**n, dtype=np.int32)
    for core, cap in enumerate(arch.capacities):
        if cap >= n:
            continue
        load.fill(0)
        for q in range(n):
            _axis(load, k, n, q)[:, core, :] += 1
        fits &= load <= cap
    return fits


def _slice_mask(fits: np.ndarray, pairs, k: int, n: int) -> np.ndarray:
    """Cells of ``fits`` that put both qubits of every pair on one core."""
    mask = fits.copy()
    together = np.eye(k, dtype=bool)[:, None, :, None]
    for a, b in pairs:  # a < b; axes 1 and 3 are the cores of b and a
        view = mask.reshape(k ** (n - 1 - b), k, k ** (b - a - 1), k, k**a)
        view &= together
    return mask


def minimum_communications(
    circuit: Circuit, arch: Architecture, max_states: int = 1 << 23
) -> int:
    """True minimum total relocations over all valid assignment paths.

    The slice-0 assignment is free, matching the mappers' accounting.
    Before the circuit is sliced: a circuit the cores cannot hold raises
    OracleInfeasibleError, a circuit without gates (and so without slices)
    costs 0, and a grid of more than ``max_states`` cells,
    ``num_cores ** num_qubits``, raises ``ValueError``. For two or more
    cores a qubit count beyond ``max_states.bit_length()`` settles that
    last question without computing the power.
    """
    n, k = circuit.num_qubits, arch.num_cores
    if arch.total_capacity < n:
        raise OracleInfeasibleError("architecture cannot hold the circuit")
    if not circuit.qubits:
        return 0
    if (k > 1 and n > max_states.bit_length()) or k**n > max_states:
        raise ValueError(f"{k}**{n} core vectors exceed the oracle budget of {max_states}")
    sliced = timeslice(circuit)
    fits = _capacity_mask(arch, n)
    pa, pb, offsets = sliced.pairs
    low, high = np.minimum(pa, pb).tolist(), np.maximum(pa, pb).tolist()
    cost = np.zeros(k**n, dtype=np.int32)
    for t in range(sliced.num_slices):
        if t:
            for q in range(n):
                view = _axis(cost, k, n, q)
                np.minimum(view, view.min(axis=1, keepdims=True) + 1, out=view)
        lo, hi = offsets[t], offsets[t + 1]
        mask = _slice_mask(fits, zip(low[lo:hi], high[lo:hi]), k, n)
        if not mask.any():
            raise OracleInfeasibleError(f"no valid assignment for slice {t}")
        cost[~mask] = UNREACHABLE
    return int(cost.min())

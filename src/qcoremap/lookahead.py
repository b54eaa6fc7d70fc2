"""Interaction graphs weighting future two-qubit interactions by immediacy.

A pair interacting d slices ahead contributes 2**-d, summed over a bounded
look-ahead window. Pairs interacting in the current slice are marked with the
INFINITE sentinel (IEEE +inf): they must be co-located, not merely attracted.

The window is built with numpy in one vectorised pass and needs no compiled
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import TimeslicedCircuit, interacting_pairs

INFINITE = float("inf")
DEFAULT_HORIZON = 32  # 2**-32 is far below any decision threshold


@dataclass(frozen=True)
class InteractionGraph:
    """Symmetric qubit-pair weights: 0 = no edge, +inf = current-slice pair."""

    num_qubits: int
    weights: np.ndarray

    def weight(self, a: int, b: int) -> float:
        return float(self.weights[a, b])

    def edges(self) -> dict[tuple[int, int], float]:
        """Nonzero edges keyed by (low, high) qubit pair."""
        out = {}
        ii, jj = np.nonzero(self.weights)
        for a, b in zip(ii.tolist(), jj.tolist()):
            if a < b:
                out[(a, b)] = float(self.weights[a, b])
        return out

    def infinite_pairs(self) -> set[tuple[int, int]]:
        return {pair for pair, w in self.edges().items() if w == INFINITE}


def pair_arrays(sliced: TimeslicedCircuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten two-qubit gate endpoints into (a, b, slice_offsets) arrays.

    slice_offsets has length T+1; slice m's pairs live at [offsets[m], offsets[m+1]).
    """
    a_list: list[int] = []
    b_list: list[int] = []
    offsets = [0]
    for gates in sliced.slices:
        for g in gates:
            if g.is_two_qubit:
                a_list.append(g.qubits[0])
                b_list.append(g.qubits[1])
        offsets.append(len(a_list))
    return (
        np.asarray(a_list, dtype=np.int64),
        np.asarray(b_list, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
    )


def window_matrix(num_qubits, pa, pb, offsets, t, horizon) -> np.ndarray:
    """Finite look-ahead weights anchored at slice t, over pre-flattened pairs.

    One pass: each pair in slices (t, t + horizon] adds its decay 2**-d to
    both (a, b) and (b, a). The keys are interleaved pair by pair, so every
    entry receives its terms in slice order, the order of the scalar
    definition, and the sums are bit-identical to it at any horizon.
    """
    t_end = min(len(offsets) - 2, t + horizon)
    if t_end <= t:
        return np.zeros((num_qubits, num_qubits), dtype=np.float64)
    lo, hi = offsets[t + 1], offsets[t_end + 1]
    a, b = pa[lo:hi], pb[lo:hi]
    keys = np.empty(2 * (hi - lo), dtype=np.int64)
    keys[0::2] = a * num_qubits + b
    keys[1::2] = b * num_qubits + a
    counts = np.diff(offsets[t + 1 : t_end + 2])
    decay = np.repeat(np.ldexp(1.0, -np.arange(1, t_end - t + 1)), 2 * counts)
    flat = np.bincount(keys, weights=decay, minlength=num_qubits * num_qubits)
    return flat.reshape(num_qubits, num_qubits)


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


def lookahead_matrix(
    sliced: TimeslicedCircuit, t: int, horizon: int = DEFAULT_HORIZON
) -> np.ndarray:
    """All-pairs finite look-ahead weights anchored at slice t."""
    pa, pb, offsets = pair_arrays(sliced)
    return window_matrix(sliced.num_qubits, pa, pb, offsets, t, horizon)


def build_interaction_graph(
    sliced: TimeslicedCircuit, t: int, horizon: int = DEFAULT_HORIZON
) -> InteractionGraph:
    """Graph for slice t: current-slice pairs infinite, future pairs decayed finite."""
    if not 0 <= t < sliced.num_slices:
        raise ValueError(f"slice index {t} out of range for {sliced.num_slices} slices")
    weights = lookahead_matrix(sliced, t, horizon)
    for a, b in interacting_pairs(sliced.slices[t]):
        weights[a, b] = INFINITE
        weights[b, a] = INFINITE
    return InteractionGraph(sliced.num_qubits, weights)

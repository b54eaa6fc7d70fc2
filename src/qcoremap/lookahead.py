"""Look-ahead weights of future two-qubit interactions by immediacy.

A pair interacting d slices ahead contributes 2**-d, summed over a bounded
look-ahead window. Pairs interacting in the current slice are marked with the
INFINITE sentinel (IEEE +inf): they must be co-located, not merely attracted.
"""

from __future__ import annotations

import numpy as np

from .circuit import TimeslicedCircuit

INFINITE = float("inf")
DEFAULT_HORIZON = 32  # 2**-32 is far below any decision threshold


def pair_arrays(sliced: TimeslicedCircuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten two-qubit gate endpoints into read-only (a, b, slice_offsets) arrays.

    slice_offsets has length T+1; slice m's pairs live at [offsets[m], offsets[m+1]).
    The arrays are computed on the first call for a slicing and kept in its
    ``__dict__`` under ``_pairs``, the way ``timeslice`` keeps its result on
    the circuit, so both mappers share one flattening.
    """
    cached = sliced.__dict__.get("_pairs")
    if cached is not None:
        return cached
    a_list: list[int] = []
    b_list: list[int] = []
    offsets = [0]
    for gates in sliced.slices:
        for g in gates:
            if g.is_two_qubit:
                a_list.append(g.qubits[0])
                b_list.append(g.qubits[1])
        offsets.append(len(a_list))
    pairs = (
        np.asarray(a_list, dtype=np.int64),
        np.asarray(b_list, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
    )
    for array in pairs:
        array.setflags(write=False)
    sliced.__dict__["_pairs"] = pairs
    return pairs


def window_matrix(num_qubits, pa, pb, offsets, t, horizon) -> np.ndarray:
    """Finite look-ahead weights anchored at slice t, over pre-flattened pairs.

    One pass: each pair in slices (t, t + horizon] adds its decay 2**-d to
    both (a, b) and (b, a). The keys are interleaved pair by pair, so every
    entry receives its terms in slice order, the order of the scalar
    definition in tests/scalar_reference.py, and the sums are bit-identical
    to it at any horizon.
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

"""Look-ahead weights of future two-qubit interactions by immediacy.

A pair interacting d slices ahead contributes 2**-d, summed over a bounded
look-ahead window. Pairs interacting in the current slice are marked with the
INFINITE sentinel (IEEE +inf): they must be co-located, not merely attracted.
"""

from __future__ import annotations

import numpy as np

INFINITE = float("inf")
DEFAULT_HORIZON = 32  # 2**-32 is far below any decision threshold


def window_matrix(num_qubits, pa, pb, offsets, t, horizon) -> np.ndarray:
    """Finite look-ahead weights anchored at slice t, over the pairs of
    ``circuit.pair_arrays``.

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

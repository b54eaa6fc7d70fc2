"""Reference exchange-selection kernel for fgp, as a plain double loop.

This is the former loop kernel behind ``qcoremap.fgp._select_swap``, kept
unchanged as the reference that ``tests/test_kernels.py`` compares the
vectorised kernel against. It scans pairs u < v in row-major order and keeps
the first strict maximum, so it returns the lexicographically smallest
maximizing pair; the gains repeat the kernel's float operations in the same
order, so results must be identical.
"""

import numpy as np


def _select_swap_loops(sub_w, part_sums, part, locked):
    n = part.shape[0]
    best_u = -1
    best_v = -1
    best_gain = -np.inf
    for u in range(n):
        if locked[u]:
            continue
        pu = part[u]
        for v in range(u + 1, n):
            if locked[v]:
                continue
            pv = part[v]
            if pv == pu:
                continue
            gain = (
                (part_sums[u, pv] - part_sums[u, pu])
                + (part_sums[v, pu] - part_sums[v, pv])
                - 2.0 * sub_w[u, v]
            )
            if gain > best_gain:
                best_gain = gain
                best_u = u
                best_v = v
    return best_u, best_v, best_gain

"""Reference refinement for fgp, with its exchange selection as a plain double
loop.

``_select_swap_loops`` is the former loop kernel of ``qcoremap.fgp``, on
nested lists, and ``roee_refine_loops`` the former refinement loop that called
it once per swap, recomputing every gain from the part sums.
``tests/test_kernels.py`` compares ``qcoremap.fgp.roee_refine`` against it. The selection scans pairs u < v in
row-major order and keeps the first strict maximum, so it returns the
lexicographically smallest maximizing pair; the gains repeat the refinement's
float operations in the same order, so partitions must be identical. The
reference runs every pass up to the cap of 2n and raises PassCapReached
there; ``roee_refine`` must return None on exactly those inputs, however
early it stops at a repeated partition.
"""

import numpy as np

from qcoremap.fgp import _apply_swap, _cut_infinite, _part_sums, _substitute


class PassCapReached(RuntimeError):
    """The reference ran 2n exchange passes without reaching validity."""


def _select_swap_loops(sub_w, part_sums, part, locked):
    """The first strict maximum of the exchange gain over pairs u < v of
    unlocked nodes in different parts, scanned in row-major order; (-1, -1,
    -inf) when there is none. Takes nested lists."""
    free = [u for u in range(len(part)) if not locked[u]]
    best_u = -1
    best_v = -1
    best_gain = -np.inf
    for i, u in enumerate(free):
        pu = part[u]
        sums_u = part_sums[u]
        w_u = sub_w[u]
        for v in free[i + 1:]:
            pv = part[v]
            if pv == pu:
                continue
            gain = (
                (sums_u[pv] - sums_u[pu])
                + (part_sums[v][pu] - part_sums[v][pv])
                - 2.0 * w_u[v]
            )
            if gain > best_gain:
                best_gain = gain
                best_u = u
                best_v = v
    return best_u, best_v, best_gain


def roee_refine_loops(weights, initial):
    """``qcoremap.fgp.roee_refine`` with one loop selection per swap."""
    part = np.asarray(initial, dtype=np.int64).copy()
    k = int(part.max()) + 1
    sub_w, inf_a, inf_b = _substitute(weights)
    if _cut_infinite(part, inf_a, inf_b) == 0:
        return part
    cap = 2 * part.shape[0]
    part_sums = _part_sums(sub_w, part, k)
    locked = np.zeros(part.shape[0], dtype=bool)
    sub_rows = sub_w.tolist()
    passes = 0
    while passes < cap:
        u, v, _ = _select_swap_loops(sub_rows, part_sums.tolist(), part.tolist(), locked.tolist())
        if u < 0:
            passes += 1
            locked[:] = False
            continue
        _apply_swap(sub_w, part_sums, part, u, v)
        locked[u] = locked[v] = True
        if _cut_infinite(part, inf_a, inf_b) == 0:
            return part
    raise PassCapReached(f"no valid partition reached within {cap} exchange passes")

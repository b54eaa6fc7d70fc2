"""Baseline mapper: per-slice partition refinement of the look-ahead
interaction graph by pairwise exchanges, into one part per core of that core's
capacity. An exchange keeps every part's size, so cores of unequal capacity
need nothing further.

The refinement is Kernighan-Lin style: within a pass, repeatedly take the
highest-gain swap among unlocked cross-part pairs and lock both qubits. This
relaxed variant stops at the first configuration that cuts no must-co-locate
(infinite) edge, even at negative finite gain. Infinite edge weights enter
gain arithmetic as a finite dominant constant M (total finite weight + 1) so
that uncutting one always beats any finite rearrangement; validity itself is
always re-checked structurally.

Two shortcuts keep the per-slice cost low without changing any result. A
pass keeps one matrix of exchange gains over all node pairs: a swap changes
the part sums only in the two parts it touches, so only the gains with an
endpoint in those parts are recomputed (the incremental gains of
Kernighan-Lin). And a slice whose pairs the incoming partition already
co-locates is passed through without building its interaction graph, since
the relaxed refinement would return it unchanged.

Where the refinement cycles, ``roee_refine`` returns None and
``assignment.place_pairs``, which hqa shares, places the slice, so fgp too is
total on feasible input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import Architecture, AssignmentPath, initial_assignment
from .assignment import check_pair_slots, place_pairs, unchecked_assignment
from .circuit import Circuit, timeslice
from .lookahead import DEFAULT_HORIZON, INFINITE, window_matrix


@dataclass(frozen=True)
class FgpConfig:
    """fgp has no settings. This empty class, and ``fgp_map_circuit``'s third
    parameter, are kept only because the benchmark's tiny-exact workload
    builds one and passes it.
    """


def _substitute(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace infinite entries by the dominant finite constant M."""
    infinite = np.isinf(weights)
    finite_total = weights[~infinite].sum()
    dominant = finite_total / 2.0 + 1.0  # edge sums count both triangle halves
    sub = np.where(infinite, dominant, weights)
    # The infinite pairs u < v in row-major order.
    ia, ib = np.divmod(np.flatnonzero(infinite), weights.shape[1])
    upper = ia < ib
    return sub, ia[upper], ib[upper]


def _part_sums(sub_w: np.ndarray, part: np.ndarray, num_parts: int) -> np.ndarray:
    onehot = np.zeros((part.shape[0], num_parts))
    onehot[np.arange(part.shape[0]), part] = 1.0
    return sub_w @ onehot


def _apply_swap(sub_w, part_sums, part, u, v):
    pu, pv = part[u], part[v]
    part[u], part[v] = pv, pu
    delta = sub_w[:, v] - sub_w[:, u]
    part_sums[:, pu] += delta
    part_sums[:, pv] -= delta


def _cut_infinite(part, inf_a, inf_b) -> int:
    return int(np.count_nonzero(part[inf_a] != part[inf_b]))


def _gain_rows(part_sums, part, locked, twice_w, rows):
    """Exchange gains of each node in ``rows`` against every node.

    The gain of swapping u and v across parts pu != pv is
      (part_sums[u, pv] - part_sums[u, pu]) + (part_sums[v, pu] - part_sums[v, pv])
      - 2 * sub_w[u, v],
    evaluated in that order. It is -inf where u and v share a part and
    wherever either is locked.
    """
    # d[u, q] = part_sums[u, q] - part_sums[u, part[u]], what moving u alone
    # into part q gains; -inf on u's own part and, through an own-part sum of
    # +inf, on a locked u's row.
    nodes = np.arange(part.shape[0])
    own = part_sums[nodes, part]
    own[locked] = np.inf
    d = part_sums - own[:, None]
    d[nodes, part] = -np.inf
    gains = d[rows].take(part, axis=1)
    gains += d.T[part[rows]]
    gains -= twice_w[rows]
    return gains


def roee_refine(weights: np.ndarray, initial):
    """Relaxed refinement: swap best-gain pairs until no infinite edge is cut.

    ``weights`` is a symmetric float array over every slot of the partition,
    dummy slots included: 0 for no edge, a finite look-ahead weight, or
    INFINITE for a pair that must share a part. ``initial`` gives each slot's
    part; a swap keeps every part's size, so the sizes need not be equal.
    Weights that are not exactly symmetric raise ValueError.

    Each pass builds one n x n matrix of exchange gains, -inf on same-part
    and locked pairs, and takes the first row-major argmax as its next swap:
    the matrix is symmetric, so that is the lexicographically smallest
    maximizing pair (u < v). A swap of u and v changes the part sums only in
    their two parts, so only the gains of nodes in those parts are rewritten,
    row and mirrored column; u and v are locked. The pass ends when no
    finite gain is left.

    Returns ``initial`` unchanged when it is already valid. A pass that ends
    without validity is committed whole and a fresh pass starts. Returns None
    once a pass ends on a partition an earlier pass started from (on fgp's
    dyadic weights the part sums are exact, so a pass depends only on its start
    and a repeat is final), or after 2 * len(initial) passes.
    """
    if not np.array_equal(weights, weights.T):
        raise ValueError("weights must be symmetric")
    part = np.asarray(initial, dtype=np.int64).copy()
    k = int(part.max()) + 1
    sub_w, inf_a, inf_b = _substitute(weights)
    if _cut_infinite(part, inf_a, inf_b) == 0:
        return part
    n = part.shape[0]
    cap = 2 * n
    twice_w = 2.0 * sub_w
    part_sums = _part_sums(sub_w, part, k)
    seen = {part.tobytes()}
    for _ in range(cap):
        locked = np.zeros(n, dtype=bool)
        gains = _gain_rows(part_sums, part, locked, twice_w, np.arange(n))
        while True:
            u, v = divmod(int(gains.argmax()), n)
            if gains[u, v] == -np.inf:
                break
            pu, pv = part[u], part[v]
            _apply_swap(sub_w, part_sums, part, u, v)
            if _cut_infinite(part, inf_a, inf_b) == 0:
                return part
            # Taken before u and v lock, so their rows are rewritten too, to -inf.
            rows = (((part == pu) | (part == pv)) & ~locked).nonzero()[0]
            locked[u] = locked[v] = True
            block = _gain_rows(part_sums, part, locked, twice_w, rows)
            gains[rows] = block
            gains[:, rows] = block.T
        if part.tobytes() in seen:
            return None
        seen.add(part.tobytes())
    return None


def fgp_map_circuit(
    circuit: Circuit, arch: Architecture, config: FgpConfig = FgpConfig()
) -> AssignmentPath:
    """Re-partition the interaction graph at every slice, seeding each slice
    with the previous partition.

    The partition has one slot per unit of ``arch.total_capacity`` and starts
    from the block layout of ``initial_assignment``, so each core's part has
    that core's capacity. Slots beyond the circuit (when it does not fill the
    architecture) hold zero-weight dummy qubits that may be swapped but never
    appear in the output assignments. A slice the refinement cannot make
    valid is placed by ``place_pairs`` over every padded slot; the dummies, the
    highest indices, take the leftover room, so every part stays full.
    ``config`` is unused (see ``FgpConfig``).
    """
    num_q = circuit.num_qubits
    padded = arch.total_capacity
    initial_assignment(num_q, arch)  # capacity check with the shared error
    sliced = timeslice(circuit)
    pa, pb, offsets = sliced.pairs
    check_pair_slots(offsets, arch)

    part = np.array(initial_assignment(padded, arch).core_of, dtype=np.int64)
    assignments = []
    for t in range(sliced.num_slices):
        a, b = pa[offsets[t]:offsets[t + 1]], pb[offsets[t]:offsets[t + 1]]
        # A partition that already co-locates every current pair is what
        # roee_refine would return unchanged: skip building the weights.
        if (part[a] != part[b]).any():
            weights = np.zeros((padded, padded))
            weights[:num_q, :num_q] = window_matrix(num_q, pa, pb, offsets, t, DEFAULT_HORIZON)
            weights[a, b] = INFINITE
            weights[b, a] = INFINITE
            fresh = roee_refine(weights, part)
            part = np.asarray(place_pairs(part.tolist(), a, b, arch)) if fresh is None else fresh
        assignments.append(unchecked_assignment(tuple(part[:num_q].tolist())))
    return AssignmentPath(
        num_qubits=num_q,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

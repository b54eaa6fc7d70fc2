"""Baseline mapper: per-slice balanced partition refinement of the look-ahead
interaction graph by pairwise exchanges.

The refinement is Kernighan-Lin style: within a pass, repeatedly take the
highest-gain swap among unlocked cross-part pairs and lock both qubits. This
relaxed variant stops at the first configuration that cuts no must-co-locate
(infinite) edge, even at negative finite gain. Infinite edge weights enter
gain arithmetic as a finite dominant constant M (total finite weight + 1) so
that uncutting one always beats any finite rearrangement; validity itself is
always re-checked structurally.

Two shortcuts keep the per-slice cost low without changing any result. The
exchange kernel evaluates gains only on the block of still-unlocked nodes,
which shrinks by two with every swap of a pass. And a slice whose pairs the
incoming partition already co-locates is passed through without building its
interaction graph, since the relaxed refinement would return it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import Architecture, Assignment, AssignmentPath, initial_assignment
from .circuit import Circuit, timeslice
from .lookahead import DEFAULT_HORIZON, INFINITE, pair_arrays, window_matrix


class ValidityUnreachableError(RuntimeError):
    """Exchange passes exhausted without reaching a valid partition."""


@dataclass(frozen=True)
class FgpConfig:
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


_LOWER = np.zeros((0, 0), dtype=bool)


def _lower_with_diagonal(m: int) -> np.ndarray:
    """Mask of the entries on or below the diagonal of an m x m matrix.

    The top-left m x m block of a larger such mask is itself one, so a single
    cached mask of the largest size seen so far serves every call as a view.
    """
    global _LOWER
    if _LOWER.shape[0] < m:
        mask = np.tril(np.ones((m, m), dtype=bool))
        mask.flags.writeable = False
        _LOWER = mask
    return _LOWER[:m, :m]


def _select_swap(sub_w, part_sums, part, locked):
    # Works on the block of unlocked nodes only: locked rows and columns can
    # never be chosen, so they are not computed. The gain of swapping u and v
    # across parts pu != pv is
    #   (part_sums[u, pv] - part_sums[u, pu]) + (part_sums[v, pu] - part_sums[v, pv])
    #   - 2 * sub_w[u, v],
    # evaluated in that order. The unlocked indices ascend, so the first
    # row-major argmax in the block is the lexicographically smallest
    # maximizing pair (u < v).
    free = np.flatnonzero(~locked)
    m = free.shape[0]
    free_part = part[free]
    # toward[i, j] = sum of free[i]'s edges into free[j]'s part; the diagonal
    # is each node's sum into its own part.
    toward = part_sums[free][:, free_part]
    a = toward - toward.diagonal()[:, None]
    gains = a + a.T
    gains -= 2.0 * sub_w[free][:, free]
    blocked = free_part[:, None] == free_part[None, :]
    blocked |= _lower_with_diagonal(m)
    if blocked.all():
        return -1, -1, -np.inf
    np.putmask(gains, blocked, -np.inf)
    i, j = divmod(int(np.argmax(gains)), m)
    return int(free[i]), int(free[j]), float(gains[i, j])


def _substitute(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace infinite entries by the dominant finite constant M."""
    infinite = np.isinf(weights)
    finite_total = weights[~infinite].sum()
    dominant = finite_total / 2.0 + 1.0  # edge sums count both triangle halves
    sub = np.where(infinite, dominant, weights)
    ia, ib = np.nonzero(np.triu(infinite, k=1))
    return sub, ia.astype(np.int64), ib.astype(np.int64)


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


def roee_refine(weights: np.ndarray, initial):
    """Relaxed refinement: swap best-gain pairs until no infinite edge is cut.

    ``weights`` is a symmetric float array over every slot of the partition,
    dummy slots included: 0 for no edge, a finite look-ahead weight, or
    INFINITE for a pair that must share a part. ``initial`` gives each slot's
    part, with all parts the same size.

    Returns ``initial`` unchanged when it is already valid. A pass that ends
    without validity is committed whole and a fresh pass starts; after
    2 * len(initial) passes ValidityUnreachableError is raised.
    """
    part = np.asarray(initial, dtype=np.int64).copy()
    k = int(part.max()) + 1
    sub_w, inf_a, inf_b = _substitute(weights)
    if _cut_infinite(part, inf_a, inf_b) == 0:
        return part
    cap = 2 * part.shape[0]
    part_sums = _part_sums(sub_w, part, k)
    locked = np.zeros(part.shape[0], dtype=bool)
    passes = 0
    while passes < cap:
        u, v, _ = _select_swap(sub_w, part_sums, part, locked)
        if u < 0:
            passes += 1
            locked[:] = False
            continue
        _apply_swap(sub_w, part_sums, part, u, v)
        locked[u] = locked[v] = True
        if _cut_infinite(part, inf_a, inf_b) == 0:
            return part
    raise ValidityUnreachableError(
        f"no valid partition reached within {cap} exchange passes"
    )


def fgp_map_circuit(
    circuit: Circuit, arch: Architecture, config: FgpConfig = FgpConfig()
) -> AssignmentPath:
    """Re-partition the interaction graph at every slice, seeding each slice
    with the previous partition.

    Qubit slots beyond the circuit (when it does not fill the architecture)
    are padded with zero-weight dummy qubits that may be swapped but never
    appear in the output assignments.
    """
    if not arch.is_uniform:
        raise ValueError("partition refinement requires uniform core capacities")
    num_q = circuit.num_qubits
    padded = arch.num_cores * arch.capacity
    initial_assignment(num_q, arch)  # capacity check with the shared error
    sliced = timeslice(circuit)
    pa, pb, offsets = pair_arrays(sliced)

    part = np.arange(padded, dtype=np.int64) // arch.capacity
    assignments = []
    for t in range(sliced.num_slices):
        a, b = pa[offsets[t]:offsets[t + 1]], pb[offsets[t]:offsets[t + 1]]
        # A partition that already co-locates every current pair is what
        # roee_refine would return unchanged: skip building the weights.
        if (part[a] != part[b]).any():
            weights = np.zeros((padded, padded))
            weights[:num_q, :num_q] = window_matrix(num_q, pa, pb, offsets, t, config.horizon)
            weights[a, b] = INFINITE
            weights[b, a] = INFINITE
            part = roee_refine(weights, part)
        assignments.append(Assignment(tuple(part[:num_q].tolist())))
    return AssignmentPath(
        num_qubits=num_q,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

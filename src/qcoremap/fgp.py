"""Baseline mapper: per-slice balanced partition refinement of the look-ahead
interaction graph by pairwise exchanges.

The refinement is Kernighan-Lin style: within a pass, repeatedly take the
highest-gain swap among unlocked cross-part pairs and lock both qubits. The
full variant commits the best cumulative prefix of each pass while it
improves; the relaxed variant used for mapping stops at the first
configuration that cuts no must-co-locate (infinite) edge, even at negative
finite gain. Infinite edge weights enter gain arithmetic as a finite dominant
constant M (total finite weight + 1) so that uncutting one always beats any
finite rearrangement; validity itself is always re-checked structurally.

Two shortcuts keep the per-slice cost low without changing any result. The
exchange kernel evaluates gains only on the block of still-unlocked nodes,
which shrinks by two with every swap of a pass. And a slice whose pairs the
incoming partition already co-locates is passed through without building its
interaction graph, since the relaxed refinement would return it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jit import NUMBA_ENABLED, jit
from .assignment import Architecture, Assignment, AssignmentPath, initial_assignment
from .circuit import Circuit, timeslice
from .lookahead import DEFAULT_HORIZON, INFINITE, InteractionGraph, pair_arrays, window_matrix


class ValidityUnreachableError(RuntimeError):
    """Exchange passes exhausted without reaching a valid partition."""


# Improvement threshold for committing a pass. Look-ahead weights are dyadic,
# so every true positive gain is at least 2**-horizon and clears this easily;
# the threshold only rules out float-noise gains on arbitrary real weights,
# which would otherwise cycle forever.
GAIN_TOL = 1e-12


@dataclass(frozen=True)
class FgpConfig:
    horizon: int = DEFAULT_HORIZON
    continue_after_valid: bool = False
    max_passes: int | None = None  # defaults to 2 * num_qubits

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def cut_weight(graph: InteractionGraph, part_of) -> float:
    """Total weight of edges crossing parts; +inf if any infinite edge is cut."""
    part = np.asarray(part_of)
    n = graph.num_qubits
    cross = part[:, None] != part[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return float(graph.weights[cross & upper].sum())


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


def _select_swap_numpy(sub_w, part_sums, part, locked):
    # Pure numpy path over the block of unlocked nodes only: locked rows and
    # columns can never be chosen, so they are not computed. Each gain is the
    # loop scan's expression with the same operations in the same order, so
    # the values are bit-identical. The unlocked indices ascend, so the first
    # row-major argmax in the block is the lexicographically smallest
    # maximizing pair (u < v), same as the loop scan.
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


_select_swap = jit(_select_swap_loops) if NUMBA_ENABLED else _select_swap_numpy


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


def oee_refine(graph: InteractionGraph, initial, num_parts: int | None = None):
    """Full exchange refinement: per-pass locking, best-prefix commit, repeat
    while the best prefix strictly improves. Returns a balanced partition of
    the same shape as ``initial``.
    """
    part = np.asarray(initial, dtype=np.int64).copy()
    k = int(part.max()) + 1 if num_parts is None else num_parts
    sub_w, _, _ = _substitute(graph.weights)
    for _ in range(max(16, 4 * part.shape[0])):  # safety cap; gains strictly shrink
        part_sums = _part_sums(sub_w, part, k)  # fresh each pass: no drift build-up
        snapshot = part.copy()
        locked = np.zeros(part.shape[0], dtype=bool)
        swaps: list[tuple[int, int]] = []
        cumulative: list[float] = []
        total = 0.0
        while True:
            u, v, gain = _select_swap(sub_w, part_sums, part, locked)
            if u < 0:
                break
            _apply_swap(sub_w, part_sums, part, u, v)
            locked[u] = locked[v] = True
            swaps.append((u, v))
            total += gain
            cumulative.append(total)
        if not swaps:
            break
        best = int(np.argmax(cumulative))  # earliest max: shortest best prefix
        if cumulative[best] <= GAIN_TOL:
            part = snapshot
            break
        for u, v in reversed(swaps[best + 1:]):
            _apply_swap(sub_w, part_sums, part, u, v)
    return part


def roee_refine(
    graph: InteractionGraph,
    initial,
    continue_after_valid: bool = False,
    max_passes: int | None = None,
):
    """Relaxed refinement: swap best-gain pairs until no infinite edge is cut.

    Returns ``initial`` unchanged when it is already valid. A pass that ends
    without validity is committed whole and a fresh pass starts; after
    ``max_passes`` (default 2 * num_qubits) passes ValidityUnreachableError is
    raised. With ``continue_after_valid`` the full refinement then polishes
    the finite cut, which cannot re-cut an infinite edge.
    """
    part = np.asarray(initial, dtype=np.int64).copy()
    k = int(part.max()) + 1
    sub_w, inf_a, inf_b = _substitute(graph.weights)
    if _cut_infinite(part, inf_a, inf_b) == 0:
        if continue_after_valid:
            return oee_refine(graph, part, num_parts=k)
        return part
    cap = max_passes if max_passes is not None else 2 * graph.num_qubits
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
            if continue_after_valid:
                part = oee_refine(graph, part, num_parts=k)
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
        # roee_refine would return unchanged: skip building the graph.
        if config.continue_after_valid or (part[a] != part[b]).any():
            weights = np.zeros((padded, padded))
            weights[:num_q, :num_q] = window_matrix(num_q, pa, pb, offsets, t, config.horizon)
            weights[a, b] = INFINITE
            weights[b, a] = INFINITE
            graph = InteractionGraph(padded, weights)
            part = np.asarray(
                roee_refine(graph, part, config.continue_after_valid, config.max_passes)
            )
        assignments.append(Assignment(tuple(part[:num_q].tolist())))
    return AssignmentPath(
        num_qubits=num_q,
        num_cores=arch.num_cores,
        capacity=arch.capacity,
        assignments=tuple(assignments),
    )

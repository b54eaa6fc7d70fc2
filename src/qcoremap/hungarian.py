"""Exact rectangular minimum-cost assignment (Kuhn-Munkres family).

Cost matrices are float64 arrays; entries of +inf (FORBIDDEN) can never be
selected and are handled natively rather than through a large finite constant,
so dual potentials stay clean. Rows must not outnumber columns. A rectangular
r x k input is solved by augmenting its r rows only; the k - r columns no
augmentation reaches stay unmatched with zero duals, so the zero-cost
padding rows of the square problem are optimal on them without being
augmented.

Determinism contract: among all minimum-cost matchings, the one whose column
sequence (col_of_row) is lexicographically smallest is returned. This is
achieved by extracting the matching greedily over the tight subgraph of the
optimal dual potentials, checking completability with augmenting paths.

The kernels run on nested lists of Python floats, converted once per call.
The matrices are small (at most one row and column per core) and the kernels
are scalar loops, where indexing a list costs a fraction of indexing a numpy
array. IEEE double arithmetic is the same in both, so the duals and the
matching do not depend on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORBIDDEN = float("inf")
TOL = 1e-9  # absolute tolerance for real-valued cost comparisons


class InfeasibleMatrixError(ValueError):
    """No full matching avoids the forbidden entries."""


@dataclass(frozen=True)
class AssignmentSolution:
    """Injective row -> column matching and its total cost."""

    col_of_row: tuple[int, ...]
    total_cost: float


def _jv_rectangular(cost, k):
    """Shortest-augmenting-path assignment of the r rows of ``cost`` to k >= r
    columns.

    ``cost`` is a list of r rows of k Python floats. Returns (status,
    col_of_row, u, v) as lists, with u of length r and v of length k; status 1
    means no full matching avoids the +inf entries. Column index k is a
    virtual start column. A column that no augmentation reaches is never
    matched and keeps v = 0, and every v is <= 0: so zero-cost padding rows
    with u = 0 are dual-feasible, and tight exactly on the unmatched columns.
    The float operations are the first r augmentations of a square solve on
    the zero-padded matrix (``tests/hungarian_reference.py``). Where the
    arithmetic is exact, as on integer and dyadic costs, that solve's
    padding rows change no dual and take the unmatched columns in ascending
    order; on rounded reals they can move a dual by a rounding error, far
    inside TOL.
    """
    r = len(cost)
    inf = FORBIDDEN
    u = [0.0] * r
    v = [0.0] * (k + 1)
    p = [-1] * (k + 1)  # p[j] = row matched to column j
    way = [0] * (k + 1)
    for i in range(r):
        p[k] = i
        j0 = k
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = cost[i0]
            ui = u[i0]
            delta = inf
            j1 = -1
            for j in range(k):
                if not used[j]:
                    cur = row[j] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if j1 < 0:
                return 1, [-1] * r, u, v[:k]
            for j in range(k + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] < 0:
                break
        while j0 != k:  # augment along the alternating path
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [-1] * r
    for j in range(k):
        if p[j] >= 0:
            col_of_row[p[j]] = j
    return 0, col_of_row, u, v[:k]


def _lex_canonical(cost, u, v, col_of_row, r, tol):
    """Rewrite the matching into the lexicographically smallest optimal one.

    Optimal matchings are exactly the perfect matchings of the tight subgraph
    (reduced cost <= tol) of the optimal duals. Rows 0..r-1 are fixed in
    ascending order to the smallest tight column that still leaves the rest
    completable, checked by BFS augmentation. Works on lists of a square
    matrix and its duals and rewrites ``col_of_row`` in place.
    """
    n = len(cost)
    row_of_col = [-1] * n
    for i in range(n):
        row_of_col[col_of_row[i]] = i
    locked = [False] * n
    from_row = [0] * n
    for i in range(r):
        cur = col_of_row[i]
        row = cost[i]
        ui = u[i]
        for j in range(n):
            if j == cur:
                break  # nothing smaller is completable; keep the current column
            if locked[j]:
                continue
            if not row[j] - ui - v[j] <= tol:
                continue
            k = row_of_col[j]
            col_of_row[i] = j
            row_of_col[j] = i
            row_of_col[cur] = -1
            if k < 0:
                cur = j
                break
            # Row k lost column j; seek an alternating path k -> ... -> cur.
            visited = [False] * n
            visited[j] = True
            queue = [k]
            head = 0
            found = False
            while head < len(queue) and not found:
                x = queue[head]
                head += 1
                xrow = cost[x]
                ux = u[x]
                for c in range(n):
                    if visited[c] or locked[c]:
                        continue
                    if not xrow[c] - ux - v[c] <= tol:
                        continue
                    visited[c] = True
                    from_row[c] = x
                    if row_of_col[c] < 0:
                        cc = c
                        while True:
                            x2 = from_row[cc]
                            nxt = col_of_row[x2]
                            col_of_row[x2] = cc
                            row_of_col[cc] = x2
                            if x2 == k:
                                break
                            cc = nxt
                        found = True
                        break
                    queue.append(row_of_col[c])
            if found:
                cur = j
                break
            col_of_row[i] = cur  # rollback
            row_of_col[cur] = i
            col_of_row[k] = j
            row_of_col[j] = k
        locked[cur] = True
    return col_of_row


def _validated(costs) -> np.ndarray:
    m = np.ascontiguousarray(costs, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {m.shape}")
    if np.isnan(m).any() or np.isneginf(m).any():
        raise ValueError("cost matrix entries must be finite or +inf")
    return m


def shift_to_nonnegative(costs) -> np.ndarray:
    """Subtract the global minimum finite entry; forbidden entries stay +inf.

    The argmin matching is invariant under this shift.
    """
    m = _validated(costs)
    finite = np.isfinite(m)
    if not finite.any():
        raise ValueError("cost matrix has no finite entry")
    return m - m[finite].min()


def solve(costs) -> AssignmentSolution:
    """Minimum-cost injective row -> column matching.

    Requires rows <= columns and at least one full matching that avoids
    forbidden (+inf) entries; otherwise InfeasibleMatrixError.
    """
    m = _validated(costs)
    r, k = m.shape
    if r > k:
        raise ValueError(f"rows must not outnumber columns, got {r}x{k}")
    rows = m.tolist()
    status, col_of_row, u, v = _jv_rectangular(rows, k)
    if status != 0:
        raise InfeasibleMatrixError(
            "no full matching avoids the forbidden entries"
        )
    if r < k:
        # Zero-cost padding rows with u = 0 take the unmatched columns in
        # ascending order; canonicalization runs on the padded square.
        matched = set(col_of_row)
        col_of_row += [j for j in range(k) if j not in matched]
        u += [0.0] * (k - r)
        rows += [[0.0] * k] * (k - r)  # padding rows are never written
    cols = tuple(_lex_canonical(rows, u, v, col_of_row, r, TOL)[:r])
    total = float(sum(m[i, c] for i, c in enumerate(cols)))
    return AssignmentSolution(cols, total)

"""Exact rectangular minimum-cost assignment (Kuhn-Munkres family).

A cost matrix is a list of equal-length rows of numbers, or a 2-D array,
which is converted once with ``tolist``; both take the same path. Entries of
+inf (FORBIDDEN) can never be selected and are handled natively rather than
through a large finite constant, so dual potentials stay clean. NaN and -inf
are rejected, and rows must not outnumber columns. A rectangular r x k input
is solved by augmenting its r rows only; the k - r columns no augmentation
reaches stay unmatched with zero duals, so the zero-cost padding rows of the
square problem are optimal on them without being augmented.

Determinism contract: among all minimum-cost matchings, the one whose column
sequence (col_of_row) is lexicographically smallest is returned. This is
achieved by extracting the matching greedily over the tight subgraph of the
optimal dual potentials, checking completability with augmenting paths.

The checks and the kernels are scalar loops over nested lists of Python
numbers. The matrices are small (at most one row and column per core): on
them, indexing a list costs a fraction of indexing a numpy array, and
building an array would cost more than the checks. IEEE double arithmetic
is the same in both, so the duals and the matching do not depend on the
representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORBIDDEN = float("inf")
_NEG_INF = float("-inf")
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

    Each augmentation keeps the columns outside its tree in an ascending
    list and the tree's columns in another, so the search for the next
    column and the dual update visit only the columns they act on. The
    free columns are met in ascending order and each tree column has its
    own row, so every float operation and tie is that of the reference's
    scan over all k + 1 columns with a used flag.
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
        minv = [inf] * k
        free = list(range(k))  # columns outside the tree, ascending
        tree = []  # columns in the tree, the start column k first
        while True:
            tree.append(j0)
            i0 = p[j0]
            row = cost[i0]
            ui = u[i0]
            delta = inf
            j1 = -1
            for j in free:
                cur = row[j] - ui - v[j]
                m = minv[j]
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < delta:
                    delta = m
                    j1 = j
            if j1 < 0:
                return 1, [-1] * r, u, v[:k]
            for j in tree:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] < 0:
                break
            free.remove(j0)
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


def _validated(costs) -> list:
    """The matrix as a list of r rows of k numbers, r <= k, none NaN or -inf."""
    rows = costs.tolist() if isinstance(costs, np.ndarray) else costs
    try:
        r, k = len(rows), len(rows[0])
        for row in rows:
            if len(row) != k:
                raise ValueError(f"cost matrix rows must all have {k} entries, got {len(row)}")
            for x in row:
                if not x > _NEG_INF:
                    raise ValueError("cost matrix entries must be finite or +inf")
    except (TypeError, IndexError):
        raise ValueError("cost matrix must be 2-D and non-empty, with numeric entries") from None
    if k < 1:
        raise ValueError("cost matrix must be 2-D and non-empty")
    if r > k:
        raise ValueError(f"rows must not outnumber columns, got {r}x{k}")
    return rows


def solve(costs) -> AssignmentSolution:
    """Minimum-cost injective row -> column matching.

    ``costs`` is a 2-D array or a list of equal-length rows of numbers; an
    array is converted once with ``tolist``. Requires rows <= columns and at
    least one full matching that avoids forbidden (+inf) entries; otherwise
    InfeasibleMatrixError.
    """
    rows = _validated(costs)
    r, k = len(rows), len(rows[0])
    status, col_of_row, u, v = _jv_rectangular(rows, k)
    if status != 0:
        raise InfeasibleMatrixError(
            "no full matching avoids the forbidden entries"
        )
    square = rows
    if r < k:
        # Zero-cost padding rows with u = 0 take the unmatched columns in
        # ascending order; canonicalization runs on the padded square.
        matched = set(col_of_row)
        col_of_row += [j for j in range(k) if j not in matched]
        u += [0.0] * (k - r)
        square = list(rows) + [[0.0] * k] * (k - r)  # padding rows are never written
    cols = tuple(_lex_canonical(square, u, v, col_of_row, r, TOL)[:r])
    total = 0.0
    for row, c in zip(rows, cols):
        total += row[c]
    return AssignmentSolution(cols, total)

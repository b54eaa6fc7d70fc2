"""Reference Hungarian kernels on numpy arrays.

These are the array versions of ``qcoremap.hungarian._jv_square`` and
``_lex_canonical``, kept unchanged as the reference that
``tests/test_kernels.py`` compares the list-based kernels against: the same
float operations in the same order, so outputs must be bit-identical.
"""

import numpy as np


def _jv_square(cost):
    """Shortest-augmenting-path assignment on a square matrix.

    Returns (status, col_of_row, u, v); status 1 means no perfect matching
    avoids the +inf entries. Column index n is a virtual start column.
    """
    n = cost.shape[0]
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.full(n + 1, -1, dtype=np.int64)  # p[j] = row matched to column j
    way = np.zeros(n + 1, dtype=np.int64)
    col_of_row = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        p[n] = i
        j0 = n
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=np.bool_)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            for j in range(n):
                if not used[j]:
                    cur = cost[i0, j] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if j1 < 0:
                return 1, col_of_row, u[:n], v[:n]
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] < 0:
                break
        while j0 != n:  # augment along the alternating path
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    for j in range(n):
        col_of_row[p[j]] = j
    return 0, col_of_row, u[:n], v[:n]


def _lex_canonical(cost, u, v, col_of_row, r, tol):
    """Rewrite the matching into the lexicographically smallest optimal one.

    Optimal matchings are exactly the perfect matchings of the tight subgraph
    (reduced cost <= tol) of the optimal duals. Rows 0..r-1 are fixed in
    ascending order to the smallest tight column that still leaves the rest
    completable, checked by BFS augmentation.
    """
    n = cost.shape[0]
    row_of_col = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        row_of_col[col_of_row[i]] = i
    locked = np.zeros(n, dtype=np.bool_)
    from_row = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    queue = np.empty(n, dtype=np.int64)
    for i in range(r):
        cur = col_of_row[i]
        for j in range(n):
            if j == cur:
                break  # nothing smaller is completable; keep the current column
            if locked[j]:
                continue
            if not cost[i, j] - u[i] - v[j] <= tol:
                continue
            k = row_of_col[j]
            col_of_row[i] = j
            row_of_col[j] = i
            row_of_col[cur] = -1
            if k < 0:
                cur = j
                break
            # Row k lost column j; seek an alternating path k -> ... -> cur.
            visited[:] = False
            visited[j] = True
            head = 0
            tail = 0
            queue[tail] = k
            tail += 1
            found = False
            while head < tail and not found:
                x = queue[head]
                head += 1
                for c in range(n):
                    if visited[c] or locked[c]:
                        continue
                    if not cost[x, c] - u[x] - v[c] <= tol:
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
                    queue[tail] = row_of_col[c]
                    tail += 1
            if found:
                cur = j
                break
            col_of_row[i] = cur  # rollback
            row_of_col[cur] = i
            col_of_row[k] = j
            row_of_col[j] = k
        locked[cur] = True
    return col_of_row

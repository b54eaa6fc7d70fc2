import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcoremap import InfeasibleMatrixError, shift_to_nonnegative, solve
from qcoremap.hungarian import TOL, _jv_rectangular

import hungarian_reference as reference
from conftest import brute_force_assignment

INF = float("inf")


def padded_square_reference(m):
    """The reference solve: the array square kernel and canonicalization on
    m padded with zero-cost rows, first r columns; None when infeasible."""
    r, k = m.shape
    square = np.zeros((k, k))
    square[:r] = m
    status, cols, u, v = reference._jv_square(square)
    if status:
        return None
    return tuple(reference._lex_canonical(square, u, v, cols, r, TOL)[:r].tolist())


@st.composite
def rectangular_matrices(draw):
    """r x k matrices, r <= k <= 8, of tied small costs, halves, reals and
    +inf entries, dense enough in +inf that some have no full matching."""
    k = draw(st.integers(1, 8))
    r = draw(st.integers(1, k))
    elements = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.5, INF, INF]),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )
    return draw(arrays(np.float64, (r, k), elements=elements))


class TestSolveExamples:
    def test_unique_optimum(self):
        sol = solve(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert sol.col_of_row == (0, 1)
        assert sol.total_cost == 2.0

    def test_single_cell(self):
        sol = solve(np.array([[5.0]]))
        assert sol.col_of_row == (0,)
        assert sol.total_cost == 5.0

    def test_lexicographic_tie_break(self):
        sol = solve(np.ones((2, 2)))
        assert sol.col_of_row == (0, 1)
        assert sol.total_cost == 2.0

    def test_lexicographic_prefers_earlier_rows(self):
        # Both matchings cost 3; (0, 1) beats (1, 0) lexicographically.
        sol = solve(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert sol.col_of_row == (0, 1)

    def test_rectangular(self):
        sol = solve(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0]]))
        assert sol.col_of_row == (1, 0)
        assert sol.total_cost == 3.0

    def test_negative_costs(self):
        sol = solve(np.array([[-1.0, 0.0], [0.0, -2.0]]))
        assert sol.col_of_row == (0, 1)
        assert sol.total_cost == -3.0

    def test_forbidden_never_selected(self):
        sol = solve(np.array([[INF, 1.0], [1.0, 5.0]]))
        assert sol.col_of_row == (1, 0)

    def test_all_forbidden_row_infeasible(self):
        with pytest.raises(InfeasibleMatrixError):
            solve(np.array([[INF, INF], [1.0, 1.0]]))

    def test_structural_infeasibility(self):
        # Both rows can only use column 0.
        with pytest.raises(InfeasibleMatrixError):
            solve(np.array([[1.0, INF], [1.0, INF]]))

    def test_rows_exceeding_cols_rejected(self):
        with pytest.raises(ValueError):
            solve(np.zeros((3, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            solve(np.array([[np.nan, 1.0], [1.0, 1.0]]))


class TestShift:
    def test_negative_shifted_out(self):
        out = shift_to_nonnegative(np.array([[-0.5, 0.5]]))
        assert out.tolist() == [[0.0, 1.0]]

    def test_all_equal_becomes_zero(self):
        out = shift_to_nonnegative(np.full((3, 3), 7.0))
        assert (out == 0.0).all()

    def test_forbidden_untouched(self):
        out = shift_to_nonnegative(np.array([[2.0, INF], [3.0, 4.0]]))
        assert out[0, 1] == INF
        assert out[0, 0] == 0.0

    def test_no_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            shift_to_nonnegative(np.full((2, 2), INF))

    def test_argmin_preserved_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.uniform(-5, 5, size=(5, 5))
            assert solve(shift_to_nonnegative(m)).col_of_row == solve(m).col_of_row


class TestOracleEquivalence:
    def test_square_random_integer_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            n = int(rng.integers(2, 6))
            m = rng.integers(0, 10, size=(n, n)).astype(float)
            sol = solve(m)
            cols, cost = brute_force_assignment(m)
            assert sol.total_cost == cost
            assert sol.col_of_row == cols

    def test_rectangular_random_integer_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            r = int(rng.integers(1, k))
            m = rng.integers(0, 10, size=(r, k)).astype(float)
            sol = solve(m)
            cols, cost = brute_force_assignment(m)
            assert sol.total_cost == cost
            assert sol.col_of_row == cols

    def test_dyadic_tie_matrices_match_brute_force_exactly(self):
        # Production-shaped costs: base 1 or 2 minus a dyadic attraction.
        # Arithmetic is exact, so argmin must match including tie-breaks.
        rng = np.random.default_rng(7)
        for _ in range(80):
            r = int(rng.integers(1, 5))
            k = int(rng.integers(r, 6))
            base = rng.integers(1, 3, size=(r, k)).astype(float)
            attraction = rng.integers(0, 8, size=(r, k)).astype(float) / 16.0
            m = base - attraction
            sol = solve(m)
            cols, cost = brute_force_assignment(m)
            assert sol.total_cost == cost
            assert sol.col_of_row == cols

    def test_heavy_tie_stress_8x8(self):
        # Costs restricted to {0, 1, 2}: huge optimal-matching families, so the
        # lexicographic canonicalization carries all the weight.
        import itertools

        rng = np.random.default_rng(11)
        perms = np.array(list(itertools.permutations(range(8))), dtype=np.int64)
        rows = np.arange(8)
        for _ in range(60):
            m = rng.integers(0, 3, size=(8, 8)).astype(float)
            totals = m[rows[None, :], perms].sum(axis=1)
            best = int(np.argmin(totals))
            sol = solve(m)
            assert sol.total_cost == float(totals[best])
            assert sol.col_of_row == tuple(perms[best].tolist())

    def test_real_valued_matrices_with_forbidden(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = rng.uniform(-3, 3, size=(n, n))
            m[rng.random(size=(n, n)) < 0.2] = INF
            reference = brute_force_assignment(m)
            if reference is None:
                with pytest.raises(InfeasibleMatrixError):
                    solve(m)
                continue
            cols, cost = reference
            sol = solve(m)
            assert sol.total_cost == pytest.approx(cost, abs=1e-9)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.integers(0, 9).map(float)))
    def test_global_shift_preserves_argmin(self, m):
        assert solve(m + 17.0).col_of_row == solve(m).col_of_row

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, (4, 4), elements=st.integers(0, 9).map(float)),
        st.integers(0, 3),
    )
    def test_row_shift_preserves_argmin(self, m, row):
        shifted = m.copy()
        shifted[row] += 5.0
        assert solve(shifted).col_of_row == solve(m).col_of_row

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (3, 5), elements=st.integers(0, 9).map(float)))
    def test_rectangular_equals_padded_square(self, m):
        padded = np.zeros((5, 5))
        padded[:3] = m
        assert solve(m).col_of_row == solve(padded).col_of_row[:3]

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.integers(0, 9).map(float)))
    def test_determinism(self, m):
        assert solve(m) == solve(m)

    def test_dual_feasibility_invariant(self):
        # Optimal duals support every optimal matching: reduced costs >= 0.
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = rng.uniform(-2, 2, size=(5, 5))
            status, col_of_row, u, v = _jv_rectangular(m.tolist(), 5)
            assert status == 0
            u, v = np.asarray(u), np.asarray(v)
            reduced = m - u[:, None] - v[None, :]
            assert reduced.min() >= -1e-9
            for i, j in enumerate(col_of_row):
                assert abs(reduced[i, j]) <= 1e-9

    def test_dual_feasibility_invariant_rectangular(self):
        # With r < k, zero-cost padding rows with u = 0 are feasible and tight
        # exactly on the unmatched columns: every v <= 0, and v == 0 there.
        rng = np.random.default_rng(4)
        for _ in range(60):
            k = int(rng.integers(2, 9))
            r = int(rng.integers(1, k))
            m = rng.uniform(-2, 2, size=(r, k))
            status, col_of_row, u, v = _jv_rectangular(m.tolist(), k)
            assert status == 0
            assert len(u) == r and len(v) == k
            u, v = np.asarray(u), np.asarray(v)
            reduced = m - u[:, None] - v[None, :]
            assert reduced.min() >= -1e-9
            for i, j in enumerate(col_of_row):
                assert abs(reduced[i, j]) <= 1e-9
            assert (v <= 0.0).all()
            unmatched = np.setdiff1d(np.arange(k), col_of_row)
            assert len(unmatched) == k - r
            assert (v[unmatched] == 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(rectangular_matrices())
    def test_solve_equals_padded_square_reference(self, m):
        want = padded_square_reference(m)
        if want is None:
            with pytest.raises(InfeasibleMatrixError):
                solve(m)
            return
        sol = solve(m)
        assert sol.col_of_row == want
        assert sol.total_cost == float(sum(m[i, c] for i, c in enumerate(want)))

"""Cross-path equivalence: every kernel must agree exactly with its reference.

fgp's exchange-selection kernel and its loop reference, the list-based
rectangular Hungarian kernel and the array square kernel on the zero-padded
matrix, and the vectorised look-ahead window and the scalar look-ahead
definition. The kernels repeat their references' float operations in the same
order, so results must be bit-identical wherever the arithmetic is exact, as
on the dyadic weights the mappers produce; on rounded real costs the Hungarian
matchings must still agree."""

import numpy as np
import pytest

import hungarian_reference as reference
import scalar_reference
from fgp_reference import _select_swap_loops
from qcoremap import hqa
from qcoremap.fgp import _part_sums, _select_swap, _substitute
from qcoremap.hungarian import TOL, _jv_rectangular, _lex_canonical, solve
from qcoremap.lookahead import INFINITE, pair_arrays, window_matrix
from qcoremap import (
    Architecture,
    HqaConfig,
    gen_cuccaro,
    gen_ghz,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    interacting_pairs,
    map_circuit,
    timeslice,
)


def random_partition_instance(rng, n=12, k=3):
    weights = rng.integers(0, 8, size=(n, n)).astype(float) / 8.0
    weights = np.triu(weights, k=1)
    weights += weights.T
    part = np.repeat(np.arange(k), n // k).astype(np.int64)
    rng.shuffle(part)
    locked = rng.random(n) < 0.2
    return weights, part, locked


def test_select_swap_paths_agree():
    rng = np.random.default_rng(12)
    for _ in range(60):
        weights, part, locked = random_partition_instance(rng)
        sums = _part_sums(weights, part, int(part.max()) + 1)
        loops = _select_swap_loops(weights, sums, part, locked)
        vectorized = _select_swap(weights, sums, part, locked)
        assert loops == vectorized


def dyadic_instance(rng, n, k, density=0.15):
    """Sparse weights from {1/4, 1/2, 1}: many exactly tied gains."""
    weights = rng.choice([0.25, 0.5, 1.0], size=(n, n)) * (rng.random((n, n)) < density)
    weights = np.triu(weights, k=1)
    weights += weights.T
    part = np.repeat(np.arange(k), n // k).astype(np.int64)
    rng.shuffle(part)
    return weights, part


def assert_kernel_matches_loops(weights, part, locked):
    sums = _part_sums(weights, part, int(part.max()) + 1)
    assert _select_swap(weights, sums, part, locked) == _select_swap_loops(
        weights, sums, part, locked
    )


@pytest.mark.parametrize("k", [2, 12])
def test_select_swap_mapper_sized_dyadic_ties(k):
    rng = np.random.default_rng(100 + k)
    for locked_frac in (0.0, 0.1, 0.5, 0.9):
        weights, part = dyadic_instance(rng, 120, k)
        assert_kernel_matches_loops(weights, part, rng.random(120) < locked_frac)


@pytest.mark.parametrize("k", [2, 12])
def test_select_swap_on_substituted_slice_graphs(k):
    # The weights the mapper refines: a look-ahead window plus the current
    # slice's pairs at the dominant constant, on a scrambled balanced start.
    sliced = timeslice(gen_qft(120))
    pa, pb, offsets = pair_arrays(sliced)
    rng = np.random.default_rng(7 * k)
    for t in (0, 40, 200):
        weights = window_matrix(120, pa, pb, offsets, t, 32)
        a, b = pa[offsets[t]:offsets[t + 1]], pb[offsets[t]:offsets[t + 1]]
        weights[a, b] = weights[b, a] = INFINITE
        sub, _, _ = _substitute(weights)
        part = np.repeat(np.arange(k), 120 // k).astype(np.int64)
        rng.shuffle(part)
        assert_kernel_matches_loops(sub, part, rng.random(120) < 0.3)


def test_select_swap_no_unlocked_cross_pair():
    rng = np.random.default_rng(15)
    weights, part = dyadic_instance(rng, 24, 3)
    sums = _part_sums(weights, part, 3)
    none = (-1, -1, -np.inf)
    all_locked = np.ones(24, dtype=bool)
    one_part_free = part != 1
    one_node_free = np.arange(24) != 5
    for locked in (all_locked, one_part_free, one_node_free):
        assert _select_swap(weights, sums, part, locked) == none
        assert _select_swap_loops(weights, sums, part, locked) == none


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_hungarian_matches_reference(m, exact=True):
    """The rectangular kernel on m against the reference on the padded square
    that the reference solve builds from m.

    Both report the same status. On feasible input, the kernel's matching
    extended by the unmatched columns in ascending order is the reference
    matching, and canonicalization and ``solve`` give the reference's
    lexicographically smallest optimal matching. With ``exact`` (integer or
    dyadic costs, whose arithmetic does not round) the zero-padded duals are
    bit-identical too. Returns the reference status (0 feasible, 1
    infeasible)."""
    r, k = m.shape
    square = np.zeros((k, k))
    square[:r] = m
    want = reference._jv_square(square)
    status, cols, u, v = _jv_rectangular(m.tolist(), k)
    assert status == want[0]
    u = u + [0.0] * (k - r)
    if exact:
        assert bits(u) == bits(want[2])
        assert bits(v) == bits(want[3])
    if status == 0:
        assert max(v) <= 0.0
        matched = set(cols)
        cols = cols + [j for j in range(k) if j not in matched]
        if exact:
            assert cols == want[1].tolist()
        want_cols = reference._lex_canonical(square, want[2], want[3], want[1], r, TOL)
        got_cols = _lex_canonical(square.tolist(), u, v, cols, r, TOL)
        assert got_cols == want_cols.tolist()
        assert solve(m).col_of_row == tuple(want_cols[:r].tolist())
    return status


def test_hungarian_kernels_match_array_reference_fuzzed():
    # Dyadic ties, uniform reals, attraction-shaped base-minus-dyadic costs
    # and 0/1/2 costs, each with some +inf entries, rectangular or square:
    # both feasible and infeasible matrices occur.
    rng = np.random.default_rng(17)
    statuses = set()
    for it in range(3000):
        k = int(rng.integers(1, 13))
        r = int(rng.integers(1, k + 1))
        kind = it % 4
        if kind == 0:
            m = rng.integers(0, 4, size=(r, k)) / 4.0
        elif kind == 1:
            m = rng.uniform(-2, 2, size=(r, k))
        elif kind == 2:
            m = rng.integers(1, 3, size=(r, k)) - rng.integers(0, 64, size=(r, k)) / 64.0
        else:
            m = rng.integers(0, 3, size=(r, k)).astype(float)
        m[rng.random((r, k)) < 0.15] = INFINITE
        statuses.add(assert_hungarian_matches_reference(m))
    assert statuses == {0, 1}


def test_hungarian_kernel_matches_padded_reference_on_rounded_reals():
    # Normal costs over six decades round in every step, so reduced costs can
    # dip below zero by an ulp and the reference's padding rows can move a
    # dual by as much; the matchings still agree.
    rng = np.random.default_rng(19)
    statuses = set()
    for _ in range(1500):
        k = int(rng.integers(1, 13))
        r = int(rng.integers(1, k + 1))
        m = rng.standard_normal((r, k)) * 10.0 ** rng.uniform(-3, 3)
        m[rng.random((r, k)) < rng.choice([0.0, 0.15, 0.4])] = INFINITE
        statuses.add(assert_hungarian_matches_reference(m, exact=False))
    assert statuses == {0, 1}


@pytest.mark.parametrize(
    "circuit", [gen_quantum_volume(120, 40, 5), gen_random(120, 40, 0.5, 5)], ids=["qv", "random"]
)
def test_hungarian_kernels_match_array_reference_on_hqa_matrices(circuit, monkeypatch):
    captured = []
    solve = hqa.solve

    def recording_solve(costs):
        captured.append(np.array(costs))
        return solve(costs)

    monkeypatch.setattr(hqa, "solve", recording_solve)
    map_circuit(circuit, Architecture(12, 10), HqaConfig())
    assert len(captured) > 100
    for m in captured:
        assert_hungarian_matches_reference(m)


def scalar_window(sliced, t, horizon):
    """The look-ahead matrix entry by entry from lookahead_weight."""
    n = sliced.num_qubits
    spec = np.zeros((n, n))
    last = min(sliced.num_slices - 1, t + horizon)
    support = set().union(*(interacting_pairs(sliced.slices[m]) for m in range(t + 1, last + 1)))
    for a, b in support:
        spec[a, b] = spec[b, a] = scalar_reference.lookahead_weight(sliced, t, a, b, horizon)
    return spec


@pytest.mark.parametrize(
    "circuit",
    [
        gen_ghz(120),
        gen_qft(120),
        gen_cuccaro(59),
        gen_quantum_volume(120, 12, 6),
        gen_random(120, 12, 0.5, 6),
    ],
    ids=["ghz", "qft", "cuccaro", "qv", "random"],
)
def test_window_matrix_matches_scalar_definition(circuit, monkeypatch):
    # Pairs outside the window's support have weight 0 by definition, so
    # only the support is evaluated; each slice's pair set is computed once
    # so that the scalar definition runs at n = 120.
    sliced = timeslice(circuit)
    pair_sets = {id(gates): interacting_pairs(gates) for gates in sliced.slices}
    monkeypatch.setattr(
        scalar_reference, "interacting_pairs", lambda gates: pair_sets[id(gates)]
    )
    pa, pb, offsets = pair_arrays(sliced)
    for horizon in (1, 4, 32):
        for t in range(-1, sliced.num_slices):
            window = window_matrix(sliced.num_qubits, pa, pb, offsets, t, horizon)
            assert window.tobytes() == scalar_window(sliced, t, horizon).tobytes()

"""Cross-path equivalence: every kernel must agree exactly with its reference.

fgp's numba kernel and its numpy fallback, the list-based Hungarian kernels
and their array originals, and the vectorised look-ahead window and the
scalar look-ahead definition. All weights are dyadic rationals and the
Hungarian kernels repeat the same float operations in the same order, so
results must be bit-identical."""

import numpy as np
import pytest

import hungarian_reference as reference
from qcoremap import fgp, hqa, lookahead
from qcoremap.fgp import (
    _part_sums,
    _select_swap,
    _select_swap_loops,
    _select_swap_numpy,
    _substitute,
)
from qcoremap.hungarian import TOL, _jv_square, _lex_canonical
from qcoremap.lookahead import INFINITE, pair_arrays, window_matrix
from qcoremap import (
    Architecture,
    HqaConfig,
    InteractionGraph,
    gen_cuccaro,
    gen_ghz,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    interacting_pairs,
    lookahead_weight,
    map_circuit,
    oee_refine,
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
        vectorized = _select_swap_numpy(weights, sums, part, locked)
        assert loops == vectorized


def test_select_swap_dispatch_matches_loops():
    rng = np.random.default_rng(13)
    weights, part, locked = random_partition_instance(rng)
    sums = _part_sums(weights, part, int(part.max()) + 1)
    assert _select_swap(weights, sums, part, locked) == _select_swap_loops(
        weights, sums, part, locked
    )


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
    assert _select_swap_numpy(weights, sums, part, locked) == _select_swap_loops(
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
        assert _select_swap_numpy(weights, sums, part, locked) == none
        assert _select_swap_loops(weights, sums, part, locked) == none


def test_oee_refine_unchanged_by_kernel(monkeypatch):
    rng = np.random.default_rng(16)
    instances = [dyadic_instance(rng, 24, k, density=0.3) for k in (2, 3, 4, 6)]
    refined = [oee_refine(InteractionGraph(24, w), p) for w, p in instances]
    monkeypatch.setattr(fgp, "_select_swap", _select_swap_loops)
    for (w, p), got in zip(instances, refined):
        assert (oee_refine(InteractionGraph(24, w), p) == got).all()


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_hungarian_matches_reference(m):
    """Both kernels, on the padded square that solve() builds from m.

    Returns the reference status (0 feasible, 1 infeasible)."""
    r, k = m.shape
    square = np.zeros((k, k))
    square[:r] = m
    rows = square.tolist()
    want = reference._jv_square(square)
    got = _jv_square(rows)
    assert got[0] == want[0]
    assert got[1] == want[1].tolist()
    assert bits(got[2]) == bits(want[2])
    assert bits(got[3]) == bits(want[3])
    if want[0] == 0:
        want_cols = reference._lex_canonical(square, want[2], want[3], want[1], r, TOL)
        got_cols = _lex_canonical(rows, got[2], got[3], got[1], r, TOL)
        assert got_cols == want_cols.tolist()
    return want[0]


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
        spec[a, b] = spec[b, a] = lookahead_weight(sliced, t, a, b, horizon)
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
    monkeypatch.setattr(lookahead, "interacting_pairs", lambda gates: pair_sets[id(gates)])
    pa, pb, offsets = pair_arrays(sliced)
    for horizon in (1, 4, 32):
        for t in range(-1, sliced.num_slices):
            window = window_matrix(sliced.num_qubits, pa, pb, offsets, t, horizon)
            assert window.tobytes() == scalar_window(sliced, t, horizon).tobytes()

"""Cross-path equivalence: every kernel must agree exactly with its reference.

fgp's refinement and its reference with a loop selection per swap, the list-based
rectangular Hungarian kernel and the array square kernel on the zero-padded
matrix, and the vectorised look-ahead window and the scalar look-ahead
definition. The kernels repeat their references' float operations in the same
order, so results must be bit-identical wherever the arithmetic is exact, as
on the dyadic weights the mappers produce; on rounded real costs the Hungarian
matchings must still agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgp_reference
import hungarian_reference as reference
import scalar_reference
from fgp_reference import roee_refine_loops
from qcoremap import fgp, hqa
from qcoremap.fgp import fgp_map_circuit, roee_refine
from qcoremap.hungarian import TOL, _jv_rectangular, _lex_canonical, solve
from qcoremap.lookahead import INFINITE, window_matrix
from qcoremap import (
    Architecture,
    HqaConfig,
    gen_cuccaro,
    gen_ghz,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    map_circuit,
    timeslice,
)


def refine_outcome(refine, weights, initial):
    """The refined partition's bits, or None where validity is unreachable:
    ``roee_refine`` returns None where the loop reference raises at its cap."""
    try:
        part = refine(weights, initial)
    except fgp_reference.PassCapReached:
        return None
    return None if part is None else part.tobytes()


def assert_refine_matches_loops(weights, initial):
    got = refine_outcome(roee_refine, weights, initial)
    assert got == refine_outcome(roee_refine_loops, weights, initial)
    return got


@pytest.fixture
def pass_ends(monkeypatch):
    """Counts the passes the loop reference ran to the end."""
    ends = [0]
    select = fgp_reference._select_swap_loops

    def counting(*args):
        found = select(*args)
        ends[0] += found[0] < 0
        return found

    monkeypatch.setattr(fgp_reference, "_select_swap_loops", counting)
    return ends


def dyadic_refine_instance(rng, n, k, num_pairs, density=0.15):
    """Sparse weights from {1/4, 1/2, 1}, so many gains tie exactly, with
    num_pairs disjoint infinite pairs and a shuffled balanced start."""
    weights = rng.choice([0.25, 0.5, 1.0], size=(n, n)) * (rng.random((n, n)) < density)
    weights = np.triu(weights, k=1)
    weights += weights.T
    order = rng.permutation(n)
    for i in range(num_pairs):
        a, b = order[2 * i], order[2 * i + 1]
        weights[a, b] = weights[b, a] = INFINITE
    part = np.repeat(np.arange(k), n // k).astype(np.int64)
    rng.shuffle(part)
    return weights, part


@pytest.mark.parametrize("k", [2, 12])
def test_refine_matches_loops_on_dyadic_ties(k, pass_ends):
    # At k = 12 some starts need a second or third pass. At k = 2 none can:
    # a pass that runs out has moved every node once, which only swaps the
    # two labels.
    rng = np.random.default_rng(100 + k)
    passes = []
    for _ in range(3):
        for num_pairs in (10, 30, 60):
            for density in (0.0, 0.15, 0.5):
                pass_ends[0] = 0
                weights, part = dyadic_refine_instance(rng, 120, k, num_pairs, density)
                assert_refine_matches_loops(weights, part)
                passes.append(pass_ends[0])
    if k == 12:
        assert max(passes) >= 1
    else:
        assert max(passes) == 0


def refine_inputs(circuit, arch, monkeypatch):
    """The (weights, initial) pairs fgp_map_circuit refines."""
    inputs = []

    def recording(weights, initial):
        inputs.append((weights.copy(), np.array(initial)))
        return roee_refine(weights, initial)

    monkeypatch.setattr(fgp, "roee_refine", recording)
    fgp_map_circuit(circuit, arch)
    monkeypatch.setattr(fgp, "roee_refine", roee_refine)
    return inputs


@pytest.mark.parametrize("k", [2, 12])
def test_refine_matches_loops_on_mapper_graphs(k, monkeypatch):
    # The look-ahead window plus the current pairs at INFINITE, from the
    # partition the previous slice left. qft on 12 x 10 refines 227 graphs;
    # every fourth keeps the loop reference within a few seconds.
    arch = Architecture(k, 120 // k)
    qft = refine_inputs(gen_qft(120), arch, monkeypatch)
    rand = refine_inputs(gen_random(120, 12, 0.5, 5), arch, monkeypatch)
    inputs = qft[:: 1 if k == 2 else 4] + rand
    assert len(inputs) > 40
    for weights, initial in inputs:
        assert_refine_matches_loops(weights, initial)


@pytest.mark.parametrize("index", range(4))
def test_refine_matches_loops_on_dummy_padded_graphs(index, monkeypatch):
    # 12 qubits on 3 x 6: six zero-weight dummy slots pad each graph.
    circuit = [
        gen_qft(12),
        gen_cuccaro(5),
        gen_quantum_volume(12, 6, seed=3),
        gen_random(12, cycles=10, p=0.5, seed=4),
    ][index]
    inputs = refine_inputs(circuit, Architecture(3, 6), monkeypatch)
    assert len(inputs) >= 3
    for weights, initial in inputs:
        assert weights.shape == (18, 18)
        assert_refine_matches_loops(weights, initial)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_refine_matches_loops_property(num_parts, size, data):
    # Dyadic weights, and INFINITE on up to n pairs, disjoint or not, so
    # that some instances are infeasible or cycle: roee_refine must return
    # None on exactly those where the reference raises at its pass cap.
    n = num_parts * size
    m = n * (n - 1) // 2
    dyadic = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
    upper = np.asarray(data.draw(st.lists(dyadic, min_size=m, max_size=m)))
    infinite = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=n))
    upper[infinite] = INFINITE
    weights = np.zeros((n, n))
    weights[np.triu_indices(n, k=1)] = upper
    weights += weights.T
    start = data.draw(st.permutations(np.repeat(np.arange(num_parts), size).tolist()))
    assert_refine_matches_loops(weights, np.asarray(start, dtype=np.int64))


def test_refine_matches_loops_when_passes_run_out():
    # Every pass of an unreachable instance ends with no unlocked cross-part
    # pair; roee_refine must give up (None) exactly where the reference
    # raises at the cap.
    rng = np.random.default_rng(15)
    outcomes = set()
    for _ in range(150):
        num_parts = int(rng.integers(2, 5))
        size = int(rng.integers(2, 5))
        n = num_parts * size
        weights = rng.choice([0.0, 0.25, 0.5], size=(n, n))
        weights[rng.random((n, n)) < 0.15] = INFINITE
        weights = np.triu(weights, k=1)
        weights += weights.T
        part = np.repeat(np.arange(num_parts), size).astype(np.int64)
        rng.shuffle(part)
        got = assert_refine_matches_loops(weights, part)
        outcomes.add(got is None)
    assert outcomes == {False, True}


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
    pair_set = scalar_reference.interacting_pairs
    support = set().union(*(pair_set(sliced.slices[m]) for m in range(t + 1, last + 1)))
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
    pair_sets = {id(gates): scalar_reference.interacting_pairs(gates) for gates in sliced.slices}
    monkeypatch.setattr(
        scalar_reference, "interacting_pairs", lambda gates: pair_sets[id(gates)]
    )
    pa, pb, offsets = sliced.pairs
    for horizon in (1, 4, 32):
        for t in range(-1, sliced.num_slices):
            window = window_matrix(sliced.num_qubits, pa, pb, offsets, t, horizon)
            assert window.tobytes() == scalar_window(sliced, t, horizon).tobytes()

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoremap import (
    Architecture,
    Circuit,
    Gate,
    INFINITE,
    ValidityUnreachableError,
    count_communications,
    fgp_map_circuit,
    gen_cuccaro,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    interacting_pairs,
    is_valid,
    minimum_communications,
    roee_refine,
    timeslice,
)
from qcoremap.fgp import _substitute
from qcoremap.lookahead import DEFAULT_HORIZON, pair_arrays, window_matrix

from conftest import circuits


def graph_from_edges(n, edges):
    weights = np.zeros((n, n))
    for (a, b), w in edges.items():
        weights[a, b] = w
        weights[b, a] = w
    return weights


def balanced_partitions(n, k):
    """All balanced part assignments of n nodes into k parts of size n // k."""
    size = n // k
    for labels in itertools.product(range(k), repeat=n):
        if all(labels.count(c) == size for c in range(k)):
            yield np.asarray(labels, dtype=np.int64)


class TestRoeeRefine:
    def test_valid_input_returned_unchanged(self):
        graph = graph_from_edges(4, {(0, 1): INFINITE, (2, 3): 0.5})
        initial = np.asarray([0, 0, 1, 1])
        assert roee_refine(graph, initial).tolist() == [0, 0, 1, 1]

    def test_single_split_pair_fixed_in_one_exchange(self):
        graph = graph_from_edges(4, {(0, 2): INFINITE})
        refined = roee_refine(graph, [0, 0, 1, 1])
        assert refined[0] == refined[2]
        assert sorted(np.bincount(refined).tolist()) == [2, 2]

    def test_two_split_pairs_fixed(self):
        graph = graph_from_edges(6, {(0, 3): INFINITE, (1, 4): INFINITE})
        refined = roee_refine(graph, [0, 0, 0, 1, 1, 1])
        assert refined[0] == refined[3]
        assert refined[1] == refined[4]
        valid = [
            p
            for p in balanced_partitions(6, 2)
            if p[0] == p[3] and p[1] == p[4]
        ]
        assert any((refined == p).all() for p in valid)

    def test_validity_unreachable_raises(self):
        # Three disjoint must-co-locate pairs cannot pack into parts of 3.
        graph = graph_from_edges(
            6, {(0, 1): INFINITE, (2, 3): INFINITE, (4, 5): INFINITE}
        )
        broken = [0, 1, 0, 1, 0, 1]
        with pytest.raises(ValidityUnreachableError):
            roee_refine(graph, broken)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_balance_preserved(self, num_parts, size, data):
        # Dyadic look-ahead-like weights and disjoint must-co-locate pairs on
        # a shuffled balanced start. Odd part sizes can make validity
        # unreachable, which must surface as the typed error.
        n = num_parts * size
        dyadic = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
        upper = data.draw(st.lists(dyadic, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        weights = np.zeros((n, n))
        weights[np.triu_indices(n, k=1)] = upper
        weights += weights.T
        order = data.draw(st.permutations(range(n)))
        num_pairs = data.draw(st.integers(min_value=0, max_value=n // 2))
        pairs = [(order[2 * i], order[2 * i + 1]) for i in range(num_pairs)]
        for a, b in pairs:
            weights[a, b] = weights[b, a] = INFINITE
        start = np.asarray(
            data.draw(st.permutations(np.repeat(np.arange(num_parts), size).tolist())),
            dtype=np.int64,
        )
        try:
            refined = roee_refine(weights, start)
        except ValidityUnreachableError:
            return
        assert np.bincount(refined, minlength=num_parts).tolist() == [size] * num_parts
        assert all(refined[a] == refined[b] for a, b in pairs)


class TestSubstitution:
    def test_dominant_constant_exceeds_finite_total(self):
        weights = graph_from_edges(5, {(0, 1): 0.5, (1, 2): 0.25, (0, 4): INFINITE})
        sub, ia, ib = _substitute(weights)
        assert sub[0, 4] == 0.75 + 1.0
        assert (ia.tolist(), ib.tolist()) == ([0], [4])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fewer_infinite_cuts_always_win(self, seed):
        # Substituted cut orders configurations first by infinite-cut count.
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 1, size=(6, 6)) * (rng.random(size=(6, 6)) < 0.5)
        weights = np.triu(weights, k=1)
        weights += weights.T
        pairs = [(0, 3), (1, 4)]
        for a, b in pairs:
            weights[a, b] = weights[b, a] = INFINITE
        sub, ia, ib = _substitute(weights)

        def sub_cut(part):
            return sum(
                sub[u, v]
                for u in range(6)
                for v in range(u + 1, 6)
                if part[u] != part[v]
            )

        def inf_cuts(part):
            return sum(1 for a, b in zip(ia, ib) if part[a] != part[b])

        parts = list(balanced_partitions(6, 2))
        for x in parts:
            for y in parts:
                if inf_cuts(x) < inf_cuts(y):
                    assert sub_cut(x) < sub_cut(y)


class TestFgpMapCircuit:
    def test_ghz4_valid_and_bounded_by_oracle(self):
        circuit = gen_ghz(4)
        arch = Architecture(2, 2)
        sliced = timeslice(circuit)
        path = fgp_map_circuit(circuit, arch)
        for assignment, gates in zip(path.assignments, sliced.slices):
            assert is_valid(assignment, gates, arch)
        assert count_communications(path) >= minimum_communications(circuit, arch)

    def test_no_two_qubit_gates_zero_communications(self):
        circuit = Circuit(4, tuple(Gate("h", (q,)) for q in range(4)))
        path = fgp_map_circuit(circuit, Architecture(2, 2))
        assert count_communications(path) == 0

    def test_dummy_padding_on_partial_architecture(self):
        # 5 qubits on 2x4: three dummy slots pad the partition.
        circuit = Circuit(5, (Gate("cx", (0, 4)), Gate("cx", (1, 3))))
        arch = Architecture(2, 4)
        path = fgp_map_circuit(circuit, arch)
        sliced = timeslice(circuit)
        for assignment, gates in zip(path.assignments, sliced.slices):
            assert is_valid(assignment, gates, arch)
            assert assignment.num_qubits == 5

    def test_heterogeneous_capacities_rejected(self):
        arch = Architecture(2, 2, core_capacities=(2, 4))
        with pytest.raises(ValueError, match="uniform"):
            fgp_map_circuit(gen_ghz(4), arch)

    @given(circuits(max_qubits=8, max_gates=24), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_validity_and_balance_everywhere(self, circuit, num_cores):
        capacity = -(-circuit.num_qubits // num_cores)
        capacity += capacity % 2
        arch = Architecture(num_cores, capacity)
        sliced = timeslice(circuit)
        path = fgp_map_circuit(circuit, arch)
        assert path.num_slices == sliced.num_slices
        for assignment, gates in zip(path.assignments, sliced.slices):
            assert is_valid(assignment, gates, arch)


def reference_fgp_path(circuit, arch):
    """fgp's path with every slice refined from its full interaction graph:
    look-ahead window weights, current pairs infinite, padded with dummies."""
    num_q = circuit.num_qubits
    padded = arch.num_cores * arch.capacity
    sliced = timeslice(circuit)
    pa, pb, offsets = pair_arrays(sliced)
    part = np.arange(padded) // arch.capacity
    path = []
    for t, gates in enumerate(sliced.slices):
        weights = np.zeros((padded, padded))
        weights[:num_q, :num_q] = window_matrix(num_q, pa, pb, offsets, t, DEFAULT_HORIZON)
        for a, b in interacting_pairs(gates):
            weights[a, b] = weights[b, a] = INFINITE
        part = roee_refine(weights, part)
        path.append(tuple(part[:num_q].tolist()))
    return path


class TestValidSliceSkip:
    """Slices the incoming partition already satisfies skip the graph build;
    the path must equal refining every slice from its full graph."""

    CIRCUITS = [
        gen_ghz(12),
        gen_qft(12),
        gen_cuccaro(5),
        gen_grover(8, 1),
        gen_quantum_volume(12, 6, seed=3),
        gen_random(12, cycles=10, p=0.5, seed=4),
    ]

    @pytest.mark.parametrize("index", range(len(CIRCUITS)))
    @pytest.mark.parametrize("cores,capacity", [(2, 6), (3, 4), (3, 6)])
    def test_matches_full_refinement(self, index, cores, capacity):
        # (3, 6) leaves slots empty, so the partition carries dummy qubits.
        circuit = self.CIRCUITS[index]
        arch = Architecture(cores, capacity)
        got = [a.core_of for a in fgp_map_circuit(circuit, arch).assignments]
        assert got == reference_fgp_path(circuit, arch)

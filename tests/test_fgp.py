import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoremap import (
    Architecture,
    Circuit,
    Gate,
    CapacityError,
    INFINITE,
    MappingInfeasibleError,
    count_communications,
    fgp_map_circuit,
    gen_cuccaro,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    initial_assignment,
    minimum_communications,
    roee_refine,
    timeslice,
    validate_path,
)
from qcoremap import fgp
from qcoremap.fgp import _substitute
from qcoremap.lookahead import DEFAULT_HORIZON, window_matrix

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

    def test_validity_unreachable_returns_none(self):
        # Three disjoint must-co-locate pairs cannot pack into parts of 3.
        graph = graph_from_edges(
            6, {(0, 1): INFINITE, (2, 3): INFINITE, (4, 5): INFINITE}
        )
        broken = [0, 1, 0, 1, 0, 1]
        assert roee_refine(graph, broken) is None

    def test_k2_failure_stops_after_second_pass(self, monkeypatch):
        # At k = 2 a pass that runs out has moved every node once, which only
        # swaps the labels, so the second pass ends on the start partition.
        # The refinement must stop there, not run 2n passes: count the full
        # gain-matrix builds, one per pass (all n rows, nothing locked).
        builds = [0]
        gain_rows = fgp._gain_rows

        def counting(part_sums, part, locked, twice_w, rows):
            builds[0] += len(rows) == part.shape[0] and not locked.any()
            return gain_rows(part_sums, part, locked, twice_w, rows)

        monkeypatch.setattr(fgp, "_gain_rows", counting)
        # 120 nodes, sparse dyadic weights, 30 infinite 4-node chains.
        rng = np.random.default_rng(1)
        n = 120
        weights = rng.choice([0.25, 0.5, 1.0], size=(n, n)) * (rng.random((n, n)) < 0.15)
        weights = np.triu(weights, k=1)
        weights += weights.T
        for chain in rng.permutation(n).reshape(30, 4):
            for a, b in zip(chain, chain[1:]):
                weights[a, b] = weights[b, a] = INFINITE
        part = np.repeat(np.arange(2), n // 2)
        rng.shuffle(part)
        assert roee_refine(weights, part) is None
        assert builds[0] == 2

    def test_asymmetric_weights_rejected(self):
        # Gains are read from one orientation and mirrored, so the weights
        # must be exactly symmetric.
        graph = graph_from_edges(4, {(0, 2): INFINITE, (1, 3): 0.5})
        roee_refine(graph, [0, 0, 1, 1])
        for a, b, w in ((1, 3, 0.25), (1, 2, 0.5), (2, 0, 0.0), (0, 2, np.nan)):
            skewed = graph.copy()
            skewed[a, b] = w
            with pytest.raises(ValueError, match="symmetric"):
                roee_refine(skewed, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="symmetric"):
            roee_refine(np.zeros((4, 3)), [0, 0, 1, 1])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_balance_preserved(self, num_parts, size, data):
        # Dyadic look-ahead-like weights and disjoint must-co-locate pairs on
        # a shuffled balanced start. Odd part sizes can make validity
        # unreachable, which must surface as None.
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
        refined = roee_refine(weights, start)
        if refined is None:
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
        validate_path(path, sliced.slices, arch)
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
        assert path.num_qubits == 5
        validate_path(path, timeslice(circuit).slices, arch)

    def test_rows_hold_plain_ints(self):
        # Rows are built unchecked from ``tolist``: a tuple of ints each.
        path = fgp_map_circuit(gen_qft(12), Architecture(3, 4))
        for assignment in path.assignments:
            assert type(assignment.core_of) is tuple
            assert all(type(core) is int for core in assignment.core_of)
        assert json.loads(path.to_json())["slices"] == [list(a.core_of) for a in path.assignments]

    SIX = Circuit(6, tuple(Gate("cx", q) for q in ((0, 5), (1, 4), (0, 1), (4, 5), (2, 5), (0, 3))))

    @pytest.mark.parametrize(
        "circuit,arch",
        [
            (gen_ghz(4), Architecture(2, 2, core_capacities=(2, 4))),
            # The capacities, not the scalar label, size the partition.
            (SIX, Architecture(2, 5, core_capacities=(3, 3))),
            (SIX, Architecture(2, 2, core_capacities=(3, 3))),
        ],
        ids=["unequal", "label-above", "label-below"],
    )
    def test_maps_by_core_capacities(self, circuit, arch):
        path = fgp_map_circuit(circuit, arch)
        validate_path(path, timeslice(circuit).slices, arch)
        assert count_communications(path) >= minimum_communications(circuit, arch)

    @given(circuits(max_qubits=8, max_gates=24), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_validity_and_balance_everywhere(self, circuit, num_cores):
        capacity = -(-circuit.num_qubits // num_cores)
        capacity += capacity % 2
        arch = Architecture(num_cores, capacity)
        sliced = timeslice(circuit)
        path = fgp_map_circuit(circuit, arch)
        assert path.num_slices == sliced.num_slices
        validate_path(path, sliced.slices, arch)


def cx(a, b):
    return Gate("cx", (a, b))


class TestTotalOnFeasibleInput:
    """fgp raises only when the qubits exceed the total capacity or a slice
    has more pairs than sum_j floor(c_j / 2); everything else is mapped, with
    a pair-slot placement where the refinement cycles."""

    def test_smallest_cycle_placed_by_pair_slots(self, monkeypatch):
        # The refinement repeats its start partition at the end of pass 2;
        # the optimum is 0 and the pair-slot placement reaches it.
        circuit = Circuit(7, (cx(1, 4), cx(2, 5), cx(2, 5), cx(3, 0)))
        arch = Architecture(4, 3)
        refined = []

        def recording(weights, initial):
            refined.append(roee_refine(weights, initial))
            return refined[-1]

        monkeypatch.setattr(fgp, "roee_refine", recording)
        path = fgp_map_circuit(circuit, arch)
        assert refined[0] is None
        validate_path(path, timeslice(circuit).slices, arch)
        assert count_communications(path) == minimum_communications(circuit, arch) == 0

    def test_too_many_pairs_for_the_cores(self):
        circuit = Circuit(6, (cx(0, 1), cx(2, 3), cx(4, 5)))
        with pytest.raises(MappingInfeasibleError, match="slice 0 has 3 two-qubit gates.* at most 2"):
            fgp_map_circuit(circuit, Architecture(2, 3))

    def test_too_many_qubits_for_the_cores(self):
        with pytest.raises(CapacityError):
            fgp_map_circuit(Circuit(5, (cx(0, 1),)), Architecture(2, 2))

    @given(
        circuits(max_qubits=10, max_gates=16),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_maps_exactly_the_feasible_instances(self, circuit, num_cores, capacity):
        arch = Architecture(num_cores, capacity)
        sliced = timeslice(circuit)
        slots = num_cores * (capacity // 2)
        feasible = num_cores * capacity >= circuit.num_qubits and all(
            sum(1 for g in gates if len(g.qubits) == 2) <= slots for gates in sliced.slices
        )
        try:
            path = fgp_map_circuit(circuit, arch)
        except (CapacityError, MappingInfeasibleError):
            assert not feasible
            return
        assert feasible
        validate_path(path, sliced.slices, arch)


def reference_fgp_path(circuit, arch):
    """fgp's path with every slice refined from its full interaction graph:
    look-ahead window weights, current pairs infinite, padded with dummies."""
    num_q = circuit.num_qubits
    padded = arch.total_capacity
    sliced = timeslice(circuit)
    pa, pb, offsets = sliced.pairs
    part = np.asarray(initial_assignment(padded, arch).core_of)
    path = []
    for t, gates in enumerate(sliced.slices):
        weights = np.zeros((padded, padded))
        weights[:num_q, :num_q] = window_matrix(num_q, pa, pb, offsets, t, DEFAULT_HORIZON)
        for a, b in (g.qubits for g in gates if len(g.qubits) == 2):
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
    @pytest.mark.parametrize(
        "cores,capacity",
        [(2, 6), (3, 4), (3, 6), pytest.param(3, (4, 6, 2), id="3-4,6,2")],
    )
    def test_matches_full_refinement(self, index, cores, capacity):
        # (3, 6) leaves slots empty, so the partition carries dummy qubits;
        # (4, 6, 2) refines parts of unequal size.
        circuit = self.CIRCUITS[index]
        if isinstance(capacity, tuple):
            arch = Architecture(cores, max(capacity), core_capacities=capacity)
        else:
            arch = Architecture(cores, capacity)
        got = [a.core_of for a in fgp_map_circuit(circuit, arch).assignments]
        assert got == reference_fgp_path(circuit, arch)

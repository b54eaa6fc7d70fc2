import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoremap.hqa as hqa
from qcoremap import (
    Architecture,
    Assignment,
    CapacityError,
    Circuit,
    FORBIDDEN,
    Gate,
    HqaConfig,
    MappingInfeasibleError,
    count_communications,
    gen_ghz,
    initial_assignment,
    is_valid,
    map_circuit,
    minimum_communications,
    timeslice,
    validate_path,
)
from qcoremap.hqa import UnfeasibleOp, collect_unfeasible, hqa_step, parity_fix

from conftest import circuits
from scalar_reference import attraction_qubit, cost_attraction, cost_basic


def cx(a, b):
    return Gate("cx", (a, b))


def h(q):
    return Gate("h", (q,))


BLOCK_2X2 = Assignment((0, 0, 1, 1))


class TestCollectUnfeasible:
    def test_split_pair_collected(self):
        ops = collect_unfeasible(BLOCK_2X2, [cx(1, 2)])
        assert ops == [UnfeasibleOp(1, 2)]

    def test_colocated_pair_ignored(self):
        assert collect_unfeasible(BLOCK_2X2, [cx(0, 1)]) == []

    def test_gate_order_preserved(self):
        prev = Assignment((0, 0, 0, 1, 1, 1))
        ops = collect_unfeasible(prev, [cx(2, 3), h(0), cx(1, 4)])
        assert [op.qubits for op in ops] == [(2, 3), (1, 4)]

    def test_five_split_pairs_give_five_ops(self):
        # Four cores, five gates straddling core boundaries.
        prev = Assignment((0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3))
        gates = [cx(0, 3), cx(1, 6), cx(4, 9), cx(7, 10), cx(2, 11)]
        assert len(collect_unfeasible(prev, gates)) == 5


class TestParityFix:
    def test_spec_scenario_adds_idle_pair(self):
        ops = collect_unfeasible(BLOCK_2X2, [cx(1, 2)])
        fixed = parity_fix(ops, BLOCK_2X2, [cx(1, 2)], num_cores=2)
        assert [op.qubits for op in fixed] == [(1, 2), (0, 3)]
        assert fixed[1].auxiliary

    def test_even_cores_unchanged(self):
        prev = Assignment((0, 0, 1, 1))
        gates = [cx(0, 2), cx(1, 3)]
        ops = collect_unfeasible(prev, gates)
        assert parity_fix(ops, prev, gates, 2) == ops

    def test_prefers_idle_over_one_qubit_actor(self):
        # Core 0 residents after lifting: 0 (acts in h) and 1 (idle).
        prev = Assignment((0, 0, 0, 1, 1, 1))
        gates = [cx(2, 3), h(0)]
        ops = collect_unfeasible(prev, gates)
        fixed = parity_fix(ops, prev, gates, 2)
        assert [op.qubits for op in fixed] == [(2, 3), (1, 4)]

    def test_one_qubit_actor_used_when_no_idle(self):
        prev = Assignment((0, 0, 1, 1))
        gates = [cx(1, 2), h(0), h(3)]
        ops = collect_unfeasible(prev, gates)
        fixed = parity_fix(ops, prev, gates, 2)
        assert [op.qubits for op in fixed] == [(1, 2), (0, 3)]

    def test_feasible_pair_converted_when_core_exhausted(self):
        # Core 0: qubits 0,1 in a feasible gate, qubit 2 lifted -> odd, no spare.
        prev = Assignment((0, 0, 0, 1, 1, 1))
        gates = [cx(0, 1), cx(2, 3)]
        ops = collect_unfeasible(prev, gates)
        fixed = parity_fix(ops, prev, gates, 2)
        pairs = [op.qubits for op in fixed]
        assert (0, 1) in pairs  # converted feasible pair rides along
        converted = next(op for op in fixed if op.qubits == (0, 1))
        assert converted.auxiliary

    @given(
        st.integers(min_value=2, max_value=3),
        st.sampled_from([2, 4]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_even_unassigned_count_per_core(self, num_cores, capacity, data):
        # Guaranteed domain: saturated architecture with even capacity.
        n = num_cores * capacity
        circuit = data.draw(circuits(max_qubits=n, max_gates=16))
        if circuit.num_qubits != n:
            circuit = Circuit(n, circuit.gates)
        arch = Architecture(num_cores, capacity)
        prev = initial_assignment(n, arch)
        sliced = timeslice(circuit)
        if sliced.num_slices == 0:
            return
        gates = sliced.slices[0]
        ops = collect_unfeasible(prev, gates)
        if not ops:
            return
        fixed = parity_fix(ops, prev, gates, num_cores)
        counts = [0] * num_cores
        for op in fixed:
            for q in op.qubits:
                counts[prev.core_of[q]] += 1
        assert all(c % 2 == 0 for c in counts)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_ops_as_per_core_scan(self, caps, data):
        # Odd, unequal and partly filled cores: the one-pass grouping of
        # residents gives the ops, auxiliaries included, of a scan over every
        # qubit per odd core.
        slots = [core for core, cap in enumerate(caps) for _ in range(cap)]
        n = data.draw(st.integers(min_value=2, max_value=len(slots)))
        core_of = data.draw(st.permutations(slots))[:n]
        prev = Assignment(tuple(core_of))
        circuit = data.draw(circuits(max_qubits=n, max_gates=12))
        sliced = timeslice(Circuit(n, circuit.gates))
        if sliced.num_slices == 0:
            return
        gates = sliced.slices[0]
        ops = collect_unfeasible(prev, gates)
        assert parity_fix(ops, prev, gates, len(caps)) == parity_fix_per_core_scan(
            ops, prev, gates, len(caps)
        )


def parity_fix_per_core_scan(ops, prev, gates, num_cores):
    """``parity_fix`` as first written: every qubit is scanned once per odd core."""
    core_of = prev.core_of
    acting, in_two_qubit, partner_of = set(), set(), {}
    for g in gates:
        acting.update(g.qubits)
        if g.is_two_qubit:
            a, b = g.qubits
            in_two_qubit.update((a, b))
            partner_of[a], partner_of[b] = b, a
    out = list(ops)
    lifted = {q for op in out for q in op.qubits}
    counts = [0] * num_cores
    for q in lifted:
        counts[core_of[q]] += 1
    spares = []
    for core in (c for c in range(num_cores) if counts[c] % 2):
        residents = sorted(q for q in range(len(core_of)) if core_of[q] == core and q not in lifted)
        spare = next((q for q in residents if q not in acting), None)
        if spare is None:
            spare = next((q for q in residents if q not in in_two_qubit), None)
        if spare is None:
            if residents:
                q = residents[0]
                out.append(UnfeasibleOp(q, partner_of[q], auxiliary=True))
                lifted.update((q, partner_of[q]))
            continue
        spares.append((core, spare))
    for (_, qa), (_, qb) in zip(spares[::2], spares[1::2]):
        out.append(UnfeasibleOp(qa, qb, auxiliary=True))
    return out


class TestCosts:
    def test_home_core_costs_one(self):
        assert cost_basic(UnfeasibleOp(1, 2), 0, BLOCK_2X2, [2, 2]) == 1.0

    def test_foreign_core_costs_two(self):
        prev = Assignment((0, 0, 1, 1, 2, 2))
        assert cost_basic(UnfeasibleOp(0, 2), 2, prev, [2, 2, 2]) == 2.0

    def test_full_core_forbidden(self):
        assert cost_basic(UnfeasibleOp(1, 2), 0, BLOCK_2X2, [1, 2]) == FORBIDDEN

    def test_attraction_discount(self):
        # One future interaction at the repaired slice's successor: weight 1/2,
        # averaged over the two endpoints -> discount 1/4.
        gates = [cx(0, 2), h(1), h(3), h(4), h(5)]
        future = [cx(0, 4), h(1), h(2), h(3), h(5)]
        sliced = timeslice(Circuit(6, tuple(gates + future)))
        prev = Assignment((0, 0, 1, 1, 2, 2))
        residency = [0, 0, -1, 1, 2, 2]  # qubit 2 lifted alongside 0
        residency[0] = -1
        value = cost_attraction(
            UnfeasibleOp(0, 2), 2, prev, [2, 2, 2], residency, sliced, t=-1
        )
        # base 2 (neither endpoint lives in core 2) minus (w(0,4) + 0)/2 = 0.25/2
        assert value == 2.0 - (0.25 + 0.0) / 2.0

    def test_attraction_forbidden_unchanged(self):
        sliced = timeslice(Circuit(4, (cx(0, 2),)))
        value = cost_attraction(
            UnfeasibleOp(0, 2), 0, BLOCK_2X2, [1, 4], [-1, 0, -1, 1], sliced, t=-1
        )
        assert value == FORBIDDEN

    def test_attraction_reduces_to_basic_without_future(self):
        sliced = timeslice(Circuit(4, (cx(1, 2),)))
        residency = [0, -1, -1, 1]
        for core in (0, 1):
            assert cost_attraction(
                UnfeasibleOp(1, 2), core, BLOCK_2X2, [2, 2], residency, sliced, t=-1
            ) == cost_basic(UnfeasibleOp(1, 2), core, BLOCK_2X2, [2, 2])


class TestAttractionQubit:
    def _sliced(self):
        # Slice 0: nothing; slice 1: qubits 0 and 5 interact.
        gates = [h(q) for q in range(6)] + [cx(0, 5)]
        return timeslice(Circuit(6, tuple(gates)))

    def test_resident_pull_next_slice(self):
        sliced = self._sliced()
        residency = [-1, 0, 0, 1, 1, 2]  # q5 resident in core 2
        assert attraction_qubit(0, 2, residency, sliced, t=0) == 0.5

    def test_empty_core_pulls_nothing(self):
        sliced = self._sliced()
        residency = [-1, 0, 0, 1, 1, 1]
        assert attraction_qubit(0, 2, residency, sliced, t=0) == 0.0

    def test_lifted_partner_exerts_no_pull(self):
        sliced = self._sliced()
        residency = [-1, 0, 0, 1, 1, -1]  # q5 lifted too
        for core in (0, 1, 2):
            assert attraction_qubit(0, core, residency, sliced, t=0) == 0.0

    def test_no_future_interactions(self):
        sliced = timeslice(Circuit(4, (cx(0, 1),)))
        assert attraction_qubit(2, 0, [0, 0, -1, 1], sliced, t=-1) == 0.0


class TestCostMatrixConsistency:
    def test_vectorized_matrix_equals_scalar_contracts(self):
        # The batched cost construction must agree entry-for-entry with the
        # scalar cost functions it implements.
        import numpy as np

        from qcoremap import gen_random
        from qcoremap.hqa import _attraction_matrix, _base_cost_matrix
        from qcoremap.lookahead import DEFAULT_HORIZON, pair_arrays, window_matrix

        circuit = gen_random(8, cycles=6, p=0.5, seed=21)
        sliced = timeslice(circuit)
        arch = Architecture(2, 4)
        prev = initial_assignment(8, arch)
        for t in range(-1, 3):
            gates = sliced.slices[t + 1]
            ops = collect_unfeasible(prev, gates)
            if not ops:
                continue
            ops = parity_fix(ops, prev, gates, arch.num_cores)
            residency = np.asarray(prev.core_of, dtype=np.int64)
            for op in ops:
                residency[op.qa] = residency[op.qb] = -1
            free = np.asarray(arch.capacities) - np.bincount(
                residency[residency >= 0], minlength=arch.num_cores
            )
            weights = window_matrix(8, *pair_arrays(sliced), t, DEFAULT_HORIZON)
            base = _base_cost_matrix(ops, prev, free)
            pull = _attraction_matrix(ops, residency, weights, arch.num_cores)
            for i, op in enumerate(ops):
                for core in range(arch.num_cores):
                    assert base[i, core] == cost_basic(op, core, prev, free)
                    expected = cost_attraction(
                        op, core, prev, free, residency, sliced, t
                    )
                    combined = base[i, core]
                    if np.isfinite(combined):
                        combined -= pull[i, core]
                    assert combined == expected


class TestHqaStep:
    def test_spec_repair_scenario(self):
        sliced = timeslice(Circuit(4, (cx(1, 2),)))
        arch = Architecture(2, 2)
        result = hqa_step(BLOCK_2X2, sliced, -1, arch, HqaConfig(use_attraction=False))
        assert result.core_of == (1, 0, 0, 1)
        assert count_communications([BLOCK_2X2, result]) == 2
        assert is_valid(result, sliced.slices[0], arch)

    def test_no_unfeasible_ops_returns_prev(self):
        sliced = timeslice(Circuit(4, (cx(0, 1),)))
        result = hqa_step(BLOCK_2X2, sliced, -1, Architecture(2, 2))
        assert result is BLOCK_2X2

    def test_more_ops_than_cores_batches_in_gate_order(self):
        prev = Assignment((0, 0, 0, 0, 1, 1, 1, 1))
        sliced = timeslice(Circuit(8, (cx(0, 4), cx(1, 5), cx(2, 6))))
        arch = Architecture(2, 4)
        result = hqa_step(prev, sliced, -1, arch, HqaConfig(use_attraction=False))
        # Rounds: [(0,4),(1,5)] then [(2,6),(3,7)-auxiliary]; home cores win ties.
        assert result.core_of == (0, 1, 0, 1, 0, 1, 0, 1)
        assert is_valid(result, sliced.slices[0], arch)


class TestMapCircuit:
    def test_ghz4_valid_and_matches_oracle(self):
        circuit = gen_ghz(4)
        arch = Architecture(2, 2)
        sliced = timeslice(circuit)
        for attraction in (False, True):
            path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
            for assignment, gates in zip(path.assignments, sliced.slices):
                assert is_valid(assignment, gates, arch)
            comms = count_communications(path)
            assert comms >= minimum_communications(circuit, arch)
            assert comms >= 2

    def test_no_two_qubit_gates_never_moves(self):
        circuit = Circuit(4, tuple(h(q) for q in range(4)) + tuple(h(q) for q in range(4)))
        path = map_circuit(circuit, Architecture(2, 2))
        assert count_communications(path) == 0
        assert len(set(path.assignments)) == 1

    def test_empty_circuit(self):
        path = map_circuit(Circuit(3, ()), Architecture(2, 2))
        assert path.num_slices == 0
        assert count_communications(path) == 0

    def test_attraction_flag_changes_outcomes(self):
        from qcoremap import gen_cuccaro

        circuit = gen_cuccaro(15)  # 32 qubits
        arch = Architecture(2, 16)
        on = count_communications(map_circuit(circuit, arch, HqaConfig(use_attraction=True)))
        off = count_communications(map_circuit(circuit, arch, HqaConfig(use_attraction=False)))
        assert on < off  # the look-ahead pull pays off on the structured adder

    def test_heterogeneous_capacities_respected(self):
        arch = Architecture(3, 2, core_capacities=(2, 4, 2))
        circuit = Circuit(8, (cx(0, 7), cx(2, 5)))
        sliced = timeslice(circuit)
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=False))
        for assignment, gates in zip(path.assignments, sliced.slices):
            assert is_valid(assignment, gates, arch)

    @given(circuits(max_qubits=8, max_gates=24), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_validity_capacity_conservation(self, circuit, num_cores):
        capacity = -(-circuit.num_qubits // num_cores)
        capacity += capacity % 2
        arch = Architecture(num_cores, capacity)
        sliced = timeslice(circuit)
        for attraction in (False, True):
            path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
            assert path.num_slices == sliced.num_slices
            for assignment, gates in zip(path.assignments, sliced.slices):
                assert is_valid(assignment, gates, arch)
                assert sorted(assignment.core_of.count(c) for c in range(num_cores)) == sorted(
                    assignment.loads(num_cores)
                )
                assert assignment.num_qubits == circuit.num_qubits

    @given(circuits(max_qubits=6, max_gates=14))
    @settings(max_examples=40, deadline=None)
    def test_moves_match_operation_accounting(self, circuit):
        # Per transition: untouched qubits stay put and both endpoints of every
        # operation land together, so relocations = endpoints leaving home.
        arch = Architecture(2, (circuit.num_qubits + 3) // 2 // 2 * 2 + 2)
        sliced = timeslice(circuit)
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=False))
        assignments = (initial_assignment(circuit.num_qubits, arch),) + path.assignments
        for t in range(len(assignments) - 1):
            before, after = assignments[t], assignments[t + 1]
            ops = collect_unfeasible(before, sliced.slices[t])
            if ops:
                ops = parity_fix(ops, before, sliced.slices[t], arch.num_cores)
            touched = {q for op in ops for q in op.qubits}
            expected_moves = 0
            for q in range(circuit.num_qubits):
                if q not in touched:
                    assert before.core_of[q] == after.core_of[q]
            for op in ops:
                assert after.core_of[op.qa] == after.core_of[op.qb]
                expected_moves += sum(
                    1 for q in op.qubits if before.core_of[q] != after.core_of[q]
                )
            moved = sum(1 for a, b in zip(before.core_of, after.core_of) if a != b)
            assert moved == expected_moves


class TestTotalOnFeasibleInput:
    """hqa raises only when the qubits exceed the total capacity or a slice
    has more pairs than sum_j floor(c_j / 2); everything else is mapped."""

    def test_smallest_former_failure(self):
        circuit = Circuit(3, (cx(2, 1), cx(1, 0)))
        arch = Architecture(2, 2, core_capacities=(2, 1))
        path = map_circuit(circuit, arch)
        validate_path(path, timeslice(circuit).slices, arch)
        assert count_communications(path) >= 2
        assert count_communications(path) >= minimum_communications(circuit, arch)

    def test_idle_qubit_evicted_to_free_a_core(self):
        # Both cores have one free slot once (2, 1) is lifted; idle qubit 0
        # moves to core 1, so the pair fits in its endpoint's home core 0.
        sliced = timeslice(Circuit(3, (cx(2, 1),)))
        arch = Architecture(2, 2, core_capacities=(2, 1))
        result = hqa_step(Assignment((0, 0, 1)), sliced, -1, arch)
        assert result.core_of == (1, 0, 0)

    def test_slice_placed_afresh_when_nothing_can_be_evicted(self, monkeypatch):
        # Lifting (0, 1) leaves cores 0 and 1 empty with one slot each and
        # core 2 full of idle qubits: no eviction opens a core, so the pair
        # takes core 2's pair slot and its residents move out in order.
        calls = []
        original = hqa._replace_slice
        monkeypatch.setattr(hqa, "_replace_slice", lambda *a: calls.append(1) or original(*a))
        sliced = timeslice(Circuit(4, (cx(0, 1),)))
        arch = Architecture(3, 2, core_capacities=(1, 1, 2))
        result = hqa_step(Assignment((0, 1, 2, 2)), sliced, -1, arch)
        assert calls == [1]
        assert result.core_of == (2, 2, 0, 1)

    def test_too_many_pairs_for_the_cores(self):
        circuit = Circuit(6, (cx(0, 1), cx(2, 3), cx(4, 5)))
        with pytest.raises(MappingInfeasibleError, match="slice 0 has 3 two-qubit gates.* at most 2"):
            map_circuit(circuit, Architecture(2, 3))

    def test_step_on_too_many_pairs_raises(self):
        # Called directly, past map_circuit's up-front check: two pairs fit,
        # the third finds neither an eviction nor a pair slot.
        sliced = timeslice(Circuit(6, (cx(0, 3), cx(1, 4), cx(2, 5))))
        prev = Assignment((0, 0, 0, 1, 1, 1))
        with pytest.raises(MappingInfeasibleError, match="3 two-qubit gates exceed the 2 pair slots"):
            hqa_step(prev, sliced, -1, Architecture(2, 3))

    def test_too_many_qubits_for_the_cores(self):
        with pytest.raises(CapacityError):
            map_circuit(Circuit(5, (cx(0, 1),)), Architecture(2, 2))

    @given(
        circuits(max_qubits=9, max_gates=16),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_maps_exactly_the_feasible_instances(self, circuit, caps, attraction):
        arch = Architecture(len(caps), max(caps), core_capacities=tuple(caps))
        sliced = timeslice(circuit)
        slots = sum(c // 2 for c in caps)
        feasible = sum(caps) >= circuit.num_qubits and all(
            sum(1 for g in gates if g.is_two_qubit) <= slots for gates in sliced.slices
        )
        try:
            path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
        except (CapacityError, MappingInfeasibleError):
            assert not feasible
            return
        assert feasible
        validate_path(path, sliced.slices, arch)

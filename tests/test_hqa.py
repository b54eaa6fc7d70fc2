import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoremap.assignment as assignment_module
import qcoremap.fgp as fgp
import qcoremap.hqa as hqa
from qcoremap import (
    Architecture,
    Assignment,
    AssignmentPath,
    CapacityError,
    Circuit,
    FORBIDDEN,
    Gate,
    HqaConfig,
    MappingInfeasibleError,
    count_communications,
    gen_ghz,
    initial_assignment,
    map_circuit,
    minimum_communications,
    timeslice,
    validate_path,
)
from qcoremap.hqa import UnfeasibleOp, collect_unfeasible, hqa_step, parity_fix

from conftest import circuits, tiny_instances
from scalar_reference import asap_slices, attraction_qubit, cost_attraction, cost_basic


def cx(a, b):
    return Gate("cx", (a, b))


def h(q):
    return Gate("h", (q,))


def slice_pairs(gates):
    """A slice's pair endpoint lists ``(a, b)``, in gate order, as hqa reads them."""
    two = [g.qubits for g in gates if len(g.qubits) == 2]
    return [q[0] for q in two], [q[1] for q in two]


def one_qubit(gates):
    """The qubits of a slice's one-qubit gates."""
    return {g.qubits[0] for g in gates if len(g.qubits) == 1}


def unfeasible(prev, gates):
    return collect_unfeasible(prev, *slice_pairs(gates))


def fix(ops, prev, gates, num_cores):
    return parity_fix(ops, prev, *slice_pairs(gates), one_qubit(gates), num_cores)


BLOCK_2X2 = Assignment((0, 0, 1, 1))


class TestCollectUnfeasible:
    def test_split_pair_collected(self):
        ops = unfeasible(BLOCK_2X2, [cx(1, 2)])
        assert ops == [UnfeasibleOp(1, 2)]

    def test_colocated_pair_ignored(self):
        assert unfeasible(BLOCK_2X2, [cx(0, 1)]) == []

    def test_gate_order_preserved(self):
        prev = Assignment((0, 0, 0, 1, 1, 1))
        ops = unfeasible(prev, [cx(2, 3), h(0), cx(1, 4)])
        assert [op.qubits for op in ops] == [(2, 3), (1, 4)]

    def test_five_split_pairs_give_five_ops(self):
        # Four cores, five gates straddling core boundaries.
        prev = Assignment((0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3))
        gates = [cx(0, 3), cx(1, 6), cx(4, 9), cx(7, 10), cx(2, 11)]
        assert len(unfeasible(prev, gates)) == 5


class TestParityFix:
    def test_spec_scenario_adds_idle_pair(self):
        ops = unfeasible(BLOCK_2X2, [cx(1, 2)])
        fixed = fix(ops, BLOCK_2X2, [cx(1, 2)], num_cores=2)
        assert [op.qubits for op in fixed] == [(1, 2), (0, 3)]
        assert fixed[1].auxiliary

    def test_even_cores_unchanged(self):
        prev = Assignment((0, 0, 1, 1))
        gates = [cx(0, 2), cx(1, 3)]
        ops = unfeasible(prev, gates)
        assert fix(ops, prev, gates, 2) == ops

    def test_prefers_idle_over_one_qubit_actor(self):
        # Core 0 residents after lifting: 0 (acts in h) and 1 (idle).
        prev = Assignment((0, 0, 0, 1, 1, 1))
        gates = [cx(2, 3), h(0)]
        ops = unfeasible(prev, gates)
        fixed = fix(ops, prev, gates, 2)
        assert [op.qubits for op in fixed] == [(2, 3), (1, 4)]

    def test_one_qubit_actor_used_when_no_idle(self):
        prev = Assignment((0, 0, 1, 1))
        gates = [cx(1, 2), h(0), h(3)]
        ops = unfeasible(prev, gates)
        fixed = fix(ops, prev, gates, 2)
        assert [op.qubits for op in fixed] == [(1, 2), (0, 3)]

    def test_feasible_pair_converted_when_core_exhausted(self):
        # Core 0: qubits 0,1 in a feasible gate, qubit 2 lifted -> odd, no spare.
        prev = Assignment((0, 0, 0, 1, 1, 1))
        gates = [cx(0, 1), cx(2, 3)]
        ops = unfeasible(prev, gates)
        fixed = fix(ops, prev, gates, 2)
        pairs = [op.qubits for op in fixed]
        assert (0, 1) in pairs  # converted feasible pair rides along
        converted = next(op for op in fixed if op.qubits == (0, 1))
        assert converted.auxiliary

    def test_scan_steps_past_lifted_residents(self):
        # Core 0's lowest residents 0, 1, 2 are all lifted; 3 is its spare.
        prev = Assignment((0, 0, 0, 0, 1, 1, 1, 1))
        gates = [cx(0, 4), cx(1, 5), cx(2, 6)]
        fixed = fix(unfeasible(prev, gates), prev, gates, 2)
        assert [(op.qubits, op.auxiliary) for op in fixed] == [
            ((0, 4), False), ((1, 5), False), ((2, 6), False), ((3, 7), True)
        ]

    def test_scan_steps_past_one_qubit_actors_to_an_idle_resident(self):
        # Core 0: 1 and 2 act in h, 3 is idle; core 1: 5 acts in h, 6 is idle.
        prev = Assignment((0, 0, 0, 0, 1, 1, 1, 1))
        gates = [cx(0, 4), h(1), h(2), h(5)]
        fixed = fix(unfeasible(prev, gates), prev, gates, 2)
        assert [op.qubits for op in fixed] == [(0, 4), (3, 6)]

    def test_lowest_one_qubit_actor_after_a_pair(self):
        # Core 0 has no idle resident: 1 and 2 are paired, 3 acts in h.
        prev = Assignment((0, 0, 0, 0, 1, 1, 1, 1))
        gates = [cx(0, 4), cx(1, 2), h(3), h(5), h(6), h(7)]
        fixed = fix(unfeasible(prev, gates), prev, gates, 2)
        assert [op.qubits for op in fixed] == [(0, 4), (3, 5)]

    def test_paired_cores_are_lifted_and_left_unpaired(self):
        # Cores 1 and 3 hold only co-located pairs: each pair is lifted, and
        # the spares of cores 0 and 2 make the one auxiliary pair.
        prev = Assignment((0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3))
        gates = [cx(0, 3), cx(4, 5), cx(6, 9), cx(10, 11)]
        fixed = fix(unfeasible(prev, gates), prev, gates, 4)
        assert [(op.qubits, op.auxiliary) for op in fixed] == [
            ((0, 3), False), ((6, 9), False), ((4, 5), True), ((10, 11), True), ((1, 7), True)
        ]

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
        slices = asap_slices(circuit)
        if not slices:
            return
        gates = slices[0]
        ops = unfeasible(prev, gates)
        if not ops:
            return
        fixed = fix(ops, prev, gates, num_cores)
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
        slices = asap_slices(Circuit(n, circuit.gates))
        if not slices:
            return
        gates = slices[0]
        ops = unfeasible(prev, gates)
        args = (*slice_pairs(gates), one_qubit(gates), len(caps))
        assert parity_fix(ops, prev, *args) == parity_fix_per_core_scan(ops, prev, *args)


def parity_fix_per_core_scan(ops, prev, a, b, one_qubit, num_cores):
    """``parity_fix`` as first written: every qubit is scanned once per odd core."""
    core_of = prev.core_of
    in_two_qubit, partner_of = set(a) | set(b), {}
    acting = in_two_qubit | set(one_qubit)
    for qa, qb in zip(a, b):
        partner_of[qa], partner_of[qb] = qb, qa
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
    def test_vectorized_matrix_equals_scalar_contracts(self, monkeypatch):
        # Every matrix hqa_step hands to solve, in later rounds and after an
        # eviction too, agrees entry for entry with the scalar cost functions
        # under that round's residency and free slots.
        from qcoremap import gen_random

        events = []
        step, solve, evict = hqa.hqa_step, hqa.solve, hqa._evict_idle

        def logged_step(prev, sliced, t, arch, config):
            events.append(("step", prev, t))
            return step(prev, sliced, t, arch, config)

        def logged_solve(cost):
            solution = solve(cost)
            events.append(("solve", cost, solution.col_of_row))
            return solution

        def logged_evict(op, prev, paired, residency, free):
            moved = evict(op, prev, paired, residency, free)
            events.append(("evict", list(residency), moved))
            return moved

        monkeypatch.setattr(hqa, "hqa_step", logged_step)
        monkeypatch.setattr(hqa, "solve", logged_solve)
        monkeypatch.setattr(hqa, "_evict_idle", logged_evict)
        instances = [
            (gen_random(8, cycles=6, p=0.5, seed=21), Architecture(2, 4)),
            (gen_random(12, cycles=8, p=0.8, seed=3), Architecture(2, 6)),
        ]
        instances += tiny_instances()[:150]
        later_rounds = after_eviction = 0
        for circuit, arch in instances:
            sliced, slices = timeslice(circuit), asap_slices(circuit)
            for attraction in (False, True):
                events.clear()
                try:
                    map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
                except (CapacityError, MappingInfeasibleError):
                    continue
                for kind, *data in events:
                    if kind == "step":
                        prev, t = data
                        gates = slices[t + 1]
                        ops = unfeasible(prev, gates)
                        ops = fix(ops, prev, gates, arch.num_cores) if ops else ops
                        residency = list(prev.core_of)
                        for op in ops:
                            residency[op.qa] = residency[op.qb] = -1
                        rounds, evicted = 0, False
                    elif kind == "evict":
                        if data[1]:
                            residency, evicted = data[0], True
                    else:
                        cost, cols = data
                        free = [cap - residency.count(c) for c, cap in enumerate(arch.capacities)]
                        batch, ops = ops[: len(cost)], ops[len(cost):]
                        for i, op in enumerate(batch):
                            for core in range(arch.num_cores):
                                expected = (
                                    cost_attraction(op, core, prev, free, residency, sliced, t)
                                    if attraction
                                    else cost_basic(op, core, prev, free)
                                )
                                assert cost[i][core] == expected
                        later_rounds += rounds > 0
                        after_eviction += evicted
                        rounds, evicted = rounds + 1, False
                        for op, core in zip(batch, cols):
                            residency[op.qa] = residency[op.qb] = core
        assert later_rounds and after_eviction


class TestHqaStep:
    def test_spec_repair_scenario(self):
        sliced = timeslice(Circuit(4, (cx(1, 2),)))
        arch = Architecture(2, 2)
        result = hqa_step(BLOCK_2X2, sliced, -1, arch, HqaConfig(use_attraction=False))
        assert result.core_of == (1, 0, 0, 1)
        assert count_communications([BLOCK_2X2, result]) == 2
        validate_path(AssignmentPath(4, 2, 2, (result,)), sliced, arch)

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
        validate_path(AssignmentPath(8, 2, 4, (result,)), sliced, arch)


    def test_result_holds_plain_ints(self, monkeypatch):
        # The step builds its Assignment unchecked, so its row must already
        # be what the checked constructor makes: a tuple of ints, which
        # ``to_json`` writes as JSON integers.
        from qcoremap.generators import FAMILIES, BenchmarkSpec

        def logged(log, original):
            def wrapper(*args):
                log.append(original(*args))
                return log[-1]
            return wrapper

        steps, evictions, fallbacks = [], [], []
        monkeypatch.setattr(hqa, "hqa_step", logged(steps, hqa.hqa_step))
        monkeypatch.setattr(hqa, "_evict_idle", logged(evictions, hqa._evict_idle))
        monkeypatch.setattr(hqa, "place_pairs", logged(fallbacks, hqa.place_pairs))
        sweep = [
            (BenchmarkSpec(family=family, num_qubits=24, seed=1).build(), Architecture(k, 24 // k))
            for family in FAMILIES
            for k in (2, 4)
        ]
        for circuit, arch in sweep + tiny_instances(count=150):
            for attraction in (False, True):
                try:
                    map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
                except (CapacityError, MappingInfeasibleError):
                    pass
        assert True in evictions and fallbacks
        for result in steps:
            assert type(result.core_of) is tuple
            assert all(type(core) is int for core in result.core_of)
            assert result == Assignment(result.core_of)


class TestMapCircuit:
    def test_ghz4_valid_and_matches_oracle(self):
        circuit = gen_ghz(4)
        arch = Architecture(2, 2)
        sliced = timeslice(circuit)
        for attraction in (False, True):
            path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
            validate_path(path, sliced, arch)
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
        arch = Architecture(3, 4, core_capacities=(2, 4, 2))
        circuit = Circuit(8, (cx(0, 7), cx(2, 5)))
        sliced = timeslice(circuit)
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=False))
        validate_path(path, sliced, arch)

    @given(circuits(max_qubits=8, max_gates=24), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_validity_capacity_conservation(self, circuit, num_cores):
        capacity = -(-circuit.num_qubits // num_cores)
        capacity += capacity % 2
        arch = Architecture(num_cores, capacity)
        sliced = timeslice(circuit)
        for attraction in (False, True):
            path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
            assert path.num_qubits == circuit.num_qubits
            validate_path(path, sliced, arch)

    @given(circuits(max_qubits=6, max_gates=14))
    @settings(max_examples=40, deadline=None)
    def test_moves_match_operation_accounting(self, circuit):
        # Per transition: untouched qubits stay put and both endpoints of every
        # operation land together, so relocations = endpoints leaving home.
        arch = Architecture(2, (circuit.num_qubits + 3) // 2 // 2 * 2 + 2)
        slices = asap_slices(circuit)
        path = map_circuit(circuit, arch, HqaConfig(use_attraction=False))
        assignments = (initial_assignment(circuit.num_qubits, arch),) + path.assignments
        for t in range(len(assignments) - 1):
            before, after = assignments[t], assignments[t + 1]
            ops = unfeasible(before, slices[t])
            if ops:
                ops = fix(ops, before, slices[t], arch.num_cores)
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
    """hqa, and fgp too, raise only when the qubits exceed the total capacity
    or a slice has more pairs than sum_j floor(c_j / 2); everything else is
    mapped."""

    def test_smallest_former_failure(self):
        circuit = Circuit(3, (cx(2, 1), cx(1, 0)))
        arch = Architecture(2, 2, core_capacities=(2, 1))
        path = map_circuit(circuit, arch)
        validate_path(path, timeslice(circuit), arch)
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
        original = hqa.place_pairs
        monkeypatch.setattr(hqa, "place_pairs", lambda *a: calls.append(1) or original(*a))
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

    def test_pair_slot_rule_shared_with_fgp(self):
        # One check and one placement, in qcoremap.assignment, serve both mappers.
        assert MappingInfeasibleError is assignment_module.MappingInfeasibleError
        assert fgp.check_pair_slots is hqa.check_pair_slots is assignment_module.check_pair_slots
        assert fgp.place_pairs is hqa.place_pairs is assignment_module.place_pairs

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
            sum(1 for g in gates if len(g.qubits) == 2) <= slots for gates in asap_slices(circuit)
        )
        mappers = (
            lambda c, a: map_circuit(c, a, HqaConfig(use_attraction=attraction)),
            fgp.fgp_map_circuit,
        )
        for mapper in mappers:
            try:
                path = mapper(circuit, arch)
            except (CapacityError, MappingInfeasibleError):
                assert not feasible
                continue
            assert feasible
            validate_path(path, sliced, arch)


class TestPinnedTinyPaths:
    """hqa's paths on tiny odd, non-uniform or partly filled instances, the
    inputs that reach parity's leftover spares, idle evictions and the
    ``place_pairs`` fallback, which the paper sweeps never do."""

    # sha256 of each instance's path with attraction off, then on (or the
    # error's name), one line per call, captured when hqa still walked the
    # slice's Gate objects.
    DIGEST = "86636c6bd4f11c237575be2305702e42ebf653354563bb04fd8f58146ecb0345"

    def test_paths_match_pinned_digest(self, monkeypatch):
        def logged(log, original):
            def wrapper(*args):
                log.append(original(*args))
                return log[-1]
            return wrapper

        evictions, fallbacks = [], []
        monkeypatch.setattr(hqa, "_evict_idle", logged(evictions, hqa._evict_idle))
        monkeypatch.setattr(hqa, "place_pairs", logged(fallbacks, hqa.place_pairs))
        lines = []
        for circuit, arch in tiny_instances():
            for attraction in (False, True):
                try:
                    path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
                except (CapacityError, MappingInfeasibleError) as exc:
                    lines.append(type(exc).__name__)
                    continue
                lines.append(repr([a.core_of for a in path.assignments]))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
        assert True in evictions and fallbacks


class TestPinnedScalePaths:
    """hqa's ``map`` paths for every family at 48 qubits on 2x24 and 6x8,
    attraction off and on: multi-round batches on two cores and the full
    32-slice look-ahead window, which the tiny instances never reach."""

    # sha256 over the path files ``map --out`` writes, in family, then
    # architecture, then attraction order; stochastic families use seed 1.
    DIGEST = "b8dd8ab67e3d87cb1b814e873dc6fc621bd588927b5f027e6954709f1c82b7fa"

    def test_map_paths_match_pinned_digest(self, tmp_path, capsys):
        from qcoremap.cli import main
        from qcoremap.generators import FAMILIES

        paths = []
        for family in FAMILIES:
            qasm = tmp_path / f"{family}.qasm"
            main(["generate", "--family", family, "--qubits", "48", "--seed", "1",
                  "--out", str(qasm)])
            for cores, capacity in ((2, 24), (6, 8)):
                for attraction in ("off", "on"):
                    out = tmp_path / "path.json"
                    code = main(["map", str(qasm), "--cores", str(cores),
                                 "--capacity", str(capacity), "--attraction", attraction,
                                 "--out", str(out)])
                    assert code == 0
                    paths.append(out.read_text())
        assert hashlib.sha256("".join(paths).encode()).hexdigest() == self.DIGEST

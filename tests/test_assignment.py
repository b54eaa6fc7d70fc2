"""Architectures, assignments, the path check and the relocation count.

``perfbench/checker.py`` re-derives validity and the relocation count from
the problem statement without calling qcoremap; it is loaded by file path
because perfbench/ is not a package.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoremap import (
    Architecture,
    Assignment,
    AssignmentPath,
    CapacityError,
    Circuit,
    Gate,
    MappingValidationError,
    count_communications,
    fgp_map_circuit,
    gen_ghz,
    initial_assignment,
    map_circuit,
    timeslice,
    validate_path,
)

from conftest import circuits
from scalar_reference import asap_slices

_spec = importlib.util.spec_from_file_location(
    "perfbench_checker", Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def cx(a, b):
    return Gate("cx", (a, b))


def h(q):
    return Gate("h", (q,))


class TestArchitecture:
    def test_uniform_capacities(self):
        arch = Architecture(3, 4)
        assert arch.capacities == (4, 4, 4)
        assert arch.total_capacity == 12

    def test_heterogeneous_capacities(self):
        arch = Architecture(2, 4, core_capacities=(4, 2))
        assert arch.capacities == (4, 2)
        assert arch.total_capacity == 6

    @pytest.mark.parametrize("capacity", [5, 2], ids=["label-above", "label-below"])
    def test_label_must_be_largest_core(self, capacity):
        with pytest.raises(ValueError, match="largest core capacity"):
            Architecture(2, capacity, core_capacities=(3, 3))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Architecture(0, 4)
        with pytest.raises(ValueError):
            Architecture(2, 0)


class TestInitialAssignment:
    def test_block_layout(self):
        assert initial_assignment(4, Architecture(2, 2)).core_of == (0, 0, 1, 1)

    def test_partial_fill(self):
        assert initial_assignment(3, Architecture(2, 2)).core_of == (0, 0, 1)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            initial_assignment(5, Architecture(2, 2))

    def test_heterogeneous_fill(self):
        arch = Architecture(3, 3, core_capacities=(1, 3, 2))
        assert initial_assignment(5, arch).core_of == (0, 1, 1, 1, 2)


def validate_one(core_of, *gates):
    """validate_path on a one-slice path over 2 cores of capacity 2, against
    the slicing of ``gates`` (one h on qubit 0 when none are given) over as
    many qubits as the row places."""
    sliced = timeslice(Circuit(len(core_of), gates or (h(0),)))
    assert sliced.num_slices == 1
    validate_path(path_of(core_of), sliced, Architecture(2, 2))


class TestIsValid:
    """The per-slice rules, each on a one-slice path."""

    def test_colocated_pair(self):
        validate_one((0, 0, 1, 1), cx(0, 1))

    def test_split_pair_invalid(self):
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_one((0, 1, 1, 0), cx(0, 1))

    def test_empty_slice_valid(self):
        validate_one((0, 0, 1, 1))

    def test_overloaded_core_invalid(self):
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_one((0, 0, 0, 1))

    @pytest.mark.parametrize("core_of", [(0, -1, -1), (0, 2, 1), (5,)])
    def test_core_out_of_range_rejected(self, core_of):
        # A leaked LIFTED (-1) must not be counted on the last core.
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_one(core_of)


def path_of(*rows, num_cores=2, capacity=2):
    return AssignmentPath(
        num_qubits=len(rows[0]),
        num_cores=num_cores,
        capacity=capacity,
        assignments=tuple(Assignment(tuple(r)) for r in rows),
    )


# A later slice either reuses the earlier Assignment object or holds an equal
# copy of its row; the path check and the count must treat both alike.
REUSED = pytest.mark.parametrize(
    "again", [lambda a: a, lambda a: Assignment(a.core_of)], ids=["shared", "equal"]
)


class TestValidatePath:
    def sliced(self, n, *gates):
        return timeslice(Circuit(n, tuple(gates)))

    def test_valid_path_accepted(self):
        validate_path(path_of((0, 0, 1, 1)), self.sliced(4, cx(0, 1)), Architecture(2, 2))

    def test_split_pair_rejected(self):
        with pytest.raises(MappingValidationError):
            validate_path(path_of((0, 1, 0, 1)), self.sliced(4, cx(0, 1)), Architecture(2, 2))

    def test_short_assignment_rejected(self):
        path = AssignmentPath(4, 2, 2, (Assignment((0, 0)),))
        with pytest.raises(MappingValidationError):
            validate_path(path, self.sliced(4, cx(0, 1)), Architecture(2, 2))

    def test_lifted_core_rejected(self):
        path = path_of((0, 0, -1, -1))
        with pytest.raises(MappingValidationError):
            validate_path(path, self.sliced(4, cx(0, 1)), Architecture(2, 2))

    def test_path_narrower_than_circuit_rejected(self):
        path = AssignmentPath(3, 2, 2, (Assignment((0, 0, 1)),))
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_path(path, self.sliced(4, cx(2, 3)), Architecture(2, 2))

    def test_one_qubit_gate_beyond_path_rejected(self):
        # Only a one-qubit gate touches the missing qubit 3; the checker
        # rejects this path too ("places 3 of 4 qubits").
        path = AssignmentPath(3, 2, 2, (Assignment((0, 0, 1)),))
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_path(path, self.sliced(4, cx(0, 1), h(3)), Architecture(2, 2))

    def test_untouched_qubit_beyond_path_rejected(self):
        # No gate touches the missing qubit 3; the slicing's qubit count
        # still says the row is one qubit short.
        path = AssignmentPath(3, 2, 2, (Assignment((0, 0, 1)),))
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_path(path, self.sliced(4, cx(0, 1)), Architecture(2, 2))

    def test_row_wider_than_circuit_rejected(self):
        path = AssignmentPath(4, 2, 2, (Assignment((0, 0, 1, 1)),))
        with pytest.raises(MappingValidationError, match="slice 0"):
            validate_path(path, timeslice(Circuit(3, (cx(0, 1),))), Architecture(2, 2))

    @REUSED
    def test_shared_assignment_checked_on_every_slice(self, again):
        # One row for three slices: valid for (0, 1), then (2, 3), but the
        # third slice's pair (1, 2) is split, so the check must not be skipped.
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, again(shared), again(shared)))
        sliced = self.sliced(4, cx(0, 1), cx(2, 3), cx(1, 0), cx(1, 2))
        assert sliced.num_slices == 3
        with pytest.raises(MappingValidationError, match="slice 2"):
            validate_path(path, sliced, Architecture(2, 2))

    @REUSED
    def test_shared_assignment_accepted(self, again):
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, again(shared)))
        validate_path(path, self.sliced(4, cx(0, 1), cx(1, 0)), Architecture(2, 2))

    @REUSED
    def test_over_capacity_caught_after_shared_run(self, again):
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, again(shared), Assignment((0, 0, 0, 1))))
        sliced = self.sliced(4, cx(0, 1), cx(1, 0), cx(0, 1))
        with pytest.raises(MappingValidationError, match="slice 2"):
            validate_path(path, sliced, Architecture(2, 2))

    def test_empty_path_with_wrong_qubit_count_rejected(self):
        # With no slices there is no row to compare, so the header is checked.
        path = AssignmentPath(5, 2, 2, ())
        with pytest.raises(MappingValidationError, match="5 qubits and the circuit 3"):
            validate_path(path, timeslice(Circuit(3, ())), Architecture(2, 2))
        validate_path(AssignmentPath(3, 2, 2, ()), timeslice(Circuit(3, ())), Architecture(2, 2))

    @pytest.mark.parametrize("mapper", [map_circuit, fgp_map_circuit], ids=["hqa", "fgp"])
    @pytest.mark.parametrize("num_cores, capacity", [(9, 99), (3, 2), (2, 3)])
    def test_path_for_another_architecture_rejected(self, mapper, num_cores, capacity):
        circuit, arch = gen_ghz(4), Architecture(2, 2)
        path = mapper(circuit, arch)
        validate_path(path, timeslice(circuit), arch)
        relabelled = AssignmentPath(path.num_qubits, num_cores, capacity, path.assignments)
        with pytest.raises(MappingValidationError, match="the architecture has 2 of 2"):
            validate_path(relabelled, timeslice(circuit), arch)


class TestCountCommunications:
    def test_identical_assignments_cost_nothing(self):
        assert count_communications(path_of((0, 0, 1, 1), (0, 0, 1, 1))) == 0

    def test_single_move(self):
        assert count_communications(path_of((0, 0, 1, 1), (0, 0, 1, 0))) == 1

    def test_swap_costs_two(self):
        assert count_communications(path_of((0, 0, 1, 1), (1, 0, 0, 1))) == 2

    def test_first_assignment_free(self):
        assert count_communications(path_of((1, 1, 0, 0))) == 0

    def test_accumulates_over_transitions(self):
        assert count_communications(path_of((0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0))) == 3

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
            min_size=1,
            max_size=6,
        ),
        st.permutations(list(range(4))),
    )
    def test_invariant_under_core_relabeling(self, rows, relabel):
        path = [Assignment(tuple(r)) for r in rows]
        relabeled = [Assignment(tuple(relabel[c] for c in r)) for r in rows]
        assert count_communications(path) == count_communications(relabeled)

    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    )
    def test_triangle_sanity(self, a, b, middle):
        # Routing through an intermediate assignment never lowers the count.
        direct = count_communications([Assignment(tuple(a)), Assignment(tuple(b))])
        detour = count_communications(
            [Assignment(tuple(a)), Assignment(tuple(middle)), Assignment(tuple(b))]
        )
        assert detour >= direct


class TestCountSharedAssignments:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("new", "shared", "equal")),
                st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_pairwise_definition(self, steps):
        # Each step reuses the previous object, copies its row, or builds a new row.
        path = []
        for step, row in steps:
            if step == "new" or not path:
                path.append(Assignment(tuple(row)))
            else:
                path.append(path[-1] if step == "shared" else Assignment(path[-1].core_of))
        expected = sum(
            sum(1 for a, b in zip(before.core_of, after.core_of) if a != b)
            for before, after in zip(path, path[1:])
        )
        assert count_communications(path) == expected
        rebuilt = [Assignment(a.core_of) for a in path]  # no shared objects
        assert count_communications(rebuilt) == expected


@st.composite
def paths_for(draw, circuit):
    """A path over ``circuit``'s slicing on 1-3 cores of capacity 1-5 that
    mixes reused objects, equal copies and fresh rows.

    A fresh row puts the slice's pairs, then its other qubits, on drawn cores
    with room, so it is valid unless the room runs out (the overflow goes to
    core 0). Some fresh rows then take one fault: a core -1 or k, a split
    pair or a missing last entry. Some paths also miss or add a slice.
    """
    n = circuit.num_qubits
    slices = asap_slices(circuit)
    capacities = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    k = len(capacities)
    num_slices = len(slices) + draw(st.sampled_from((0,) * 8 + (-1, 1)))
    assignments = []
    for t in range(max(num_slices, 0)):
        step = draw(st.sampled_from(("new", "new", "shared", "equal")))
        if assignments and step != "new":
            previous = assignments[-1]
            assignments.append(previous if step == "shared" else Assignment(previous.core_of))
            continue
        gates = slices[t] if t < len(slices) else ()
        pairs = [g.qubits for g in gates if len(g.qubits) == 2]
        paired = {q for pair in pairs for q in pair}
        room = list(capacities)
        core_of = [0] * n
        for group in pairs + [(q,) for q in range(n) if q not in paired]:
            fits = [c for c, r in enumerate(room) if r >= len(group)]
            core = draw(st.sampled_from(fits)) if fits else 0
            room[core] -= len(group)
            for q in group:
                core_of[q] = core
        fault = draw(st.sampled_from(("none",) * 6 + ("low", "high", "split", "short")))
        if fault == "short":
            core_of.pop()
        elif fault == "split" and pairs:
            a, _ = draw(st.sampled_from(pairs))
            core_of[a] = (core_of[a] + 1) % k
        elif fault in ("low", "high"):
            core_of[draw(st.integers(0, n - 1))] = -1 if fault == "low" else k
        assignments.append(Assignment(tuple(core_of)))
    arch = Architecture(k, max(capacities), core_capacities=capacities)
    return AssignmentPath(n, k, max(capacities), tuple(assignments)), arch


class TestAgainstChecker:
    @given(st.data(), circuits(max_qubits=5, max_gates=10))
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_count_match(self, data, circuit):
        path, arch = data.draw(paths_for(circuit))
        layers = checker.asap_layers(circuit.num_qubits, [g.qubits for g in circuit.gates])
        problem, relocations = checker.check_path(
            circuit.num_qubits, layers, arch.capacities, [a.core_of for a in path.assignments]
        )
        try:
            validate_path(path, timeslice(circuit), arch)
        except MappingValidationError:
            assert problem is not None
        else:
            assert problem is None
            assert count_communications(path) == relocations


class TestPathJson:
    def test_round_trip(self):
        path = path_of((0, 0, 1, 1), (0, 1, 0, 1))
        assert json.loads(path.to_json()) == {
            "num_qubits": 4,
            "num_cores": 2,
            "capacity": 2,
            "slices": [[0, 0, 1, 1], [0, 1, 0, 1]],
        }

    def test_schema_fields(self):
        doc = json.loads(path_of((0, 0, 1, 1)).to_json())
        assert set(doc) == {"num_qubits", "num_cores", "capacity", "slices"}
        assert doc["slices"] == [[0, 0, 1, 1]]

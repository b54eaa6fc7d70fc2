import pytest
from hypothesis import given
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
    initial_assignment,
    is_valid,
    timeslice,
    validate_path,
)


def cx(a, b):
    return Gate("cx", (a, b))


class TestArchitecture:
    def test_uniform_capacities(self):
        arch = Architecture(3, 4)
        assert arch.capacities == (4, 4, 4)
        assert arch.total_capacity == 12
        assert arch.is_uniform

    def test_heterogeneous_capacities(self):
        arch = Architecture(2, 4, core_capacities=(4, 2))
        assert arch.capacities == (4, 2)
        assert not arch.is_uniform

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
        arch = Architecture(3, 2, core_capacities=(1, 3, 2))
        assert initial_assignment(5, arch).core_of == (0, 1, 1, 1, 2)


class TestIsValid:
    def test_colocated_pair(self):
        arch = Architecture(2, 2)
        assert is_valid(Assignment((0, 0, 1, 1)), [cx(0, 1)], arch)

    def test_split_pair_invalid(self):
        arch = Architecture(2, 2)
        assert not is_valid(Assignment((0, 1, 1, 0)), [cx(0, 1)], arch)

    def test_empty_slice_valid(self):
        assert is_valid(Assignment((0, 0, 1, 1)), [], Architecture(2, 2))

    def test_overloaded_core_invalid(self):
        assert not is_valid(Assignment((0, 0, 0, 1)), [], Architecture(2, 2))

    @pytest.mark.parametrize("core_of", [(0, -1, -1), (0, 2, 1), (5,)])
    def test_core_out_of_range_rejected(self, core_of):
        # A leaked LIFTED (-1) must not be counted on the last core.
        with pytest.raises(MappingValidationError):
            is_valid(Assignment(core_of), [], Architecture(2, 2))


def path_of(*rows, num_cores=2, capacity=2):
    return AssignmentPath(
        num_qubits=len(rows[0]),
        num_cores=num_cores,
        capacity=capacity,
        assignments=tuple(Assignment(tuple(r)) for r in rows),
    )


class TestValidatePath:
    def slices(self, n, *gates):
        return timeslice(Circuit(n, tuple(gates))).slices

    def test_valid_path_accepted(self):
        validate_path(path_of((0, 0, 1, 1)), self.slices(4, cx(0, 1)), Architecture(2, 2))

    def test_split_pair_rejected(self):
        with pytest.raises(MappingValidationError):
            validate_path(path_of((0, 1, 0, 1)), self.slices(4, cx(0, 1)), Architecture(2, 2))

    def test_short_assignment_rejected(self):
        path = AssignmentPath(4, 2, 2, (Assignment((0, 0)),))
        with pytest.raises(MappingValidationError):
            validate_path(path, self.slices(4, cx(0, 1)), Architecture(2, 2))

    def test_lifted_core_rejected(self):
        path = path_of((0, 0, -1, -1))
        with pytest.raises(MappingValidationError):
            validate_path(path, self.slices(4, cx(0, 1)), Architecture(2, 2))

    def test_shared_assignment_checked_on_every_slice(self):
        # One object for three slices: valid for (0, 1), then (2, 3), but the
        # third slice's pair (1, 2) is split, so the check must not be skipped.
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, shared, shared))
        slices = self.slices(4, cx(0, 1), cx(2, 3), cx(1, 0), cx(1, 2))
        assert len(slices) == 3
        with pytest.raises(MappingValidationError, match="slice 2"):
            validate_path(path, slices, Architecture(2, 2))

    def test_shared_assignment_accepted(self):
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, shared))
        validate_path(path, self.slices(4, cx(0, 1), cx(1, 0)), Architecture(2, 2))

    def test_over_capacity_caught_after_shared_run(self):
        shared = Assignment((0, 0, 1, 1))
        path = AssignmentPath(4, 2, 2, (shared, shared, Assignment((0, 0, 0, 1))))
        slices = self.slices(4, cx(0, 1), cx(1, 0), cx(0, 1))
        with pytest.raises(MappingValidationError, match="slice 2"):
            validate_path(path, slices, Architecture(2, 2))


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
                st.booleans(),
                st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_pairwise_definition(self, steps):
        # Each step either reuses the previous object or builds a new one.
        path = []
        for reuse, row in steps:
            path.append(path[-1] if reuse and path else Assignment(tuple(row)))
        expected = sum(
            sum(1 for a, b in zip(before.core_of, after.core_of) if a != b)
            for before, after in zip(path, path[1:])
        )
        assert count_communications(path) == expected
        rebuilt = [Assignment(a.core_of) for a in path]  # no shared objects
        assert count_communications(rebuilt) == expected


class TestPathJson:
    def test_round_trip(self):
        path = path_of((0, 0, 1, 1), (0, 1, 0, 1))
        assert AssignmentPath.from_json(path.to_json()) == path

    def test_schema_fields(self):
        import json

        doc = json.loads(path_of((0, 0, 1, 1)).to_json())
        assert set(doc) == {"num_qubits", "num_cores", "capacity", "slices"}
        assert doc["slices"] == [[0, 0, 1, 1]]

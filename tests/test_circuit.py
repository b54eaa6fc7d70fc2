import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given

from qcoremap import BenchmarkSpec, Circuit, Gate, gen_ghz, gen_qft, timeslice
from qcoremap import circuit as circuit_module
from qcoremap.circuit import _unchecked_gate

from conftest import circuits
from scalar_reference import asap_slices


def cx(a, b):
    return Gate("cx", (a, b))


def h(q):
    return Gate("h", (q,))


class TestGateInvariants:
    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="repeats a qubit"):
            Gate("cx", (1, 1))

    def test_three_qubit_rejected(self):
        with pytest.raises(ValueError, match="1 or 2 qubits"):
            Gate("ccx", (0, 1, 2))

    def test_kind_matches_arity(self):
        # The pair arrays hold the two-qubit gates and only those; the
        # single arrays hold the one-qubit gates.
        sliced = timeslice(Circuit(3, (h(0), cx(1, 2), h(1))))
        a, b, offsets = sliced.pairs
        assert (a.tolist(), b.tolist(), offsets.tolist()) == ([1], [2], [0, 1, 1])
        q, single_offsets = sliced.singles
        assert (q.tolist(), single_offsets.tolist()) == ([0, 1], [0, 1, 2])

    def test_gate_index_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            Circuit(2, (cx(0, 2),))
        # Generated and parsed circuits are built from columns through the same check.
        with pytest.raises(ValueError, match=r"gate 'cx' on \(0, 2\) exceeds 2 qubits"):
            circuit_module._from_columns(2, ("h", "cx", "cx"), ((1,), (0, 2), (3, 0)), ((), (), ()))


SAMPLE_GATES = [("h", (2,), ()), ("cx", (3, 0), ()), ("cp", (0, 1), (0.5,)), ("u3", (1,), (0.1, 0.2, 0.3))]


class TestSlottedGate:
    def test_slots_and_no_instance_dict(self):
        gate = cx(0, 1)
        assert Gate.__slots__ == ("label", "qubits", "params")
        assert not hasattr(gate, "__dict__")

    @pytest.mark.parametrize("label, qubits, params", SAMPLE_GATES)
    def test_unchecked_equals_checked(self, label, qubits, params):
        unchecked, checked = _unchecked_gate(label, qubits, params), Gate(label, qubits, params)
        assert type(unchecked) is Gate
        assert unchecked == checked
        assert hash(unchecked) == hash(checked)
        assert repr(unchecked) == repr(checked)

    @pytest.mark.parametrize("name", ["label", "qubits", "params"])
    def test_fields_frozen(self, name):
        for gate in (cx(0, 1), _unchecked_gate("cx", (0, 1), ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gate, name, getattr(gate, name))

    def test_replace_builds_a_checked_gate(self):
        gate = _unchecked_gate("cp", (0, 1), (0.5,))
        assert dataclasses.replace(gate, qubits=[2, 3]) == Gate("cp", (2, 3), (0.5,))
        with pytest.raises(ValueError, match="repeats a qubit"):
            dataclasses.replace(gate, qubits=(1, 1))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        gates = tuple(_unchecked_gate(*sample) for sample in SAMPLE_GATES)
        circuit = Circuit(4, gates)
        sliced = timeslice(circuit)
        for value in (gates[2], circuit, sliced):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert restored == value


class TestTimeslice:
    """The slicing invariants, checked on the reference slicer's gate tuples;
    ``TestSliceArrays`` pins ``timeslice``'s arrays to those tuples."""

    def test_dependency_forced_layering(self):
        circuit = Circuit(4, (cx(0, 1), cx(2, 3), cx(1, 2)))
        assert [[g.qubits for g in s] for s in asap_slices(circuit)] == [
            [(0, 1), (2, 3)],
            [(1, 2)],
        ]
        assert as_lists(timeslice(circuit)) == (([0, 2, 1], [1, 3, 2], [0, 2, 3]), ([], [0, 0, 0]))

    def test_empty_circuit_has_no_slices(self):
        assert asap_slices(Circuit(3, ())) == ()
        assert timeslice(Circuit(3, ())).num_slices == 0

    def test_ghz_serializes_on_shared_control(self):
        assert [len(s) for s in asap_slices(gen_ghz(4))] == [1, 1, 1, 1]
        assert timeslice(gen_ghz(4)).num_slices == 4

    @given(circuits())
    def test_slice_disjointness(self, circuit):
        for s in asap_slices(circuit):
            used = [q for g in s for q in g.qubits]
            assert len(used) == len(set(used))

    @given(circuits())
    def test_order_preserved_per_qubit(self, circuit):
        flat = [g for s in asap_slices(circuit) for g in s]
        for q in range(circuit.num_qubits):
            original = [g for g in circuit.gates if q in g.qubits]
            resliced = [g for g in flat if q in g.qubits]
            assert original == resliced

    @given(circuits())
    def test_asap_tightness(self, circuit):
        # Every gate in slice s > 0 must conflict with slice s-1.
        slices = asap_slices(circuit)
        for s in range(1, len(slices)):
            prev_qubits = {q for g in slices[s - 1] for q in g.qubits}
            for g in slices[s]:
                assert any(q in prev_qubits for q in g.qubits)

    @given(circuits())
    def test_gates_conserved(self, circuit):
        slices = asap_slices(circuit)
        assert sum(len(s) for s in slices) == len(circuit.gates)
        assert all(slices) and timeslice(circuit).num_slices == len(slices)


class TestSliceCache:
    def test_second_call_returns_the_same_object(self):
        circuit = Circuit(4, (cx(0, 1), cx(2, 3), cx(1, 2)))
        assert timeslice(circuit) is timeslice(circuit)

    @given(circuits())
    def test_cached_equals_fresh_slicing_of_equal_circuit(self, circuit):
        first = timeslice(circuit)
        twin = Circuit(circuit.num_qubits, tuple(circuit.gates))
        assert twin is not circuit
        assert timeslice(twin) == first
        assert timeslice(circuit) is first

    def test_equality_hash_and_repr_ignore_the_cache(self):
        gates = (cx(0, 1), h(2), cx(1, 2))
        sliced, plain = Circuit(3, gates), Circuit(3, gates)
        timeslice(sliced)
        assert sliced == plain
        assert hash(sliced) == hash(plain)
        assert repr(sliced) == repr(plain)

    def test_pickle_round_trip(self):
        circuit = gen_ghz(5)
        timeslice(circuit)
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored == circuit
        assert timeslice(restored) == timeslice(Circuit(5, circuit.gates))


def flattened(slices):
    """The pair and single arrays of a slicing as lists, built from its
    slices' gate tuples slice by slice in gate order."""
    a, b, q = [], [], []
    pair_offsets, single_offsets = [0], [0]
    for gates in slices:
        for g in gates:
            if len(g.qubits) == 2:
                a.append(g.qubits[0])
                b.append(g.qubits[1])
            else:
                q.append(g.qubits[0])
        pair_offsets.append(len(a))
        single_offsets.append(len(q))
    return (a, b, pair_offsets), (q, single_offsets)


def as_lists(sliced):
    return tuple(x.tolist() for x in sliced.pairs), tuple(x.tolist() for x in sliced.singles)


class TestSliceArrays:
    @pytest.mark.parametrize("family", ["ghz", "cuccaro", "qft", "quantum_volume", "grover", "random"])
    def test_every_generator_matches_its_slices(self, family):
        spec = BenchmarkSpec(
            family,
            24,
            depth=4 if family == "quantum_volume" else None,
            cycles=4 if family == "random" else None,
            density=0.5 if family == "random" else None,
            seed=7 if family in ("quantum_volume", "random") else None,
        )
        circuit = spec.build()
        sliced = timeslice(circuit)
        assert as_lists(sliced) == flattened(asap_slices(circuit))
        for array in (*sliced.pairs, *sliced.singles):
            assert array.dtype == np.int64

    @given(circuits(max_qubits=10, max_gates=60))
    def test_random_gate_lists_match_their_slices(self, circuit):
        assert as_lists(timeslice(circuit)) == flattened(asap_slices(circuit))

    def test_one_read_only_flattening_per_circuit(self, monkeypatch):
        calls = []
        flatten = circuit_module._flatten
        monkeypatch.setattr(circuit_module, "_flatten", lambda *a: calls.append(1) or flatten(*a))
        circuit = Circuit(4, (cx(0, 1), h(2), cx(1, 3), cx(0, 2)))
        sliced = timeslice(circuit)
        assert timeslice(circuit).pairs is sliced.pairs
        assert len(calls) == 2  # the pairs and the singles, once each
        for array in (*sliced.pairs, *sliced.singles):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        fresh = timeslice(Circuit(4, circuit.gates))
        assert fresh.pairs is not sliced.pairs
        assert as_lists(fresh) == as_lists(sliced)
        assert as_lists(sliced) == (([0, 1, 0], [1, 3, 2], [0, 1, 3]), ([2], [0, 1, 1]))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickled_arrays_stay_read_only(self, protocol):
        circuit = gen_qft(6)
        sliced = timeslice(circuit)
        for copy in (pickle.loads(pickle.dumps(circuit, protocol)), pickle.loads(pickle.dumps(sliced, protocol))):
            copied = timeslice(copy) if isinstance(copy, Circuit) else copy
            assert copied is not sliced
            for array in (*copied.pairs, *copied.singles):
                assert not array.flags.writeable
            assert as_lists(copied) == as_lists(sliced)
            assert copied == sliced and hash(copied) == hash(sliced) and repr(copied) == repr(sliced)

    def test_equality_and_hash_compare_the_arrays(self):
        # Two slicings with distinct array objects of equal contents are
        # equal; a slicing that differs only in a pair or a one-qubit gate is
        # not. repr leaves the arrays out.
        gates = (cx(0, 1), cx(2, 3), h(4), h(5), cx(1, 2))
        sliced, plain = timeslice(Circuit(6, gates)), timeslice(Circuit(6, gates))
        assert sliced.pairs[0] is not plain.pairs[0] and len(sliced.pairs[0]) == 3
        assert sliced == plain and hash(sliced) == hash(plain) and repr(sliced) == repr(plain)
        assert "pairs" not in repr(sliced) and "singles" not in repr(sliced)
        for other in ((cx(0, 1), cx(2, 3), h(4), h(5), cx(1, 3)), (cx(0, 1), cx(2, 3), h(4), h(0), cx(1, 2))):
            assert timeslice(Circuit(6, other)).num_slices == sliced.num_slices
            assert timeslice(Circuit(6, other)) != sliced
        assert timeslice(Circuit(7, gates)) != sliced

"""Quantum circuit IR: gates, circuits, and parallel timeslices.

Only the interaction structure matters to the mapping passes: gate labels and
angles are opaque payload kept for serialization fidelity.

Circuits and gates are immutable, so a circuit's timeslicing is computed once
and kept on the circuit: every later ``timeslice`` call returns that object.
Likewise a slicing's two-qubit pairs are flattened once by ``pair_arrays``
and kept on the slicing; the mapping passes and the oracle read them there.

A ``Gate`` is slotted and has no per-instance ``__dict__``. A parsed or
generated circuit holds tens of thousands of gates; with a dict each, a gate
took about 160 bytes instead of 56, and parsing them set off extra full
garbage collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, slots=True)
class Gate:
    """A one- or two-qubit gate acting on distinct logical qubit indices.

    Slotted, so an instance carries its three fields and no ``__dict__``.
    """

    label: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"gate '{self.label}' must act on 1 or 2 qubits, got {len(self.qubits)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate '{self.label}' repeats a qubit: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"gate '{self.label}' has a negative qubit index: {self.qubits}")


_set_label = Gate.label.__set__
_set_qubits = Gate.qubits.__set__
_set_params = Gate.params.__set__


def _unchecked_gate(label: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> Gate:
    """A Gate built without ``__post_init__``, for a caller that has made its
    checks: ``qubits`` is a tuple of one or two distinct non-negative indices
    and ``params`` a tuple. The fields are written through the class's slot
    descriptors, which the frozen ``__setattr__`` does not guard."""
    gate = object.__new__(Gate)
    _set_label(gate, label)
    _set_qubits(gate, qubits)
    _set_params(gate, params)
    return gate


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` logical qubits.

    ``timeslice`` stores its result in the instance ``__dict__`` under
    ``_sliced``; it is not a field, so equality, hashing and ``repr`` ignore it.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate '{g.label}' on {g.qubits} exceeds {self.num_qubits} qubits")


def _unchecked_circuit(num_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A Circuit built without ``__post_init__``, for a caller that has checked
    that ``num_qubits`` is positive and every gate's qubits lie below it."""
    circuit = object.__new__(Circuit)
    fields = circuit.__dict__
    fields["num_qubits"] = num_qubits
    fields["gates"] = gates
    return circuit


@dataclass(frozen=True)
class TimeslicedCircuit:
    """Gates layered into slices whose members act on pairwise-disjoint qubits."""

    num_qubits: int
    slices: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(tuple(s) for s in self.slices))

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    def __getstate__(self):
        # The arrays kept by pair_arrays are read-only, and unpickled arrays
        # are not: drop them so a copy flattens afresh.
        state = dict(self.__dict__)
        state.pop("_pairs", None)
        return state


def timeslice(circuit: Circuit) -> TimeslicedCircuit:
    """Layer gates greedily as-soon-as-possible.

    Each gate lands in the earliest slice after the last slice that touched any
    of its qubits, so slices are disjoint, per-qubit order is preserved, and no
    gate could be hoisted one slice earlier. The result is computed on the
    first call for a circuit and returned again on every later call.
    """
    cached = circuit.__dict__.get("_sliced")
    if cached is not None:
        return cached
    last = [-1] * circuit.num_qubits
    slices: list[list[Gate]] = []
    for g in circuit.gates:
        qubits = g.qubits
        if len(qubits) == 2:
            a, b = qubits
            s = 1 + (last[a] if last[a] > last[b] else last[b])
            last[a] = last[b] = s
        else:
            s = 1 + last[qubits[0]]
            last[qubits[0]] = s
        if s == len(slices):
            slices.append([g])
        else:
            slices[s].append(g)
    sliced = TimeslicedCircuit(circuit.num_qubits, slices)
    circuit.__dict__["_sliced"] = sliced
    return sliced


def pair_arrays(sliced: TimeslicedCircuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten two-qubit gate endpoints into read-only (a, b, slice_offsets) arrays.

    slice_offsets has length T+1; slice m's pairs live at [offsets[m], offsets[m+1]),
    in gate order and with each gate's qubit order. The arrays are computed on
    the first call for a slicing and kept in its ``__dict__`` under ``_pairs``,
    the way ``timeslice`` keeps its result on the circuit, so every pass shares
    one flattening.
    """
    cached = sliced.__dict__.get("_pairs")
    if cached is not None:
        return cached
    a_list: list[int] = []
    b_list: list[int] = []
    offsets = [0]
    for gates in sliced.slices:
        for g in gates:
            if len(g.qubits) == 2:
                a_list.append(g.qubits[0])
                b_list.append(g.qubits[1])
        offsets.append(len(a_list))
    pairs = (
        np.asarray(a_list, dtype=np.int64),
        np.asarray(b_list, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
    )
    for array in pairs:
        array.setflags(write=False)
    sliced.__dict__["_pairs"] = pairs
    return pairs

"""Quantum circuit IR: gates, circuits, and parallel timeslices.

Only the interaction structure matters to the mapping passes: gate labels and
angles are opaque payload kept for serialization fidelity.

Circuits and gates are immutable, so a circuit's timeslicing is computed once
and kept on the circuit: every later ``timeslice`` call returns that object.
The same walk flattens the slices into read-only int arrays of pairs and of
one-qubit gates; the mapping passes and the oracle read those, not the gates.

A ``Gate`` is slotted and has no per-instance ``__dict__``. A parsed or
generated circuit holds tens of thousands of gates; with a dict each, a gate
took about 160 bytes instead of 56, and parsing them set off extra full
garbage collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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
    """Gates layered into slices whose members act on pairwise-disjoint qubits.

    ``pairs`` is ``(a, b, offsets)``, slice m's two-qubit gates at
    ``[offsets[m], offsets[m + 1])`` in gate order and qubit order, and
    ``singles`` is ``(q, offsets)`` for the one-qubit gates: read-only int64
    arrays, built by ``timeslice``, that equality, hashing and repr ignore.
    """

    num_qubits: int
    slices: tuple[tuple[Gate, ...], ...]
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)
    singles: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    def __post_init__(self):
        for array in (*self.pairs, *self.singles):
            array.setflags(write=False)

    def __reduce__(self):
        # Unpickled arrays are writable: rebuild through __init__, which seals them.
        return (TimeslicedCircuit, (self.num_qubits, self.slices, self.pairs, self.singles))

    @property
    def num_slices(self) -> int:
        return len(self.slices)


def _flatten(buckets: list[list[int]], width: int):
    """Each bucket's ``width``-qubit gates as one array per qubit position, then the offsets."""
    counts = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
    offsets = np.zeros(len(buckets) + 1, dtype=np.int64)
    np.cumsum(counts // width, out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(buckets), dtype=np.int64, count=int(counts.sum()))
    return (*(flat[i::width].copy() for i in range(width)), offsets)


def timeslice(circuit: Circuit) -> TimeslicedCircuit:
    """Layer gates greedily as-soon-as-possible.

    Each gate lands in the earliest slice after the last slice that touched any
    of its qubits, so slices are disjoint, per-qubit order is preserved, and no
    gate could be hoisted one slice earlier. The same walk appends each gate's
    qubits to its slice's pair or one-qubit bucket, which ``_flatten`` turns
    into ``pairs`` and ``singles``. The result is computed on the first call
    for a circuit and returned again on every later call.
    """
    cached = circuit.__dict__.get("_sliced")
    if cached is not None:
        return cached
    last = [-1] * circuit.num_qubits
    slices: list[list[Gate]] = []
    pair_qubits: list[list[int]] = []
    single_qubits: list[list[int]] = []
    for g in circuit.gates:
        qubits = g.qubits
        if len(qubits) == 2:
            a, b = qubits
            s = 1 + (last[a] if last[a] > last[b] else last[b])
            last[a] = last[b] = s
            bucket = pair_qubits
        else:
            s = 1 + last[qubits[0]]
            last[qubits[0]] = s
            bucket = single_qubits
        if s == len(slices):
            slices.append([])
            pair_qubits.append([])
            single_qubits.append([])
        slices[s].append(g)
        bucket[s].extend(qubits)
    sliced = TimeslicedCircuit(
        circuit.num_qubits,
        tuple(map(tuple, slices)),
        _flatten(pair_qubits, 2),
        _flatten(single_qubits, 1),
    )
    circuit.__dict__["_sliced"] = sliced
    return sliced

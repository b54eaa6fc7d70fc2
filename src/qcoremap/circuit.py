"""Quantum circuit IR: gates, circuits, and parallel timeslices.

Only the interaction structure matters to the mapping passes: gate labels and
angles are opaque payload kept for serialization fidelity.

A circuit holds its gates as three parallel columns and nothing else: one
label, one qubit tuple and one parameter tuple per gate. The generators and
the QASM parser fill the columns directly; ``Circuit(n, gates)`` turns the
gates it is given into columns. ``Gate`` objects are built only when a
circuit's ``gates`` is read, and are not kept. A slicing is its read-only int
arrays of pairs and of one-qubit gates and nothing else; the mapping passes,
the checks and the oracle read them, so generating, parsing and mapping a
circuit builds no ``Gate``. A column of tuples of ints or floats stops being
tracked by the garbage collector once its tuples have been through one
collection, so a circuit adds nothing to a full collection.

Circuits and gates are immutable, so a circuit's timeslicing is computed once
and kept on the circuit: every later ``timeslice`` call returns that object.

A ``Gate`` is slotted and has no per-instance ``__dict__``: with a dict
each, a gate took about 160 bytes instead of 56.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from itertools import chain
from operator import attrgetter

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


_write = object.__setattr__


class Circuit:
    """An ordered gate list over ``num_qubits`` logical qubits.

    The gates are held as the parallel columns ``labels``, ``qubits`` and
    ``params``: gate i is ``Gate(labels[i], qubits[i], params[i])``.
    ``Circuit(n, gates)`` turns the gates into columns and keeps none of
    them; ``gates`` builds a fresh tuple of ``Gate`` from the columns on
    every read. Equality, hashing, ``repr`` and pickling are those of
    ``(num_qubits, gates)``. The circuit is frozen; ``timeslice`` stores its
    result on it, which equality, hashing and ``repr`` ignore.
    """

    __slots__ = ("num_qubits", "labels", "qubits", "params", "_sliced", "__weakref__")

    def __init__(self, num_qubits: int, gates=()):
        gates = tuple(gates)
        columns = (tuple(map(attrgetter(name), gates)) for name in ("label", "qubits", "params"))
        self._fill(num_qubits, *columns)

    def _fill(self, num_qubits: int, labels, qubits, params):
        """Store the columns, after checking that ``num_qubits`` is positive
        and bounds every qubit index: the one check every circuit passes."""
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        if qubits and max(chain.from_iterable(qubits)) >= num_qubits:
            i = next(i for i, q in enumerate(qubits) if max(q) >= num_qubits)
            raise ValueError(f"gate '{labels[i]}' on {qubits[i]} exceeds {num_qubits} qubits")
        _write(self, "num_qubits", num_qubits)
        _write(self, "labels", labels)
        _write(self, "qubits", qubits)
        _write(self, "params", params)
        _write(self, "_sliced", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(map(_unchecked_gate, self.labels, self.qubits, self.params))

    def _columns(self):
        return self.labels, self.qubits, self.params

    def __eq__(self, other):
        if other.__class__ is not Circuit:
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._columns() == other._columns()

    def __hash__(self):
        # A Gate hashes as its (label, qubits, params) tuple, so this is the
        # hash of (num_qubits, gates) without building them.
        return hash((self.num_qubits, tuple(zip(*self._columns()))))

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits!r}, gates={self.gates!r})"

    def __reduce__(self):
        return (_from_columns, (self.num_qubits, *self._columns()))


def _from_columns(num_qubits: int, labels, qubits, params) -> Circuit:
    """A Circuit held as the given columns, for a caller that has built them
    as tuples of one length, each ``qubits`` entry a tuple of one or two
    distinct non-negative indices and each ``params`` entry a tuple. The
    index bound is checked here, as for ``Circuit(n, gates)``."""
    circuit = object.__new__(Circuit)
    circuit._fill(num_qubits, labels, qubits, params)
    return circuit


@dataclass(frozen=True, eq=False)
class TimeslicedCircuit:
    """Gates layered into slices whose members act on pairwise-disjoint qubits,
    held as read-only int64 arrays and nothing else.

    ``pairs`` is ``(a, b, offsets)``, slice m's two-qubit gates at
    ``[offsets[m], offsets[m + 1])`` in gate order and qubit order, and
    ``singles`` is ``(q, offsets)`` for the one-qubit gates. Equality and
    hashing compare ``num_qubits`` and the arrays' contents; ``repr`` leaves
    the arrays out.
    """

    num_qubits: int
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    singles: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __post_init__(self):
        for array in (*self.pairs, *self.singles):
            array.setflags(write=False)

    def _key(self):
        return (self.num_qubits, *(array.tobytes() for array in (*self.pairs, *self.singles)))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is TimeslicedCircuit else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # Unpickled arrays are writable: rebuild through __init__, which seals them.
        return (TimeslicedCircuit, (self.num_qubits, self.pairs, self.singles))

    @property
    def num_slices(self) -> int:
        return len(self.pairs[2]) - 1

    @property
    def slices(self) -> TimeslicedCircuit:
        """The slicing itself. This alias exists only because the benchmark's
        map-hqa workload passes ``sliced.slices`` to ``validate_path``; it goes
        once that workload passes ``sliced`` (ROADMAP item 10)."""
        return self


def _flatten(buckets: list[list[int]], width: int):
    """Each bucket's ``width``-int entries as one array per position, then the offsets."""
    counts = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
    offsets = np.zeros(len(buckets) + 1, dtype=np.int64)
    np.cumsum(counts // width, out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(buckets), dtype=np.int64, count=int(counts.sum()))
    return (*(flat[i::width].copy() for i in range(width)), offsets)


def timeslice(circuit: Circuit) -> TimeslicedCircuit:
    """Layer gates greedily as-soon-as-possible.

    Each gate lands in the earliest slice after the last slice that touched any
    of its qubits, so slices are disjoint, per-qubit order is preserved, and no
    gate could be hoisted one slice earlier. The walk reads the circuit's qubit
    column and appends each gate's qubits to its slice's pair or one-qubit
    bucket, which ``_flatten`` turns into ``pairs`` and ``singles``. The
    result is computed on the first call for a circuit and returned again on
    every later call.
    """
    cached = circuit._sliced
    if cached is not None:
        return cached
    last = [-1] * circuit.num_qubits
    pair_qubits: list[list[int]] = []
    single_qubits: list[list[int]] = []
    for qubits in circuit.qubits:
        if len(qubits) == 2:
            a, b = qubits
            s = 1 + (last[a] if last[a] > last[b] else last[b])
            last[a] = last[b] = s
            bucket = pair_qubits
        else:
            s = 1 + last[qubits[0]]
            last[qubits[0]] = s
            bucket = single_qubits
        if s == len(pair_qubits):
            pair_qubits.append([])
            single_qubits.append([])
        bucket[s].extend(qubits)
    sliced = TimeslicedCircuit(circuit.num_qubits, _flatten(pair_qubits, 2), _flatten(single_qubits, 1))
    _write(circuit, "_sliced", sliced)
    return sliced

"""Quantum circuit IR: gates, circuits, and parallel timeslices.

Only the interaction structure matters to the mapping passes: gate labels and
angles are opaque payload kept for serialization fidelity.

A circuit holds its gates as three parallel columns (labels, qubit tuples and
parameter tuples), or as the ``Gate`` objects it was built from, and builds
either form from the other when it is first read. A slicing's ``slices``
gives a slice's gate tuple when it is read. The mapping passes, the checks
and the oracle read neither gates nor slices: they read the slicing's
read-only int arrays of pairs and of one-qubit gates, so parsing and mapping
a circuit builds no ``Gate``. A column of tuples of ints or floats stops
being tracked by the garbage collector once its tuples have been through one
collection, so a parsed circuit adds nothing to a full collection.

Circuits and gates are immutable, so a circuit's timeslicing is computed once
and kept on the circuit: every later ``timeslice`` call returns that object.

A ``Gate`` is slotted and has no per-instance ``__dict__``. A generated
circuit holds tens of thousands of gates; with a dict each, a gate took about
160 bytes instead of 56, and building them set off extra full garbage
collections.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _gates_of(labels, qubits, params, indices) -> tuple[Gate, ...]:
    """The gates at ``indices`` of the three columns, built unchecked."""
    return tuple(
        map(
            _unchecked_gate,
            map(labels.__getitem__, indices),
            map(qubits.__getitem__, indices),
            map(params.__getitem__, indices),
        )
    )


_write = object.__setattr__


class Circuit:
    """An ordered gate list over ``num_qubits`` logical qubits.

    The gates are held as the parallel columns ``labels``, ``qubits`` and
    ``params``: gate i is ``Gate(labels[i], qubits[i], params[i])``. A
    circuit built from gates, ``Circuit(n, gates)``, keeps the gates it was
    given and builds each column when it is first read; one built from
    columns, as ``parse_qasm`` builds it, builds ``gates`` when it is first
    read. Either way, equality, hashing, ``repr`` and pickling are those of
    ``(num_qubits, gates)``. The circuit is frozen; ``timeslice`` stores its
    result on it, which equality, hashing and ``repr`` ignore.
    """

    __slots__ = ("num_qubits", "_gates", "_labels", "_qubits", "_params", "_sliced", "__weakref__")

    def __init__(self, num_qubits: int, gates=()):
        gates = tuple(gates)
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        for g in gates:
            if max(g.qubits) >= num_qubits:
                raise ValueError(f"gate '{g.label}' on {g.qubits} exceeds {num_qubits} qubits")
        _write(self, "num_qubits", num_qubits)
        _write(self, "_gates", gates)
        _write(self, "_labels", None)
        _write(self, "_qubits", None)
        _write(self, "_params", None)
        _write(self, "_sliced", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    @property
    def gates(self) -> tuple[Gate, ...]:
        if self._gates is None:
            indices = range(len(self._qubits))
            _write(self, "_gates", _gates_of(self._labels, self._qubits, self._params, indices))
        return self._gates

    def _column(self, slot: str, name: str) -> tuple:
        column = getattr(self, slot)
        if column is None:
            column = tuple(map(attrgetter(name), self._gates))
            _write(self, slot, column)
        return column

    @property
    def labels(self) -> tuple[str, ...]:
        """Each gate's label, in gate order."""
        return self._column("_labels", "label")

    @property
    def qubits(self) -> tuple[tuple[int, ...], ...]:
        """Each gate's one or two qubit indices, in gate order."""
        return self._column("_qubits", "qubits")

    @property
    def params(self) -> tuple[tuple[float, ...], ...]:
        """Each gate's parameters, in gate order."""
        return self._column("_params", "params")

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
    """A Circuit held as columns, for a caller that has checked that
    ``num_qubits`` is positive, that each ``qubits`` entry is a tuple of one
    or two distinct indices below it, and that each ``params`` entry is a
    tuple; the three columns are tuples of one length."""
    circuit = object.__new__(Circuit)
    _write(circuit, "num_qubits", num_qubits)
    _write(circuit, "_gates", None)
    _write(circuit, "_labels", labels)
    _write(circuit, "_qubits", qubits)
    _write(circuit, "_params", params)
    _write(circuit, "_sliced", None)
    return circuit


class SliceView(Sequence):
    """The slices of a slicing as a read-only sequence: item m is the tuple
    of slice m's gates, in gate order. It holds the circuit's gates when the
    circuit was built from them, and otherwise its columns, from which it
    builds a slice's gates each time the slice is read; and ``slice_of``,
    each gate's slice, which it groups by slice when first read.

    It also carries its slicing's ``num_qubits`` and ``pairs``, so a reader
    handed either the slicing or its ``slices`` finds the same arrays. Two
    views, or a view and a tuple, are equal when their gate tuples are.
    """

    __slots__ = ("num_qubits", "pairs", "_gates", "_columns", "_slice_of", "_members")

    def __init__(self, num_qubits: int, pairs, gates, columns, slice_of: np.ndarray):
        slice_of.setflags(write=False)
        self.num_qubits = num_qubits
        self.pairs = pairs
        self._gates = gates
        self._columns = columns
        self._slice_of = slice_of
        self._members = None

    def __len__(self) -> int:
        return len(self.pairs[2]) - 1

    def _slice(self, m: int) -> tuple[Gate, ...]:
        if self._members is None:
            order = np.argsort(self._slice_of, kind="stable")
            bounds = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(np.bincount(self._slice_of, minlength=len(self)), out=bounds[1:])
            self._members = (order.tolist(), bounds.tolist())
        order, bounds = self._members
        indices = order[bounds[m]:bounds[m + 1]]
        if self._gates is not None:
            return tuple(map(self._gates.__getitem__, indices))
        return _gates_of(*self._columns, indices)

    def __getitem__(self, m):
        if isinstance(m, slice):
            return tuple(map(self._slice, range(len(self))[m]))
        return self._slice(range(len(self))[m])

    def __iter__(self):
        return map(self._slice, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (SliceView, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        state = (self.num_qubits, self.pairs, self._gates, self._columns, self._slice_of)
        return (SliceView, state)


@dataclass(frozen=True)
class TimeslicedCircuit:
    """Gates layered into slices whose members act on pairwise-disjoint qubits.

    ``slices`` is a ``SliceView``. ``pairs`` is ``(a, b, offsets)``, slice
    m's two-qubit gates at ``[offsets[m], offsets[m + 1])`` in gate order and
    qubit order, and ``singles`` is ``(q, offsets)`` for the one-qubit gates:
    read-only int64 arrays, built by ``timeslice``, that equality, hashing
    and repr ignore.
    """

    num_qubits: int
    slices: SliceView
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
    column (or, for a circuit built from gates, each gate's qubits, so that no
    column is kept), records each gate's slice for the view, and appends its
    qubits to the slice's pair or one-qubit bucket, which ``_flatten`` turns
    into ``pairs`` and ``singles``. The result is computed on the first call
    for a circuit and returned again on every later call.
    """
    cached = circuit._sliced
    if cached is not None:
        return cached
    qubit_column = circuit._qubits
    if qubit_column is None:  # built from gates: read their qubits, keep no column
        qubit_column = map(attrgetter("qubits"), circuit._gates)
    last = [-1] * circuit.num_qubits
    slice_of: list[int] = []
    pair_qubits: list[list[int]] = []
    single_qubits: list[list[int]] = []
    for qubits in qubit_column:
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
        slice_of.append(s)
        bucket[s].extend(qubits)
    pairs = _flatten(pair_qubits, 2)
    sliced = TimeslicedCircuit(
        circuit.num_qubits,
        SliceView(
            circuit.num_qubits,
            pairs,
            circuit._gates,
            (circuit._labels, circuit._qubits, circuit._params),
            np.fromiter(slice_of, dtype=np.int32, count=len(slice_of)),
        ),
        pairs,
        _flatten(single_qubits, 1),
    )
    _write(circuit, "_sliced", sliced)
    return sliced

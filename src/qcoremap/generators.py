"""Deterministic benchmark circuit generators.

All families emit only one- and two-qubit gates. Stochastic families
(quantum_volume, random) are bit-reproducible for a fixed seed via the pinned
PRNG in :mod:`qcoremap.rng`.

Each family appends its gates to a circuit's three columns through
``_Columns`` and builds no ``Gate``: every family emits distinct,
non-negative qubit indices by construction, and the circuit each generator
returns is bounded by ``n`` through the same check as every other circuit.
A parameter tuple is stored as the family passes it, so gates that repeat an
angle can share one tuple, as QFT's controlled phases at one qubit distance
do; the serializer then writes that tuple's text once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, _from_columns
from .rng import Xoshiro256StarStar, stream_for

FAMILIES = ("ghz", "cuccaro", "qft", "quantum_volume", "grover", "random")
STOCHASTIC_FAMILIES = ("quantum_volume", "random")

_ONE_QUBIT_POOL = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
_TWO_PI = 2.0 * math.pi


class _Columns:
    """A circuit's label, qubit and parameter columns on ``num_qubits``
    qubits, appended gate by gate. The one-qubit gates on qubit q share one
    ``(q,)`` tuple, as a parsed circuit's do. ``g1`` and ``g2`` store the
    parameter tuple they are given, so a caller that passes one tuple to
    several gates has them share it."""

    __slots__ = ("num_qubits", "labels", "qubits", "params", "_single")

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.labels: list[str] = []
        self.qubits: list[tuple[int, ...]] = []
        self.params: list[tuple[float, ...]] = []
        self._single = [(q,) for q in range(num_qubits)]

    def g1(self, label: str, q: int, params: tuple[float, ...] = ()):
        self.labels.append(label)
        self.qubits.append(self._single[q])
        self.params.append(params)

    def g2(self, label: str, a: int, b: int, params: tuple[float, ...] = ()):
        self.labels.append(label)
        self.qubits.append((a, b))
        self.params.append(params)

    def circuit(self) -> Circuit:
        return _from_columns(
            self.num_qubits, tuple(self.labels), tuple(self.qubits), tuple(self.params)
        )


def _ccx(out: _Columns, c1: int, c2: int, tgt: int):
    """Toffoli expanded to the standard 6-CX network (qelib1 ccx)."""
    out.g1("h", tgt)
    out.g2("cx", c2, tgt)
    out.g1("tdg", tgt)
    out.g2("cx", c1, tgt)
    out.g1("t", tgt)
    out.g2("cx", c2, tgt)
    out.g1("tdg", tgt)
    out.g2("cx", c1, tgt)
    out.g1("t", c2)
    out.g1("t", tgt)
    out.g1("h", tgt)
    out.g2("cx", c1, c2)
    out.g1("t", c1)
    out.g1("tdg", c2)
    out.g2("cx", c1, c2)


def gen_ghz(n: int) -> Circuit:
    """Star-shaped entangler: h(0) then cx(0, i) for every other qubit."""
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    out = _Columns(n)
    out.g1("h", 0)
    for i in range(1, n):
        out.g2("cx", 0, i)
    return out.circuit()


def gen_qft(n: int) -> Circuit:
    """Textbook Fourier transform: h + controlled-phase fan per qubit, final swap network.

    The controlled phase between qubits i < j is ``pi / 2**(j - i)``, taken
    as ``math.ldexp(math.pi, i - j)``: the same float for every distance up
    to 1023, and past that a subnormal, then 0.0, where ``2**(j - i)`` would
    overflow a float. Every ``cp`` at one distance shares one ``(angle,)``.
    """
    if n < 1:
        raise ValueError(f"QFT needs at least 1 qubit, got {n}")
    out = _Columns(n)
    angles = [(math.ldexp(math.pi, -d),) for d in range(n)]
    for i in range(n):
        out.g1("h", i)
        for j in range(i + 1, n):
            out.g2("cp", i, j, angles[j - i])
    for i in range(n // 2):
        out.g2("swap", i, n - 1 - i)
    return out.circuit()


def gen_cuccaro(n_bits: int) -> Circuit:
    """Ripple-carry adder on 2*n_bits + 2 qubits with Toffolis pre-decomposed.

    Register layout: operand bits interleaved (a0, b0, a1, b1, ...), carry-in
    ancilla at index 2*n_bits, carry-out at 2*n_bits + 1.
    """
    if n_bits < 1:
        raise ValueError(f"adder needs at least 1 bit, got {n_bits}")
    a = [2 * i for i in range(n_bits)]
    b = [2 * i + 1 for i in range(n_bits)]
    cin = 2 * n_bits
    cout = 2 * n_bits + 1
    out = _Columns(2 * n_bits + 2)
    chain = [(cin, b[0], a[0])] + [(a[i - 1], b[i], a[i]) for i in range(1, n_bits)]
    for x, y, z in chain:  # MAJ
        out.g2("cx", z, y)
        out.g2("cx", z, x)
        _ccx(out, x, y, z)
    out.g2("cx", a[-1], cout)
    for x, y, z in reversed(chain):  # UMA
        _ccx(out, x, y, z)
        out.g2("cx", z, x)
        out.g2("cx", x, y)
    return out.circuit()


def _su4_block(out: _Columns, rng: Xoshiro256StarStar, a: int, b: int):
    """Structural stand-in for a two-qubit SU(4) block: 3 cx interleaved with rotations."""
    th = [rng.random() * _TWO_PI for _ in range(6)]
    out.g1("ry", a, (th[0],))
    out.g1("rz", b, (th[1],))
    out.g2("cx", a, b)
    out.g1("rz", a, (th[2],))
    out.g1("ry", b, (th[3],))
    out.g2("cx", b, a)
    out.g1("ry", a, (th[4],))
    out.g1("rz", b, (th[5],))
    out.g2("cx", a, b)


def gen_quantum_volume(n: int, depth: int, seed: int) -> Circuit:
    """Layers of random qubit pairings, each pair getting a 3-cx SU(4) block."""
    if n < 2:
        raise ValueError(f"quantum volume needs at least 2 qubits, got {n}")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    rng = stream_for("quantum_volume", n, seed)
    out = _Columns(n)
    for _ in range(depth):
        perm = list(range(n))
        rng.shuffle(perm)
        for m in range(n // 2):
            _su4_block(out, rng, perm[2 * m], perm[2 * m + 1])
    return out.circuit()


def _ladder_z(out: _Columns):
    """Structural multi-controlled-Z: ascending cx ladder, z, descending inverse ladder."""
    n = out.num_qubits
    for i in range(n - 1):
        out.g2("cx", i, i + 1)
    out.g1("z", n - 1)
    for i in range(n - 2, -1, -1):
        out.g2("cx", i, i + 1)


def gen_grover(n: int, iterations: int) -> Circuit:
    """Initial H layer, then per iteration an oracle and a diffusion block.

    The multi-controlled-Z inside each block is a cx-ladder stand-in that
    preserves interaction structure rather than the exact unitary.
    """
    if n < 2:
        raise ValueError(f"Grover needs at least 2 qubits, got {n}")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    out = _Columns(n)
    for q in range(n):
        out.g1("h", q)
    for _ in range(iterations):
        _ladder_z(out)  # oracle
        for label in ("h", "x"):
            for q in range(n):
                out.g1(label, q)
        _ladder_z(out)
        for label in ("x", "h"):
            for q in range(n):
                out.g1(label, q)
    return out.circuit()


def gen_random(n: int, cycles: int, p: float, seed: int) -> Circuit:
    """Per cycle: a random disjoint pairing of floor(p*n/2) cx pairs; idle qubits get 1q gates."""
    if n < 2:
        raise ValueError(f"random circuit needs at least 2 qubits, got {n}")
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"two-qubit gate density must be in [0, 1], got {p}")
    rng = stream_for("random", n, seed)
    out = _Columns(n)
    pairs_per_cycle = int(math.floor(p * n / 2.0))
    for _ in range(cycles):
        order = list(range(n))
        rng.shuffle(order)
        for m in range(pairs_per_cycle):
            out.g2("cx", order[2 * m], order[2 * m + 1])
        for q in order[2 * pairs_per_cycle:]:
            out.g1(rng.choice(_ONE_QUBIT_POOL), q)
    return out.circuit()


# The one family that reads each knob of BenchmarkSpec.
_KNOB_FAMILY = {"depth": "quantum_volume", "cycles": "random", "density": "random",
                "iterations": "grover"}


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instantiation: family, size, and family-specific knobs.

    Unset knobs get family defaults at build time: quantum_volume depth and
    random cycles default to the qubit count, grover iterations to 1. A knob
    set on a family that does not take it raises ValueError. The seed is
    required for stochastic families and ignored by the rest.
    """

    family: str
    num_qubits: int
    depth: int | None = None
    cycles: int | None = None
    density: float | None = None
    iterations: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown benchmark family '{self.family}'")
        for knob, family in _KNOB_FAMILY.items():
            if getattr(self, knob) is not None and self.family != family:
                raise ValueError(f"{knob} applies only to {family}, not to '{self.family}'")
        if self.density is not None and not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")
        if self.family in STOCHASTIC_FAMILIES and self.seed is None:
            raise ValueError(f"family '{self.family}' requires a seed")
        if self.family == "cuccaro" and (self.num_qubits < 4 or self.num_qubits % 2):
            raise ValueError(f"cuccaro qubit count must be even and >= 4, got {self.num_qubits}")

    def _knobs(self) -> dict:
        """The family's knobs, unset ones at their defaults, keyed by their
        ``params_str`` labels."""
        n = self.num_qubits
        if self.family == "quantum_volume":
            return {"depth": n if self.depth is None else self.depth}
        if self.family == "random":
            return {
                "p": 0.5 if self.density is None else self.density,
                "cycles": n if self.cycles is None else self.cycles,
            }
        if self.family == "grover":
            return {"iters": 1 if self.iterations is None else self.iterations}
        return {}

    def params_str(self) -> str:
        return ";".join(f"{label}={value}" for label, value in self._knobs().items())

    def build(self) -> Circuit:
        n = self.num_qubits
        knobs = self._knobs()
        if self.family == "ghz":
            return gen_ghz(n)
        if self.family == "qft":
            return gen_qft(n)
        if self.family == "cuccaro":
            return gen_cuccaro((n - 2) // 2)
        if self.family == "quantum_volume":
            return gen_quantum_volume(n, knobs["depth"], self.seed)
        if self.family == "grover":
            return gen_grover(n, knobs["iters"])
        return gen_random(n, knobs["cycles"], knobs["p"], self.seed)

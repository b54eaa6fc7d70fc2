"""Deterministic benchmark circuit generators.

All families emit only one- and two-qubit gates. Stochastic families
(quantum_volume, random) are bit-reproducible for a fixed seed via the pinned
PRNG in :mod:`qcoremap.rng`.

Gates are built unchecked through ``_unchecked_gate``: every family emits
distinct, non-negative qubit indices by construction, and the checked
``Circuit(n, gates)`` each generator returns bounds every index by ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, _unchecked_gate
from .rng import Xoshiro256StarStar, stream_for

FAMILIES = ("ghz", "cuccaro", "qft", "quantum_volume", "grover", "random")
STOCHASTIC_FAMILIES = ("quantum_volume", "random")

_ONE_QUBIT_POOL = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
_TWO_PI = 2.0 * math.pi


def _g1(label: str, q: int, *params: float) -> Gate:
    return _unchecked_gate(label, (q,), params)


def _g2(label: str, a: int, b: int, *params: float) -> Gate:
    return _unchecked_gate(label, (a, b), params)


def _ccx(c1: int, c2: int, tgt: int) -> list[Gate]:
    """Toffoli expanded to the standard 6-CX network (qelib1 ccx)."""
    return [
        _g1("h", tgt),
        _g2("cx", c2, tgt), _g1("tdg", tgt),
        _g2("cx", c1, tgt), _g1("t", tgt),
        _g2("cx", c2, tgt), _g1("tdg", tgt),
        _g2("cx", c1, tgt), _g1("t", c2), _g1("t", tgt), _g1("h", tgt),
        _g2("cx", c1, c2), _g1("t", c1), _g1("tdg", c2),
        _g2("cx", c1, c2),
    ]


def gen_ghz(n: int) -> Circuit:
    """Star-shaped entangler: h(0) then cx(0, i) for every other qubit."""
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    gates = [_g1("h", 0)] + [_g2("cx", 0, i) for i in range(1, n)]
    return Circuit(n, tuple(gates))


def gen_qft(n: int) -> Circuit:
    """Textbook Fourier transform: h + controlled-phase fan per qubit, final swap network."""
    if n < 1:
        raise ValueError(f"QFT needs at least 1 qubit, got {n}")
    gates: list[Gate] = []
    for i in range(n):
        gates.append(_g1("h", i))
        for j in range(i + 1, n):
            gates.append(_g2("cp", i, j, math.pi / 2 ** (j - i)))
    for i in range(n // 2):
        gates.append(_g2("swap", i, n - 1 - i))
    return Circuit(n, tuple(gates))


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

    def maj(x, y, z):
        return [_g2("cx", z, y), _g2("cx", z, x)] + _ccx(x, y, z)

    def uma(x, y, z):
        return _ccx(x, y, z) + [_g2("cx", z, x), _g2("cx", x, y)]

    gates: list[Gate] = []
    chain = [(cin, b[0], a[0])] + [(a[i - 1], b[i], a[i]) for i in range(1, n_bits)]
    for x, y, z in chain:
        gates.extend(maj(x, y, z))
    gates.append(_g2("cx", a[-1], cout))
    for x, y, z in reversed(chain):
        gates.extend(uma(x, y, z))
    return Circuit(2 * n_bits + 2, tuple(gates))


def _su4_block(rng: Xoshiro256StarStar, a: int, b: int) -> list[Gate]:
    """Structural stand-in for a two-qubit SU(4) block: 3 cx interleaved with rotations."""
    th = [rng.random() * _TWO_PI for _ in range(6)]
    return [
        _g1("ry", a, th[0]), _g1("rz", b, th[1]),
        _g2("cx", a, b),
        _g1("rz", a, th[2]), _g1("ry", b, th[3]),
        _g2("cx", b, a),
        _g1("ry", a, th[4]), _g1("rz", b, th[5]),
        _g2("cx", a, b),
    ]


def gen_quantum_volume(n: int, depth: int, seed: int) -> Circuit:
    """Layers of random qubit pairings, each pair getting a 3-cx SU(4) block."""
    if n < 2:
        raise ValueError(f"quantum volume needs at least 2 qubits, got {n}")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    rng = stream_for("quantum_volume", n, seed)
    gates: list[Gate] = []
    for _ in range(depth):
        perm = list(range(n))
        rng.shuffle(perm)
        for m in range(n // 2):
            gates.extend(_su4_block(rng, perm[2 * m], perm[2 * m + 1]))
    return Circuit(n, tuple(gates))


def _ladder_z(n: int) -> list[Gate]:
    """Structural multi-controlled-Z: ascending cx ladder, z, descending inverse ladder."""
    asc = [_g2("cx", i, i + 1) for i in range(n - 1)]
    desc = [_g2("cx", i, i + 1) for i in range(n - 2, -1, -1)]
    return asc + [_g1("z", n - 1)] + desc


def gen_grover(n: int, iterations: int) -> Circuit:
    """Initial H layer, then per iteration an oracle and a diffusion block.

    The multi-controlled-Z inside each block is a cx-ladder stand-in that
    preserves interaction structure rather than the exact unitary.
    """
    if n < 2:
        raise ValueError(f"Grover needs at least 2 qubits, got {n}")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    gates: list[Gate] = [_g1("h", q) for q in range(n)]
    for _ in range(iterations):
        gates.extend(_ladder_z(n))  # oracle
        gates.extend(_g1("h", q) for q in range(n))
        gates.extend(_g1("x", q) for q in range(n))
        gates.extend(_ladder_z(n))
        gates.extend(_g1("x", q) for q in range(n))
        gates.extend(_g1("h", q) for q in range(n))
    return Circuit(n, tuple(gates))


def gen_random(n: int, cycles: int, p: float, seed: int) -> Circuit:
    """Per cycle: a random disjoint pairing of floor(p*n/2) cx pairs; idle qubits get 1q gates."""
    if n < 2:
        raise ValueError(f"random circuit needs at least 2 qubits, got {n}")
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"two-qubit gate density must be in [0, 1], got {p}")
    rng = stream_for("random", n, seed)
    gates: list[Gate] = []
    pairs_per_cycle = int(math.floor(p * n / 2.0))
    for _ in range(cycles):
        order = list(range(n))
        rng.shuffle(order)
        for m in range(pairs_per_cycle):
            gates.append(_g2("cx", order[2 * m], order[2 * m + 1]))
        for q in order[2 * pairs_per_cycle:]:
            gates.append(_g1(rng.choice(_ONE_QUBIT_POOL), q))
    return Circuit(n, tuple(gates))


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instantiation: family, size, and family-specific knobs.

    Unset knobs get family defaults at build time: quantum_volume depth and
    random cycles default to the qubit count, grover iterations to 1.
    The seed is required for stochastic families and ignored by the rest.
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

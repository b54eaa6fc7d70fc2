"""Pinned deterministic PRNG for reproducible circuit generation.

xoshiro256** seeded through splitmix64, exactly as published by Blackman and
Vigna. Streams are derived from (family, qubit count, user seed) so every
generated circuit is a pure function of its inputs, independent of platform
and Python hash randomization. This generator choice is part of the
file-level reproducibility contract: changing it changes generated circuits.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    """The splitmix64 output function applied to one state value."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_BASIS
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """64-bit xoshiro256** with splitmix64 state expansion of the seed."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            s.append(_mix64(state))
            state = (state + _GOLDEN) & _MASK64
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randbelow(self, n: int) -> int:
        # Plain modulo: bias is irrelevant for circuit structure and the
        # reduction must stay pinned for cross-version reproducibility.
        return self.next_u64() % n

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]


def stream_for(family: str, num_qubits: int, seed: int) -> Xoshiro256StarStar:
    """Derive the generator stream for one (family, size, seed) triple."""
    h = _fnv1a64(family.encode("utf-8"))
    h = _mix64(h ^ (num_qubits & _MASK64))
    h = _mix64(h ^ (seed & _MASK64))
    return Xoshiro256StarStar(h)

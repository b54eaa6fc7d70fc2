import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoremap import (
    BenchmarkSpec,
    Circuit,
    Gate,
    gen_cuccaro,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_quantum_volume,
    gen_random,
    timeslice,
)
from qcoremap.cli import main
from qcoremap.generators import STOCHASTIC_FAMILIES

# Hand-enumerated once from the construction: a 1-bit adder is
# MAJ (2 cx + 6-cx Toffoli), the carry-out cx, UMA (6-cx Toffoli + 2 cx).
CUCCARO_1BIT_TWO_QUBIT_GATES = 17
CUCCARO_PER_BIT_TWO_QUBIT_GATES = 16  # one MAJ + one UMA


def pair_count(circuit):
    return len(timeslice(circuit).pairs[0])


class TestGhz:
    def test_structure_n3(self):
        gates = gen_ghz(3).gates
        assert [(g.label, g.qubits) for g in gates] == [("h", (0,)), ("cx", (0, 1)), ("cx", (0, 2))]

    def test_structure_n2(self):
        assert [(g.label, g.qubits) for g in gen_ghz(2).gates] == [("h", (0,)), ("cx", (0, 1))]

    def test_slice_count_equals_qubits(self):
        assert timeslice(gen_ghz(8)).num_slices == 8

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_ghz(1)


class TestQft:
    def test_structure_n3(self):
        labels = [(g.label, g.qubits) for g in gen_qft(3).gates]
        assert labels == [
            ("h", (0,)),
            ("cp", (0, 1)),
            ("cp", (0, 2)),
            ("h", (1,)),
            ("cp", (1, 2)),
            ("h", (2,)),
            ("swap", (0, 2)),
        ]

    def test_single_qubit(self):
        assert [(g.label, g.qubits) for g in gen_qft(1).gates] == [("h", (0,))]

    def test_two_qubit_count_n10(self):
        assert pair_count(gen_qft(10)) == 50

    def test_one_angle_tuple_per_distance(self):
        circuit = gen_qft(40)
        angles = {}
        for label, qubits, params in zip(circuit.labels, circuit.qubits, circuit.params):
            if label == "cp":
                i, j = qubits
                assert angles.setdefault(j - i, params) is params
                assert params == (math.pi / 2 ** (j - i),)
        assert sorted(angles) == list(range(1, 40))

    def test_beyond_1024_qubits(self, tmp_path):
        # pi / 2 ** d overflows at d = 1024; the angle at distance 1025 is
        # subnormal, and generate writes the circuit.
        circuit = gen_qft(1026)
        row = circuit.qubits.index((0, 1025))
        assert circuit.params[row] == (math.ldexp(math.pi, -1025),)
        out = tmp_path / "qft.qasm"
        assert main(["generate", "--family", "qft", "--qubits", "1026", "--out", str(out)]) == 0
        assert f"cp({math.ldexp(math.pi, -1025)!r}) q[0],q[1025];\n" in out.read_text()


class TestCuccaro:
    def test_qubit_count(self):
        assert gen_cuccaro(4).num_qubits == 10

    def test_golden_two_qubit_count_1bit(self):
        assert pair_count(gen_cuccaro(1)) == CUCCARO_1BIT_TWO_QUBIT_GATES

    def test_two_qubit_count_scales_per_bit(self):
        for bits in (2, 3, 8):
            assert pair_count(gen_cuccaro(bits)) == (
                CUCCARO_PER_BIT_TWO_QUBIT_GATES * bits + 1
            )

    def test_only_small_gates(self):
        assert all(len(g.qubits) <= 2 for g in gen_cuccaro(3).gates)


class TestQuantumVolume:
    def test_two_qubit_count(self):
        circuit = gen_quantum_volume(9, depth=5, seed=3)
        assert pair_count(circuit) == 5 * 3 * 4

    def test_deterministic_for_seed(self):
        assert gen_quantum_volume(6, 4, 7) == gen_quantum_volume(6, 4, 7)

    def test_seed_changes_circuit(self):
        assert gen_quantum_volume(6, 4, 7) != gen_quantum_volume(6, 4, 8)

    def test_minimal_instance(self):
        circuit = gen_quantum_volume(2, 1, 0)
        assert pair_count(circuit) == 3
        assert all(g.label == "cx" for g in circuit.gates if len(g.qubits) == 2)


class TestGrover:
    def test_two_qubit_count_per_iteration(self):
        for n in (2, 5, 9):
            for iters in (1, 3):
                assert pair_count(gen_grover(n, iters)) == iters * 4 * (n - 1)

    def test_minimal_instance(self):
        circuit = gen_grover(2, 1)
        assert pair_count(circuit) == 4

    def test_ladder_serializes(self):
        # Each ladder step depends on the previous; slices inside a ladder are singletons.
        sliced = timeslice(gen_grover(5, 1))
        assert sliced.num_slices >= 2 * 2 * (5 - 1)


class TestRandom:
    def test_density_zero_means_no_two_qubit_gates(self):
        assert pair_count(gen_random(8, 10, 0.0, 5)) == 0

    def test_density_one_pairs_everything(self):
        circuit = gen_random(8, 10, 1.0, 5)
        assert pair_count(circuit) == 10 * 4

    def test_exact_pair_count(self):
        for p in (0.3, 0.5, 0.8):
            circuit = gen_random(10, 7, p, 1)
            assert pair_count(circuit) == 7 * int(p * 10 / 2)

    def test_deterministic_for_seed(self):
        assert gen_random(6, 5, 0.5, 9) == gen_random(6, 5, 0.5, 9)

    def test_every_cycle_touches_every_qubit(self):
        circuit = gen_random(6, 1, 0.5, 0)
        touched = {q for g in circuit.gates for q in g.qubits}
        assert touched == set(range(6))


@pytest.mark.parametrize("family", ["ghz", "qft", "grover", "quantum_volume", "random"])
def test_count_formulas_hold_across_sweep(family):
    for n in range(2, 65):
        if family == "ghz":
            assert pair_count(gen_ghz(n)) == n - 1
        elif family == "qft":
            assert pair_count(gen_qft(n)) == n * (n - 1) // 2 + n // 2
        elif family == "grover":
            assert pair_count(gen_grover(n, 1)) == 4 * (n - 1)
        elif family == "quantum_volume":
            assert pair_count(gen_quantum_volume(n, 2, 0)) == 2 * 3 * (n // 2)
        else:
            assert pair_count(gen_random(n, 3, 0.5, 0)) == 3 * int(0.5 * n / 2)


def test_cuccaro_formula_across_sweep():
    for bits in range(1, 32):
        circuit = gen_cuccaro(bits)
        assert circuit.num_qubits == 2 * bits + 2
        assert pair_count(circuit) == 16 * bits + 1


# Each family at its smallest legal size, at an odd size where it allows
# one (cuccaro's qubit count is even), and at 120 qubits.
GENERATOR_SIZES = [
    ("ghz", 2), ("ghz", 5), ("ghz", 120),
    ("qft", 1), ("qft", 5), ("qft", 120),
    ("cuccaro", 4), ("cuccaro", 120),
    ("quantum_volume", 2), ("quantum_volume", 5), ("quantum_volume", 120),
    ("grover", 2), ("grover", 5), ("grover", 120),
    ("random", 2), ("random", 5), ("random", 120),
]


@pytest.mark.parametrize("family, n", GENERATOR_SIZES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_generated_gates_pass_the_gate_checks(family, n, data):
    # The generators fill columns unchecked; rebuilding each gate through the
    # checked Gate must give the same circuit value: equal, with one hash and
    # repr, and each unpickling equal to the other.
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed") if family in STOCHASTIC_FAMILIES else None
    circuit = BenchmarkSpec(family, n, seed=seed).build()
    checked = Circuit(circuit.num_qubits, tuple(Gate(g.label, g.qubits, g.params) for g in circuit.gates))
    assert checked == circuit and hash(checked) == hash(circuit) and repr(checked) == repr(circuit)
    for a, b in ((circuit, checked), (checked, circuit)):
        restored = pickle.loads(pickle.dumps(a))
        assert restored == b and hash(restored) == hash(b)
    assert circuit.num_qubits == n


@pytest.mark.parametrize("family, n", GENERATOR_SIZES)
def test_one_qubit_gates_share_one_tuple_per_qubit(family, n):
    circuit = BenchmarkSpec(family, n, seed=3 if family in STOCHASTIC_FAMILIES else None).build()
    singles = [q for q in circuit.qubits if len(q) == 1]
    assert len(set(map(id, singles))) == len(set(singles))


class TestBenchmarkSpec:
    def test_stochastic_family_requires_seed(self):
        with pytest.raises(ValueError, match="requires a seed"):
            BenchmarkSpec("random", 8)

    def test_cuccaro_odd_qubits_rejected(self):
        with pytest.raises(ValueError, match="even"):
            BenchmarkSpec("cuccaro", 9)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown benchmark family"):
            BenchmarkSpec("shor", 8)

    @pytest.mark.parametrize(
        "family,knob,value",
        [
            ("ghz", "depth", 3),
            ("random", "depth", 3),
            ("qft", "cycles", 4),
            ("quantum_volume", "cycles", 4),
            ("cuccaro", "density", 0.5),
            ("grover", "density", 0.5),
            ("ghz", "iterations", 2),
            ("random", "iterations", 2),
        ],
    )
    def test_knob_of_another_family_rejected(self, family, knob, value):
        with pytest.raises(ValueError, match=f"^{knob} applies only to .*'{family}'"):
            BenchmarkSpec(family, 8, seed=1, **{knob: value})

    def test_build_dispatch(self):
        assert BenchmarkSpec("ghz", 5).build() == gen_ghz(5)
        assert BenchmarkSpec("cuccaro", 10).build() == gen_cuccaro(4)
        qv = BenchmarkSpec("quantum_volume", 4, seed=2).build()
        assert qv == gen_quantum_volume(4, 4, 2)  # depth defaults to qubit count

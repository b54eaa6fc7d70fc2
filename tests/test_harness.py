import gc
import weakref

import pytest

from qcoremap import Architecture, BenchmarkSpec, Gate, gen_qft, parse_qasm, serialize_qasm
from qcoremap import circuit as circuit_module
from qcoremap import harness
from qcoremap.harness import (
    CSV_COLUMNS,
    DEFAULT_CORE_SWEEP,
    MAPPER_FGP,
    MAPPER_HQA,
    UsageError,
    _cell_architecture,
    _run_mapper,
    parse_benchmark_names,
    ratios_to_csv,
    records_to_csv,
    run_single,
    sweep_attraction,
    sweep_cores,
    sweep_qubits,
)


def live_gates() -> int:
    gc.collect()
    return sum(type(o) is Gate for o in gc.get_objects())


@pytest.mark.parametrize("mapper", [MAPPER_HQA, MAPPER_FGP])
def test_map_path_keeps_no_gate_alive(mapper):
    # The map command's path: parse, slice, map, validate and count. None of
    # it builds a Gate, so none is alive while the circuit still is.
    text = serialize_qasm(gen_qft(120))
    before = live_gates()
    circuit = parse_qasm(text)
    path, _elapsed, counts = _run_mapper(circuit, Architecture(10, 12), mapper, True)
    assert counts["num_2q_gates"] == 120 * 119 // 2 + 60
    assert live_gates() == before
    assert len(circuit.gates) == 7320  # built on request and not kept
    assert live_gates() == before


@pytest.mark.parametrize("mapper", [MAPPER_HQA, MAPPER_FGP])
def test_generated_run_keeps_no_gate_alive(mapper, monkeypatch):
    # run_single generates, slices, maps, validates and counts. The count
    # is taken in validate_path, while the generated circuit is alive.
    seen = []
    validate = harness.validate_path

    def counting(*args):
        seen.append(live_gates())
        return validate(*args)

    before = live_gates()
    monkeypatch.setattr(harness, "validate_path", counting)
    run_single(BenchmarkSpec("cuccaro", 40), Architecture(4, 10), mapper)
    assert seen == [before]


def test_serializer_builds_no_gate(monkeypatch):
    def refused(*args):
        raise AssertionError("serialize_qasm built a Gate")

    generated = BenchmarkSpec("random", 24, seed=5).build()
    text = serialize_qasm(generated)
    parsed = parse_qasm(text)
    before = live_gates()
    monkeypatch.setattr(circuit_module, "_unchecked_gate", refused)
    for circuit in (generated, parsed):
        assert serialize_qasm(circuit) == text
    assert live_gates() == before


class TestRunSingle:
    def test_ghz_record_fields(self):
        record = run_single(BenchmarkSpec("ghz", 16), Architecture(2, 8), MAPPER_HQA)
        assert record.num_slices == 16
        assert record.num_2q_gates == 15
        assert record.communications >= 0
        assert record.capacity == 8
        assert record.mapper == MAPPER_HQA

    def test_density_zero_means_zero_communications(self):
        spec = BenchmarkSpec("random", 16, density=0.0, seed=1)
        record = run_single(spec, Architecture(2, 8), MAPPER_FGP)
        assert record.communications == 0

    def test_determinism_modulo_timing(self):
        spec = BenchmarkSpec("random", 12, density=0.5, seed=7)
        a = run_single(spec, Architecture(2, 6), MAPPER_HQA)
        b = run_single(spec, Architecture(2, 6), MAPPER_HQA)
        a.wall_time_ms = b.wall_time_ms = 0.0
        assert a == b

    def test_unknown_mapper_rejected(self):
        with pytest.raises(UsageError):
            run_single(BenchmarkSpec("ghz", 8), Architecture(2, 4), "sabre")


class TestBenchmarkNames:
    def test_plain_and_density_forms(self):
        assert parse_benchmark_names(["ghz", "random:0.3"]) == [
            ("ghz", None),
            ("random", 0.3),
        ]

    def test_density_only_for_random(self):
        with pytest.raises(UsageError):
            parse_benchmark_names(["qft:0.5"])

    def test_bad_density(self):
        with pytest.raises(UsageError):
            parse_benchmark_names(["random:dense"])


class TestSweepValidation:
    def test_core_list_with_even_quotients_accepted(self):
        for n in DEFAULT_CORE_SWEEP:
            assert _cell_architecture(120, n, None) == Architecture(n, 120 // n)
        assert _cell_architecture(48, None, 16) == Architecture(3, 16)

    def test_indivisible_core_count_rejected(self):
        with pytest.raises(UsageError, match="do not divide"):
            sweep_cores(benchmarks=("ghz",), num_qubits=120, core_counts=(7,), replicas=1)

    def test_odd_capacity_rejected(self):
        with pytest.raises(UsageError, match="odd capacity"):
            sweep_qubits(benchmarks=("ghz",), num_cores=10, qubit_counts=(50,), replicas=1)

    def test_attraction_qubits_must_fit_capacity(self):
        with pytest.raises(UsageError, match="multiple of capacity"):
            sweep_attraction(benchmarks=("cuccaro",), capacity=16, qubit_counts=(40,))


class TestSweepShapes:
    def test_row_count_both_mappers(self):
        records, ratios = sweep_cores(
            benchmarks=("ghz", "qft"),
            num_qubits=8,
            core_counts=(2, 4),
            replicas=1,
        )
        assert len(records) == 2 * 2 * 2  # benchmarks x cores x mappers
        assert len(ratios) == 4
        assert all(r.capacity * r.num_cores == 8 for r in records)

    def test_stochastic_replication(self):
        records, _ = sweep_cores(
            benchmarks=("random:0.5",),
            num_qubits=8,
            core_counts=(2,),
            replicas=3,
            seed=10,
        )
        assert len(records) == 3 * 2
        assert sorted({r.seed for r in records}) == [10, 11, 12]

    def test_qubit_sweep_records_capacity(self):
        records, _ = sweep_qubits(
            benchmarks=("ghz",), num_cores=2, qubit_counts=(8, 12), replicas=1
        )
        assert sorted({r.capacity for r in records}) == [4, 6]

    def test_attraction_sweep_runs_both_modes(self):
        records, ratios = sweep_attraction(
            benchmarks=("cuccaro",), capacity=4, qubit_counts=(8,), replicas=1
        )
        assert {r.use_attraction for r in records} == {True, False}
        assert len(ratios) == 1
        assert set(ratios[0]) >= {"comms_attraction_off", "comms_attraction_on"}

    def test_each_circuit_built_once_per_sweep(self, monkeypatch):
        # Every core column maps the same (family, qubits, seed) circuit.
        built = []
        build = BenchmarkSpec.build

        def counting_build(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(BenchmarkSpec, "build", counting_build)
        records, _ = sweep_cores(
            benchmarks=("qft", "random:0.5"), num_qubits=8, core_counts=(2, 4), replicas=2
        )
        assert len(records) == (1 + 2) * 2 * 2  # circuits x cores x mappers
        assert len(built) == len(set(built)) == 3

    def test_qubit_sweep_keeps_no_circuit_of_an_earlier_qubit_count(self, monkeypatch):
        # No later cell asks for them, so they must not live to the end of the family.
        built = []
        alive_at_build = []
        build = BenchmarkSpec.build

        def tracking_build(spec):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            circuit = build(spec)
            built.append(weakref.ref(circuit))
            return circuit

        monkeypatch.setattr(BenchmarkSpec, "build", tracking_build)
        sweep_qubits(
            benchmarks=("random:0.5",), num_cores=2, qubit_counts=(8, 12, 16, 20), replicas=2
        )
        assert len(built) == 8
        assert max(alive_at_build) <= 1  # at most the circuit of the call just made

    def test_records_sorted_deterministically(self):
        records, _ = sweep_cores(
            benchmarks=("qft", "ghz"), num_qubits=8, core_counts=(4, 2), replicas=1
        )
        keys = [(r.family, r.params, r.num_cores, r.mapper) for r in records]
        assert keys == sorted(keys)


class TestCsvOutput:
    def test_header_matches_record_fields(self):
        records, _ = sweep_cores(
            benchmarks=("ghz",), num_qubits=8, core_counts=(2,), replicas=1
        )
        text = records_to_csv(records)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_no_timing_blanks_the_column(self):
        records, _ = sweep_cores(
            benchmarks=("ghz",), num_qubits=8, core_counts=(2,), replicas=1
        )
        text = records_to_csv(records, include_timing=False)
        assert text.splitlines()[1].endswith(",")

    def test_zero_denominator_ratio_sentinel(self):
        _, ratios = sweep_cores(
            benchmarks=("random:0.0",), num_qubits=8, core_counts=(2,), replicas=1
        )
        assert ratios[0]["ratio_fgp_over_hqa"] == "nan"
        text = ratios_to_csv(ratios)
        assert "nan" in text

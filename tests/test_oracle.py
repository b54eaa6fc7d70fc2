import hashlib
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_reference as reference
from conftest import circuits, tiny_instances
from qcoremap import (
    Architecture,
    CapacityError,
    Circuit,
    Gate,
    MappingInfeasibleError,
    OracleInfeasibleError,
    count_communications,
    fgp_map_circuit,
    gen_ghz,
    gen_random,
    map_circuit,
    minimum_communications,
    oracle,
    timeslice,
)


def cx(a, b):
    return Gate("cx", (a, b))


class TestMinimumCommunications:
    def test_single_slice_is_free(self):
        circuit = Circuit(4, (cx(0, 2),))
        assert minimum_communications(circuit, Architecture(2, 2)) == 0

    def test_forced_merge_costs_two(self):
        # Slice 0 needs (0,1) together, slice 1 needs (0,2): full cores swap.
        circuit = Circuit(4, (cx(0, 1), cx(0, 2)))
        assert minimum_communications(circuit, Architecture(2, 2)) == 2

    def test_ghz4_optimum(self):
        # Each of the two successive partner changes costs a full swap.
        assert minimum_communications(gen_ghz(4), Architecture(2, 2)) == 4

    def test_no_two_qubit_gates(self):
        circuit = Circuit(4, (Gate("h", (0,)), Gate("h", (1,))))
        assert minimum_communications(circuit, Architecture(2, 2)) == 0

    def test_empty_circuit(self):
        assert minimum_communications(Circuit(3, ()), Architecture(2, 2)) == 0

    def test_empty_circuit_that_does_not_fit(self):
        with pytest.raises(OracleInfeasibleError, match="cannot hold"):
            minimum_communications(Circuit(5, ()), Architecture(2, 2))

    def test_slack_allows_single_moves(self):
        # Slice 0 pins (0,1) and (2,3) into different cores; the free slot
        # then lets qubit 2 join core 0 with a single relocation.
        circuit = Circuit(4, (cx(0, 1), cx(2, 3), cx(0, 2)))
        assert minimum_communications(circuit, Architecture(2, 3)) == 1

    def test_infeasible_slice_detected(self):
        circuit = Circuit(6, (cx(0, 1), cx(2, 3), cx(4, 5)))
        with pytest.raises(OracleInfeasibleError):
            minimum_communications(circuit, Architecture(2, 3))

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            minimum_communications(gen_ghz(16), Architecture(4, 4), max_states=10)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_budget_asked_before_slicing(self, monkeypatch, cores):
        # Slicing 2,000,000 qubits would allocate per qubit, and the power
        # 3**2000000 alone takes a third of a second: neither may happen.
        def sliced_too_soon(circuit):
            raise AssertionError("sliced before the budget was asked")

        monkeypatch.setattr(oracle, "timeslice", sliced_too_soon)
        circuit = Circuit(2_000_000, (cx(0, 1),))
        arch = Architecture(cores, 1_000_000)
        with pytest.raises(ValueError, match=f"{cores}\\*\\*2000000 core vectors exceed"):
            minimum_communications(circuit, arch)

    @pytest.mark.parametrize("max_states", [-1, 0, 1, 10])
    def test_empty_circuit_costs_nothing_under_any_budget(self, monkeypatch, max_states):
        monkeypatch.setattr(oracle, "timeslice", None)  # never reached
        assert minimum_communications(Circuit(20, ()), Architecture(4, 5), max_states) == 0

    @pytest.mark.parametrize("n, k, max_states", [(3, 2, 7), (3, 2, 8), (5, 3, 242), (5, 3, 243), (4, 1, 0), (4, 1, 1)])
    def test_budget_boundary(self, n, k, max_states):
        circuit = Circuit(n, (cx(0, 1),))
        arch = Architecture(k, n)
        if k**n > max_states:
            with pytest.raises(ValueError, match="budget"):
                minimum_communications(circuit, arch, max_states)
        else:
            assert minimum_communications(circuit, arch, max_states) == 0


class TestGridSize:
    def test_ten_qubits_on_four_cores(self):
        # 4**10 cells: the enumerated-state oracle refused this instance.
        circuit = gen_random(10, cycles=6, p=0.5, seed=1)
        assert minimum_communications(circuit, Architecture(4, 3)) == 6

    def test_one_core_beyond_numpy_ndim_limit(self):
        chain = Circuit(80, tuple(cx(q, q + 1) for q in range(79)))
        assert minimum_communications(chain, Architecture(1, 80)) == 0

    def test_peak_memory_a_few_bytes_per_cell(self):
        circuit = gen_random(10, cycles=6, p=0.5, seed=2)
        tracemalloc.start()
        try:
            minimum_communications(circuit, Architecture(4, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20  # 2**20 cells


@st.composite
def architectures(draw):
    """1-4 cores, uniform or not, with capacities 1-4."""
    k = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        return Architecture(k, draw(st.integers(min_value=1, max_value=4)))
    caps = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    return Architecture(k, max(caps), core_capacities=tuple(caps))


def _optimum(oracle, circuit, arch):
    try:
        return oracle(circuit, arch)
    except OracleInfeasibleError:
        return "infeasible"


class TestAgreesWithEnumeratedReference:
    @given(circuits(max_qubits=7, max_gates=12), architectures())
    @settings(max_examples=150, deadline=None)
    def test_optimum_and_mapper_bound(self, circuit, arch):
        n = circuit.num_qubits
        # The reference holds a states x states x n comparison tensor.
        assume(len(reference._all_states(n, arch, 1 << 30)) ** 2 * n <= 1 << 24)
        expected = _optimum(reference.minimum_communications, circuit, arch)
        if timeslice(circuit).num_slices == 0 and arch.total_capacity < n:
            expected = "infeasible"  # the reference returns 0 before any capacity check
        optimum = _optimum(minimum_communications, circuit, arch)
        assert optimum == expected
        # Each mapper maps exactly the feasible instances and never beats the optimum.
        for mapper in (map_circuit, fgp_map_circuit):
            try:
                path = mapper(circuit, arch)
            except (CapacityError, MappingInfeasibleError):
                assert optimum == "infeasible"
            else:
                assert optimum != "infeasible"
                assert count_communications(path) >= optimum


class TestMappersNeverBeatOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_tiny_instances(self, seed):
        circuit = gen_random(6, cycles=5, p=0.5, seed=seed)
        arch = Architecture(2, 3)
        optimum = minimum_communications(circuit, arch)
        hqa = count_communications(map_circuit(circuit, arch))
        fgp = count_communications(fgp_map_circuit(circuit, arch))
        assert hqa >= optimum
        assert fgp >= optimum


def test_tiny_optima_match_pinned_digest():
    # sha256 of the optimum (or "infeasible") of each instance of
    # conftest.tiny_instances(), one line each, captured when the oracle still
    # read each slice's pairs from its Gate objects.
    lines = [str(_optimum(minimum_communications, c, arch)) for c, arch in tiny_instances()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f32d11c657828143aaa7d811ffe277eb5960337e977af8ec606e55ecb47eb2f9"

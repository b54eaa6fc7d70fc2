import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcoremap import INFINITE, Architecture, Circuit, Gate, fgp_map_circuit, gen_qft, timeslice
from qcoremap import fgp
from qcoremap.lookahead import DEFAULT_HORIZON, window_matrix

from conftest import circuits
from scalar_reference import asap_slices, lookahead_weight


def cx(a, b):
    return Gate("cx", (a, b))


def chain_circuit(n, pairs):
    """Circuit whose slice m contains exactly pairs[m], padded so every qubit
    acts in every slice and the layering is forced."""
    gates = []
    for slice_pairs in pairs:
        busy = set()
        for a, b in slice_pairs:
            gates.append(cx(a, b))
            busy.update((a, b))
        for q in range(n):
            if q not in busy:
                gates.append(Gate("h", (q,)))
    return Circuit(n, tuple(gates))


def chain(n, pairs):
    return timeslice(chain_circuit(n, pairs))


def chain_slices(n, pairs):
    return asap_slices(chain_circuit(n, pairs))


def window(sliced, t, horizon=DEFAULT_HORIZON):
    return window_matrix(sliced.num_qubits, *sliced.pairs, t, horizon)


def refined_graphs(circuit, arch, monkeypatch):
    """The interaction graphs fgp_map_circuit refines, one weight array per
    slice it does not skip."""
    graphs = []
    refine = fgp.roee_refine

    def recording(weights, initial):
        graphs.append(weights.copy())
        return refine(weights, initial)

    monkeypatch.setattr(fgp, "roee_refine", recording)
    fgp_map_circuit(circuit, arch)
    return graphs


class TestLookaheadWeight:
    def test_single_interaction_next_slice(self):
        slices = chain_slices(4, [[], [(0, 1)]])
        assert lookahead_weight(slices, 0, 0, 1) == 0.5

    def test_two_interactions(self):
        slices = chain_slices(4, [[], [(0, 1)], [], [(0, 1)]])
        assert lookahead_weight(slices, 0, 0, 1) == 0.625

    def test_no_future_interaction(self):
        slices = chain_slices(4, [[], [(2, 3)]])
        assert lookahead_weight(slices, 0, 0, 1) == 0.0

    def test_horizon_truncates(self):
        slices = chain_slices(2, [[]] + [[]] * 5 + [[(0, 1)]])
        assert lookahead_weight(slices, 0, 0, 1, horizon=3) == 0.0
        assert lookahead_weight(slices, 0, 0, 1, horizon=6) == 2.0**-6

    def test_same_qubit_rejected(self):
        slices = chain_slices(2, [[]])
        with pytest.raises(ValueError):
            lookahead_weight(slices, 0, 1, 1)


class TestInteractionGraph:
    # Pairs split by fgp's block start {0, 1} | {2, 3}, so the slice is refined.
    def test_current_slice_pair_is_infinite(self, monkeypatch):
        circuit = chain_circuit(4, [[(0, 2)], [(1, 3)]])
        (graph,) = refined_graphs(circuit, Architecture(2, 2), monkeypatch)
        assert graph[0, 2] == graph[2, 0] == INFINITE

    def test_future_pair_quarter_weight(self):
        sliced = chain(4, [[], [], [(2, 3)]])
        expected = np.zeros((4, 4))
        expected[2, 3] = expected[3, 2] = 0.25
        assert (window(sliced, 0) == expected).all()

    def test_last_slice_has_no_finite_edges(self, monkeypatch):
        circuit = chain_circuit(4, [[(0, 2)]])
        assert not window(timeslice(circuit), 0).any()
        (graph,) = refined_graphs(circuit, Architecture(2, 2), monkeypatch)
        rows, cols = np.nonzero(graph)
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 2), (2, 0)]
        assert (graph[rows, cols] == INFINITE).all()

    @pytest.mark.parametrize(
        "gates, t",
        [
            ((Gate("h", (0,)), cx(0, 1)), 0),
            ((cx(0, 1), Gate("h", (0,)), Gate("h", (0,))), 0),
            ((cx(0, 1), Gate("h", (0,)), Gate("h", (0,))), 2),
        ],
        ids=["pair-ahead", "slices-ahead-but-no-pair", "last-slice"],
    )
    def test_every_branch_returns_float64(self, gates, t):
        weights = window(timeslice(Circuit(3, gates)), t)
        assert weights.dtype == np.float64 and weights.shape == (3, 3)

    def test_infinite_overrides_future_weight(self, monkeypatch):
        circuit = chain_circuit(4, [[(0, 2)], [(0, 2)]])
        assert window(timeslice(circuit), 0)[0, 2] == 0.5
        (graph,) = refined_graphs(circuit, Architecture(2, 2), monkeypatch)
        assert graph[0, 2] == graph[2, 0] == INFINITE


class TestProperties:
    @given(circuits(max_qubits=6, max_gates=20), st.integers(min_value=0, max_value=5))
    def test_finite_weights_below_one(self, circuit, t):
        sliced = timeslice(circuit)
        if sliced.num_slices == 0:
            return
        t = t % sliced.num_slices
        weights = window(sliced, t)
        assert (weights < 1.0).all()
        assert (weights >= 0.0).all()

    @given(circuits(max_qubits=6, max_gates=20))
    def test_matrix_matches_scalar_contract(self, circuit):
        sliced = timeslice(circuit)
        if sliced.num_slices == 0:
            return
        weights = window(sliced, 0)
        slices = asap_slices(circuit)
        for qi in range(circuit.num_qubits):
            for qj in range(qi + 1, circuit.num_qubits):
                assert weights[qi, qj] == lookahead_weight(slices, 0, qi, qj)
                assert weights[qi, qj] == weights[qj, qi]

    def test_monotone_in_added_interactions(self):
        base = chain_slices(4, [[], [(0, 1)], []])
        more = chain_slices(4, [[], [(0, 1)], [(0, 1)]])
        assert lookahead_weight(more, 0, 0, 1) > lookahead_weight(base, 0, 0, 1)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=11),
    )
    def test_monotone_property(self, pattern, extra_slice):
        # Adding one future interaction never decreases the pair's weight.
        base_pairs = [[(0, 1)] if hit else [] for hit in pattern]
        more_pairs = [list(s) for s in base_pairs]
        if extra_slice < len(more_pairs):
            more_pairs[extra_slice] = [(0, 1)]
        base = chain_slices(2, [[]] + base_pairs)
        more = chain_slices(2, [[]] + more_pairs)
        assert lookahead_weight(more, 0, 0, 1) >= lookahead_weight(base, 0, 0, 1)

    def test_truncation_error_bounded(self):
        # All interactions beyond the horizon sum to less than 2**-horizon.
        slices = chain_slices(2, [[]] + [[(0, 1)]] * 40)
        for horizon in (4, 8, 16):
            full = lookahead_weight(slices, 0, 0, 1, horizon=60)
            cut = lookahead_weight(slices, 0, 0, 1, horizon=horizon)
            assert 0 <= full - cut < 2.0**-horizon

    def test_weights_are_exact_dyadics(self):
        slices = chain_slices(4, [[], [(0, 1)], [(0, 1)], [(0, 1)]])
        w = lookahead_weight(slices, 0, 0, 1)
        assert w == 0.5 + 0.25 + 0.125  # exact float arithmetic on dyadics

    def test_default_horizon_reproduces_unbounded_mapper_decisions(self, monkeypatch):
        # Truncation at the default horizon is below every decision threshold:
        # both mappers produce identical paths with an effectively unbounded one.
        from qcoremap import gen_random, hqa, map_circuit

        def run_at(entry, module, horizon, circuit, arch):
            # The mapper's own horizon is recorded and replaced by ``horizon``.
            passed = []

            def window_at(num_qubits, pa, pb, offsets, t, default):
                passed.append(default)
                return window_matrix(num_qubits, pa, pb, offsets, t, horizon)

            with monkeypatch.context() as patch:
                patch.setattr(module, "window_matrix", window_at)
                path = entry(circuit, arch)
            assert passed and set(passed) == {DEFAULT_HORIZON}
            return path

        arch = Architecture(2, 8)
        for circuit in (gen_qft(16), gen_random(16, cycles=16, p=0.5, seed=2)):
            for module, entry in ((hqa, map_circuit), (fgp, fgp_map_circuit)):
                bounded = run_at(entry, module, 32, circuit, arch)
                assert bounded == run_at(entry, module, 10_000, circuit, arch)

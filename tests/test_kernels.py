"""Cross-path equivalence: the numba kernels and their numpy fallbacks must
agree exactly. All weights are dyadic rationals, so float accumulation order
cannot introduce discrepancies."""

import numpy as np
import pytest

from qcoremap import fgp
from qcoremap._jit import NUMBA_ENABLED
from qcoremap.fgp import (
    _part_sums,
    _select_swap,
    _select_swap_loops,
    _select_swap_numpy,
    _substitute,
)
from qcoremap.lookahead import (
    INFINITE,
    _accumulate_window_loops,
    _accumulate_window_numpy,
    pair_arrays,
    window_matrix,
)
from qcoremap import InteractionGraph, gen_qft, gen_random, oee_refine, timeslice


def random_partition_instance(rng, n=12, k=3):
    weights = rng.integers(0, 8, size=(n, n)).astype(float) / 8.0
    weights = np.triu(weights, k=1)
    weights += weights.T
    part = np.repeat(np.arange(k), n // k).astype(np.int64)
    rng.shuffle(part)
    locked = rng.random(n) < 0.2
    return weights, part, locked


def test_select_swap_paths_agree():
    rng = np.random.default_rng(12)
    for _ in range(60):
        weights, part, locked = random_partition_instance(rng)
        sums = _part_sums(weights, part, int(part.max()) + 1)
        loops = _select_swap_loops(weights, sums, part, locked)
        vectorized = _select_swap_numpy(weights, sums, part, locked)
        assert loops == vectorized


def test_select_swap_dispatch_matches_loops():
    rng = np.random.default_rng(13)
    weights, part, locked = random_partition_instance(rng)
    sums = _part_sums(weights, part, int(part.max()) + 1)
    assert _select_swap(weights, sums, part, locked) == _select_swap_loops(
        weights, sums, part, locked
    )


def dyadic_instance(rng, n, k, density=0.15):
    """Sparse weights from {1/4, 1/2, 1}: many exactly tied gains."""
    weights = rng.choice([0.25, 0.5, 1.0], size=(n, n)) * (rng.random((n, n)) < density)
    weights = np.triu(weights, k=1)
    weights += weights.T
    part = np.repeat(np.arange(k), n // k).astype(np.int64)
    rng.shuffle(part)
    return weights, part


def assert_kernel_matches_loops(weights, part, locked):
    sums = _part_sums(weights, part, int(part.max()) + 1)
    assert _select_swap_numpy(weights, sums, part, locked) == _select_swap_loops(
        weights, sums, part, locked
    )


@pytest.mark.parametrize("k", [2, 12])
def test_select_swap_mapper_sized_dyadic_ties(k):
    rng = np.random.default_rng(100 + k)
    for locked_frac in (0.0, 0.1, 0.5, 0.9):
        weights, part = dyadic_instance(rng, 120, k)
        assert_kernel_matches_loops(weights, part, rng.random(120) < locked_frac)


@pytest.mark.parametrize("k", [2, 12])
def test_select_swap_on_substituted_slice_graphs(k):
    # The weights the mapper refines: a look-ahead window plus the current
    # slice's pairs at the dominant constant, on a scrambled balanced start.
    sliced = timeslice(gen_qft(120))
    pa, pb, offsets = pair_arrays(sliced)
    rng = np.random.default_rng(7 * k)
    for t in (0, 40, 200):
        weights = window_matrix(120, pa, pb, offsets, t, 32)
        a, b = pa[offsets[t]:offsets[t + 1]], pb[offsets[t]:offsets[t + 1]]
        weights[a, b] = weights[b, a] = INFINITE
        sub, _, _ = _substitute(weights)
        part = np.repeat(np.arange(k), 120 // k).astype(np.int64)
        rng.shuffle(part)
        assert_kernel_matches_loops(sub, part, rng.random(120) < 0.3)


def test_select_swap_no_unlocked_cross_pair():
    rng = np.random.default_rng(15)
    weights, part = dyadic_instance(rng, 24, 3)
    sums = _part_sums(weights, part, 3)
    none = (-1, -1, -np.inf)
    all_locked = np.ones(24, dtype=bool)
    one_part_free = part != 1
    one_node_free = np.arange(24) != 5
    for locked in (all_locked, one_part_free, one_node_free):
        assert _select_swap_numpy(weights, sums, part, locked) == none
        assert _select_swap_loops(weights, sums, part, locked) == none


def test_oee_refine_unchanged_by_kernel(monkeypatch):
    rng = np.random.default_rng(16)
    instances = [dyadic_instance(rng, 24, k, density=0.3) for k in (2, 3, 4, 6)]
    refined = [oee_refine(InteractionGraph(24, w), p) for w, p in instances]
    monkeypatch.setattr(fgp, "_select_swap", _select_swap_loops)
    for (w, p), got in zip(instances, refined):
        assert (oee_refine(InteractionGraph(24, w), p) == got).all()


def test_accumulate_window_paths_agree():
    sliced = timeslice(gen_random(10, cycles=12, p=0.6, seed=3))
    pa, pb, offsets = pair_arrays(sliced)
    for t in (-1, 0, 3):
        a = np.zeros((10, 10))
        b = np.zeros((10, 10))
        t_end = min(sliced.num_slices - 1, t + 8)
        _accumulate_window_loops(a, pa, pb, offsets, t, t_end)
        _accumulate_window_numpy(b, pa, pb, offsets, t, t_end)
        assert (a == b).all()


def test_jitted_hungarian_matches_pure_python():
    if not NUMBA_ENABLED:
        return  # single source: nothing to compare
    from qcoremap.hungarian import _jv_square

    pure = _jv_square.py_func
    rng = np.random.default_rng(14)
    for _ in range(40):
        m = np.ascontiguousarray(rng.integers(0, 10, size=(6, 6)).astype(float))
        status_a, cols_a, u_a, v_a = _jv_square(m)
        status_b, cols_b, u_b, v_b = pure(m.copy())
        assert status_a == status_b
        assert (cols_a == cols_b).all()
        assert (u_a == u_b).all()
        assert (v_a == v_b).all()

"""End-to-end acceptance gates.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all).
Budgets are wall-clock seconds measured after JIT warm-up.
"""

import itertools
import math
import statistics
import time
import warnings

import numpy as np
import pytest

from qcoremap import (
    Architecture,
    BenchmarkSpec,
    count_communications,
    fgp_map_circuit,
    gen_random,
    is_valid,
    map_circuit,
    minimum_communications,
    solve,
    timeslice,
)
from qcoremap.cli import main as cli_main
from qcoremap.harness import (
    MAPPER_FGP,
    MAPPER_HQA,
    sweep_attraction,
    sweep_cores,
)
from qcoremap.hqa import HqaConfig


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _warm_up():
    # First calls trigger JIT compilation; budgets measure the algorithms.
    solve(np.ones((3, 3)))
    arch = Architecture(2, 2)
    map_circuit(BenchmarkSpec("ghz", 4).build(), arch)
    fgp_map_circuit(BenchmarkSpec("ghz", 4).build(), arch)


_warm_up()


def _brute_force(costs: np.ndarray):
    """Vectorized exhaustive matching; lexicographically first minimum wins."""
    r, k = costs.shape
    perms = np.array(list(itertools.permutations(range(k), r)), dtype=np.int64)
    totals = costs[np.arange(r)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    return tuple(perms[best].tolist()), float(totals[best])


def test_criterion_1_hungarian_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 8))
        m = rng.integers(0, 10, size=(n, n)).astype(np.float64)
        sol = solve(m)
        cols, cost = _brute_force(m)
        assert sol.total_cost == cost
        assert sol.col_of_row == cols
        checked += 1
    for _ in range(200):
        k = int(rng.integers(2, 8))
        r = int(rng.integers(1, k))
        m = rng.integers(0, 10, size=(r, k)).astype(np.float64)
        sol = solve(m)
        cols, cost = _brute_force(m)
        assert sol.total_cost == cost
        assert sol.col_of_row == cols
        checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "hungarian oracle equivalence",
        elapsed < 10.0,
        f"{checked} matrices, exact cost and lexicographic argmin, {elapsed:.1f}s (budget 10s)",
    )


VALIDITY_FAMILIES = ("ghz", "cuccaro", "qft", "quantum_volume", "grover", "random")


def test_criterion_2_validity_suite():
    started = time.perf_counter()
    runs = 0
    for family in VALIDITY_FAMILIES:
        for n in (16, 32, 64):
            for cores in (2, 4):
                capacity = n // cores
                assert capacity % 2 == 0
                arch = Architecture(cores, capacity)
                seed = 1 if family in ("quantum_volume", "random") else None
                spec = BenchmarkSpec(family, n, seed=seed)
                circuit = spec.build()
                sliced = timeslice(circuit)
                for mapper, attraction in (
                    (MAPPER_HQA, True),
                    (MAPPER_HQA, False),
                    (MAPPER_FGP, False),
                ):
                    if mapper == MAPPER_HQA:
                        path = map_circuit(circuit, arch, HqaConfig(use_attraction=attraction))
                    else:
                        path = fgp_map_circuit(circuit, arch)
                    assert path.num_slices == sliced.num_slices
                    for assignment, gates in zip(path.assignments, sliced.slices):
                        assert is_valid(assignment, gates, arch)
                    runs += 1
    elapsed = time.perf_counter() - started
    _report(
        2,
        "validity suite",
        elapsed < 120.0,
        f"{runs} runs, 100% of slices valid, {elapsed:.1f}s (budget 120s)",
    )


# Frozen regression table for the tiny-instance oracle comparison:
# gen_random(n=6, cycles=6, p=0.5, seed) mapped onto 2 cores of capacity 3.
# Columns: (seed, optimum, hqa, fgp_roee). The p=0.5 density keeps every
# slice at one two-qubit pair, so the odd capacity stays assignable.
TINY_ORACLE_TABLE = [
    (0, 4, 6, 4), (1, 4, 6, 4), (2, 4, 4, 4), (3, 4, 6, 6), (4, 2, 2, 2),
    (5, 4, 6, 6), (6, 2, 4, 2), (7, 4, 6, 6), (8, 4, 6, 4), (9, 2, 4, 2),
    (10, 2, 2, 2), (11, 2, 4, 2), (12, 4, 6, 6), (13, 4, 6, 6), (14, 4, 6, 6),
    (15, 4, 6, 4), (16, 4, 6, 4), (17, 4, 6, 4), (18, 2, 2, 2), (19, 2, 2, 2),
    (20, 4, 6, 4), (21, 2, 2, 2), (22, 4, 6, 4), (23, 4, 4, 4), (24, 4, 6, 4),
    (25, 2, 4, 2), (26, 4, 8, 6), (27, 2, 2, 2), (28, 4, 6, 6), (29, 4, 4, 4),
    (30, 2, 8, 4), (31, 4, 6, 4), (32, 0, 0, 0), (33, 2, 4, 2), (34, 2, 6, 2),
    (35, 2, 4, 2), (36, 4, 4, 4), (37, 4, 4, 4), (38, 2, 2, 2), (39, 4, 4, 4),
    (40, 4, 6, 4), (41, 2, 4, 4), (42, 4, 6, 4), (43, 4, 4, 4), (44, 4, 6, 6),
    (45, 2, 2, 2), (46, 2, 8, 4), (47, 2, 2, 2), (48, 2, 4, 2), (49, 2, 2, 2),
]


def test_criterion_3_tiny_instance_optimality_oracle():
    started = time.perf_counter()
    arch = Architecture(2, 3)
    ratios = []
    per_instance = []
    for seed, frozen_opt, frozen_hqa, frozen_fgp in TINY_ORACLE_TABLE:
        circuit = gen_random(6, cycles=6, p=0.5, seed=seed)
        optimum = minimum_communications(circuit, arch)
        hqa = count_communications(map_circuit(circuit, arch))
        fgp = count_communications(fgp_map_circuit(circuit, arch))
        assert optimum == frozen_opt, f"seed {seed}: optimum drifted"
        assert hqa >= optimum and fgp >= optimum, f"seed {seed}: mapper beat the oracle"
        assert hqa == frozen_hqa, f"seed {seed}: hqa regression {hqa} != {frozen_hqa}"
        assert fgp == frozen_fgp, f"seed {seed}: fgp regression {fgp} != {frozen_fgp}"
        per_instance.append(f"{seed}:{hqa}/{optimum}" if optimum else f"{seed}:0/0")
        if optimum:
            ratios.append(hqa / optimum)
    print("hqa/optimum per instance:", " ".join(per_instance))
    elapsed = time.perf_counter() - started
    _report(
        3,
        "tiny-instance optimality oracle",
        elapsed < 60.0,
        f"50 instances, mappers >= optimum, ratio table locked "
        f"(mean hqa/optimum {statistics.mean(ratios):.3f}), {elapsed:.1f}s (budget 60s)",
    )


@pytest.fixture(scope="module")
def paper_scale_sweep():
    started = time.perf_counter()
    records, ratios = sweep_cores(replicas=2, seed=1)
    return records, ratios, time.perf_counter() - started


def test_criterion_4_paper_scale_comparison(paper_scale_sweep):
    _, ratios, elapsed = paper_scale_sweep
    logs = []
    for row in ratios:
        if row["family"] == "ghz":
            continue
        value = float(row["ratio_fgp_over_hqa"])
        assert math.isfinite(value) and value > 0, f"degenerate ratio in {row}"
        logs.append(math.log(value))
    geomean = math.exp(sum(logs) / len(logs))
    detail = (
        f"{len(logs)} non-ghz cells at 120 qubits, geomean fgp/hqa {geomean:.3f} "
        f"(gate >= 1.0; published reference: average 1.28x, best ~3.4x), "
        f"{elapsed:.0f}s (budget 1800s)"
    )
    _report(4, "paper-scale comparison", geomean >= 1.0 and elapsed < 1800.0, detail)


def test_criterion_5_ghz_qualitative(paper_scale_sweep):
    _, ratios, _ = paper_scale_sweep
    ghz = [float(r["ratio_fgp_over_hqa"]) for r in ratios if r["family"] == "ghz"]
    mean_ratio = statistics.mean(ghz)
    if mean_ratio > 1.1:
        warnings.warn(
            f"ghz mean ratio {mean_ratio:.3f} exceeds the expected 1.1 bound; "
            "partitioning mappers usually win on this star-shaped circuit"
        )
    _report(
        5,
        "ghz qualitative check",
        True,  # reported, never failing: implementation-sensitive observation
        f"ghz mean fgp/hqa ratio {mean_ratio:.3f} (expected <= 1.1, warning above)",
    )


def test_criterion_6_attraction_benefit():
    started = time.perf_counter()
    _, ratios = sweep_attraction(
        benchmarks=("cuccaro",),
        capacity=16,
        qubit_counts=(32, 48, 64, 80, 96, 112),
        replicas=1,
    )
    values = [float(r["ratio_off_over_on"]) for r in ratios]
    median = statistics.median(values)
    elapsed = time.perf_counter() - started
    _report(
        6,
        "attraction benefit",
        median >= 1.0 and elapsed < 300.0,
        f"median comms(off)/comms(on) {median:.2f} over q=32..112 at capacity 16, "
        f"{elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7_determinism(tmp_path):
    started = time.perf_counter()
    commands = [
        ["sweep-qubits", "--cores", "2", "--qubits", "16,20",
         "--benchmarks", "ghz,random:0.5", "--replicas", "2", "--seed", "5", "--no-timing"],
        ["sweep-attraction", "--capacity", "4", "--qubits", "8,16",
         "--benchmarks", "cuccaro,random:0.5", "--replicas", "2", "--seed", "5", "--no-timing"],
    ]
    for i, command in enumerate(commands):
        out_a = tmp_path / f"a{i}.csv"
        out_b = tmp_path / f"b{i}.csv"
        assert cli_main(command + ["--out", str(out_a)]) == 0
        assert cli_main(command + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        ratios_a = tmp_path / f"a{i}.ratios.csv"
        ratios_b = tmp_path / f"b{i}.ratios.csv"
        assert ratios_a.read_bytes() == ratios_b.read_bytes()
    elapsed = time.perf_counter() - started
    _report(
        7,
        "determinism",
        True,
        f"2 sweep commands x 2 runs byte-identical under --no-timing, {elapsed:.0f}s",
    )


# Executable property tests backing each module invariant, runnable standalone.
PROPERTY_SUITE = [
    ("test_circuit", "TestTimeslice", "test_slice_disjointness"),
    ("test_circuit", "TestTimeslice", "test_order_preserved_per_qubit"),
    ("test_circuit", "TestTimeslice", "test_asap_tightness"),
    ("test_qasm", "TestSerialize", "test_round_trip_random_circuits"),
    ("test_lookahead", "TestProperties", "test_finite_weights_below_one"),
    ("test_lookahead", "TestProperties", "test_monotone_in_added_interactions"),
    ("test_lookahead", "TestProperties", "test_truncation_error_bounded"),
    ("test_hqa", "TestParityFix", "test_even_unassigned_count_per_core"),
    ("test_fgp", "TestRoeeRefine", "test_balance_preserved"),
    ("test_fgp", "TestSubstitution", "test_fewer_infinite_cuts_always_win"),
    ("test_hungarian", "TestProperties", "test_global_shift_preserves_argmin"),
    ("test_hungarian", "TestProperties", "test_row_shift_preserves_argmin"),
    ("test_assignment", "TestCountCommunications", "test_invariant_under_core_relabeling"),
    ("test_assignment", "TestCountCommunications", "test_triangle_sanity"),
]


def test_criterion_8_property_suites_runnable():
    import importlib

    missing = []
    for module_name, class_name, test_name in PROPERTY_SUITE:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name, None)
        if cls is None or not callable(getattr(cls, test_name, None)):
            missing.append(f"{module_name}::{class_name}::{test_name}")
    _report(
        8,
        "property suites runnable",
        not missing,
        f"{len(PROPERTY_SUITE)} invariant tests present"
        + (f"; missing: {missing}" if missing else ""),
    )

"""The paired benchmark summary in tools/bench_record.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {"python": "3", "numpy": "2", "numba_enabled": False, "nproc": 2, "cpu": "x"}


def write_run(out: Path, seed: int, wall_s: float, digest: str, source: str, trace: int = 0,
              values: dict | None = None):
    names = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in names}
    for name, value in (values or {}).items():
        metrics[name]["value"] = value
    if not trace:
        metrics["wall_s"]["value"] = wall_s
    details = {"digest": digest, "passes": 2, "pass_raw_wall_s": [wall_s, 2 * wall_s, 3 * wall_s]}
    if trace:
        details["missing_layers"] = []
    run = {
        "env": dict(ENV, source_digest=source),
        "details": details,
        "result": {"correct": True, "attempted": 4, "failed": 1, "metrics": metrics},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"tiny-exact-s{seed}-t{trace}.json").write_text(json.dumps(run))


def test_pairs_are_compared_seed_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(10.0, 1.0), (11.0, 1.1), (12.0, 12.0), (9.0, 9.5)]):
        write_run(parent, seed, before, "d", "p")
        write_run(change, seed, after, "d" if seed else "other", "c")
    write_run(parent, 0, 0.0, "d", "p", trace=1)
    write_run(change, 0, 0.0, "d", "c", trace=1)
    write_run(parent, 7, 5.0, "d", "p")  # no partner: not a pair
    out = tmp_path / "bench.json"

    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    summary = record["workloads"]["tiny-exact"]
    wall = summary["end_to_end"]["wall_s"]
    assert summary["pair_seeds"] == [0, 1, 2, 3]
    assert (wall["pairs_won"], wall["pairs_lost"], wall["pairs_tied"]) == (2, 1, 1)
    assert wall["parent"]["median"] == 10.5
    assert wall["change"]["median"] == pytest.approx(5.3)
    assert not wall["gain_shown"]  # 2 of 4 pairs won
    assert wall["within_bound"]
    assert summary["end_to_end"]["ok_frac"]["pairs_tied"] == 4
    assert not summary["digests_match"]
    assert summary["traced"]["0"]["missing_layers"] == {"parent": [], "change": []}
    assert record["environment"]["parent_source_digests"] == ["p"]
    raw = summary["raw_pass_s"]
    assert raw["parent"]["runs"] == [20.0, 22.0, 24.0, 18.0]
    assert raw["change"]["median"] == pytest.approx(10.6)
    assert raw["pairs_change_lower"] == 2
    assert summary["failed_of_attempted_per_pass"]["change"] == [[0.5, 2.0]] * 4


def test_traced_counts_that_differ_are_listed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (0, 1):
        write_run(parent, seed, 1.0, "d", "p")
        write_run(change, seed, 1.0, "d", "c")
    # Seed 0: two counts and a time differ; seed 1: only a time differs.
    write_run(parent, 0, 0.0, "d", "p", trace=1)
    write_run(change, 0, 0.0, "d", "c", trace=1, values={
        "hungarian.solve_calls": 2.0, "hqa.steps": 3.0, "hungarian.solve_s": 0.5,
        "hqa.rounds_per_step": 2.0,
    })
    write_run(parent, 1, 0.0, "d", "p", trace=1)
    write_run(change, 1, 0.0, "d", "c", trace=1, values={"hqa.step_self_s": 0.5})
    out = tmp_path / "bench.json"

    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    traced = json.loads(out.read_text())["workloads"]["tiny-exact"]["traced"]
    assert traced["0"]["counts_changed"] == ["hqa.steps", "hungarian.solve_calls"]
    assert traced["1"]["counts_changed"] == []

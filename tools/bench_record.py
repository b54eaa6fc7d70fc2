"""Summarise paired benchmark runs of a parent and a changed checkout.

Usage, from the repository root, after running ``perfbench/run.py`` with the
same seeds in both checkouts:

    python3 tools/bench_record.py PARENT/perfbench/out CHANGE/perfbench/out \\
        --out BENCH_6.json --note "how the pairs were run"

Every seed with an untraced result (``<workload>-s<seed>-t0.json``) on both
sides is one pair. For each workload the record holds the pair seeds; for
every end-to-end metric in ``BENCHMARK.json`` each side's runs, median and
quartiles, the pairs the change won, lost and tied, and whether the medians
stay within the metric's bound and show a gain (the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's quartile spread); each run's unscaled pass time and its failed and
attempted calls per pass; whether every run was correct and the digests
match seed by seed; the traced per-layer metrics of seeds traced on both
sides, with the names of the count metrics whose two values differ; and the
environment the runs report.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"(?P<workload>.+)-s(?P<seed>\d+)-t(?P<trace>[01])\.json")
ENV_KEYS = ("python", "numpy", "numba_enabled", "nproc", "cpu")


def load_runs(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    """Result files of one checkout keyed by (workload, seed, trace)."""
    runs = {}
    for path in sorted(out_dir.glob("*.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def spread(values: list[float]) -> dict:
    """Median and linear-interpolation quartiles of the runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Paired comparison of one end-to-end metric, oriented by ``better``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    base, new = spread(parent), spread(change)
    gain = sign * (base["median"] - new["median"])
    rel = (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": base,
        "change": new,
        "rel_change": rel,
        "pairs_won": won,
        "pairs_lost": lost,
        "pairs_tied": len(parent) - won - lost,
        "within_bound": sign * rel <= metric["bound"],
        "gain_shown": won >= 0.9 * len(parent) and gain > base["q3"] - base["q1"],
    }


def raw_pass_times(pairs: list[tuple[dict, dict]]) -> dict | None:
    """Each run's median unscaled pass time, paired seed by seed. Scaled
    times also move with the calibration kernel's speed, raw times do not."""
    if not all("pass_raw_wall_s" in run["details"] for pair in pairs for run in pair):
        return None
    parent = [statistics.median(p["details"]["pass_raw_wall_s"]) for p, _ in pairs]
    change = [statistics.median(c["details"]["pass_raw_wall_s"]) for _, c in pairs]
    return {
        "unit": "s",
        "parent": spread(parent),
        "change": spread(change),
        "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
    }


def per_pass(run: dict) -> list[float]:
    """[failed, attempted] of one pass; every pass maps the same inputs."""
    passes = run["details"]["passes"]
    return [run["result"]["failed"] / passes, run["result"]["attempted"] / passes]


def summarise_workload(name: str, parent: dict, change: dict, declared: dict) -> dict:
    seeds = sorted(s for (w, s, t) in parent if w == name and t == 0 and (w, s, t) in change)
    pairs = [(parent[(name, s, 0)], change[(name, s, 0)]) for s in seeds]
    end_to_end = {
        metric["name"]: compare(
            metric,
            [p["result"]["metrics"][metric["name"]]["value"] for p, _ in pairs],
            [c["result"]["metrics"][metric["name"]]["value"] for _, c in pairs],
        )
        for metric in declared["end_to_end"]
    }
    traced_seeds = sorted(s for (w, s, t) in parent if w == name and t == 1 and (w, s, t) in change)
    traced = {}
    for s in traced_seeds:
        p, c = parent[(name, s, 1)], change[(name, s, 1)]
        metrics = {
            m["name"]: {
                "unit": m["unit"],
                "parent": p["result"]["metrics"][m["name"]]["value"],
                "change": c["result"]["metrics"][m["name"]]["value"],
            }
            for m in declared["per_layer"]
        }
        traced[str(s)] = {
            "metrics": metrics,
            "counts_changed": sorted(
                k for k, m in metrics.items() if m["unit"] == "count" and m["parent"] != m["change"]
            ),
            "missing_layers": {"parent": p["details"]["missing_layers"], "change": c["details"]["missing_layers"]},
            "digests_match": p["details"]["digest"] == c["details"]["digest"],
            "correct": {"parent": p["result"]["correct"], "change": c["result"]["correct"]},
        }
    return {
        "pair_seeds": seeds,
        "end_to_end": end_to_end,
        "correct": {
            "parent": all(p["result"]["correct"] for p, _ in pairs),
            "change": all(c["result"]["correct"] for _, c in pairs),
        },
        "digests_match": all(p["details"]["digest"] == c["details"]["digest"] for p, c in pairs),
        "failed_of_attempted": {
            "parent": [[p["result"]["failed"], p["result"]["attempted"]] for p, _ in pairs],
            "change": [[c["result"]["failed"], c["result"]["attempted"]] for _, c in pairs],
        },
        "failed_of_attempted_per_pass": {
            "parent": [per_pass(p) for p, _ in pairs],
            "change": [per_pass(c) for _, c in pairs],
        },
        "passes": {
            "parent": [p["details"]["passes"] for p, _ in pairs],
            "change": [c["details"]["passes"] for _, c in pairs],
        },
        "raw_pass_s": raw_pass_times(pairs),
        "traced": traced,
    }


def environment(parent: dict, change: dict) -> dict:
    """Shared environment fields, and each side's source digests."""
    env = {}
    for key in ENV_KEYS:
        values = sorted({str(run["env"][key]) for run in list(parent.values()) + list(change.values())})
        env[key] = values[0] if len(values) == 1 else values
    for side, runs in (("parent", parent), ("change", change)):
        env[f"{side}_source_digests"] = sorted({run["env"]["source_digest"] for run in runs.values()})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="perfbench/out of the parent checkout")
    parser.add_argument("change", type=Path, help="perfbench/out of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="record to write")
    parser.add_argument("--note", default="", help="how the runs were made")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = sorted({w for (w, _s, t) in parent if t == 0} & {w for (w, _s, t) in change if t == 0})
    if not workloads:
        sys.stderr.write("error: no workload has untraced runs on both sides\n")
        return 1
    record = {
        "note": args.note,
        "environment": environment(parent, change),
        "workloads": {w: summarise_workload(w, parent, change, declared) for w in workloads},
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that every BENCH_*.json at the repository root is complete.

A BENCH file records one speed claim: the parent and change commits, and,
for the primary and hold-out seeds, every workload and every end-to-end
metric that BENCHMARK.json declares, the median and quartiles of the
parent's runs and of the change's.  Run from the repository root:

    python3 tools/check_bench.py

Exits 1 and names each missing field when a file is incomplete.
"""

from __future__ import annotations

import glob
import json
import sys

SEEDS = ("1", "2")  # perfbench's primary and hold-out seeds
STATS = ("median", "q1", "q3")


def missing_fields(bench: dict, spec: dict) -> list[str]:
    out = [key for key in ("parent_commit", "change_commit") if not bench.get(key)]
    seeds = bench.get("seeds", {})
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            metrics = seeds.get(seed, {}).get(workload, {})
            for metric in (m["name"] for m in spec["end_to_end"]):
                for side in ("parent", "change"):
                    stats = metrics.get(metric, {}).get(side, {})
                    out += [f"seeds.{seed}.{workload}.{metric}.{side}.{s}"
                            for s in STATS
                            if not isinstance(stats.get(s), (int, float))]
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0
    paths = sorted(glob.glob("BENCH_*.json"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            missing = missing_fields(json.load(fh), spec)
        for field in missing:
            print(f"{path}: missing {field}")
        bad += bool(missing)
    print(f"{len(paths)} BENCH file(s) checked, {bad} incomplete")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke run of the benchmark: every workload at tiny size, in a few seconds.

    python3 benchmark/smoke.py

Runs each workload twice with one seed, traced (a traced run also makes the
untraced measurement and every output check). Both runs must pass their
checks and report every metric that BENCHMARK.json names. The counts that
depend only on the seed must repeat exactly across the two runs: hits,
misses, evictions, probes and answers of the first block, the suite report
apart from wall_time_ns, and every per-layer count (calls, probes, hit rate,
evictions, spans). Exits 1 at the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TIME_UNITS = {"s", "ms", "us", "ns", "1/s"}


def run(workload: str, spec: dict) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.3", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
        raise SystemExit(f"{workload}: bad result line {last}")
    if set(last["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        raise SystemExit(f"{workload}: per-layer metrics differ from BENCHMARK.json")
    record = json.loads((ROOT / ".bench_work" / f"result-{workload}-seed{SEED}-trace1.json").read_text())
    if set(record["end_to_end"]) != {m["name"] for m in spec["end_to_end"]}:
        raise SystemExit(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
    return {
        "repeat": record["detail"].get("repeat") or record["detail"].get("report_sha256"),
        "counts": {k: v["value"] for k, v in last["metrics"].items() if v["unit"] not in TIME_UNITS},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = run(workload, spec), run(workload, spec)
        if first != second:
            print(f"{workload}: counts differ between two runs of seed {SEED}:\n{first}\n{second}")
            return 1
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the benchmark's baseline and write bench/BASELINE.json.

Runs every workload of BENCHMARK.json with seeds 1..RUNS untraced, then
twice traced at seed 1, one process at a time, and records for each
end-to-end metric the median, the quartiles and the spread (IQR over
median), whether the traced call counts repeated exactly, and the
machine facts.  Takes about twenty minutes.

    python3 bench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def git_rev() -> str:
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return p.stdout.strip() or "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_rev": git_rev(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        metrics: dict[str, list[float]] = {}
        walls = []
        for seed in range(1, RUNS + 1):
            result, wall = run_once(workload, seed, spec["run_seconds"], 0)
            walls.append(wall)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(workload, seed, f"{wall:.1f}s", flush=True)
        traced = [run_once(workload, 1, spec["run_seconds"], 1) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
            for t, _ in traced
        ]
        layer = traced[0][0]["metrics"]
        out["workloads"][workload] = {
            "end_to_end": {k: summarize(v) for k, v in metrics.items()},
            "run_wall_s": summarize(walls),
            "traced_wall_s": [w for _, w in traced],
            "trace_call_counts_repeat": counts[0] == counts[1],
            "trace": {k: layer[k]["value"] for k in ("trace.spans", "trace.overhead_ratio")},
        }
    path = os.path.join(BENCH_DIR, "BASELINE.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

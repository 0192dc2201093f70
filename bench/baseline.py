"""Measure a baseline: run-to-run spread of the end-to-end metrics, plus a traced run.

Usage: python3 bench/baseline.py [--workload NAME ...] [--seeds 1-10] [--out FILE]

For each workload, runs `bench/run.py` once per seed, one run at a time, with
BENCHMARK.json's run length. For each end-to-end metric it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (Q3 - Q1) / median next to the metric's bound. One traced run per
workload at the first seed then gives the per-layer table. `--out` writes it
all as JSON, with the machine's core count and Python and mpmath versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def environment() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"environment": environment(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload or names:
        results = [run_once(workload, seed, 0) for seed in args.seeds]
        rows = {}
        for name, bound in bounds.items():
            rows[name] = dict(summarize([r["metrics"][name]["value"] for r in results]), bound=bound)
            print("%-18s %-8s median %9.4f  q1 %9.4f  q3 %9.4f  spread %.3f  bound %.2f" % (
                workload, name, rows[name]["median"], rows[name]["q1"], rows[name]["q3"],
                rows[name]["spread"], bound), flush=True)
        traced = run_once(workload, args.seeds[0], 1)
        results.append(traced)
        ok = ok and all(r["correct"] for r in results)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

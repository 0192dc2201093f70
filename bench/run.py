"""normnum benchmark: end-to-end CLI timings and a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured call is a `python -m normnum.cli ...` child process, started
one at a time (closed loop, one client). A run first times a trivial call
(`cost --n 1`) several times for `setup_s`, then cycles through the
workload's pass of calls until `--seconds` is used up. The first pass always
completes; later calls start only if their slowest earlier time still fits.
Every output is checked against a golden value or an exact oracle.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones: `setup_s`, the median wall of the trivial call, and `pass_s`, the sum
over the pass's calls of each call's mean wall (seconds per pass). With
`--trace 1` passes alternate between plain and traced calls (through
bench/launcher.py) and the metrics are the per-layer ones, taken from each
call's median traced run; `trace.overhead_s` is the traced pass minus the
plain pass. Lines above the JSON give the per-command medians (digits_s,
verify_s, refuse_s, lemma_s, discrepancy_s) with their sample counts, each
call's samples, and each failed check.

Other modes:

    python3 bench/run.py --all [--seed N] [--seconds S]   # every workload, plain and traced, as tables
    python3 bench/run.py --selfcheck [--seed N]          # counts repeat exactly; 6-digit goldens hold
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHER = BENCH / "launcher.py"
# A run must end within 180 s: calls still going this long after the start of
# a 40 s run (or of a self-check section) are killed and count as failed.
RUN_LIMIT_S = 170
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from workloads import Call, Outcome, Plan  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s"}
LAYERS = ("orbit", "measure", "badsets", "enclose", "constructor", "discrepancy", "mc", "cli")
KINDS = ("digits", "verify", "refuse", "lemma", "discrepancy")


@dataclass
class Sample:
    kind: str
    wall: float
    rss_mb: float
    trace: Optional[dict] = None


class Runner:
    """Starts CLI children in a scratch directory inside the checkout."""

    def __init__(self, work: Path, limit_s: float = RUN_LIMIT_S):
        self.work = work
        self.deadline = time.perf_counter() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, call: Call, traced: bool = False) -> Sample:
        if call.clears is not None:
            call.clears.unlink(missing_ok=True)
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(LAUNCHER), str(trace_path), *call.argv]
        else:
            cmd = [sys.executable, "-m", "normnum.cli", *call.argv]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            killer = threading.Timer(max(0.1, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        outcome = Outcome(
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )
        problem = call.check(outcome)
        trace = None
        if traced and problem is None:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                problem = "no trace written: %s" % exc
        self.attempted += 1
        if problem is not None:
            self.problems.append("%s: %s" % (call.key, problem))
        return Sample(call.kind, wall, usage.ru_maxrss / 1024, trace)


def measure_setup(runner: Runner) -> list[float]:
    call = Call("setup", "setup", workloads.SETUP_ARGV, workloads.check_setup)
    runner.run(call)  # compiles bytecode; not timed
    return [runner.run(call).wall for _ in range(SETUP_REPEATS)]


def measure(runner: Runner, plan: Plan, seconds: float, traced: bool) -> dict:
    """Cycle through the plan's pass; with `traced`, passes alternate plain/traced."""
    samples = {False: defaultdict(list), True: defaultdict(list)}
    start = time.perf_counter()
    first_passes = 2 if traced else 1
    number = 0
    while True:
        mode = traced and number % 2 == 1
        for call in plan.calls:
            earlier = samples[mode][call.key]
            if number >= first_passes:
                slowest = max(s.wall for s in earlier)
                if time.perf_counter() - start + slowest > seconds:
                    return samples
            earlier.append(runner.run(call, traced=mode))
        number += 1


def pass_seconds(samples: dict) -> float:
    """Mean wall of one pass: the sum over the pass's calls of each call's mean.

    The run's wall per pass, the inverse of passes per second. On a shared
    2-core machine whose CPU speed swings by up to 2x over minutes, this read
    steadier across 10 runs than the sum of per-call medians or minimums.
    """
    return sum(statistics.fmean(s.wall for s in group) for group in samples.values())


def end_to_end(setup: list[float], plain: dict) -> dict:
    return {"setup_s": statistics.median(setup), "pass_s": pass_seconds(plain)}


def percentile_summary(walls: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    walls = sorted(walls)
    out = {"n": len(walls), "p50": statistics.median(walls)}
    for pct in (99, 95, 90, 75):
        rank = -(-len(walls) * pct // 100)  # nearest-rank percentile
        if len(walls) - rank >= 10:
            out["p%d" % pct] = walls[rank - 1]
            break
    return out


def kind_table(plain: dict, plan: Plan) -> dict:
    """The per-command figures: digits_s, verify_s, refuse_s, lemma_s, discrepancy_s."""
    by_kind = defaultdict(list)
    for group in plain.values():
        for sample in group:
            by_kind[sample.kind].append(sample.wall)
    table = {kind + "_s": percentile_summary(walls) for kind, walls in by_kind.items()}
    if plan.name == "bound-grid":
        # lemma_s is one pass over the six checks
        passes = min(len(group) for group in plain.values())
        table["lemma_s"] = {"n": passes, "p50": pass_seconds(plain)}
    return table


def _span(trace: dict, name: str, field: int) -> float:
    return trace["spans"].get(name, [0, 0.0, 0.0])[field]


def _edge_total(trace: dict, parent_prefix: str, name: str, field: int) -> float:
    return sum(
        edge[2 + field]
        for edge in trace["edges"]
        if edge[1] == name and (edge[0] or "").startswith(parent_prefix)
    )


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced pass (traces summed over the pass's calls)."""
    counts = defaultdict(int, trace["counts"])
    calls = lambda name: _span(trace, name, 0)  # noqa: E731
    total = lambda name: _span(trace, name, 1)  # noqa: E731
    selft = lambda name: _span(trace, name, 2)  # noqa: E731
    layer_self = {
        layer: sum(v[2] for name, v in trace["spans"].items() if name.split(".")[0] == layer)
        for layer in LAYERS
    }
    core_measure = "measure.IntervalSet.intersect_measure"
    periodic = "measure.PeriodicIntervalSet.intersect_measure"
    sweep_s = total("orbit.deviation_regions")
    built = counts["badsets.sets_built"]
    metrics = {
        "orbit.deviation_regions.s": sweep_s,
        "orbit.deviation_regions.calls": calls("orbit.deviation_regions"),
        "orbit.sweep_events": counts["orbit.sweep_events"],
        "orbit.sweep_events_per_s": counts["orbit.sweep_events"] / sweep_s if sweep_s else 0.0,
        "orbit.region_parts": counts["orbit.region_parts"],
        "orbit.deviation_measure.s": total("orbit.deviation_measure"),
        "orbit.deviation_measure.calls": calls("orbit.deviation_measure"),
        "orbit.dp_cell_steps": counts["orbit.dp_cell_steps"],
        "measure.union.s": total("measure.IntervalSet.union"),
        "measure.union.parts_in": counts["measure.union.parts_in"],
        "measure.union.parts_out": counts["measure.union.parts_out"],
        "measure.intersect_measure.s": total(periodic) + total(core_measure)
        - _edge_total(trace, periodic, core_measure, 1),
        "measure.intersect_measure.calls": calls(periodic) + calls(core_measure)
        - _edge_total(trace, periodic, core_measure, 0),
        "measure.periodic_copies": counts["measure.periodic_copies"],
        "badsets.bad_family.s": total("badsets.bad_family"),
        "badsets.sets_built": built,
        "badsets.sets_nonempty_ratio": counts["badsets.sets_nonempty"] / built if built else 0.0,
        "badsets.block_bad_union.self_s": selft("badsets.block_bad_union"),
        "enclose.eval_iv_tight.calls": calls("enclose.eval_iv_tight"),
        "enclose.eval_iv.calls": calls("enclose.eval_iv"),
        "enclose.bits": counts["enclose.bits"],
        "constructor.run_construction.self_s": selft("constructor.run_construction"),
        "constructor.verify_certificate.self_s": selft("constructor.verify_certificate"),
        "constructor.family_builds": _edge_total(trace, "constructor.", "badsets.bad_family", 0),
        "constructor.refinements": counts["constructor.refinements"],
        "discrepancy.extreme_discrepancy.s": total("discrepancy.extreme_discrepancy"),
        "discrepancy.star_discrepancy.s": total("discrepancy.star_discrepancy"),
        "discrepancy.normality_ratio.s": total("discrepancy.normality_ratio"),
        "discrepancy.candidates": counts["discrepancy.candidates"],
        "mc.samples": counts["mc.samples"],
        "cli.main.self_s": selft("cli.main"),
    }
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = layer_self[layer]
    return metrics


def merge_traces(traces: list[dict]) -> dict:
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    edges = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    for trace in traces:
        for name, value in trace["spans"].items():
            for i in range(3):
                spans[name][i] += value[i]
        for parent, name, n, seconds in trace["edges"]:
            edges[(parent, name)][0] += n
            edges[(parent, name)][1] += seconds
        for name, value in trace["counts"].items():
            counts[name] += value
    return {
        "spans": dict(spans),
        "edges": [[p, n, c, t] for (p, n), (c, t) in edges.items()],
        "counts": dict(counts),
    }


def per_layer(runner: Runner, plan: Plan, samples: dict) -> dict:
    plain, traced = samples[False], samples[True]
    chosen = []
    for call in plan.calls:
        group = sorted(traced[call.key], key=lambda s: s.wall)
        if any(s.trace is None for s in group):
            continue  # already counted as failed
        for other in group[1:]:
            if other.trace["counts"] != group[0].trace["counts"]:
                runner.problems.append("%s: traced counts differ between calls" % call.key)
        chosen.append(group[(len(group) - 1) // 2])
    metrics = layer_metrics(merge_traces([s.trace for s in chosen]))
    traced_wall = sum(s.wall for s in chosen)
    accounted = sum(metrics["layer.%s.self_s" % layer] for layer in LAYERS)
    kinds = kind_table(plain, plan)
    for kind in KINDS:
        metrics["cmd.%s_s" % kind] = kinds.get(kind + "_s", {}).get("p50", 0.0)
    metrics["cmd.peak_rss_mb"] = max(s.rss_mb for group in plain.values() for s in group)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(plain)
    metrics["trace.accounted_share"] = accounted / traced_wall
    return metrics


def per_layer_units() -> dict:
    units = {}
    for name in layer_metrics(merge_traces([])):
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith((".s", "_s")):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    for kind in KINDS:
        units["cmd.%s_s" % kind] = "s"
    units.update({"cmd.peak_rss_mb": "MB", "trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.accounted_share": "ratio"})
    return units


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    runner = Runner(work, RUN_LIMIT_S - 40 + seconds)
    plan = workloads.build_plan(name, seed, work)
    setup = measure_setup(runner)
    samples = measure(runner, plan, seconds, traced)
    if traced:
        values = per_layer(runner, plan, samples)
        units = per_layer_units()
    else:
        values = end_to_end(setup, samples[False])
        units = END_TO_END_UNITS
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "problems": runner.problems,
        "commands": kind_table(samples[False], plan),
        "calls": {
            key: {"n": len(group), "median": statistics.median(s.wall for s in group),
                  "mean": statistics.fmean(s.wall for s in group), "min": min(s.wall for s in group)}
            for key, group in samples[False].items()
        },
    }


def print_table(title: str, result: dict) -> None:
    print("== %s: %d calls, %d failed, error_rate %.4f" % (
        title, result["attempted"], result["failed"], result["failed"] / result["attempted"]))
    for name, metric in result["metrics"].items():
        print("  %-42s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for name, summary in result["commands"].items():
        extra = "".join(" %s=%.4g" % (k, v) for k, v in summary.items() if k not in ("n", "p50"))
        print("  %-42s %16.6g s   (median of n=%d%s)" % (name, summary["p50"], summary["n"], extra))
    for key, call in result["calls"].items():
        print("  call %-38s n=%d median=%.6f mean=%.6f min=%.6f" % (
            key, call["n"], call["median"], call["mean"], call["min"]))
    for problem in result["problems"]:
        print("  FAILED", problem)


def selfcheck(seed: int, work: Path) -> bool:
    """Counts of two traced calls agree; the 6-digit toy goldens still hold."""
    ok = True
    for name in workloads.WORKLOADS:
        runner = Runner(work)
        plan = workloads.build_plan(name, seed, work)
        for call in plan.calls:
            first, second = runner.run(call, traced=True), runner.run(call, traced=True)
            if first.trace is None or second.trace is None:
                continue
            if first.trace["counts"] != second.trace["counts"]:
                runner.problems.append("%s: counts %s vs %s" % (
                    call.key, first.trace["counts"], second.trace["counts"]))
        print("%s: %d traced calls, counts %s" % (
            name, runner.attempted, "repeat exactly" if not runner.problems else "DIFFER"))
        for problem in runner.problems:
            print("  FAILED", problem)
        ok = ok and not runner.problems
    runner = Runner(work)
    for preset in workloads.ALL_TOY_PRESETS:
        cert = work / ("%s.cert6.json" % preset)
        runner.run(Call("digits6:" + preset, "digits",
                        ("digits", "--preset", preset, "--count", "6", "--cert-out", str(cert)),
                        workloads.digits_check(preset, 6, cert), clears=cert))
        runner.run(Call("verify6:" + preset, "verify", ("verify", str(cert)),
                        workloads.verify_check(preset, 6)))
    print("6-digit toy goldens: %s" % ("hold" if not runner.problems else "FAIL"))
    for problem in runner.problems:
        print("  FAILED", problem)
    return ok and not runner.problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    parser.add_argument("--selfcheck", action="store_true", help="check count determinism and goldens")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.workload or args.all or args.selfcheck):
        parser.error("give --workload, --all or --selfcheck")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normnum" / "cli.py").is_file():
        print("no normnum sources at %s; run from a repository checkout" % SRC, file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.selfcheck:
            return 0 if selfcheck(args.seed, work) else 1
        if args.all:
            results = {}
            for name in workloads.WORKLOADS:
                for traced in (False, True):
                    title = "%s (%s)" % (name, "traced" if traced else "plain")
                    results[title] = run_workload(name, args.seed, args.seconds, traced, work)
                    print_table(title, results[title])
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        print_table(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

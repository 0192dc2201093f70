"""Run one normnum CLI command with its layer boundaries traced.

Usage: python3 bench/launcher.py TRACE_OUT ARGV...

The public functions of each normnum module (plus a few hot methods and
the cell-chain DP kernel) are wrapped before `normnum.cli.main(ARGV)` runs.
Modules import names with `from ... import`, so each wrapper replaces the
original in every normnum module that holds it. Every call is timed against
a stack of open spans: a span's self time is its duration minus the
durations of the spans it opened. Counts are taken at the same boundaries.
The aggregate is written to TRACE_OUT as JSON when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import ceil, floor

LAYERS = ("orbit", "measure", "badsets", "enclose", "constructor", "discrepancy", "mc", "cli")
METHODS = {
    "measure": {
        "IntervalSet": ("union", "intersect", "intersect_measure"),
        "PeriodicIntervalSet": ("intersect_measure", "materialize"),
    },
    "badsets": {"BadFamily": ("outer_intersect_bound",)},
    "constructor": {"Certificate": ("dump", "load")},
}
PRIVATE = {"orbit": ("_tail_weight",)}


def _sweep(counts, result, args):
    counts["orbit.sweep_events"] += result


def _regions(counts, result, args):
    counts["orbit.region_parts"] += sum(len(region) for region in result)


def _dp(counts, result, args):
    # one transition per (cell, digit, step, tracked count level)
    if args["cap"] >= 0:
        counts["orbit.dp_cell_steps"] += (
            args["cells"] * args["base"] * (args["length"] - 1) * (args["cap"] + 1)
        )


def _union(counts, result, args):
    counts["measure.union.parts_in"] += len(args["self"]) + len(args["other"])
    counts["measure.union.parts_out"] += len(result)


def _copies(counts, result, args):
    region = args["self"]
    lo = max(Fraction(args["lo"]), Fraction(0))
    hi = min(Fraction(args["hi"]), Fraction(1))
    if hi <= lo:
        return
    scale = region.base**region.level
    a, b = lo * scale, hi * scale
    if a.denominator != 1 or b.denominator != 1:
        counts["measure.periodic_copies"] += ceil(b) - floor(a)


def _bad_set(counts, result, args):
    counts["badsets.sets_built"] += 1
    counts["badsets.sets_nonempty"] += not result.is_empty()


def _bits(counts, result, args):
    counts["enclose.bits"] += max(int(args["bits"]), 16)


def _refinements(counts, result, args):
    start = args["precision"]
    counts["constructor.refinements"] += sum(
        (record.precision // start).bit_length() - 1 for record in result.steps
    )


def _extreme(counts, result, args):
    d = len(set(args["points"]))
    counts["discrepancy.candidates"] += d * (d + 1) // 2 + (d + 1) ** 2


def _star(counts, result, args):
    counts["discrepancy.candidates"] += 2 * (len(set(args["points"])) + 1)


def _samples(counts, result, args):
    counts["mc.samples"] += args["spec"].count


COUNTERS = {
    "orbit.sweep_cost": _sweep,
    "orbit.deviation_regions": _regions,
    "orbit._tail_weight": _dp,
    "measure.IntervalSet.union": _union,
    "measure.PeriodicIntervalSet.intersect_measure": _copies,
    "badsets.block_bad_set": _bad_set,
    "badsets.tail_bad_set": _bad_set,
    "enclose.eval_iv": _bits,
    "constructor.run_construction": _refinements,
    "discrepancy.extreme_discrepancy": _extreme,
    "discrepancy.star_discrepancy": _star,
    "mc.sample_integers": _samples,
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans as [name, seconds covered by children]
        self.depth = defaultdict(int)
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name): calls, total
        self.counts = defaultdict(int)

    def record(self, name, seconds):
        span = self.spans[name]
        span[0] += 1
        span[1] += seconds
        span[2] += seconds

    def wrap(self, name, fn):
        stack, depth, spans, edges = self.stack, self.depth, self.spans, self.edges
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                span = spans[name]
                span[0] += 1
                span[2] += elapsed - frame[1]
                if not depth[name]:  # recursion counts its outermost call once
                    span[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, result, bound.arguments)
            return result

        return traced

    def to_json(self):
        return {
            "spans": {name: list(value) for name, value in self.spans.items()},
            "edges": [[p, n, c, t] for (p, n), (c, t) in self.edges.items()],
            "counts": dict(self.counts),
        }


def install(tracer):
    modules = {layer: sys.modules["normnum." + layer] for layer in LAYERS}
    replace = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                replace[obj] = tracer.wrap("%s.%s" % (layer, attr), obj)
    for name, module in list(sys.modules.items()):
        if name == "normnum" or name.startswith("normnum."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(module, attr, replace[obj])
    for layer, classes in METHODS.items():
        for class_name, methods in classes.items():
            cls = getattr(modules[layer], class_name)
            for method in methods:
                name = "%s.%s.%s" % (layer, class_name, method)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, tracer.wrap(name, raw))


def main(argv):
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import normnum.cli

    tracer.record("cli.import", time.perf_counter() - start)
    install(tracer)
    try:
        return normnum.cli.main(command)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

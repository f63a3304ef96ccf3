#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the retroroute package.

    python3 perfbench/run.py --workload plan-wire --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and keeps its generated inputs and span dumps under `.perfbench_work/`.
One closed-loop client runs one op at a time over the workload's 100 items.
A run measures whole passes over the items: as many as fit in `--seconds`,
and at least MIN_PASSES. Every pass sets up a fresh session, so no state
of the models, the client or the model process carries over from one
repeat of an item to the next, and every pass after the first runs the
items in another seeded order.

Other tenants of the machine change its speed by up to 2x for minutes at a
time, and CPU time grows with wall time, so neither can be compared across
runs as it is. A fixed calibration kernel, benchmark code that shares
nothing with the package, is timed before the first op of a pass and
after every op. Each op and set-up time is scaled by the kernel's reference
time over its mean time on both sides of it: times are reported at the
speed at which the kernel takes CALIBRATION_REF_S. The benchmark, its
threads and the `plan-wire` model process all run on one CPU, so that the
kernel times the CPU that does the work. The protocol is closed-loop and
blocking, so client and model process never need two CPUs at once, and a
round-trip becomes a context switch on that CPU rather than a wake-up on
the other one, whose cost the machine's other tenants change.

An item's time is the median of its passes. `setup_s` is the median of the
passes' set-ups and of as many more after the timed phase as it takes to
have MIN_SETUPS.

With `--trace 0` the last output line carries the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, and the last line carries
the per-layer metrics averaged over the traced passes. The lines before it
show the same run as a table. Workloads and metrics are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import chemgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
MIN_SETUPS = 15
SPAN_TOLERANCE = 0.02
# The calibration kernel: generating a small chemistry (about 0.6 ms when
# this machine is fast). Like the package it is pure Python over strings,
# dicts and lists, so it slows with the machine much as the ops do.
CALIBRATION_PARAMS = chemgen.ChemParams(
    levels=2, width=8, alts=2, blocks=12,
    plan_targets=4, dead_targets=1, eval_chunks=2, eval_chunk=4,
)
CALIBRATION_REF_S = 0.0006
MODEL_OPS = ("retro", "score", "forward", "classify")
FILTER_OUTCOMES = ("auto", "selective", "not_top1", "insufficient_gap", "model_error")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("plan-wire", "eval-toy", "export-graph"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Passes of one timed phase: set-ups, latencies per item, outputs and counts."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.counts = Counter()
        self.latencies = [[] for _ in wl.items]  # per item, one per pass
        self.scaled = [[] for _ in wl.items]  # the same at the reference speed
        self.setup_times = []  # at the reference speed
        self.kernel_times = []
        self.stock_load_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = [None] * len(wl.items)
        self.passes = 0
        self.elapsed = 0.0
        # ops of the traced passes, and the latencies measured around them
        self.traced_ops = 0
        self.traced_latency = 0.0

    def one_pass(self, op, traced: bool = False) -> None:
        """Set up a fresh session, run every item once on it, close it."""
        wl = self.wl
        clock = time.perf_counter
        # every pass after the first runs the items in another seeded order,
        # so that load bursts in step with the pass do not hit the same items
        order = list(range(len(wl.items)))
        if self.passes:
            random.Random(self.passes).shuffle(order)
        start = clock()
        s = self.set_up()
        try:
            with wl.traced(s) if traced else contextlib.nullcontext():
                for index in order:
                    self._one_op(op, s, index, traced)
        finally:
            wl.close(s)
        self.elapsed += clock() - start
        self.passes += 1

    def set_up(self):
        """A fresh session; its set-up time is recorded."""
        self._calibrate()
        start = time.perf_counter()
        s = self.wl.setup(self.tracer, self.counts)
        self.setup_times.append(self._at_reference_speed(time.perf_counter() - start))
        self.stock_load_times.append(s.stock_load_s)
        return s

    def _one_op(self, op, s, index: int, traced: bool) -> None:
        wl = self.wl
        item = wl.items[index]
        self.attempted += 1
        self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            text, info = op(s, item)
        except Exception as exc:  # an op that raises is a failed op
            self.failed += 1
            self.problems.append(f"op {item!r} raised {type(exc).__name__}: {exc}")
            return
        latency = time.perf_counter() - t0
        self.latencies[index].append(latency)
        self.scaled[index].append(self._at_reference_speed(latency))
        if traced:
            self.traced_ops += 1
            self.traced_latency += latency
        wl.tally(self.counts, item, info)
        if self.first[index] is None:
            self.first[index] = text
        elif text != self.first[index]:
            self.failed += 1
            self.problems.append(f"op {item!r}: output differs from its first pass")

    def _calibrate(self) -> None:
        """Time the calibration kernel, with the collector off."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            chemgen.generate_chemistry(0, CALIBRATION_PARAMS)
            self.kernel_times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def _at_reference_speed(self, seconds: float) -> float:
        """`seconds`, just measured, scaled by the kernel's times on both sides."""
        self._calibrate()
        before, after = self.kernel_times[-2:]
        return seconds * 2.0 * CALIBRATION_REF_S / (before + after)

    def fits_another_pass(self, seconds: float, min_passes: int) -> bool:
        if self.passes < min_passes:
            return True
        return self.elapsed + self.elapsed / self.passes <= seconds

    def check_outputs(self) -> None:
        """Output checks on each item's first output; a failure fails its op."""
        wl = self.wl
        extra = wl.verify(self.first)
        for item, text, more in zip(wl.items, self.first, extra):
            if text is None:
                continue
            problems = wl.check(item, text) + more
            if problems:
                self.failed += 1
                self.problems += problems


END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *(
        (f"toy.{op}_{kind}", unit)
        for op in MODEL_OPS
        for kind, unit in (("calls", "count"), ("ms", "ms"))
    ),
    ("wire.roundtrips", "count"),
    ("wire.wait_ms", "ms"),
    ("wire.client_ms", "ms"),
    ("wire.bytes_out", "B"),
    ("wire.bytes_in", "B"),
    ("wire.retries", "count"),
    ("wire.timeouts", "count"),
    ("wire.errors", "count"),
    ("smiles.normalize_calls", "count"),
    ("smiles.normalize_ms", "ms"),
    ("expand.nodes", "count"),
    ("expand.ms", "ms"),
    ("expand.self_ms", "ms"),
    ("expand.candidates", "count"),
    ("expand.accepted", "count"),
    ("expand.accept_ratio", "ratio"),
    *((f"expand.filter_{outcome}", "count") for outcome in FILTER_OUTCOMES),
    ("expand.cluster_ms", "ms"),
    ("expand.deferrals", "count"),
    ("expand.arcs_attached", "count"),
    ("graph.attach_calls", "count"),
    ("graph.attach_ms", "ms"),
    ("graph.cycle_rejections", "count"),
    ("graph.nodes_per_target", "count"),
    ("graph.arcs_per_target", "count"),
    ("graph.load_ms", "ms"),
    ("graph.dot_ms", "ms"),
    ("search.phases", "count"),
    ("search.forked", "count"),
    ("search.pruned", "count"),
    ("search.self_ms", "ms"),
    ("search.simplicity_calls", "count"),
    ("search.simplicity_ms", "ms"),
    ("metrics.evaluate_target_self_ms", "ms"),
    ("metrics.aggregate_ms", "ms"),
    ("stock.load_ms", "ms"),
    ("stock.lookups", "count"),
    ("cli.route_json_ms", "ms"),
    *(
        (f"{layer}.self_ms", "ms")
        for layer in ("toy", "wire", "smiles", "graph", "metrics", "cli")
    ),
    ("unattributed_ms", "ms"),
    ("op_ms", "ms"),
    ("model_calls_per_target", "count"),
    ("roundtrips_per_target", "count"),
    ("solved_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("trace_overhead", "ratio"),
)


def end_to_end(wl, run):
    """Each item's time is the median of its passes, at the reference speed."""
    per_item = [
        (statistics.median(times), wl.throughput_units(item))
        for item, times in zip(wl.items, run.scaled)
        if times
    ]
    item_ms = [1e3 * t for t, _ in per_item]
    return {
        "setup_s": statistics.median(run.setup_times),
        "op_ms_p50": statistics.median(item_ms),
        "op_ms_p90": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        # one closed-loop client running every op at its median time
        "items_per_s": sum(u for _, u in per_item) / sum(t for t, _ in per_item),
        "peak_rss_mb": run.peak_rss_mb,
    }


def workload_table(wl, run, e2e):
    """The end-to-end metrics under their per-workload names, with units."""
    first = run.counts_first
    units = sum(wl.units(item) for item in wl.items)
    calls = sum(first[f"model.{op}_calls"] for op in MODEL_OPS)
    op = {"plan-wire": "plan", "eval-toy": "chunk"}.get(wl.name, "export")
    table = {
        "setup_s": (e2e["setup_s"], "s"),
        f"{op}_ms_p50": (e2e["op_ms_p50"], "ms"),
        f"{op}_ms_p90": (e2e["op_ms_p90"], "ms"),
    }
    if op == "export":
        table["export_nodes_per_s"] = (e2e["items_per_s"], "1/s")
    else:
        table["targets_per_s"] = (e2e["items_per_s"], "1/s")
        table["model_calls_per_target"] = (calls / units, "count")
    if wl.name == "plan-wire":
        table["roundtrips_per_target"] = (first["wire.roundtrips"] / units, "count")
    if op == "plan":
        table["solved_frac"] = (first["solved"] / units, "ratio")
    table["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    table["failed_frac"] = (run.failed / run.attempted, "ratio")
    # what the scaling started from
    wall_ms = [1e3 * statistics.median(times) for times in run.latencies if times]
    table[f"wall_{op}_ms_p50"] = (statistics.median(wall_ms), "ms")
    table["calibration_ms"] = (1e3 * statistics.median(run.kernel_times), "ms")
    return table


def layer_metrics(wl, run, counts, breakdown, units, overhead):
    """Per-layer metrics per target (plan, eval) or per snapshot (export)."""

    def n(key):
        return counts.get(key, 0) / units

    def ms(key):
        return 1e3 * breakdown.get(key, 0.0) / units

    toy = wl.model_layer == "toy"
    wire = wl.model_layer == "wire"
    calls = sum(n(f"model.{op}_calls") for op in MODEL_OPS)
    m = {}
    for op in MODEL_OPS:
        m[f"toy.{op}_calls"] = n(f"model.{op}_calls") if toy else 0.0
        m[f"toy.{op}_ms"] = ms(f"time:toy.{op}")
    for key in ("roundtrips", "bytes_out", "bytes_in", "timeouts"):
        m[f"wire.{key}"] = n(f"wire.{key}")
    m["wire.wait_ms"] = ms("time:wire.wait")
    m["wire.client_ms"] = ms("layer:wire") - ms("time:wire.wait")
    m["wire.retries"] = n("wire.roundtrips") - calls if wire else 0.0
    m["wire.errors"] = n("model.errors") if wire else 0.0
    m["smiles.normalize_calls"] = n("smiles.normalize_calls")
    m["smiles.normalize_ms"] = ms("time:smiles.normalize")
    for key in ("nodes", "candidates", "deferrals", "arcs_attached"):
        m[f"expand.{key}"] = n(f"expand.{key}")
    for outcome in FILTER_OUTCOMES:
        m[f"expand.filter_{outcome}"] = n(f"expand.filter_{outcome}")
    m["expand.accepted"] = m["expand.filter_auto"] + m["expand.filter_selective"]
    m["expand.accept_ratio"] = (
        m["expand.accepted"] / m["expand.candidates"] if m["expand.candidates"] else 0.0
    )
    m["expand.ms"] = ms("time:expand.node")
    m["expand.cluster_ms"] = ms("time:expand.cluster")
    m["graph.attach_calls"] = n("graph.attach_calls")
    m["graph.cycle_rejections"] = n("graph.cycle_rejections")
    m["graph.nodes_per_target"] = n("graph.nodes")
    m["graph.arcs_per_target"] = n("graph.arcs")
    m["graph.attach_ms"] = ms("time:graph.attach")
    m["graph.load_ms"] = ms("time:graph.load")
    m["graph.dot_ms"] = ms("time:graph.dot")
    m["search.phases"] = n("search.phases")
    m["search.forked"] = n("search.forked")
    # each pathway kept after pruning is checked once, and so is the root
    kept = max(n("search.checked") - 1.0, 0.0)
    m["search.pruned"] = max(m["search.forked"] - kept, 0.0)
    m["search.simplicity_calls"] = breakdown.get("calls:search.simplicity", 0) / units
    m["search.simplicity_ms"] = ms("time:search.simplicity")
    m["metrics.evaluate_target_self_ms"] = ms("self:metrics.evaluate_target")
    m["metrics.aggregate_ms"] = ms("self:metrics.evaluate")
    m["stock.load_ms"] = 1e3 * statistics.median(run.stock_load_times)
    m["stock.lookups"] = n("stock.lookups")
    m["cli.route_json_ms"] = ms("time:cli.route_json")
    for layer in ("toy", "wire", "smiles", "expand", "graph", "search", "metrics", "cli"):
        m[f"{layer}.self_ms"] = ms(f"layer:{layer}")
    m["unattributed_ms"] = ms("layer:op")
    m["op_ms"] = ms("time:op")
    m["model_calls_per_target"] = calls
    m["roundtrips_per_target"] = n("wire.roundtrips")
    m["solved_frac"] = n("solved")
    m["failed_frac"] = run.failed / run.attempted
    m["trace_overhead"] = overhead
    return m


def measure(wl, tracer, seconds: float, trace: bool):
    """The timed phase. Returns the run and, if traced, what the traced passes saw."""
    run = Run(wl, tracer)
    op = tracer.wrap("op", wl.op)
    run.one_pass(op)
    run.counts_first = Counter(run.counts)
    if not trace:
        while run.fits_another_pass(seconds, MIN_PASSES):
            run.one_pass(op)
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # set up as often again as it takes to have MIN_SETUPS set-up times
        while len(run.setup_times) < MIN_SETUPS:
            wl.close(run.set_up())
        return run, None

    # alternate traced and untraced passes, so both see the same machine
    counts = Counter()
    traced_passes = 0
    while traced_passes == 0 or run.fits_another_pass(seconds, 0):
        before = Counter(run.counts)
        run.one_pass(op, traced=True)
        counts += run.counts - before
        traced_passes += 1
        if run.fits_another_pass(seconds, 0):
            run.one_pass(op)
    breakdown = tracer.breakdown()
    check_op_spans(breakdown, run.traced_ops, run.traced_latency)
    tracer.write(wl.work / "spans.jsonl")
    untraced = [statistics.median(times[0::2]) for times in run.scaled if len(times) > 1]
    traced = [statistics.median(times[1::2]) for times in run.scaled if len(times) > 1]
    return run, {
        "counts": counts,
        "breakdown": breakdown,
        "units": traced_passes * sum(wl.units(item) for item in wl.items),
        # median over items of the traced time over the untraced one
        "overhead": statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
    }


def check_op_spans(breakdown, ops: int, latency_s: float) -> None:
    """The op spans must be the traced ops and last as long as they were measured.

    The wrapper that records an op span runs inside the measured latency,
    so the spans may fall short of it by that wrapper's cost, which must
    stay below SPAN_TOLERANCE of it.
    """
    if breakdown.get("calls:op", 0) != ops:
        raise AssertionError(f"{breakdown.get('calls:op', 0)} op spans for {ops} traced ops")
    spans_s = breakdown["time:op"]
    if not 0.0 <= latency_s - spans_s <= SPAN_TOLERANCE * latency_s:
        raise AssertionError(
            f"op spans last {spans_s:.6f} s, the traced ops measured {latency_s:.6f} s"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "retroroute" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the mock-serve child of plan-wire imports the package from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    from instrument import Tracer
    from workloads import WORKLOADS

    # One CPU for everything: the threads started from here and the model
    # process inherit it (see the module docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](WORK / args.workload, args.seed)
    run, traced = measure(wl, Tracer(), args.seconds, bool(args.trace))
    run.check_outputs()

    if traced is None:
        values = end_to_end(wl, run)
        spec = END_TO_END
        table = workload_table(wl, run, values)
    else:
        values = layer_metrics(wl, run, **traced)
        spec = PER_LAYER
        table = {name: (values[name], unit) for name, unit in spec}
    if set(values) != {name for name, _ in spec}:
        raise AssertionError(f"metric names drifted: {sorted(set(values) ^ {n for n, _ in spec})}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {run.attempted} ops in "
          f"{run.passes} passes, {run.elapsed:.2f} s timed, {run.failed} failed")
    for name, (value, unit) in table.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

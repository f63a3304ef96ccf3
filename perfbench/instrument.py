"""Counters and spans installed from the benchmark around the package's calls.

Counting proxies for the model client and its wire transport are always
on; they add one Python call per model op. Spans are recorded only in the
traced run. There the normalizer and the stock get counting proxies too,
and the benchmark replaces a few module-level functions of the package (and
`HyperGraph.attach_arc`) with wrappers for the duration of the traced ops,
then restores them.

A span is (name, start, end, parent index, op id). The layer of a span is
the part of its name before the first dot; spans named "op" are the root
of each op. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, List

from retroroute import expand, metrics, search
from retroroute.errors import CycleRejected, ModelError, ModelTimeout
from retroroute.graph import HyperGraph
from retroroute.models import ChemModels
from retroroute.smiles import Normalizer

LAYERS = ("toy", "wire", "smiles", "expand", "graph", "search", "metrics", "cli")


class Tracer:
    """In-memory span recorder for one thread of ops.

    Spans are kept column by column in lists of numbers and names, which the
    garbage collector does not scan, so a growing trace does not slow the
    ops it measures.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []
        self.op = -1
        self.enabled = False

    def wrap(self, name: str, fn):
        """`fn` recording a span per call while the tracer is enabled."""
        names, starts, ends, parents, ops = (
            self.names, self.starts, self.ends, self.parents, self.ops
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like the span columns."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def breakdown(self) -> Dict[str, float]:
        """Sums over all spans, in seconds.

        Keys: "time:<name>" (duration), "self:<name>" (self time),
        "calls:<name>" and "layer:<layer>" (self time of the layer; the
        layer of the op spans is the unattributed remainder). Checks that
        every span lies inside an op span and that the layers' self times
        add up to the op time.
        """
        for name, parent in zip(self.names, self.parents):
            if (parent < 0) != (name == "op"):
                raise AssertionError(f"span {name} is recorded outside an op")
        sums: Dict[str, float] = defaultdict(float)
        spans = zip(self.names, self.starts, self.ends, self.self_times())
        for name, start, end, self_s in spans:
            sums[f"time:{name}"] += end - start
            sums[f"self:{name}"] += self_s
            sums[f"calls:{name}"] += 1
            sums[f"layer:{name.split('.', 1)[0]}"] += self_s
        op_time = sums["time:op"]
        attributed = sum(sums[f"layer:{layer}"] for layer in LAYERS + ("op",))
        if abs(attributed - op_time) > 1e-6 * max(op_time, 1.0):
            raise AssertionError(
                f"layer self times add up to {attributed:.6f} s, op time is {op_time:.6f} s"
            )
        return sums

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(span) + "\n")


class CountingModels(ChemModels):
    """Counts model op calls and model errors, then delegates."""

    def __init__(self, inner: ChemModels, counts: Counter, tracer: Tracer, layer: str):
        self.inner = inner
        for op, method in _METHODS.items():
            counted = _counted(counts, op, getattr(inner, method))
            setattr(self, method, tracer.wrap(f"{layer}.{op}", counted))


_METHODS = {
    "retro": "retro_predict",
    "score": "score_reaction",
    "forward": "forward_predict",
    "classify": "classify",
}


def _counted(counts: Counter, op: str, fn):
    key = f"model.{op}_calls"

    def counted(*args):
        counts[key] += 1
        try:
            return fn(*args)
        except ModelError:
            counts["model.errors"] += 1
            raise

    return counted


class CountingTransport:
    """Counts wire round-trips, bytes and transport failures, then delegates."""

    def __init__(self, inner, counts: Counter, tracer: Tracer):
        self.inner = inner
        self.counts = counts
        self.call = tracer.wrap("wire.wait", self._call)

    def _call(self, line: str, req_id: str, timeout: float) -> str:
        counts = self.counts
        counts["wire.roundtrips"] += 1
        counts["wire.bytes_out"] += len(line) + 1
        try:
            reply = self.inner.call(line, req_id, timeout)
        except ModelTimeout:
            counts["wire.timeouts"] += 1
            raise
        counts["wire.bytes_in"] += len(reply) + 1
        return reply

    def close(self) -> None:
        self.inner.close()


class CountingNormalizer(Normalizer):
    def __init__(self, inner: Normalizer, counts: Counter, tracer: Tracer):
        self.inner = inner
        self.counts = counts
        self.normalize = tracer.wrap("smiles.normalize", self._normalize)

    def _normalize(self, s: str) -> str:
        self.counts["smiles.normalize_calls"] += 1
        return self.inner.normalize(s)


class CountingStock:
    """The one method of a stock set the planner calls, counted."""

    def __init__(self, inner, counts: Counter):
        self.inner = inner
        self.counts = counts

    def contains(self, m: str) -> bool:
        self.counts["stock.lookups"] += 1
        return self.inner.contains(m)


@contextlib.contextmanager
def engine_spans(tracer: Tracer, counts: Counter) -> Iterator[None]:
    """Wrap the package's inner calls for the duration of the block."""
    originals = [
        (search, "expand_node"),
        (search, "simplicity"),
        (search, "fork_pathway"),
        (search, "terminate_check"),
        (expand, "cluster_candidates"),
        (expand, "filter_candidate"),
        (metrics, "evaluate_target"),
        (HyperGraph, "attach_arc"),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name in originals]
    expand_span = tracer.wrap("expand.node", search.expand_node)
    attach_span = tracer.wrap("graph.attach", HyperGraph.attach_arc)
    filter_fn = expand.filter_candidate
    fork_fn = search.fork_pathway
    check_fn = search.terminate_check

    def expand_node(*args, **kwargs):
        attached = expand_span(*args, **kwargs)
        counts["expand.nodes"] += 1
        counts["expand.arcs_attached"] += len(attached)
        return attached

    def attach_arc(*args, **kwargs):
        counts["graph.attach_calls"] += 1
        try:
            return attach_span(*args, **kwargs)
        except CycleRejected:
            counts["graph.cycle_rejections"] += 1
            raise

    def filter_candidate(*args, **kwargs):
        verdict = filter_fn(*args, **kwargs)
        counts["expand.candidates"] += 1
        counts[f"expand.filter_{verdict.outcome}"] += 1
        return verdict

    def fork_pathway(*args, **kwargs):
        counts["search.forked"] += 1
        return fork_fn(*args, **kwargs)

    def terminate_check(*args, **kwargs):
        counts["search.checked"] += 1
        return check_fn(*args, **kwargs)

    search.expand_node = expand_node
    search.simplicity = tracer.wrap("search.simplicity", search.simplicity)
    search.fork_pathway = fork_pathway
    search.terminate_check = terminate_check
    expand.cluster_candidates = tracer.wrap("expand.cluster", expand.cluster_candidates)
    expand.filter_candidate = filter_candidate
    metrics.evaluate_target = tracer.wrap("metrics.evaluate_target", metrics.evaluate_target)
    HyperGraph.attach_arc = attach_arc
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)

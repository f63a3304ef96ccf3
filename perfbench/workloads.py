"""The three benchmark workloads.

Each workload generates its inputs from the seed, sets up the package the
way the CLI does, runs one op per item and checks the op outputs against
the generator's ground truth. Ops drive the package only through the
entry points the CLI uses: `ModelManifest.load`, `build_models`,
`load_stocks`, `beam_search`, `route_to_json`, `evaluate`,
`HyperGraph.loads` and `HyperGraph.to_dot`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

import chemgen
import outcheck
from instrument import (
    CountingModels,
    CountingNormalizer,
    CountingStock,
    CountingTransport,
    Tracer,
    engine_spans,
)
from retroroute.cli import route_to_json
from retroroute.graph import HyperGraph
from retroroute.metrics import evaluate
from retroroute.models import ModelManifest
from retroroute.search import HeavyTokenScorer, SearchConfig, beam_search
from retroroute.smiles import ToyNormalizer
from retroroute.stock import load_stocks
from retroroute.wire import build_models

VERIFY_TARGETS = 25


@dataclass
class Session:
    """What one set-up produced; the timed ops use it."""

    tracer: Tracer
    counts: Counter
    models: Any = None
    client: Any = None
    normalizer: Any = None
    stock: Any = None
    stock_load_s: float = 0.0
    scorer: Any = None
    texts: Optional[List[str]] = None
    # package entry points, wrapped so the traced run records their spans
    beam: Any = None
    route_json: Any = None
    evaluate: Any = None
    load: Any = None
    dot: Any = None


class Workload:
    name = ""
    model_layer = ""  # "toy" or "wire": the layer the model calls belong to

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.items: List[Any] = []

    def setup(self, tracer: Tracer, counts: Counter) -> Session:
        """A fresh session whose spans go to `tracer` and counts to `counts`."""
        raise NotImplementedError

    def op(self, s: Session, item) -> Tuple[str, Any]:
        """Run one op; returns its output text and what `tally` reads."""
        raise NotImplementedError

    def tally(self, counts: Counter, item, info) -> None:
        """Count hardware-independent facts of one op's result (untimed)."""

    def check(self, item, text: str) -> List[str]:
        raise NotImplementedError

    def verify(self, texts: List[str]) -> List[List[str]]:
        """Checks that need more than one op output; problems per item."""
        return [[] for _ in texts]

    def units(self, item) -> int:
        """Targets (plan, eval) or snapshots (export) in one op."""
        return 1

    def throughput_units(self, item) -> int:
        """Targets (plan, eval) or snapshot nodes (export) in one op."""
        return self.units(item)

    def close(self, s: Session) -> None:
        close = getattr(s.client, "close", None)
        if close is not None:
            close()

    @contextlib.contextmanager
    def traced(self, s: Session) -> Iterator[None]:
        """Count and span every layer while the block runs."""
        plain = (s.normalizer, s.stock)
        if s.normalizer is not None:
            s.normalizer = CountingNormalizer(s.normalizer, s.counts, s.tracer)
        if s.stock is not None:
            s.stock = CountingStock(s.stock, s.counts)
        s.tracer.enabled = True
        try:
            with engine_spans(s.tracer, s.counts):
                yield
        finally:
            s.tracer.enabled = False
            s.normalizer, s.stock = plain


# --- planning ---------------------------------------------------------------


class PlanWire(Workload):
    """Plan each target with the models behind `retroroute mock-serve`.

    An op runs `beam_search` at the default `SearchConfig`, then
    `route_to_json` on each pathway and `json.dumps` as `plan` writes it.
    The same op on an in-process session of the toy oracle is the
    reference the wire routes must equal byte for byte.
    """

    name = "plan-wire"
    model_layer = "wire"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.chem = chemgen.generate_chemistry(seed)
        self.paths = self.chem.write(work)
        self.items = self.chem.plan_targets
        self.stock_set = set(self.chem.stock)
        self.cfg = SearchConfig()
        self.wire_manifest = work / "wire_manifest.json"
        command = [
            sys.executable, "-m", "retroroute.cli", "mock-serve",
            str(self.paths["templates"]),
        ]
        self.wire_manifest.write_text(
            json.dumps({"transport": "subprocess", "command": command}), "utf-8"
        )

    def _session(self, manifest_path: Path, layer: str, tracer: Tracer, counts: Counter):
        client = build_models(ModelManifest.load(manifest_path))
        normalizer = ToyNormalizer()
        start = time.perf_counter()
        stock = load_stocks([self.paths["stock"]], normalizer)
        stock_load_s = time.perf_counter() - start
        return Session(
            tracer=tracer,
            counts=counts,
            models=CountingModels(client, counts, tracer, layer),
            client=client,
            normalizer=normalizer,
            stock=stock,
            stock_load_s=stock_load_s,
            scorer=HeavyTokenScorer(),
            beam=tracer.wrap("search.beam", beam_search),
            route_json=tracer.wrap("cli.route_json", route_to_json),
        )

    def setup(self, tracer: Tracer, counts: Counter) -> Session:
        s = self._session(self.wire_manifest, "wire", tracer, counts)
        # the child starts on the first call; set-up ends with its first reply
        s.client.retro_predict(self.chem.stock[0], 1)
        s.client.transport = CountingTransport(s.client.transport, counts, tracer)
        return s

    def op(self, s: Session, target: str):
        outcome = s.beam(
            target, self.cfg, s.models, s.stock, normalizer=s.normalizer, scorer=s.scorer
        )
        routes = [s.route_json(outcome.graph, p) for p in outcome.pathways]
        return json.dumps({"routes": routes}, indent=2, sort_keys=True), outcome

    def tally(self, counts: Counter, target: str, outcome) -> None:
        g = outcome.graph
        counts["graph.nodes"] += len(g.nodes)
        counts["graph.arcs"] += len(g.arcs)
        counts["expand.deferrals"] += sum(n.deferrals for n in g.nodes.values())
        # a pathway terminated in phase k has k-1 steps; the last phase
        # terminates every open pathway
        counts["search.phases"] += 1 + max(p.steps for p in outcome.pathways)
        counts["solved"] += 1 if outcome.solved else 0

    def check(self, target: str, text: str) -> List[str]:
        routes = json.loads(text)["routes"]
        return outcheck.check_routes(
            target, routes, self.chem.truth, self.stock_set, self.chem.dead
        )

    def verify(self, texts: List[str]) -> List[List[str]]:
        """Routes over the wire must equal in-process routes byte for byte.

        Checked on the first VERIFY_TARGETS targets, to keep the run short.
        """
        s = self._session(self.paths["toy_manifest"], "toy", Tracer(), Counter())
        problems = []
        for i, (target, text) in enumerate(zip(self.items, texts)):
            reference = self.op(s, target)[0] if i < VERIFY_TARGETS else text
            problems.append(
                [] if reference == text else [f"{target}: wire routes differ from in-process"]
            )
        return problems


# --- evaluation -------------------------------------------------------------


class EvalToy(Workload):
    """`evaluate` over each chunk of the test set, in-process."""

    name = "eval-toy"
    model_layer = "toy"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.chem = chemgen.generate_chemistry(seed)
        self.paths = self.chem.write(work)
        self.items = self.chem.eval_chunks

    def setup(self, tracer: Tracer, counts: Counter) -> Session:
        client = build_models(ModelManifest.load(self.paths["toy_manifest"]))
        return Session(
            tracer=tracer,
            counts=counts,
            models=CountingModels(client, counts, tracer, "toy"),
            client=client,
            normalizer=ToyNormalizer(),
            evaluate=tracer.wrap("metrics.evaluate", evaluate),
        )

    def op(self, s: Session, chunk: List[str]):
        report, _ = s.evaluate(chunk, s.models, s.normalizer)
        return json.dumps(report.to_json(), sort_keys=True), None

    def check(self, chunk: List[str], text: str) -> List[str]:
        return outcheck.check_eval_report(chunk, json.loads(text), self.chem.truth)

    def units(self, chunk: List[str]) -> int:
        return len(chunk)


# --- export -----------------------------------------------------------------


class ExportGraph(Workload):
    """Load each planner-shaped snapshot and render it to DOT."""

    name = "export-graph"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        work.mkdir(parents=True, exist_ok=True)
        self.paths = []
        self.expected = []
        self.sizes = []
        for i, snapshot in enumerate(chemgen.generate_snapshots(seed)):
            path = work / f"snapshot-{i}.json"
            path.write_text(json.dumps(snapshot, sort_keys=True), "utf-8")
            self.paths.append(path)
            self.expected.append(outcheck.dot_expectation(snapshot))
            self.sizes.append(len(snapshot["nodes"]))
        self.items = list(range(len(self.paths)))

    def setup(self, tracer: Tracer, counts: Counter) -> Session:
        return Session(
            tracer=tracer,
            counts=counts,
            texts=[path.read_text(encoding="utf-8") for path in self.paths],
            load=tracer.wrap("graph.load", HyperGraph.loads),
            dot=tracer.wrap("graph.dot", HyperGraph.to_dot),
        )

    def op(self, s: Session, index: int):
        graph = s.load(s.texts[index])
        return s.dot(graph), None

    def check(self, index: int, text: str) -> List[str]:
        return outcheck.check_dot(self.expected[index], text)

    def throughput_units(self, index: int) -> int:
        return self.sizes[index]


WORKLOADS = {w.name: w for w in (PlanWire, EvalToy, ExportGraph)}

"""Tests of the benchmark's generator and output checks.

Run with the package importable, e.g.
`PYTHONPATH=src python -m pytest perfbench`.
"""

import copy
import json
from pathlib import Path

import pytest

import chemgen
import outcheck
import run
from retroroute.cli import route_to_json
from retroroute.graph import HyperGraph
from retroroute.metrics import evaluate
from retroroute.search import SearchConfig, beam_search
from retroroute.smiles import ToyNormalizer, tokenize
from retroroute.stock import StockSet
from retroroute.toy import ToyOracle, load_templates


@pytest.fixture(scope="module")
def chem():
    return chemgen.generate_chemistry(7)


@pytest.fixture(scope="module")
def oracle(chem, tmp_path_factory):
    paths = chem.write(tmp_path_factory.mktemp("chem"))
    return ToyOracle(load_templates(paths["templates"]))


def test_chemistry_is_deterministic_per_seed(chem):
    again = chemgen.generate_chemistry(7)
    assert again.templates == chem.templates
    assert again.stock == chem.stock
    assert again.plan_targets == chem.plan_targets
    assert again.eval_chunks == chem.eval_chunks
    assert chemgen.generate_chemistry(8).templates != chem.templates


def test_chemistry_shape(chem):
    p = chem.params
    main = [t for t in chem.templates if t["rhs"] in chem.level]
    pairs = [tuple(t["lhs"]) for t in main]
    assert len(set(pairs)) == len(pairs) == p.levels * p.width * p.alts
    for name in chem.level:
        assert tokenize(name).join() == name
    assert not any(m in chem.dead for t in chem.templates for m in t["lhs"])
    regimes = {e["regime"] for entries in chem.truth.values() for e in entries}
    assert regimes == set(chemgen.REGIME_WEIGHTS)
    assert len(chem.plan_targets) == p.plan_targets
    assert sum(t in chem.dead for t in chem.plan_targets) == p.dead_targets
    assert not set(chem.plan_targets) & set(chem.stock)
    assert all(any(chem.level[m] == 0 for m in chunk) for chunk in chem.eval_chunks)


def test_snapshots_are_deterministic_acyclic_and_load():
    params = chemgen.SnapshotParams(sizes=(60, 90), per_size=2)
    snapshots = list(chemgen.generate_snapshots(3, params))
    assert snapshots == list(chemgen.generate_snapshots(3, params))
    assert sorted(len(s["nodes"]) for s in snapshots) == [60, 60, 90, 90]
    for snapshot in snapshots:
        assert all(p > a["product"] for a in snapshot["arcs"] for p in a["precursors"])
        graph = HyperGraph.loads(json.dumps(snapshot))
        assert len(graph.nodes) == len(snapshot["nodes"])
        assert len(graph.arcs) == len(snapshot["arcs"])


def _plan(chem, oracle, target):
    stock = StockSet(entries=frozenset(chem.stock))
    outcome = beam_search(target, SearchConfig(), oracle, stock, normalizer=ToyNormalizer())
    return [route_to_json(outcome.graph, p) for p in outcome.pathways]


def _route_problems(chem, target, routes):
    return outcheck.check_routes(target, routes, chem.truth, set(chem.stock), chem.dead)


def test_route_check_accepts_planned_routes_and_rejects_corruptions(chem, oracle):
    target = next(t for t in chem.plan_targets if t not in chem.dead)
    routes = _plan(chem, oracle, target)
    assert _route_problems(chem, target, routes) == []
    solved = next(r for r in routes if r["status"] == "solved")

    leaf = copy.deepcopy(solved)
    leaf["steps"][-1]["precursors"][0] = chem.plan_targets[0]
    assert _route_problems(chem, target, [leaf])

    likelihood = copy.deepcopy(solved)
    likelihood["steps"][0]["likelihood"] += 0.01
    assert _route_problems(chem, target, [likelihood])

    detached = copy.deepcopy(solved)
    detached["steps"] = detached["steps"][1:]
    detached["n_steps"] -= 1
    assert _route_problems(chem, target, [detached])

    assert _route_problems(chem, target, [dict(r, status="dead") for r in routes])
    dead = next(t for t in chem.plan_targets if t in chem.dead)
    assert _route_problems(chem, dead, _plan(chem, oracle, dead)) == []
    assert _route_problems(chem, dead, [solved])


def test_eval_check_matches_evaluate_and_rejects_corruptions(chem, oracle):
    chunk = chem.eval_chunks[0]
    report, _ = evaluate(chunk, oracle, ToyNormalizer())
    text = json.loads(json.dumps(report.to_json()))
    assert outcheck.check_eval_report(chunk, text, chem.truth) == []
    for key in ("round_trip_pct", "coverage_pct", "n_suggestions"):
        bad = dict(text)
        bad[key] += 1
        assert outcheck.check_eval_report(chunk, bad, chem.truth)


def test_dot_check_accepts_export_and_rejects_corruptions():
    snapshot = chemgen.generate_snapshot(5, 80)
    dot = HyperGraph.loads(json.dumps(snapshot)).to_dot()
    expected = outcheck.dot_expectation(snapshot)
    assert outcheck.check_dot(expected, dot) == []
    lines = dot.splitlines()
    for prefix in ("  n3 [", "  a2 [", "  a1 -> "):
        corrupted = "\n".join(line for line in lines if not line.startswith(prefix))
        assert outcheck.check_dot(expected, corrupted)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(emitted)


def test_span_checks_reject_spans_that_do_not_match_the_ops():
    from instrument import Tracer

    tracer = Tracer()
    tracer.enabled = True
    inner = tracer.wrap("toy.retro", lambda: None)
    op = tracer.wrap("op", inner)
    op()
    op()
    breakdown = tracer.breakdown()
    measured = breakdown["time:op"] * 1.001
    run.check_op_spans(breakdown, 2, measured)
    with pytest.raises(AssertionError):
        run.check_op_spans(breakdown, 3, measured)
    with pytest.raises(AssertionError):
        run.check_op_spans(breakdown, 2, 2 * measured)
    inner()  # a span recorded outside any op
    with pytest.raises(AssertionError):
        tracer.breakdown()

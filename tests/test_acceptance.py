"""Workflow-level acceptance checks, one test per numbered criterion.

Each test prints a single PASS line on success so the verbose run reads as
a checklist; the assertions themselves carry the tolerances.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from retroroute.errors import CycleRejected
from retroroute.expand import ExpansionConfig, filter_candidate
from retroroute.graph import HyperGraph
from retroroute.metrics import (
    EvalRecord,
    Suggestion,
    jsd,
    tally,
)
from retroroute.models import PrecursorSet, ReactionClass
from retroroute.search import (
    DEAD,
    MAX_STEPS,
    SOLVED,
    HeavyTokenScorer,
    SearchConfig,
    arc_score,
    beam_search,
    expand_node,
    simplicity,
)
from retroroute.smiles import (
    ToyNormalizer,
    bind_fragments,
    parse_fragment_groups,
    render_fragment_groups,
    split_units,
    tokenize,
)
from retroroute.toy import ToyOracle

from conftest import TOY_TEMPLATES, make_stock, make_templates, random_chemistry
from reference import (
    reference_add_arc,
    reference_closes_cycle,
    reference_enumerate,
    reference_expansion,
    reference_is_acyclic,
    reference_requires,
)
from test_expand import StubModels
from test_search import LazyBuilder


def step_shapes(graph, arcs):
    return tuple(sorted(
        (graph.nodes[graph.arcs[a].product].smiles,
         tuple(sorted(graph.nodes[x].smiles for x in graph.arcs[a].precursors)))
        for a in arcs
    ))


def ranked_groups(graph, pathways):
    """Pathways grouped by (rounded score, status); group order preserved.

    Within a score tie the relative order is an id-dependent detail, so each
    group is compared as a set of step shapes.
    """
    groups = []
    for p in pathways:
        key = (round(p[2], 9), p[3])
        shapes = step_shapes(graph, p[0])
        if groups and groups[-1][0] == key:
            groups[-1][1].add(shapes)
        else:
            groups.append((key, {shapes}))
    return groups


def test_criterion_1_single_step_matches_reference_implementation():
    rng = random.Random(2024)
    normalizer = ToyNormalizer()
    scorer = HeavyTokenScorer()
    cfg = ExpansionConfig()
    started = time.monotonic()
    n_targets = 0
    while n_targets < 200:
        molecules, templates = random_chemistry(
            rng, n_molecules=10, n_templates=10, max_lhs=3
        )
        oracle = ToyOracle(templates)
        for target in molecules:
            g = HyperGraph()
            g.get_or_insert_node(target, simplicity=simplicity(target, scorer))
            arcs = expand_node(g, g.root, cfg, oracle, normalizer, scorer, make_stock(()))
            engine = sorted(
                (tuple(sorted(g.nodes[p].smiles for p in g.arcs[a].precursors)),
                 round(g.arcs[a].forward_likelihood, 12))
                for a in arcs
            )
            ref = sorted(
                (tuple(sorted(r.precursors.molecules)), round(r.likelihood, 12))
                for r in reference_expansion(target, oracle, normalizer)
            )
            assert engine == ref, f"mismatch for target {target}"
            n_targets += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: {n_targets} targets matched the reference "
          f"in {elapsed:.1f}s")


def test_criterion_2_filter_boundary_table():
    cfg = ExpansionConfig()

    def verdict(score, forward):
        candidate = PrecursorSet(("A", "B"))
        models = StubModels(
            scores={(candidate.key(), "T"): score},
            forwards={candidate.key(): forward},
        )
        return filter_candidate("T", candidate, cfg, models, ToyNormalizer())

    assert verdict(0.7, []).outcome == "auto"
    assert verdict(0.5, [("T", 0.55), ("X", 0.30)]).outcome == "selective"
    assert not verdict(0.5, [("T", 0.45), ("X", 0.30)]).accepted
    # fuzzed exact-boundary cases: a margin of exactly the gap must reject
    rng = random.Random(9)
    for _ in range(200):
        runner_up = round(rng.uniform(0.0, 0.4), 3)
        top1 = cfg.selectivity_gap + runner_up
        assert not verdict(0.5, [("T", top1), ("X", runner_up)]).accepted
        assert verdict(0.5, [("T", top1 + 1e-9), ("X", runner_up)]).accepted
    print("\ncriterion 2 PASS: boundary table and 200 fuzzed exact-gap cases")


def test_criterion_3_scoring_identities():
    class Fixed:
        def __init__(self, value):
            self.value = value

        def sc(self, smiles):
            return self.value

    assert abs(simplicity("C", Fixed(1.0)) - 1.0) <= 1e-12
    assert abs(simplicity("C", Fixed(5.0)) - 0.0) <= 1e-12
    assert abs(arc_score(0.8, [0.9, 0.8], 0.6) - 0.96) <= 1e-12
    print("\ncriterion 3 PASS: simplicity endpoints and the 0.96 worked example")


def test_criterion_4_beam_search_optimality_at_saturation():
    rng = random.Random(77)
    n_instances = 0
    rank1_hits = 0
    while n_instances < 100:
        molecules, templates = random_chemistry(
            rng, n_molecules=8, n_templates=8, max_lhs=3
        )
        oracle = ToyOracle(templates)
        stock = make_stock(rng.sample(molecules, rng.randint(1, 4)))
        target = rng.choice(molecules)

        builder = LazyBuilder(target, oracle, stock)
        exhaustive = reference_enumerate(builder, max_steps=4)
        if not exhaustive or len(exhaustive) > 500:
            continue
        n_instances += 1

        saturated = beam_search(
            target, SearchConfig(n_beams=500, max_steps=4), oracle, stock, ToyNormalizer()
        )
        got = ranked_groups(
            saturated.graph,
            [(p.arcs, p.frontier, p.cumulative_score, p.status)
             for p in saturated.pathways],
        )
        want = ranked_groups(
            builder.graph,
            [(r.arcs, r.frontier, r.score, r.status) for r in exhaustive],
        )
        assert got == want, f"full-ranking mismatch for target {target}"

        narrow = beam_search(
            target, SearchConfig(n_beams=3, max_steps=4), oracle, stock, ToyNormalizer()
        )
        if narrow.pathways:
            rank1 = step_shapes(narrow.graph, narrow.pathways[0].arcs)
            top3 = {
                step_shapes(builder.graph, r.arcs) for r in exhaustive[:3]
            }
            if rank1 in top3:
                rank1_hits += 1
        else:
            rank1_hits += 1  # nothing found by either side
    assert rank1_hits >= 90, f"only {rank1_hits}/100 rank-1 hits"
    print(f"\ncriterion 4 PASS: 100 saturated rankings exact; "
          f"narrow-beam rank-1 in exhaustive top-3 on {rank1_hits}/100")


def test_criterion_5_acyclicity_over_10k_attach_operations():
    rng = random.Random(4242)
    g = HyperGraph()
    nodes = [g.get_or_insert_node(f"[M{i}]") for i in range(60)]
    cls = ReactionClass.parse("1.1.1")
    # the oracle sees only raw (product, precursors) pairs of accepted arcs
    adjacency = {}
    checked = 0
    for _ in range(10000):
        product = rng.choice(nodes)
        precursors = rng.sample([n for n in nodes if n != product],
                                rng.randint(1, 3))
        if rng.random() < 0.25:
            required = reference_requires(adjacency, product)
            deps = [n for n in nodes if n in required]
            if deps:
                product, precursors = rng.choice(deps), [product]
        expected = reference_closes_cycle(adjacency, product, precursors)
        arcs_before = len(g.arcs)
        if expected:
            with pytest.raises(CycleRejected):
                g.attach_arc(product, precursors, 1.0, cls.code, 1.0)
            assert len(g.arcs) == arcs_before
        else:
            arc_id = g.attach_arc(product, precursors, 1.0, cls.code, 1.0)
            attached = g.arcs[arc_id]
            assert (attached.product, attached.precursors) == (product, tuple(precursors))
            assert len(g.arcs) == arcs_before + 1
            reference_add_arc(adjacency, product, precursors)
        assert reference_is_acyclic(adjacency)
        checked += 1
    assert checked == 10000
    print(f"\ncriterion 5 PASS: {checked} attach decisions matched the "
          f"closure oracle; graph stayed acyclic ({len(g.arcs)} arcs)")


def make_planted_records(rng):
    classes = ["1.1.1", "2.1.1", "3.1.1", "4.1.1", "5.2.1", "6.1.1"]
    records = []
    for t in range(20):
        suggestions = []
        for _ in range(rng.randint(1, 6)):
            syntactic = rng.random() > 0.1
            valid = syntactic and rng.random() > 0.35
            suggestions.append(Suggestion(
                precursors=PrecursorSet((f"[A{t}]", "[B]")),
                syntactically_valid=syntactic,
                valid=valid,
                forward_likelihood=(
                    round(rng.uniform(0.05, 1.0), 3) if syntactic else None
                ),
                reaction_class=(
                    ReactionClass.parse(rng.choice(classes)) if syntactic else None
                ),
            ))
        records.append(EvalRecord(f"[T{t}]", tuple(suggestions)))
    return records


def test_criterion_6_metrics_match_independent_recomputation():
    rng = random.Random(31)
    records = make_planted_records(rng)

    n_sugg = n_valid = n_invalid = covered = 0
    diversities = []
    for r in records:
        valid_classes = set()
        for s in r.suggestions:
            n_sugg += 1
            if not s.syntactically_valid:
                n_invalid += 1
            if s.valid:
                n_valid += 1
                valid_classes.add(s.reaction_class.superclass)
        if valid_classes:
            covered += 1
            diversities.append(len(valid_classes))

    report = tally(records)
    assert report.round_trip_pct == 100.0 * n_valid / n_sugg
    assert report.coverage_pct == 100.0 * covered / 20
    assert (report.class_diversity, report.class_diversity_defined) == (
        sum(diversities) / len(diversities), True)
    assert report.invalid_smiles_pct == 100.0 * n_invalid / n_sugg

    # JSD against a brute-force mean-KL evaluation of the same histograms
    dists = report.histograms
    value, inverse, participating = jsd(dists)
    probs = [[c / d.count for c in d.counts] for d in dists
             if d.count > 0 and d.superclass != 0]
    mixture = np.asarray(probs).sum(axis=0) / len(probs)
    brute = 0.0
    for p in probs:
        for pi, mi in zip(p, mixture):
            if pi > 0:
                brute += pi * math.log(pi / mi)
    brute /= len(probs)
    assert abs(value - brute) <= 1e-9

    from test_metrics import dist
    same = [3, 1, 0, 2]
    identical, inv_identical, _ = jsd([dist(1, same), dist(2, same)])
    assert identical == 0.0 and math.isinf(inv_identical)
    disjoint, _, _ = jsd([dist(1, [4, 0]), dist(2, [0, 7])])
    assert abs(disjoint - math.log(2)) <= 1e-9
    print(f"\ncriterion 6 PASS: 20-target fixture exact; JSD vs brute force "
          f"|Δ|≤1e-9 over classes {participating}")


def test_criterion_7_parser_round_trips():
    rng = random.Random(404)
    alphabet = ["C", "N", "O", "S", "Cl", "Br", "c", "n", "[NH3+]", "[13C]",
                "(", ")", "=", "#", "1", "2", "%10", ".", "~", "/", "\\", "@"]
    for _ in range(10000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        assert tokenize(s).join() == s

    letters = ["C", "N", "O", "S", "P", "I", "F"]
    for _ in range(10000):
        n = rng.randint(1, 7)
        fragments = [rng.choice(letters) for _ in range(n)]
        body = ".".join(fragments)
        indices = list(range(n))
        rng.shuffle(indices)
        groups = []
        while len(indices) >= 2 and rng.random() < 0.5:
            k = rng.randint(2, min(3, len(indices)))
            groups.append(sorted(indices.pop() for _ in range(k)))
        if groups:
            rendered = render_fragment_groups(body, groups)
            assert parse_fragment_groups(rendered) == (body, groups)
        rebuilt = sorted(
            f for unit in split_units(bind_fragments(body, groups))
            for f in unit.split("~")
        )
        assert rebuilt == sorted(fragments)

    assert parse_fragment_groups("C.N.O.S.P.I |f:1.2,4.5|")[1] == [[1, 2], [4, 5]]
    print("\ncriterion 7 PASS: 10k tokenize and 10k annotation round-trips")


def test_criterion_8_plan_runs_byte_identical(toy_manifest, templates_file, stock_file,
                                              tmp_path):
    from retroroute.cli import main

    wire_manifest = tmp_path / "wire.json"
    wire_manifest.write_text(json.dumps({
        "transport": "subprocess", "timeout": 30,
        "command": [sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates_file)],
    }), "utf-8")

    def run(name, manifest):
        out = tmp_path / name
        code = main([
            "plan", "CNOS", "--models", str(manifest),
            "--stock", str(stock_file), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text("utf-8"))
        del payload["metadata"]
        return json.dumps(payload, sort_keys=True).encode()

    toy_1 = run("a.json", toy_manifest)
    toy_2 = run("b.json", toy_manifest)
    wire = run("c.json", wire_manifest)
    assert toy_1 == toy_2 == wire
    print("\ncriterion 8 PASS: route JSON byte-identical across runs and "
          "between the in-process and subprocess models")


def test_plan_over_http_matches_in_process(toy_manifest, templates_file, stock_file, tmp_path):
    from retroroute.cli import main

    def run(name, manifest):
        out = tmp_path / name
        assert main(["plan", "CNOS", "--models", str(manifest),
                     "--stock", str(stock_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text("utf-8"))
        del payload["metadata"]
        return json.dumps(payload, sort_keys=True).encode()

    command = [sys.executable, "-u", "-m", "retroroute.cli", "mock-serve", str(templates_file),
               "--transport", "http"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as server:
        try:
            # "serving N templates on http://127.0.0.1:PORT/"
            endpoint = server.stdout.readline().split()[-1]
            http_manifest = tmp_path / "http.json"
            http_manifest.write_text(json.dumps(
                {"transport": "http", "endpoint": endpoint, "timeout": 30}), "utf-8")
            over_http = run("http_routes.json", http_manifest)
        finally:
            server.terminate()
    assert over_http == run("toy_routes.json", toy_manifest)


def test_eval_runs_byte_identical_across_transports(tmp_path):
    """Criterion 8 for `eval`: the report, audit and histogram CSV over a mock-serve child
    equal the in-process ones byte for byte, on a random chemistry with reagents."""
    from retroroute.cli import main

    molecules, templates = random_chemistry(random.Random(8), n_molecules=10, n_templates=16)
    assert any(t.reagents for t in templates)
    templates_path = tmp_path / "templates.json"
    templates_path.write_text(json.dumps([
        {"lhs": list(t.reactants), "rhs": t.product, "weight": t.weight,
         "class": t.reaction_class.code, "reagents": list(t.reagents)} for t in templates
    ]), "utf-8")
    targets = tmp_path / "targets.txt"
    targets.write_text("\n".join(molecules) + "\n", "utf-8")
    manifests = {
        "toy": {"transport": "toy", "templates_path": str(templates_path)},
        "wire": {"transport": "subprocess", "timeout": 30, "command": [
            sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates_path)]},
    }

    def run(name, beams):
        manifest = tmp_path / f"{name}.json"
        manifest.write_text(json.dumps(manifests[name]), "utf-8")
        outputs = [tmp_path / f"{name}-{beams}.{kind}" for kind in ("json", "jsonl", "csv")]
        assert main(["eval", "--test", str(targets), "--models", str(manifest), "--beams", beams,
                     "--report", str(outputs[0]), "--audit", str(outputs[1]),
                     "--hist-csv", str(outputs[2])]) == 0
        return [path.read_bytes() for path in outputs]

    for beams in ("1", "10"):
        in_process = run("toy", beams)
        assert json.loads(in_process[0])["n_suggestions"] > 0
        assert run("wire", beams) == in_process


def test_criterion_9_end_to_end_stock_flip():
    oracle = ToyOracle(make_templates(TOY_TEMPLATES))
    full = beam_search(
        "CNOS", SearchConfig(), oracle, make_stock(("C", "N", "O", "S")), ToyNormalizer()
    )
    solved = full.solved
    assert len(solved) == 1
    assert len(solved[0].arcs) == 3
    products = {full.graph.nodes[full.graph.arcs[a].product].smiles
                for a in solved[0].arcs}
    assert products == {"CNOS", "CNO", "CN"}

    reduced = beam_search(
        "CNOS", SearchConfig(), oracle, make_stock(("C", "N", "O")), ToyNormalizer()
    )
    assert not reduced.solved
    assert all(p.status in (DEAD, MAX_STEPS) for p in reduced.pathways)
    assert any(p.status == DEAD for p in reduced.pathways)
    print("\ncriterion 9 PASS: unique 3-step solved route; removing one stock "
          "molecule leaves only dead/step-limited pathways")

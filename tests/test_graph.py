import json
import random
import re

import pytest

from retroroute.errors import CycleRejected
from retroroute.graph import HyperGraph
from retroroute.models import ReactionClass
from retroroute.search import SearchConfig, beam_search
from retroroute.smiles import ToyNormalizer
from retroroute.toy import ToyOracle

from conftest import STOCK_MOLECULES, TOY_TEMPLATES, make_stock, make_templates, random_chemistry
from reference import (
    reference_add_arc,
    reference_closes_cycle,
    reference_is_acyclic,
    reference_requires,
)

CLS = ReactionClass.parse("1.1.1")


def arc(g, product, precursors, likelihood=1.0, score=1.0, reagents=()):
    return g.attach_arc(
        product=product,
        precursors=precursors,
        reagents=reagents,
        forward_likelihood=likelihood,
        class_code=CLS.code,
        arc_score=score,
    )


def build_chain():
    # CNOS <- {CN,OS}, CN <- {C,N}, OS <- {O}
    g = HyperGraph()
    ids = {s: g.get_or_insert_node(s) for s in ("CNOS", "CN", "OS", "C", "N", "O")}
    a1 = arc(g, ids["CNOS"], [ids["CN"], ids["OS"]])
    a2 = arc(g, ids["CN"], [ids["C"], ids["N"]])
    a3 = arc(g, ids["OS"], [ids["O"]])
    return g, ids, (a1, a2, a3)


def raw_adjacency(g):
    """The oracle's view of a graph: its arcs as raw (product, precursors) pairs."""
    adjacency = {}
    for a in g.arcs.values():
        reference_add_arc(adjacency, a.product, a.precursors)
    return adjacency


class TestNodes:
    def test_dedup(self):
        g = HyperGraph()
        assert g.get_or_insert_node("C") == g.get_or_insert_node("C")

    def test_distinct(self):
        g = HyperGraph()
        assert g.get_or_insert_node("C") != g.get_or_insert_node("N")

    def test_mass_insert_cardinality(self):
        g = HyperGraph()
        rng = random.Random(3)
        distinct = [f"[M{i}]" for i in range(1000)]
        for _ in range(10000):
            g.get_or_insert_node(rng.choice(distinct))
        assert len(g.nodes) == 1000

    def test_first_node_is_root(self):
        g = HyperGraph()
        root = g.get_or_insert_node("CNOS")
        assert g.root == root


class TestCycles:
    def test_simple_arc_accepted(self):
        g = HyperGraph()
        c, a, b = (g.get_or_insert_node(s) for s in ("CO", "C", "O"))
        arc(g, c, [a, b])
        assert reference_is_acyclic(raw_adjacency(g))

    def test_two_cycle_rejected(self):
        g = HyperGraph()
        c = g.get_or_insert_node("CO")
        a = g.get_or_insert_node("C")
        arc(g, c, [a])
        with pytest.raises(CycleRejected):
            arc(g, a, [c])
        assert raw_adjacency(g) == {c: {a}}

    def test_self_loop_rejected(self):
        # 0 <- {0} and 0 <- {1, 0} while no node has arcs: the product among its own
        # precursors is the whole cycle, which attaching and loading must both refuse
        for precursors in ([0], [1, 0]):
            g = HyperGraph()
            assert [g.get_or_insert_node(s) for s in ("CO", "C")] == [0, 1]
            with pytest.raises(CycleRejected):
                arc(g, 0, precursors)
            assert g.arcs == {}
            with pytest.raises(CycleRejected):
                HyperGraph.loads(TestSerialization.snapshot(["CO", "C"], [(0, precursors)]))

    def test_would_create_cycle_is_pure(self):
        g = HyperGraph()
        c = g.get_or_insert_node("CO")
        a = g.get_or_insert_node("C")
        o = g.get_or_insert_node("O")
        arc(g, c, [a])
        before = g.dumps()
        assert g.would_create_cycle(a, [c])
        assert not g.would_create_cycle(c, [o])
        assert g.dumps() == before

    def test_randomized_against_reachability_oracle(self):
        rng = random.Random(11)
        for trial in range(5):
            g = HyperGraph()
            nodes = [g.get_or_insert_node(f"[M{i}]") for i in range(30)]
            adjacency = {}
            for _ in range(250):
                product = rng.choice(nodes)
                k = rng.randint(1, 3)
                precursors = rng.sample([n for n in nodes if n != product], k)
                if rng.random() < 0.2:
                    # adversarial back-arc: aim at a node the product depends on
                    required = reference_requires(adjacency, product)
                    deps = [n for n in nodes if n in required]
                    if deps:
                        product, precursors = rng.choice(deps), [product]
                expected_cycle = reference_closes_cycle(adjacency, product, precursors)
                assert g.would_create_cycle(product, precursors) == expected_cycle
                if expected_cycle:
                    with pytest.raises(CycleRejected):
                        arc(g, product, precursors)
                else:
                    arc(g, product, precursors)
                    reference_add_arc(adjacency, product, precursors)
            for m in nodes:
                required = reference_requires(adjacency, m)
                for n in nodes:
                    assert g.would_create_cycle(n, [m]) == (n == m or n in required)
            assert raw_adjacency(g) == adjacency
            assert reference_is_acyclic(adjacency)


class TestSerialization:
    def test_roundtrip_identical_ids(self):
        g, _, _ = build_chain()
        g2 = HyperGraph.loads(g.dumps())
        assert g2.dumps() == g.dumps()
        assert g2.root == g.root
        assert set(g2.nodes) == set(g.nodes)
        assert set(g2.arcs) == set(g.arcs)
        for n in g.nodes:
            for m in g.nodes:
                assert g2.would_create_cycle(n, [m]) == g.would_create_cycle(n, [m])

    def test_loaded_graph_grows_with_dense_ids(self):
        g, ids, _ = build_chain()
        g2 = HyperGraph.loads(g.dumps())
        n_nodes, n_arcs = len(g2.nodes), len(g2.arcs)
        node = g2.get_or_insert_node("S")
        assert node == n_nodes and g2.get_or_insert_node("S") == node
        arc_id = arc(g2, ids["OS"], [ids["O"], node])
        assert arc_id == n_arcs and g2.arcs_by_product[ids["OS"]][-1] == arc_id
        g3 = HyperGraph.loads(g2.dumps())
        assert g3.dumps() == g2.dumps()
        assert g3.arcs[arc_id].precursors == (ids["O"], node)

    # not JSON, an integer the decoder will not convert, nesting deeper than it can recurse
    @pytest.mark.parametrize("text", ["not JSON", "[1" + "0" * 5000 + "]", "[" * 100_000],
                             ids=["not-json", "huge-int", "nested"])
    def test_loads_refuses_unparsable_text(self, text):
        with pytest.raises(ValueError, match="^bad JSON: "):
            HyperGraph.loads(text)

    def test_load_rejects_two_cycle(self):
        snapshot = self.snapshot(["CO", "C"], [(0, [1]), (1, [0])])
        with pytest.raises(CycleRejected):
            HyperGraph.loads(snapshot)

    def test_load_rejects_long_cycle_through_shared_node(self):
        # 0 <- {1, 2}, 1 <- {3}, 2 <- {3}, 3 <- {4}, 4 <- {5}, then 5 <- {0}
        snapshot = self.snapshot(
            ["A", "B", "C", "D", "E", "F"],
            [(0, [1, 2]), (1, [3]), (2, [3]), (3, [4]), (4, [5]), (5, [0])],
        )
        with pytest.raises(CycleRejected):
            HyperGraph.loads(snapshot)
        # the same snapshot without the closing arc loads
        acyclic = json.loads(snapshot)
        acyclic["arcs"].pop()
        assert len(HyperGraph.from_json(acyclic).arcs) == 5

    @staticmethod
    def snapshot(smiles, arcs):
        """Snapshot text written by hand, so the engine's own check cannot shape it."""
        return json.dumps({
            "root": 0,
            "nodes": [{"id": i, "smiles": s} for i, s in enumerate(smiles)],
            "arcs": [
                {"id": i, "product": product, "precursors": precursors,
                 "likelihood": 1.0, "class": "1.1.1", "score": 1.0}
                for i, (product, precursors) in enumerate(arcs)
            ],
        })

    def test_dot_export_shapes(self):
        g, ids, arcs = build_chain()
        g.nodes[ids["C"]].in_stock = True
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "shape=ellipse" in dot
        assert "shape=square" in dot
        assert "color=green" in dot


def random_snapshot(rng, n_nodes=40, n_arcs=60, back_arc=False):
    """A canonical snapshot written by hand, never by the engine.

    Arcs come in a shuffled order, not the planner's: a precursor is often
    expanded (has arcs of its own) before an arc consumes it, and a small
    pool of precursors is shared by many arcs. Every precursor ranks after
    its product in a random order, so the arcs are acyclic; `back_arc` adds
    one arc from a node back to a molecule that may require it, at a random
    position, which may close a cycle there or later.
    """
    order = rng.sample(range(n_nodes), n_nodes)
    pairs = []
    for _ in range(n_arcs):
        at = rng.randrange(n_nodes - 1)
        later = order[at + 1:at + 8]  # a narrow window keeps precursors shared
        pairs.append((order[at], rng.sample(later, rng.randint(1, min(3, len(later))))))
    rng.shuffle(pairs)
    if back_arc:
        product, precursors = rng.choice(pairs)
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(precursors), [product]))
    expanded = {product for product, _ in pairs}
    return {
        "root": order[0],
        "nodes": [
            {"id": i, "smiles": f"[M{i}]", "in_stock": rng.random() < 0.3,
             "simplicity": round(rng.random(), 6), "expanded": i in expanded,
             "expandable": rng.random() < 0.9}
            for i in range(n_nodes)
        ],
        "arcs": [
            {"id": i, "product": product, "precursors": precursors,
             "reagents": sorted(rng.sample(precursors, rng.randint(0, len(precursors) - 1))),
             "likelihood": round(rng.uniform(0.01, 1.0), 6),
             "class": f"{rng.randint(0, 11)}.{rng.randint(0, 9)}.{rng.randint(0, 40)}",
             "score": rng.choice([round(rng.uniform(0.0, 3.0), 6), 1])}
            for i, (product, precursors) in enumerate(pairs)
        ],
    }


def reference_first_cycle(snapshot):
    """Index of the first arc that closes a cycle when the arcs are replayed in order."""
    adjacency = {}
    for i, a in enumerate(snapshot["arcs"]):
        if reference_closes_cycle(adjacency, a["product"], a["precursors"]):
            return i, adjacency
        reference_add_arc(adjacency, a["product"], a["precursors"])
    return None, adjacency


class TestSnapshotReplay:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_load_agrees_with_reference_replay(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for trial in range(30):
            snapshot = random_snapshot(rng, back_arc=trial % 2 == 1)
            closing, adjacency = reference_first_cycle(snapshot)
            outcomes.add(closing is None)
            if closing is None:
                g = HyperGraph.from_json(snapshot)
                assert g.dumps() == json.dumps(snapshot, indent=2, sort_keys=True)
                assert raw_adjacency(g) == adjacency
                continue
            with pytest.raises(CycleRejected):
                HyperGraph.from_json(snapshot)
            # the loader rejects the same arc: everything before it loads
            prefix = dict(snapshot, arcs=snapshot["arcs"][:closing])
            assert raw_adjacency(HyperGraph.from_json(prefix)) == adjacency
        assert outcomes == {True, False}

    @pytest.mark.parametrize("flag, value", [
        ("in_stock", "no"), ("in_stock", None), ("expanded", []), ("expandable", 1),
    ], ids=["in_stock-string", "in_stock-null", "expanded-list", "expandable-int"])
    def test_node_flags_must_be_booleans(self, flag, value):
        snapshot = random_snapshot(random.Random(6))
        snapshot["nodes"][3][flag] = value
        with pytest.raises(ValueError, match="^node 3: "):
            HyperGraph.from_json(snapshot)
        # the flags may be left out: each then takes its default
        snapshot["nodes"][3] = {"id": 3, "smiles": "[M3]"}
        node = HyperGraph.from_json(snapshot).nodes[3]
        assert (node.in_stock, node.expanded, node.expandable) == (False, False, True)

    def test_repeated_smiles_rejected(self):
        rng = random.Random(5)
        for _ in range(10):
            snapshot = random_snapshot(rng)
            later, earlier = sorted(rng.sample(range(len(snapshot["nodes"])), 2), reverse=True)
            snapshot["nodes"][later]["smiles"] = snapshot["nodes"][earlier]["smiles"]
            with pytest.raises(ValueError):
                HyperGraph.from_json(snapshot)

    @pytest.mark.parametrize("value", [True, False, 1.5, -0.1, "x", None],
                             ids=["true", "false", "above-one", "below-zero", "string", "null"])
    def test_bad_simplicity_names_its_node(self, value):
        snapshot = random_snapshot(random.Random(7))
        snapshot["nodes"][5]["simplicity"] = value
        with pytest.raises(ValueError, match=r"^node 5: simplicity .* is not a number in \[0,1\]$"):
            HyperGraph.from_json(snapshot)

    # each value where the snapshot's rules want another type; the root may be null
    @pytest.mark.parametrize("corrupt, error", [
        (lambda s: s["nodes"][0].update(id=False), "node 0: "),
        (lambda s: s["nodes"][1].update(id=True), "node 1: "),
        (lambda s: s["nodes"][2].update(id=2.0), "node 2: "),
        (lambda s: s["arcs"][0].update(id=False), "arc 0: "),
        (lambda s: s["arcs"][1].update(id=True), "arc 1: "),
        (lambda s: s["arcs"][3].update(reagents=""), "arc 3: "),
        (lambda s: s["arcs"][3].update(reagents={}), "arc 3: "),
        (lambda s: s["arcs"][3].update(reagents=True), "arc 3: "),
        (lambda s: s["arcs"][3].update(reagents=None), "arc 3: "),
        (lambda s: s.update(arcs=""), "snapshot "),
        (lambda s: s.update(arcs={}), "snapshot "),
        (lambda s: s.update(nodes=""), "snapshot "),
        (lambda s: s.update(nodes={}), "snapshot "),
        (lambda s: s.update(root=None), None),
        # each refusal names its node or arc and the rule broken, never a Python type error
        (lambda s: s["arcs"][3].update(precursors=True),
         "arc 3: product must be a node id, and precursors a list of node ids$"),
        (lambda s: s["arcs"][3].update(precursors="12"),
         "arc 3: product must be a node id, and precursors a list of node ids$"),
        (lambda s: s.update(arcs=[5]), "arc 0: entry: expected a JSON object, got 5$"),
        (lambda s: s.update(nodes=[5]), "node 0: entry: expected a JSON object, got 5$"),
        (lambda s: [1, 2], r"snapshot: expected a JSON object, got \[1, 2\]$"),
        # a repeated precursor, which the planner never writes, would be drawn twice
        (lambda s: s["arcs"][3].update(precursors=s["arcs"][3]["precursors"][:1] * 2),
         "arc 3: precursors must be non-empty and distinct$"),
    ], ids=["node-id-false", "node-id-true", "node-id-float", "arc-id-false", "arc-id-true",
            "reagents-string", "reagents-object", "reagents-bool", "reagents-null",
            "arcs-string", "arcs-object", "nodes-string", "nodes-object", "root-null",
            "precursors-bool", "precursors-string", "arc-not-object", "node-not-object",
            "snapshot-list", "precursors-repeated"])
    def test_wrong_type_refused(self, corrupt, error):
        snapshot = random_snapshot(random.Random(8))
        snapshot = corrupt(snapshot) or snapshot  # a corruption returns a whole new snapshot
        text = json.dumps(snapshot)
        if error is None:
            assert HyperGraph.loads(text).root is None
            return
        with pytest.raises(ValueError, match=f"^{error}") as caught:
            HyperGraph.loads(text)
        assert "\n" not in str(caught.value)

    # a code in canonical form is kept; any other is written as `ReactionClass.parse` writes it,
    # or refused with its message (a superclass above 11, leading zeros, too few parts, a
    # non-ASCII digit, a category of more digits than int() converts, no string at all)
    @pytest.mark.parametrize("code", [
        "01.2.3", "1.02.3", "011.1.1", "11.0.0", "0.0.0", "12.0.0", "1.2", "\u0661.2.3",
        "1." + "1" * 5000 + ".1", 1.5, ["1"], None,
    ], ids=["zero-superclass", "zero-category", "zero-eleven", "eleven", "unrecognized",
            "twelve", "two-parts", "arabic-digit", "huge-category", "float", "list", "null"])
    def test_class_code_written_canonical(self, code):
        snapshot = random_snapshot(random.Random(9))
        snapshot["arcs"][2]["class"] = code
        try:
            expected = ReactionClass.parse(code).code
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^arc 2: {re.escape(str(exc))}$"):
                HyperGraph.from_json(snapshot)
            return
        g = HyperGraph.from_json(snapshot)
        assert g.arcs[2].class_code == expected
        assert json.loads(g.dumps())["arcs"][2]["class"] == expected
        assert f'a2 [label="{expected}\\n' in g.to_dot()

    # a bool or float reagent would pass as the precursor it equals, and be written back as given
    @pytest.mark.parametrize("reagents", [[True], [1.0], [1, True], ["1"], [[1]]],
                             ids=["true", "float", "int-and-true", "string", "list"])
    def test_reagent_entries_must_be_node_ids(self, reagents):
        snapshot = json.loads(TestSerialization.snapshot(["CO", "C", "N"], [(0, [1, 2])]))
        snapshot["arcs"][0]["reagents"] = reagents
        with pytest.raises(ValueError, match="^arc 0: reagents must be a list of node ids$"):
            HyperGraph.from_json(snapshot)
        snapshot["arcs"][0]["reagents"] = [1]
        assert HyperGraph.from_json(snapshot).arcs[0].reagents == {1}


def test_planner_snapshot_loads_without_parsing_a_class(monkeypatch):
    """A snapshot the planner wrote holds canonical codes only, so no class is parsed."""
    chemistries = [(make_templates(TOY_TEMPLATES), ["CNOS"], STOCK_MOLECULES)]
    for seed in (33, 34):  # templates with reagents, plans that reject cycles
        rng = random.Random(seed)
        molecules, templates = random_chemistry(rng, n_molecules=8, n_templates=10)
        chemistries.append((templates, molecules, rng.sample(molecules, 3)))
    snapshots = []
    for templates, targets, stock in chemistries:
        oracle, stock = ToyOracle(templates), make_stock(stock)
        snapshots += [beam_search(t, SearchConfig(), oracle, stock, ToyNormalizer()).graph.dumps()
                      for t in targets]
    assert sum(len(HyperGraph.loads(text).arcs) for text in snapshots) > 20
    calls = []
    parse = ReactionClass.parse
    monkeypatch.setattr(ReactionClass, "parse", lambda *args: calls.append(args) or parse(*args))
    assert [HyperGraph.loads(text).dumps() for text in snapshots] == snapshots
    assert calls == []
    # the counter sees a code that is not canonical
    HyperGraph.loads(snapshots[0].replace('"class": "', '"class": "0', 1))
    assert len(calls) == 1

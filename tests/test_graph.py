import json
import random

import pytest

from retroroute.errors import CycleRejected
from retroroute.graph import HyperGraph
from retroroute.models import ReactionClass

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
        reaction_class=CLS,
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
        g = HyperGraph()
        c = g.get_or_insert_node("CO")
        with pytest.raises(CycleRejected):
            arc(g, c, [c])

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

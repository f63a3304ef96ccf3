import pytest

from retroroute.errors import DegenerateProduct, ModelUnavailable, ScorerUnavailable
from retroroute.expand import ExpansionConfig, expand_node
from retroroute.graph import HyperGraph
from retroroute.models import ReactionClass
from retroroute.search import (
    CYCLIC,
    DEAD,
    MAX_STEPS,
    OPEN,
    SOLVED,
    ComplexityScorer,
    HeavyTokenScorer,
    Pathway,
    SearchConfig,
    arc_score,
    beam_search,
    fork_pathway,
    simplicity,
    terminate_check,
)
from retroroute.smiles import ToyNormalizer
from retroroute.toy import ToyOracle

from conftest import (
    STOCK_MOLECULES,
    TOY_TEMPLATES,
    make_stock,
    make_templates,
    random_chemistry,
)
from reference import reference_enumerate


SHARED_INTERMEDIATE_TEMPLATES = [
    {"lhs": ["NN", "OO"], "rhs": "SSSS", "weight": 1.0, "class": "1.1.1"},
    {"lhs": ["CC", "P"], "rhs": "NN", "weight": 1.0, "class": "2.1.1"},
    {"lhs": ["CC", "F"], "rhs": "OO", "weight": 1.0, "class": "2.2.1"},
    {"lhs": ["I"], "rhs": "CC", "weight": 1.0, "class": "3.1.1"},
]


class TestSimplicity:
    class Fixed(ComplexityScorer):
        def __init__(self, value):
            self.value = value

        def sc(self, smiles):
            return self.value

    def test_endpoints(self):
        assert simplicity("C", self.Fixed(1.0)) == 1.0
        assert simplicity("C", self.Fixed(5.0)) == 0.0

    def test_midpoint(self):
        assert simplicity("C", self.Fixed(3.0)) == pytest.approx(0.5)

    def test_out_of_range_clamped(self, caplog):
        assert simplicity("C", self.Fixed(7.0)) == 0.0
        assert simplicity("C", self.Fixed(0.5)) == 1.0


class TestHeavyTokenScorer:
    def test_small_molecule(self):
        assert HeavyTokenScorer().sc("C") == pytest.approx(1.1)

    def test_saturates_at_max(self):
        assert HeavyTokenScorer().sc("C" * 60) == 5.0

    def test_floor_at_min(self):
        # punctuation-only strings carry no atoms
        assert HeavyTokenScorer().sc("()") == 1.0

    def test_unscorable_raises(self):
        with pytest.raises(ScorerUnavailable):
            HeavyTokenScorer().sc("C !")


class TestArcScore:
    def test_two_precursors(self):
        assert arc_score(0.8, [0.9, 0.8], 0.6) == pytest.approx(0.96)

    def test_single_precursor(self):
        assert arc_score(0.5, [0.5], 1.0) == pytest.approx(0.25)

    def test_no_reactants_is_bare_likelihood(self):
        assert arc_score(0.7, [], 1.0) == pytest.approx(0.7)

    def test_product_simplicity_floored(self):
        assert arc_score(1.0, [1.0], 0.0) == pytest.approx(100.0)

    def test_degenerate_product(self):
        with pytest.raises(DegenerateProduct):
            arc_score(1.0, [1.0], 1.5)

    def test_rewards_simplification(self):
        gain = arc_score(0.9, [0.9, 0.9], 0.3)
        loss = arc_score(0.9, [0.3, 0.3], 0.9)
        assert gain > loss


def build_plain_graph():
    """CNOS <- {CNO,S}; CNO <- {CN,O}; stock contains CN, O, S."""
    g = HyperGraph()
    ids = {}
    for s, in_stock in [("CNOS", False), ("CNO", False), ("S", True),
                        ("CN", True), ("O", True)]:
        ids[s] = g.get_or_insert_node(s, in_stock=in_stock, simplicity=0.5)
    cls = ReactionClass.parse("1.1.1")
    a1 = g.attach_arc(ids["CNOS"], [ids["CNO"], ids["S"]], 0.9, cls, 1.2)
    a2 = g.attach_arc(ids["CNO"], [ids["CN"], ids["O"]], 0.8, cls, 1.1)
    return g, ids, (a1, a2)


class TestTerminateAndFork:
    def test_solved_when_frontier_empty(self):
        g, ids, _ = build_plain_graph()
        p = Pathway((), frozenset(), 1.0, 2)
        assert terminate_check(g, p, 6) == SOLVED

    def test_max_steps(self):
        g, ids, _ = build_plain_graph()
        p = Pathway((), frozenset({ids["CNOS"]}), 1.0, 6)
        assert terminate_check(g, p, 6) == MAX_STEPS

    def test_open_while_unexpanded(self):
        g, ids, _ = build_plain_graph()
        p = Pathway((), frozenset({ids["CNOS"]}), 1.0, 0)
        assert terminate_check(g, p, 6) == OPEN

    def test_dead_unexpandable_node(self):
        g, ids, _ = build_plain_graph()
        g.node(ids["CNOS"]).expandable = False
        p = Pathway((), frozenset({ids["CNOS"]}), 1.0, 0)
        assert terminate_check(g, p, 6) == DEAD

    def test_dead_expanded_without_arcs(self):
        g, ids, _ = build_plain_graph()
        g.node(ids["CNO"]).expanded = True
        lone = g.get_or_insert_node("P", simplicity=0.5)
        g.node(lone).expanded = True
        p = Pathway((), frozenset({lone}), 1.0, 1)
        assert terminate_check(g, p, 6) == DEAD

    def test_cyclic_when_only_rejections(self):
        g, ids, _ = build_plain_graph()
        lone = g.get_or_insert_node("P", simplicity=0.5)
        g.node(lone).expanded = True
        g.node(lone).cycle_rejections = 2
        p = Pathway((), frozenset({lone}), 1.0, 1)
        assert terminate_check(g, p, 6) == CYCLIC

    def test_dead_outranks_cyclic(self):
        g, ids, _ = build_plain_graph()
        cyc = g.get_or_insert_node("P", simplicity=0.5)
        g.node(cyc).expanded = True
        g.node(cyc).cycle_rejections = 1
        dead = g.get_or_insert_node("F", simplicity=0.5)
        g.node(dead).expandable = False
        p = Pathway((), frozenset({cyc, dead}), 1.0, 1)
        assert terminate_check(g, p, 6) == DEAD

    def test_fork_replaces_product_with_off_stock_precursors(self):
        g, ids, (a1, a2) = build_plain_graph()
        root = Pathway((), frozenset({ids["CNOS"]}), 1.0, 0)
        child = fork_pathway(g, root, a1)
        assert child.frontier == frozenset({ids["CNO"]})  # S is in stock
        assert child.cumulative_score == pytest.approx(1.2)
        assert child.steps == 1
        grandchild = fork_pathway(g, child, a2)
        assert grandchild.frontier == frozenset()
        assert grandchild.cumulative_score == pytest.approx(1.2 * 1.1)

    def test_fork_excludes_reagents(self):
        g, ids, _ = build_plain_graph()
        cls = ReactionClass.parse("2.1.1")
        w = g.get_or_insert_node("P", simplicity=0.5)
        a = g.attach_arc(ids["CNO"], [ids["CN"], w], 0.7, cls, 1.0, reagents={w})
        p = Pathway((), frozenset({ids["CNO"]}), 1.0, 0)
        assert fork_pathway(g, p, a).frontier == frozenset()


class TestBeamSearch:
    def run(self, oracle, stock, **kw):
        cfg = SearchConfig(**kw) if kw else SearchConfig()
        return beam_search("CNOS", cfg, oracle, stock)

    def test_target_in_stock_zero_step_route(self, toy_oracle):
        stock = make_stock(("CNOS",))
        outcome = beam_search("CNOS", SearchConfig(), toy_oracle, stock)
        assert len(outcome.pathways) == 1
        best = outcome.pathways[0]
        assert best.status == SOLVED
        assert best.arcs == () and best.cumulative_score == 1.0

    def test_three_step_route_found(self, toy_oracle, toy_stock):
        outcome = self.run(toy_oracle, toy_stock)
        assert outcome.solved
        best = outcome.pathways[0]
        assert best.status == SOLVED and len(best.arcs) == 3 and best.steps == 3
        products = [outcome.graph.arcs[a].product for a in best.arcs]
        smiles = [outcome.graph.node(n).smiles for n in products]
        assert set(smiles) == {"CNOS", "CNO", "CN"}

    def test_solved_leaves_all_in_stock(self):
        cases = [
            (TOY_TEMPLATES, STOCK_MOLECULES, "CNOS", 3),
            # a convergent route: CC is made once and feeds both NN and OO
            (SHARED_INTERMEDIATE_TEMPLATES, ("P", "F", "I"), "SSSS", 4),
        ]
        for templates, stock, target, n_arcs in cases:
            outcome = beam_search(
                target, SearchConfig(), ToyOracle(make_templates(templates)),
                make_stock(stock),
            )
            assert outcome.solved and len(outcome.solved[0].arcs) == n_arcs, target
            g = outcome.graph
            for p in outcome.solved:
                route = [g.arcs[a] for a in p.arcs]
                produced = {arc.product for arc in route}
                leaves = {
                    m for arc in route for m in arc.precursors
                    if m not in produced and m not in arc.reagents
                }
                assert leaves and all(g.node(m).in_stock for m in leaves), target

    def test_scores_recomputable_from_arcs(self, toy_oracle, toy_stock):
        outcome = self.run(toy_oracle, toy_stock)
        for p in outcome.pathways:
            product = 1.0
            for a in p.arcs:
                product *= outcome.graph.arcs[a].arc_score
            assert abs(product - p.cumulative_score) <= 1e-12 * max(1.0, product)

    def test_restricted_stock_turns_route_dead(self, toy_oracle):
        outcome = self.run(toy_oracle, make_stock(("C", "N", "O")))
        assert not outcome.solved
        assert any(p.status == DEAD for p in outcome.pathways)

    def test_step_limit_truncates(self, toy_oracle, toy_stock):
        outcome = self.run(toy_oracle, toy_stock, max_steps=2)
        assert not outcome.solved
        assert any(p.status == MAX_STEPS for p in outcome.pathways)

    def test_pathways_sorted_and_unique(self, toy_oracle, toy_stock):
        outcome = self.run(toy_oracle, toy_stock)
        keys = [p.sort_key() for p in outcome.pathways]
        assert keys == sorted(keys)
        arc_sets = [frozenset(p.arcs) for p in outcome.pathways]
        assert len(arc_sets) == len(set(arc_sets))

    def test_ranking_stable_under_likelihood_rescaling(self, toy_stock):
        # halving every template weight rescales likelihood ratios but must
        # keep the argmax route identical
        half = [dict(t, weight=t["weight"]) for t in TOY_TEMPLATES]
        base = beam_search(
            "CNOS", SearchConfig(), ToyOracle(make_templates(TOY_TEMPLATES)), toy_stock
        )
        scaled = beam_search(
            "CNOS", SearchConfig(), ToyOracle(make_templates(half)), toy_stock
        )

        def shape(outcome):
            return [
                (p.status,
                 tuple(sorted(outcome.graph.node(outcome.graph.arcs[a].product).smiles
                              for a in p.arcs)))
                for p in outcome.pathways
            ]

        assert shape(base) == shape(scaled)

    def test_deferred_model_eventually_dead(self, toy_stock):
        class Flaky(ToyOracle):
            def retro_predict(self, smiles, beams):
                raise ModelUnavailable("always down")

        oracle = Flaky(make_templates(TOY_TEMPLATES))
        outcome = beam_search("CNOS", SearchConfig(max_deferrals=2), oracle, toy_stock)
        assert not outcome.solved
        assert all(p.status in (DEAD, MAX_STEPS) for p in outcome.pathways)
        root = outcome.graph.node(outcome.graph.root)
        assert root.deferrals >= 2 and not root.expandable


class LazyBuilder:
    """Expand-on-demand wrapper handed to the reference enumerator."""

    def __init__(self, target, oracle, stock, cfg=None):
        self.oracle = oracle
        self.stock = stock
        self.cfg = cfg or ExpansionConfig()
        self.normalizer = ToyNormalizer()
        self.scorer = HeavyTokenScorer()
        self.graph = HyperGraph()
        self.graph.get_or_insert_node(
            target,
            in_stock=stock.contains(target),
            simplicity=simplicity(target, self.scorer),
        )

    def ensure_expanded(self, node_id):
        node = self.graph.node(node_id)
        if not node.expanded and node.expandable:
            expand_node(
                self.graph, node_id, self.cfg, self.oracle,
                self.normalizer, self.scorer, stock=self.stock,
            )


def pathway_shapes(graph, pathways):
    return sorted(
        (
            p.status,
            round(p.cumulative_score, 9),
            tuple(sorted(
                (graph.node(graph.arcs[a].product).smiles,
                 tuple(sorted(graph.node(x).smiles for x in graph.arcs[a].precursors)))
                for a in p.arcs
            )),
        )
        for p in pathways
    )


class TestAgainstExhaustiveEnumeration:
    def test_toy_chemistry_saturated_beam_matches(self, toy_oracle, toy_stock):
        outcome = beam_search(
            "CNOS", SearchConfig(n_beams=100, max_steps=6), toy_oracle, toy_stock
        )
        builder = LazyBuilder("CNOS", toy_oracle, toy_stock)
        ref = reference_enumerate(builder, max_steps=6)
        ref_paths = [
            Pathway(r.arcs, r.frontier, r.score, len(r.arcs), r.status) for r in ref
        ]
        assert pathway_shapes(outcome.graph, outcome.pathways) == \
            pathway_shapes(builder.graph, ref_paths)

    def test_random_chemistries_saturated_beam_matches(self):
        import random

        rng = random.Random(1234)
        for trial in range(30):
            molecules, templates = random_chemistry(rng)
            oracle = ToyOracle(templates)
            stock = make_stock(rng.sample(molecules, rng.randint(1, 4)))
            target = rng.choice(molecules)
            outcome = beam_search(
                target, SearchConfig(n_beams=10000, max_steps=4), oracle, stock
            )
            builder = LazyBuilder(target, oracle, stock)
            ref = reference_enumerate(builder, max_steps=4)
            ref_paths = [
                Pathway(r.arcs, r.frontier, r.score, len(r.arcs), r.status)
                for r in ref
            ]
            assert pathway_shapes(outcome.graph, outcome.pathways) == \
                pathway_shapes(builder.graph, ref_paths), f"trial {trial}"

import json
import random
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from retroroute.cli import route_to_json
from retroroute.errors import ModelUnavailable, ScorerUnavailable
from retroroute import expand, search
from retroroute.expand import ExpansionConfig
from retroroute.graph import HyperGraph
from retroroute.models import ModelManifest, ReactionClass
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
    expand_node,
    fork_pathway,
    simplicity,
    terminate_check,
)
from retroroute.smiles import ToyNormalizer, atom_count
from retroroute.toy import ToyOracle
from retroroute.wire import build_models

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


def counted(calls, name, inner):
    """`inner`, counting each call in `calls[name]`."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    return wrapper


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

    @pytest.mark.parametrize("stored", [None, 64])
    def test_remembered_scores_equal_fresh_ones(self, stored, monkeypatch):
        """Over many molecules, repeated in random order, and with a memo that overflows."""
        if stored is not None:
            monkeypatch.setattr(search, "STORED_SCORES", stored)
        rng = random.Random(28)
        tokens = ["C", "N", "O", "S", "Cl", "Br", "c", "n", "[M1]", "[NH4+]", "(", ")", "=",
                  "#", "1", "2", "%10", "."]
        pool = ["".join(rng.choices(tokens, k=rng.randint(1, 70))) for _ in range(400)]
        scorer = HeavyTokenScorer()
        for m in rng.choices(pool, k=4000):
            expected = min(5.0, max(1.0, 1.0 + 4.0 * atom_count(m) / 40))
            assert scorer.sc(m) == HeavyTokenScorer().sc(m) == expected, m
        info = scorer.sc.cache_info()
        assert info.hits > 0 and info.currsize == min(len(set(pool)), search.STORED_SCORES)

    def test_refusal_is_not_remembered(self):
        scorer = HeavyTokenScorer()
        for _ in range(3):
            with pytest.raises(ScorerUnavailable, match="cannot score 'C !'"):
                scorer.sc("C !")
        assert scorer.sc.cache_info().currsize == 0

    def test_scorers_share_nothing(self):
        first, second = HeavyTokenScorer(), HeavyTokenScorer()
        assert first.sc("CCO") == second.sc("CCO")
        assert first.sc.cache_info().misses == second.sc.cache_info().misses == 1
        # the memo holds no reference to its scorer, which is freed with its last name
        memo, ref = first.sc, weakref.ref(first)
        del first
        assert ref() is None and memo("CCO") == second.sc("CCO")

    def test_least_recently_used_score_goes_first(self, monkeypatch):
        monkeypatch.setattr(search, "STORED_SCORES", 2)
        computed = []
        count = search.atom_count
        monkeypatch.setattr(search, "atom_count", lambda m: computed.append(m) or count(m))
        scorer = HeavyTokenScorer()
        for m in ["C", "CC", "C", "CCC", "C", "CC"]:
            scorer.sc(m)
        # the third molecule drops "CC", used longer ago than "C"
        assert computed == ["C", "CC", "CCC", "CC"]


class TestArcScore:
    def test_two_precursors(self):
        assert arc_score(0.8, [0.9, 0.8], 0.6) == pytest.approx(0.96)

    def test_single_precursor(self):
        assert arc_score(0.5, [0.5], 1.0) == pytest.approx(0.25)

    def test_no_reactants_is_bare_likelihood(self):
        assert arc_score(0.7, [], 1.0) == pytest.approx(0.7)

    def test_product_simplicity_floored(self):
        assert arc_score(1.0, [1.0], 0.0) == pytest.approx(100.0)

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
    a1 = g.attach_arc(ids["CNOS"], [ids["CNO"], ids["S"]], 0.9, cls.code, 1.2)
    a2 = g.attach_arc(ids["CNO"], [ids["CN"], ids["O"]], 0.8, cls.code, 1.1)
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
        g.nodes[ids["CNOS"]].expandable = False
        p = Pathway((), frozenset({ids["CNOS"]}), 1.0, 0)
        assert terminate_check(g, p, 6) == DEAD

    def test_dead_expanded_without_arcs(self):
        g, ids, _ = build_plain_graph()
        g.nodes[ids["CNO"]].expanded = True
        lone = g.get_or_insert_node("P", simplicity=0.5)
        g.nodes[lone].expanded = True
        p = Pathway((), frozenset({lone}), 1.0, 1)
        assert terminate_check(g, p, 6) == DEAD

    def test_cyclic_when_only_rejections(self):
        g, ids, _ = build_plain_graph()
        lone = g.get_or_insert_node("P", simplicity=0.5)
        g.nodes[lone].expanded = True
        g.nodes[lone].cycle_rejections = 2
        p = Pathway((), frozenset({lone}), 1.0, 1)
        assert terminate_check(g, p, 6) == CYCLIC

    def test_dead_outranks_cyclic(self):
        g, ids, _ = build_plain_graph()
        cyc = g.get_or_insert_node("P", simplicity=0.5)
        g.nodes[cyc].expanded = True
        g.nodes[cyc].cycle_rejections = 1
        dead = g.get_or_insert_node("F", simplicity=0.5)
        g.nodes[dead].expandable = False
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
        a = g.attach_arc(ids["CNO"], [ids["CN"], w], 0.7, cls.code, 1.0, reagents={w})
        p = Pathway((), frozenset({ids["CNO"]}), 1.0, 0)
        assert fork_pathway(g, p, a).frontier == frozenset()

    def test_pathway_fields_cannot_be_assigned(self):
        g, ids, (a1, _) = build_plain_graph()
        p = fork_pathway(g, Pathway((), frozenset({ids["CNOS"]}), 1.0, 0), a1)
        for name, value in [("arcs", ()), ("frontier", frozenset()), ("cumulative_score", 2.0),
                            ("steps", 0), ("status", SOLVED)]:
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert p == Pathway((a1,), frozenset({ids["CNO"]}), 1.2, 1, OPEN)


class TestBeamSearch:
    def run(self, oracle, stock, **kw):
        cfg = SearchConfig(**kw) if kw else SearchConfig()
        return beam_search("CNOS", cfg, oracle, stock, ToyNormalizer())

    def test_target_in_stock_zero_step_route(self, toy_oracle):
        stock = make_stock(("CNOS",))
        outcome = beam_search("CNOS", SearchConfig(), toy_oracle, stock, ToyNormalizer())
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
        smiles = [outcome.graph.nodes[n].smiles for n in products]
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
                make_stock(stock), ToyNormalizer(),
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
                assert leaves and all(g.nodes[m].in_stock for m in leaves), target

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
            "CNOS", SearchConfig(), ToyOracle(make_templates(TOY_TEMPLATES)), toy_stock,
            ToyNormalizer(),
        )
        scaled = beam_search(
            "CNOS", SearchConfig(), ToyOracle(make_templates(half)), toy_stock, ToyNormalizer()
        )

        def shape(outcome):
            return [
                (p.status,
                 tuple(sorted(outcome.graph.nodes[outcome.graph.arcs[a].product].smiles
                              for a in p.arcs)))
                for p in outcome.pathways
            ]

        assert shape(base) == shape(scaled)

    def test_deferred_model_eventually_dead(self, toy_stock, monkeypatch):
        class Flaky(ToyOracle):
            def retro_predict(self, smiles, beams):
                raise ModelUnavailable("always down")

        monkeypatch.setattr(search, "MAX_DEFERRALS", 2)
        oracle = Flaky(make_templates(TOY_TEMPLATES))
        outcome = beam_search("CNOS", SearchConfig(), oracle, toy_stock, ToyNormalizer())
        assert not outcome.solved
        assert all(p.status in (DEAD, MAX_STEPS) for p in outcome.pathways)
        root = outcome.graph.nodes[outcome.graph.root]
        assert root.deferrals >= 2 and not root.expandable

    def test_profiling_hooks_see_every_call(self, toy_oracle, toy_stock, monkeypatch):
        """A profiler may wrap these names; the engine must reach each through them."""
        calls = Counter()
        for owner, name in [(search, "expand_node"), (search, "simplicity"),
                            (search, "fork_pathway"), (search, "terminate_check"),
                            (expand, "filter_candidate"), (expand, "cluster_candidates"),
                            (HyperGraph, "attach_arc")]:
            monkeypatch.setattr(owner, name, counted(calls, name, getattr(owner, name)))

        stock = SimpleNamespace(contains=counted(calls, "stock.contains", toy_stock.contains))
        outcome = self.run(toy_oracle, stock)
        assert outcome.solved and all(calls[name] > 0 for name in (
            "expand_node", "fork_pathway", "terminate_check", "filter_candidate",
            "cluster_candidates", "attach_arc"))
        # each node gets its simplicity and its stock flag once, when it is made
        assert calls["simplicity"] == calls["stock.contains"] == len(outcome.graph.nodes) > 1


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
        node = self.graph.nodes[node_id]
        if not node.expanded and node.expandable:
            expand_node(
                self.graph, node_id, self.cfg, self.oracle,
                self.normalizer, self.scorer, self.stock,
            )


def pathway_shapes(graph, pathways):
    return sorted(
        (
            p.status,
            round(p.cumulative_score, 9),
            tuple(sorted(
                (graph.nodes[graph.arcs[a].product].smiles,
                 tuple(sorted(graph.nodes[x].smiles for x in graph.arcs[a].precursors)))
                for a in p.arcs
            )),
        )
        for p in pathways
    )


class TestAgainstExhaustiveEnumeration:
    def test_toy_chemistry_saturated_beam_matches(self, toy_oracle, toy_stock):
        outcome = beam_search(
            "CNOS", SearchConfig(n_beams=100, max_steps=6), toy_oracle, toy_stock,
            ToyNormalizer(),
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
                target, SearchConfig(n_beams=10000, max_steps=4), oracle, stock, ToyNormalizer()
            )
            builder = LazyBuilder(target, oracle, stock)
            ref = reference_enumerate(builder, max_steps=4)
            ref_paths = [
                Pathway(r.arcs, r.frontier, r.score, len(r.arcs), r.status)
                for r in ref
            ]
            assert pathway_shapes(outcome.graph, outcome.pathways) == \
                pathway_shapes(builder.graph, ref_paths), f"trial {trial}"


class TestSessionIndependence:
    """A target's routes, snapshot and trace depend only on target, chemistry and config.

    Each molecule of a seeded random chemistry, many of which reject a cycle,
    is planned with fresh models, and in one session of models over all
    molecules in a shuffled and in reverse order; the three must agree byte
    for byte.
    """

    normalizer = ToyNormalizer()

    @classmethod
    def plan(cls, target, models, stock, scorer=None):
        trace = []
        outcome = beam_search(target, SearchConfig(), models, stock, cls.normalizer, scorer, trace)
        routes = [route_to_json(outcome.graph, p) for p in outcome.pathways]
        return json.dumps([routes, outcome.graph.to_json(), trace], sort_keys=True)

    def plan_in_one_session(self, models, targets, stock):
        """Each target's plan, in order, by one models object."""
        try:
            return [(t, self.plan(t, models, stock)) for t in targets]
        finally:
            models.close()

    def instances(self, n):
        rng = random.Random(2024)
        for _ in range(n):
            molecules, templates = random_chemistry(rng, n_molecules=8, n_templates=10)
            stock = make_stock(rng.sample(molecules, rng.randint(1, 3)))
            shuffled = rng.sample(molecules, len(molecules))
            fresh = {t: self.plan(t, ToyOracle(templates), stock) for t in molecules}
            yield templates, stock, shuffled, fresh

    def test_stored_records_outlive_a_mutated_trace(self, toy_stock):
        """The trace gets copies of the records the expansion store keeps."""
        templates = make_templates(TOY_TEMPLATES)
        fresh = {t: self.plan(t, ToyOracle(templates), toy_stock) for t in ("CNO", "CNOS")}
        models = ToyOracle(templates)
        first = []
        beam_search("CNOS", SearchConfig(), models, toy_stock, self.normalizer, trace=first)
        assert {"CNO", "CN"} <= {key[2] for key in expand._stores[models]}
        for record in first:
            for key in record:
                record[key] = "mutated"
        # CNO's expansions come from the store, and so do all of the third plan's
        assert self.plan("CNO", models, toy_stock) == fresh["CNO"]
        assert self.plan("CNOS", models, toy_stock) == fresh["CNOS"]

    def test_in_process_sessions(self):
        cyclic = 0
        for templates, stock, shuffled, fresh in self.instances(30):
            for order in (shuffled, shuffled[::-1]):
                planned = self.plan_in_one_session(ToyOracle(templates), order, stock)
                assert planned == [(t, fresh[t]) for t in order]
            cyclic += any('"cycle_rejected"' in record for record in fresh.values())
        assert cyclic >= 10, f"only {cyclic} of 30 instances reject a cycle"

    @pytest.mark.parametrize("refused", [(), ("[M1]", "[M4]")])
    def test_one_scorer_for_every_target(self, refused, monkeypatch):
        """One models object and one scorer plan every target as fresh ones do, and
        still score each node and look it up in stock once, and attach each arc once."""
        count = search.atom_count

        def atom_count(m):  # a distinct simplicity per molecule, and refusals
            if m in refused:
                raise ValueError(f"refused {m}")
            return count(m) + 5 * int(m[2:-1])

        calls = Counter()
        monkeypatch.setattr(search, "atom_count", atom_count)
        monkeypatch.setattr(search, "simplicity", counted(calls, "simplicity", search.simplicity))
        monkeypatch.setattr(HyperGraph, "attach_arc",
                            counted(calls, "attach", HyperGraph.attach_arc))
        unexpandable = 0
        for templates, stock, shuffled, fresh in self.instances(10):
            models, scorer = ToyOracle(templates), HeavyTokenScorer()
            counted_stock = SimpleNamespace(contains=counted(calls, "stock", stock.contains))
            for target in shuffled + shuffled[::-1]:
                calls.clear()
                planned = self.plan(target, models, counted_stock, scorer)
                assert planned == fresh[target]
                _, graph, trace = json.loads(planned)
                rejected = sum(r["outcome"] == "cycle_rejected" for r in trace)
                assert calls["simplicity"] == calls["stock"] == len(graph["nodes"])
                assert calls["attach"] == len(graph["arcs"]) + rejected
                unexpandable += sum(not n["expandable"] for n in graph["nodes"])
            assert scorer.sc.cache_info().hits > 0
        assert bool(unexpandable) == bool(refused)

    def test_one_mock_serve_child(self, tmp_path):
        cyclic = [instance for instance in self.instances(30)
                  if any('"cycle_rejected"' in record for record in instance[3].values())]
        for i, (templates, stock, shuffled, fresh) in enumerate(cyclic[:3]):
            path = tmp_path / f"templates{i}.json"
            path.write_text(json.dumps([
                {"lhs": list(t.reactants), "rhs": t.product, "weight": t.weight,
                 "class": t.reaction_class.code, "reagents": list(t.reagents)}
                for t in templates
            ]), "utf-8")
            command = [sys.executable, "-m", "retroroute.cli", "mock-serve", str(path)]
            models = build_models(ModelManifest("subprocess", command=command, timeout=30))
            # the reversed pass plans every target again against a full expansion store
            order = shuffled + shuffled[::-1]
            assert self.plan_in_one_session(models, order, stock) == [(t, fresh[t]) for t in order]

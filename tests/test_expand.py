import pytest

from retroroute import search
from retroroute.errors import ModelError, ModelUnavailable
from retroroute.expand import (
    Cluster,
    ExpansionConfig,
    FilterVerdict,
    cluster_candidates,
    filter_candidate,
)
from retroroute.graph import HyperGraph
from retroroute.models import (
    ChemModels,
    ForwardPrediction,
    PrecursorSet,
    ReactionClass,
    UNRECOGNIZED,
)
from retroroute.search import HeavyTokenScorer, expand_node
from retroroute.smiles import ToyNormalizer
from retroroute.toy import ToyOracle

from conftest import TOY_TEMPLATES, make_stock, make_templates

CFG = ExpansionConfig()
NO_STOCK = make_stock(())


def ps(*molecules, reagents=()):
    return PrecursorSet(tuple(molecules), frozenset(reagents))


class StubModels(ChemModels):
    """Scripted model answers keyed on the candidate precursor set."""

    def __init__(self, scores=None, forwards=None, classes=None, retro=None):
        self.scores = scores or {}
        self.forwards = forwards or {}
        self.classes = classes or {}
        self.retro = retro or {}

    def retro_predict(self, smiles, beams):
        return self.retro.get(smiles, [])[:beams]

    def forward_predict(self, precursors, topk):
        outcomes = self.forwards.get(precursors.key(), [])
        return [ForwardPrediction(prod, lik) for prod, lik in outcomes[:topk]]

    def score_reaction(self, precursors, product):
        return self.scores.get((precursors.key(), product), 0.0)

    def classify(self, reaction):
        cls = self.classes.get(reaction)
        if isinstance(cls, Exception):
            raise cls
        return cls if cls is not None else ReactionClass.parse("1.1.1")


class RetroDown(StubModels):
    def retro_predict(self, smiles, beams):
        raise ModelUnavailable("poof")


class TestFilterCandidate:
    def verdict(self, score, forward, target="T"):
        candidate = ps("A", "B")
        models = StubModels(
            scores={(candidate.key(), target): score},
            forwards={candidate.key(): forward},
        )
        return filter_candidate(target, candidate, CFG, models, ToyNormalizer())

    def test_auto_accept_above_threshold(self):
        v = self.verdict(0.7, [])
        assert v.outcome == "auto" and v.accepted
        assert v.likelihood == 0.7

    def test_threshold_itself_is_not_auto(self):
        # 0.6 must fall through to the selectivity check
        v = self.verdict(0.6, [("T", 0.6), ("X", 0.1)])
        assert v.outcome == "selective"

    def test_selective_accept(self):
        v = self.verdict(0.5, [("T", 0.55), ("X", 0.30)])
        assert v.outcome == "selective" and v.accepted
        assert v.likelihood == 0.55

    def test_insufficient_gap(self):
        v = self.verdict(0.5, [("T", 0.45), ("X", 0.30)])
        assert v.outcome == "insufficient_gap" and not v.accepted

    def test_exact_gap_rejected(self):
        # the margin must be strictly greater than the gap
        runner_up = 0.3
        v = self.verdict(0.5, [("T", CFG.selectivity_gap + runner_up), ("X", runner_up)])
        assert not v.accepted

    def test_wrong_top1_rejected(self):
        v = self.verdict(0.5, [("X", 0.9), ("T", 0.05)])
        assert v.outcome == "not_top1"

    def test_single_prediction_runner_up_is_zero(self):
        v = self.verdict(0.5, [("T", 0.25)])
        assert v.outcome == "selective"

    def test_no_predictions(self):
        v = self.verdict(0.5, [])
        assert v.outcome == "not_top1"

    def test_model_outage(self):
        candidate = ps("A", "B")

        class Down(StubModels):
            def forward_predict(self, precursors, topk):
                raise ModelUnavailable("poof")

        v = filter_candidate("T", candidate, CFG, Down(), ToyNormalizer())
        assert v.outcome == "model_error" and not v.accepted

    def test_top1_compared_after_normalization(self):
        candidate = ps("A", "B")
        models = StubModels(forwards={candidate.key(): [("O~C", 0.9)]})
        v = filter_candidate("C~O", candidate, CFG, models, ToyNormalizer())
        assert v.outcome == "selective"


class TestConfigValidation:
    def test_gap_must_be_below_threshold(self):
        with pytest.raises(ValueError):
            ExpansionConfig(auto_accept_likelihood=0.2, selectivity_gap=0.3)

    def test_forward_topk_floor(self):
        with pytest.raises(ValueError):
            ExpansionConfig(forward_topk=1)


class TestClusterCandidates:
    def classify_const(self, code):
        cls = ReactionClass.parse(code)
        return lambda rxn: cls

    def test_empty(self):
        assert cluster_candidates([], self.classify_const("1.1.1"), "T") == []

    def test_solvent_only_difference_merges(self):
        a = FilterVerdict(ps("A", "B", "W1", reagents=("W1",)), "auto", 0.9)
        b = FilterVerdict(ps("A", "B", "W2", reagents=("W2",)), "auto", 0.7)
        clusters = cluster_candidates([a, b], self.classify_const("1.1.1"), "T")
        assert len(clusters) == 1
        assert clusters[0].representative is a
        assert set(clusters[0].members) == {a, b}

    def test_different_superclasses_split(self):
        a = FilterVerdict(ps("A", "B"), "auto", 0.9)
        b = FilterVerdict(ps("A", "B", "W", reagents=("W",)), "auto", 0.8)
        classes = iter(["1.1.1", "2.1.1"])
        clusters = cluster_candidates(
            [a, b], lambda rxn: ReactionClass.parse(next(classes)), "T"
        )
        assert len(clusters) == 2

    def test_different_reactants_split(self):
        a = FilterVerdict(ps("A", "B"), "auto", 0.9)
        b = FilterVerdict(ps("A", "C"), "auto", 0.8)
        clusters = cluster_candidates([a, b], self.classify_const("1.1.1"), "T")
        assert [c.representative for c in clusters] == [a, b]

    def test_likelihood_tie_breaks_on_joined_string(self):
        a = FilterVerdict(ps("A", "B", "W2", reagents=("W2",)), "auto", 0.9)
        b = FilterVerdict(ps("A", "B", "W1", reagents=("W1",)), "auto", 0.9)
        clusters = cluster_candidates([a, b], self.classify_const("1.1.1"), "T")
        assert clusters[0].representative is b  # "A.B.W1" < "A.B.W2"

    def test_classifier_failure_isolates_candidate(self):
        a = FilterVerdict(ps("A", "B"), "auto", 0.9)
        b = FilterVerdict(ps("A", "B", "W", reagents=("W",)), "auto", 0.8)

        def classify(rxn):
            raise ModelError("down")

        clusters = cluster_candidates([a, b], classify, "T")
        assert len(clusters) == 2
        assert all(c.reaction_class == UNRECOGNIZED for c in clusters)


class TestExpandNode:
    def setup_graph(self, target="CNOS"):
        g = HyperGraph()
        normalizer = ToyNormalizer()
        scorer = HeavyTokenScorer()
        from retroroute.search import simplicity

        g.get_or_insert_node(target, simplicity=simplicity(target, scorer))
        return g, normalizer, scorer

    def test_single_auto_arc(self, toy_oracle, toy_stock):
        g, normalizer, scorer = self.setup_graph()
        arcs = expand_node(g, g.root, CFG, toy_oracle, normalizer, scorer,
                           stock=toy_stock)
        assert len(arcs) == 1
        arc = g.arcs[arcs[0]]
        assert {g.nodes[p].smiles for p in arc.precursors} == {"CNO", "S"}
        assert g.nodes[g.root].expanded
        assert g.nodes[g.index["S"]].in_stock

    def test_self_precursor_discarded(self):
        oracle = ToyOracle(make_templates([
            {"lhs": ["CN", "CN"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
            {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
        ]))
        g, normalizer, scorer = self.setup_graph("CN")
        trace = []
        arcs = expand_node(g, g.root, CFG, oracle, normalizer, scorer, NO_STOCK, trace)
        assert len(arcs) == 1
        assert {g.nodes[p].smiles for p in g.arcs[arcs[0]].precursors} == {"C", "N"}
        assert any(r["outcome"] == "self_precursor" for r in trace)

    def test_uncanonicalizable_candidate_discarded(self):
        class Weird(StubModels):
            pass

        models = Weird(retro={"CN": [ps("C!", "N"), ps("C", "N")]},
                       scores={("C.N", "CN"): 0.9})
        g, normalizer, scorer = self.setup_graph("CN")
        trace = []
        arcs = expand_node(g, g.root, CFG, models, normalizer, scorer, NO_STOCK, trace)
        assert len(arcs) == 1
        assert any(r["outcome"] == "not_canonicalizable" for r in trace)

    def test_empty_precursor_set_discarded(self):
        # a reactant-less suggestion would auto-accept, and no arc can hold it
        models = StubModels(retro={"CN": [ps(), ps("C", "N")]},
                            scores={("", "CN"): 0.9, ("C.N", "CN"): 0.9})
        g, normalizer, scorer = self.setup_graph("CN")
        trace = []
        arcs = expand_node(g, g.root, CFG, models, normalizer, scorer, NO_STOCK, trace)
        assert len(arcs) == 1
        assert [r["precursors"] for r in trace if r["outcome"] == "not_canonicalizable"] == [()]

    def test_duplicate_candidates_collapse(self):
        models = StubModels(
            retro={"CN": [ps("C", "N"), ps("N", "C")]},
            scores={("C.N", "CN"): 0.9},
        )
        g, normalizer, scorer = self.setup_graph("CN")
        trace = []
        arcs = expand_node(g, g.root, CFG, models, normalizer, scorer, NO_STOCK, trace)
        assert len(arcs) == 1
        assert any(r["outcome"] == "duplicate" for r in trace)

    def test_rejected_competitor_not_attached(self, toy_oracle):
        # CN + O yields CNO at 8/9 and CNP at 1/9: from CNP's side the
        # disconnection is not selective, so CNP gains no arc
        g, normalizer, scorer = self.setup_graph("CNP")
        arcs = expand_node(g, g.root, CFG, toy_oracle, normalizer, scorer, NO_STOCK)
        assert arcs == []
        assert g.nodes[g.root].expanded

    def test_model_outage_defers_node(self):
        g, normalizer, scorer = self.setup_graph("CN")
        arcs = expand_node(g, g.root, CFG, RetroDown(), normalizer, scorer, NO_STOCK)
        assert arcs == []
        node = g.nodes[g.root]
        assert not node.expanded and node.deferrals == 1

    @pytest.mark.parametrize("limit", [search.MAX_DEFERRALS, 2])
    def test_last_deferral_makes_node_unexpandable(self, limit, monkeypatch):
        monkeypatch.setattr(search, "MAX_DEFERRALS", limit)
        g, normalizer, scorer = self.setup_graph("CN")
        node = g.nodes[g.root]
        expandable = []
        for _ in range(limit):
            expand_node(g, g.root, CFG, RetroDown(), normalizer, scorer, NO_STOCK)
            expandable.append(node.expandable)
        assert expandable == [True] * (limit - 1) + [False]
        assert node.deferrals == limit and not node.expanded
        with pytest.raises(ValueError, match="not pending expansion"):
            expand_node(g, g.root, CFG, RetroDown(), normalizer, scorer, NO_STOCK)

    def test_trace_records_cluster_ids(self, toy_oracle):
        g, normalizer, scorer = self.setup_graph("CN")
        trace = []
        expand_node(g, g.root, CFG, toy_oracle, normalizer, scorer, NO_STOCK, trace)
        accepted = [r for r in trace if r["outcome"] in ("auto", "selective")]
        assert accepted and all(r["cluster"] is not None for r in accepted)
        rejected = [r for r in trace if r["outcome"] not in ("auto", "selective")]
        assert all(r["cluster"] is None for r in rejected)

    def test_matches_reference_expansion(self, toy_oracle, normalizer):
        from reference import reference_expansion

        scorer = HeavyTokenScorer()
        for target in ("CN", "CNO", "CNOS", "CNP", "OS"):
            g, _, _ = self.setup_graph(target)
            arcs = expand_node(g, g.root, CFG, toy_oracle, normalizer, scorer, NO_STOCK)
            engine = sorted(
                (tuple(sorted(g.nodes[p].smiles for p in g.arcs[a].precursors)),
                 g.arcs[a].forward_likelihood)
                for a in arcs
            )
            ref = sorted(
                (tuple(sorted(r.precursors.molecules)), r.likelihood)
                for r in reference_expansion(target, toy_oracle, normalizer)
            )
            assert engine == ref

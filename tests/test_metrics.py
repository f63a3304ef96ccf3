import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retroroute.errors import AllEmpty, EmptyEvaluation, ModelUnavailable
from retroroute.metrics import (
    ClassLikelihoodDistribution,
    EvalRecord,
    Suggestion,
    build_distributions,
    class_diversity,
    coverage,
    evaluate,
    evaluate_target,
    histogram_counts,
    histogram_edges,
    invalid_rate,
    jsd,
    round_trip,
)
from retroroute.models import PrecursorSet, ReactionClass
from retroroute.smiles import ToyNormalizer
from retroroute.toy import ToyOracle

from conftest import TOY_TEMPLATES, make_templates


def sug(valid=True, likelihood=0.9, cls="1.1.1", syntactic=True, error=None):
    return Suggestion(
        precursors=PrecursorSet(("C", "N")),
        syntactically_valid=syntactic,
        valid=valid and syntactic,
        forward_likelihood=likelihood if syntactic else None,
        reaction_class=ReactionClass.parse(cls) if syntactic else None,
        error=error,
    )


def rec(target, *suggestions, error=None):
    return EvalRecord(target=target, suggestions=tuple(suggestions), error=error)


class TestEvaluateTarget:
    def test_toy_round_trip(self, toy_oracle, normalizer):
        record = evaluate_target("CNO", toy_oracle, normalizer, beams=10)
        assert record.error is None
        assert len(record.suggestions) == 1
        s = record.suggestions[0]
        assert s.valid and s.syntactically_valid
        assert s.forward_likelihood == pytest.approx(8 / 9)
        assert s.reaction_class.code == "2.1.1"

    def test_invalid_suggestion_recorded(self, normalizer):
        from test_expand import StubModels

        models = StubModels(retro={"CN": [PrecursorSet(("C!", "N"))]})
        record = evaluate_target("CN", models, normalizer, beams=10)
        s = record.suggestions[0]
        assert not s.syntactically_valid and not s.valid

    def test_reagent_flag_follows_its_normalized_spelling(self, normalizer):
        from test_expand import StubModels

        sent = []

        class Recording(StubModels):
            def forward_predict(self, precursors, topk):
                sent.append(sorted(precursors.reagents))
                return super().forward_predict(precursors, topk)

        # the retro model spells the tied reagent O~C; its normal form is C~O
        models = Recording(retro={"CNO": [PrecursorSet(("CN", "O~C"), frozenset({"O~C"}))]})
        record = evaluate_target("CNO", models, normalizer, beams=10)
        assert sent == [["C~O"]]
        assert record.suggestions[0].precursors.reagents == {"C~O"}

    def test_top1_compared_after_normalization(self, normalizer):
        from test_expand import StubModels

        # the forward model spells the target C~O as O~C: the planner's filter
        # accepts that top-1, so the round trip succeeds too
        candidate = PrecursorSet(("C", "O"))
        models = StubModels(
            retro={"C~O": [candidate]}, forwards={candidate.key(): [("O~C", 0.9)]}
        )
        s = evaluate_target("C~O", models, normalizer, beams=10).suggestions[0]
        assert s.valid and s.forward_likelihood == 0.9

    def test_empty_precursor_set_is_syntactically_invalid(self, normalizer):
        from test_expand import StubModels

        # every forward call answers the target, so only the empty set can fail
        models = StubModels(retro={"CN": [PrecursorSet(())]}, forwards={"": [("CN", 1.0)]})
        s = evaluate_target("CN", models, normalizer, beams=10).suggestions[0]
        assert not s.syntactically_valid and not s.valid

    def test_model_error_pinned_in_audit_line(self, normalizer):
        from test_expand import StubModels

        class ForwardDown(StubModels):
            def forward_predict(self, precursors, topk):
                raise ModelUnavailable("forward model down")

        models = ForwardDown(retro={"CN": [PrecursorSet(("C", "N"))]})
        record = evaluate_target("CN", models, normalizer, beams=10)
        assert record.to_json() == {"target": "CN", "error": None, "suggestions": [{
            "precursors": ["C", "N"], "syntactically_valid": True, "valid": False,
            "forward_likelihood": None, "reaction_class": None, "error": "forward model down",
        }]}

    def test_minor_product_not_valid(self, toy_oracle, normalizer):
        # CNP's only disconnection forwards to CNO, so round-trip fails
        record = evaluate_target("CNP", toy_oracle, normalizer, beams=10)
        assert record.suggestions and not any(s.valid for s in record.suggestions)

    def test_unnormalizable_target_excluded(self, toy_oracle, normalizer):
        record = evaluate_target("C !", toy_oracle, normalizer, beams=10)
        assert record.error is not None and record.suggestions == ()


PLANTED = [
    # target A: 3 suggestions, 2 valid in distinct superclasses
    rec("A", sug(cls="1.1.1", likelihood=0.9),
        sug(cls="2.1.1", likelihood=0.7),
        sug(valid=False, cls="3.1.1", likelihood=0.2)),
    # target B: 2 suggestions, 1 valid, 1 syntactically invalid
    rec("B", sug(cls="1.2.1", likelihood=0.8), sug(syntactic=False)),
    # target C: nothing valid
    rec("C", sug(valid=False, cls="4.1.1", likelihood=0.3)),
    # target D: model-errored suggestion (excluded), one valid
    rec("D", sug(cls="5.1.1", likelihood=0.95), sug(error="timeout")),
    # target E: whole target errored, excluded entirely
    rec("E", error="retro model down"),
]


class TestPlantedFixture:
    def test_round_trip(self):
        # counted suggestions: 3 + 2 + 1 + 1 = 7, of which 4 valid
        assert round_trip(PLANTED) == pytest.approx(100.0 * 4 / 7)

    def test_coverage(self):
        # 4 usable targets, A/B/D covered
        assert coverage(PLANTED) == pytest.approx(75.0)

    def test_class_diversity(self):
        # A has {1,2}, B {1}, D {5} -> mean (2+1+1)/3
        value, defined = class_diversity(PLANTED)
        assert defined and value == pytest.approx(4 / 3)

    def test_invalid_rate(self):
        assert invalid_rate(PLANTED) == pytest.approx(100.0 / 7)

    def test_against_single_pass_recomputation(self):
        n_sugg = n_valid = n_invalid = 0
        covered = usable_targets = 0
        diversities = []
        for r in PLANTED:
            if r.error is not None:
                continue
            usable_targets += 1
            target_valid_classes = set()
            any_valid = False
            for s in r.suggestions:
                if s.error is not None:
                    continue
                n_sugg += 1
                if not s.syntactically_valid:
                    n_invalid += 1
                if s.valid:
                    n_valid += 1
                    any_valid = True
                    target_valid_classes.add(s.reaction_class.superclass)
            if any_valid:
                covered += 1
                diversities.append(len(target_valid_classes))
        assert round_trip(PLANTED) == pytest.approx(100 * n_valid / n_sugg)
        assert coverage(PLANTED) == pytest.approx(100 * covered / usable_targets)
        assert class_diversity(PLANTED)[0] == pytest.approx(
            sum(diversities) / len(diversities)
        )
        assert invalid_rate(PLANTED) == pytest.approx(100 * n_invalid / n_sugg)

    def test_empty_raises(self):
        with pytest.raises(EmptyEvaluation):
            round_trip([])
        with pytest.raises(EmptyEvaluation):
            coverage([rec("E", error="down")])


class TestDistributions:
    def test_threshold_and_binning(self):
        records = [rec("A",
                       sug(cls="1.1.1", likelihood=0.9),
                       sug(cls="1.1.1", likelihood=0.505),
                       sug(cls="1.1.1", likelihood=0.5),   # at threshold: excluded
                       sug(cls="1.1.1", likelihood=0.4),   # below: excluded
                       sug(valid=False, cls="1.1.1", likelihood=0.9))]
        dists = build_distributions(records, bins=50)
        d1 = dists[1]
        assert d1.count == 2
        assert sum(d1.counts) == 2
        assert len(d1.counts) == 50
        # 0.505 lands in the first bin (edges 0.50..0.51), 0.9 in bin 40
        assert d1.counts[0] == 1 and d1.counts[40] == 1

    def test_likelihood_one_included(self):
        records = [rec("A", sug(cls="2.1.1", likelihood=1.0))]
        dists = build_distributions(records, bins=50)
        assert dists[2].count == 1 and dists[2].counts[-1] == 1

    def test_probabilities_normalized(self):
        records = [rec("A", *(sug(cls="3.1.1", likelihood=0.6 + 0.01 * i)
                              for i in range(10)))]
        d = build_distributions(records)[3]
        assert sum(c / d.count for c in d.counts) == pytest.approx(1.0)

    def test_edges_equal_linspace_bit_for_bit(self):
        for bins in range(1, 201):
            expected = np.linspace(0.5, 1.0, bins + 1).tolist()
            assert [e.hex() for e in histogram_edges(bins)] == [e.hex() for e in expected]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.data())
    def test_counts_equal_numpy_histogram(self, bins, data):
        edges = histogram_edges(bins)  # equal to numpy's, as the test above shows
        near_edges = st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([e, math.nextafter(e, 0.0), math.nextafter(e, 2.0)])
        )
        drawn = data.draw(st.lists(st.floats(0.4, 1.2) | near_edges, max_size=50))
        # every edge, exactly 1.0, and values on both sides of the range
        values = drawn + edges + [1.0, 0.4, math.nextafter(0.5, 0.0),
                                  math.nextafter(1.0, 2.0), 1.2]
        expected, _ = np.histogram(values, bins=np.linspace(0.5, 1.0, bins + 1))
        assert histogram_counts(values, edges) == expected.tolist()


def dist(superclass, counts):
    return ClassLikelihoodDistribution(
        superclass=superclass, counts=tuple(counts), count=sum(counts)
    )


class TestJsd:
    def test_identical_distributions_give_zero(self):
        counts = [3, 1, 0, 2]
        value, inverse, classes = jsd([dist(1, counts), dist(2, counts)])
        assert value == 0.0
        assert math.isinf(inverse)
        assert classes == [1, 2]

    @pytest.mark.parametrize("base", [None, 2.0])
    def test_identical_distributions_give_positive_zero(self, base):
        # a lone point mass has entropy -0.0, the negated sum of a log of 1.0
        value, inverse, _ = jsd([dist(1, [2, 0])], base=base)
        assert math.copysign(1.0, value) == 1.0 and math.isinf(inverse)

    def test_disjoint_point_masses_give_log2(self):
        value, inverse, _ = jsd([dist(1, [4, 0]), dist(2, [0, 7])])
        assert value == pytest.approx(math.log(2), abs=1e-9)
        assert inverse == pytest.approx(1 / math.log(2))

    def test_base_two(self):
        value, _, _ = jsd([dist(1, [4, 0]), dist(2, [0, 7])], base=2.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_unrecognized_class_excluded_by_default(self):
        dists = [dist(0, [9, 0]), dist(1, [1, 1]), dist(2, [1, 1])]
        value, _, classes = jsd(dists)
        assert classes == [1, 2] and value == 0.0
        _, _, with0 = jsd(dists, include_unrecognized=True)
        assert with0 == [0, 1, 2]

    def test_all_empty(self):
        with pytest.raises(AllEmpty):
            jsd([dist(1, [0, 0]), dist(0, [1, 0])])

    def test_bounds_and_permutation_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(2, 6)
            dists = [
                dist(i + 1, [rng.randint(0, 5) for _ in range(8)])
                for i in range(k)
            ]
            dists = [d for d in dists if d.count > 0]
            if len(dists) < 2:
                continue
            value, inverse, _ = jsd(dists)
            assert 0.0 <= value <= math.log(len(dists)) + 1e-12
            shuffled = dists[:]
            rng.shuffle(shuffled)
            assert jsd(shuffled)[0] == pytest.approx(value, abs=1e-12)


def numpy_jsd(dists, base=None):
    """The divergence as numpy computes it: an independent oracle for `jsd`."""
    probs = np.array([np.asarray(d.counts, dtype=float) / d.count for d in dists])

    def entropy(p):
        p = p[p > 0]
        h = float(-(p * np.log(p)).sum())
        return h / math.log(base) if base is not None else h

    value = entropy(probs.mean(axis=0)) - np.mean([entropy(p) for p in probs])
    return max(value, 0.0)


def dense_jsd(dists, base=None):
    """The divergence summed over every bin of every class, empty bins too."""
    probs = [[c / d.count for c in d.counts] for d in dists]

    def entropy(p):
        h = -math.fsum(x * math.log(x) for x in p if x > 0)
        return h / math.log(base) if base is not None else h

    mixture = [sum(column) / len(probs) for column in zip(*probs)]
    return max(entropy(mixture) - sum(entropy(p) for p in probs) / len(probs), 0.0)


def test_jsd_matches_numpy_on_random_histograms():
    """Within 1e-12 of numpy, and bit for bit the dense sum: `jsd` skips only zeros."""
    rng = random.Random(11)
    for _ in range(300):
        bins = rng.randint(1, 50)
        dists = [
            dist(c, [rng.choice((0, 0, rng.randint(1, 40))) for _ in range(bins)])
            for c in range(1, rng.randint(2, 12))
        ]
        dists = [d for d in dists if d.count > 0]
        if not dists:
            continue
        base = rng.choice((None, 2.0, 10.0))
        assert abs(jsd(dists, base=base)[0] - numpy_jsd(dists, base)) <= 1e-12
        assert jsd(dists, base=base)[0] == dense_jsd(dists, base)


class TestEvaluateOrchestration:
    def test_toy_end_to_end(self, toy_oracle, normalizer):
        report, records = evaluate(
            ["CN", "CNO", "CNOS", "OS"], toy_oracle, normalizer, beams=10
        )
        assert report.n_targets == 4
        assert report.coverage_pct == 100.0
        assert report.round_trip_pct > 80.0
        assert report.invalid_smiles_pct == 0.0
        assert report.class_diversity_defined
        assert report.jsd_defined
        payload = report.to_json()
        assert payload["bins"] == 50 and payload["log_base"] == "e"
        assert len(payload["histograms"]) == 12

    def test_identical_distributions_inverse_is_none(self, normalizer):
        # single participating class: mixture equals the lone distribution
        oracle = ToyOracle(make_templates([
            {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1"},
        ]))
        report, _ = evaluate(["CN"], oracle, normalizer)
        assert report.jsd == 0.0 and report.inv_jsd is None

    @pytest.mark.parametrize("setting", [
        {"bins": 0}, {"beams": 0}, {"log_base": 1.0}, {"log_base": 0.0}, {"log_base": -2.0},
        {"log_base": math.nan}, {"log_base": math.inf},
    ], ids=["bins-0", "beams-0", "log-base-1", "log-base-0", "log-base-negative",
            "log-base-nan", "log-base-inf"])
    def test_bad_settings_refused_before_any_model_call(self, setting, normalizer):
        calls = []

        class CountingOracle(ToyOracle):
            def retro_predict(self, target, beams):
                calls.append(target)
                return super().retro_predict(target, beams)

        oracle = CountingOracle(make_templates(TOY_TEMPLATES))
        with pytest.raises(ValueError):
            evaluate(["CN", "CNO"], oracle, normalizer, **setting)
        assert calls == []

    def test_all_targets_bad_raises(self, toy_oracle, normalizer):
        with pytest.raises(EmptyEvaluation):
            evaluate(["C !", "also bad !"], toy_oracle, normalizer)

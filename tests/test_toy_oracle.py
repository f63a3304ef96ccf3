import gc
import json
import random
import re
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from retroroute import toy
from retroroute.errors import MalformedModelResponse, NotCanonicalizable
from retroroute.models import UNRECOGNIZED, ForwardPrediction, PrecursorSet, ReactionClass
from retroroute.smiles import ToyNormalizer
from retroroute.toy import Template, ToyOracle, load_templates

from conftest import TOY_TEMPLATES, make_templates
from reference import ReferenceTemplateOracle


def ps(*molecules, reagents=()):
    return PrecursorSet(tuple(molecules), frozenset(reagents))


class TestRetro:
    def test_template_inversion(self, toy_oracle):
        predictions = toy_oracle.retro_predict("CN", beams=15)
        assert set(predictions[0].molecules) == {"C", "N"}

    def test_fewer_predictions_than_beams(self, toy_oracle):
        predictions = toy_oracle.retro_predict("CNOS", beams=15)
        assert len(predictions) == 1

    def test_confidences_non_increasing(self, toy_oracle):
        # best first: by the forward score of each suggestion's reaction
        predictions = toy_oracle.retro_predict("CN", beams=15)
        scores = [toy_oracle.score_reaction(p, "CN") for p in predictions]
        assert len(scores) == 2 and scores == sorted(scores, reverse=True)


class TestForward:
    def test_unambiguous_template(self, toy_oracle):
        predictions = toy_oracle.forward_predict(ps("C", "N"), topk=3)
        assert len(predictions) == 1
        assert predictions[0].product == "CN"
        assert predictions[0].likelihood == 1.0

    def test_competing_weights_normalized(self):
        oracle = ToyOracle(make_templates([
            {"lhs": ["C", "N"], "rhs": "CN", "weight": 3.0, "class": "1.1.1"},
            {"lhs": ["C", "N"], "rhs": "CO", "weight": 1.0, "class": "2.1.1"},
        ]))
        predictions = oracle.forward_predict(ps("C", "N"), topk=3)
        assert [p.product for p in predictions] == ["CN", "CO"]
        assert predictions[0].likelihood == pytest.approx(0.75)
        assert predictions[1].likelihood == pytest.approx(0.25)
        assert sum(p.likelihood for p in predictions) <= 1 + 1e-6

    def test_score_matches_top1(self, toy_oracle):
        top1 = toy_oracle.forward_predict(ps("CN", "O"), topk=3)[0]
        assert toy_oracle.score_reaction(ps("CN", "O"), top1.product) == top1.likelihood

    def test_score_unreachable_product(self, toy_oracle):
        assert toy_oracle.score_reaction(ps("C", "N"), "CNOS") == 0.0

    def test_likelihood_of_templates_sharing_a_product_stays_within_one(self):
        # these weights' quotients, added one by one, sum to 1.0000000000000002
        weights = [0.64, 0.844, 0.117, 0.118, 0.336]
        oracle = ToyOracle(make_templates([
            {"lhs": ["C", "N"], "rhs": "CN", "weight": w, "class": "1.1.1"} for w in weights
        ]))
        assert oracle.forward_predict(ps("C", "N"), topk=3) == [ForwardPrediction("CN", 1.0)]
        assert oracle.score_reaction(ps("C", "N"), "CN") == 1.0

    def test_minor_product_score(self):
        oracle = ToyOracle(make_templates([
            {"lhs": ["C", "N"], "rhs": "CN", "weight": 3.0, "class": "1.1.1"},
            {"lhs": ["C", "N"], "rhs": "CO", "weight": 1.0, "class": "2.1.1"},
        ]))
        assert oracle.score_reaction(ps("C", "N"), "CO") == pytest.approx(0.25)


class TestClassify:
    def test_template_class(self, toy_oracle):
        cls = toy_oracle.classify("C.N>>CN")
        assert cls.code == "1.1.1"

    def test_unknown_transformation(self, toy_oracle):
        assert toy_oracle.classify("S>>P").superclass == 0

    def test_malformed_input(self, toy_oracle):
        with pytest.raises(MalformedModelResponse):
            toy_oracle.classify("C.N")


class TestConsistency:
    def test_retro_forward_round_trip(self, toy_oracle):
        for product in ("CN", "CNO", "CNOS"):
            best = toy_oracle.retro_predict(product, beams=15)[0]
            assert toy_oracle.forward_predict(best, topk=3)[0].product == product

    def test_deterministic(self, toy_oracle):
        a = toy_oracle.retro_predict("CN", beams=15)
        b = toy_oracle.retro_predict("CN", beams=15)
        assert a == b

    def test_reagents_carried(self):
        oracle = ToyOracle(make_templates([
            {"lhs": ["C", "N"], "rhs": "CN", "weight": 1.0, "class": "1.1.1",
             "reagents": ["O"]},
        ]))
        pred = oracle.retro_predict("CN", beams=5)[0]
        assert set(pred.molecules) == {"C", "N", "O"}
        assert pred.reagents == {"O"}
        assert [m for m in pred.molecules if m not in pred.reagents] == ["C", "N"]


def test_templates_load_in_normal_form_and_are_kept_as_loaded(templates_file):
    templates_file.write_text(json.dumps([
        {"lhs": ["O~C", "N"], "rhs": "N.C", "weight": 2, "class": "1.2.3", "label": "x",
         "reagents": ["S~O"]},
        *TOY_TEMPLATES,
    ]), "utf-8")
    templates = load_templates(templates_file)
    assert templates[0] == Template(("C~O", "N"), "C.N", 2.0, ReactionClass(1, 2, 3, "x"), ("O~S",))
    assert type(templates[0].weight) is float
    oracle = ToyOracle(templates)
    assert len(oracle.templates) == len(templates)
    assert all(oracle.templates[i] is templates[i] for i in range(len(templates)))


def test_precursor_set_normalized_keeps_reagent_flags():
    normalizer = ToyNormalizer()
    p = PrecursorSet(("O~C", "N", "C~O"), frozenset({"C~O"})).normalized(normalizer)
    assert p.molecules == ("C~O", "N") and p.reagents == {"C~O"}
    assert PrecursorSet(("N", "O~C")).normalized(normalizer) == PrecursorSet(("N", "C~O"))
    with pytest.raises(NotCanonicalizable):
        PrecursorSet(("N", "C!")).normalized(normalizer)


def test_precursor_set_dedups_and_orders():
    p = PrecursorSet(("C", "N", "C"))
    assert p.molecules == ("C", "N")
    assert p.key() == "C.N"
    assert p.joined() == "C.N"


@pytest.mark.parametrize("kind", [list, tuple, set, frozenset])
@pytest.mark.parametrize("reagents", [(), ("O",), ("O", "X"), ("X",)])
def test_precursor_set_reagents_are_a_frozenset_of_its_molecules(kind, reagents):
    p = PrecursorSet(("C", "O", "C"), kind(reagents))
    assert type(p.reagents) is frozenset and p.reagents == set(reagents) & {"C", "O"}
    assert type(PrecursorSet(("C",)).reagents) is frozenset


@pytest.mark.parametrize("code", [
    "\u0661.\u0662.\u0663", "1.2.\u00b2", "1.2", "1.2.3.4", "1..2", "1.2.x", "1.2.-3",
    "1.2.3\n", " 1.2.3", "", 123, None,
])
def test_reaction_class_parse_takes_three_ascii_numbers(code):
    """Other digit systems would load as a different code, or fail in int()
    with a message that names neither the code nor where it came from."""
    with pytest.raises(ValueError, match=f"^bad reaction class code {re.escape(repr(code))}$"):
        ReactionClass.parse(code)
    assert ReactionClass.parse("11.04.2", "x") == (11, 4, 2, "x")


# Molecules already in normal form, few enough that random template sets
# share products and reactants.
MOLECULES = ["C", "N", "O", "S", "CN", "CO", "NO"]
molecule_lists = st.lists(st.sampled_from(MOLECULES), max_size=3)
template_entries = st.lists(
    st.fixed_dictionaries(
        {
            "lhs": molecule_lists,  # may be empty: a reactant-less, reagent-only template
            "rhs": st.sampled_from(MOLECULES),
            "weight": st.one_of(
                st.sampled_from([0.5, 1.0, 2.0]),  # equal weights tie
                st.floats(min_value=0.01, max_value=10.0),
            ),
            "class": st.sampled_from(["1.1.1", "2.1.1", "3.2.1", "11.4.2"]),
            "reagents": molecule_lists,
        }
    ).filter(lambda e: e["lhs"] or e["reagents"]),  # an empty template is refused at load
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    entries=template_entries,
    pool=molecule_lists,
    product=st.sampled_from(MOLECULES),
    products=st.lists(st.sampled_from(MOLECULES), max_size=2),
    other=st.sampled_from(MOLECULES),
    n=st.integers(min_value=1, max_value=15),
)
def test_indexed_lookups_equal_full_scan(entries, pool, product, products, other, n):
    oracle = ToyOracle(make_templates(entries))
    reference = ReferenceTemplateOracle(entries)
    precursors = PrecursorSet(tuple(pool))

    forward = oracle.forward_predict(precursors, topk=n)
    assert [(f.product, f.likelihood) for f in forward] == reference.forward(
        precursors.molecules, n
    )
    assert all(0 < f.likelihood <= 1 for f in forward)
    assert oracle.score_reaction(precursors, product) == reference.score(
        precursors.molecules, product
    )

    retro = oracle.retro_predict(product, beams=n)
    assert [
        (r.molecules, r.reagents, oracle.score_reaction(r, product)) for r in retro
    ] == reference.retro(product, n)

    # in the order evaluation and expansion call them: on the tables retro stored, and
    # again after a retro call for another target
    for _ in range(2):
        for r in retro:
            forward = oracle.forward_predict(r, topk=n)
            assert [(f.product, f.likelihood) for f in forward] == reference.forward(
                r.molecules, n
            )
            for p in (product, other):
                assert oracle.score_reaction(r, p) == reference.score(r.molecules, p)
            expected = reference.classify(set(r.molecules), {product})
            assert oracle.classify(f"{r.joined()}>>{product}") == (
                ReactionClass.parse(expected) if expected else UNRECOGNIZED
            )
        oracle.retro_predict(other, beams=n)

    # the random reaction, and each template's own reaction plus the pool
    reactions = [(pool, products)] + [
        (e["lhs"] + e["reagents"] + pool, [e["rhs"]] + products) for e in entries
    ]
    for lhs, rhs in reactions:
        cls = oracle.classify(".".join(lhs) + ">>" + ".".join(rhs))
        expected = reference.classify(set(lhs), set(rhs))
        assert cls == (ReactionClass.parse(expected) if expected else UNRECOGNIZED)


def build_log(monkeypatch):
    """The pools whose forward tables the oracles made from now on build, in order."""
    pools = []
    build = toy._build
    monkeypatch.setattr(toy, "_build", lambda *args: pools.append(args[-1]) or build(*args))
    return pools


def test_retro_tables_serve_the_calls_that_follow(monkeypatch):
    """A retro call builds one forward table per distinct precursor pool it ranks; the
    score, forward and classify calls on its suggestions read them and build none, and
    any other pool's table, once built, serves every later call on that pool."""
    pools = build_log(monkeypatch)
    oracle = ToyOracle(make_templates(TOY_TEMPLATES + [
        # the pool of CN <- {C, N} again, and that pool with a reagent
        {"lhs": ["N", "C"], "rhs": "CN", "weight": 0.2, "class": "6.1.1"},
        {"lhs": ["C", "N"], "rhs": "CN", "weight": 0.4, "class": "7.1.1", "reagents": ["O"]},
    ]))

    suggested = oracle.retro_predict("CN", beams=10)
    assert len(suggested) == 4
    assert sorted(map(sorted, pools)) == [["C", "N"], ["C", "N", "O"], ["F", "P"]]
    for p in suggested:
        oracle.score_reaction(p, "CN")
        oracle.forward_predict(p, topk=3)
        oracle.classify(f"{p.joined()}>>CN")
    assert len(pools) == 3

    # any other pool builds its table on its first call, and repeated calls build nothing more
    for _ in range(2):
        oracle.forward_predict(ps("CN", "O"), topk=3)
        oracle.retro_predict("CNOS", beams=10)  # its one pool, {CNO, S}
        oracle.classify(f"{suggested[0].joined()}>>CN")
        oracle.retro_predict("CN", beams=10)
    assert sorted(map(sorted, pools[3:])) == [["CN", "O"], ["CNO", "S"]]


def test_table_store_drops_the_least_recently_used_pool_past_its_bound(monkeypatch):
    monkeypatch.setattr(toy, "STORED_TABLES", 2)
    pools = build_log(monkeypatch)
    oracle = ToyOracle(make_templates(TOY_TEMPLATES))
    a, b, c = ps("C", "N"), ps("CN", "O"), ps("O", "S")
    for p in (a, b, a, c):  # a is used again after b, so c's table drops b's
        oracle.forward_predict(p, topk=3)
    assert pools == [frozenset(p.molecules) for p in (a, b, c)]
    for p in (a, c, b, c):  # b is rebuilt and drops a; the newest, c, is not rebuilt
        oracle.forward_predict(p, topk=3)
    assert pools == [frozenset(p.molecules) for p in (a, b, c, b)]


def test_one_oracle_shared_by_threads_answers_as_a_fresh_one(monkeypatch):
    """Threads that share an oracle whose store keeps fewer tables than they use get
    the answers a fresh oracle gives a single thread, and raise nothing."""
    monkeypatch.setattr(toy, "STORED_TABLES", 4)
    calls = []
    for e in TOY_TEMPLATES:
        pool = ps(*e["lhs"])
        calls += [("retro_predict", e["rhs"], 10), ("score_reaction", pool, e["rhs"]),
                  ("forward_predict", pool, 3), ("classify", f"{pool.joined()}>>{e['rhs']}")]
    fresh = ToyOracle(make_templates(TOY_TEMPLATES))
    expected = [getattr(fresh, name)(*args) for name, *args in calls]
    shared = ToyOracle(make_templates(TOY_TEMPLATES))
    start = threading.Barrier(8)
    faults = []

    def work(t):
        start.wait()
        try:
            for r in range(400):
                for i in random.Random(t * 1000 + r).sample(range(len(calls)), len(calls)):
                    name, *args = calls[i]
                    answer = getattr(shared, name)(*args)
                    if answer != expected[i]:
                        faults.append((calls[i], answer, expected[i]))
        except Exception as exc:
            faults.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the store's calls too
    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert faults == []


def test_a_dropped_oracle_frees_its_tables_at_once():
    """The store refers to the oracle's index, not to the oracle, so no reference cycle
    keeps a dropped oracle and its tables alive until the cyclic collector runs."""
    oracle = ToyOracle(make_templates(TOY_TEMPLATES))
    for e in TOY_TEMPLATES:
        for p in oracle.retro_predict(e["rhs"], beams=10):
            oracle.forward_predict(p, topk=3)
    refs = [weakref.ref(oracle), weakref.ref(oracle._tables)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del oracle
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()

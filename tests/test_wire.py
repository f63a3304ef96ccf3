import contextlib
import gc
import http.client
import io
import json
import logging
import math
import random
import re
import socket
import subprocess
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from retroroute.errors import (
    ConfigError,
    MalformedModelResponse,
    ModelTimeout,
    ModelUnavailable,
)
from retroroute.cli import route_to_json
from retroroute.expand import ExpansionConfig
from retroroute.graph import HyperGraph
from retroroute.models import (
    ChemModels,
    ForwardPrediction,
    ModelManifest,
    PrecursorSet,
    ReactionClass,
    TokenSubstitution,
)
from retroroute import expand, wire
from retroroute.search import HeavyTokenScorer, SearchConfig, beam_search, expand_node
from retroroute.smiles import ToyNormalizer
from retroroute.toy import ToyOracle
from retroroute.wire import (
    MAX_REQUEST_BYTES,
    HttpTransport,
    SubprocessTransport,
    WireClient,
    answer_line,
    build_models,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    handle_request,
    serve_http,
    serve_stdio,
)

from conftest import TOY_TEMPLATES, make_stock, make_templates, random_chemistry


json_scalars = st.one_of(st.text(max_size=10), st.integers(), st.floats(allow_nan=False))


@given(
    st.text(min_size=1, max_size=12),
    st.sampled_from(["retro", "forward", "score", "classify"]),
    st.lists(json_scalars, max_size=4),
    st.dictionaries(st.text(min_size=1, max_size=6), json_scalars, max_size=4),
)
def test_request_roundtrip(req_id, op, inputs, params):
    line = encode_request(req_id, op, inputs, params)
    msg = decode_request(line)
    assert (msg["id"], msg["op"], msg["inputs"], msg["params"]) == (
        req_id, op, inputs, params,
    )
    assert line == compact_json({"id": req_id, "op": op, "inputs": inputs, "params": params})


@given(st.text(min_size=1, max_size=12), st.booleans(), st.lists(json_scalars, max_size=4),
       st.one_of(st.none(), st.text(max_size=10)))
def test_response_roundtrip(req_id, ok, result, error):
    line = encode_response(req_id, ok, result, error)
    msg = decode_response(line)
    assert (msg["id"], msg["ok"], msg["result"], msg.get("error")) == (req_id, ok, result, error)
    expected = {"id": req_id, "ok": ok, "result": result}
    assert line == compact_json(expected if error is None else {**expected, "error": error})


def compact_json(msg):
    """The wire form: compact, keys sorted."""
    return json.dumps(msg, separators=(",", ":"), sort_keys=True)


def test_decode_request_rejects_garbage():
    with pytest.raises(MalformedModelResponse):
        decode_request("not json")
    with pytest.raises(MalformedModelResponse):
        decode_request('{"id":"x","op":"nope"}')
    with pytest.raises(MalformedModelResponse):
        decode_request('{"id":"x","op":["retro"]}')


@pytest.mark.parametrize("decode", [decode_request, decode_response])
def test_integer_too_long_is_malformed(decode):
    # json.loads raises ValueError on an integer of over 4300 digits: a server must answer it
    with pytest.raises(MalformedModelResponse, match="Exceeds the limit"):
        decode('{"id":"x","op":"retro","inputs":["CN"],"params":{"beams":1' + "0" * 5000 + "}}")


@pytest.mark.parametrize("decode", [decode_request, decode_response])
def test_line_nested_too_deeply_is_malformed(decode):
    # json.loads raises RecursionError on this line: a server must answer it, not stop
    with pytest.raises(MalformedModelResponse, match="maximum recursion depth"):
        decode('{"id":"x","op":"retro","inputs":' + "[" * 100000)


class TestHandleRequest:
    def test_retro(self, toy_oracle):
        reply = handle_request(
            toy_oracle, decode_request(encode_request("1", "retro", ["CN"], {"beams": 5}))
        )
        msg = decode_response(reply)
        assert msg["ok"] is True
        assert msg["result"][0]["precursors"] == ["C", "N"]

    def test_score(self, toy_oracle):
        reply = handle_request(
            toy_oracle,
            decode_request(encode_request("2", "score", [["CNO", "S"], "CNOS"], {})),
        )
        assert decode_response(reply)["result"] == [1.0]

    def test_classify(self, toy_oracle):
        reply = handle_request(
            toy_oracle, decode_request(encode_request("3", "classify", ["C.N>>CN"], {}))
        )
        assert decode_response(reply)["result"]["superclass"] == 1

    def test_absent_beams_and_topk_take_their_defaults(self):
        # [Q] has 12 suggestions, and [A] 12 products
        oracle = ToyOracle(make_templates([
            {"lhs": [f"[B{i}]"], "rhs": "[Q]", "weight": 1 + i, "class": "1.1.1"} for i in range(12)
        ] + [
            {"lhs": ["[A]"], "rhs": f"[P{i}]", "weight": 1 + i, "class": "1.1.1"} for i in range(12)
        ]))
        for op, inputs, key, default in [("retro", ["[Q]"], "beams", 10),
                                         ("forward", [["[A]"]], "topk", 3)]:
            absent, explicit = (answer_line(oracle, encode_request("1", op, inputs, params))
                                for params in ({}, {key: default}))
            assert absent == explicit and len(decode_response(absent)["result"]) == default

    def test_error_reported(self, toy_oracle):
        reply = handle_request(
            toy_oracle, decode_request(encode_request("4", "classify", ["C.N"], {}))
        )
        msg = decode_response(reply)
        assert msg["ok"] is False and "error" in msg


def test_serve_stdio_golden(toy_oracle):
    requests = [
        encode_request("a", "retro", ["CNOS"], {"beams": 3}),
        encode_request("b", "forward", [["C", "N"]], {"topk": 3}),
        encode_request("c", "score", [["C", "N"], "CN"], {}),
        encode_request("d", "classify", ["CNO.S>>CNOS"], {}),
        "not json",
    ]
    out = io.StringIO()
    serve_stdio(toy_oracle, io.StringIO("\n".join(requests) + "\n"), out)
    lines = out.getvalue().strip().splitlines()
    golden = [
        {"id": "a", "ok": True,
         "result": [{"precursors": ["CNO", "S"], "reagents": []}]},
        {"id": "b", "ok": True, "result": [{"product": "CN", "likelihood": 1.0}]},
        {"id": "c", "ok": True, "result": [1.0]},
        {"id": "d", "ok": True,
         "result": {"superclass": 3, "category": 2, "named_reaction": 1, "label": ""}},
        {"id": "?", "ok": False, "result": None,
         "error": "MalformedModelResponse: bad request line: Expecting value: line 1 column 1 "
                  "(char 0)"},
    ]
    assert [json.loads(l) for l in lines] == golden


# requests the models cannot take, each with the field its error names: each is answered
# with its own id, and serving goes on
MALFORMED_REQUESTS = [
    ('{"id":"1","op":"retro","inputs":{},"params":{}}', "inputs"),
    ('{"id":"2","op":"retro","inputs":["CN"],"params":[]}', "params"),
    ('{"id":"3","op":"retro","inputs":["CN"],"params":{"beams":Infinity}}', "beams"),
    ('{"id":"4","op":"retro","inputs":["CNOS"],"params":{"beams":-1}}', "beams"),
    ('{"id":"5","op":"retro","inputs":["CNOS"],"params":{"beams":true}}', "beams"),
    ('{"id":"6","op":"retro","inputs":["CNOS"],"params":{"beams":1.9}}', "beams"),
    ('{"id":"7","op":"forward","inputs":[["C","N"]],"params":{"topk":0}}', "topk"),
    ('{"id":"8","op":"forward","inputs":[["C","N"]],"params":{"topk":-1}}', "topk"),
    ('{"id":"9","op":"forward","inputs":["CN"],"params":{}}', "inputs[0]"),
    ('{"id":"10","op":"retro","inputs":[],"params":{}}', "inputs"),
]
GOOD_REQUEST = encode_request(str(len(MALFORMED_REQUESTS) + 1), "classify", ["C.N>>CN"], {})


def assert_malformed_then_good_answered(replies):
    msgs = [json.loads(r) for r in replies]
    n = len(MALFORMED_REQUESTS)
    assert [(m["id"], m["ok"]) for m in msgs] == [
        *((str(i), False) for i in range(1, n + 1)), (str(n + 1), True)]
    for msg, (_, field) in zip(msgs, MALFORMED_REQUESTS):
        # a field of the wrong type is refused as `errors.expect` words it, one out of range
        # by its own rule
        assert re.match(f"MalformedModelResponse: {re.escape(field)}(: expected | must be )",
                        msg["error"]), msg["error"]


@pytest.mark.parametrize("op, inputs, params, error", [
    # a string where a list of strings belongs is not read as its letters
    ("forward", ["CN"], {}, "inputs[0]: expected a list of strings, got 'CN'"),
    ("score", ["CN", "CN"], {}, "inputs[0]: expected a list of strings, got 'CN'"),
    ("forward", [["C", "N"]], {"reagents": "N"}, "reagents: expected a list of strings, got 'N'"),
    ("score", [["C", 5], "CN"], {}, "inputs[0]: expected a list of strings, got ['C', 5]"),
    # each op takes as many inputs as its row of the op table
    ("retro", [], {}, "inputs must be a list of 1 for retro: []"),
    ("classify", ["C.N>>CN", "x"], {}, "inputs must be a list of 1 for classify: ['C.N>>CN', 'x']"),
    ("score", [["C", "N"]], {}, "inputs must be a list of 2 for score: [['C', 'N']]"),
], ids=["forward-string", "score-string", "reagents-string", "score-int-item", "retro-none",
        "classify-two", "score-one"])
def test_wrong_shaped_inputs_refused(toy_oracle, op, inputs, params, error):
    reply = answer_line(toy_oracle, encode_request("7", op, inputs, params))
    assert json.loads(reply) == {"id": "7", "ok": False, "result": None,
                                 "error": f"MalformedModelResponse: {error}"}


def test_oversized_inputs_refused_with_an_excerpt(toy_oracle):
    reply = answer_line(toy_oracle, encode_request("7", "classify", ["C.N>>CN"] * 1000, {}))
    assert len(reply.encode("utf-8")) < 300
    msg = json.loads(reply)
    assert (msg["id"], msg["ok"]) == ("7", False)
    assert msg["error"].startswith("MalformedModelResponse: inputs must be a list of 1 for classify: ")


def test_serve_stdio_answers_malformed_requests(toy_oracle):
    out = io.StringIO()
    lines = [line for line, _ in MALFORMED_REQUESTS] + [GOOD_REQUEST]
    serve_stdio(toy_oracle, io.StringIO("\n".join(lines) + "\n"), out)
    assert_malformed_then_good_answered(out.getvalue().splitlines())


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


@given(st.sampled_from(["retro", "forward", "score", "classify"]), json_values,
       st.one_of(json_values, st.dictionaries(
           st.sampled_from(["beams", "topk", "reagents"]), json_values, max_size=3)))
def test_any_request_is_answered_with_its_id(op, inputs, params):
    oracle = ToyOracle(make_templates(TOY_TEMPLATES))
    line = json.dumps({"id": "x", "op": op, "inputs": inputs, "params": params})
    assert decode_response(answer_line(oracle, line))["id"] == "x"


class Loopback:
    """A transport whose server is `answer_line` over `models`, in this process."""

    def __init__(self, models):
        self.models = models

    def call(self, line, req_id, timeout):
        return answer_line(self.models, line)


def test_loopback_client_answers_as_the_oracle():
    # each op's server answer, read back by the client through that op's row of wire.ANSWERS
    rng, reagent_suggestions = random.Random(5), 0
    for _ in range(10):
        molecules, templates = random_chemistry(rng)
        oracle = ToyOracle(templates)
        client = WireClient(Loopback(oracle), retries=0)
        suggested = []
        for target in molecules:
            for beams in (1, 3, 10):
                assert client.retro_predict(target, beams) == oracle.retro_predict(target, beams)
            suggested += oracle.retro_predict(target, 10)
        reagent_suggestions += sum(bool(ps.reagents) for ps in suggested)
        # and precursor sets drawn outside the templates, some with reagents
        for _ in range(10):
            drawn = rng.sample(molecules, rng.randint(1, 4))
            suggested.append(PrecursorSet(tuple(drawn), frozenset(drawn[1:2])))
        for ps in suggested:
            for topk in (1, 2, 5):
                assert client.forward_predict(ps, topk) == oracle.forward_predict(ps, topk)
            for product in molecules:
                assert client.score_reaction(ps, product) == oracle.score_reaction(ps, product)
                rxn = f"{ps.joined()}>>{product}"
                assert client.classify(rxn) == oracle.classify(rxn)
    assert reagent_suggestions > 0


class Canned:
    """A transport that answers each request with its own id and `reply`, `ok: true` unless
    `reply` says otherwise; NaN and infinities go out as `NaN` and `Infinity`."""

    def __init__(self, reply):
        self.reply = reply

    def call(self, line, req_id, timeout):
        return json.dumps({"id": req_id, "ok": True, **self.reply})


# each with the confidence and rank that older model services send, read by no one
SUGGESTION = {"precursors": ["C", "N"], "reagents": [], "confidence": 0.9, "rank": 1}
PRODUCT = {"product": "CN", "likelihood": 0.9, "rank": 1}
CLASS = {"superclass": 3, "category": 2, "named_reaction": 1, "label": "x"}
BEAMS, TOPK = 5, 3
# each op's call, at BEAMS and TOPK
CALLS = {
    "retro": lambda client: client.retro_predict("CN", BEAMS),
    "forward": lambda client: client.forward_predict(PrecursorSet(("C", "N")), TOPK),
    "score": lambda client: client.score_reaction(PrecursorSet(("C", "N")), "CN"),
    "classify": lambda client: client.classify("C.N>>CN"),
}

# replies that break a rule of their op's row in wire.ANSWERS, each with what it was
# read as before the client checked them
MALFORMED_REPLIES = {
    "retro-string": ("retro", {"result": [{**SUGGESTION, "precursors": "CN"}]}),  # C and N
    "retro-not-strings": ("retro", {"result": [{**SUGGESTION, "precursors": [1, None]}]}),
    "retro-empty": ("retro", {"result": [{**SUGGESTION, "precursors": []}]}),
    "retro-no-precursors": ("retro", {"result": [{"reagents": []}]}),
    "reagents-string": ("retro", {"result": [{**SUGGESTION, "reagents": "NO"}]}),  # {'N', 'O'}
    "retro-over-beams": ("retro", {"result": [SUGGESTION] * 20}),
    "retro-object": ("retro", {"result": SUGGESTION}),
    "retro-not-objects": ("retro", {"result": [["C", "N"]]}),
    "product-list": ("forward", {"result": [{**PRODUCT, "product": ["C"]}]}),  # "['C']"
    "likelihood-string": ("forward", {"result": [{**PRODUCT, "likelihood": "0.9"}]}),  # 0.9
    "likelihood-over-one": ("forward", {"result": [{**PRODUCT, "likelihood": 1.5}]}),
    "likelihood-absent": ("forward", {"result": [{"product": "CN", "rank": 1}]}),
    "forward-over-topk": ("forward", {"result": [PRODUCT] * 9}),
    "score-infinity": ("score", {"result": [math.inf]}),
    "score-nan": ("score", {"result": [math.nan]}),
    "score-bool": ("score", {"result": [True]}),  # 1.0
    "score-negative": ("score", {"result": [-0.5]}),
    "score-bare": ("score", {"result": 0.5}),
    "score-two": ("score", {"result": [0.5, 0.5]}),
    "superclass-string": ("classify", {"result": {**CLASS, "superclass": "3"}}),
    "superclass-float": ("classify", {"result": {**CLASS, "superclass": 1.9}}),
    "superclass-12": ("classify", {"result": {**CLASS, "superclass": 12}}),
    "category-negative": ("classify", {"result": {**CLASS, "category": -4}}),
    "named-reaction-bool": ("classify", {"result": {**CLASS, "named_reaction": True}}),
    "label-int": ("classify", {"result": {**CLASS, "label": 5}}),
    "classify-list": ("classify", {"result": [3, 2, 1]}),
    # a call that failed: `ok` is anything but the JSON true
    "ok-string": ("score", {"ok": "false", "result": [0.5], "error": "boom"}),
    "ok-one": ("score", {"ok": 1, "result": [0.5], "error": "boom"}),
    "ok-list": ("score", {"ok": [0], "result": [0.5], "error": "boom"}),
}


@pytest.mark.parametrize("op, reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
def test_reply_that_breaks_its_op_row_is_refused(op, reply):
    error = "model error .*: boom" if "ok" in reply else f"bad {op} result: "
    with pytest.raises(MalformedModelResponse, match=error):
        CALLS[op](WireClient(Canned(reply), retries=0))


@pytest.mark.parametrize("op, result, refusal", [
    ("retro", [SUGGESTION] * 40, f"result must be a list of at most {BEAMS} objects: "),
    ("forward", [{**PRODUCT, "likelihood": 10 ** 4000}], "likelihood must be a number in [0, 1]: "),
], ids=["forty-suggestions", "likelihood-of-4001-digits"])
def test_oversized_reply_refused_with_an_excerpt(op, result, refusal):
    with pytest.raises(MalformedModelResponse) as info:
        CALLS[op](WireClient(Canned({"result": result}), retries=0))
    message = str(info.value)
    assert message.startswith(f"bad {op} result: {refusal}") and len(message) < 300


def test_reply_keys_the_op_row_does_not_name_are_ignored():
    def read(op, result):
        return CALLS[op](WireClient(Canned({"result": result}), retries=0))

    assert read("retro", [SUGGESTION] * BEAMS) == [PrecursorSet(("C", "N"))] * BEAMS
    assert read("retro", [{"precursors": ["C", "N"]}]) == [PrecursorSet(("C", "N"))]
    assert read("forward", [PRODUCT] * TOPK) == [ForwardPrediction("CN", 0.9)] * TOPK
    assert read("score", [1]) == 1.0 and type(read("score", [0])) is float
    # an absent label is the empty one
    assert read("classify", {k: v for k, v in CLASS.items() if k != "label"}) == \
        ReactionClass(3, 2, 1, "")


def in_unit(value):
    return type(value) is float and 0 <= value <= 1


def strings(values):
    return all(type(v) is str for v in values)


# what each op's call may return
WELL_TYPED = {
    "retro": lambda v: type(v) is list and len(v) <= BEAMS and all(
        type(p) is PrecursorSet and p.molecules and strings(p.molecules) and strings(p.reagents)
        for p in v),
    "forward": lambda v: type(v) is list and len(v) <= TOPK and all(
        type(f) is ForwardPrediction and type(f.product) is str and in_unit(f.likelihood)
        for f in v),
    "score": in_unit,
    "classify": lambda v: type(v) is ReactionClass and type(v.label) is str
    and all(type(f) is int and f >= 0 for f in v[:3]) and v.superclass <= 11,
}

reply_leaves = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=4),
    st.sampled_from([0, 1, 11, 12, -1, 10 ** 400, 2 ** 64, math.inf, -math.inf, math.nan]),
)
reply_values = st.recursive(
    reply_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=BEAMS + 2),
        st.dictionaries(st.sampled_from([*SUGGESTION, *PRODUCT, *CLASS]) | st.text(max_size=3),
                        inner, max_size=5),
    ),
    max_leaves=16,
)


def op_results(other):
    """Results of each op's shape, each field of its JSON type or drawn from `other`."""
    molecules = st.lists(st.text(max_size=3), min_size=1) | other
    units = st.floats(min_value=0, max_value=1) | other
    return {
        "retro": st.lists(st.fixed_dictionaries(
            {"precursors": molecules}, optional={"reagents": molecules, "rank": other}),
            max_size=BEAMS + 2),
        "forward": st.lists(st.fixed_dictionaries(
            {"product": st.text(max_size=3) | other, "likelihood": units}), max_size=TOPK + 2),
        "score": st.lists(units, min_size=1, max_size=2),
        "classify": st.fixed_dictionaries(
            {key: st.integers(min_value=-1, max_value=12) | other
             for key in ReactionClass._fields[:3]},
            optional={"label": st.text(max_size=3) | other}),
    }


# values that a field of some op's result must not take
near_misses = st.sampled_from([-1, 12, True, 1.5, -0.5, "0.5", "C", [], [1], None, math.nan,
                               math.inf])
well_shaped_results = op_results(st.nothing())
shaped_results = op_results(near_misses | reply_values)


@pytest.mark.parametrize("op", CALLS)
@given(data=st.data())
def test_any_result_is_read_well_typed_or_refused(op, data):
    result = data.draw(reply_values | well_shaped_results[op] | shaped_results[op])
    try:
        value = CALLS[op](WireClient(Canned({"result": result}), retries=0))
    except MalformedModelResponse:
        return
    assert WELL_TYPED[op](value), value


def mock_serve_command(templates_file):
    return [
        sys.executable, "-m", "retroroute.cli", "mock-serve", str(templates_file),
        "--transport", "stdio",
    ]


class TestSubprocessClient:
    def test_end_to_end(self, templates_file, toy_oracle):
        client = WireClient(SubprocessTransport(mock_serve_command(templates_file)),
                            timeout=20)
        try:
            assert client.retro_predict("CN", 5) == toy_oracle.retro_predict("CN", 5)
            assert client.forward_predict(PrecursorSet(("C", "N")), 3) == \
                toy_oracle.forward_predict(PrecursorSet(("C", "N")), 3)
            assert client.score_reaction(PrecursorSet(("CN", "O")), "CNO") == \
                toy_oracle.score_reaction(PrecursorSet(("CN", "O")), "CNO")
            assert client.classify("C.N>>CN") == toy_oracle.classify("C.N>>CN")
        finally:
            client.close()

    def test_concurrent_calls(self, templates_file, toy_oracle):
        client = WireClient(SubprocessTransport(mock_serve_command(templates_file)),
                            timeout=20)
        results = {}

        def work(i, target):
            results[i] = client.retro_predict(target, 5)

        try:
            threads = [
                threading.Thread(target=work, args=(i, t))
                for i, t in enumerate(["CN", "CNO", "CNOS", "OS"] * 3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results[0] == toy_oracle.retro_predict("CN", 5)
            assert results[2] == toy_oracle.retro_predict("CNOS", 5)
        finally:
            client.close()

    def test_unavailable_command(self, monkeypatch):
        monkeypatch.setattr(wire, "RETRY_BACKOFF", 0.01)
        client = WireClient(
            SubprocessTransport(["/nonexistent-model-server"]), timeout=2, retries=1,
        )
        with pytest.raises(ModelUnavailable):
            client.retro_predict("CN", 5)

    def test_child_exit_is_unavailable_not_timeout(self, monkeypatch):
        # the child reads one request and exits without answering
        monkeypatch.setattr(wire, "RETRY_BACKOFF", 0.1)
        client = WireClient(
            SubprocessTransport([sys.executable, "-c", "import sys; sys.stdin.readline()"]),
            timeout=2, retries=1,
        )
        start = time.monotonic()
        try:
            with pytest.raises(ModelUnavailable):
                client.retro_predict("CN", 5)
        finally:
            client.close()
        assert time.monotonic() - start < 1.0

    def test_child_that_fails_before_its_first_reply_is_a_config_error(self, started):
        # the child exits 3 before it answers anything, as a model server that refuses its
        # own configuration does: no retry can mend that, so the client starts it once
        client = WireClient(SubprocessTransport(fake_child("sys.exit(3)\n")), timeout=10, retries=2)
        start = time.monotonic()
        try:
            with pytest.raises(ConfigError, match=r"exited with status 3 before its first reply$"):
                client.classify("C.N>>CN")
        finally:
            client.close()
        assert time.monotonic() - start < 2.0
        assert len(started) == 1 and started[0].returncode == 3
        assert started[0].stdin.closed and started[0].stdout.closed

    def test_child_that_fails_after_a_reply_is_unavailable(self, started):
        # the same exit after a reply, on reading the next request, is an outage
        transport = SubprocessTransport(fake_child(
            "reply(sys.stdin.readline()); sys.stdin.readline(); sys.exit(3)\n"
        ))
        try:
            assert decode_response(self.call(transport, "1"))["id"] == "1"
            with pytest.raises(ModelUnavailable, match="closed its output before answering 2$"):
                self.call(transport, "2")
        finally:
            transport.close()
        assert len(started) == 1 and started[0].returncode is not None

    def test_child_that_fails_on_one_input_after_a_reply_is_unavailable(self, started, monkeypatch):
        # the child answers every input but "X", on which it exits 1. Each retry's new child
        # fails on "X" as its first request, but a child of this transport has replied: an
        # outage the caller may defer, not a configuration error
        monkeypatch.setattr(wire, "RETRY_BACKOFF", 0.01)
        client = WireClient(SubprocessTransport(fake_child(
            "for line in sys.stdin:\n"
            "    if json.loads(line)['inputs'] == ['X']: sys.exit(1)\n"
            "    reply(line)\n", LABELLED,
        )), timeout=10, retries=2)
        try:
            assert client.classify("ok").label == "ok"
            with pytest.raises(ModelUnavailable, match="closed its output before answering"):
                client.classify("X")
        finally:
            client.close()
        assert len(started) == 3 and [p.returncode for p in started] == [1, 1, 1]

    def test_call_after_reader_exit_does_not_wait(self, started):
        # each child closes its output but stays alive: the call that finds the
        # output closed fails at once and closes the child, the next starts anew
        transport = SubprocessTransport(
            [sys.executable, "-c", "import os, time; os.close(1); time.sleep(30)"]
        )
        try:
            for i in range(3):
                start = time.monotonic()
                with pytest.raises(ModelUnavailable):
                    transport.call(encode_request(str(i), "classify", ["C.N>>CN"], {}),
                                   str(i), timeout=2)
                assert time.monotonic() - start < 1.0
        finally:
            transport.close()
        assert len(started) == 3
        for proc in started:
            assert proc.stdin.closed and proc.stdout.closed and proc.returncode is not None

    def test_child_that_closes_its_output_is_replaced(self, started):
        # the child answers once, then closes its output and stays alive
        transport = SubprocessTransport(fake_child(
            "reply(sys.stdin.readline()); os.close(1); time.sleep(30)\n"
        ))
        try:
            assert decode_response(self.call(transport, "1"))["id"] == "1"
            start = time.monotonic()
            with pytest.raises(ModelUnavailable, match="closed its output"):
                self.call(transport, "2")
            assert time.monotonic() - start < 1.0
            first = started[0]
            assert first.returncode is not None
            assert first.stdin.closed and first.stdout.closed
            assert decode_response(self.call(transport, "3"))["id"] == "3"
        finally:
            transport.close()
        assert len(started) == 2

    def call(self, transport, req_id):
        return transport.call(encode_request(req_id, "classify", ["x"], {}), req_id, timeout=10)

    def test_late_reply_is_dropped(self):
        # the first request is answered after its caller has given up
        transport = SubprocessTransport(fake_child(
            "first = sys.stdin.readline(); time.sleep(0.5); reply(first)\n"
            "for line in sys.stdin:\n"
            "    reply(line)\n"
        ))
        try:
            with pytest.raises(ModelTimeout):
                transport.call(encode_request("1", "classify", ["x"], {}), "1", timeout=0.1)
            replies = [
                transport.call(encode_request(i, "classify", [i], {}), i, timeout=10)
                for i in ("2", "3")
            ]
        finally:
            transport.close()
        assert [decode_response(r)["id"] for r in replies] == ["2", "3"]

    def test_malformed_reply_line_is_skipped(self, caplog):
        transport = SubprocessTransport(fake_child(
            "for line in sys.stdin:\n"
            "    sys.stdout.write('not json\\n'); reply(line)\n"
        ))
        try:
            with caplog.at_level(logging.WARNING, logger="retroroute.wire"):
                reply = transport.call(encode_request("1", "classify", ["x"], {}), "1", timeout=10)
        finally:
            transport.close()
        assert decode_response(reply)["id"] == "1"
        assert "dropping malformed response line" in caplog.text

    def test_closed_and_replaced_children_release_their_pipes(self, started):
        # each child answers one request, then exits and is replaced
        transport = SubprocessTransport(fake_child("reply(sys.stdin.readline())\n"))
        try:
            for i in range(2):
                self.call(transport, str(i))
                started[-1].wait(timeout=10)
        finally:
            transport.close()
        assert len(started) == 2
        for proc in started:
            assert proc.stdin.closed and proc.stdout.closed
            assert proc.returncode is not None

    def test_children_dying_under_concurrent_callers_are_all_closed(self, started):
        # each child answers one request and exits; callers share one client,
        # and every child must end up closed
        client = WireClient(
            SubprocessTransport(fake_child("reply(sys.stdin.readline())\n", LABELLED)),
            timeout=10, retries=0,
        )
        outcomes = []

        def work(t):
            for i in range(5):
                req_id = f"{t}.{i}"
                try:
                    assert client.classify(req_id).label == req_id
                    outcomes.append("ok")
                except ModelUnavailable:
                    outcomes.append("unavailable")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert len(outcomes) == 20 and "ok" in outcomes
        assert len(started) >= outcomes.count("ok")
        for proc in started:
            assert proc.stdin.closed and proc.stdout.closed
            assert proc.returncode is not None

    def test_call_starts_no_thread(self):
        transport = SubprocessTransport(fake_child("for line in sys.stdin:\n    reply(line)\n"))
        before = threading.active_count()
        try:
            for i in range(3):
                transport.call(encode_request(str(i), "classify", ["x"], {}), str(i), timeout=10)
                assert threading.active_count() == before
        finally:
            transport.close()


# a classify result whose label is the request's input, as a Python expression over `msg`
LABELLED = "{'superclass': 1, 'category': 1, 'named_reaction': 1, 'label': msg['inputs'][0]}"


def fake_child(body, result="msg['inputs']"):
    """A model child running `body`; `reply(line)` answers a request line with `result`.

    `result` is a Python expression over the decoded request `msg`: by default its inputs.
    """
    prelude = (
        "import json, os, sys, time\n"
        "def reply(line):\n"
        "    msg = json.loads(line)\n"
        f"    sys.stdout.write(json.dumps({{'id': msg['id'], 'ok': True, 'result': {result}}}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    return [sys.executable, "-c", prelude + body]


@pytest.fixture
def started(monkeypatch):
    """The model processes the wire layer starts during the test, in order."""
    procs, popen = [], subprocess.Popen

    def record(*args, **kwargs):
        proc = popen(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(subprocess, "Popen", record)
    return procs


def recorded(transport):
    """`transport`, keeping the (op, inputs, params) of each request it sends in `.sent`."""
    call, transport.sent = transport.call, []

    def record(line, req_id, timeout):
        msg = decode_request(line)
        transport.sent.append(json.dumps([msg["op"], msg["inputs"], msg["params"]]))
        return call(line, req_id, timeout)

    transport.call = record
    return transport


class TestFailedCall:
    """A failed call raises its error, and the same call made again is sent again."""

    def test_model_error_reply(self, templates_file):
        client = WireClient(recorded(SubprocessTransport(mock_serve_command(templates_file))),
                            timeout=20)
        try:
            for _ in range(2):
                with pytest.raises(MalformedModelResponse, match="model error"):
                    client.classify("C.N")
        finally:
            client.close()
        assert len(client.transport.sent) == 2

    def test_unreadable_result(self):
        # the child answers a classify request with its inputs, which is not a class
        client = WireClient(
            recorded(SubprocessTransport(fake_child("for line in sys.stdin:\n    reply(line)\n"))),
            timeout=10, retries=0,
        )
        try:
            for _ in range(2):
                with pytest.raises(MalformedModelResponse, match="bad classify result"):
                    client.classify("C.N>>CN")
        finally:
            client.close()
        assert len(client.transport.sent) == 2

    @pytest.mark.parametrize("body, error, timeout", [
        # never answers, so the call waits out its timeout
        pytest.param("sys.stdin.read()\n", ModelTimeout, 0.2,
                     id="sys.stdin.read()\n-ModelTimeout"),
        # exits without answering; the call fails when the child exits, so the long
        # timeout only leaves room for the child's interpreter to start
        pytest.param("sys.stdin.readline()\n", ModelUnavailable, 10,
                     id="sys.stdin.readline()\n-ModelUnavailable"),
    ])
    def test_failed_request(self, body, error, timeout):
        client = WireClient(recorded(SubprocessTransport(fake_child(body))),
                            timeout=timeout, retries=0)
        try:
            for _ in range(2):
                with pytest.raises(error):
                    client.classify("C.N>>CN")
        finally:
            client.close()
        assert len(client.transport.sent) == 2


class Faulty(ChemModels):
    """The toy oracle's answers, but its `fault` op, while set, is unavailable."""

    def __init__(self, templates):
        self.oracle = ToyOracle(templates)
        self.fault, self.failures = None, 0

    def ask(self, op, method, *args):
        if self.fault == op:
            self.failures += 1
            raise ModelUnavailable(f"{op} is down")
        return getattr(self.oracle, method)(*args)

    def retro_predict(self, target, beams):
        return self.ask("retro", "retro_predict", target, beams)

    def score_reaction(self, precursors, product):
        return self.ask("score", "score_reaction", precursors, product)

    def forward_predict(self, precursors, topk):
        return self.ask("forward", "forward_predict", precursors, topk)

    def classify(self, rxn):
        return self.ask("classify", "classify", rxn)


class TestExpansionStore:
    def client(self, command, **kwargs):
        return WireClient(recorded(SubprocessTransport(command)), timeout=20, **kwargs)

    @staticmethod
    def plan(target, models, stock, normalizer):
        """Routes, snapshot and trace of `target`, as one string."""
        trace = []
        outcome = beam_search(target, SearchConfig(), models, stock, normalizer, trace=trace)
        routes = [route_to_json(outcome.graph, p) for p in outcome.pathways]
        return json.dumps([routes, outcome.graph.to_json(), trace], sort_keys=True)

    def test_second_target_asks_nothing_about_a_stored_node(self, templates_file, toy_stock):
        fresh = {t: self.plan(t, ToyOracle(make_templates(TOY_TEMPLATES)), toy_stock,
                              ToyNormalizer()) for t in ("CNO", "CNOS")}
        client, normalizer = self.client(mock_serve_command(templates_file)), ToyNormalizer()
        sent = client.transport.sent
        try:
            assert self.plan("CNO", client, toy_stock, normalizer) == fresh["CNO"]
            first = list(sent)
            # CNO and CN were expanded for CNO: only CNOS itself is asked about
            assert self.plan("CNOS", client, toy_stock, normalizer) == fresh["CNOS"]
            second = sent[len(first):]
            assert first and second
            assert [json.loads(r)[1] for r in second if json.loads(r)[0] == "retro"] == [["CNOS"]]
            assert not set(first) & set(second)
            assert self.plan("CNO", client, toy_stock, normalizer) == fresh["CNO"]
            assert len(sent) == len(first) + len(second)
        finally:
            client.close()

    @pytest.mark.parametrize("op", ["retro", "score", "forward", "classify"])
    def test_expansion_that_met_a_model_failure_is_not_stored(self, op, toy_stock):
        # CNP's one candidate is not auto-accepted, so its expansion asks the forward model
        want = {t: self.plan(t, ToyOracle(make_templates(TOY_TEMPLATES)), toy_stock,
                             ToyNormalizer()) for t in ("CNOS", "CNP")}
        models, normalizer = Faulty(make_templates(TOY_TEMPLATES)), ToyNormalizer()
        models.fault = op
        faulty = {t: self.plan(t, models, toy_stock, normalizer) for t in want}
        assert models.failures > 0 and faulty != want
        models.fault = None
        assert {t: self.plan(t, models, toy_stock, normalizer) for t in want} == want

    def test_bound_drops_the_oldest_expansion_first(self, toy_oracle, monkeypatch):
        monkeypatch.setattr(expand, "STORED_EXPANSIONS", 2)
        asked, retro = [], toy_oracle.retro_predict

        def retro_predict(target, beams):
            asked.append(target)
            return retro(target, beams)

        toy_oracle.retro_predict = retro_predict
        normalizer, stock = ToyNormalizer(), make_stock(())

        def expand_root(target):
            g = HyperGraph()
            g.get_or_insert_node(target, simplicity=0.5)
            expand_node(g, g.root, ExpansionConfig(), toy_oracle, normalizer,
                        HeavyTokenScorer(), stock)

        for target in ("CN", "CNO", "OS", "OS", "CNO", "CN", "OS"):
            expand_root(target)
            assert len(expand._stores[toy_oracle]) <= 2
        # OS and CNO were stored; CN was dropped, then stored again, dropping CNO
        assert asked == ["CN", "CNO", "OS", "CN"]
        assert [key[2] for key in expand._stores[toy_oracle]] == ["OS", "CN"]

    def test_concurrent_callers_keep_the_bound(self, monkeypatch):
        monkeypatch.setattr(expand, "STORED_EXPANSIONS", 4)
        molecules, templates = random_chemistry(random.Random(14), n_molecules=10,
                                                n_templates=14)
        models, normalizer, stock = ToyOracle(templates), ToyNormalizer(), make_stock(())

        def snapshot(target, oracle):
            g = HyperGraph()
            g.get_or_insert_node(target, simplicity=0.5)
            expand_node(g, g.root, ExpansionConfig(), oracle, normalizer, HeavyTokenScorer(),
                        stock)
            return g.dumps()

        want = {m: snapshot(m, ToyOracle(templates)) for m in molecules}
        errors, sizes, interval = [], [], sys.getswitchinterval()

        def work(t):
            try:
                for i in range(30):
                    molecule = molecules[(t + i) % len(molecules)]
                    assert snapshot(molecule, models) == want[molecule]
                    with expand._stores_lock:
                        sizes.append(len(expand._stores[models]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(sizes) == 240 and max(sizes) == 4

    def test_store_goes_away_with_its_client(self, templates_file, toy_stock):
        gc.collect()
        before = len(expand._stores)
        client = self.client(mock_serve_command(templates_file))
        try:
            self.plan("CNOS", client, toy_stock, ToyNormalizer())
        finally:
            client.close()
        assert len(expand._stores) == before + 1 and expand._stores[client]
        alive = weakref.ref(client)
        del client
        gc.collect()
        assert alive() is None and len(expand._stores) == before

    @pytest.mark.parametrize("callers", [1, 8])
    def test_planning_in_one_session_matches_a_fresh_oracle(self, tmp_path, callers):
        # the toy chemistry, and a random one whose templates carry reagents;
        # one caller sends each request once, and several callers planning
        # at once through one client neither hang nor change a route
        molecules, templates = random_chemistry(random.Random(14), n_molecules=10,
                                                n_templates=14)
        chemistries = [
            (TOY_TEMPLATES, ["C", "N", "O", "S"], ["CNOS", "CNO", "CNP", "OS", "CN"]),
            ([{"lhs": list(t.reactants), "rhs": t.product, "weight": t.weight,
               "class": t.reaction_class.code, "reagents": list(t.reagents)}
              for t in templates], molecules[:4], molecules[4:]),
        ]
        cfg = SearchConfig(n_beams=5, max_steps=4)

        def plan(graph_of, target, oracle, stock, normalizer):
            result = beam_search(target, cfg, oracle, stock, normalizer)
            graph_of[target] = (result.graph.dumps(), json.dumps(
                [route_to_json(result.graph, p) for p in result.pathways]))

        for i, (entries, stock_molecules, targets) in enumerate(chemistries):
            assert any(e.get("reagents") for e in entries) == (i == 1)
            path = tmp_path / f"templates{i}.json"
            path.write_text(json.dumps(entries), "utf-8")
            stock = make_stock(stock_molecules)
            want = {}
            for target in targets:
                plan(want, target, ToyOracle(make_templates(entries)), stock, ToyNormalizer())
            client, normalizer = self.client(mock_serve_command(path)), ToyNormalizer()
            got = [{} for _ in range(callers)]
            errors = []

            def work(c):
                try:
                    for k in range(len(targets)):
                        plan(got[c], targets[(c + k) % len(targets)], client, stock, normalizer)
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(c,)) for c in range(callers)]
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                client.close()
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert got == [want] * callers
            if callers == 1:
                sent = client.transport.sent
                assert len(sent) == len(set(sent))


def test_http_transport(toy_oracle):
    server = serve_http(toy_oracle, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = WireClient(
            HttpTransport(f"http://127.0.0.1:{server.server_port}/"), timeout=10
        )
        assert client.retro_predict("CNOS", 5) == toy_oracle.retro_predict("CNOS", 5)
        assert client.classify("C.N>>CN").code == "1.1.1"
        client.close()
        # a malformed line is answered with id "?" and does not spoil the good one
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            conn.request("POST", "/", body=encode_request("g", "score", [["C", "N"], "CN"], {})
                         + "\nnot json\n")
            lines = conn.getresponse().read().decode("utf-8").splitlines()
        finally:
            conn.close()
        assert [json.loads(l)["id"] for l in lines] == ["g", "?"]
        assert json.loads(lines[0])["result"] == [1.0]
        assert json.loads(lines[1])["ok"] is False
    finally:
        server.shutdown()
        server.server_close()


def test_serve_http_keeps_the_connection_alive(toy_oracle):
    server = serve_http(toy_oracle, "127.0.0.1", 0)
    connections, process_request = [], server.process_request

    def counted(request, client_address):
        connections.append(client_address)
        process_request(request, client_address)

    server.process_request = counted
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = WireClient(HttpTransport(f"http://127.0.0.1:{server.server_port}/"), timeout=10)
    try:
        for rxn in ["C.N>>CN", "CN.O>>CNO", "CNO.S>>CNOS", "O.S>>OS", "P.F>>CN"]:
            assert client.classify(rxn) == toy_oracle.classify(rxn)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
    assert len(connections) == 1


def test_serve_http_answers_without_a_delayed_ack_stall(toy_oracle):
    # with Nagle's algorithm on, each keep-alive reply waits about 40 ms
    # for the client's delayed ACK
    server = serve_http(toy_oracle, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = WireClient(HttpTransport(f"http://127.0.0.1:{server.server_port}/"), timeout=10)
    reactions = [f"{a}.{b}>>{a}{b}" for a in "CNOSPF" for b in "CNOSPF" if a != b]
    try:
        start = time.monotonic()
        for rxn in reactions:
            assert client.classify(rxn) == toy_oracle.classify(rxn)
        elapsed = time.monotonic() - start
    finally:
        client.close()
        server.shutdown()
        server.server_close()
    assert len(reactions) == 30 and elapsed < 0.6


@pytest.mark.parametrize(
    "length, status",
    [(None, 400), ("-1", 400), ("12x", 400), (str(MAX_REQUEST_BYTES + 1), 413)],
)
def test_http_rejects_bad_content_length_unread(toy_oracle, length, status):
    server = serve_http(toy_oracle, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
    try:
        # no body is sent: the server must answer from the headers alone
        conn.putrequest("POST", "/")
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders()
        assert conn.getresponse().status == status
    finally:
        conn.close()
        server.shutdown()
        server.server_close()


def test_serve_http_answers_malformed_requests(toy_oracle):
    server = serve_http(toy_oracle, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    replies, statuses = [], []
    try:
        # a body that is not UTF-8 is refused; the connection closes after it
        for body in [b"\xff\xfe\n", *(line.encode("utf-8") for line, _ in MALFORMED_REQUESTS),
                     GOOD_REQUEST.encode("utf-8")]:
            conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
            try:
                conn.request("POST", "/", body=body)
                resp = conn.getresponse()
                statuses.append(resp.status)
                replies += resp.read().decode("utf-8").splitlines() if resp.status == 200 else []
            finally:
                conn.close()
    finally:
        server.shutdown()
        server.server_close()
    assert statuses == [400] + [200] * (len(MALFORMED_REQUESTS) + 1)
    assert_malformed_then_good_answered(replies)


def echo_handler(status, protocol_version="HTTP/1.0", result=lambda inputs: inputs, before=""):
    """A handler answering each request line with `status` and `result` of its inputs.

    The reply body starts with the text `before`. The handler counts its connections.
    """

    class Handler(BaseHTTPRequestHandler):
        connections = []

        def setup(self):
            super().setup()
            self.connections.append(self.client_address)

        def do_POST(self):  # noqa: N802 (http.server API)
            msg = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            reply = encode_response(msg["id"], True, result(msg["inputs"]))
            payload = (before + reply + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            pass

    Handler.protocol_version = protocol_version
    return Handler


def labelled(inputs):
    """A classify result whose label is the request's input."""
    return {"superclass": 1, "category": 1, "named_reaction": 1, "label": inputs[0]}


@contextlib.contextmanager
def http_server(handler):
    """The URL of a local server running `handler`, shut down on exit."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        server.server_close()


class TestHttpTransport:
    def call(self, transport, timeout=10):
        return transport.call(encode_request("7", "classify", ["x"], {}), "7", timeout)

    def test_keep_alive_connection_is_reused(self):
        handler = echo_handler(200, "HTTP/1.1")
        with http_server(handler) as url:
            transport = HttpTransport(url)
            try:
                for _ in range(3):
                    assert json.loads(self.call(transport))["result"] == ["x"]
            finally:
                transport.close()
        assert len(handler.connections) == 1

    def test_concurrent_callers_never_share_a_connection(self):
        # a connection used by two callers at once would fail a call or cross replies;
        # callers share one client, which takes their calls one at a time
        handler = echo_handler(200, "HTTP/1.1", labelled)
        errors, interval = [], sys.getswitchinterval()

        def work(t):
            try:
                for i in range(20):
                    req_id = f"{t}-{i}"
                    assert client.classify(req_id).label == req_id
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            with http_server(handler) as url:
                client = WireClient(HttpTransport(url), timeout=10)
                threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                client.close()
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(handler.connections) == 1

    def test_connection_the_server_closed_while_idle_is_replaced(self):
        handler = echo_handler(200, "HTTP/1.1")
        handler.timeout = 0.2  # the server drops a connection idle this long
        with http_server(handler) as url:
            transport = HttpTransport(url)
            try:
                self.call(transport)
                time.sleep(0.6)
                assert json.loads(self.call(transport))["result"] == ["x"]
            finally:
                transport.close()
        assert len(handler.connections) == 2

    def test_malformed_line_before_the_reply_is_dropped(self, caplog):
        with http_server(echo_handler(200, before="not json\n" + "y" * 5000 + "\n")) as url:
            transport = HttpTransport(url)
            try:
                with caplog.at_level(logging.WARNING, logger="retroroute.wire"):
                    assert json.loads(self.call(transport))["result"] == ["x"]
            finally:
                transport.close()
        assert "dropping malformed response line: 'not json'" in caplog.text
        # each dropped line is logged as an excerpt, a 5000-character one too
        logged = [r.getMessage() for r in caplog.records]
        assert len(logged) == 2 and all(len(m.encode()) < 300 for m in logged)

    def test_status_500_is_unavailable(self):
        with http_server(echo_handler(500)) as url:
            transport = HttpTransport(url)
            with pytest.raises(ModelUnavailable, match="HTTP 500"):
                self.call(transport)
            transport.close()

    def test_silent_server_times_out(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)  # the connection is queued, never accepted or answered
            transport = HttpTransport(f"http://127.0.0.1:{listener.getsockname()[1]}/")
            start = time.monotonic()
            with pytest.raises(ModelTimeout):
                self.call(transport, timeout=0.3)
            assert time.monotonic() - start < 0.3 + 1.0
            transport.close()

    def test_closed_port_is_unavailable(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        transport = HttpTransport(f"http://127.0.0.1:{port}/")
        with pytest.raises(ModelUnavailable):
            self.call(transport)
        transport.close()

    @pytest.mark.parametrize("endpoint", ["ftp://127.0.0.1/", "127.0.0.1:8000", "http://"])
    def test_endpoint_that_is_not_an_http_url_is_a_config_error(self, endpoint):
        with pytest.raises(ConfigError):
            build_models(ModelManifest(transport="http", endpoint=endpoint))


class TestTokenSubstitution:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "tokens.tsv"
        path.write_text("[Long1]\tCCCCCCCC\n[Long2]\tNNNNNNNN\n", "utf-8")
        subst = TokenSubstitution.load(path)
        assert subst.encode("CCCCCCCC.O") == "[Long1].O"
        assert subst.decode("[Long1].O") == "CCCCCCCC.O"
        assert subst.decode(subst.encode("CCCCCCCC.NNNNNNNN")) == "CCCCCCCC.NNNNNNNN"

    def test_comments_cut_as_in_every_line_file(self, tmp_path):
        path = tmp_path / "tokens.tsv"
        path.write_text("  # note\n[T]\tCC#N  # acetonitrile\n[U]\tN#N\n", "utf-8")
        subst = TokenSubstitution.load(path)
        assert subst.token_to_smiles == {"[T]": "CC#N", "[U]": "N#N"}

    def test_applied_at_gateway(self, templates_file, tmp_path):
        # the mock speaks full strings; an identity-free dictionary must not
        # disturb traffic for molecules outside the dictionary
        path = tmp_path / "tokens.tsv"
        path.write_text("[LongX]\tPPPPPPPPPP\n", "utf-8")
        client = WireClient(
            SubprocessTransport(mock_serve_command(templates_file)),
            substitution=TokenSubstitution.load(path),
            timeout=20,
        )
        try:
            assert client.retro_predict("CNOS", 5)[0].molecules == ("CNO", "S")
        finally:
            client.close()


@pytest.mark.parametrize("fields", [
    {"transport": "grpc"}, {"transport": 5}, {"transport": "toy"},
    {"transport": "toy", "templates_path": ""}, {"transport": "subprocess", "command": None},
    {"command": []}, {"transport": "http"}, {"transport": "http", "endpoint": ""},
    {"timeout": 0}, {"timeout": -1.0}, {"timeout": math.inf}, {"timeout": math.nan},
    {"timeout": "60"}, {"timeout": True}, {"timeout": None},
    {"retries": -1}, {"retries": 1.0}, {"retries": True}, {"retries": "2"}, {"retries": None},
    {"templates_path": 5}, {"token_dict_path": ["t.tsv"]}, {"command": "python3 -m x"},
    {"command": ["python3", 1]}, {"endpoint": 5},
], ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()))
def test_manifest_refuses_bad_fields(fields):
    # built directly, as a library caller may, a manifest checks what `load` would
    with pytest.raises(ConfigError):
        ModelManifest(**{"transport": "subprocess", "command": ["python3"], **fields})


def test_manifest_fields_and_defaults():
    manifest = ModelManifest("subprocess", command=("python3", "-m", "x"))
    assert (manifest.transport, manifest.command) == ("subprocess", ("python3", "-m", "x"))
    assert (manifest.templates_path, manifest.endpoint, manifest.token_dict_path) == (None,) * 3
    assert (manifest.timeout, manifest.retries) == (60.0, 2)
    assert ModelManifest("http", endpoint="http://h/", timeout=1, retries=0).timeout == 1


def test_build_models_toy(toy_manifest):
    models = build_models(ModelManifest.load(toy_manifest))
    assert isinstance(models, ToyOracle)
    assert models.retro_predict("CN", 5)[0].molecules == ("C", "N")

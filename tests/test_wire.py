import io
import json
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from retroroute.errors import MalformedModelResponse, ModelUnavailable
from retroroute.models import ModelManifest, PrecursorSet, TokenSubstitution
from retroroute.toy import ToyOracle
from retroroute.wire import (
    HttpTransport,
    SubprocessTransport,
    WireClient,
    build_models,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    handle_request,
    serve_http,
    serve_stdio,
)

from conftest import TOY_TEMPLATES, make_templates


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


@given(st.text(min_size=1, max_size=12), st.booleans(), st.lists(json_scalars, max_size=4))
def test_response_roundtrip(req_id, ok, result):
    msg = decode_response(encode_response(req_id, ok, result))
    assert (msg["id"], msg["ok"], msg["result"]) == (req_id, ok, result)


def test_decode_request_rejects_garbage():
    with pytest.raises(MalformedModelResponse):
        decode_request("not json")
    with pytest.raises(MalformedModelResponse):
        decode_request('{"id":"x","op":"nope"}')


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
    ]
    out = io.StringIO()
    serve_stdio(toy_oracle, io.StringIO("\n".join(requests) + "\n"), out)
    lines = out.getvalue().strip().splitlines()
    golden = [
        {"id": "a", "ok": True,
         "result": [{"precursors": ["CNO", "S"], "reagents": [], "confidence": 1.0,
                     "rank": 1}]},
        {"id": "b", "ok": True,
         "result": [{"product": "CN", "likelihood": 1.0, "rank": 1}]},
        {"id": "c", "ok": True, "result": [1.0]},
        {"id": "d", "ok": True,
         "result": {"superclass": 3, "category": 2, "named_reaction": 1, "label": ""}},
    ]
    assert [json.loads(l) for l in lines] == golden


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
                            timeout=20, max_in_flight=8)
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

    def test_unavailable_command(self):
        client = WireClient(
            SubprocessTransport(["/nonexistent-model-server"]), timeout=2,
            retries=1, backoff=0.01,
        )
        with pytest.raises(ModelUnavailable):
            client.retro_predict("CN", 5)

    def test_child_exit_is_unavailable_not_timeout(self):
        # the child reads one request and exits without answering
        client = WireClient(
            SubprocessTransport([sys.executable, "-c", "import sys; sys.stdin.readline()"]),
            timeout=2, retries=1, backoff=0.1,
        )
        start = time.monotonic()
        try:
            with pytest.raises(ModelUnavailable):
                client.retro_predict("CN", 5)
        finally:
            client.close()
        assert time.monotonic() - start < 1.0

    def test_call_after_reader_exit_does_not_wait(self):
        # the child closes its output but stays alive, so it is not restarted
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
    finally:
        server.shutdown()
        server.server_close()


class TestTokenSubstitution:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "tokens.tsv"
        path.write_text("[Long1]\tCCCCCCCC\n[Long2]\tNNNNNNNN\n", "utf-8")
        subst = TokenSubstitution.load(path)
        assert subst.encode("CCCCCCCC.O") == "[Long1].O"
        assert subst.decode("[Long1].O") == "CCCCCCCC.O"
        assert subst.decode(subst.encode("CCCCCCCC.NNNNNNNN")) == "CCCCCCCC.NNNNNNNN"

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
            pred = client.retro_predict("CNOS", 5)[0]
            assert pred.precursors.molecules == ("CNO", "S")
        finally:
            client.close()


def test_build_models_toy(toy_manifest):
    models = build_models(ModelManifest.load(toy_manifest))
    assert isinstance(models, ToyOracle)
    assert models.retro_predict("CN", 5)[0].precursors.molecules == ("C", "N")

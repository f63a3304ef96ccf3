import http.client
import io
import json
import logging
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from retroroute.errors import MalformedModelResponse, ModelTimeout, ModelUnavailable
from retroroute.models import ModelManifest, PrecursorSet, TokenSubstitution
from retroroute import wire
from retroroute.toy import ToyOracle
from retroroute.wire import (
    MAX_REQUEST_BYTES,
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
        "not json",
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
        {"id": "?", "ok": False, "result": None,
         "error": "bad request line: Expecting value: line 1 column 1 (char 0)"},
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

    def test_replies_out_of_order_reach_their_callers(self):
        # the child answers only once it holds both requests, last one first
        transport = SubprocessTransport(fake_child(
            "a = sys.stdin.readline(); b = sys.stdin.readline()\n"
            "reply(b); reply(a)\n"
            "sys.stdin.read()\n"
        ))
        replies = {}

        def work(req_id):
            replies[req_id] = transport.call(
                encode_request(req_id, "classify", [req_id], {}), req_id, timeout=10
            )

        threads = [threading.Thread(target=work, args=(i,)) for i in ("a", "b")]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
            assert not any(t.is_alive() for t in threads)
        finally:
            transport.close()
        for req_id in ("a", "b"):
            msg = decode_response(replies[req_id])
            assert (msg["id"], msg["result"]) == (req_id, [req_id])

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
            reply = transport.call(encode_request("2", "classify", ["y"], {}), "2", timeout=10)
            assert transport._child.replies == {}  # the late reply was not kept
        finally:
            transport.close()
        assert decode_response(reply)["id"] == "2"

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

    def test_closed_and_replaced_children_release_their_pipes(self):
        # each child answers one request, then exits and is replaced
        transport = SubprocessTransport(fake_child("reply(sys.stdin.readline())\n"))
        children = []
        try:
            for i in range(2):
                transport.call(encode_request(str(i), "classify", ["x"], {}), str(i), timeout=10)
                children.append(transport._child)
                children[-1].proc.wait(timeout=10)
        finally:
            transport.close()
        assert children[0] is not children[1]
        for child in children:
            assert child.proc.stdin.closed and child.proc.stdout.closed
            assert child.proc.returncode is not None

    def test_child_replaced_under_a_waiting_caller_is_closed_when_it_leaves(self, tmp_path):
        # the first child exits at once, but a grandchild keeps its stdout open,
        # so the first caller still waits on it when the next call replaces it
        marker = tmp_path / "started"
        transport = SubprocessTransport(fake_child(
            f"import os\nmarker = {str(marker)!r}\n"
            "if not os.path.exists(marker):\n"
            "    open(marker, 'w').close(); sys.stdin.readline()\n"
            "    if os.fork() == 0:\n"
            "        time.sleep(4)\n"
            "    os._exit(0)\n"
            "for line in sys.stdin:\n"
            "    reply(line)\n"
        ))
        errors = []

        def wait_on_first_child():
            try:
                transport.call(encode_request("1", "classify", ["x"], {}), "1", timeout=2)
            except ModelTimeout as exc:
                errors.append(exc)

        waiter = threading.Thread(target=wait_on_first_child)
        try:
            waiter.start()
            while transport._child is None or not transport._child.replies:
                time.sleep(0.01)
            first = transport._child
            first.proc.wait(timeout=10)
            transport.call(encode_request("2", "classify", ["y"], {}), "2", timeout=10)
            assert transport._child is not first and first.replies
            assert not first.proc.stdout.closed  # its caller still reads it
            waiter.join(timeout=10)
            assert not waiter.is_alive() and len(errors) == 1
            assert first.proc.stdin.closed and first.proc.stdout.closed
        finally:
            transport.close()

    def test_children_dying_under_concurrent_callers_are_all_closed(self, monkeypatch):
        # each child answers one request and exits, while other callers may
        # still be registered on it; every child must end up closed
        children = []

        class Recorded(wire._Child):
            def __init__(self, command):
                super().__init__(command)
                children.append(self)

        monkeypatch.setattr(wire, "_Child", Recorded)
        transport = SubprocessTransport(fake_child("reply(sys.stdin.readline())\n"))
        outcomes = []

        def work(t):
            for i in range(5):
                req_id = f"{t}.{i}"
                try:
                    transport.call(encode_request(req_id, "classify", [req_id], {}),
                                   req_id, timeout=10)
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
            transport.close()
        assert len(outcomes) == 20 and "ok" in outcomes
        for child in children:
            assert child.replies == {}
            assert child.proc.stdin.closed and child.proc.stdout.closed
            assert child.proc.returncode is not None

    def test_call_starts_no_thread(self):
        transport = SubprocessTransport(fake_child("for line in sys.stdin:\n    reply(line)\n"))
        before = threading.active_count()
        try:
            for i in range(3):
                transport.call(encode_request(str(i), "classify", ["x"], {}), str(i), timeout=10)
                assert threading.active_count() == before
        finally:
            transport.close()


def fake_child(body):
    """A model child running `body`; `reply(line)` answers a request line with its inputs."""
    prelude = (
        "import json, sys, time\n"
        "def reply(line):\n"
        "    msg = json.loads(line)\n"
        "    sys.stdout.write(json.dumps({'id': msg['id'], 'ok': True, 'result': msg['inputs']}) + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    return [sys.executable, "-c", prelude + body]


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

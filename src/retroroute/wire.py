"""Newline-delimited JSON protocol shared by real model services and the mock.

One request per line: ``{"id","op","inputs","params"}``; one response per
line: ``{"id","ok","result","error"}``. The same payloads travel over a
local subprocess (stdin/stdout) or HTTP POST.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import select
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    EXCERPT,
    ConfigError,
    MalformedModelResponse,
    ModelTimeout,
    ModelUnavailable,
    RetroRouteError,
    expect,
    parse_json,
)
from .models import (
    ChemModels,
    ForwardPrediction,
    ModelManifest,
    PrecursorSet,
    ReactionClass,
    TokenSubstitution,
)

# largest HTTP request body serve_http reads; a longer one is refused unread
MAX_REQUEST_BYTES = 8 * 1024 * 1024

# seconds a WireClient waits before its first retry; each later wait doubles
RETRY_BACKOFF = 0.5


# --- message encoding -------------------------------------------------------

# compact, key-sorted JSON; one encoder for every message (json.dumps builds one per call)
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _field(value: Any, kind: Any, field: str) -> Any:
    """`errors.expect`, refusing with a MalformedModelResponse (quicker than a keyword partial)."""
    return expect(value, kind, field, MalformedModelResponse)


def encode_request(req_id: str, op: str, inputs: List[Any], params: Dict[str, Any]) -> str:
    return _encode({"id": req_id, "op": op, "inputs": inputs, "params": params})


def decode_request(line: str) -> Dict[str, Any]:
    msg = _field(parse_json(line, "bad request line", MalformedModelResponse), dict, "request")
    if _field(msg.get("op"), str, "request op") not in ANSWERS:
        raise MalformedModelResponse(f"request op: unknown op {EXCERPT.repr(msg['op'])}")
    _field(msg.get("id"), str, "request id")
    msg.setdefault("inputs", [])
    msg.setdefault("params", {})
    return msg


def encode_response(req_id: str, ok: bool, result: Any = None, error: Optional[str] = None) -> str:
    msg: Dict[str, Any] = {"id": req_id, "ok": ok, "result": result}
    if error is not None:
        msg["error"] = error
    return _encode(msg)


def decode_response(line: str) -> Dict[str, Any]:
    msg = _field(parse_json(line, "bad response line", MalformedModelResponse), dict, "response")
    if "id" not in msg or "ok" not in msg:
        raise MalformedModelResponse(f"bad response message: {EXCERPT.repr(line)}")
    return msg


# --- the op table ----------------------------------------------------------
#
# The rules below read the fields of a request (server side) and of a reply
# (client side) alike; each refuses what breaks it with a MalformedModelResponse.
# Each field's type is read by `errors.expect`; only the range checks are here.

def _precursors(molecules: Any, holder: Dict[str, Any], field: str) -> PrecursorSet:
    """The precursor set of a non-empty list of `molecules`, flagging the list of strings
    `holder["reagents"]` (none when absent); `holder` is a request's params or a suggestion."""
    if not _field(molecules, [str], field):
        raise MalformedModelResponse(f"{field} must be a non-empty list: []")
    reagents = _field(holder.get("reagents", []), [str], "reagents")
    return PrecursorSet(tuple(molecules), frozenset(reagents))


def _count(params: Dict[str, Any], key: str, default: int) -> int:
    """`params[key]`, or `default` when it is absent; anything but a positive integer is refused."""
    value = _field(params.get(key, default), int, key)
    if value < 1:
        raise MalformedModelResponse(f"{key} must be a positive integer: {EXCERPT.repr(value)}")
    return value


def _unit(value: Any, field: str) -> float:
    """`value` if it is a number in [0, 1], as a likelihood or a score is; NaN is not."""
    if not 0 <= _field(value, float, field) <= 1:
        raise MalformedModelResponse(f"{field} must be a number in [0, 1]: {EXCERPT.repr(value)}")
    return float(value)


def _objects(result: Any, params: Dict[str, Any], key: str, default: int) -> List[dict]:
    """`result` if it is a list of at most as many objects as the request's `params[key]`."""
    most = _count(params, key, default)
    if len(_field(result, [dict], "result")) > most:
        raise MalformedModelResponse(f"result must be a list of at most {most} objects: {EXCERPT.repr(result)}")
    return result


def _read_retro(result: Any, params: Dict[str, Any]) -> List[PrecursorSet]:
    return [_precursors(entry.get("precursors"), entry, "precursors")
            for entry in _objects(result, params, "beams", 10)]


def _read_forward(result: Any, params: Dict[str, Any]) -> List[ForwardPrediction]:
    return [ForwardPrediction(_field(entry.get("product"), str, "product"),
                              _unit(entry.get("likelihood"), "likelihood"))
            for entry in _objects(result, params, "topk", 3)]


def _read_score(result: Any, params: Dict[str, Any]) -> float:
    if len(_field(result, list, "result")) != 1:
        raise MalformedModelResponse(f"result must be a list of one score: {EXCERPT.repr(result)}")
    return _unit(result[0], "score")


def _read_class(result: Any, params: Dict[str, Any]) -> ReactionClass:
    label = _field(_field(result, dict, "result").get("label", ""), str, "label")
    fields = [_field(result.get(key), int, key) for key in ReactionClass._fields[:3]]
    if min(fields) < 0:
        raise MalformedModelResponse(f"class fields must be non-negative integers: {EXCERPT.repr(fields)}")
    try:
        return ReactionClass(*fields, label)
    except ValueError as exc:  # a superclass over 11
        raise MalformedModelResponse(str(exc)) from exc


# each op's input count; its answer, the result the server sends, from the models, the
# inputs (a list) and the params; and its reader, the client's value of that result
ANSWERS: Dict[str, Tuple[int, Callable[[ChemModels, List[Any], Dict[str, Any]], Any],
                         Callable[[Any, Dict[str, Any]], Any]]] = {
    "retro": (1, lambda models, inputs, params: [
        {"precursors": list(p.molecules), "reagents": sorted(p.reagents)}
        for p in models.retro_predict(_field(inputs[0], str, "inputs[0]"),
                                      _count(params, "beams", 10))
    ], _read_retro),
    "forward": (1, lambda models, inputs, params: [
        {"product": f.product, "likelihood": f.likelihood}
        for f in models.forward_predict(_precursors(inputs[0], params, "inputs[0]"),
                                        _count(params, "topk", 3))
    ], _read_forward),
    "score": (2, lambda models, inputs, params: [
        models.score_reaction(_precursors(inputs[0], params, "inputs[0]"),
                              _field(inputs[1], str, "inputs[1]"))
    ], _read_score),
    "classify": (1, lambda models, inputs, params: models.classify(
        _field(inputs[0], str, "inputs[0]"))._asdict(), _read_class),
}


# --- server side ------------------------------------------------------------

def handle_request(models: ChemModels, msg: Dict[str, Any]) -> str:
    """The answer to one decoded request. One the models cannot take gets ``ok: false``
    and its own id, so that the client fails at once instead of waiting out its timeout."""
    op, inputs, params = msg["op"], msg["inputs"], msg["params"]
    n, answer, _ = ANSWERS[op]
    try:
        if len(_field(inputs, list, "inputs")) != n:
            raise MalformedModelResponse(f"inputs must be a list of {n} for {op}: {EXCERPT.repr(inputs)}")
        result = answer(models, inputs, _field(params, dict, "params"))
    except (RetroRouteError, ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        return encode_response(msg["id"], ok=False, error=f"{type(exc).__name__}: {exc}")
    return encode_response(msg["id"], ok=True, result=result)


def answer_line(models: ChemModels, line: str) -> str:
    """Response to one request line; an undecodable line is answered with id "?"."""
    try:
        msg = decode_request(line)
    except MalformedModelResponse as exc:
        return encode_response("?", ok=False, error=f"{type(exc).__name__}: {exc}")
    return handle_request(models, msg)


def serve_stdio(models: ChemModels, in_stream, out_stream) -> None:
    """Serve the protocol line-by-line until EOF."""
    for line in in_stream:
        line = line.strip()
        if line:
            out_stream.write(answer_line(models, line) + "\n")
            out_stream.flush()


def serve_http(models: ChemModels, host: str, port: int) -> "ThreadingHTTPServer":
    """Serve the protocol over HTTP POST; body = one request line per line."""
    # imported here so that the stdio model child never loads it
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive: a client reuses its connection
        # headers and body go out as two writes; with Nagle's algorithm on, the
        # client's delayed ACK holds every reply about 40 ms
        disable_nagle_algorithm = True

        def do_POST(self):  # noqa: N802 (http.server API)
            try:
                length = int(self.headers.get("Content-Length", ""))
            except ValueError:
                length = -1
            if length < 0:
                self.send_error(400, "a non-negative integer Content-Length is required")
                return
            if length > MAX_REQUEST_BYTES:
                self.send_error(413, f"request body over {MAX_REQUEST_BYTES} bytes")
                return
            try:
                body = self.rfile.read(length).decode("utf-8")
            except UnicodeDecodeError:
                self.send_error(400, "the request body is not UTF-8")
                return
            lines = [answer_line(models, raw) for raw in body.splitlines() if raw.strip()]
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            import logging  # here, so that the stdio model child never loads it
            logging.getLogger(__name__).debug("http: " + fmt, *args)

    return ThreadingHTTPServer((host, port), Handler)


# --- transports -------------------------------------------------------------

def _reply_in(lines: Iterable[bytes], req_id: str) -> Optional[str]:
    """The first of `lines` that answers `req_id`; other ids and malformed lines are dropped."""
    for raw in lines:
        line = raw.strip().decode("utf-8", "replace")
        if not line:
            continue
        try:
            msg = decode_response(line)
        except MalformedModelResponse:
            import logging  # here, so that the stdio model child never loads it
            logging.getLogger(__name__).warning("dropping malformed response line: %s", EXCERPT.repr(line))
            continue
        if msg["id"] == req_id:
            return line
    return None


class SubprocessTransport:
    """Speaks the protocol to a child process over stdin/stdout.

    One request is in flight at a time: the caller writes its line, then reads the child's output
    until the reply with its id. A line with another id (a late reply to a timed-out call) is
    dropped. A child that has exited or closed its output is closed and replaced on the next call,
    unless it failed before any child had replied: a ConfigError, which no retry mends (see `_ended`).
    Calls must not overlap; `WireClient` makes them one at a time.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc = None  # the child (a subprocess.Popen) while one runs
        self._poller = select.poll()
        self._buf = b""  # the child's output after its last complete line
        self._answered = False  # whether any child has replied yet

    def call(self, line: str, req_id: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        proc = self._proc
        if proc is None or proc.poll() is not None:
            import subprocess  # here, so that the stdio model child never loads it
            self.close()
            try:
                proc = self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
                )
            except OSError as exc:
                raise ModelUnavailable(f"cannot start {self.command}: {exc}") from exc
            self._poller = select.poll()
            self._poller.register(proc.stdout, select.POLLIN)
            self._buf = b""
        try:
            proc.stdin.write(line.encode("utf-8") + b"\n")
            proc.stdin.flush()
        except OSError as exc:
            raise ModelUnavailable(f"model process died: {exc}") from exc
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ModelTimeout(f"no response within {timeout}s for {req_id}")
            if not self._poller.poll(math.ceil(remaining * 1000)):
                continue
            try:
                data = os.read(proc.stdout.fileno(), 65536)
            except OSError:
                data = b""
            if not data:
                raise self._ended(req_id)
            *lines, self._buf = (self._buf + data).split(b"\n")
            # lines after the reply can only answer older requests: dropped too
            reply = _reply_in(lines, req_id)
            if reply is not None:
                self._answered = True
                return reply

    def _ended(self, req_id: str) -> Exception:
        """Close the child whose output ended while `req_id` waited: a ConfigError if no child has
        replied yet and it exits by itself in 0.25 s with a status above 0, else ModelUnavailable."""
        import subprocess
        try:
            status = 0 if self._answered else self._proc.wait(timeout=0.25)
        except subprocess.TimeoutExpired:  # it closed its output but runs on
            status = 0
        self.close()
        if status > 0:
            return ConfigError(f"model process {self.command} exited with status {status} before its first reply")
        return ModelUnavailable(f"model process {self.command} closed its output before answering {req_id}")

    def close(self) -> None:
        """Stop the child, if one runs, and close its pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        import subprocess
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # a request the dead child never read
                pass


class HttpTransport:
    """POSTs one request line at a time over one connection, kept alive after a full 200 reply."""

    def __init__(self, endpoint: str):
        # imported here so that the stdio model child never loads them
        import http.client
        from urllib.parse import urlsplit, urlunsplit

        classes = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        parts = urlsplit(endpoint)
        if parts.scheme not in classes or not parts.netloc:
            raise ConfigError(f"endpoint {endpoint!r} is not an http:// or https:// URL")
        self.endpoint = endpoint
        # connects on the first request, and again on the next one after close()
        self._conn = classes[parts.scheme](parts.netloc)
        self._path = urlunsplit(("", "", parts.path or "/", parts.query, ""))

    def call(self, line: str, req_id: str, timeout: float) -> str:
        import http.client

        conn = self._conn
        conn.timeout = timeout
        if conn.sock is not None:
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if poller.poll(0):  # closed by the server while idle: the request reconnects
                conn.close()
            else:
                conn.sock.settimeout(timeout)
        try:
            conn.request("POST", self._path, body=(line + "\n").encode("utf-8"))
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException) as exc:  # a socket timeout is an OSError
            conn.close()
            error = ModelTimeout if isinstance(exc, TimeoutError) else ModelUnavailable
            raise error(f"{self.endpoint}: {exc!r}") from exc
        if resp.status != 200:
            conn.close()
            raise ModelUnavailable(f"HTTP {resp.status} from {self.endpoint}")
        reply = _reply_in(body.splitlines(), req_id)
        if reply is None:
            raise MalformedModelResponse(f"no response with id {req_id} in reply")
        return reply

    def close(self) -> None:
        self._conn.close()


# --- client -----------------------------------------------------------------

class WireClient(ChemModels):
    """ChemModels implementation over a wire transport.

    Applies the token-substitution dictionary at the model boundary: targets
    are encoded before the retro call and suggested precursors are expanded
    back before any forward-model use. Failed calls are retried with
    exponential backoff. One request is in flight at a time: a client
    shared by threads serves their calls one by one. Every call is a
    round-trip: the client keeps no replies. The planner keeps whole
    expansions per client instead (see `retroroute.expand`).
    """

    def __init__(
        self,
        transport,
        substitution: Optional[TokenSubstitution] = None,
        timeout: float = 60.0,
        retries: int = 2,
    ):
        self.transport = transport
        self.substitution = substitution
        self.timeout = timeout
        self.retries = retries
        self._ids = itertools.count()
        # held for a whole call, retries included, so calls never overlap on the transport
        self._lock = threading.Lock()

    def _call(self, op: str, inputs: List[Any], params: Dict[str, Any]) -> Any:
        """The request's result, read by its op's row of `ANSWERS`. A reply whose `ok` is
        not `true`, or whose result breaks a rule of that row, is a malformed response."""
        with self._lock:
            for attempt in range(self.retries + 1):
                req_id = str(next(self._ids))
                line = encode_request(req_id, op, inputs, params)
                try:
                    reply = self.transport.call(line, req_id, self.timeout)
                    break
                except (ModelUnavailable, ModelTimeout):
                    if attempt == self.retries:
                        raise
                    time.sleep(RETRY_BACKOFF * (2 ** attempt))
        msg = decode_response(reply)  # the transport returns only the reply to req_id
        if msg["ok"] is not True:
            raise MalformedModelResponse(f"model error for op {op!r}: {msg.get('error')}")
        _, _, read = ANSWERS[op]
        try:
            return read(msg.get("result"), params)
        except MalformedModelResponse as exc:
            raise MalformedModelResponse(f"bad {op} result: {exc}") from exc

    def retro_predict(self, target: str, beams: int) -> List[PrecursorSet]:
        subst = self.substitution
        if subst is None:
            return self._call("retro", [target], {"beams": beams})
        decode = subst.decode
        return [PrecursorSet(tuple(map(decode, p.molecules)), frozenset(map(decode, p.reagents)))
                for p in self._call("retro", [subst.encode(target)], {"beams": beams})]

    def forward_predict(self, precursors: PrecursorSet, topk: int) -> List[ForwardPrediction]:
        return self._call("forward", [list(precursors.molecules)],
                          {"topk": topk, "reagents": sorted(precursors.reagents)})

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        return self._call("score", [list(precursors.molecules), product],
                          {"reagents": sorted(precursors.reagents)})

    def classify(self, rxn: str) -> ReactionClass:
        return self._call("classify", [rxn], {})

    def close(self) -> None:
        with self._lock:
            self.transport.close()


def build_models(manifest: ModelManifest) -> ChemModels:
    """Construct the model client described by a manifest."""
    if manifest.transport == "toy":
        from .toy import ToyOracle, load_templates

        return ToyOracle(load_templates(manifest.templates_path))
    path = manifest.token_dict_path
    substitution = TokenSubstitution.load(path) if path else None
    if manifest.transport == "subprocess":
        transport = SubprocessTransport(manifest.command)
    else:
        transport = HttpTransport(manifest.endpoint)
    return WireClient(
        transport,
        substitution=substitution,
        timeout=manifest.timeout,
        retries=manifest.retries,
    )

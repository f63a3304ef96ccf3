"""Newline-delimited JSON protocol shared by real model services and the mock.

One request per line: ``{"id","op","inputs","params"}``; one response per
line: ``{"id","ok","result","error"}``. The same payloads travel over a
local subprocess (stdin/stdout) or HTTP POST.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import select
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from .errors import (
    MalformedModelResponse,
    ModelError,
    ModelTimeout,
    ModelUnavailable,
    RetroRouteError,
)
from .models import (
    ChemModels,
    ForwardPrediction,
    ModelManifest,
    PrecursorSet,
    ReactionClass,
    RetroPrediction,
    TokenSubstitution,
)

logger = logging.getLogger(__name__)

OPS = ("retro", "forward", "score", "classify")

# largest HTTP request body serve_http reads; a longer one is refused unread
MAX_REQUEST_BYTES = 8 * 1024 * 1024


# --- message encoding -------------------------------------------------------

def encode_request(req_id: str, op: str, inputs: List[Any], params: Dict[str, Any]) -> str:
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}")
    return json.dumps(
        {"id": req_id, "op": op, "inputs": inputs, "params": params},
        separators=(",", ":"),
        sort_keys=True,
    )


def decode_request(line: str) -> Dict[str, Any]:
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedModelResponse(f"bad request line: {exc}") from exc
    if not isinstance(msg, dict) or msg.get("op") not in OPS:
        raise MalformedModelResponse(f"bad request message: {line!r}")
    msg.setdefault("inputs", [])
    msg.setdefault("params", {})
    if not isinstance(msg.get("id"), str):
        raise MalformedModelResponse(f"request id must be a string: {line!r}")
    return msg


def encode_response(req_id: str, ok: bool, result: Any = None, error: Optional[str] = None) -> str:
    msg: Dict[str, Any] = {"id": req_id, "ok": ok, "result": result}
    if error is not None:
        msg["error"] = error
    return json.dumps(msg, separators=(",", ":"), sort_keys=True)


def decode_response(line: str) -> Dict[str, Any]:
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedModelResponse(f"bad response line: {exc}") from exc
    if not isinstance(msg, dict) or "id" not in msg or "ok" not in msg:
        raise MalformedModelResponse(f"bad response message: {line!r}")
    return msg


# --- server side ------------------------------------------------------------

def handle_request(models: ChemModels, msg: Dict[str, Any]) -> str:
    """Dispatch one decoded request against a model implementation."""
    op = msg["op"]
    inputs = msg["inputs"]
    params = msg["params"]
    try:
        if op == "retro":
            predictions = models.retro_predict(inputs[0], int(params.get("beams", 10)))
            result: Any = [
                {
                    "precursors": list(p.precursors.molecules),
                    "reagents": sorted(p.precursors.reagents),
                    "confidence": p.model_confidence,
                    "rank": p.rank,
                }
                for p in predictions
            ]
        elif op == "forward":
            ps = PrecursorSet(
                tuple(inputs[0]), frozenset(params.get("reagents", ()))
            )
            result = [
                {"product": f.product, "likelihood": f.likelihood, "rank": f.rank}
                for f in models.forward_predict(ps, int(params.get("topk", 3)))
            ]
        elif op == "score":
            ps = PrecursorSet(
                tuple(inputs[0]), frozenset(params.get("reagents", ()))
            )
            result = [models.score_reaction(ps, inputs[1])]
        elif op == "classify":
            cls = models.classify(inputs[0])
            result = {
                "superclass": cls.superclass,
                "category": cls.category,
                "named_reaction": cls.named_reaction,
                "label": cls.label,
            }
        else:  # unreachable after decode_request
            raise MalformedModelResponse(f"unknown op {op!r}")
    except (RetroRouteError, IndexError, TypeError, ValueError) as exc:
        return encode_response(msg["id"], ok=False, error=f"{type(exc).__name__}: {exc}")
    return encode_response(msg["id"], ok=True, result=result)


def answer_line(models: ChemModels, line: str) -> str:
    """Response to one request line; an undecodable line is answered with id "?"."""
    try:
        msg = decode_request(line)
    except MalformedModelResponse as exc:
        return encode_response("?", ok=False, error=str(exc))
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
            body = self.rfile.read(length).decode("utf-8")
            lines = [answer_line(models, raw) for raw in body.splitlines() if raw.strip()]
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            logger.debug("http: " + fmt, *args)

    server = ThreadingHTTPServer((host, port), Handler)
    return server


# --- transports -------------------------------------------------------------

class _Child:
    """One model process and what has been read from its output so far."""

    def __init__(self, command: List[str]):
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.fd = self.proc.stdout.fileno()
        self.poller = select.poll()
        self.poller.register(self.fd, select.POLLIN)
        self.buf = b""
        # id -> reply line, or None until it arrives; only waiting callers have an entry
        self.replies: Dict[str, Optional[str]] = {}
        self.reading = False
        self.eof = False

    def read(self, timeout: float) -> Optional[bytes]:
        """Wait up to `timeout` seconds for output: None if none came, b"" at EOF."""
        if not self.poller.poll(math.ceil(timeout * 1000)):
            return None
        try:
            return os.read(self.fd, 65536)
        except OSError:
            return b""

    def file(self, data: bytes) -> None:
        """Keep each complete reply line in `data` for the caller waiting on its id."""
        *lines, self.buf = (self.buf + data).split(b"\n")
        for raw in lines:
            line = raw.strip().decode("utf-8", "replace")
            if not line:
                continue
            try:
                msg = decode_response(line)
            except MalformedModelResponse:
                logger.warning("dropping malformed response line: %r", line)
                continue
            req_id = msg["id"]
            if isinstance(req_id, str) and req_id in self.replies:
                self.replies[req_id] = line

    def close(self) -> None:
        """Stop the process and close its pipes; no caller may still use them."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # a request the dead child never read
                pass


class SubprocessTransport:
    """Speaks the protocol to a child process over stdin/stdout.

    The thread that sends a request reads its own reply. One caller at a
    time holds the reader role: it reads what the child has written, keeps a
    reply for the other caller that waits on its id, drops a reply nobody
    waits for (a late one to a timed-out call), and gives the role up.
    Replies are matched by id, so the service may answer out of order.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._child: Optional[_Child] = None
        self._cond = threading.Condition()
        self._write_lock = threading.Lock()

    def call(self, line: str, req_id: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        with self._cond:
            child = self._child
            if child is None or child.proc.poll() is not None:
                if child is not None:
                    self._retire(child)
                try:
                    child = self._child = _Child(self.command)
                except OSError as exc:
                    raise ModelUnavailable(f"cannot start {self.command}: {exc}") from exc
            if child.eof:
                raise ModelUnavailable(f"model process {self.command} closed its output")
            child.replies[req_id] = None
        try:
            with self._write_lock:
                child.proc.stdin.write(line.encode("utf-8") + b"\n")
                child.proc.stdin.flush()
        except OSError as exc:
            with self._cond:
                self._leave(child, req_id)
            raise ModelUnavailable(f"model process died: {exc}") from exc
        with self._cond:
            try:
                return self._await(child, req_id, deadline, timeout)
            finally:
                self._leave(child, req_id)

    def _await(self, child: _Child, req_id: str, deadline: float, timeout: float) -> str:
        """Wait, holding the condition, for the reply to `req_id`."""
        while True:
            reply = child.replies[req_id]
            if reply is not None:
                return reply
            if child.eof:
                raise ModelUnavailable(
                    f"model process closed its output before answering {req_id}"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ModelTimeout(f"no response within {timeout}s for {req_id}")
            if child.reading:
                self._cond.wait(remaining)
                continue
            child.reading = True
            self._cond.release()
            try:
                data = child.read(remaining)
            finally:
                self._cond.acquire()
                child.reading = False
                self._cond.notify_all()
            if data == b"":
                child.eof = True
            elif data:
                child.file(data)

    def _leave(self, child: _Child, req_id: str) -> None:
        del child.replies[req_id]
        if child is not self._child:
            self._retire(child)

    @staticmethod
    def _retire(child: _Child) -> None:
        """Stop a replaced child; close it unless a caller is registered on it.

        Closing under a caller could hand its descriptors to the next child's
        pipes, so the last caller to leave closes it instead.
        """
        if child.replies:
            child.proc.terminate()
        else:
            child.close()

    def close(self) -> None:
        with self._cond:
            child, self._child = self._child, None
            if child is not None:
                self._retire(child)


class HttpTransport:
    """POSTs one request line at a time to a model endpoint."""

    def __init__(self, endpoint: str, session: Optional["requests.Session"] = None):
        # imported here so that the subprocess child, which serves stdio, never loads it
        import requests

        self.endpoint = endpoint
        self.session = session or requests.Session()

    def call(self, line: str, req_id: str, timeout: float) -> str:
        import requests

        try:
            resp = self.session.post(self.endpoint, data=line + "\n", timeout=timeout)
        except requests.Timeout as exc:
            raise ModelTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise ModelUnavailable(str(exc)) from exc
        if resp.status_code != 200:
            raise ModelUnavailable(f"HTTP {resp.status_code} from {self.endpoint}")
        for raw in resp.text.splitlines():
            if not raw.strip():
                continue
            msg = decode_response(raw)
            if msg["id"] == req_id:
                return raw
        raise MalformedModelResponse(f"no response with id {req_id} in reply")

    def close(self) -> None:
        self.session.close()


# --- client -----------------------------------------------------------------

class WireClient(ChemModels):
    """ChemModels implementation over a wire transport.

    Applies the token-substitution dictionary at the model boundary: targets
    are encoded before the retro call and suggested precursors are expanded
    back before any forward-model use. Failed calls are retried with
    exponential backoff; concurrent in-flight requests are capped.
    """

    def __init__(
        self,
        transport,
        substitution: Optional[TokenSubstitution] = None,
        timeout: float = 60.0,
        retries: int = 2,
        max_in_flight: int = 8,
        backoff: float = 0.5,
    ):
        self.transport = transport
        self.substitution = substitution
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._ids = itertools.count()

    def _call(self, op: str, inputs: List[Any], params: Dict[str, Any]) -> Any:
        last_error: Optional[ModelError] = None
        for attempt in range(self.retries + 1):
            req_id = str(next(self._ids))
            line = encode_request(req_id, op, inputs, params)
            try:
                with self._slots:
                    reply = self.transport.call(line, req_id, self.timeout)
                msg = decode_response(reply)
                if msg["id"] != req_id:
                    raise MalformedModelResponse(
                        f"response id {msg['id']!r} does not match request {req_id!r}"
                    )
                if not msg.get("ok"):
                    raise MalformedModelResponse(
                        f"model error for op {op!r}: {msg.get('error')}"
                    )
                return msg.get("result")
            except (ModelUnavailable, ModelTimeout) as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.backoff * (2 ** attempt))
        assert last_error is not None
        raise last_error

    def retro_predict(self, target: str, beams: int) -> List[RetroPrediction]:
        if self.substitution is not None:
            target = self.substitution.encode(target)
        result = self._call("retro", [target], {"beams": beams})
        predictions = []
        try:
            for entry in result:
                molecules = [str(m) for m in entry["precursors"]]
                reagents = [str(m) for m in entry.get("reagents", ())]
                if self.substitution is not None:
                    molecules = [self.substitution.decode(m) for m in molecules]
                    reagents = [self.substitution.decode(m) for m in reagents]
                predictions.append(
                    RetroPrediction(
                        precursors=PrecursorSet(tuple(molecules), frozenset(reagents)),
                        model_confidence=float(entry["confidence"]),
                        rank=int(entry["rank"]),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedModelResponse(f"bad retro result: {result!r}") from exc
        return predictions

    def forward_predict(
        self, precursors: PrecursorSet, topk: int
    ) -> List[ForwardPrediction]:
        result = self._call(
            "forward",
            [list(precursors.molecules)],
            {"topk": topk, "reagents": sorted(precursors.reagents)},
        )
        try:
            return [
                ForwardPrediction(
                    product=str(entry["product"]),
                    likelihood=float(entry["likelihood"]),
                    rank=int(entry["rank"]),
                )
                for entry in result
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedModelResponse(f"bad forward result: {result!r}") from exc

    def score_reaction(self, precursors: PrecursorSet, product: str) -> float:
        result = self._call(
            "score",
            [list(precursors.molecules), product],
            {"reagents": sorted(precursors.reagents)},
        )
        try:
            return float(result[0])
        except (IndexError, TypeError, ValueError) as exc:
            raise MalformedModelResponse(f"bad score result: {result!r}") from exc

    def classify(self, rxn: str) -> ReactionClass:
        result = self._call("classify", [rxn], {})
        try:
            return ReactionClass(
                superclass=int(result["superclass"]),
                category=int(result["category"]),
                named_reaction=int(result["named_reaction"]),
                label=str(result.get("label", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedModelResponse(f"bad classify result: {result!r}") from exc

    def close(self) -> None:
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()


def build_models(manifest: ModelManifest) -> ChemModels:
    """Construct the model client described by a manifest."""
    if manifest.transport == "toy":
        from .toy import ToyOracle

        return ToyOracle.from_file(manifest.templates_path)
    substitution = manifest.token_substitution()
    if manifest.transport == "subprocess":
        transport = SubprocessTransport(manifest.command)
    else:
        transport = HttpTransport(manifest.endpoint)
    return WireClient(
        transport,
        substitution=substitution,
        timeout=manifest.timeout,
        retries=manifest.retries,
        max_in_flight=manifest.max_in_flight,
    )

"""Newline-delimited JSON protocol shared by real model services and the mock.

One request per line: ``{"id","op","inputs","params"}``; one response per
line: ``{"id","ok","result","error"}``. The same payloads travel over a
local subprocess (stdin/stdout) or HTTP POST.
"""

from __future__ import annotations

import json
import logging
import queue
import subprocess
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence

import requests

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


def serve_stdio(models: ChemModels, in_stream, out_stream) -> None:
    """Serve the protocol line-by-line until EOF."""
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            msg = decode_request(line)
        except MalformedModelResponse as exc:
            out_stream.write(encode_response("?", ok=False, error=str(exc)) + "\n")
            out_stream.flush()
            continue
        out_stream.write(handle_request(models, msg) + "\n")
        out_stream.flush()


def serve_http(models: ChemModels, host: str, port: int) -> ThreadingHTTPServer:
    """Serve the protocol over HTTP POST; body = one request line per line."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (http.server API)
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length).decode("utf-8")
            lines = []
            for raw in body.splitlines():
                if not raw.strip():
                    continue
                try:
                    msg = decode_request(raw)
                except MalformedModelResponse as exc:
                    lines.append(encode_response("?", ok=False, error=str(exc)))
                    continue
                lines.append(handle_request(models, msg))
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

class SubprocessTransport:
    """Speaks the protocol to a child process over stdin/stdout.

    A background thread reads replies and matches them to requests by id,
    so out-of-order completion by the service is permitted.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc: Optional[subprocess.Popen] = None
        # waiters of the running child's reader; None once that reader has
        # reached EOF, so that nothing registers for replies that never come
        self._pending: Optional[Dict[str, "queue.Queue[Optional[str]]"]] = None
        self._lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None

    def _ensure(self) -> None:
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                try:
                    self._proc = subprocess.Popen(
                        self.command,
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                        bufsize=1,
                    )
                except OSError as exc:
                    raise ModelUnavailable(f"cannot start {self.command}: {exc}") from exc
                self._pending = {}
                self._reader = threading.Thread(
                    target=self._read_loop, args=(self._proc, self._pending), daemon=True
                )
                self._reader.start()

    def _read_loop(self, proc: subprocess.Popen, pending: Dict[str, queue.Queue]) -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                msg = decode_response(line)
            except MalformedModelResponse:
                logger.warning("dropping malformed response line: %r", line)
                continue
            with self._lock:
                waiter = pending.pop(msg["id"], None)
            if waiter is not None:
                waiter.put(line)
        # EOF: the child is gone; wake every waiter with None (no reply)
        with self._lock:
            waiters = list(pending.values())
            pending.clear()
            if self._pending is pending:
                self._pending = None
        for waiter in waiters:
            waiter.put(None)

    def call(self, line: str, req_id: str, timeout: float) -> str:
        self._ensure()
        waiter: "queue.Queue[Optional[str]]" = queue.Queue(maxsize=1)
        with self._lock:
            proc, pending = self._proc, self._pending
            if proc is None or pending is None:
                raise ModelUnavailable(f"model process {self.command} closed its output")
            pending[req_id] = waiter
        try:
            assert proc.stdin is not None
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            with self._lock:
                pending.pop(req_id, None)
            raise ModelUnavailable(f"model process died: {exc}") from exc
        try:
            reply = waiter.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                pending.pop(req_id, None)
            raise ModelTimeout(f"no response within {timeout}s for {req_id}")
        if reply is None:
            raise ModelUnavailable(f"model process closed its output before answering {req_id}")
        return reply

    def close(self) -> None:
        with self._lock:
            if self._proc is not None and self._proc.poll() is None:
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
            self._proc = None


class HttpTransport:
    """POSTs one request line at a time to a model endpoint."""

    def __init__(self, endpoint: str, session: Optional[requests.Session] = None):
        self.endpoint = endpoint
        self.session = session or requests.Session()

    def call(self, line: str, req_id: str, timeout: float) -> str:
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

    def _call(self, op: str, inputs: List[Any], params: Dict[str, Any]) -> Any:
        last_error: Optional[ModelError] = None
        for attempt in range(self.retries + 1):
            req_id = uuid.uuid4().hex
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

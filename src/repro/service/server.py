"""Front-ends of the explanation service: stdio JSONL and localhost HTTP.

The wire protocol is one JSON object per request:

* ``{"record": 3, "method": "both", "samples": 128}`` — explain a record
  of the served dataset (or ``"pair": {...}`` for an inline pair);
* ``{"op": "stats"}`` — the service / store / engine counters;
* ``{"op": "metrics"}`` — the full metrics-registry snapshot (JSON form
  of the Prometheus families);
* ``{"op": "shutdown"}`` — drain and stop (stdio mode).

Responses echo the request ``id`` (if any) and carry ``"ok"`` plus either
``"result"`` or, on failure, ``"error"`` (human text) **and** ``"code"``
(the stable machine identifier from :func:`repro.exceptions.error_code`
— ``overloaded``, ``deadline_exceeded``, ``bad_request``, ...).  The
HTTP flavour exposes the same payloads at ``POST /explain``,
``GET /stats`` and ``GET /healthz`` on a stdlib
:class:`~http.server.ThreadingHTTPServer`, plus ``GET /metrics`` in the
Prometheus text exposition format, and maps error codes onto statuses
(:data:`ERROR_STATUS`): shed requests get **429 + Retry-After**, blown
deadlines 504, malformed payloads a structured 400.  Connections are
bounded: request bodies above ``max_body_bytes`` are refused with 413
and idle sockets are dropped after ``read_timeout`` seconds, so a slow
or hostile client cannot pin a handler thread.  ``/healthz`` delegates to
the service's own ``health()``: single-process, it degrades to HTTP 503
with ``{"ok": false, "degraded": ...}`` while the matcher circuit
breaker is open (``breaker_open``), admission control is shedding
(``overloaded``) or the service is draining (``draining``); sharded
(:class:`~repro.service.supervisor.ShardedService`), it stays 200 with a
``degraded`` shard list while at least one shard is live — one tripped
breaker or mid-restart shard reads degraded, not down — and only zero
live shards or drain is a 503.  Load balancers and probes see a sick
server before piling more requests onto it.

The resumable store-warmer, ``precompute``, lives in :mod:`repro.bulk.warm`.
"""

from __future__ import annotations

import json
import logging
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.data.records import EMDataset
from repro.exceptions import ReproError, ServiceError, error_fields
from repro.service.request import request_from_payload
from repro.service.service import ExplanationService

logger = logging.getLogger("repro.service")

#: Largest request body ``POST /explain`` accepts by default (bytes).
DEFAULT_MAX_BODY_BYTES = 1_048_576

#: Default seconds an HTTP connection may sit idle mid-request.
DEFAULT_READ_TIMEOUT = 30.0

#: Error-code → HTTP status mapping of the serving layer.  Codes not
#: listed are internal faults and map to 500.
ERROR_STATUS = {
    "bad_request": 400,
    "schema_error": 400,
    "configuration_error": 400,
    "tokenization_error": 400,
    "overloaded": 429,
    "backend_protocol": 502,
    "cancelled": 503,
    "matcher_unavailable": 503,
    "backend_unavailable": 503,
    "shard_failed": 503,
    "host_lost": 503,
    "matcher_timeout": 504,
    "deadline_exceeded": 504,
}


def http_status_for(code: str | None) -> int:
    """The HTTP status an error *code* maps to (500 when unknown)."""
    return ERROR_STATUS.get(code or "", 500)


# ---------------------------------------------------------------------------
# Shared request handling
# ---------------------------------------------------------------------------


def handle_payload(
    service: ExplanationService,
    payload: dict,
    dataset: EMDataset | None = None,
    defaults: dict | None = None,
) -> dict:
    """Answer one wire payload; never raises (errors become responses)."""
    request_id = payload.get("id") if isinstance(payload, dict) else None
    try:
        op = payload.get("op", "explain") if isinstance(payload, dict) else "explain"
        if op == "stats":
            return {"ok": True, "id": request_id, "stats": service.stats_payload()}
        if op == "metrics":
            return {
                "ok": True,
                "id": request_id,
                "metrics": service.metrics_json(),
            }
        if op == "shutdown":
            return {"ok": True, "id": request_id, "shutdown": True}
        if op != "explain":
            raise ServiceError(f"unknown op {op!r}")
        request = request_from_payload(payload, dataset, defaults)
        result = service.explain(request)
        return {"ok": True, "id": request_id, "result": result}
    except ReproError as error:
        return {"id": request_id, **error_fields(error)}


def serve_stdio(
    service: ExplanationService,
    dataset: EMDataset | None = None,
    defaults: dict | None = None,
    input_stream=None,
    output_stream=None,
) -> int:
    """JSONL request/response loop until EOF or a ``shutdown`` op.

    Returns the number of requests answered.  Malformed lines produce an
    error response instead of killing the loop.
    """
    input_stream = input_stream if input_stream is not None else sys.stdin
    output_stream = output_stream if output_stream is not None else sys.stdout
    answered = 0
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            response = {
                "id": None, **error_fields(ServiceError(f"bad JSON: {error}"))
            }
        else:
            response = handle_payload(service, payload, dataset, defaults)
        output_stream.write(json.dumps(response, sort_keys=True) + "\n")
        output_stream.flush()
        answered += 1
        if response.get("shutdown"):
            break
    return answered


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


def serve_http(
    service: ExplanationService,
    dataset: EMDataset | None = None,
    defaults: dict | None = None,
    host: str = "127.0.0.1",
    port: int = 8377,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
) -> ThreadingHTTPServer:
    """A configured localhost HTTP server (caller runs ``serve_forever``).

    Endpoints: ``POST /explain`` (request payload as JSON body),
    ``GET /stats``, ``GET /healthz``, ``GET /metrics`` (Prometheus text).
    *max_body_bytes* bounds the ``/explain`` body (413 above it);
    *read_timeout* is the per-connection socket timeout, dropping clients
    that stall mid-request instead of pinning a handler thread.
    """

    class Handler(BaseHTTPRequestHandler):
        # Socket timeout for each connection: a client that stops sending
        # mid-request is disconnected instead of holding a thread.
        timeout = read_timeout

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            logger.info("http %s", format % args)

        def handle_one_request(self) -> None:
            try:
                super().handle_one_request()
            except TimeoutError:
                self.close_connection = True

        def _respond(
            self,
            status: int,
            payload: dict,
            headers: dict[str, str] | None = None,
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _respond_text(self, status: int, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            if self.path == "/healthz":
                self._respond(*service.health())
            elif self.path == "/stats":
                self._respond(
                    200, {"ok": True, "stats": service.stats_payload()}
                )
            elif self.path == "/metrics":
                self._respond_text(200, service.metrics_text())
            else:
                self._respond(
                    404, {"ok": False, "error": "not found", "code": "not_found"}
                )

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            if self.path != "/explain":
                self._respond(
                    404, {"ok": False, "error": "not found", "code": "not_found"}
                )
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._respond(
                    400, error_fields(ServiceError("invalid Content-Length header"))
                )
                return
            if length > max_body_bytes:
                # Refuse before reading: don't buffer a hostile body.
                self.close_connection = True
                self._respond(
                    413,
                    {
                        "ok": False,
                        "error": (
                            f"request body of {length} bytes exceeds the "
                            f"{max_body_bytes}-byte limit"
                        ),
                        "code": "body_too_large",
                    },
                )
                return
            try:
                payload = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as error:
                self._respond(
                    400, error_fields(ServiceError(f"bad JSON: {error}"))
                )
                return
            response = handle_payload(service, payload, dataset, defaults)
            if response["ok"]:
                self._respond(200, response)
                return
            headers = {}
            if "retry_after" in response:
                headers["Retry-After"] = str(
                    max(1, int(-(-response["retry_after"] // 1)))
                )
            self._respond(
                http_status_for(response.get("code")), response, headers
            )

    return ThreadingHTTPServer((host, port), Handler)


__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_READ_TIMEOUT",
    "ERROR_STATUS",
    "handle_payload",
    "http_status_for",
    "serve_http",
    "serve_stdio",
]

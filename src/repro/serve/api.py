"""HTTP/JSON front of :class:`~repro.serve.service.SimulationService`.

Stdlib only — :class:`http.server.ThreadingHTTPServer` with one
handler thread per connection — because the service must run wherever
the compiler runs.  The surface, all under ``/v1``:

============================================  ==============================
``GET  /v1/healthz``                          liveness probe
``GET  /v1/health``                           readiness: queue depth,
                                              quarantine/deadline counters,
                                              recovery summary (503 when
                                              draining)
``GET  /v1/status``                           queue/pool/tenant/batch stats
``GET  /v1/metrics``                          Prometheus text exposition
``GET  /v1/metrics.json``                     metrics snapshot as JSON
``POST /v1/batches``                          submit one batch document
``GET  /v1/batches/<id>``                     poll one batch's progress
``GET  /v1/batches/<id>/results``             stream results as NDJSON
``GET  /v1/tenants/<t>/ledger``               the tenant's trace index
``GET  /v1/tenants/<t>/traces/<digest>``      fetch one recorded trace
``POST /v1/shutdown``                         graceful (draining) stop
============================================  ==============================

Submissions are ``{"tenant": ..., "priority": ..., "spec": {...}}``
where ``spec`` is the farm batch schema with designs inline
(``eclc submit`` builds this from a normal spec file).  Backpressure
maps to HTTP directly: a full queue is ``429`` with
``error="queue_full"`` (``error="tenant_quota"`` when the submitting
tenant's own quota tripped rather than the shared depth), a draining
service is ``503`` — a client never distinguishes overload from
shutdown by parsing prose.

The results endpoint streams NDJSON: one serialized
:class:`~repro.farm.jobs.SimResult` per line, written as each job
completes, connection held open until the batch drains.  ``?stable=1``
serializes with ``volatile=False`` (drops elapsed/pid/paths), which is
the byte-reproducible form — identical to ``eclc farm run --report``
rows for the same spec and seeds.  Responses are HTTP/1.0 with
``Connection: close`` so the stream's end *is* the connection's end:
no chunked-encoding framing for minimal clients to mis-parse.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from ..errors import EclError, NotFoundError
from ..farm.ledger import compact_json
from .queue import QueueFullError, ServiceClosedError, TenantQuotaError
from .service import SimulationService

#: Default bind address of ``eclc serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8732

#: Cap on request bodies — a batch spec is text, not a core dump.
MAX_BODY_BYTES = 8 << 20


def result_line(result, stable=False):
    """One NDJSON line (bytes) for a result: compact separators, sorted
    keys — the canonical byte form the acceptance comparison relies
    on.  A stable line reuses the row's cached
    :meth:`~repro.farm.jobs.SimResult.stable_json`."""
    if stable:
        return result.stable_json() + b"\n"
    return (compact_json(result.to_dict()) + "\n").encode("utf-8")


class _NonJson(str):
    """NaN or Infinity: ``json.loads`` takes them, strict JSON does not."""


def _strict_object(pairs):
    """A decoded JSON object; NaN or Infinity anywhere in a value is
    refused by key, before it could reach the journal."""
    for key, value in pairs:
        pending = [value]
        while pending:
            item = pending.pop()
            if isinstance(item, list):
                pending.extend(item)
            elif isinstance(item, _NonJson):
                raise ValueError('"%s" holds NaN or Infinity, which JSON '
                                 "does not allow" % key)
    return dict(pairs)


class ServeHandler(BaseHTTPRequestHandler):
    """Routes one connection's request against ``server.service``."""

    # HTTP/1.0 + the default Connection: close turns "response done"
    # into "socket closed" — exactly the framing the NDJSON stream
    # wants, with no chunked encoding involved.
    protocol_version = "HTTP/1.0"
    server_version = "eclc-serve/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    @property
    def service(self) -> SimulationService:
        return self.server.service

    # -- routing -------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib handler name
        self._guarded(self._get)

    def do_POST(self):  # noqa: N802 - stdlib handler name
        self._guarded(self._post)

    def _guarded(self, route):
        """Run one route; an exception escaping it becomes a JSON 500
        naming the failure instead of a dropped connection (unless the
        response had already begun, when the socket is all that is
        left to close)."""
        self.responded = False
        try:
            route()
        except Exception as error:
            if self.responded:
                raise
            self._send_json(500, {"error": "internal_error",
                                  "detail": "%s: %s"
                                  % (type(error).__name__, error)})

    def send_response(self, code, message=None):
        self.responded = True
        BaseHTTPRequestHandler.send_response(self, code, message)

    def _get(self):
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["v1", "healthz"]:
                self._send_json(200, {"ok": True})
            elif parts == ["v1", "health"]:
                health = self.service.health_dict()
                # 503 while draining: a load balancer (or a retrying
                # client) reads readiness from the status code alone.
                self._send_json(200 if health["accepting"] else 503,
                                health)
            elif parts == ["v1", "status"]:
                self._send_json(200, self.service.status_dict())
            elif parts == ["v1", "metrics"]:
                self.service.record_gauges()
                text = telemetry.render_prometheus(telemetry.get_registry())
                blob = text.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)
            elif parts == ["v1", "metrics.json"]:
                self.service.record_gauges()
                self._send_json(200, telemetry.snapshot())
            elif len(parts) == 3 and parts[:2] == ["v1", "batches"]:
                self._send_json(200,
                                self.service.batch(parts[2]).status_dict())
            elif (len(parts) == 4 and parts[:2] == ["v1", "batches"]
                  and parts[3] == "results"):
                self._stream_results(parts[2])
            elif (len(parts) == 4 and parts[:2] == ["v1", "tenants"]
                  and parts[3] == "ledger"):
                self._send_json(
                    200, {"entries": self.service.ledger_entries(parts[2])}
                )
            elif (len(parts) == 5 and parts[:2] == ["v1", "tenants"]
                  and parts[3] == "traces"):
                header, records = self.service.fetch_trace(parts[2], parts[4])
                self._send_json(200, {"header": header, "records": records})
            else:
                self._send_json(404, {"error": "not_found", "path": path})
        except EclError as error:
            status = 404 if isinstance(error, NotFoundError) else 400
            self._send_json(status, {"error": str(error)})

    def _post(self):
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if parts == ["v1", "batches"]:
            self._submit()
        elif parts == ["v1", "shutdown"]:
            self._send_json(200, {"ok": True, "draining": True})
            # Drain on a side thread: this handler's own connection
            # must finish before join would ever return.
            threading.Thread(
                target=self._shutdown_server, daemon=True
            ).start()
        else:
            self._send_json(404, {"error": "not_found", "path": path})

    # -- handlers ------------------------------------------------------

    def _submit(self):
        try:
            body = self._read_body()
        except EclError as error:
            self._send_json(400, {"error": str(error)})
            return
        try:
            batch = self.service.submit(body.get("spec"),
                                        tenant=body.get("tenant"),
                                        priority=body.get("priority"))
        except TenantQuotaError as error:
            # Same 429 backpressure contract as queue_full, but the
            # structured error names the *tenant's* quota: a client
            # backing off knows its own lane is the bottleneck, not
            # the service.
            self._send_json(429, {"error": "tenant_quota",
                                  "detail": str(error)})
            return
        except QueueFullError as error:
            self._send_json(429, {"error": "queue_full",
                                  "detail": str(error)})
            return
        except ServiceClosedError as error:
            self._send_json(503, {"error": str(error)})
            return
        except EclError as error:
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(
            200,
            {
                "batch": batch.id,
                "tenant": batch.tenant,
                "jobs": batch.total,
                "priority": batch.priority,
            },
        )

    def _stream_results(self, batch_id):
        batch = self.service.batch(batch_id)
        query = parse_qs(urlsplit(self.path).query)
        stable = query.get("stable", [""])[-1] == "1"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        # One write per wake-up: the rows that landed while this
        # handler waited go out together, once it has caught up.
        pending = []
        for served, result in enumerate(batch.stream(), 1):
            pending.append(result_line(result, stable=stable))
            if served >= len(batch.results):
                self.wfile.write(b"".join(pending))
                self.wfile.flush()
                pending = []

    def _shutdown_server(self):
        self.service.shutdown(drain=True)
        self.server.shutdown()

    # -- plumbing ------------------------------------------------------

    def _read_body(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            raise EclError("bad Content-Length header %r" % header)
        if length <= 0:
            raise EclError("request body required")
        if length > MAX_BODY_BYTES:
            raise EclError("request body too large (%d bytes)" % length)
        try:
            body = json.loads(self.rfile.read(length),
                              parse_constant=_NonJson,
                              object_pairs_hook=_strict_object)
        except ValueError as error:
            raise EclError("bad JSON body: %s" % error)
        if not isinstance(body, dict):
            raise EclError("request body must be a JSON object")
        return body

    def _send_json(self, status, payload):
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`SimulationService`."""

    daemon_threads = True

    def __init__(self, address, service, verbose=False):
        self.service = service
        self.verbose = verbose
        ThreadingHTTPServer.__init__(self, address, ServeHandler)


def make_server(service, host=DEFAULT_HOST, port=DEFAULT_PORT,
                verbose=False) -> ServeServer:
    """Bind the service's HTTP front (``port=0`` picks a free port —
    the bound one is ``server.server_address[1]``)."""
    return ServeServer((host, port), service, verbose=verbose)


def serve_forever(service, host=DEFAULT_HOST, port=DEFAULT_PORT,
                  verbose=False, server=None):
    """Blocking entry point used by ``eclc serve``.  Pass a pre-bound
    ``server`` (from :func:`make_server`) to announce the actual port
    before blocking — with ``port=0`` the OS picks one."""
    if server is None:
        server = make_server(service, host=host, port=port,
                             verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.shutdown(drain=True)
    finally:
        server.server_close()
    return server

"""ServeClient: the stdlib HTTP client behind ``eclc submit``.

A thin, dependency-free wrapper over :mod:`http.client` that speaks
the :mod:`repro.serve.api` surface: submit a batch document, stream
its NDJSON results line-by-line as jobs complete, poll status, fetch
recorded traces.  Backpressure and shutdown surface as typed errors
(:class:`~repro.serve.queue.QueueFullError`,
:class:`~repro.errors.EclError`) so callers handle ``queue_full`` the
same way whether they hit the service in-process or over the wire.

Transient transport faults are the client's own fault model: the
service restarting (crash recovery), a connection reset under load, a
not-yet-listening socket.  Idempotent GETs retry automatically with
capped exponential backoff instead of failing a long watch loop on
the first ``ConnectionResetError``; the result stream reconnects and
skips the jobs it already yielded (every row carries its ``job_id``,
and a batch holds one row per job, so the set of yielded ids is a
resume cursor even when a restarted service re-runs jobs in another
order).
``submit`` is *not* idempotent and never retries silently — callers
opt in via ``retries=`` (the ``eclc submit --retries`` flag), which
retries only the responses that explicitly invite it: ``429
queue_full`` and ``503`` draining.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator

from ..errors import EclError
from .api import DEFAULT_HOST, DEFAULT_PORT
from .queue import QueueFullError, TenantQuotaError

#: Transparent retry budget for idempotent GETs (total tries = 1 + N).
DEFAULT_GET_RETRIES = 3

#: First retry delay (seconds); doubles per attempt up to the cap.
DEFAULT_RETRY_BACKOFF = 0.2
RETRY_BACKOFF_CAP = 2.0


class ServeClient:
    """One service endpoint; connections are per-call (HTTP/1.0)."""

    def __init__(self, host=DEFAULT_HOST, port=DEFAULT_PORT, timeout=60.0,
                 get_retries=DEFAULT_GET_RETRIES,
                 retry_backoff=DEFAULT_RETRY_BACKOFF):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.get_retries = max(0, get_retries)
        self.retry_backoff = retry_backoff

    # -- core ----------------------------------------------------------

    def _retry_delay(self, attempt):
        return min(RETRY_BACKOFF_CAP,
                   self.retry_backoff * (2 ** max(0, attempt - 1)))

    def _request(self, method, path, body=None):
        """``(status, parsed-JSON)`` of one non-streaming request.

        GETs are idempotent: transient transport errors (connection
        refused/reset, timeouts) retry with capped backoff before
        surfacing as :class:`EclError`.  Anything else gets one try.
        """
        tries = 1 + (self.get_retries if method == "GET" else 0)
        for attempt in range(1, tries + 1):
            try:
                return self._request_once(method, path, body)
            except (OSError, http.client.HTTPException) as error:
                if attempt >= tries:
                    raise EclError(
                        "cannot reach simulation service at %s:%d: %s"
                        % (self.host, self.port, error)
                    )
                time.sleep(self._retry_delay(attempt))

    def _request_once(self, method, path, body=None):
        connection = self._connect()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            blob = response.read()
        finally:
            connection.close()
        try:
            parsed = json.loads(blob) if blob else {}
        except ValueError:
            raise EclError(
                "bad response from service (%d): %r" % (response.status, blob)
            )
        return response.status, parsed

    def _connect(self):
        """One raw connection; transport errors propagate as OSError
        (the retrying callers decide how to surface them)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        connection.connect()
        return connection

    def _unreachable(self, error):
        return EclError(
            "cannot reach simulation service at %s:%d: %s"
            % (self.host, self.port, error)
        )

    @staticmethod
    def _check(status, payload):
        if status == 429:
            detail = (payload.get("detail") or payload.get("error")
                      or "queue_full")
            # tenant_quota is-a queue_full: same backpressure contract,
            # narrower type for clients that back off per-tenant.
            if payload.get("error") == "tenant_quota":
                raise TenantQuotaError(detail)
            raise QueueFullError(detail)
        if status >= 400:
            raise EclError(
                payload.get("error") or "service error (HTTP %d)" % status
            )
        return payload

    # -- surface -------------------------------------------------------

    def healthz(self) -> bool:
        try:
            status, payload = self._request("GET", "/v1/healthz")
        except EclError:
            return False
        return status == 200 and bool(payload.get("ok"))

    def health(self) -> dict:
        """The ``/v1/health`` readiness payload (returned even on the
        503 a draining service answers with — the payload says why)."""
        status, payload = self._request("GET", "/v1/health")
        if status >= 400 and "accepting" not in payload:
            self._check(status, payload)
        return payload

    def status(self) -> dict:
        return self._check(*self._request("GET", "/v1/status"))

    def submit(self, spec, tenant=None, priority=None, retries=0,
               retry_backoff=None) -> dict:
        """Submit one batch document (designs inline); returns the
        service's ``{"batch": ..., "jobs": ...}`` admission record.  A
        ``tenant`` or ``priority`` left None takes the service default.

        ``retries`` > 0 opts in to retrying the two retryable
        rejections — ``429 queue_full`` (backpressure) and ``503``
        (draining/restarting) — with capped exponential backoff.
        Submission is not idempotent, so nothing retries silently."""
        backoff = self.retry_backoff if retry_backoff is None else retry_backoff
        body = {"spec": spec, "tenant": tenant, "priority": priority}
        tries = 1 + max(0, retries)
        for attempt in range(1, tries + 1):
            try:
                status, payload = self._request_once(
                    "POST", "/v1/batches", body=body
                )
            except (OSError, http.client.HTTPException) as error:
                # Connection-level failure before the service saw the
                # body: nothing was admitted, safe to retry.
                if attempt >= tries:
                    raise self._unreachable(error)
            else:
                if status not in (429, 503) or attempt >= tries:
                    return self._check(status, payload)
            time.sleep(min(RETRY_BACKOFF_CAP,
                           backoff * (2 ** (attempt - 1))))

    def batch_status(self, batch_id) -> dict:
        return self._check(*self._request(
            "GET", "/v1/batches/%s" % batch_id
        ))

    def stream_results(self, batch_id, stable=False) -> Iterator[dict]:
        """Yield one result dict per completed job, as the service
        streams them; the generator ends when the batch is done.

        A dropped connection mid-stream (service restart, reset)
        reconnects with backoff and skips the jobs already yielded: a
        batch holds one row per job id, so the yielded ids are an exact
        resume cursor — even when a restarted service re-runs jobs and
        lands them in another order — and no caller ever sees a
        duplicated or skipped row."""
        path = "/v1/batches/%s/results" % batch_id
        if stable:
            path += "?stable=1"
        served = set()
        for attempt in range(1, self.get_retries + 2):
            try:
                for row in self._stream_once(path, served):
                    served.add(row["job_id"])
                    yield row
            except (OSError, http.client.HTTPException, ValueError) as error:
                if attempt >= self.get_retries + 1:
                    raise self._unreachable(error)
                time.sleep(self._retry_delay(attempt))
                continue
            return  # clean end of stream: the batch is drained

    def _stream_once(self, path, skip):
        """One streaming connection; yields the parsed rows whose job
        id is not in ``skip``, the caller's live set of yielded ids.
        Transport errors, torn NDJSON tails (a line cut by the
        disconnect) and a stream that ends before every one of the
        batch's ``X-Batch-Total`` jobs was yielded (the service died
        mid-stream) raise for the caller's reconnect loop."""
        connection = self._connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status >= 400:
                blob = response.read()
                try:
                    payload = json.loads(blob)
                except ValueError:
                    payload = {"error": "service error (HTTP %d)"
                               % response.status}
                self._check(response.status, payload)
            total = int(response.getheader("X-Batch-Total", 0))
            for line in response:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)  # torn tail raises ValueError
                if row["job_id"] not in skip:
                    yield row
            if len(skip) < total:
                raise ConnectionError(
                    "result stream ended after %d of %d jobs"
                    % (len(skip), total))
        finally:
            connection.close()

    def metrics_json(self) -> dict:
        """The ``/v1/metrics.json`` registry snapshot."""
        return self._check(*self._request("GET", "/v1/metrics.json"))

    def metrics_text(self) -> str:
        """The raw ``/v1/metrics`` Prometheus exposition text.

        Bypasses the JSON plumbing (the body is text), but keeps the
        same idempotent-GET retry discipline."""
        tries = 1 + self.get_retries
        for attempt in range(1, tries + 1):
            try:
                connection = self._connect()
                try:
                    connection.request("GET", "/v1/metrics")
                    response = connection.getresponse()
                    blob = response.read()
                finally:
                    connection.close()
            except (OSError, http.client.HTTPException) as error:
                if attempt >= tries:
                    raise self._unreachable(error)
                time.sleep(self._retry_delay(attempt))
                continue
            if response.status >= 400:
                raise EclError("service error (HTTP %d)" % response.status)
            return blob.decode("utf-8")

    def fetch_trace(self, tenant, digest) -> dict:
        return self._check(*self._request(
            "GET", "/v1/tenants/%s/traces/%s" % (tenant, digest)
        ))

    def ledger(self, tenant) -> list:
        payload = self._check(*self._request(
            "GET", "/v1/tenants/%s/ledger" % tenant
        ))
        return payload.get("entries", [])

    def shutdown(self) -> dict:
        return self._check(*self._request("POST", "/v1/shutdown"))

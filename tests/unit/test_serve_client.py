"""Unit tests for ServeClient's transient-fault retry behavior."""

import json
import socket
import threading
import time

import pytest

from repro.errors import EclError
from repro.serve import QueueFullError, ServeClient, SimulationService


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestGetRetries:
    def test_get_retries_until_service_listens(self, http_server):
        """A GET against a service that is restarting (nothing bound
        yet) retries with backoff instead of failing the watch loop."""
        port = free_port()
        client = ServeClient(port=port, get_retries=8,
                             retry_backoff=0.05)
        service = SimulationService(workers=0)

        def start_late():
            time.sleep(0.25)
            http_server(service, port=port)

        thread = threading.Thread(target=start_late, daemon=True)
        thread.start()
        try:
            assert client.status()["accepting"] is True
        finally:
            thread.join(timeout=5)
            service.shutdown(drain=False, timeout=5)

    def test_exhausted_retries_keep_the_unreachable_message(self):
        client = ServeClient(port=free_port(), get_retries=1,
                             retry_backoff=0.01)
        with pytest.raises(EclError,
                           match="cannot reach simulation service"):
            client.status()

    def test_post_does_not_retry_transport_errors_by_default(self):
        client = ServeClient(port=free_port(), get_retries=5,
                             retry_backoff=0.01)
        started = time.monotonic()
        with pytest.raises(EclError, match="cannot reach"):
            client.submit({"designs": {}, "jobs": []})
        # one immediate failure: no backoff sleeps were taken
        assert time.monotonic() - started < 1.0


class FakeConnection:
    """One results-stream connection serving ``rows`` as NDJSON under
    an ``X-Batch-Total: total`` header, then closing."""

    status = 200

    def __init__(self, rows, total):
        self.lines = [json.dumps(row).encode() + b"\n" for row in rows]
        self.total = total

    def request(self, method, path):
        pass

    def getresponse(self):
        return self

    def getheader(self, name, default=None):
        return str(self.total) if name == "X-Batch-Total" else default

    def __iter__(self):
        return iter(self.lines)

    def close(self):
        pass


class TestStreamReconnect:
    def test_reconnect_skips_already_served_rows(self):
        """A stream that ends before its batch's last job (the service
        died mid-stream) reconnects and resumes past the jobs it
        already yielded — even when the restarted service lands them
        in another order: no row is duplicated, none skipped."""
        rows = [{"job_id": "j%d" % i} for i in range(6)]
        connections = iter([FakeConnection(rows[:3], total=6),
                            FakeConnection(rows[::-1], total=6)])
        client = ServeClient(get_retries=3, retry_backoff=0.01)
        client._connect = lambda: next(connections)
        got = [row["job_id"] for row in client.stream_results("b1")]
        assert got == ["j0", "j1", "j2", "j5", "j4", "j3"]

    def test_stream_gives_up_after_budget(self, monkeypatch):
        def always_cut(path, skip):
            raise ConnectionResetError("down for good")
            yield  # pragma: no cover - makes this a generator

        client = ServeClient(get_retries=2, retry_backoff=0.01)
        monkeypatch.setattr(client, "_stream_once", always_cut)
        with pytest.raises(EclError, match="cannot reach"):
            list(client.stream_results("b1"))


class TestSubmitRetries:
    def make_flaky(self, responses):
        client = ServeClient(retry_backoff=0.01)
        calls = []

        def fake_request(method, path, body=None):
            calls.append(method)
            return responses[min(len(calls), len(responses)) - 1]

        client._request_once = fake_request
        return client, calls

    def test_submit_retries_429_when_opted_in(self):
        client, calls = self.make_flaky([
            (429, {"error": "queue_full", "detail": "queue_full: x"}),
            (429, {"error": "queue_full", "detail": "queue_full: x"}),
            (200, {"batch": "b", "jobs": 1}),
        ])
        admitted = client.submit({"spec": 1}, retries=3)
        assert admitted["batch"] == "b"
        assert len(calls) == 3

    def test_submit_retries_503_when_opted_in(self):
        client, calls = self.make_flaky([
            (503, {"error": "service is shutting down"}),
            (200, {"batch": "b", "jobs": 1}),
        ])
        assert client.submit({"spec": 1}, retries=1)["batch"] == "b"
        assert len(calls) == 2

    def test_submit_fails_fast_by_default(self):
        client, calls = self.make_flaky([
            (429, {"error": "queue_full", "detail": "queue_full: x"}),
            (200, {"batch": "b"}),
        ])
        with pytest.raises(QueueFullError):
            client.submit({"spec": 1})
        assert len(calls) == 1

    def test_submit_exhausted_retries_raise_the_last_rejection(self):
        client, calls = self.make_flaky([
            (429, {"error": "queue_full", "detail": "queue_full: x"}),
        ])
        with pytest.raises(QueueFullError):
            client.submit({"spec": 1}, retries=2)
        assert len(calls) == 3

    def test_non_retryable_errors_never_retry(self):
        client, calls = self.make_flaky([
            (400, {"error": "bad spec"}),
            (200, {"batch": "b"}),
        ])
        with pytest.raises(EclError, match="bad spec"):
            client.submit({"spec": 1}, retries=5)
        assert len(calls) == 1

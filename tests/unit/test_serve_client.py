"""Unit tests for ServeClient's transient-fault retry behavior."""

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


class TestStreamReconnect:
    def test_reconnect_skips_already_served_rows(self, monkeypatch):
        """A dropped stream resumes from its yield count: no row is
        duplicated, none skipped."""
        rows = [{"index": i} for i in range(6)]
        attempts = []

        def flaky_stream(path, skip):
            attempts.append(skip)
            if len(attempts) == 1:
                yield from rows[skip:2]
                raise ConnectionResetError("stream cut")
            yield from rows[skip:]

        client = ServeClient(get_retries=3, retry_backoff=0.01)
        monkeypatch.setattr(client, "_stream_once", flaky_stream)
        got = list(client.stream_results("b1"))
        assert got == rows
        assert attempts == [0, 2]  # resumed exactly past the cut

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

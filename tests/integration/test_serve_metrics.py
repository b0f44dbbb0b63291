"""Integration: the telemetry surface end to end.

The acceptance bar: scrape ``GET /v1/metrics`` over the real socket
*while a batch is in flight* and find valid Prometheus text covering
queue depth, per-tenant batch latency, pipeline cache hits/misses and
journal appends.  Plus the sibling surfaces — ``/v1/metrics.json``,
the enriched ``/v1/health``, ``eclc stats`` one-shot and offline, and
the ``eclc farm run --profile`` breakdown whose phase total must sit
within 10% of the measured wall.
"""

import json
import re
import threading
import time

import pytest

from repro import telemetry
from repro.cli import main
from repro.designs import PROTOCOL_STACK_ECL
from repro.serve import ServeClient, SimulationService

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""


def batch_document(traces=3, seed=11):
    return {
        "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
        "jobs": [
            {"design": "stack", "modules": ["toplevel"],
             "engines": ["efsm"], "traces": traces, "length": 6,
             "seed": seed},
        ],
    }


@pytest.fixture()
def telemetry_on():
    """Telemetry live with a clean registry, fully off afterwards."""
    telemetry.reset()
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture()
def served(tmp_path, telemetry_on, http_server):
    """A live instrumented service + HTTP server on a free port."""
    service = SimulationService(data_root=str(tmp_path / "serve-data"),
                                workers=1)
    server = http_server(service)
    client = ServeClient(port=server.server_address[1])
    try:
        yield service, client
    finally:
        service.pool.fault_hook = None
        service.shutdown(drain=False, timeout=10)


class TestMetricsEndpoint:
    def test_scrape_while_batch_in_flight(self, served):
        """The headline acceptance test: a mid-batch scrape exposes
        queue depth, tenant batch latency, cache traffic and journal
        appends as parseable Prometheus text."""
        service, client = served

        # Warm batch completes first: populates the per-tenant batch
        # latency histogram and the journal append counters.
        warm = client.submit(batch_document(), tenant="acme")
        rows = list(client.stream_results(warm["batch"]))
        assert all(row["status"] == "ok" for row in rows)

        # Gate the single worker on the next batch's first job so the
        # rest of it is *provably* still queued at scrape time.
        holding = threading.Event()
        release = threading.Event()

        def gate(entry):
            holding.set()
            assert release.wait(timeout=30)

        service.pool.fault_hook = gate
        stuck = client.submit(batch_document(traces=4, seed=23),
                              tenant="acme")
        assert holding.wait(timeout=30)
        try:
            text = client.metrics_text()
        finally:
            service.pool.fault_hook = None
            release.set()

        series = telemetry.parse_prometheus(text)

        # queue depth: 3 jobs behind the held one (workers=1)
        ((_, depth),) = series["ecl_serve_queue_depth"]
        assert depth >= 1
        ((_, in_flight),) = series["ecl_serve_queue_in_flight"]
        assert in_flight >= 1

        # per-tenant batch latency histogram, from the warm batch
        batch_counts = dict(
            (labels["tenant"], value)
            for labels, value in series["ecl_serve_batch_seconds_count"])
        assert batch_counts["acme"] >= 1
        assert any(labels.get("le") == "+Inf"
                   for labels, _ in series["ecl_serve_batch_seconds_bucket"])

        # pipeline cache traffic: the warm batch compiled once (miss)
        # then reused (hit)
        outcomes = set(
            labels["outcome"]
            for labels, value in
            series["ecl_pipeline_cache_requests_total"] if value > 0)
        assert outcomes == {"hit", "miss"}

        # journal appends: admit + one row per finished job + end
        appends = dict(
            (labels["kind"], value)
            for labels, value in series["ecl_serve_journal_appends_total"])
        assert appends.get("admit", 0) >= 2  # both batches admitted
        assert appends.get("row", 0) >= 3
        assert appends.get("end", 0) >= 1

        # admission counters line up with what we submitted
        ((_, admitted),) = series["ecl_serve_admitted_total"]
        assert admitted == 7  # 3 warm + 4 gated

        # drain the gated batch so teardown is clean
        rows = list(client.stream_results(stuck["batch"]))
        assert len(rows) == 4

    def test_metrics_json_mirrors_prometheus(self, served):
        _service, client = served
        done = client.submit(batch_document(), tenant="acme")
        list(client.stream_results(done["batch"]))

        snapshot = client.metrics_json()
        names = {family["name"] for family in snapshot["metrics"]}
        text = client.metrics_text()
        for name in names:
            assert name in text
        assert "ecl_serve_jobs_executed_total" in names
        assert "ecl_farm_job_seconds" in names

    def test_metrics_text_content_type_is_prometheus(self, served):
        import http.client

        _service, client = served
        connection = http.client.HTTPConnection(client.host, client.port)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "text/plain; version=0.0.4; charset=utf-8"
        finally:
            connection.close()

    def test_disabled_telemetry_serves_empty_exposition(self, tmp_path,
                                                        http_server):
        telemetry.disable()
        telemetry.reset()
        service = SimulationService(workers=1)
        server = http_server(service)
        client = ServeClient(port=server.server_address[1])
        try:
            done = client.submit(batch_document())
            list(client.stream_results(done["batch"]))
            assert client.metrics_text() == ""
            assert client.metrics_json() == {"metrics": []}
        finally:
            service.shutdown(drain=False, timeout=10)


class TestScaleOutMetrics:
    """Metric-name contract for the scale-out rung: pool mode, dispatch
    group sizes, per-tenant fair-share and quota counters, process
    worker crash/restart counters."""

    def test_fairness_and_quota_metric_names(self, tmp_path,
                                             telemetry_on):
        from repro.serve import TenantQuotaError

        service = SimulationService(workers=0,
                                    tenant_weights={"acme": 2.0},
                                    max_queued_per_tenant=4)
        try:
            service.submit(batch_document(), tenant="acme")  # 3 jobs
            with pytest.raises(TenantQuotaError):
                service.submit(batch_document(), tenant="acme")
            entry = service.queue.get(timeout=0)
            assert entry is not None
            service.queue.task_done(entry)  # lets shutdown find it idle
            service.record_gauges()
            text = telemetry.render_prometheus(telemetry.get_registry())
            series = telemetry.parse_prometheus(text)
            ((labels, value),) = series["ecl_pool_mode"]
            assert labels["mode"] == "thread" and value == 1
            quota = dict((labels["tenant"], value) for labels, value in
                         series["ecl_serve_tenant_quota_rejected_total"])
            assert quota["acme"] == 3
            dequeues = dict((labels["tenant"], value) for labels, value
                            in series["ecl_serve_tenant_dequeues_total"])
            assert dequeues["acme"] == 1
            tenant_gauges = {
                labels["tenant"]
                for labels, _ in series["ecl_serve_tenant_queued"]}
            assert "acme" in tenant_gauges
            assert "ecl_serve_tenant_deficit" in series
        finally:
            service.shutdown(drain=False, timeout=5)

    def test_group_sizes_observed(self, tmp_path, telemetry_on):
        doc = {
            "designs": {"e": {"text": ECHO}},
            "jobs": [{"design": "e", "modules": ["echo"],
                      "engines": ["vector"], "traces": 4, "length": 6}],
        }
        service = SimulationService(workers=1, start=False)
        try:
            batches = [service.submit(doc) for _ in range(2)]
            service.pool.start()
            for batch in batches:
                assert batch.wait(timeout=30)
            assert service.pool.wait_idle(timeout=30)
            snapshot = telemetry.snapshot()
            families = {f["name"]: f for f in snapshot["metrics"]}
            assert "ecl_serve_fused_jobs" in families
            (sample,) = families["ecl_serve_fused_jobs"]["samples"]
            # per batch: groups of 1, 2 and 1; only the pair observes
            assert sample["count"] == 2
            assert sample["sum"] == 4
        finally:
            service.shutdown(drain=False, timeout=10)

    def test_process_pool_crash_metric_names(self, tmp_path,
                                             telemetry_on):
        service = SimulationService(data_root=str(tmp_path / "svc"),
                                    workers=1, pool_mode="process",
                                    start=False)
        killed = []

        def kill_once(entry, worker):
            if not killed:
                killed.append(worker.pid)
                worker.kill()

        service.pool.process_fault_hook = kill_once
        service.pool.start()
        try:
            batch = service.submit(batch_document(traces=2))
            assert batch.wait(timeout=60)
            assert all(r.ok for r in batch.results)
            service.record_gauges()
            text = telemetry.render_prometheus(telemetry.get_registry())
            series = telemetry.parse_prometheus(text)
            ((labels, value),) = series["ecl_pool_mode"]
            assert labels["mode"] == "process" and value == 1
            ((_, crashes),) = series["ecl_serve_worker_proc_crashes_total"]
            assert crashes == 1
            ((_, restarts),) = \
                series["ecl_serve_worker_proc_restarts_total"]
            assert restarts >= 1
        finally:
            service.pool.process_fault_hook = None
            service.shutdown(drain=True, timeout=30)


class TestHealthSurface:
    def test_health_reports_recovery_quarantine_and_telemetry(self, served):
        service, client = served
        done = client.submit(batch_document(), tenant="acme")
        list(client.stream_results(done["batch"]))
        # the executed counter increments just after the last result
        # lands, so give it a beat
        for _ in range(50):
            health = client.health()
            if health["jobs_executed"] >= 3:
                break
            time.sleep(0.05)
        assert health["telemetry"] is True
        assert health["quarantined"] == 0
        assert health["jobs_executed"] >= 3
        assert health["batches_open"] == 0
        assert "recovery" in health
        assert health["journal_errors"] == 0


class TestStatsCli:
    def test_one_shot_against_live_service(self, served, capsys):
        _service, client = served
        done = client.submit(batch_document(), tenant="acme")
        list(client.stream_results(done["batch"]))

        assert main(["stats", "--port", str(client.port)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "ecl_serve_jobs_executed_total" in out
        assert "histograms:" in out
        assert "ecl_serve_batch_seconds{tenant=acme}" in out

    def test_one_shot_json(self, served, capsys):
        _service, client = served
        done = client.submit(batch_document())
        list(client.stream_results(done["batch"]))

        assert main(["stats", "--port", str(client.port),
                     "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        names = {family["name"] for family in snapshot["metrics"]}
        assert "ecl_serve_admitted_total" in names

    def test_offline_report_mode(self, tmp_path, capsys):
        echo = tmp_path / "echo.ecl"
        echo.write_text(ECHO)
        report_path = tmp_path / "report.json"
        assert main(["farm", "run", str(echo), "--engines", "efsm",
                     "--traces", "2", "--length", "8",
                     "--report", str(report_path)]) == 0
        capsys.readouterr()
        assert main(["stats", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "farm report: 2 job(s)" in out
        assert "efsm" in out
        assert "ok=2" in out


class TestProfileFlag:
    def test_farm_run_profile_total_within_10pct_of_wall(self, tmp_path,
                                                         capsys):
        """The ``--profile`` acceptance bar: the printed phase total is
        the measured wall by construction — parse both back out of the
        table and hold them to 10%."""
        echo = tmp_path / "echo.ecl"
        echo.write_text(ECHO)
        assert main(["farm", "run", str(echo), "--engines", "efsm",
                     "--traces", "2", "--length", "8",
                     "--profile"]) == 0
        captured = capsys.readouterr()
        assert "--profile runs inline" in captured.err
        out = captured.out

        header = re.search(r"profile: (\d+) span\(s\), wall ([0-9.]+)s",
                           out)
        assert header, out
        assert int(header.group(1)) > 0
        wall = float(header.group(2))
        total = re.search(r"total\s+([0-9.]+)s", out)
        assert total, out
        assert float(total.group(1)) == pytest.approx(wall, rel=0.10,
                                                      abs=2e-3)
        # the breakdown names real phases
        assert "farm.job" in out
        assert "(untracked)" in out
        # profile mode must not leave the global registry enabled
        assert not telemetry.is_enabled()

    def test_verify_run_profile_prints_breakdown(self, tmp_path, capsys):
        echo = tmp_path / "echo.ecl"
        echo.write_text(ECHO)
        assert main(["verify", "run", str(echo), "--module", "echo",
                     "--implies", "pong:pong",
                     "--rounds", "1", "--jobs", "2",
                     "--length", "8", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "(untracked)" in out
        assert not telemetry.is_enabled()

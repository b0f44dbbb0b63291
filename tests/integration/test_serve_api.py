"""Integration: the serving layer's HTTP surface end to end.

Covers the PR's acceptance bars over the real socket: a second
submission of an identical batch hits the warm per-tenant cache with
zero compile-stage misses, and the streamed stable result rows are
byte-identical to a direct ``eclc farm run`` of the same spec.
"""

import http.client
import json
import os
import time

import pytest

from repro.cli import main
from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.serve import ServeClient, SimulationService

SPEC_JOBS = [
    {"design": "stack", "modules": ["toplevel"],
     "engines": ["efsm", "native"], "traces": 3, "length": 6,
     "seed": 11},
]


#: Terminates on its second ``go``: some traces end early, some not.
ONCE_ECL = """
module once (input pure go, input int v, output int done)
{
    await (go);
    await (go);
    emit_v (done, v);
}
"""


def batch_document():
    return {
        "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
        "jobs": [dict(entry) for entry in SPEC_JOBS],
    }


@pytest.fixture()
def served(tmp_path, http_server):
    """A live service + HTTP server on a free port, torn down after."""
    service = SimulationService(data_root=str(tmp_path / "serve-data"),
                                workers=2)
    server = http_server(service)
    client = ServeClient(port=server.server_address[1])
    try:
        yield service, client
    finally:
        service.shutdown(drain=False, timeout=10)


class TestHttpSurface:
    def test_healthz_and_status(self, served):
        _service, client = served
        assert client.healthz()
        status = client.status()
        assert status["accepting"] is True
        assert status["queue"]["depth"] >= 1

    def test_submit_poll_stream_and_ledger(self, served):
        _service, client = served
        admitted = client.submit(batch_document(), tenant="alice")
        assert admitted["jobs"] == 6
        rows = list(client.stream_results(admitted["batch"]))
        assert len(rows) == 6
        assert all(row["status"] == "ok" for row in rows)
        polled = client.batch_status(admitted["batch"])
        assert polled["done"] is True
        assert polled["completed"] == 6
        assert polled["status_counts"] == {"ok": 6}
        entries = client.ledger("alice")
        assert len(entries) == 6
        trace = client.fetch_trace("alice", entries[0]["trace"])
        assert trace["header"]["design"] == "stack"
        assert len(trace["records"]) == trace["header"]["instants"]

    @pytest.mark.parametrize("query, stable", [
        ("stable=1", True), ("x=2&stable=1", True), ("unstable=1", False),
        ("stable=10", False), ("stable=0", False), ("", False)])
    def test_stable_query_is_parsed_not_matched(self, served, query,
                                                stable):
        _service, client = served
        admitted = client.submit(batch_document())
        list(client.stream_results(admitted["batch"]))
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=10)
        try:
            connection.request("GET", "/v1/batches/%s/results?%s"
                               % (admitted["batch"], query))
            rows = [json.loads(line)
                    for line in connection.getresponse().read().splitlines()]
        finally:
            connection.close()
        assert len(rows) == 6
        assert all(("elapsed" in row) is not stable for row in rows)

    def test_cross_tenant_trace_fetch_is_404(self, served):
        _service, client = served
        admitted = client.submit(batch_document(), tenant="alice")
        list(client.stream_results(admitted["batch"]))
        digest = client.ledger("alice")[0]["trace"]
        # make the other tenant exist server-side, then be refused
        client.submit(batch_document(), tenant="bob")
        with pytest.raises(Exception, match="no trace"):
            client.fetch_trace("bob", digest)

    def test_bad_requests_are_clean_errors(self, served):
        from repro.errors import EclError

        _service, client = served
        with pytest.raises(EclError, match="unknown batch"):
            client.batch_status("nope")
        with pytest.raises(EclError, match="designs"):
            client.submit({"jobs": []})
        with pytest.raises(EclError, match="tenant"):
            client.submit(batch_document(), tenant="../escape")

    def test_health_endpoint_reports_readiness(self, served):
        service, client = served
        health = client.health()
        assert health["ok"] is True
        assert health["queue_depth"] == service.queue.depth
        assert health["journal"] is True
        assert health["quarantined"] == 0
        assert "recovery" in health

    def test_health_is_503_when_draining(self, tmp_path, http_server):
        service = SimulationService(workers=0)
        server = http_server(service)
        client = ServeClient(port=server.server_address[1])
        try:
            service._accepting = False  # draining
            health = client.health()
            assert health["ok"] is False
            assert health["accepting"] is False
        finally:
            service.shutdown(drain=False, timeout=5)

    def test_queue_full_maps_to_429(self, tmp_path, http_server):
        from repro.serve import QueueFullError

        service = SimulationService(workers=0, queue_depth=3)
        server = http_server(service)
        client = ServeClient(port=server.server_address[1])
        try:
            # 6 jobs > depth 3: rejected before anything queues
            with pytest.raises(QueueFullError):
                client.submit(batch_document())
            assert client.status()["queue"]["rejected"] == 6
            assert client.status()["queue"]["queued"] == 0
        finally:
            service.shutdown(drain=False, timeout=5)

    def test_oversized_batch_refused_before_expansion(self, served):
        """600 000 jobs against depth 1024: refused while counting the
        matrix, before any job is built."""
        service, client = served
        document = {"designs": {"d": {"text": DOOR_CTRL_ECL}},
                    "jobs": [{"design": "d", "traces": 300000}]}
        started = time.perf_counter()
        got, payload = post_raw(client, {"spec": document})
        assert time.perf_counter() - started < 1.0
        assert (got, payload["error"]) == (429, "queue_full")
        assert client.status()["queue"]["rejected"] >= service.queue.depth
        assert client.status()["queue"]["queued"] == 0

    def test_not_found_is_chosen_by_error_type(self, served, monkeypatch):
        from repro.errors import EclError, NotFoundError

        service, client = served

        def raising(error):
            def batch(batch_id):
                raise error
            return batch

        monkeypatch.setattr(service, "batch",
                            raising(NotFoundError("batch is gone")))
        status, payload = client._request("GET", "/v1/batches/b1")
        assert (status, payload) == (404, {"error": "batch is gone"})
        monkeypatch.setattr(service, "batch",
                            raising(EclError("unknown batch has no trace")))
        status, payload = client._request("GET", "/v1/batches/b1")
        assert status == 400

    def test_unexpected_failure_is_a_json_500(self, served, monkeypatch):
        service, client = served

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "submit", broken)
        got, payload = post_raw(client, {"spec": batch_document()})
        assert got == 500
        assert payload == {"error": "internal_error",
                           "detail": "RuntimeError: boom"}
        monkeypatch.setattr(service, "status_dict", broken)
        with pytest.raises(Exception, match="internal_error"):
            client.status()
        assert client.healthz()

    def test_tenant_quota_maps_to_429_tenant_quota(self, tmp_path,
                                                   http_server):
        from repro.serve import TenantQuotaError

        service = SimulationService(workers=0, queue_depth=64,
                                    max_queued_per_tenant=6)
        server = http_server(service)
        client = ServeClient(port=server.server_address[1])
        try:
            client.submit(batch_document(), tenant="greedy")
            # a second 6-job batch would put greedy at 12 > quota 6
            with pytest.raises(TenantQuotaError,
                               match="tenant_quota") as excinfo:
                client.submit(batch_document(), tenant="greedy")
            assert "greedy" in str(excinfo.value)
            # shared depth has room: another tenant still submits
            client.submit(batch_document(), tenant="modest")
            queue_stats = client.status()["queue"]
            assert queue_stats["queued"] == 12
            assert queue_stats["quota_rejected"] == 6
        finally:
            service.shutdown(drain=False, timeout=5)


def post_raw(client, body, headers=None):
    """``(status, decoded JSON)`` of one raw ``POST /v1/batches``
    (``body=None`` sends only ``headers``)."""
    connection = http.client.HTTPConnection(client.host, client.port,
                                            timeout=10)
    try:
        if body is not None and not isinstance(body, str):
            body = json.dumps(body)
        connection.request("POST", "/v1/batches", body=body,
                           headers=headers or {
                               "Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


#: Keys a probe sets on the spec document itself rather than on its
#: first job entry.
TOP_LEVEL_KEYS = ("ttl_s", "workers", "ledger", "cache_dir", "note")

#: Submissions that once escaped the handler as a non-EclError (no
#: response at all) or were wrongly admitted: (case, body edit, status).
BAD_SUBMISSIONS = [
    ("traces_word", {"traces": "many"}, 400),
    ("length_word", {"length": "x"}, 400),
    ("length_negative", {"length": -5}, 400),
    ("traces_negative", {"traces": -1}, 400),
    ("horizon_negative", {"horizon": -3}, 400),
    ("priority_word", {"priority": "high"}, 400),
    ("tenant_number", {"tenant": 5}, 400),
    ("value_range_inverted", {"value_range": [10, 5]}, 400),
    ("value_range_word", {"value_range": "ab"}, 400),
    ("value_range_triple", {"value_range": [1, 2, 3]}, 400),
    ("value_range_float", {"value_range": [0, 2.5]}, 400),
    ("tasks_number", {"tasks": 5}, 400),
    ("modules_number", {"modules": 5}, 400),
    ("tasks_short", {"tasks": [[1]]}, 400),
    ("vcd_word", {"vcd": "no"}, 400),
    ("engines_string", {"engines": "native"}, 400),
    ("design_list", {"design": ["stack"]}, 400),
    ("content_length_word", {"Content-Length": "abc"}, 400),
    ("present_prob_five", {"present_prob": 5}, 400),
    ("present_prob_nan", {"present_prob": float("nan")}, 400),
    ("deadline_infinite", {"deadline_s": float("inf")}, 400),
    ("traces_bool", {"traces": True}, 400),
    ("length_fraction", {"length": 2.7}, 400),
    ("module_unknown", {"modules": ["nope"]}, 400),
    ("task_module_unknown", {"tasks": [["t", "nope"]]}, 400),
    ("ttl_nan", {"ttl_s": float("nan")}, 400),
    ("ttl_huge", {"ttl_s": 1e999}, 400),
    ("priority_bool", {"priority": True}, 400),
    ("priority_fraction", {"priority": 1.9}, 400),
    ("priority_string", {"priority": "3"}, 400),
    ("workers_word", {"workers": "many"}, 400),
    ("workers_zero", {"workers": 0}, 400),
    ("ledger_number", {"ledger": 5}, 400),
    ("cache_dir_list", {"cache_dir": ["x"]}, 400),
    ("draining", {}, 503),
    ("queue_closed", {}, 503),
]


class TestReadOnlyGets:
    """Ledger and trace reads answer from the tenant's shard on disk;
    they never create a tenant space, an artifact namespace or a
    shard."""

    def test_unknown_tenants_get_404_and_create_nothing(self, served):
        service, client = served
        root = service.data_root
        ghosts = ["ghost%d" % number for number in range(4)]
        for tenant in ghosts:
            status, payload = client._request(
                "GET", "/v1/tenants/%s/ledger" % tenant)
            assert (status, payload) == (200, {"entries": []})
            status, payload = client._request(
                "GET", "/v1/tenants/%s/traces/%s" % (tenant, "0" * 64))
            assert status == 404
            assert "no trace" in payload["error"]
        assert client.status()["tenants"] == []
        for tenant in ghosts:
            assert not os.path.exists(
                os.path.join(root, "artifacts", "ns", tenant))
            assert not os.path.exists(
                os.path.join(root, "traces", "index", tenant + ".jsonl"))

    def test_traces_from_before_a_restart_stay_servable(self, tmp_path,
                                                         http_server):
        root = str(tmp_path / "serve-data")
        first = SimulationService(data_root=root, workers=1)
        try:
            batch = first.submit(batch_document(), tenant="alice")
            assert batch.wait(timeout=60)
        finally:
            first.shutdown(drain=True, timeout=30)
        service = SimulationService(data_root=root, workers=1)
        client = ServeClient(port=http_server(service).server_address[1])
        try:
            entries = client.ledger("alice")
            assert len(entries) == batch.total
            trace = client.fetch_trace("alice", entries[0]["trace"])
            assert trace["header"]["job_id"] == entries[0]["job_id"]
            status, _payload = client._request(
                "GET", "/v1/tenants/bob/traces/" + entries[0]["trace"])
            assert status == 404
            assert client.status()["tenants"] == []
        finally:
            service.shutdown(drain=False, timeout=10)


class TestAdmissionBoundary:
    @pytest.mark.parametrize("case, edit, status", BAD_SUBMISSIONS,
                             ids=[case[0] for case in BAD_SUBMISSIONS])
    def test_bad_submission_gets_a_json_refusal(self, served, case, edit,
                                                status):
        service, client = served
        document = batch_document()
        body = {"spec": document, "tenant": "probe", "priority": 0}
        for key, value in edit.items():
            if key in body:
                body[key] = value
            elif key in TOP_LEVEL_KEYS:
                document[key] = value
            else:
                document["jobs"][0][key] = value
        if case == "draining":
            service._accepting = False
        elif case == "queue_closed":
            service.queue.close()
        if case == "content_length_word":
            got, payload = post_raw(client, None, headers=edit)
        elif case == "ttl_huge":
            # a finite literal past the float range, not an Infinity token
            text = json.dumps(body).replace("Infinity", "1e999")
            got, payload = post_raw(client, text)
        else:
            got, payload = post_raw(client, body)
        assert got == status
        assert payload["error"]
        if status == 400:
            assert next(iter(edit)) in payload["error"]
            assert client.health()["ok"] is True
        else:
            assert client.healthz()


    @pytest.mark.parametrize("where, key", [
        ("spec", "note"), ("spec", "ttl_s"), ("jobs", "present_prob")])
    def test_non_json_constants_are_refused_unjournaled(self, served,
                                                        where, key):
        """``json.loads`` takes NaN and Infinity; strict JSON readers of
        the journal do not, so the body parse refuses them by name."""
        service, client = served
        document = batch_document()
        target = document if where == "spec" else document["jobs"][0]
        target[key] = float("nan")
        got, payload = post_raw(client, {"spec": document,
                                         "tenant": "probe"})
        assert got == 400
        assert key in payload["error"]
        assert service.journal.replay("probe").batches == {}
        assert client.health()["ok"] is True


class TestAcceptance:
    def test_second_submission_zero_compile_misses(self, served):
        service, client = served
        first = client.submit(batch_document(), tenant="warm")
        rows = list(client.stream_results(first["batch"]))
        assert all(row["status"] == "ok" for row in rows)
        cache = service._space("warm").cache
        misses_before = cache.stats.misses
        second = client.submit(batch_document(), tenant="warm")
        rows = list(client.stream_results(second["batch"]))
        assert all(row["status"] == "ok" for row in rows)
        assert cache.stats.misses == misses_before, \
            "repeat submission must be fully cache-served"

    def test_streamed_results_match_direct_farm_run(self, served,
                                                    tmp_path, capsys):
        """Same spec through the service and through ``eclc farm run``
        yields byte-identical stable result rows."""
        _service, client = served
        admitted = client.submit(batch_document())
        streamed = sorted(client.stream_results(admitted["batch"],
                                                stable=True),
                          key=lambda row: row["index"])

        stack = tmp_path / "stack.ecl"
        stack.write_text(PROTOCOL_STACK_ECL)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({
            "workers": 1,
            "ledger": "direct-ledger",
            "designs": {"stack": str(stack)},
            "jobs": SPEC_JOBS,
        }))
        report_path = tmp_path / "report.json"
        assert main(["farm", "run", "--spec", str(spec),
                     "--report", str(report_path)]) == 0
        capsys.readouterr()
        report = json.load(open(report_path))
        direct = sorted(report["results"], key=lambda row: row["index"])

        def stable_bytes(row):
            payload = {key: value for key, value in row.items()
                       if key not in ("elapsed", "trace_path",
                                      "worker_pid")}
            return json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))

        assert len(streamed) == len(direct) == 6
        for service_row, farm_row in zip(streamed, direct):
            assert json.dumps(service_row, sort_keys=True,
                              separators=(",", ":")) == \
                stable_bytes(farm_row)

    def test_two_threads_on_resident_adapters_match_farm_run(
            self, served, tmp_path, capsys):
        """Two pool threads share one tenant state and its resident
        native adapters; rows stay byte-identical to ``eclc farm
        run``, C-memory design and terminating jobs included."""
        service, client = served
        assert service.pool.mode == "thread" and service.pool.workers == 2
        designs = {"stack": PROTOCOL_STACK_ECL, "audio": AUDIO_BUFFER_ECL,
                   "door": DOOR_CTRL_ECL, "once": ONCE_ECL}
        jobs = [
            {"design": "stack", "modules": ["toplevel"],
             "engines": ["native"], "traces": 12, "length": 48,
             "seed": 3},
            {"design": "audio", "modules": ["audio_buffer", "fifo_ctrl"],
             "engines": ["native"], "traces": 12, "length": 64,
             "value_range": [0, 40], "seed": 4},
            {"design": "door", "engines": ["native"], "traces": 8,
             "length": 40, "present_prob": 0.8, "seed": 5},
            {"design": "once", "engines": ["native"], "traces": 8,
             "length": 12, "present_prob": 0.2, "seed": 6},
        ]
        assert_matches_farm_run(client, tmp_path, capsys, designs, jobs)


def assert_matches_farm_run(client, tmp_path, capsys, designs, jobs):
    """Submit ``jobs`` over ``designs`` to the service and run the same
    spec through ``eclc farm run``: stable rows must be byte-identical."""
    admitted = client.submit({
        "designs": {label: {"text": text} for label, text in designs.items()},
        "jobs": jobs,
    })
    streamed = sorted(client.stream_results(admitted["batch"], stable=True),
                      key=lambda row: row["index"])

    paths = {}
    for label, text in designs.items():
        path = tmp_path / ("%s.ecl" % label)
        path.write_text(text)
        paths[label] = str(path)
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps({
        "workers": 1,
        "ledger": "direct-ledger",
        "designs": paths,
        "jobs": jobs,
    }))
    report_path = tmp_path / "report.json"
    assert main(["farm", "run", "--spec", str(spec),
                 "--report", str(report_path)]) == 0
    capsys.readouterr()
    report = json.load(open(report_path))
    direct = sorted(report["results"], key=lambda row: row["index"])

    def stable_bytes(row):
        payload = {key: value for key, value in row.items()
                   if key not in ("elapsed", "trace_path", "worker_pid")}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    assert len(streamed) == len(direct) == admitted["jobs"]
    assert {"ok", "terminated"} <= {row["status"] for row in streamed}
    for service_row, farm_row in zip(streamed, direct):
        assert json.dumps(service_row, sort_keys=True,
                          separators=(",", ":")) == stable_bytes(farm_row)


class TestCliServeSubmit:
    def test_submit_against_in_process_server(self, tmp_path, capsys,
                                              http_server):
        """``eclc submit`` (inlining a path-based spec) against a live
        server: the CLI round trip of the HTTP surface."""
        stack = tmp_path / "stack.ecl"
        stack.write_text(PROTOCOL_STACK_ECL)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({
            "designs": {"stack": str(stack)},
            "jobs": SPEC_JOBS,
        }))
        service = SimulationService(workers=2)
        server = http_server(service)
        port = str(server.server_address[1])
        try:
            assert main(["submit", str(spec), "--port", port,
                         "--watch", "--stable",
                         "--report", str(tmp_path / "rows.json")]) == 0
            out = capsys.readouterr().out
            assert "6 job(s) admitted" in out
            assert "6/6 ok" in out
            rows = json.load(open(tmp_path / "rows.json"))
            assert len(rows) == 6
            assert all("elapsed" not in row for row in rows)
        finally:
            service.shutdown(drain=False, timeout=5)

"""Admission under malformed and boundary submissions, over HTTP.

Every field of the spec schema (:mod:`repro.farm.spec`) is set to
JSON-shaped values: bools, huge ints, floats (NaN and the infinities
too), strings, lists, objects, or removed.  Whatever arrives, the
service answers JSON 200, 400 or 429 within 2 s, ``/v1/health`` stays
ok, and a refused batch leaves no open batch in the journal.

The service runs no workers, so admitted batches queue but never run:
the suite exercises admission, not execution.
"""

import http.client
import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designs import DOOR_CTRL_ECL
from repro.farm.spec import ENTRY, ENVELOPE
from repro.serve import ServeClient, SimulationService, make_server

#: Removes the targeted key instead of setting it.
MISSING = object()

#: Where each schema field lives in a submission body.
BODY_KEYS = ("tenant", "priority")
TARGETS = (
    [("entry", field.key) for field in ENTRY]
    + [("spec", field.key) for field in ENVELOPE if field.key not in BODY_KEYS]
    + [("body", key) for key in BODY_KEYS + ("spec",)]
)

#: Values near the schema's own: valid names, ranges and shapes.
BOUNDARY = st.sampled_from([
    0, 1, -1, 2 ** 31, 2 ** 63, 10 ** 30, -10 ** 30, 0.5, 1.0, 1e308,
    "", "d", "door_ctrl", "native", "rtos", ["door_ctrl"], ["nope"],
    ["native", "efsm"], [0, 3], [["t", "door_ctrl", 2]], [["t", "nope"]],
    {"text": DOOR_CTRL_ECL}, {"d": {"text": "module"}},
])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6), BOUNDARY)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def base_body():
    return {
        "tenant": "fuzz",
        "priority": 0,
        "spec": {
            "spec_version": 2,
            "designs": {"d": {"text": DOOR_CTRL_ECL}},
            "jobs": [{"design": "d", "modules": ["door_ctrl"],
                      "engine": "native", "traces": 1, "length": 4}],
        },
    }


@pytest.fixture(scope="module")
def admission(tmp_path_factory):
    """One served service with no workers, shared by every example."""
    service = SimulationService(
        data_root=str(tmp_path_factory.mktemp("admission")), workers=0,
        queue_depth=512)
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever,
                     kwargs={"poll_interval": 0.05}, daemon=True).start()
    try:
        yield service, ServeClient(port=server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=5)


def open_batches(service):
    return {record.batch_id
            for tenant in service.journal.tenants()
            for record in service.journal.replay(tenant).batches.values()}


def post(client, body):
    connection = http.client.HTTPConnection(client.host, client.port,
                                            timeout=10)
    try:
        connection.request("POST", "/v1/batches", body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(TARGETS),
       value=st.one_of(st.just(MISSING), JSON_VALUES))
def test_any_field_value_gets_a_json_answer(admission, target, value):
    service, client = admission
    body = base_body()
    where, key = target
    holder = {"body": body, "spec": body["spec"],
              "entry": body["spec"]["jobs"][0]}[where]
    if value is MISSING:
        holder.pop(key, None)
    else:
        holder[key] = value
    before = open_batches(service)
    started = time.perf_counter()
    status, payload = post(client, body)
    assert time.perf_counter() - started < 2.0
    assert status in (200, 400, 429), payload
    assert isinstance(payload, dict)
    assert client.health()["ok"] is True
    after = open_batches(service)
    if status == 200:
        assert after == before | {payload["batch"]}
    else:
        assert payload["error"]
        assert after == before

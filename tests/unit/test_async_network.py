"""Unit tests for the AsyncNetwork facade (and its agreement with the
synchronous composition on pipeline workloads)."""

import pytest

from repro.errors import RtosError
from repro.pipeline import Pipeline
from repro.rtos.network import AsyncNetwork
from repro.runtime.network import SyncNetwork

PRODUCER = """
module producer (input pure tick, output int data)
{
    int n;
    n = 0;
    while (1) {
        await (tick);
        n = n + 1;
        emit_v (data, n * 10);
    }
}
"""

CONSUMER = """
module consumer (input int data, output int twice)
{
    while (1) {
        await (data);
        emit_v (twice, data * 2);
    }
}
"""


def reactor_of(src, name):
    return Pipeline().compile_text(src).module(name).reactor()


def build_async():
    net = AsyncNetwork()
    # Consumer first: its await arms before the producer's event lands.
    net.add_node("consumer", reactor_of(CONSUMER, "consumer"))
    net.add_node("producer", reactor_of(PRODUCER, "producer"))
    return net


class TestAsyncNetwork:
    def test_pipeline_delivers(self):
        net = build_async()
        out = net.step(inputs={"tick"})
        assert out.get("twice") == 20

    def test_sequence(self):
        net = build_async()
        outs = [net.step(inputs={"tick"}) for _ in range(3)]
        assert [o.get("twice") for o in outs] == [20, 40, 60]

    def test_idle_step(self):
        net = build_async()
        assert net.step() == {}

    def test_no_adding_after_start(self):
        net = build_async()
        net.start()
        with pytest.raises(RtosError):
            net.add_node("late", reactor_of(PRODUCER, "producer"))

    def test_node_access_and_names(self):
        net = build_async()
        assert set(net.node_names) == {"producer", "consumer"}
        net.step(inputs={"tick"})
        assert net.node("producer").variable("n") == 1

    def test_stats_exposed(self):
        net = build_async()
        net.step(inputs={"tick"})
        assert net.stats.dispatches > 0
        assert net.lost_events() == 0


class TestSyncAsyncAgreementOnPipelines:
    """For a feed-forward pipeline paced at one event per quiescence,
    the two composition styles must produce the same value stream."""

    def test_value_streams_match(self):
        sync_net = SyncNetwork()
        sync_net.add_node("producer", reactor_of(PRODUCER, "producer"))
        sync_net.add_node("consumer", reactor_of(CONSUMER, "consumer"))
        sync_net.step()  # start-up instant

        async_net = build_async()

        sync_values = []
        async_values = []
        for _ in range(5):
            sync_values.append(sync_net.step(inputs={"tick"}).get("twice"))
            async_values.append(async_net.step(inputs={"tick"})
                                .get("twice"))
        assert sync_values == async_values == [20, 40, 60, 80, 100]

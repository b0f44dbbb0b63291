"""Unit tests for the reactors (both engines) and the sync network."""

import pytest

from repro.errors import EclError, EvalError
from repro.pipeline import Pipeline
from repro.runtime.network import SyncNetwork


def design(src):
    return Pipeline().compile_text(src)


COUNTER = """
module counter (input pure tick, input pure reset_cnt,
                output int value)
{
    int n;
    n = 0;
    while (1) {
        await (tick | reset_cnt);
        present (reset_cnt) { n = 0; } else { n = n + 1; }
        emit_v (value, n);
    }
}
"""


@pytest.fixture(params=["interp", "efsm"])
def engine(request):
    return request.param


class TestReactorBasics:
    def test_counter_counts(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        reactor.react()
        values = []
        for _ in range(3):
            out = reactor.react(inputs={"tick"})
            values.append(out.values["value"])
        assert values == [1, 2, 3]

    def test_reset_input(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        reactor.react()
        reactor.react(inputs={"tick"})
        reactor.react(inputs={"tick"})
        out = reactor.react(inputs={"reset_cnt"})
        assert out.values["value"] == 0

    def test_unknown_input_rejected(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        with pytest.raises(EvalError):
            reactor.react(inputs={"bogus"})

    def test_output_cannot_be_driven(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        with pytest.raises(EvalError):
            reactor.react(values={"value": 1})

    def test_variable_peek(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        reactor.react()
        reactor.react(inputs={"tick"})
        assert reactor.variable("n") == 1

    def test_signal_value_peek(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        reactor.react()
        reactor.react(inputs={"tick"})
        assert reactor.signal_value("value") == 1

    def test_reset_restarts_control(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        reactor.react()
        reactor.react(inputs={"tick"})
        reactor.reset()
        reactor.react()  # start-up again
        out = reactor.react(inputs={"tick"})
        # control restarted; data memory persists by design, so the
        # counter resumes from its stored value + 1.
        assert "value" in out.emitted

    def test_data_bytes_accounting(self, engine):
        reactor = design(COUNTER).module("counter").reactor(engine=engine)
        assert reactor.data_bytes() >= 4  # at least the int variable

    def test_termination(self, engine):
        src = ("module once (input pure go, output pure done) {"
               " await(go); emit(done); }")
        reactor = design(src).module("once").reactor(engine=engine)
        reactor.react()
        out = reactor.react(inputs={"go"})
        assert out.terminated
        assert reactor.react(inputs={"go"}).terminated


class TestEngineEquivalence:
    def test_counter_trace_equivalence(self):
        from repro.analysis import compare_on_trace
        module = design(COUNTER).module("counter")
        trace = [{}, {"tick": None}, {"tick": None},
                 {"reset_cnt": None}, {"tick": None},
                 {"tick": None, "reset_cnt": None}, {}]
        assert compare_on_trace(module.kernel(), module.efsm(), trace) is None


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


class TestSyncNetwork:
    def build_net(self):
        net = SyncNetwork()
        net.add_node("producer",
                     design(PRODUCER).module("producer").reactor())
        net.add_node("consumer",
                     design(CONSUMER).module("consumer").reactor())
        return net

    def test_same_instant_forward_delivery(self):
        net = self.build_net()
        net.step()  # start-up
        out = net.step(inputs={"tick"})
        # producer emits data, consumer doubles it in the same instant.
        assert out == {"twice": 20}

    def test_sequence(self):
        net = self.build_net()
        net.step()
        outs = [net.step(inputs={"tick"}) for _ in range(3)]
        assert [o.get("twice") for o in outs] == [20, 40, 60]

    def test_two_producers_rejected(self):
        net = SyncNetwork()
        net.add_node("p1", design(PRODUCER).module("producer").reactor())
        with pytest.raises(EclError):
            net.add_node("p2",
                         design(PRODUCER).module("producer").reactor())

    def test_cannot_drive_internal_signal(self):
        net = self.build_net()
        net.step()
        with pytest.raises(EclError):
            net.step(values={"data": 5})

    def test_back_edge_delayed_one_instant(self):
        echo_src = """
module echo (input int inp, output int outp)
{
    while (1) { await (inp); emit_v (outp, inp + 1); }
}
"""
        relay_src = """
module relay (input pure go, input int back, output int fwd)
{
    int seen;
    while (1) {
        await (go | back);
        present (back) { seen = back; }
        present (go) { emit_v (fwd, 100); }
    }
}
"""
        net = SyncNetwork()
        net.add_node("relay", design(relay_src).module("relay").reactor(),
                     bindings={"fwd": "fwd", "back": "back"})
        net.add_node("echo", design(echo_src).module("echo").reactor(),
                     bindings={"inp": "fwd", "outp": "back"})
        net.step()
        net.step(inputs={"go"})      # relay emits fwd; echo answers back
        net.step()                   # back edge delivered now
        assert net.node("relay").variable("seen") == 101

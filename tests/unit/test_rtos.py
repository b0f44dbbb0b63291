"""Unit tests for the simulated real-time kernel."""

import pytest

from repro.errors import RtosError
from repro.pipeline import Pipeline
from repro.rtos import EventFlag, Mailbox, MessageQueue, RtosKernel, RtosTask


class TestEventFlag:
    def test_post_consume(self):
        flag = EventFlag("f")
        flag.post()
        assert flag.consume()
        assert not flag.consume()

    def test_double_post_loses_one(self):
        flag = EventFlag("f")
        flag.post()
        flag.post()
        assert flag.lost_count == 1
        assert flag.consume()
        assert not flag.consume()


class TestMailbox:
    def test_post_consume_value(self):
        box = Mailbox("m")
        box.post(42)
        assert box.consume() == (True, 42)
        assert box.consume() == (False, None)

    def test_overwrite_policy(self):
        box = Mailbox("m")
        box.post(1)
        box.post(2)
        assert box.lost_count == 1
        assert box.consume() == (True, 2)

    def test_error_policy(self):
        box = Mailbox("m", policy="error")
        box.post(1)
        with pytest.raises(RtosError):
            box.post(2)

    def test_unknown_policy(self):
        with pytest.raises(RtosError):
            Mailbox("m", policy="stack")


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("q", capacity=3)
        for value in (1, 2, 3):
            queue.post(value)
        assert [queue.consume()[1] for _ in range(3)] == [1, 2, 3]

    def test_overflow_error(self):
        queue = MessageQueue("q", capacity=1)
        queue.post(1)
        with pytest.raises(RtosError):
            queue.post(2)

    def test_overflow_drop(self):
        queue = MessageQueue("q", capacity=1, policy="drop")
        queue.post(1)
        queue.post(2)
        assert queue.lost_count == 1
        assert queue.consume() == (True, 1)

    def test_bad_capacity(self):
        with pytest.raises(RtosError):
            MessageQueue("q", capacity=0)


PING = """
module ping (input pure kick, output pure pong)
{
    while (1) { await (kick); emit (pong); }
}
"""

ADDER = """
module adder (input int a, output int total)
{
    int acc;
    acc = 0;
    while (1) {
        await (a);
        acc = acc + a;
        emit_v (total, acc);
    }
}
"""

DELTA = """
module stepper (input pure go, output pure done)
{
    while (1) {
        await (go);
        await ();    /* one self-triggered instant */
        await ();    /* and another */
        emit (done);
    }
}
"""


def make_kernel(*sources_and_names):
    kernel = RtosKernel()
    for source, module_name, task_name, priority in sources_and_names:
        reactor = Pipeline().compile_text(source) \
            .module(module_name).reactor()
        kernel.add_task(RtosTask(task_name, reactor, priority))
    return kernel


class TestKernel:
    def test_event_to_external_output(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        kernel.post_input("kick")
        out = kernel.run_until_idle()
        assert "pong" in out

    def test_valued_event(self):
        kernel = make_kernel((ADDER, "adder", "adder", 1))
        kernel.start()
        kernel.post_input("a", 5)
        assert kernel.run_until_idle() == {"total": 5}
        kernel.post_input("a", 7)
        assert kernel.run_until_idle() == {"total": 12}

    def test_self_trigger_cascade(self):
        # await() pauses must re-schedule the task without new events
        # (paper, footnote 3).
        kernel = make_kernel((DELTA, "stepper", "stepper", 1))
        kernel.start()
        kernel.post_input("go")
        out = kernel.run_until_idle()
        assert "done" in out
        assert kernel.stats.self_triggers >= 2

    def test_unknown_signal_rejected(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        with pytest.raises(RtosError):
            kernel.post_input("nothing_consumes_this")

    def test_post_before_start_rejected(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        with pytest.raises(RtosError):
            kernel.post_input("kick")

    def test_double_start_rejected(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        with pytest.raises(RtosError):
            kernel.start()

    def test_duplicate_task_name_rejected(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        reactor = Pipeline().compile_text(PING).module("ping").reactor()
        with pytest.raises(RtosError):
            kernel.add_task(RtosTask("ping", reactor, 1))

    def test_priority_order(self):
        """Two tasks consume the same event; the higher priority runs
        first (observed through the dispatch order)."""
        order = []

        class Probe:
            def __init__(self, name, module):
                self.name = name
                self._reactor = Pipeline().compile_text(PING) \
                    .module("ping").reactor()
                self.module = self._reactor.module

            def react(self, inputs=None, values=None):
                order.append(self.name)
                return self._reactor.react(inputs=inputs, values=values)

        kernel = RtosKernel()
        kernel.add_task(RtosTask("low", Probe("low", None), priority=1))
        kernel.add_task(RtosTask("high", Probe("high", None), priority=9))
        kernel.start()
        order.clear()
        kernel.post_input("kick")
        kernel.run_until_idle()
        assert order == ["high", "low"]

    def test_stats_accumulate(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        for _ in range(5):
            kernel.post_input("kick")
            kernel.run_until_idle()
        stats = kernel.stats
        assert stats.dispatches >= 6   # start-up + 5 events
        assert stats.scheduler_invocations > stats.dispatches
        assert stats.posts >= 10       # 5 inputs + 5 pongs

    def test_pipeline_of_tasks(self):
        """ping's pong feeds adder bound to signal 'a'."""
        kernel = RtosKernel()
        ping = Pipeline().compile_text(PING).module("ping").reactor()
        adder_src = ADDER.replace("input int a", "input pure a") \
            .replace("acc = acc + a;", "acc = acc + 1;")
        adder = Pipeline().compile_text(adder_src) \
            .module("adder").reactor()
        kernel.add_task(RtosTask("ping", ping, 2,
                                 bindings={"pong": "a"}))
        kernel.add_task(RtosTask("adder", adder, 1))
        kernel.start()
        kernel.post_input("kick")
        assert kernel.run_until_idle() == {"total": 1}
        kernel.post_input("kick")
        assert kernel.run_until_idle() == {"total": 2}

    def test_livelock_detected(self):
        looper = """
module looper (input pure go, output pure never)
{
    while (1) { await (go); while (1) { await (); } }
}
"""
        kernel = make_kernel((looper, "looper", "looper", 1))
        kernel.start()
        kernel.post_input("go")
        with pytest.raises(RtosError):
            kernel.run_until_idle(max_dispatches=100)

    def test_lost_event_counting(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        task = kernel.task("ping")
        task.deliver("kick")
        task.deliver("kick")  # second before any dispatch: lost
        kernel.run_until_idle()
        assert kernel.total_lost_events() == 1

    def test_add_task_after_start_rejected(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        reactor = Pipeline().compile_text(PING).module("ping").reactor()
        with pytest.raises(RtosError):
            kernel.add_task(RtosTask("late", reactor, 1))

    def test_stats_dict_reports_network_lost_total(self):
        kernel = make_kernel((PING, "ping", "ping", 1))
        kernel.start()
        task = kernel.task("ping")
        task.deliver("kick")
        task.deliver("kick")
        kernel.run_until_idle()
        stats = kernel.stats_dict()
        assert stats["lost_events"] == 1
        assert stats["dispatches"] == kernel.stats.dispatches


def make_native_kernel(*sources_and_names):
    kernel = RtosKernel()
    for source, module_name, task_name, priority in sources_and_names:
        reactor = Pipeline().compile_text(source) \
            .module(module_name).reactor(engine="native")
        kernel.add_task(RtosTask(task_name, reactor, priority))
    return kernel


class TestNativeTasks:
    """The slot-indexed fast dispatch path (native reactors)."""

    def test_fast_path_selected(self):
        kernel = make_native_kernel((PING, "ping", "ping", 1))
        assert kernel.tasks[0].uses_native_path
        classic = make_kernel((PING, "ping", "ping", 1))
        assert not classic.tasks[0].uses_native_path

    def test_event_to_external_output(self):
        kernel = make_native_kernel((PING, "ping", "ping", 1))
        kernel.start()
        kernel.post_input("kick")
        assert "pong" in kernel.run_until_idle()

    def test_valued_event(self):
        kernel = make_native_kernel((ADDER, "adder", "adder", 1))
        kernel.start()
        kernel.post_input("a", 5)
        assert kernel.run_until_idle() == {"total": 5}
        kernel.post_input("a", 7)
        assert kernel.run_until_idle() == {"total": 12}

    def test_self_trigger_cascade(self):
        kernel = make_native_kernel((DELTA, "stepper", "stepper", 1))
        kernel.start()
        kernel.post_input("go")
        assert "done" in kernel.run_until_idle()
        assert kernel.stats.self_triggers >= 2

    def test_stats_match_efsm_tasks(self):
        """Same stimulus, same kernel counters, either task engine."""
        def run(factory):
            kernel = factory((PING, "ping", "ping", 2),
                             (DELTA, "stepper", "stepper", 1))
            kernel.start()
            outputs = []
            for signal in ("kick", "go", "kick", "go", "kick"):
                kernel.post_input(signal)
                outputs.append(sorted(kernel.run_until_idle()))
            return outputs, kernel.stats.as_dict()

        efsm_out, efsm_stats = run(make_kernel)
        native_out, native_stats = run(make_native_kernel)
        assert efsm_out == native_out
        assert efsm_stats == native_stats

    def test_carrier_view(self):
        kernel = make_native_kernel((ADDER, "adder", "adder", 1))
        kernel.start()
        task = kernel.task("adder")
        task.deliver("a", 3)
        view = task.carrier("a")
        assert view.pending and view.value == 3
        assert view.post_count == 1 and view.lost_count == 0
        with pytest.raises(RtosError):
            task.carrier("nope")

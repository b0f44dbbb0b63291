"""The paper's caveat: synchronous and asynchronous composition CAN
behave differently.

Section 4: "the behavior of the two may be different in general, e.g.,
when a reset signal occurs and is received at the same time by all
modules in the synchronous case, and at different times in the
asynchronous case".  These tests construct exactly such scenarios and
check that the reproduction exhibits — and *accounts for* — the
divergence: lost events are counted by the CFSM one-place buffers, and
the reset skew is observable.
"""


from repro.pipeline import Pipeline
from repro.rtos import RtosKernel, RtosTask

COUNTER_PAIR = """
/* Two counters; sync composition resets both in the same instant. */
module count_a (input pure tick, input pure reset_all,
                output int total_a)
{
    int n;
    n = 0;
    while (1) {
        await (tick | reset_all);
        present (reset_all) { n = 0; } else { n = n + 1; }
        emit_v (total_a, n);
    }
}

module count_b (input pure tick, input pure reset_all,
                output int total_b)
{
    int n;
    n = 0;
    while (1) {
        await (tick | reset_all);
        present (reset_all) { n = 0; } else { n = n + 1; }
        emit_v (total_b, n);
    }
}

module pair (input pure tick, input pure reset_all,
             output int total_a, output int total_b)
{
    par {
        count_a (tick, reset_all, total_a);
        count_b (tick, reset_all, total_b);
    }
}
"""


class TestSimultaneousReset:
    def test_synchronous_reset_hits_both_in_same_instant(self):
        design = Pipeline().compile_text(COUNTER_PAIR)
        reactor = design.module("pair").reactor()
        reactor.react()
        for _ in range(3):
            reactor.react(inputs={"tick"})
        out = reactor.react(inputs={"reset_all", "tick"})
        # One instant: both counters see reset and tick together, both
        # report zero.
        assert out.values == {"total_a": 0, "total_b": 0}

    def test_asynchronous_reset_reaches_tasks_at_different_times(self):
        design = Pipeline().compile_text(COUNTER_PAIR)
        kernel = RtosKernel()
        kernel.add_task(RtosTask("a", design.module("count_a").reactor(),
                                 priority=2))
        kernel.add_task(RtosTask("b", design.module("count_b").reactor(),
                                 priority=1))
        kernel.start()
        for _ in range(3):
            kernel.post_input("tick")
            kernel.run_until_idle()
        # Post reset and tick before letting anything run: each task
        # consumes BOTH pending events in one reaction, but the two
        # tasks do so in separate dispatches — the reset is "received
        # at different times" in RTOS time, though the outcome here
        # still agrees with the synchronous one.
        kernel.post_input("reset_all")
        kernel.post_input("tick")
        out = kernel.run_until_idle()
        assert out == {"total_a": 0, "total_b": 0}


BURSTY = """
module slowpoke (input int data, output int seen)
{
    while (1) {
        await (data);
        await ();      /* one instant of processing per message */
        await ();
        emit_v (seen, data);
    }
}
"""


class TestEventLoss:
    """One-place CFSM buffers lose bursts that synchrony would see."""

    def test_synchronous_composition_sees_every_value(self):
        design = Pipeline().compile_text(BURSTY)
        reactor = design.module("slowpoke").reactor()
        reactor.react()
        seen = []
        # One value every 3 instants: exactly the module's service rate.
        for value in (1, 2, 3):
            out = reactor.react(values={"data": value})
            for _ in range(2):
                out = reactor.react()
                if "seen" in out.emitted:
                    seen.append(out.values["seen"])
        assert seen == [1, 2, 3]

    def test_asynchronous_burst_overwrites_mailbox(self):
        design = Pipeline().compile_text(BURSTY)
        kernel = RtosKernel()
        kernel.add_task(RtosTask("slow", design.module("slowpoke")
                                 .reactor(), priority=1))
        kernel.start()
        # A burst of three values before the task can drain them: the
        # one-place mailbox keeps only the last (and counts the loss).
        task = kernel.task("slow")
        task.deliver("data", 1)
        task.deliver("data", 2)
        task.deliver("data", 3)
        out = kernel.run_until_idle()
        assert out.get("seen") == 3
        assert kernel.total_lost_events() == 2

    def test_lost_events_surface_in_partition_row(self):
        from repro.core import PartitionSpec, TaskSpec, run_partition
        design = Pipeline().compile_text(BURSTY)
        spec = PartitionSpec("1 task", [TaskSpec("slow", "slowpoke")])

        def bench(kernel):
            task = kernel.task("slow")
            task.deliver("data", 1)
            task.deliver("data", 2)
            kernel.run_until_idle()
            return None

        result = run_partition(design, spec, bench, "Burst")
        assert result.row.lost_events == 1

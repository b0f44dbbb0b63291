"""Unit tests for VCD export and RTOS execution tracing."""

import pytest

from repro.pipeline import Pipeline
from repro.rtos import RtosKernel, RtosTask, TraceRecorder
from repro.runtime import VcdRecorder, record_run

BLINK = """
module blink (input pure tick, output pure led)
{
    while (1) { await (tick); emit (led); await (tick); }
}
"""

SCALE = """
module scale (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * 2); }
}
"""


class TestVcd:
    def reactor(self, src, name):
        return Pipeline().compile_text(src).module(name).reactor()

    def test_header_declares_signals(self):
        reactor = self.reactor(BLINK, "blink")
        recorder = VcdRecorder.for_reactor(reactor)
        text = recorder.render()
        assert "$timescale" in text
        assert "$var wire 1" in text
        assert "tick" in text and "led" in text
        assert "$enddefinitions $end" in text

    def test_changes_recorded_per_instant(self):
        reactor = self.reactor(BLINK, "blink")
        stimulus = [{}, {"tick": None}, {}, {"tick": None}]
        outputs, text = record_run(reactor, stimulus)
        # led pulses on the 2nd instant (first tick after start-up).
        assert any("led" in " ".join(sorted(o.emitted)) or
                   "led" in o.emitted for o in outputs)
        # Time markers for the changing instants exist.
        assert "#1" in text
        assert text.strip().endswith("#4")

    def test_valued_signal_gets_vector(self):
        reactor = self.reactor(SCALE, "scale")
        recorder = VcdRecorder.for_reactor(reactor)
        assert any(line.startswith("$var wire 32")
                   for line in recorder.render().splitlines())

    def test_value_changes_dumped(self):
        reactor = self.reactor(SCALE, "scale")
        _outputs, text = record_run(
            reactor, [{}, {"x": 21}, {}, {"x": 5}])
        assert "b101010 " in text  # 42 in binary
        assert "b1010 " in text    # 10 in binary

    def test_no_redundant_changes(self):
        reactor = self.reactor(BLINK, "blink")
        _outputs, text = record_run(reactor, [{}, {}, {}, {}])
        # No inputs, no outputs: after dumpvars there are no 1-changes.
        body = text.split("$end", 3)[-1]
        assert "1" not in [line[0] for line in body.splitlines()
                           if line and line[0] in "01"]


class TestTraceRecorder:
    def make_kernel(self):
        kernel = RtosKernel()
        reactor = Pipeline().compile_text(BLINK) \
            .module("blink").reactor()
        kernel.add_task(RtosTask("blink", reactor, 1))
        recorder = TraceRecorder().attach(kernel)
        kernel.start()
        return kernel, recorder

    def test_dispatches_recorded(self):
        kernel, recorder = self.make_kernel()
        kernel.post_input("tick")
        kernel.run_until_idle()
        assert recorder.per_task_counts()["blink"] >= 2

    def test_posts_recorded(self):
        kernel, recorder = self.make_kernel()
        kernel.post_input("tick")
        kernel.run_until_idle()
        posts = [e for e in recorder.events if e.kind == "post"]
        assert any(e.signal == "tick" for e in posts)

    def test_emissions_in_dispatch_events(self):
        kernel, recorder = self.make_kernel()
        kernel.post_input("tick")
        kernel.run_until_idle()
        assert any("led" in e.emitted for e in recorder.dispatches())

    def test_timeline_render(self):
        kernel, recorder = self.make_kernel()
        for _ in range(3):
            kernel.post_input("tick")
            kernel.run_until_idle()
        timeline = recorder.timeline()
        assert "blink" in timeline
        assert "#" in timeline

    def test_log_render(self):
        kernel, recorder = self.make_kernel()
        kernel.post_input("tick")
        kernel.run_until_idle()
        log = recorder.log()
        assert "dispatch blink" in log
        assert "post tick" in log

    def test_double_attach_rejected(self):
        kernel, recorder = self.make_kernel()
        with pytest.raises(RuntimeError):
            recorder.attach(kernel)

"""Integration tests: the paper's figures, compiled and executed.

Figure artifacts (Figures 1-4, ``repro.designs``): each listing must compile
through the full pipeline; the functional stack must accept matching
packets and reject others; the synchronous and asynchronous compositions
must agree on the testbench.
"""

import pytest

from repro.core import PartitionSpec, TaskSpec, run_partition
from repro.designs import (
    AUDIO_BUFFER_ECL,
    PROTOCOL_STACK_ECL,
    PROTOCOL_STACK_FIGURES_ECL,
)
from repro.pipeline import Pipeline

from stack_packets import HDRSIZE, make_packet


@pytest.fixture(scope="module")
def design():
    return Pipeline().compile_text(PROTOCOL_STACK_ECL, "stack.ecl")


class TestFigureArtifacts:
    """Every figure compiles through all three phases."""

    def test_figures_verbatim_compile(self):
        # The listings exactly as printed (including Figure 2's
        # same-instant crc_ok emission and its (int) cast).
        figures = Pipeline().compile_text(
            PROTOCOL_STACK_FIGURES_ECL, "figures.ecl")
        for name in ["assemble", "checkcrc", "prochdr", "toplevel"]:
            efsm = figures.module(name).efsm()
            assert efsm.state_count >= 2

    def test_figure1_assemble_split(self, design):
        # Figure 1 has only reactive loops: nothing extracted.
        assert design.module("assemble").split_report().extracted_count == 0

    def test_figure2_checkcrc_split(self, design):
        # Figure 2's CRC loop is a data loop: extracted as a C function.
        report = design.module("checkcrc").split_report()
        assert report.extracted_count == 1

    def test_figure3_prochdr_uses_local_signal(self, design):
        kernel = design.module("prochdr").kernel()
        assert any(name == "kill_check" for name, _t in
                   kernel.local_signals)

    def test_figure4_toplevel_is_product(self, design):
        kernel = design.module("toplevel").kernel()
        assert len(kernel.inlined_instances) == 3

    def test_esterel_artifacts_generated(self, design):
        for name in ["assemble", "checkcrc", "prochdr"]:
            esterel = design.module(name).emit("esterel")[name + ".strl"]
            assert esterel.startswith("module %s:" % name)

    def test_c_artifacts_generated(self, design):
        source = design.module("toplevel").emit("c")["toplevel.c"]
        assert "toplevel_react" in source


class TestStackBehaviour:
    def drive(self, reactor, packet):
        matched = False
        for byte in packet:
            out = reactor.react(values={"in_byte": byte})
            matched = matched or "addr_match" in out.emitted
        for _ in range(HDRSIZE + 6):
            out = reactor.react()
            matched = matched or "addr_match" in out.emitted
        return matched

    @pytest.fixture(params=["interp", "efsm"])
    def reactor(self, design, request):
        reactor = design.module("toplevel").reactor(engine=request.param)
        reactor.react()  # start-up instant
        return reactor

    def test_good_packet_matches(self, reactor):
        assert self.drive(reactor, make_packet())

    def test_bad_header_rejected(self, reactor):
        assert not self.drive(reactor, make_packet(good_header=False))

    def test_bad_crc_rejected(self, reactor):
        assert not self.drive(reactor, make_packet(good_crc=False))

    def test_back_to_back_packets(self, reactor):
        assert self.drive(reactor, make_packet())
        assert self.drive(reactor, make_packet())
        assert not self.drive(reactor, make_packet(good_header=False))
        assert self.drive(reactor, make_packet())

    def test_reset_restarts_assembly(self, reactor):
        packet = make_packet()
        # Half a packet, then reset, then a full packet: one match.
        for byte in packet[:30]:
            reactor.react(values={"in_byte": byte})
        reactor.react(inputs={"reset"})
        assert self.drive(reactor, packet)


class TestSyncAsyncAgreement:
    """Figure 4's two implementations agree on the testbench (the paper
    notes they *can* differ; on this workload they must not)."""

    def test_match_counts_agree(self, design):
        packets = [make_packet(index % 2 == 0) for index in range(6)]

        def bench(kernel):
            matches = 0
            for packet in packets:
                for byte in packet:
                    kernel.post_input("in_byte", byte)
                    if "addr_match" in kernel.run_until_idle():
                        matches += 1
            return matches

        sync_spec = PartitionSpec("1 task",
                                  [TaskSpec("stack", "toplevel")])
        async_spec = PartitionSpec("3 tasks", [
            TaskSpec("assemble", "assemble", 3, {"outpkt": "packet"}),
            TaskSpec("prochdr", "prochdr", 2, {"inpkt": "packet"}),
            TaskSpec("checkcrc", "checkcrc", 1, {"inpkt": "packet"}),
        ])
        sync_result = run_partition(design, sync_spec, bench, "Stack")
        async_result = run_partition(design, async_spec, bench, "Stack")
        assert sync_result.testbench_result == 3
        assert async_result.testbench_result == 3

    def test_async_pays_rtos_overhead(self, design):
        def bench(kernel):
            packet = make_packet()
            for byte in packet:
                kernel.post_input("in_byte", byte)
                kernel.run_until_idle()
            return None

        sync_spec = PartitionSpec("1 task",
                                  [TaskSpec("stack", "toplevel")])
        async_spec = PartitionSpec("3 tasks", [
            TaskSpec("assemble", "assemble", 3, {"outpkt": "packet"}),
            TaskSpec("prochdr", "prochdr", 2, {"inpkt": "packet"}),
            TaskSpec("checkcrc", "checkcrc", 1, {"inpkt": "packet"}),
        ])
        sync_result = run_partition(design, sync_spec, bench, "Stack")
        async_result = run_partition(design, async_spec, bench, "Stack")
        assert async_result.row.rtos_kcycles > sync_result.row.rtos_kcycles
        assert async_result.kernel_stats["context_switches"] > \
            sync_result.kernel_stats["context_switches"]


class TestAudioBufferBehaviour:
    @pytest.fixture(scope="class")
    def audio(self):
        return Pipeline().compile_text(AUDIO_BUFFER_ECL, "audio.ecl")

    def warmed_reactor(self, audio):
        reactor = audio.module("audio_buffer").reactor()
        reactor.react()
        for _ in range(2):
            reactor.react(inputs={"rec_tick"})
            reactor.react(inputs={"play_tick"})
        return reactor

    def test_record_then_play(self, audio):
        reactor = self.warmed_reactor(audio)
        recorded = [11, 22, 33]
        played = []
        for value in recorded:
            reactor.react(values={"adc_in": value})
        for _ in range(6):
            out = reactor.react(inputs={"play_tick"})
            if "dac_out" in out.emitted:
                played.append(out.values["dac_out"])
        assert played == recorded

    def test_pop_on_empty_fifo_is_silent(self, audio):
        reactor = self.warmed_reactor(audio)
        for _ in range(6):
            out = reactor.react(inputs={"play_tick"})
            assert "dac_out" not in out.emitted

    def test_overflow_raises_watermark(self, audio):
        reactor = self.warmed_reactor(audio)
        saw_full = False
        for value in range(14):
            out = reactor.react(values={"adc_in": value})
            saw_full = saw_full or "almost_full" in out.emitted
        assert saw_full

    def test_fifo_drops_beyond_capacity(self, audio):
        reactor = self.warmed_reactor(audio)
        for value in range(20):          # capacity is 16
            reactor.react(values={"adc_in": value})
        played = []
        for _ in range(2 * 24):
            out = reactor.react(inputs={"play_tick"})
            if "dac_out" in out.emitted:
                played.append(out.values["dac_out"])
        assert played == list(range(16))

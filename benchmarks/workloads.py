"""Shared workload generators and partition specs for the benchmarks.

The Stack testbench follows the paper ("a testbench with 500 packets");
the Buffer testbench is a record/playback frame session.  Both return a
functional result (match/frame counts) so every benchmark also validates
behaviour, not just timing.
"""

from __future__ import annotations

import json
import os

from repro.core import PartitionSpec, TaskSpec
from repro.pipeline import Pipeline

HDRSIZE = 6
PKTSIZE = 64
MYADDR = 0x40

#: Where benchmark harnesses write their regenerated tables.
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def ensure_out_dir():
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def write_report(data, filename):
    """Write one benchmark's JSON artifact into :data:`OUT_DIR`;
    returns its path."""
    path = os.path.join(ensure_out_dir(), filename)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return path


# ----------------------------------------------------------------------
# Stack workload (Table 1, rows 1-2)


def crc_of(packet):
    crc = 0
    for byte in packet:
        crc = ((crc ^ byte) << 1) & 0xFFFFFFFF
    return crc


def make_packet(good_header=True, fill=0):
    """A PKTSIZE-byte packet whose trailer satisfies Figure 2's check."""
    header = [(MYADDR + j) & 0xFF if good_header else 0x99
              for j in range(HDRSIZE)]
    body = [fill & 0xFF] * (PKTSIZE - HDRSIZE - 2)
    for c0 in range(256):
        for c1 in range(256):
            candidate = header + body + [c0, c1]
            if crc_of(candidate) & 0xFFFF == c0 | (c1 << 8):
                return candidate
    raise AssertionError("no consistent CRC trailer")


#: Cache the two packet shapes (the search loops above are slow-ish).
GOOD_PACKET = make_packet(True)
BAD_PACKET = make_packet(False)


def stack_testbench(packets=500):
    """Returns a testbench callable: posts ``packets`` packets
    (alternating good/bad headers) and counts address matches."""

    def drive(kernel):
        matches = 0
        for index in range(packets):
            packet = GOOD_PACKET if index % 2 == 0 else BAD_PACKET
            for byte in packet:
                kernel.post_input("in_byte", byte)
                if "addr_match" in kernel.run_until_idle():
                    matches += 1
        return matches

    return drive


STACK_SPECS = [
    PartitionSpec("1 task", [TaskSpec("stack", "toplevel")]),
    PartitionSpec("3 tasks", [
        TaskSpec("assemble", "assemble", 3, {"outpkt": "packet"}),
        TaskSpec("prochdr", "prochdr", 2, {"inpkt": "packet"}),
        TaskSpec("checkcrc", "checkcrc", 1, {"inpkt": "packet"}),
    ]),
]


def stack_design():
    from repro.designs import PROTOCOL_STACK_ECL
    return Pipeline().compile_text(PROTOCOL_STACK_ECL, "stack.ecl")


# ----------------------------------------------------------------------
# Buffer workload (Table 1, rows 3-4)


def buffer_testbench(frames=500):
    """Record/playback session: one ADC sample + two play ticks per
    frame; counts frames reaching the DAC."""

    def drive(kernel):
        played = 0
        for _ in range(2):
            kernel.post_input("rec_tick")
            kernel.run_until_idle()
            kernel.post_input("play_tick")
            kernel.run_until_idle()
        for frame in range(frames):
            outputs = {}
            kernel.post_input("adc_in", (frame * 37) & 0xFF)
            outputs.update(kernel.run_until_idle())
            kernel.post_input("play_tick")
            outputs.update(kernel.run_until_idle())
            kernel.post_input("play_tick")
            outputs.update(kernel.run_until_idle())
            if "dac_out" in outputs:
                played += 1
        return played

    return drive


BUFFER_SPECS = [
    PartitionSpec("1 task", [TaskSpec("audio", "audio_buffer")]),
    PartitionSpec("3 tasks", [
        TaskSpec("sampler", "sampler", 3),
        TaskSpec("drain", "drain_ctrl", 2),
        TaskSpec("fifo", "fifo_ctrl", 1),
    ]),
]


def buffer_design():
    from repro.designs import AUDIO_BUFFER_ECL
    return Pipeline().compile_text(AUDIO_BUFFER_ECL, "audio.ecl")

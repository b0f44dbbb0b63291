#!/usr/bin/env python
"""The voice-mail-pager audio buffer controller (Table 1's "Buffer").

Simulates a record-then-playback session through the synchronous
product machine, then reruns it under the RTOS partitioning and prints
the memory/time comparison the paper's Section 4 makes.

Run:  python examples/audio_buffer.py
"""

from repro.core import PartitionSpec, TaskSpec, explore_partitions
from repro.cost import Table1, format_table1, shape_checks
from repro.designs import AUDIO_BUFFER_ECL
from repro.pipeline import Pipeline

SPECS = [
    PartitionSpec("1 task", [TaskSpec("audio", "audio_buffer")]),
    PartitionSpec("3 tasks", [
        TaskSpec("sampler", "sampler", 3),
        TaskSpec("drain", "drain_ctrl", 2),
        TaskSpec("fifo", "fifo_ctrl", 1),
    ]),
]


def session(kernel, frames=60):
    """Warm both codec paths up, then interleave record/playback."""
    played = []
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
            played.append(outputs["dac_out"])
    return played


def main():
    design = Pipeline().compile_text(AUDIO_BUFFER_ECL, "audio.ecl")

    print("== Synchronous product vs separate tasks")
    results = explore_partitions(design, SPECS, session, "Buffer")
    table = Table1()
    for label, result in results.items():
        table.add(result.row)
        played = result.testbench_result
        print("  %-8s played %d frames, first bytes %s"
              % (label, len(played), played[:6]))
    print()
    print(format_table1(table, include_paper=True))

    print("\n== Section 4 shape claims")
    for claim, holds in shape_checks(table).items():
        print("  %-58s %s" % (claim, "OK" if holds else "FAIL"))

    print("\n== FIFO integrity (playback equals recording, shifted)")
    recorded = [(frame * 37) & 0xFF for frame in range(60)]
    played = results["1 task"].testbench_result
    assert played == recorded[:len(played)], "FIFO corrupted!"
    print("  %d frames played back in order — FIFO consistent"
          % len(played))


if __name__ == "__main__":
    main()

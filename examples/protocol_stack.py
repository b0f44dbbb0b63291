#!/usr/bin/env python
"""The paper's protocol stack (Figures 1-4), end to end.

Compiles ``assemble``/``checkcrc``/``prochdr``/``toplevel``, shows the
reactive/data split (Figure 2's CRC loop is extracted as a C data
function), runs packets through the synchronous single-EFSM
implementation and through the three-task RTOS implementation, and
prints the phase-1 Esterel artifact.

Run:  python examples/protocol_stack.py
"""

from repro.core import PartitionSpec, TaskSpec, run_partition
from repro.designs import PROTOCOL_STACK_ECL
from repro.pipeline import Pipeline

HDRSIZE = 6
PKTSIZE = 64
MYADDR = 0x40


def make_packet(good_header=True, fill=0):
    header = [(MYADDR + j) & 0xFF if good_header else 0x99
              for j in range(HDRSIZE)]
    body = [fill] * (PKTSIZE - HDRSIZE - 2)
    packet = header + body + [0, 0]
    # Find a CRC trailer consistent with Figure 2's checksum.
    for c0 in range(256):
        for c1 in range(256):
            candidate = header + body + [c0, c1]
            if _crc(candidate) & 0xFFFF == c0 | (c1 << 8):
                return candidate
    raise AssertionError("no CRC trailer found")


def _crc(packet):
    crc = 0
    for byte in packet:
        crc = ((crc ^ byte) << 1) & 0xFFFFFFFF
    return crc


def main():
    design = Pipeline().compile_text(PROTOCOL_STACK_ECL, "stack.ecl")

    print("== Split report (phase 1)")
    for name in ["assemble", "checkcrc", "prochdr"]:
        print("  " + design.module(name).split_report().summary())

    print("\n== EFSM sizes (phase 2)")
    for name in ["assemble", "checkcrc", "prochdr", "toplevel"]:
        efsm = design.module(name).efsm()
        print("  %-10s %2d states, %3d reaction leaves"
              % (name, efsm.state_count, efsm.transition_count()))

    print("\n== Synchronous run (single product EFSM)")
    reactor = design.module("toplevel").reactor()
    reactor.react()  # start-up instant: modules reach their awaits
    for label, packet in [("good", make_packet(True)),
                          ("bad header", make_packet(False))]:
        matched = False
        for byte in packet:
            out = reactor.react(values={"in_byte": byte})
            matched = matched or "addr_match" in out.emitted
        for _ in range(HDRSIZE + 4):   # drain the multi-instant check
            out = reactor.react()
            matched = matched or "addr_match" in out.emitted
        print("  %-10s packet -> addr_match=%s" % (label, matched))

    print("\n== Asynchronous run (three RTOS tasks)")
    spec = PartitionSpec("3 tasks", [
        TaskSpec("assemble", "assemble", 3, {"outpkt": "packet"}),
        TaskSpec("prochdr", "prochdr", 2, {"inpkt": "packet"}),
        TaskSpec("checkcrc", "checkcrc", 1, {"inpkt": "packet"}),
    ])

    def testbench(kernel):
        matches = 0
        for index in range(10):
            packet = make_packet(index % 2 == 0)
            for byte in packet:
                kernel.post_input("in_byte", byte)
                if "addr_match" in kernel.run_until_idle():
                    matches += 1
        return matches

    result = run_partition(design, spec, testbench, "Stack")
    print("  10 packets (5 good): addr_match x%d"
          % result.testbench_result)
    print("  kernel stats: %s" % result.kernel_stats)

    print("\n== Phase-1 Esterel artifact for 'checkcrc' (first lines)")
    esterel = design.module("checkcrc").emit("esterel")["checkcrc.strl"]
    for line in esterel.splitlines()[:14]:
        print("    " + line)


if __name__ == "__main__":
    main()

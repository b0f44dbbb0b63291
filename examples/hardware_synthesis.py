#!/usr/bin/env python
"""Hardware/software co-synthesis from one ECL source.

The paper: "If the data-dominated C part is empty, then the complete
ECL specification can be implemented either in hardware or in
software."  This example writes a pedestrian-crossing traffic
controller whose data part is empty, then synthesizes the *same*
module to C, VHDL and Verilog — the hw/sw partitioning trade-off ECL
makes possible — and checks that a module with a data loop is
correctly refused by the hardware back-ends.

Run:  python examples/hardware_synthesis.py
"""

from repro.errors import CodegenError
from repro.pipeline import Pipeline

TRAFFIC = """
module crossing (input pure tick, input pure request,
                 output pure cars_green, output pure cars_yellow,
                 output pure cars_red, output pure walk)
{
    while (1) {
        /* Cars flow until a pedestrian asks. */
        do {
            while (1) {
                emit (cars_green);
                await (tick);
            }
        } abort (request);
        /* Yellow for two ticks. */
        emit (cars_yellow);
        await (tick);
        emit (cars_yellow);
        await (tick);
        /* Red + walk phase for three ticks. */
        emit (cars_red);
        emit (walk);
        await (tick);
        emit (cars_red);
        emit (walk);
        await (tick);
        emit (cars_red);
        await (tick);
    }
}
"""

SOFTWARE_ONLY = """
module checksum (input int word, output int sum)
{
    int total;
    int i;
    total = 0;
    while (1) {
        await (word);
        /* a data loop: forces the software-only implementation */
        for (i = 0; i < 8; i++) {
            total = total + ((word >> i) & 1);
        }
        emit_v (sum, total);
    }
}
"""


def main():
    design = Pipeline().compile_text(TRAFFIC, "crossing.ecl")
    module = design.module("crossing")
    efsm = module.efsm()
    print("crossing: %d states, %d reaction leaves"
          % (efsm.state_count, efsm.transition_count()))

    # Drive it for a few instants first (same source, simulated).
    reactor = module.reactor()
    lights = []
    trace = [{"tick"}, {"tick", "request"}, {"tick"}, {"tick"}, {"tick"},
             {"tick"}, {"tick"}]
    for inputs in trace:
        out = reactor.react(inputs=inputs)
        lights.append("+".join(sorted(out.emitted)) or "-")
    print("light sequence:", " | ".join(lights))

    print("\n-- C (software implementation), first lines:")
    for line in module.emit("c")["crossing.c"].splitlines()[:12]:
        print("   " + line)
    print("\n-- VHDL (hardware implementation), first lines:")
    for line in module.emit("vhdl")["crossing.vhd"].splitlines()[:12]:
        print("   " + line)
    print("\n-- Verilog (hardware implementation), first lines:")
    for line in module.emit("verilog")["crossing.v"].splitlines()[:12]:
        print("   " + line)

    print("\n-- A module with a data part is software-only:")
    software = Pipeline().compile_text(SOFTWARE_ONLY, "checksum.ecl")
    checksum = software.module("checksum")
    checksum.emit("c")
    print("   C synthesis: ok")
    try:
        checksum.emit("vhdl")
    except CodegenError as error:
        print("   VHDL synthesis refused: %s" % error)


if __name__ == "__main__":
    main()

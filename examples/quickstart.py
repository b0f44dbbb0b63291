#!/usr/bin/env python
"""Quickstart: compile and run your first ECL module.

ECL = C + Esterel's reactive statements (await / emit / par / abort).
This example builds a button debouncer: a press is reported only if the
button is still down two clock ticks later.

Run:  python examples/quickstart.py
"""

from repro.pipeline import Pipeline

SOURCE = """
module debounce (input pure tick, input pure button,
                 output pure press)
{
    while (1) {
        await (button);          /* raw edge */
        do {
            await (tick);
            await (tick);        /* survived two ticks */
            present (button) {
                emit (press);
            }
        } abort (~button);       /* released early: start over */
    }
}
"""


def main():
    design = Pipeline().compile_text(SOURCE, "debounce.ecl")
    module = design.module("debounce")

    # Phase 2: the reactive part becomes an extended FSM.
    efsm = module.efsm()
    print("EFSM: %d states, %d reaction leaves"
          % (efsm.state_count, efsm.transition_count()))

    # Phase 3: run it.  One react() call = one synchronous instant.
    reactor = module.reactor()
    trace = [
        set(),                         # start-up: module reaches await
        {"button"},                    # edge detected
        {"tick", "button"},            # held through tick 1
        {"tick", "button"},            # held through tick 2 -> press!
        {"button"},                    # new edge (still held from before)
        {"tick"},                      # released: ~button aborts the check
        {"tick", "button"},            # no press without a fresh edge
    ]
    for instant, inputs in enumerate(trace, start=1):
        out = reactor.react(inputs=inputs)
        marker = " <-- press" if "press" in out.emitted else ""
        print("instant %d: inputs=%-18s outputs=%s%s"
              % (instant, ",".join(sorted(inputs)) or "-",
                 ",".join(sorted(out.emitted)) or "-", marker))

    # The same module as generated C (what phase 3 ships to the target).
    c_source = module.emit("c")["debounce.c"]
    print("\nGenerated C (first lines of %s.c):" % module.name)
    for line in c_source.splitlines()[:16]:
        print("    " + line)

    # ... and, since the data part is empty, as hardware.
    print("\nGenerated Verilog (first lines):")
    for line in module.emit("verilog")["debounce.v"].splitlines()[:10]:
        print("    " + line)


if __name__ == "__main__":
    main()

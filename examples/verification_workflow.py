#!/usr/bin/env python
"""Verification workflow: the FSM-level payoffs the paper claims.

Section 2: because the control part of ECL "is equivalent to an EFSM",
"one can perform property verification, implementation verification,
and a battery of logic optimization algorithms".  This example runs all
of them on an elevator door controller (``repro.designs.DOOR_CTRL_ECL``):

1. property verification, twice —
   a. an ECL *observer* module watches the door and motor signals and
      emits `error` if the motor can run with the door open; a buggy
      variant is caught with a counterexample over the sound
      control-space search, and the same observer composition re-runs
      dynamically on the *native* engine over a concrete trace;
   b. the same interlock as a **compiled temporal monitor**
      (`repro.verify`): declarative combinators lowered once to a
      slot-indexed closure stepping alongside the native engine;
2. implementation verification — the compiled EFSM and the native
   reaction functions are checked against the reference interpreter on
   a stimulus, and a VCD waveform of the run is written;
3. the RTOS execution trace of the partitioned system is rendered as a
   task timeline.

For verification at farm scale (coverage bitmaps, fuzz campaigns, trace
ledgers) see ``examples/coverage_campaign.py``.

Run:  python examples/verification_workflow.py
"""

import os

from repro.analysis import (
    check_never_terminates,
    compare_on_trace,
    verify_with_observer,
)
from repro.designs import DOOR_CTRL_BUGGY_ECL, DOOR_CTRL_ECL
from repro.pipeline import Pipeline
from repro.rtos import RtosKernel, RtosTask, TraceRecorder
from repro.runtime import record_run
from repro.verify import MonitoredReactor, compile_bundle, never, present

STIMULUS = [{}, {"call_btn": None}] + [{"tick": None}] * 5


def main():
    pipeline = Pipeline()

    print("== 1a. Property verification with an observer module")
    good = pipeline.compile_text(DOOR_CTRL_ECL, "door.ecl")
    result = verify_with_observer(good, "door_ctrl", "interlock")
    print("   correct controller: %s"
          % ("property holds" if result is None else "VIOLATED"))

    buggy = pipeline.compile_text(DOOR_CTRL_BUGGY_ECL, "door_buggy.ecl")
    counterexample = verify_with_observer(buggy, "door_ctrl", "interlock")
    print("   buggy controller:   violation found, %d-instant witness:"
          % counterexample.length)
    for line in counterexample.describe().splitlines():
        print("      " + line)

    # The same observer, run dynamically on the native engine over a
    # concrete trace (any engine name works: interp, efsm, native).
    witness = verify_with_observer(buggy, "door_ctrl", "interlock",
                                   engine="native", trace=STIMULUS)
    print("   native-engine replay: error at instant %d" % witness.instant)

    print("\n== 1b. The interlock as a compiled temporal monitor")
    program = compile_bundle(
        [never(present("door_open") & present("motor_on"))])
    for label, design in (("correct", good), ("buggy", buggy)):
        monitored = MonitoredReactor(
            design.module("door_ctrl").reactor(engine="native"), program)
        for instant in STIMULUS:
            monitored.react(inputs=[n for n in instant])
        monitor = monitored.monitor
        if monitor.ok:
            print("   %s controller: %d instants monitored, clean"
                  % (label, monitor.instant))
        else:
            print("   %s controller:   %s"
                  % (label, monitor.first_violation.describe()))

    print("\n== 2. Implementation verification + waveform dump")
    module = good.module("door_ctrl")
    for engine in ("efsm", "native"):
        mismatch = compare_on_trace(module.kernel(), module.efsm(),
                                    STIMULUS, engine=engine)
        print("   %s vs interpreter on stimulus: %s"
              % (engine, "equivalent" if mismatch is None
                 else mismatch.describe()))
    print("   module never terminates: %s"
          % (check_never_terminates(module.efsm()) is None))

    outputs, vcd = record_run(module.reactor(), STIMULUS)
    path = os.path.join(os.path.dirname(__file__), "door_ctrl.vcd")
    with open(path, "w") as handle:
        handle.write(vcd)
    print("   wrote %s (%d instants, open it in GTKWave)"
          % (path, len(outputs)))

    print("\n== 3. RTOS execution trace of the partitioned system")
    kernel = RtosKernel()
    kernel.add_task(RtosTask("door", good.module("door_ctrl").reactor(),
                             priority=2))
    kernel.add_task(RtosTask("watch", good.module("interlock").reactor(),
                             priority=1))
    recorder = TraceRecorder().attach(kernel)
    kernel.start()
    kernel.post_input("call_btn")
    kernel.run_until_idle()
    for _ in range(5):
        kernel.post_input("tick")
        kernel.run_until_idle()
    print(recorder.timeline())
    print("   per-task dispatches: %s" % recorder.per_task_counts())


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Legacy-code migration (the paper's second industrial use case).

Section 5: ECL is used "to facilitate the migration of existing
monolithic code to partitioned code ... large legacy code blocks
[become] smaller blocks that communicate by emitting and awaiting
interface signals."

This example starts from a monolithic C-style telemetry filter (one big
function: parse, threshold, encode) and shows the ECL migration: the
same computation cut into three modules exchanging signals.  Both
versions are compiled and run on the same stimulus; the partitioned
version additionally gains reactivity for free — it can be reset
mid-stream, which the monolith cannot express.

Run:  python examples/legacy_migration.py
"""

from repro.pipeline import Pipeline

# The "legacy" version: one module wrapping the original C body.  The
# entire computation is a data block; only the I/O is reactive.
MONOLITHIC = """
module telemetry (input int raw, output int frame)
{
    int value;
    int accum;
    int count;
    int out;

    accum = 0;
    count = 0;
    while (1) {
        await (raw);
        /* --- original legacy body, kept verbatim --- */
        value = raw;
        if (value < 0) {
            value = -value;
        }
        accum = accum + value;
        count = count + 1;
        if (count == 4) {
            out = accum / 4;
            if (out > 200) {
                out = 200;
            }
            accum = 0;
            count = 0;
            emit_v (frame, out | 0x100);
        }
    }
}
"""

# The migrated version: the same stages as communicating modules.
PARTITIONED = """
module rectify (input pure reset, input int raw, output int mag)
{
    int value;
    while (1) {
        do {
            await (raw);
            value = raw;
            if (value < 0) {
                value = -value;
            }
            emit_v (mag, value);
        } abort (reset);
    }
}

module average4 (input pure reset, input int mag, output int mean)
{
    int accum;
    int count;
    while (1) {
        do {
            accum = 0;
            for (count = 0; count < 4; count++) {
                await (mag);
                accum = accum + mag;
            }
            emit_v (mean, accum / 4);
        } abort (reset);
    }
}

module encode (input pure reset, input int mean, output int frame)
{
    int out;
    while (1) {
        do {
            await (mean);
            out = mean;
            if (out > 200) {
                out = 200;
            }
            emit_v (frame, out | 0x100);
        } abort (reset);
    }
}

module telemetry (input pure reset, input int raw, output int frame)
{
    signal int mag;
    signal int mean;
    par {
        rectify (reset, raw, mag);
        average4 (reset, mag, mean);
        encode (reset, mean, frame);
    }
}
"""

STIMULUS = [5, -3, 10, 2, 100, 300, -250, 50, 7, 7, 7, 7]


def run(design, with_reset_at=None):
    reactor = design.module("telemetry").reactor()
    reactor.react()  # start-up instant
    frames = []
    for index, sample in enumerate(STIMULUS):
        inputs = set()
        if with_reset_at is not None and index == with_reset_at:
            inputs.add("reset")
        out = reactor.react(inputs=inputs, values={"raw": sample})
        if "frame" in out.emitted:
            frames.append(out.values["frame"])
    return frames


def main():
    pipeline = Pipeline()
    legacy = pipeline.compile_text(MONOLITHIC, "legacy.ecl")
    migrated = pipeline.compile_text(PARTITIONED, "migrated.ecl")

    legacy_frames = run(legacy)

    # The migrated pipeline delays each stage by its await, so drain a
    # few extra instants for a fair comparison.
    reactor = migrated.module("telemetry").reactor()
    reactor.react()
    migrated_frames = []
    for sample in STIMULUS + [0, 0]:
        out = reactor.react(values={"raw": sample})
        if "frame" in out.emitted:
            migrated_frames.append(out.values["frame"])

    print("legacy frames:   %s" % legacy_frames)
    print("migrated frames: %s" % migrated_frames)
    assert legacy_frames == migrated_frames[:len(legacy_frames)], \
        "migration changed the computation!"
    print("computation preserved across the migration")

    print("\nEFSM structure gained by the migration:")
    for design, label in [(legacy, "monolithic"), (migrated, "migrated")]:
        efsm = design.module("telemetry").efsm()
        print("  %-11s %d states, %d reaction leaves"
              % (label, efsm.state_count, efsm.transition_count()))

    frames_with_reset = run(migrated, with_reset_at=2)
    print("\nwith a mid-stream reset at sample 3 (only expressible "
          "in the migrated version): %s" % frames_with_reset)


if __name__ == "__main__":
    main()

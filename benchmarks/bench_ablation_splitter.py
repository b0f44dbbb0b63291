"""Ablation: the reactive/data splitter (paper, Section 4's two loops).

The splitter keeps Figure 2's CRC loop as one atomic C data function.
The ablated variant forces the same loop through Esterel by inserting
``await()`` — the mechanism the paper describes for making a loop "be
implemented as a sequence of EFSM transitions, instead of being
extracted as C code".  The cost: one instant per byte instead of one
per packet, visibly more scheduler work and more reaction entries for
identical results.
"""

import pytest

from repro.cost import CostModel, CycleCounter
from repro.pipeline import Pipeline

from workloads import GOOD_PACKET, crc_of

HEADER = """
#define PKTSIZE 64
typedef unsigned char byte;
typedef struct { byte data[PKTSIZE]; } packet_t;
"""

EXTRACTED = HEADER + """
module checkcrc (input packet_t inpkt, output int crc)
{
    int i;
    unsigned int acc;
    while (1) {
        await (inpkt);
        for (i = 0, acc = 0; i < PKTSIZE; i++) {
            acc = (acc ^ inpkt.data[i]) << 1;
        }
        emit_v (crc, acc);
    }
}
"""

REACTIVE = HEADER + """
module checkcrc (input packet_t inpkt, output int crc)
{
    int i;
    unsigned int acc;
    while (1) {
        await (inpkt);
        for (i = 0, acc = 0; i < PKTSIZE; i++) {
            acc = (acc ^ inpkt.data[i]) << 1;
            await ();   /* force one EFSM transition per byte */
        }
        emit_v (crc, acc);
    }
}
"""


def _compile(source):
    return Pipeline().compile_text(source).module("checkcrc")


def _run(module, rounds=20):
    counter = CycleCounter()
    reactor = module.reactor(counter=counter)
    packet = bytes(GOOD_PACKET)
    reactor.react()
    results = []
    for _ in range(rounds):
        out = reactor.react(values={"inpkt": packet})
        instants = 1
        while "crc" not in out.emitted:
            out = reactor.react()
            instants += 1
        results.append((out.values["crc"], instants))
    return results, counter


@pytest.mark.parametrize("variant, source", [
    ("extracted", EXTRACTED),
    ("reactive", REACTIVE),
])
def test_ablation_splitter_timing(benchmark, variant, source):
    module = _compile(source)
    results = benchmark(lambda: _run(module, rounds=5)[0])
    expected = crc_of(GOOD_PACKET) & 0xFFFFFFFF
    # Same checksum either way (int wrap of the unsigned accumulator).
    assert all((value & 0xFFFFFFFF) == expected
               for value, _instants in results)


def test_ablation_splitter_shape(benchmark):
    model = CostModel()
    extracted = _compile(EXTRACTED)
    reactive = _compile(REACTIVE)

    (results_e, counter_e), (results_r, counter_r) = benchmark.pedantic(
        lambda: (_run(extracted), _run(reactive)), rounds=1, iterations=1)

    # Identical checksums...
    assert [v for v, _ in results_e] == [v for v, _ in results_r]
    # ...but the extracted version answers in one instant while the
    # reactive version needs one instant per byte.
    assert all(instants == 1 for _v, instants in results_e)
    assert all(instants >= 64 for _v, instants in results_r)
    # The reactive variant pays ~64x the reaction entries.
    assert counter_r.counts["react"] > 40 * counter_e.counts["react"]

    # Split reports agree with the story.
    assert extracted.kernel().data_blocks, "CRC loop should be extracted"
    assert not reactive.kernel().data_blocks, \
        "await() must keep the loop reactive"

    print("\nextracted: react=%d  reactive: react=%d  (x%.1f)"
          % (counter_e.counts["react"], counter_r.counts["react"],
             counter_r.counts["react"] / max(1, counter_e.counts["react"])))

"""The four serve workloads: batch documents generated from a seed.

Every workload is a closed loop: each client waits for its batch's last
row before it submits the next one.  A batch document is a pure
function of ``(workload, seed, batch number)``; batch number 0 is the
untimed warm-up batch.  The server sees only these documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL

#: Tenant every benchmark batch is submitted under.
TENANT = "bench"

#: Module names of the three paper designs, for revision renaming.
_MODULES = {
    "stack": ("assemble", "checkcrc", "prochdr", "toplevel"),
    "audio": ("sampler", "fifo_ctrl", "drain_ctrl", "audio_buffer"),
    "door": ("door_ctrl", "interlock"),
}

_SOURCES = {
    "stack": PROTOCOL_STACK_ECL,
    "audio": AUDIO_BUFFER_ECL,
    "door": DOOR_CTRL_ECL,
}

#: Instants per job of the cold-compile workload.
COLD_LENGTH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int

    def document(self, seed, number):
        """The batch document for batch ``number`` of a run."""
        salt = seed + number
        if self.name == "cold_compile":
            label, text = revision(number, salt)
            entry = {"design": label, "engine": "native", "traces": 1,
                     "length": COLD_LENGTH, "seed": salt}
            return {"spec_version": 2,
                    "designs": {label: {"text": text}}, "jobs": [entry]}
        engine, traces, length = {
            "native_bulk": ("native", 256, 64),
            "vector_sweep": ("vector", 256, 64),
            "small_batches": ("native", 4, 32),
        }[self.name]
        entry = {"design": "stack", "modules": ["toplevel"],
                 "engine": engine, "traces": traces, "length": length,
                 "seed": salt}
        return {"spec_version": 2,
                "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
                "jobs": [entry]}


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("native_bulk", 1),
        Workload("vector_sweep", 1),
        Workload("small_batches", 2),
        Workload("cold_compile", 1),
    )
}


def revision(number, salt):
    """``(label, source)`` of revision ``salt`` of batch ``number``.

    Rotates over the three paper designs by batch number, so the
    warm-up batch always compiles the stack.  Every module is renamed with
    a revision suffix, and the stack and audio designs also get new
    buffer sizes, so each revision changes the compiled modules
    themselves — not just a comment — and misses any artifact cache.
    """
    label = ("stack", "audio", "door")[number % 3]
    text = _SOURCES[label]
    if label == "stack":
        text = text.replace("#define DATASIZE 56",
                            "#define DATASIZE %d" % (16 + salt % 97))
    elif label == "audio":
        depth = 8 + salt % 57
        text = text.replace("#define FIFODEPTH 16",
                            "#define FIFODEPTH %d" % depth)
        text = text.replace("#define HIGHWATER 12",
                            "#define HIGHWATER %d" % (depth * 3 // 4))
    pattern = r"\b(%s)\b" % "|".join(_MODULES[label])
    text = re.sub(pattern, r"\1_r%d" % salt, text)
    return "%s_r%d" % (label, salt), text

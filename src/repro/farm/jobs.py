"""Job and result model of the simulation farm.

One :class:`SimJob` names everything needed to reproduce one simulation
run bit-for-bit: the design (by batch label), the module, the engine,
the stimulus recipe and the horizon.  Jobs are frozen dataclasses, so
they pickle cleanly across the worker-process boundary and hash into a
stable ``job_id``; the per-job random seed is *derived* from that id,
which is what makes a 10 000-job batch deterministic — re-running the
batch (or any single job of it, anywhere) regenerates the same stimulus
and therefore the same trace.

A :class:`SimResult` is the worker's answer: status, instants executed,
emission counts, the content address of the persisted trace in the
:class:`~repro.farm.ledger.TraceLedger`, and (for equivalence jobs) the
first divergence between the engines.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..engines import get_engine, names_with
from ..errors import EclError
from .ledger import compact_json

#: Job outcome classes.  "ok" and "terminated" count as success.
STATUS_OK = "ok"
STATUS_TERMINATED = "terminated"
STATUS_DIVERGED = "diverged"
STATUS_ERROR = "error"
STATUS_VIOLATED = "violated"


def random_instant(rng, inputs, present_prob, value_range):
    """One random instant over an input alphabet: each ``(name,
    is_pure)`` entry is present with ``present_prob``, carrying a value
    drawn from ``value_range`` when valued.  Shared by the spec
    materializer and the verify fuzzer's mutations, so both sample the
    identical distribution (and consume the rng identically)."""
    low, high = value_range
    instant = {}
    for name, is_pure in inputs:
        if rng.random() >= present_prob:
            continue
        instant[name] = None if is_pure else rng.randint(low, high)
    return instant


def value_range_of(value, where="stimulus"):
    """``value`` as a ``(low, high)`` tuple: exactly two integers (no
    bools) with ``low <= high``; an EclError naming the field
    otherwise, so a malformed range never reaches a worker."""
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(type(bound) is int for bound in value)
        and value[0] <= value[1]
    ):
        return (value[0], value[1])
    raise EclError(
        '%s: "value_range" must be two integers [low, high] with '
        "low <= high, got %r" % (where, value)
    )


@dataclass(frozen=True)
class StimulusSpec:
    """Recipe for one input trace.

    ``kind="random"`` draws ``length`` instants from the module's input
    alphabet with a :class:`random.Random` seeded by the *job* (not the
    spec), so identical specs on different jobs still explore different
    traces.  ``kind="explicit"`` replays ``steps`` verbatim; each step
    is a tuple of ``(signal, value-or-None)`` pairs (``None`` = pure
    presence), kept as tuples so the spec stays hashable.
    """

    kind: str = "random"
    length: int = 32
    present_prob: float = 0.5
    value_range: Tuple[int, int] = (0, 255)
    steps: Tuple[Tuple[Tuple[str, Optional[int]], ...], ...] = ()
    salt: int = 0  # batch seed; part of the job identity

    def __post_init__(self):
        if self.kind == "random":
            object.__setattr__(self, "value_range", value_range_of(self.value_range))

    @classmethod
    def random(cls, length=32, present_prob=0.5, value_range=(0, 255), salt=0):
        return cls(
            kind="random",
            length=length,
            present_prob=present_prob,
            value_range=tuple(value_range),
            salt=salt,
        )

    @classmethod
    def explicit(cls, instants):
        """From a list of instant dicts (``name -> value-or-None``)."""
        steps = tuple(
            tuple(sorted(dict(instant).items(), key=lambda item: item[0]))
            for instant in instants
        )
        return cls(kind="explicit", length=len(steps), steps=steps)

    def materialize(self, inputs, seed):
        """The concrete instant list for this spec.

        ``inputs`` is a list of ``(name, is_pure)`` pairs describing
        the target module's input alphabet; ``seed`` is the consuming
        job's derived seed.  Returns a list of dicts mapping present
        signal names to ``None`` (pure) or an int value.
        """
        if self.kind == "explicit":
            return [dict(step) for step in self.steps]
        if self.kind != "random":
            raise EclError("unknown stimulus kind %r" % self.kind)
        rng = random.Random(seed)
        return [
            random_instant(rng, inputs, self.present_prob, self.value_range)
            for _ in range(self.length)
        ]

    def describe(self):
        if self.kind == "explicit":
            return "explicit:%d" % len(self.steps)
        text = "random:%d@p=%.2f[%d..%d]" % (
            self.length,
            self.present_prob,
            self.value_range[0],
            self.value_range[1],
        )
        if self.salt:
            text += "+salt=%d" % self.salt
        return text


@dataclass(frozen=True)
class SimJob:
    """One unit of simulation work: design x module x engine x trace.

    ``tasks`` (rtos engine only) optionally partitions the run into
    several prioritized tasks; each entry is ``(task_name, module_name,
    priority)`` or ``(task_name, module_name, priority, bindings)``
    with ``bindings`` a tuple of ``(formal, network)`` signal renames.
    Empty means one task wrapping ``module``.

    Verification jobs (the :mod:`repro.verify` campaign surface) carry
    two extra fields: ``properties`` — a tuple of
    :class:`repro.verify.props.Property` dataclasses compiled into a
    monitor bundle worker-side — and ``collect_coverage``, which
    attaches state/transition/emit coverage bitmaps to the engine and
    returns them in the result.  Both default off and (for backward
    job-id stability) only enter the job identity when set.
    """

    design: str
    module: str
    #: any name of :func:`repro.engines.engine_names`.
    engine: str = "efsm"
    stimulus: StimulusSpec = field(default_factory=StimulusSpec)
    horizon: int = 0  # 0 = stimulus length
    index: int = 0  # unique position within the batch
    record_vcd: bool = False
    tasks: Tuple[tuple, ...] = ()
    properties: Tuple = ()
    collect_coverage: bool = False
    #: rtos engine only: what runs inside each task ("" = "efsm";
    #: "native" binds closure-compiled reactors from a partition
    #: bundle).  Like properties, only enters the job identity when
    #: set, so pre-existing job ids (and their traces) stay stable.
    task_engine: str = ""
    #: serving QoS only: max seconds the job may wait in the service
    #: queue before it is refused (0 = no deadline).  Execution policy,
    #: not identity — deliberately excluded from ``job_id``, so the
    #: same job with or without a deadline produces the same trace.
    deadline_s: float = 0.0

    def __post_init__(self):
        get_engine(self.engine)  # raises EclError on unknown names
        if self.task_engine and self.task_engine not in names_with("step"):
            raise EclError(
                "unknown task engine %r (one of: %s)"
                % (self.task_engine, ", ".join(names_with("step")))
            )
        # Hashed once: fields are frozen, and the id is read many times
        # per job.  Not a field, so equality, hashing and pickles stay
        # field-based (the cache is dropped on pickling, rebuilt after).
        object.__setattr__(self, "_job_id", self._identity())

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_job_id"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        object.__setattr__(self, "_job_id", self._identity())

    @property
    def job_id(self):
        """Stable content address of this job's full definition."""
        return self._job_id

    def _identity(self):
        parts = [
            "design=%s" % self.design,
            "module=%s" % self.module,
            "engine=%s" % self.engine,
            "stimulus=%r" % (self.stimulus,),
            "horizon=%d" % self.horizon,
            "index=%d" % self.index,
            "tasks=%r" % (self.tasks,),
        ]
        if self.properties:
            parts.append("properties=%r" % (self.properties,))
        if self.collect_coverage:
            parts.append("coverage=1")
        if self.task_engine:
            parts.append("task_engine=%s" % self.task_engine)
        return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()

    @property
    def seed(self):
        """Deterministic per-job seed, derived from the job identity."""
        return int(self.job_id[:16], 16)

    @property
    def instant_budget(self):
        """How many instants this job runs (horizon-padded)."""
        return self.horizon if self.horizon > 0 else self.stimulus.length

    def label(self):
        return "%s/%s[%s]#%d" % (
            self.design,
            self.module,
            self.engine,
            self.index,
        )


#: Field order of :meth:`SimResult.to_dict` — one explicit list, so the
#: wire format of the farm report and the serving API cannot drift from
#: whatever ``__dict__`` happens to hold.
RESULT_FIELDS = (
    "job_id",
    "design",
    "module",
    "engine",
    "index",
    "status",
    "instants",
    "emitted_events",
    "trace_digest",
    "error",
    "divergence",
    "violation",
    "violation_instant",
    "coverage",
    "kernel_stats",
)

#: Fields that legitimately differ between two executions of the same
#: job (timings, process ids, absolute paths).  Excluded from the
#: stable serialization so identical runs serialize identically.
RESULT_VOLATILE_FIELDS = ("elapsed", "trace_path", "worker_pid")


@dataclass
class SimResult:
    """What one job produced, reduced to picklable plain data."""

    job_id: str
    design: str
    module: str
    engine: str
    index: int
    status: str = STATUS_OK
    instants: int = 0
    emitted_events: int = 0
    elapsed: float = 0.0
    trace_digest: Optional[str] = None
    trace_path: Optional[str] = None
    error: Optional[str] = None
    divergence: Optional[str] = None
    violation: Optional[str] = None
    violation_instant: int = -1
    coverage: Optional[dict] = None
    #: rtos engine only: the kernel's operation counters (dispatches,
    #: context_switches, posts, self_triggers, lost_events, ...) — the
    #: paper's task-vs-RTOS accounting, surfaced at farm scale.
    kernel_stats: Optional[dict] = None
    worker_pid: int = 0

    @property
    def ok(self):
        return self.status in (STATUS_OK, STATUS_TERMINATED)

    def to_dict(self, volatile=True):
        """Stable JSON-clean dict of this result.

        ``volatile=False`` drops the fields that differ between two
        executions of the same job (elapsed, worker_pid, trace_path),
        leaving the *reproducible* payload: two runs of the same job
        under the same seeds then serialize byte-identically
        (``json.dumps(..., sort_keys=True)``) — the serving API's
        equivalence contract with ``eclc farm run``.
        """
        payload = {name: getattr(self, name) for name in RESULT_FIELDS}
        if volatile:
            for name in RESULT_VOLATILE_FIELDS:
                payload[name] = getattr(self, name)
        return payload

    def stable_json(self):
        """The stable row (``to_dict(volatile=False)``) as compact,
        key-sorted JSON bytes: what the serving API streams for
        ``?stable=1`` and the batch journal embeds.  Encoded on first
        use and kept, so a landed row is serialized once; a result
        must not change after that.  Two threads racing the first call
        both compute the same bytes."""
        line = self.__dict__.get("_stable_json")
        if line is None:
            line = compact_json(self.to_dict(volatile=False)).encode("utf-8")
            self._stable_json = line
        return line

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a result from :meth:`to_dict` output (unknown keys
        are ignored, missing volatile fields default)."""
        known = set(RESULT_FIELDS) | set(RESULT_VOLATILE_FIELDS)
        return cls(**{k: v for k, v in payload.items() if k in known})

    def as_dict(self):
        return self.to_dict()

    def summary_line(self):
        tail = ""
        if self.error:
            tail = "  %s" % self.error.splitlines()[0]
        elif self.divergence:
            tail = "  %s" % self.divergence.splitlines()[0]
        elif self.violation:
            tail = "  instant %d: %s" % (
                self.violation_instant,
                self.violation.splitlines()[0],
            )
        label = "%s/%s[%s]#%d" % (
            self.design,
            self.module,
            self.engine,
            self.index,
        )
        return "%-32s %-10s %5d instants  %6.1f ms%s" % (
            label,
            self.status,
            self.instants,
            self.elapsed * 1e3,
            tail,
        )


def expand_jobs(
    design_modules,
    engines=("efsm",),
    traces=1,
    length=32,
    horizon=0,
    present_prob=0.5,
    value_range=(0, 255),
    record_vcd=False,
    start_index=0,
    salt=0,
    task_engine="",
    tasks=(),
    deadline_s=0.0,
):
    """Cartesian job expansion: every (design, module) x engine x trace
    replicate, with batch-unique indices (the index feeds each job's
    derived seed, so replicates explore distinct traces; ``salt`` is a
    batch-level seed shifting every derived seed at once).

    ``design_modules`` is an iterable of ``(design_label, module_name)``
    pairs.  Returns a list of :class:`SimJob`.
    """
    spec = StimulusSpec.random(
        length=length,
        present_prob=present_prob,
        value_range=value_range,
        salt=salt,
    )
    jobs: List[SimJob] = []
    index = start_index
    for design, module in design_modules:
        for engine in engines:
            runs_tasks = "tasks" in get_engine(engine).capabilities()
            for _ in range(max(1, traces)):
                jobs.append(
                    SimJob(
                        design=design,
                        module=module,
                        engine=engine,
                        stimulus=spec,
                        horizon=horizon,
                        index=index,
                        record_vcd=record_vcd,
                        task_engine=task_engine if runs_tasks else "",
                        tasks=tasks,
                        deadline_s=deadline_s,
                    )
                )
                index += 1
    return jobs

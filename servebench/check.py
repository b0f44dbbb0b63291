"""Output checks: every row, plus sampled traces against the efsm engine.

Every streamed row must be ``ok``, carry the batch's instant count and
an emitted-event count, and every job index of its batch must arrive
exactly once.  A seeded sample of jobs is then checked instant by
instant: the trace the service recorded (fetched over
``GET /v1/tenants/<t>/traces/<digest>``) must equal what the ``efsm``
engine — an EFSM walker independent of the native and vector lowering
— produces on the same stimulus and seed.  Trace digests are not
pinned, so a versioned ledger object format change does not fail the
check.
"""

from __future__ import annotations

import json
import random

from repro.engines import get_engine
from repro.farm.spec import expand_document, load_designs
from repro.farm.worker import WorkerState

from workloads import TENANT


def _length(document):
    return int(document["jobs"][0]["length"])


def check_rows(document, jobs, rows):
    """Problems with one batch's rows (empty list = all good).
    ``jobs`` is the job count the service admitted."""
    problems = []
    length = _length(document)
    engine = document["jobs"][0]["engine"]
    seen = set()
    for row in rows:
        index = row.get("index")
        if row.get("status") != "ok":
            problems.append("job %s: status %r (%s)" % (
                index, row.get("status"), row.get("error")))
        if row.get("instants") != length:
            problems.append("job %s: %r instants, want %d" % (
                index, row.get("instants"), length))
        events = row.get("emitted_events")
        if not isinstance(events, int) or events < 0:
            problems.append("job %s: bad emitted_events %r" % (index, events))
        if row.get("engine") != engine:
            problems.append("job %s: engine %r" % (index, row.get("engine")))
        if index in seen:
            problems.append("job %s: duplicated row" % index)
        seen.add(index)
    missing = set(range(jobs)) - seen
    if missing:
        problems.append("%d job(s) without a row" % len(missing))
    return problems


class Reference:
    """The efsm engine over the benchmark's own compile of each design."""

    def __init__(self):
        self._states = {}

    def _state(self, label, text):
        key = (label, text)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = WorkerState({label: text})
        return state

    def records(self, document, index):
        """``(job, records)`` of job ``index`` of ``document``, run on
        the efsm engine with the job's own derived seed."""
        designs = load_designs(document["designs"], None, "<reference>",
                               allow_paths=False)
        job = expand_document(document, designs, "<reference>")[index]
        state = self._state(job.design, designs[job.design])
        engine = get_engine("efsm").build(state.handles(job.design), job)
        stimulus = job.stimulus.materialize(engine.input_alphabet(), job.seed)
        stimulus += [{}] * (job.instant_budget - len(stimulus))
        records = []
        for instant in stimulus[:job.instant_budget]:
            records.append(engine.step(instant))
            if engine.terminated:
                break
        return job, json.loads(json.dumps(records, sort_keys=True))


def check_traces(client, samples, seed, count):
    """Check ``count`` seeded picks from ``samples`` — ``(document,
    row)`` pairs — against the efsm reference; returns ``(checked,
    problems)``.  Half the picks come from rows that emitted events,
    when there are any: a silent trace says little about the engine."""
    rng = random.Random(seed)
    loud = [sample for sample in samples if sample[1]["emitted_events"]]
    picks = rng.sample(loud, min(count // 2, len(loud)))
    rest = [sample for sample in samples if sample not in picks]
    picks += rng.sample(rest, min(count - len(picks), len(rest)))
    reference = Reference()
    problems = []
    for document, row in picks:
        where = "batch seed %s job %s" % (document["jobs"][0]["seed"],
                                          row["index"])
        job, expected = reference.records(document, row["index"])
        if job.job_id != row["job_id"]:
            problems.append("%s: job id differs from the reference "
                            "expansion" % where)
            continue
        fetched = client.fetch_trace(TENANT, row["trace_digest"])
        actual = json.loads(json.dumps(fetched["records"], sort_keys=True))
        if len(actual) != len(expected):
            problems.append("%s: %d recorded instants, efsm ran %d"
                            % (where, len(actual), len(expected)))
        for number, (got, want) in enumerate(zip(actual, expected)):
            if got != want:
                problems.append("%s: instant %d differs from efsm: %r vs %r"
                                % (where, number, got, want))
                break
        events = sum(len(record["emitted"]) for record in expected)
        if row["emitted_events"] != events:
            problems.append("%s: emitted_events %d, efsm emitted %d"
                            % (where, row["emitted_events"], events))
    return len(picks), problems

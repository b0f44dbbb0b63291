"""Coverage-guided verification campaigns on the simulation farm.

A :class:`VerifyCampaign` turns a design, a property bundle and a
coverage target into rounds of farm-sharded verification jobs:

* every job runs with ``collect_coverage`` on and the campaign's
  properties compiled into a worker-side monitor bundle;
* worker coverage bitmaps merge into one campaign-wide
  :class:`~repro.verify.coverage.CoverageMap`;
* a stimulus that covered a bit nobody else had joins the **corpus**;
  later rounds mutate corpus traces (drop/duplicate/insert instants,
  toggle signals, perturb values, splice two parents, extend tails) —
  the classic coverage-guided fuzzing loop, deterministic because every
  mutation draws from a ``random.Random`` seeded by (salt, round, slot)
  and lands in an *explicit* :class:`~repro.farm.jobs.StimulusSpec`
  whose steps are part of the job identity;
* a property violation is re-played locally, **minimized**
  (:mod:`repro.verify.minimize`) and — when the campaign has a ledger —
  stored as a content-addressed counterexample trace in the
  :class:`~repro.farm.ledger.TraceLedger`;
* the campaign stops on target transition coverage, on a violation
  (by default), or when the round budget runs out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

from .. import telemetry
from ..engines import adapter_names, get_engine
from ..errors import EclError
from ..farm.farm import SimulationFarm
from ..farm.jobs import SimJob, StimulusSpec, random_instant, value_range_of
from ..farm.ledger import TraceLedger, encode_records
from ..pipeline import Pipeline
from .coverage import CoverageMap, CoverageReport
from .minimize import minimize_stimulus
from .monitor import Monitor, compile_bundle

#: Corpus entries kept for mutation (oldest beyond this are dropped).
CORPUS_LIMIT = 64

#: Replay budget per counterexample minimization.
MINIMIZE_REPLAYS = 2000


@dataclass
class CampaignViolation:
    """One property violation, minimized and (optionally) persisted."""

    property_text: str
    instant: int
    job_label: str
    stimulus: Tuple[dict, ...] = ()
    trace_digest: Optional[str] = None
    replays: int = 0

    def describe(self):
        lines = [
            "VIOLATION %s (found by %s, minimized to %d instant(s) "
            "in %d replays)"
            % (self.property_text, self.job_label, len(self.stimulus), self.replays)
        ]
        for number, instant in enumerate(self.stimulus):
            entries = []
            for name in sorted(instant):
                value = instant[name]
                entries.append(name if value is None else "%s=%r" % (name, value))
            lines.append("  instant %d: %s" % (number, " ".join(entries) or "-"))
        if self.trace_digest:
            lines.append("  counterexample trace: %s" % self.trace_digest)
        return "\n".join(lines)

    def as_dict(self):
        return {
            "property": self.property_text,
            "instant": self.instant,
            "job": self.job_label,
            "stimulus": [dict(instant) for instant in self.stimulus],
            "trace_digest": self.trace_digest,
            "replays": self.replays,
        }


@dataclass
class CampaignResult:
    """What one campaign produced."""

    coverage: CoverageMap = None
    report: CoverageReport = None
    violations: List[CampaignViolation] = field(default_factory=list)
    rounds_run: int = 0
    jobs_run: int = 0
    reached_target: bool = False
    target: float = 100.0
    elapsed: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations and not self.errors

    def as_dict(self):
        return {
            "ok": self.ok,
            "rounds_run": self.rounds_run,
            "jobs_run": self.jobs_run,
            "reached_target": self.reached_target,
            "target": self.target,
            "elapsed": self.elapsed,
            "coverage": self.report.as_dict() if self.report else None,
            "violations": [violation.as_dict() for violation in self.violations],
            "errors": list(self.errors),
        }

    def summary(self):
        lines = [
            "campaign: %d job(s) over %d round(s) in %.2f s  "
            "[target %.0f%% transition coverage: %s]"
            % (
                self.jobs_run,
                self.rounds_run,
                self.elapsed,
                self.target,
                "reached" if self.reached_target else "NOT reached",
            )
        ]
        if self.report is not None:
            lines.append(self.report.summary())
        for violation in self.violations:
            lines.append(violation.describe())
        for error in self.errors:
            lines.append("ERROR " + error)
        return "\n".join(lines)


class VerifyCampaign:
    """Coverage-guided fuzz campaign over one (design, module) pair."""

    def __init__(
        self,
        designs,
        design,
        module,
        engine="native",
        task_engine="",
        properties=(),
        rounds=6,
        jobs_per_round=16,
        length=32,
        present_prob=0.5,
        value_range=(0, 255),
        workers=None,
        ledger_root=None,
        target=100.0,
        seeds=(),
        salt=0,
        stop_on_violation=True,
        minimize=True,
    ):
        """``designs`` maps batch labels to ECL source (as for
        :class:`~repro.farm.farm.SimulationFarm`); ``design``/``module``
        name the unit under verification; ``target`` is the transition
        coverage percentage that ends the campaign early."""
        self.designs = dict(designs)
        if design not in self.designs:
            raise EclError(
                "campaign design %r not in designs (%s)"
                % (design, ", ".join(sorted(self.designs)) or "none")
            )
        if engine not in adapter_names():
            # Fail fast: "equivalence" is a farm job mode, not an
            # engine the campaign can replay locally for minimization.
            raise EclError(
                "unknown campaign engine %r (one of: %s)"
                % (engine, ", ".join(adapter_names()))
            )
        self.design = design
        self.module = module
        self.engine = engine
        #: rtos engine only: what runs inside each task.
        self.task_engine = task_engine
        self.properties = tuple(properties)
        self.rounds = max(1, int(rounds))
        self.jobs_per_round = max(1, int(jobs_per_round))
        self.length = max(1, int(length))
        self.present_prob = float(present_prob)
        self.value_range = value_range_of(value_range, "campaign")
        self.workers = workers
        self.ledger_root = ledger_root
        self.target = float(target)
        self.seeds = [list(seed) for seed in seeds]
        self.salt = int(salt)
        self.stop_on_violation = stop_on_violation
        self.minimize = minimize

        self._pipeline = Pipeline()
        self._build = self._pipeline.compile_text(
            self.designs[design], filename=design
        )
        self._handle = self._build.module(module)
        self._program = compile_bundle(self.properties) if self.properties else None
        self._alphabet = None

    # -- local replay plumbing -----------------------------------------

    def _task_engine(self):
        """The job-level task engine ("" unless the campaign runs the
        rtos engine — the field only enters job ids when set)."""
        if "tasks" in get_engine(self.engine).capabilities():
            return self.task_engine
        return ""

    def _engine(self):
        probe = SimJob(design=self.design, module=self.module,
                       engine=self.engine, task_engine=self._task_engine())
        return get_engine(self.engine).build(
            lambda name: self._build.module(name), probe
        )

    def alphabet(self):
        """The drivable input alphabet ``(name, is_pure)`` pairs."""
        if self._alphabet is None:
            self._alphabet = self._engine().input_alphabet()
        return self._alphabet

    def _replay(self, stimulus):
        """``(records, monitor_or_None)`` for one stimulus run locally."""
        engine = self._engine()
        monitor = Monitor(self._program) if self._program else None
        records = []
        for instant in stimulus:
            record = engine.step(instant)
            records.append(record)
            if monitor is not None:
                monitor.step_record(record)
            if engine.terminated:
                break
        return records, monitor

    def _replay_violation(self, stimulus):
        """First violation instant of a stimulus, or None (the
        minimizer's check function)."""
        _records, monitor = self._replay(stimulus)
        violation = monitor.first_violation if monitor else None
        return violation.instant if violation else None

    # -- stimulus generation -------------------------------------------

    def _rng(self, round_no, slot):
        return random.Random((self.salt * 1000003 + round_no) * 1000003 + slot)

    def _random_instant(self, rng):
        return random_instant(
            rng, self.alphabet(), self.present_prob, self.value_range
        )

    def _mutate(self, rng, corpus):
        """One mutated child of the corpus (never empty)."""
        base = [dict(instant) for instant in corpus[rng.randrange(len(corpus))]]
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(6)
            if op == 0 and len(base) > 1:  # drop an instant
                del base[rng.randrange(len(base))]
            elif op == 1:  # duplicate an instant
                where = rng.randrange(len(base))
                base.insert(where, dict(base[where]))
            elif op == 2:  # insert a fresh random instant
                base.insert(rng.randint(0, len(base)), self._random_instant(rng))
            elif op == 3 and self.alphabet():  # toggle one signal somewhere
                where = rng.randrange(len(base))
                alphabet = self.alphabet()
                name, is_pure = alphabet[rng.randrange(len(alphabet))]
                if name in base[where]:
                    del base[where][name]
                else:
                    low, high = self.value_range
                    base[where][name] = None if is_pure else rng.randint(low, high)
            elif op == 4:  # perturb one carried value
                valued = [
                    (index, name)
                    for index, instant in enumerate(base)
                    for name, value in instant.items()
                    if value is not None
                ]
                if valued:
                    where, name = valued[rng.randrange(len(valued))]
                    low, high = self.value_range
                    base[where][name] = rng.randint(low, high)
            elif op == 5:  # splice with another corpus parent
                other = corpus[rng.randrange(len(corpus))]
                cut = rng.randint(0, len(base))
                base = base[:cut] + [dict(instant) for instant in other[cut:]]
        while len(base) > 4 * self.length:
            base.pop()
        return base or [self._random_instant(rng)]

    def _round_specs(self, round_no, corpus):
        """The stimulus specs of one round: explicit seeds first (round
        0), then corpus mutations, topped up with fresh random specs."""
        specs = []
        if round_no == 0:
            for seed in self.seeds[: self.jobs_per_round]:
                specs.append(StimulusSpec.explicit(seed))
        mutations = (self.jobs_per_round - len(specs)) // 2 if corpus else 0
        for slot in range(mutations):
            rng = self._rng(round_no, slot)
            specs.append(StimulusSpec.explicit(self._mutate(rng, corpus)))
        while len(specs) < self.jobs_per_round:
            specs.append(
                StimulusSpec.random(
                    length=self.length,
                    present_prob=self.present_prob,
                    value_range=self.value_range,
                    salt=self.salt,
                )
            )
        return specs

    # -- the campaign loop ---------------------------------------------

    def run(self) -> CampaignResult:
        started = perf_counter()
        efsm = self._handle.efsm()
        merged = CoverageMap.for_efsm(efsm)
        farm = SimulationFarm(
            self.designs,
            ledger_root=self.ledger_root,
            workers=self.workers,
        )
        result = CampaignResult(coverage=merged, target=self.target)
        corpus = [list(seed) for seed in self.seeds]
        next_index = 0
        for round_no in range(self.rounds):
            jobs = []
            for spec in self._round_specs(round_no, corpus):
                jobs.append(
                    SimJob(
                        design=self.design,
                        module=self.module,
                        engine=self.engine,
                        task_engine=self._task_engine(),
                        stimulus=spec,
                        index=next_index,
                        properties=self.properties,
                        collect_coverage=True,
                    )
                )
                next_index += 1
            covered_before = merged.covered_transitions
            violations_before = len(result.violations)
            with telemetry.span("verify.round", engine=self.engine):
                report = farm.run(jobs)
                result.rounds_run = round_no + 1
                result.jobs_run += len(jobs)
                violated = self._absorb(report, jobs, merged, corpus, result)
            telemetry.counter(
                "ecl_verify_rounds_total",
                help="Campaign rounds executed.",
            ).inc()
            telemetry.counter(
                "ecl_verify_jobs_total",
                help="Campaign jobs dispatched to the farm.",
            ).inc(len(jobs))
            telemetry.counter(
                "ecl_verify_new_transitions_total",
                help="Transitions newly covered per round (closure delta).",
            ).inc(merged.covered_transitions - covered_before)
            telemetry.counter(
                "ecl_verify_violations_total",
                help="Distinct property violations found.",
            ).inc(len(result.violations) - violations_before)
            telemetry.gauge(
                "ecl_verify_transition_percent",
                help="Merged transition coverage after the latest round.",
            ).set(merged.transition_percent)
            if violated and self.stop_on_violation:
                break
            if merged.transition_percent >= self.target:
                break
        result.reached_target = merged.transition_percent >= self.target
        result.report = CoverageReport.from_map(merged, efsm)
        result.elapsed = perf_counter() - started
        return result

    def _absorb(self, report, jobs, merged, corpus, result):
        """Merge one round's results; returns True when a property was
        violated this round."""
        def dedupe_key(violation):
            steps = tuple(
                tuple(sorted(instant.items())) for instant in violation.stimulus
            )
            return (violation.property_text, steps)

        by_index = {job.index: job for job in jobs}
        seen = {dedupe_key(violation) for violation in result.violations}
        violated = False
        admitted = self._admit_coverage(report.results, merged)
        for position, row in enumerate(report.results):
            if row.error:
                result.errors.append("%s: %s" % (row.job_id[:12], row.error))
                continue
            job = by_index[row.index]
            if row.coverage is not None:
                if admitted is not None:
                    if admitted[position]:
                        corpus.append(self._materialize(job))
                        del corpus[:-CORPUS_LIMIT]
                else:
                    job_map = CoverageMap.for_efsm(self._handle.efsm())
                    job_map.merge_payload(row.coverage)
                    if job_map.adds_to(merged):
                        merged.merge(job_map)
                        corpus.append(self._materialize(job))
                        del corpus[:-CORPUS_LIMIT]
            if row.violation is not None:
                violated = True
                violation = self._investigate(job, row)
                key = dedupe_key(violation)
                if key not in seen:  # same bug, different random trace
                    seen.add(key)
                    result.violations.append(violation)
        return violated

    def _admit_coverage(self, rows, merged):
        """Vectorized corpus admission for one round (requires numpy).

        Decodes every coverage payload into one uint8 matrix per
        dimension and computes, with a prefix-OR over the round, which
        rows covered a bit that neither ``merged`` nor any earlier row
        of the round had — exactly the per-row ``adds_to``/``merge``
        loop's admission set, because a non-admitted row contributes no
        new bit by definition.  ``merged`` is updated with the round's
        union as a side effect.  Returns an admitted-flag list aligned
        with ``rows``, or None to make the caller run the scalar loop
        (numpy missing, no decodable payloads, or a shape mismatch the
        scalar path should diagnose).
        """
        try:
            import numpy as np
        except ImportError:
            return None
        payloads = [
            (position, row.coverage)
            for position, row in enumerate(rows)
            if not row.error
            and isinstance(row.coverage, dict)
            and "states" in row.coverage
        ]
        if not payloads:
            return None
        gained = np.zeros(len(payloads), dtype=bool)
        for dim, bitmap in (
            ("states", merged.states),
            ("transitions", merged.transitions),
            ("emits", merged.emits),
        ):
            width = len(bitmap)
            if width == 0:
                continue
            try:
                blob = bytes.fromhex("".join(p[dim] for _, p in payloads))
            except (KeyError, ValueError):
                return None
            if len(blob) != width * len(payloads):
                return None  # foreign shape: scalar path raises the error
            matrix = np.frombuffer(blob, dtype=np.uint8)
            matrix = matrix.reshape(len(payloads), width) != 0
            base = np.frombuffer(bytes(bitmap), dtype=np.uint8) != 0
            prefix = np.logical_or.accumulate(matrix & ~base, axis=0)
            counts = prefix.sum(axis=1)
            gained |= np.diff(counts, prepend=0) > 0
            bitmap[:] = (base | prefix[-1]).astype(np.uint8).tobytes()
        admitted = [False] * len(rows)
        for flag, (position, _payload) in zip(gained, payloads):
            admitted[position] = bool(flag)
        return admitted

    def _materialize(self, job):
        """The concrete instants a job drove (for corpus admission)."""
        return job.stimulus.materialize(self.alphabet(), job.seed)

    def _investigate(self, job, row):
        """Minimize a violating job's stimulus and persist the
        counterexample trace.  Minimization may land on a *different*
        property of the bundle than the farm first reported (the check
        accepts any violation), so the reported property and instant
        are re-derived from a replay of the minimized witness."""
        stimulus = self._materialize(job)
        replays = 0
        if self.minimize and self._program is not None:
            stimulus, replays = minimize_stimulus(
                self._replay_violation,
                stimulus,
                max_replays=MINIMIZE_REPLAYS,
            )
        property_text = row.violation
        instant = row.violation_instant
        records, monitor = self._replay(stimulus)
        witness_violation = monitor.first_violation if monitor else None
        if witness_violation is not None:
            property_text = witness_violation.property_text
            instant = witness_violation.instant
        violation = CampaignViolation(
            property_text=property_text,
            instant=instant,
            job_label=job.label(),
            stimulus=tuple(dict(instant) for instant in stimulus),
            replays=replays,
        )
        if self.ledger_root:
            witness = SimJob(
                design=self.design,
                module=self.module,
                engine=self.engine,
                task_engine=self._task_engine(),
                stimulus=StimulusSpec.explicit(stimulus),
                index=job.index,
                properties=self.properties,
            )
            ledger = TraceLedger(self.ledger_root)
            violation.trace_digest, _path = ledger.put(
                witness, encode_records(records))
        return violation

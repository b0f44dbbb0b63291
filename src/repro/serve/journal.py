"""BatchJournal: the serving layer's durable write-ahead log.

Everything :class:`~repro.serve.service.SimulationService` knows about
a batch used to live in process memory — a crash (or a plain
``kill -9``) lost every queued and in-flight job.  The journal is the
durability rung under the service: an append-only, per-tenant JSONL
WAL at ``<root>/<tenant>.jsonl`` recording three kinds of line:

* ``admit`` — one batch was accepted: its id, priority, TTL, the full
  spec envelope (designs inline, exactly what :func:`~repro.farm.spec.
  expand_document` consumes) and the expanded job ids.  Written
  *before* results can land, so a row never references an unknown
  batch on replay;
* ``row`` — one job completed: the batch id, the job id, and the
  job's **stable** result serialization — the bytes of
  :meth:`~repro.farm.jobs.SimResult.stable_json`, embedded verbatim
  (the row the results stream sends, encoded once) — the
  byte-reproducible payload, so a replayed row is indistinguishable
  from a re-executed one.  Lines written before rows were embedded
  carry the same row as a ``canonical_json`` object; replay reads
  both;
* ``end`` — the batch closed (completed, cancelled, or rejected after
  its admit line was already durable); replay skips ended batches
  entirely.

Each line is a single ``O_APPEND`` write, the same discipline as
:class:`~repro.farm.ledger.TraceLedger` index shards: concurrent
worker threads never interleave partial records, and the only possible
corruption is a *torn tail* — the final line cut short by the crash
itself.  :meth:`BatchJournal.replay` therefore tolerates undecodable
lines (skip and warn, never raise) and dedupes repeated ``row`` lines
for one job id, which makes replay idempotent: a crash wedged between
"result journaled" and "result delivered" re-runs nothing and
duplicates nothing.

Fault injection: like :class:`~repro.serve.pool.WorkerPool`, the
journal exposes a ``fault_hook`` seam (``fault_hook(kind, key)``,
called before each append) the chaos harness uses to inject write
``OSError``\\ s.  The service treats journal appends as best-effort
durability — an append failure degrades crash recovery for that one
record (the job would re-run, deterministically), never the live
result stream.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from time import perf_counter
from typing import Dict, List, Optional

from .. import telemetry
from ..farm.ledger import canonical_json, check_tenant

#: Journal record kinds, in lifecycle order.
KIND_ADMIT = "admit"
KIND_ROW = "row"
KIND_END = "end"


def _encode(record):
    """One journal line: the record's canonical JSON."""
    return (canonical_json(record) + "\n").encode("utf-8")


class BatchRecord:
    """One batch's replayed journal state."""

    __slots__ = ("batch_id", "priority", "ttl_s", "spec", "job_ids",
                 "rows", "ended", "end_reason")

    def __init__(self, batch_id, spec, job_ids, priority=0, ttl_s=None):
        self.batch_id = batch_id
        self.spec = spec
        self.job_ids = list(job_ids)
        self.priority = priority
        self.ttl_s = ttl_s
        #: job_id -> stable result row (first occurrence wins).
        self.rows: Dict[str, dict] = {}
        self.ended = False
        self.end_reason: Optional[str] = None

    @property
    def complete(self):
        """Every admitted job has a journaled row."""
        return set(self.job_ids) <= set(self.rows)

    @property
    def pending_job_ids(self) -> List[str]:
        return [job_id for job_id in self.job_ids
                if job_id not in self.rows]


class JournalReplay:
    """What :meth:`BatchJournal.replay` recovered from one shard."""

    __slots__ = ("tenant", "batches", "torn_lines", "duplicate_rows",
                 "orphan_rows")

    def __init__(self, tenant):
        self.tenant = tenant
        #: batch_id -> BatchRecord, in admit order.
        self.batches: Dict[str, BatchRecord] = {}
        self.torn_lines = 0
        self.duplicate_rows = 0
        self.orphan_rows = 0

    def open_batches(self) -> List[BatchRecord]:
        """Admitted batches with no ``end`` record, in admit order —
        what the service must resurrect after a crash."""
        return [record for record in self.batches.values()
                if not record.ended]


class BatchJournal:
    """Append-only per-tenant WAL of batch admissions and results."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: test seam: ``fault_hook(kind, key)`` runs before each append
        #: and may raise OSError to simulate a failed journal write.
        self.fault_hook = None
        # One cached O_APPEND descriptor per tenant shard: appends stay
        # single atomic writes, without paying open/close per record on
        # the warm path.
        self._fds: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- writing -------------------------------------------------------

    def admit(self, tenant, batch_id, spec, job_ids, priority=0,
              ttl_s=None):
        """Journal one batch admission (spec envelope + job ids)."""
        record = {
            "kind": KIND_ADMIT,
            "batch": batch_id,
            "priority": priority,
            "spec": spec,
            "job_ids": list(job_ids),
        }
        if ttl_s is not None:
            record["ttl_s"] = ttl_s
        self._append(tenant, KIND_ADMIT, batch_id, _encode(record))

    def row(self, tenant, batch_id, result):
        """Journal one job's completion: its stable row bytes
        (:meth:`~repro.farm.jobs.SimResult.stable_json`) embedded
        verbatim in a ``row`` record with canonically ordered keys."""
        line = b'{"batch": %s, "job_id": %s, "kind": "row", "row": %s}\n' % (
            canonical_json(batch_id).encode("utf-8"),
            canonical_json(result.job_id).encode("utf-8"),
            result.stable_json(),
        )
        self._append(tenant, KIND_ROW, result.job_id, line)

    def end(self, tenant, batch_id, reason="complete"):
        """Journal a batch's close; replay skips ended batches."""
        record = {"kind": KIND_END, "batch": batch_id, "reason": reason}
        self._append(tenant, KIND_END, batch_id, _encode(record))

    def _append(self, tenant, kind, key, line):
        """Append one encoded record line (one ``O_APPEND`` write)."""
        if self.fault_hook is not None:
            self.fault_hook(kind, key)
        started = perf_counter()
        os.write(self._shard_fd(tenant), line)
        telemetry.counter(
            "ecl_serve_journal_appends_total",
            help="Durable journal lines appended, by record kind.",
            kind=kind,
        ).inc()
        telemetry.histogram(
            "ecl_serve_journal_append_seconds",
            help="Journal append latency (one O_APPEND write).",
        ).observe(perf_counter() - started)

    def _shard_fd(self, tenant):
        with self._lock:
            fd = self._fds.get(tenant)
            if fd is None:
                fd = os.open(
                    self.shard_path(tenant),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
                self._fds[tenant] = fd
            return fd

    def close(self):
        """Close every cached shard descriptor (service shutdown)."""
        with self._lock:
            fds, self._fds = list(self._fds.values()), {}
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass

    # -- compaction ----------------------------------------------------

    def compact(self, tenant=None):
        """Drop fully-closed batches from per-tenant WAL shards.

        A long-lived ``data_root`` otherwise accretes every batch ever
        served: replay cost and disk both grow without bound even
        though ended batches contribute nothing to recovery.  For each
        shard (one tenant, or all), the surviving state — open batches
        only, their ``admit`` line plus journaled ``row`` lines in
        admit order — is rewritten to ``<shard>.tmp`` and atomically
        ``os.replace``d over the shard, so a crash mid-compaction
        leaves either the old WAL or the new one, never a torn hybrid.
        A shard with nothing open is removed outright.  Torn tails and
        duplicate rows compact away with the closed batches.

        The caller must quiesce appends first (the service compacts at
        startup before the pool runs, and at shutdown after the drain):
        an append racing the rewrite could land in the doomed file.
        Cached descriptors are closed so later appends reopen the
        rewritten shard.  Returns a summary dict.
        """
        tenants = [check_tenant(tenant)] if tenant else self.tenants()
        summary = {
            "shards": 0,
            "rewritten_shards": 0,
            "removed_shards": 0,
            "kept_batches": 0,
            "dropped_batches": 0,
            "kept_lines": 0,
        }
        for name in tenants:
            path = self.shard_path(name)
            if not os.path.exists(path):
                continue
            summary["shards"] += 1
            with self._lock:
                fd = self._fds.pop(name, None)
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
            replay = self.replay(name)
            open_records = replay.open_batches()
            dropped = len(replay.batches) - len(open_records)
            summary["dropped_batches"] += dropped
            summary["kept_batches"] += len(open_records)
            if not open_records:
                os.remove(path)
                summary["removed_shards"] += 1
                continue
            dirty = (dropped or replay.torn_lines
                     or replay.duplicate_rows or replay.orphan_rows)
            if not dirty:
                summary["kept_lines"] += sum(
                    1 + len(record.rows) for record in open_records
                )
                continue
            lines = []
            for record in open_records:
                admit = {
                    "kind": KIND_ADMIT,
                    "batch": record.batch_id,
                    "priority": record.priority,
                    "spec": record.spec,
                    "job_ids": record.job_ids,
                }
                if record.ttl_s is not None:
                    admit["ttl_s"] = record.ttl_s
                lines.append(admit)
                for job_id in record.job_ids:
                    row = record.rows.get(job_id)
                    if row is not None:
                        lines.append({
                            "kind": KIND_ROW,
                            "batch": record.batch_id,
                            "job_id": job_id,
                            "row": row,
                        })
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                for record in lines:
                    handle.write(_encode(record))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            summary["rewritten_shards"] += 1
            summary["kept_lines"] += len(lines)
        telemetry.counter(
            "ecl_serve_journal_compactions_total",
            help="Journal compaction passes completed.",
        ).inc()
        if summary["dropped_batches"]:
            telemetry.counter(
                "ecl_serve_journal_compacted_batches_total",
                help="Closed batches dropped from WAL shards by "
                     "compaction.",
            ).inc(summary["dropped_batches"])
        return summary

    # -- reading -------------------------------------------------------

    def shard_path(self, tenant):
        return os.path.join(self.root, check_tenant(tenant) + ".jsonl")

    def tenants(self) -> List[str]:
        """Tenant names with a journal shard at this root."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".jsonl")]
            for name in os.listdir(self.root)
            if name.endswith(".jsonl")
        )

    def replay(self, tenant) -> JournalReplay:
        """Reconstruct one tenant's batch state from its shard.

        Tolerates a torn tail (and any other undecodable line): the
        bad line is skipped with a warning, never raised — a crash
        mid-append must not take recovery down with it.  Repeated
        ``row`` lines for one job id dedupe to the first occurrence,
        so replay stays idempotent when a crash landed between a
        journal append and its in-memory delivery.
        """
        replay = JournalReplay(tenant)
        path = self.shard_path(tenant)
        if not os.path.exists(path):
            return replay
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("journal line is not an object")
                except ValueError:
                    replay.torn_lines += 1
                    warnings.warn(
                        "journal %s line %d: skipping undecodable "
                        "(torn?) record" % (path, line_no),
                        stacklevel=2,
                    )
                    continue
                self._apply(replay, record)
        return replay

    @staticmethod
    def _apply(replay, record):
        kind = record.get("kind")
        batch_id = record.get("batch")
        if not batch_id:
            replay.torn_lines += 1
            return
        known = replay.batches.get(batch_id)
        if kind == KIND_ADMIT:
            if known is None:
                replay.batches[batch_id] = BatchRecord(
                    batch_id,
                    record.get("spec") or {},
                    record.get("job_ids") or (),
                    priority=record.get("priority"),
                    ttl_s=record.get("ttl_s"),
                )
            return
        if known is None:
            # row/end before its admit line: the admit append failed
            # (injected fault or torn line).  Nothing to attach to.
            replay.orphan_rows += 1
            return
        if kind == KIND_ROW:
            job_id = record.get("job_id")
            row = record.get("row")
            if not job_id or not isinstance(row, dict):
                replay.torn_lines += 1
            elif job_id in known.rows:
                replay.duplicate_rows += 1
            else:
                known.rows[job_id] = row
        elif kind == KIND_END:
            known.ended = True
            known.end_reason = record.get("reason")

"""BatchJournal: one durable file per open batch.

Without it, everything :class:`~repro.serve.service.SimulationService`
knows about a batch lives in process memory, and a ``kill -9`` loses
every queued and in-flight job.  The journal keeps one append-only
JSONL file per *open* batch, ``<root>/<tenant>/<batch_id>.jsonl``:

* ``admit`` creates it with one line: the batch id, priority, TTL, the
  spec envelope (designs inline, what :func:`~repro.farm.spec.
  expand_document` consumes) and the expanded job ids — once the
  queue accepted the batch and before any job can run, so a refused
  batch writes nothing and a row never lacks its batch;
* ``row`` appends one row a re-run could not reproduce — a refusal,
  quarantine or cancellation the service synthesized; a worker's row
  is never journaled, recovery re-runs its job instead.  The record
  holds the job id and the stable row bytes
  (:meth:`~repro.farm.jobs.SimResult.stable_json`, the row the results
  stream sends) embedded verbatim.  Worker rows journaled by earlier
  releases, as these bytes or as ``canonical_json`` objects, replay
  too;
* ``end`` (completed or cancelled) deletes the file: a closed batch
  has nothing left to recover, so disk use and replay work track the
  open batches, not the uptime.

A batch whose every row came from a worker therefore costs two
operations: its admit and its removal.  Each append opens the file,
makes one ``O_APPEND`` write and closes it, so no descriptor stays
open per queued batch.  Nothing is fsynced: the journal covers
process crashes, not power loss.  The only corruption a
crash can leave is a torn final line, so :meth:`BatchJournal.replay`
skips undecodable lines with a warning and dedupes repeated rows of one
job (first wins), which keeps replay idempotent.  A file with no
readable admit line holds nothing recoverable: replay counts it and
removes it.

Earlier releases kept one ``<root>/<tenant>.jsonl`` WAL per tenant;
opening a root that still holds one raises :class:`~repro.errors.
EclError` naming it, so its open batches are never dropped silently.

``fault_hook(kind, key)`` runs before each operation; the chaos harness
raises ``OSError`` from it.  The service counts a failed operation and
carries on: it degrades recovery of that one record (the job would
re-run, deterministically), never the live result stream.
"""

from __future__ import annotations

import json
import os
import warnings
from time import perf_counter
from typing import Dict, List

from .. import telemetry
from ..errors import EclError
from ..farm.ledger import canonical_json, check_tenant

#: Journal operation kinds, in lifecycle order; ``end`` removes the
#: batch's file.
KIND_ADMIT = "admit"
KIND_ROW = "row"
KIND_END = "end"

_SUFFIX = ".jsonl"


class BatchRecord:
    """One batch's replayed journal state."""

    __slots__ = ("batch_id", "priority", "ttl_s", "spec", "job_ids",
                 "rows")

    def __init__(self, batch_id, spec, job_ids, priority=0, ttl_s=None):
        self.batch_id = batch_id
        self.spec = spec
        self.job_ids = list(job_ids)
        self.priority = priority
        self.ttl_s = ttl_s
        #: job_id -> stable result row (first occurrence wins).
        self.rows: Dict[str, dict] = {}

    @property
    def complete(self):
        """Every admitted job has a journaled row."""
        return set(self.job_ids) <= set(self.rows)

    @property
    def pending_job_ids(self) -> List[str]:
        return [job_id for job_id in self.job_ids
                if job_id not in self.rows]


class JournalReplay:
    """What :meth:`BatchJournal.replay` recovered for one tenant."""

    __slots__ = ("tenant", "batches", "torn_lines", "duplicate_rows",
                 "orphan_files")

    def __init__(self, tenant):
        self.tenant = tenant
        #: batch_id -> BatchRecord of every open batch, by batch id.
        self.batches: Dict[str, BatchRecord] = {}
        self.torn_lines = 0
        self.duplicate_rows = 0
        #: batch files with no readable admit line (removed).
        self.orphan_files = 0


class BatchJournal:
    """One append-only file per open batch, deleted when it closes."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if name.endswith(_SUFFIX) and os.path.isfile(path):
                raise EclError(
                    "journal %s is a per-tenant WAL from an earlier "
                    "release; drain the service with that release, or "
                    "remove the file to drop its open batches" % path)
        #: test seam: ``fault_hook(kind, key)`` runs before each
        #: operation and may raise OSError to simulate a failed write.
        self.fault_hook = None

    # -- writing -------------------------------------------------------

    def prepare_admit(self, tenant, batch_id, spec, job_ids, priority=0,
                      ttl_s=None):
        """Encode a batch's admission (spec envelope + job ids) for
        :meth:`admit`, and create its tenant's directory: the work a
        caller that holds a lock around :meth:`admit` does before
        taking it."""
        record = {
            "kind": KIND_ADMIT,
            "batch": batch_id,
            "priority": priority,
            "spec": spec,
            "job_ids": list(job_ids),
        }
        if ttl_s is not None:
            record["ttl_s"] = ttl_s
        os.makedirs(os.path.join(self.root, check_tenant(tenant)),
                    exist_ok=True)
        return (canonical_json(record) + "\n").encode("utf-8")

    def admit(self, tenant, batch_id, line):
        """Create the batch's file holding its admission ``line``, as
        :meth:`prepare_admit` encoded it."""
        self._append(tenant, batch_id, KIND_ADMIT, batch_id, line,
                     os.O_CREAT)

    def row(self, tenant, batch_id, result):
        """Append one job's synthesized row: its stable row bytes
        (:meth:`~repro.farm.jobs.SimResult.stable_json`) embedded
        verbatim in a ``row`` record with canonically ordered keys.
        Raises FileNotFoundError when the batch has no file (its
        admit failed): such a row could never be recovered."""
        line = b'{"batch": %s, "job_id": %s, "kind": "row", "row": %s}\n' % (
            canonical_json(batch_id).encode("utf-8"),
            canonical_json(result.job_id).encode("utf-8"),
            result.stable_json(),
        )
        self._append(tenant, batch_id, KIND_ROW, result.job_id, line)

    def end(self, tenant, batch_id):
        """Close a batch: delete its file."""
        if self.fault_hook is not None:
            self.fault_hook(KIND_END, batch_id)
        started = perf_counter()
        try:
            os.remove(self.batch_path(tenant, batch_id))
        except FileNotFoundError:
            pass  # its admit never landed: nothing to remove
        self._observe(KIND_END, started)

    def _append(self, tenant, batch_id, kind, key, line, flags=0):
        """Append one encoded record line: open, one ``O_APPEND``
        write, close."""
        if self.fault_hook is not None:
            self.fault_hook(kind, key)
        started = perf_counter()
        fd = os.open(self.batch_path(tenant, batch_id),
                     os.O_WRONLY | os.O_APPEND | flags, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self._observe(kind, started)

    @staticmethod
    def _observe(kind, started):
        telemetry.counter(
            "ecl_serve_journal_appends_total",
            help="Durable journal operations, by record kind (row: "
                 "synthesized rows only; end: the batch file's "
                 "removal).",
            kind=kind,
        ).inc()
        telemetry.histogram(
            "ecl_serve_journal_append_seconds",
            help="Journal operation latency (open, one O_APPEND write "
                 "and close; end: one unlink).",
        ).observe(perf_counter() - started)

    # -- reading -------------------------------------------------------

    def batch_path(self, tenant, batch_id):
        return os.path.join(self.root, check_tenant(tenant),
                            batch_id + _SUFFIX)

    def tenants(self) -> List[str]:
        """Tenant names with a journal directory at this root."""
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
        )

    def replay(self, tenant) -> JournalReplay:
        """Reconstruct one tenant's open batches from their files.

        Tolerates a torn tail (and any other undecodable line): the
        bad line is skipped with a warning, never raised — a crash
        mid-append must not take recovery down with it.  Repeated
        ``row`` lines for one job id dedupe to the first occurrence,
        so replay stays idempotent when a crash landed between a
        journal append and its in-memory delivery.  A file with no
        readable admit line is counted and removed.
        """
        replay = JournalReplay(tenant)
        directory = os.path.join(self.root, check_tenant(tenant))
        if not os.path.isdir(directory):
            return replay
        for name in sorted(os.listdir(directory)):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(directory, name)
            record = self._replay_file(replay, path)
            if record is None:
                replay.orphan_files += 1
                os.remove(path)
            else:
                replay.batches[record.batch_id] = record
        return replay

    @staticmethod
    def _replay_file(replay, path):
        """One batch file's record, or None without an admit line."""
        record = None
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise ValueError("journal line is not an object")
                except ValueError:
                    replay.torn_lines += 1
                    warnings.warn(
                        "journal %s line %d: skipping undecodable "
                        "(torn?) record" % (path, line_no),
                        stacklevel=3,
                    )
                    continue
                kind = entry.get("kind")
                if kind == KIND_ADMIT and record is None \
                        and entry.get("batch"):
                    record = BatchRecord(
                        entry["batch"],
                        entry.get("spec") or {},
                        entry.get("job_ids") or (),
                        priority=entry.get("priority"),
                        ttl_s=entry.get("ttl_s"),
                    )
                    continue
                job_id = entry.get("job_id")
                row = entry.get("row")
                if (record is None or kind != KIND_ROW or not job_id
                        or not isinstance(row, dict)):
                    replay.torn_lines += 1
                elif job_id in record.rows:
                    replay.duplicate_rows += 1
                else:
                    record.rows[job_id] = row
        return record

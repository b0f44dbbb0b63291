"""TraceLedger: content-addressed persistence of simulation traces.

The ledger is the farm's durable output — the raw material for
downstream checking (coverage mining, property extraction, regression
diffing).  It mirrors the :class:`~repro.pipeline.cache.ArtifactCache`
discipline and lives next to it by default
(``<cache-root>/traces``):

* every trace is one JSONL *object* — first line a header describing
  the job, then one line per instant (``inputs`` / ``emitted`` /
  ``values``), each line the canonical encoding of
  :func:`canonical_json`.  The digest is the sha256 of the object's
  bytes, so a digest is a proof of trace identity;
* objects are appended to *pack segments*
  ``packs/<pid>-<token>.pack``: each writing process owns one segment
  per ledger (reopened after a fork), so a warm ``put`` is one
  ``os.write`` and creates no file.  A repeat ``put`` of an identical
  trace appends the object again — the digest still proves identity,
  and the index keeps both runs;
* jobs that asked for it get an ``objects/<aa>/<digest>.vcd`` waveform
  (:meth:`TraceLedger.vcd_path`), written once per digest;
* ``ledger.jsonl`` at the root is the append-only index: one line per
  recorded job linking ``job_id`` to its trace digest and the object's
  ``pack`` / ``offset`` / ``length``.  Appends are single ``O_APPEND``
  writes, so concurrent worker processes never interleave records.

Durability: there is no fsync.  The index line is appended only after
its object, so a crashed process can leave at most an unreferenced
pack tail (ignored: nothing points at it) or a torn final index line
(skipped with a warning).  :meth:`TraceLedger.load` checks an object's
length and sha256 before decoding it, so corrupt bytes raise
:class:`~repro.errors.EclError` instead of returning wrong records.
This covers process crashes, not power loss.

Ledgers written before pack segments existed keep one file per object
under ``objects/<aa>/<digest>.jsonl``; index entries without ``pack``
still load from there.

Multi-tenant sharding (the serving layer's namespace model): a ledger
opened with ``tenant="alice"`` appends to its *own* shard
``index/alice.jsonl`` instead of the shared ``ledger.jsonl``, and its
index reads (``entries``/``find``/``has``/``locate``) see only that
shard.  Pack segments are shared storage, but a digest is only
*servable* to a tenant whose index records it
(:meth:`TraceLedger.locate`), which is what the service's fetch
endpoint enforces.  An offline ``load(digest)`` on any ledger at the
root falls back to every shard, so it finds any trace the root holds.
Each shard is append-only per tenant, so tenants never contend on one
index file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import uuid
import warnings
from time import perf_counter
from typing import Iterator, List, Optional

from .. import telemetry
from ..errors import EclError, NotFoundError
from ..pipeline.cache import default_cache_root

#: Name of the append-only index file at the ledger root (the
#: tenant-less shard, kept for backward compatibility).
INDEX_NAME = "ledger.jsonl"

#: Directory of per-tenant index shards under the ledger root.
INDEX_DIR = "index"

#: Directory of append-only pack segments under the ledger root.
PACK_DIR = "packs"

#: Tenant names must be filesystem- and URL-safe slugs.
TENANT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


#: ``canonical_json(obj)`` is ``json.dumps(obj, sort_keys=True)`` byte
#: for byte, without building a new encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True).encode

#: ``compact_json(obj)`` is ``json.dumps(obj, sort_keys=True,
#: separators=(",", ":"))`` byte for byte: the result-row form.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_records(records):
    """Ledger lines of farm records (:func:`repro.engines.make_record`):
    the one encoder of every trace the native line sink does not
    write itself."""
    return [canonical_json(record) for record in records]


def check_tenant(tenant):
    """Validate a tenant slug; returns it.  Raises EclError on names
    that could escape the index directory or break URLs."""
    if not isinstance(tenant, str) or not TENANT_NAME.match(tenant):
        raise EclError(
            "bad tenant name %r (want 1-64 chars of [A-Za-z0-9._-], "
            "not starting with '.' or '-')" % (tenant,)
        )
    return tenant


def default_ledger_root():
    """``<artifact-cache-root>/traces`` — next to compiled artifacts."""
    return os.path.join(default_cache_root(), "traces")


def _append_fd(path, exclusive=False):
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    if exclusive:
        flags |= os.O_EXCL
    return os.open(path, flags, 0o644)


class TraceLedger:
    """Append-only, content-addressed store of simulation traces.

    Opening one writes nothing: its directories appear with the first
    ``put``, so an instance doubles as a read-only view of a shard."""

    def __init__(self, root=None, tenant=None):
        self.root = root or default_ledger_root()
        self.tenant = check_tenant(tenant) if tenant is not None else None
        #: test seam: ``fault_hook(op, key)`` runs before each write
        #: and may raise OSError to simulate a failed ledger write (the
        #: chaos harness's storage-fault injection point).
        self.fault_hook = None
        self._lock = threading.Lock()
        #: this process's segment: [pid, fd, file name, next offset].
        self._pack = None
        self._index_fd = None

    def for_tenant(self, tenant):
        """This ledger's root, scoped to one tenant's index shard."""
        return TraceLedger(self.root, tenant=tenant)

    def tenants(self) -> List[str]:
        """Tenant names with an index shard at this root."""
        index_dir = os.path.join(self.root, INDEX_DIR)
        if not os.path.isdir(index_dir):
            return []
        return sorted(
            name[: -len(".jsonl")]
            for name in os.listdir(index_dir)
            if name.endswith(".jsonl")
        )

    # -- writing -------------------------------------------------------

    def put(self, job, lines, vcd_text=None):
        """Persist one job's trace; returns ``(digest, path)`` with
        ``path`` the pack segment holding the object.

        ``lines`` holds one pre-encoded canonical line per instant: a
        native line-sink driver's output, or :func:`encode_records` of
        the engines' per-instant dicts.  The object is appended to the
        segment first; the index gains one line after it.
        """
        if self.fault_hook is not None:
            self.fault_hook("put", job.job_id)
        started = perf_counter()
        header = {
            "job_id": job.job_id,
            "design": job.design,
            "module": job.module,
            "engine": job.engine,
            "index": job.index,
            "seed": job.seed,
            "stimulus": job.stimulus.describe(),
            "instants": len(lines),
        }
        text = canonical_json(header)
        if lines:
            text += "\n" + "\n".join(lines)
        blob = (text + "\n").encode("utf-8")
        digest = hashlib.sha256(blob).hexdigest()
        if vcd_text is not None:
            vcd_path = self.vcd_path(digest)
            if not os.path.exists(vcd_path):
                self._atomic_write(vcd_path, vcd_text.encode("utf-8"))
        pack, offset = self._append_pack(blob)
        self._append_index(
            {
                "job_id": job.job_id,
                "design": job.design,
                "module": job.module,
                "engine": job.engine,
                "index": job.index,
                "instants": len(lines),
                "trace": digest,
                "pack": pack,
                "offset": offset,
                "length": len(blob),
            }
        )
        telemetry.counter(
            "ecl_ledger_appends_total",
            help="Trace objects persisted to the ledger.",
        ).inc()
        telemetry.histogram(
            "ecl_ledger_put_seconds",
            help="Full trace persistence time (object + index).",
        ).observe(perf_counter() - started)
        return digest, self._pack_path(pack)

    def close(self):
        """Close the cached segment and index descriptors.  Safe while
        other threads still ``put``: every write holds the same lock.
        A later ``put`` reopens them (the segment is then a new file)
        and they close again with the ledger."""
        with self._lock:
            pack, index_fd = self._pack, self._index_fd
            self._pack = self._index_fd = None
        if pack is not None:
            os.close(pack[1])
        if index_fd is not None:
            os.close(index_fd)

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- reading -------------------------------------------------------

    def locate(self, digest) -> Optional[dict]:
        """Latest index record of ``digest`` in this ledger's shard (None
        if the shard never recorded it) — the servability check:
        storage is shared across tenants, index membership is not."""
        return self._latest("trace", digest)

    def load(self, digest, entry=None):
        """``(header, records)`` of the trace object under ``digest``.

        ``entry`` is its index record.  When omitted it is looked up in
        this ledger's shard, then in every other shard at the root, so
        an offline load finds any trace the root holds (servability is
        :meth:`locate`'s check, not this one's).  The object's length
        and sha256 are checked before anything is decoded: corrupt or
        missing bytes raise :class:`EclError`, a digest no shard
        records :class:`~repro.errors.NotFoundError`.
        """
        if entry is None:
            entry = self.locate(digest) or self._locate_anywhere(digest)
        if "pack" in entry:
            blob = self._read_pack(entry)
        else:
            try:
                with open(self._object_path(digest), "rb") as handle:
                    blob = handle.read()
            except FileNotFoundError:
                raise NotFoundError("ledger %s has no trace %s"
                                    % (self.root, digest))
        if ("length" in entry and len(blob) != entry["length"]) \
                or hashlib.sha256(blob).hexdigest() != digest:
            raise EclError("trace %s in ledger %s is corrupt (digest "
                           "mismatch)" % (digest, self.root))
        lines = [json.loads(line) for line in blob.splitlines() if line.strip()]
        return lines[0], lines[1:]

    def entries(self) -> List[dict]:
        """Every index record, in append order."""
        return list(self.iter_entries())

    def iter_entries(self) -> Iterator[dict]:
        """Index records in append order.  An undecodable line — in
        practice only a torn final line from a crash mid-append, since
        appends are single ``O_APPEND`` writes — is skipped with a
        warning instead of poisoning every read of the shard."""
        return self._read_index(self._index_path())

    @staticmethod
    def _read_index(index):
        if not os.path.exists(index):
            return
        with open(index) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    warnings.warn(
                        "ledger index %s line %d is not valid JSON "
                        "(torn write?); skipping" % (index, number),
                        RuntimeWarning,
                        stacklevel=2,
                    )

    def find(self, job_id) -> Optional[dict]:
        """Latest index record for ``job_id`` (None if never run)."""
        return self._latest("job_id", job_id)

    def _latest(self, key, value):
        found = None
        for entry in self.iter_entries():
            if entry.get(key) == value:
                found = entry
        return found

    def _locate_anywhere(self, digest):
        """Latest record of ``digest`` in any shard at this root ({}
        when none records it)."""
        shards = [os.path.join(self.root, INDEX_NAME)] + [
            os.path.join(self.root, INDEX_DIR, tenant + ".jsonl")
            for tenant in self.tenants()
        ]
        for shard in shards:
            found = None
            for entry in self._read_index(shard):
                if entry.get("trace") == digest:
                    found = entry
            if found is not None:
                return found
        return {}

    def has(self, digest) -> bool:
        """True when this ledger's index (i.e. this tenant's shard)
        records ``digest``."""
        return self.locate(digest) is not None

    def __len__(self):
        return sum(1 for _ in self.iter_entries())

    def vcd_path(self, digest):
        """Where the VCD waveform of ``digest`` lives (when recorded)."""
        return os.path.join(self.root, "objects", digest[:2], digest + ".vcd")

    # -- plumbing ------------------------------------------------------

    def _index_path(self):
        if self.tenant is None:
            return os.path.join(self.root, INDEX_NAME)
        return os.path.join(self.root, INDEX_DIR, self.tenant + ".jsonl")

    def _object_path(self, digest):
        return os.path.join(self.root, "objects", digest[:2], digest + ".jsonl")

    def _pack_path(self, name):
        return os.path.join(self.root, PACK_DIR, name)

    def _append_pack(self, blob):
        """Append ``blob`` to this process's segment; returns ``(segment
        name, offset)``.  A failed write abandons the segment (its tail
        is unreferenced), so offsets stay exact."""
        with self._lock:
            pid = os.getpid()
            if self._pack is None or self._pack[0] != pid:
                # A forked child must not append through its parent's
                # descriptor or offset: it starts its own segment.
                if self._pack is not None:
                    os.close(self._pack[1])
                name = "%d-%s.pack" % (pid, uuid.uuid4().hex[:12])
                os.makedirs(os.path.join(self.root, PACK_DIR), exist_ok=True)
                fd = _append_fd(self._pack_path(name), exclusive=True)
                self._pack = [pid, fd, name, 0]
            pack = self._pack
            try:
                written = os.write(pack[1], blob)
                if written != len(blob):
                    raise OSError("short write to %s" % pack[2])
            except BaseException:
                self._pack = None
                os.close(pack[1])
                raise
            offset = pack[3]
            pack[3] += written
            return pack[2], offset

    def _read_pack(self, entry):
        try:
            with open(self._pack_path(entry["pack"]), "rb") as handle:
                handle.seek(entry["offset"])
                return handle.read(entry["length"])
        except (OSError, TypeError, ValueError) as error:
            raise EclError("trace %s: cannot read pack %r: %s"
                           % (entry.get("trace"), entry.get("pack"), error))

    @staticmethod
    def _atomic_write(path, blob):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    def _append_index(self, entry):
        line = (canonical_json(entry) + "\n").encode("utf-8")
        # Written under the lock so a concurrent close() cannot close
        # (and the OS reuse) the descriptor between lookup and write.
        with self._lock:
            if self._index_fd is None:
                path = self._index_path()
                os.makedirs(os.path.dirname(path), exist_ok=True)
                self._index_fd = _append_fd(path)
            os.write(self._index_fd, line)

"""Persistent, content-addressed artifact cache.

Two layers behind one interface:

* an in-process memory layer (a dict), which also guarantees object
  identity for repeated lookups within one pipeline — callers that do
  ``module.efsm() is module.efsm()`` get the same object back;
* an optional on-disk layer (pickle files under a root directory,
  sharded by the first byte of the cache id), which survives the
  process and makes warm recompiles of unchanged modules near-free.

Disk writes are atomic (temp file + ``os.replace``) so concurrent
builders never observe torn artifacts; unpicklable payloads are simply
not persisted (counted in ``stats.store_errors``) rather than failing
the build.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .artifacts import Artifact, ArtifactKey

#: Environment variable overriding the default persistent cache root.
CACHE_DIR_ENV = "ECL_CACHE_DIR"

#: Default bound on the in-memory layer.  Generous — a design uses
#: roughly 8 artifacts per module — but finite, so a long-lived
#: pipeline compiling many distinct designs cannot grow without bound.
DEFAULT_MEMORY_ENTRIES = 4096


def _check_namespace(namespace):
    """Namespaces must be path-safe single-level slugs."""
    if not re.match(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}$", namespace or ""):
        raise ValueError(
            "bad cache namespace %r (want 1-64 chars of [A-Za-z0-9._-], "
            "not starting with '.' or '-')" % (namespace,))
    return namespace


def default_cache_root():
    """The persistent cache location: ``$ECL_CACHE_DIR`` or
    ``~/.cache/ecl-repro``."""
    root = os.environ.get(CACHE_DIR_ENV)
    if root:
        return root
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "ecl-repro")


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_errors: int = 0
    disk_hits: int = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "disk_hits": self.disk_hits,
        }


class ArtifactCache:
    """Thread-safe artifact store keyed on :class:`ArtifactKey`.

    ``root=None`` gives a memory-only cache (the default for embedded
    use); :meth:`persistent` adds the on-disk layer.  The memory layer
    is LRU-bounded by ``max_memory_entries``; repeated lookups return
    the identical payload object for as long as the entry stays
    resident.

    ``namespace`` scopes the *disk* layer to a sub-tree
    (``<root>/<namespace>/...``) without changing the key scheme —
    the multi-tenant discipline of the serving layer: artifacts are
    content-addressed, so namespaces cost nothing in correctness, but
    one tenant's persisted builds are never visible under another
    tenant's namespace.
    """

    def __init__(self, root=None, max_memory_entries=None, namespace=None):
        self.root = root
        self.namespace = _check_namespace(namespace) \
            if namespace is not None else None
        self.max_memory_entries = DEFAULT_MEMORY_ENTRIES \
            if max_memory_entries is None else max_memory_entries
        self._memory: "OrderedDict[ArtifactKey, Artifact]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        if root is not None:
            os.makedirs(self._disk_root(), exist_ok=True)

    @classmethod
    def memory(cls, max_memory_entries=None):
        """A process-local cache with no disk layer."""
        return cls(root=None, max_memory_entries=max_memory_entries)

    @classmethod
    def persistent(cls, root=None, max_memory_entries=None, namespace=None):
        """A disk-backed cache (default root: see
        :func:`default_cache_root`)."""
        return cls(root=root or default_cache_root(),
                   max_memory_entries=max_memory_entries,
                   namespace=namespace)

    def _disk_root(self):
        if self.namespace is None:
            return self.root
        return os.path.join(self.root, "ns", self.namespace)

    # ------------------------------------------------------------------

    def get(self, key: ArtifactKey) -> Optional[Artifact]:
        """The artifact under ``key``, or None.  Returned artifacts have
        ``from_cache=True``; memory lookups preserve object identity."""
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                artifact.from_cache = True
                return artifact
        if self.root is not None:
            artifact = self._disk_get(key)
            if artifact is not None:
                with self._lock:
                    # Another thread may have raced us; keep the first.
                    artifact = self._memory.setdefault(key, artifact)
                    self._memory.move_to_end(key)
                    self._evict_locked()
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    artifact.from_cache = True
                return artifact
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: ArtifactKey, payload, kind="", meta=None) -> Artifact:
        """Store ``payload`` under ``key`` and return its Artifact."""
        artifact = Artifact(key=key, payload=payload, kind=kind,
                            meta=dict(meta or {}))
        with self._lock:
            self._memory[key] = artifact
            self._memory.move_to_end(key)
            self._evict_locked()
            self.stats.stores += 1
        if self.root is not None:
            self._disk_put(key, artifact)
        return artifact

    def release(self, source):
        """Drop one translation unit's entries (keys under the
        ``source`` digest) from the memory layer, which the disk layer
        serves again on the next lookup.  A memory-only cache keeps
        them: it bounds itself by ``max_memory_entries``, and a
        released entry would have to be recomputed."""
        if self.root is None:
            return
        with self._lock:
            for key in [key for key in self._memory if key.source == source]:
                del self._memory[key]

    def _evict_locked(self):
        """LRU-evict the memory layer down to the bound (lock held)."""
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def clear(self):
        """Drop the memory layer and delete every persisted artifact
        (namespaced caches only clear their own namespace)."""
        with self._lock:
            self._memory.clear()
        if self.root is not None and os.path.isdir(self._disk_root()):
            disk_root = self._disk_root()
            for shard in os.listdir(disk_root):
                shard_dir = os.path.join(disk_root, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in os.listdir(shard_dir):
                    if name.endswith(".pkl"):
                        try:
                            os.unlink(os.path.join(shard_dir, name))
                        except OSError:
                            pass

    def __len__(self):
        with self._lock:
            return len(self._memory)

    # -- disk layer ----------------------------------------------------

    def _path(self, key: ArtifactKey):
        cache_id = key.cache_id
        return os.path.join(self._disk_root(), cache_id[:2],
                            cache_id + ".pkl")

    def _disk_get(self, key):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                kind, meta, payload = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError):
            return None
        return Artifact(key=key, payload=payload, kind=kind, meta=meta,
                        from_cache=True)

    def _disk_put(self, key, artifact):
        path = self._path(key)
        try:
            blob = pickle.dumps(
                (artifact.kind, artifact.meta, artifact.payload))
        except (pickle.PickleError, TypeError, AttributeError):
            with self._lock:
                self.stats.store_errors += 1
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=os.path.dirname(path),
                                        suffix=".tmp")
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
        except OSError:
            with self._lock:
                self.stats.store_errors += 1

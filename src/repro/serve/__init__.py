"""repro.serve — a persistent simulation service in front of the farm.

The farm (:mod:`repro.farm`) is batch-shaped: every ``eclc farm run``
pays design compilation, native lowering and worker warm-up before the
first reaction executes, then throws that warmth away.  For the
workloads the paper's methodology implies — regression banks re-running
the same specs on every commit, interactive what-if loops over one
design, verification campaigns streaming jobs at a shared box — the
compile tax dominates.  This package keeps the farm *resident*:

* :mod:`repro.serve.queue` — bounded priority intake with atomic batch
  admission; overload is an explicit ``queue_full`` rejection (HTTP
  429), never unbounded memory growth;
* :mod:`repro.serve.pool` — self-healing workers, thread- or
  process-backed (``mode="process"``: long-lived spawned children
  warm-started from the persistent artifact/code caches, so CPU-bound
  tenants scale with cores instead of the GIL); a worker death — even
  a SIGKILLed child — requeues its in-hand job (bounded attempts) and
  replaces the worker, so a crash degrades one batch instead of the
  service;
* :mod:`repro.serve.service` — the core: per-tenant warm
  :class:`~repro.farm.worker.WorkerState` over namespaced artifact
  caches and sharded trace-ledger indices, streaming per-batch result
  feeds, graceful draining shutdown;
* :mod:`repro.serve.api` / :mod:`repro.serve.client` — the stdlib
  HTTP/JSON surface (submit, poll, NDJSON result streams, trace
  fetch, ``/v1/health``) and its :mod:`http.client` counterpart,
  which retries idempotent GETs and reconnects result streams across
  transient transport faults;
* :mod:`repro.serve.journal` — the durability rung: a per-tenant
  append-only WAL of batch admissions and stable result rows, replayed
  on startup so a ``kill -9`` mid-batch recovers with zero lost and
  zero duplicated jobs;
* :mod:`repro.serve.chaos` — seeded deterministic fault injection
  (worker crashes, slow jobs, journal/ledger write errors, queue
  stalls) driving the robustness test suite.

Entry points: ``eclc serve`` runs the service, ``eclc submit`` inlines
a spec file's designs and submits it over HTTP.  Determinism carries
through: a batch submitted to the service yields byte-identical stable
result rows to ``eclc farm run`` of the same spec, because both expand
jobs through :func:`repro.farm.spec.expand_document` and seeds derive
from job identity alone.
"""

from ..farm.spec import DEFAULT_TENANT
from .api import DEFAULT_HOST, DEFAULT_PORT, make_server, serve_forever
from .chaos import FaultPlan, InjectedCrash
from .client import ServeClient
from .journal import BatchJournal
from .pool import (DEFAULT_MAX_ATTEMPTS, POOL_MODES, ProcessDeath,
                   WorkerPool, WorkerProcess, backoff_delay)
from .queue import (DEFAULT_QUEUE_DEPTH, JobQueue, QueueEntry,
                    QueueFullError, ServiceClosedError, TenantQuotaError)
from .service import (DEFAULT_WORKERS, Batch, SimulationService,
                      TenantSpace)

__all__ = [
    "Batch",
    "BatchJournal",
    "DEFAULT_HOST",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_TENANT",
    "DEFAULT_WORKERS",
    "FaultPlan",
    "InjectedCrash",
    "JobQueue",
    "POOL_MODES",
    "ProcessDeath",
    "QueueEntry",
    "QueueFullError",
    "ServiceClosedError",
    "ServeClient",
    "SimulationService",
    "TenantQuotaError",
    "TenantSpace",
    "WorkerPool",
    "WorkerProcess",
    "backoff_delay",
    "make_server",
    "serve_forever",
]

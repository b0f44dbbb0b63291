"""Child side of the process-backed serve worker pool.

:func:`child_main` is the entry point each
:class:`~repro.serve.pool.WorkerProcess` spawns into: a request/reply
loop over one pipe, holding one
:class:`~repro.farm.worker.WorkerState` per tenant, built by the
picklable factory its config carries.  The service's factory yields
exactly what the parent's :class:`~repro.serve.service.TenantSpace`
holds — same namespaced artifact cache, same tenant ledger shard, same
``raise_storage_errors`` escalation — so a job produces the identical
stable result row no matter which side of the pipe ran it; the pooled
:class:`~repro.farm.farm.SimulationFarm` ships one that builds its
own farm state (root ledger index, artifact cache and options).

Warmth without shared memory: the state compiles against the
service's *persistent* artifact cache, so a freshly spawned child
(first boot or post-crash replacement) loads every repeat design's
compiled artifacts from disk instead of re-running codegen; only the
``compile()`` of their generated source runs again, once per loaded
artifact.
Trace objects are content-addressed and ledger shards are
O_APPEND-atomic (the farm's established multi-process discipline), so
children write them directly; only result rows travel back over the
pipe, each as soon as its job finishes, so the parent journals and
delivers row *k* while the child already runs job *k+1*.

Fault protocol: a fault escaping job execution — including the
storage ``OSError``\\ s the serving worker state escalates — reports
as a ``("dead", traceback)`` reply instead of the next row.  The parent
treats that exactly like a broken pipe (:class:`~repro.serve.pool.
ProcessDeath`): recycle the child, retry the job the fault struck
under the bounded deterministic backoff.  A child that loses its pipe
simply exits — the parent owns the lifecycle.
"""

from __future__ import annotations

import os
import traceback


def child_main(conn, config):
    """Serve dispatch groups over ``conn`` until ``exit`` or EOF.

    ``config``: ``worker_state`` (picklable ``factory(tenant=...)``
    returning a tenant's :class:`~repro.farm.worker.WorkerState`)
    and the test seam ``ledger_fault_hook`` (a picklable
    ``TraceLedger.fault_hook`` for this child's ledgers).

    A ``(tenant, designs, jobs)`` request runs through one
    :meth:`~repro.farm.worker.WorkerState.stream`; each unit it yields
    goes back at once as ``("ok", [(position, row), ...])``.
    """
    if hasattr(os, "nice"):
        # The parent coordinates every child and serves the HTTP
        # streams: under CPU contention it goes first, so children
        # kept busy by dispatch groups never delay a batch's first row.
        os.nice(3)
    states = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message == ("exit",):
                return
            tenant, designs, jobs = message
            try:
                state = states.get(tenant)
                if state is None:
                    state = config["worker_state"](tenant=tenant)
                    if state.ledger is not None:
                        state.ledger.fault_hook = config.get(
                            "ledger_fault_hook")
                    states[tenant] = state
                state.adopt_designs(designs)
                for pairs in state.stream(jobs):
                    reply = ("ok", [(position, result.to_dict())
                                    for position, result in pairs])
                    try:
                        conn.send(reply)
                    except (EOFError, OSError):
                        return
            except BaseException:
                # Worker fault (job-level failures became error rows
                # inside run_job/run_sweep already): report it so the
                # parent recycles this child and retries the job the
                # fault struck.
                try:
                    conn.send(("dead", traceback.format_exc(limit=6)))
                except (EOFError, OSError):
                    return
    finally:
        try:
            conn.close()
        except OSError:
            pass

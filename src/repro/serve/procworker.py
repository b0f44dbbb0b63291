"""The worker side of every serve pool slot.

:func:`respond` answers one dispatch request; :func:`child_main` is the
loop a spawned :class:`~repro.serve.pool.WorkerProcess` child runs
around it, one pipe per child.  In thread mode the pool slot calls
:func:`respond` itself, so both pool modes run one request step, one
fault reply and one row encoding.  A worker holds one
:class:`~repro.farm.worker.WorkerState` per tenant, built by the
picklable factory its config carries: the service's builds each
tenant's namespaced artifact cache, ledger shard and
``raise_storage_errors`` escalation; the pooled
:class:`~repro.farm.farm.SimulationFarm` ships one that builds its own
farm state (root ledger index, artifact cache and options).

Warmth without shared memory: the state compiles against the
service's *persistent* artifact cache, so a freshly started worker
(first boot or post-crash replacement) loads every repeat design's
compiled artifacts from disk instead of re-running codegen; only the
``compile()`` of their generated source runs again, once per loaded
artifact.
Trace objects are content-addressed and ledger shards are
O_APPEND-atomic (the farm's established multi-process discipline), so
workers write them directly; only result rows travel back, each as
soon as its job finishes, so the parent delivers row *k* while a child
already runs job *k+1*.

Fault protocol: a fault escaping job execution — including the
storage ``OSError``\\ s the serving worker state escalates — ends the
replies with ``("dead", traceback)`` instead of the next row.  The
parent treats that exactly like a broken pipe (:class:`~repro.serve.
pool.ProcessDeath`): recycle the worker, retry the job the fault struck
under the bounded deterministic backoff.
"""

from __future__ import annotations

import os
import traceback


def child_main(conn, config):
    """Serve dispatch groups over ``conn`` until ``exit`` or EOF,
    sending each reply of :func:`respond` the moment it exists.  A
    child that loses its pipe simply exits."""
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
            for reply in respond(states, config, message):
                try:
                    conn.send(reply)
                except (EOFError, OSError):
                    return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def respond(states, config, request):
    """Yield the replies to one ``(tenant, designs, jobs)`` request.

    ``states`` maps tenant -> :class:`~repro.farm.worker.WorkerState`,
    built on first use by ``config["worker_state"]``
    (``factory(tenant=...)``); ``config["ledger_fault_hook"]`` is the
    test seam installed as each new state's ``TraceLedger.fault_hook``.
    Both must pickle for a spawned child.

    The jobs run through one
    :meth:`~repro.farm.worker.WorkerState.stream` against the sources
    in ``designs`` (the dispatching batch's); each unit it yields is
    one ``("ok", [(position, row), ...])`` reply.  A tenant's state
    keeps no label map: a build is found by ``(label, source)``, so a
    request never changes what another batch's jobs run.  A fault that
    escapes job execution ends the replies with ``("dead",
    traceback)``.
    """
    tenant, designs, jobs = request
    try:
        state = states.get(tenant)
        if state is None:
            state = config["worker_state"](tenant=tenant)
            if state.ledger is not None:
                state.ledger.fault_hook = config.get("ledger_fault_hook")
            states[tenant] = state
        for pairs in state.stream(jobs, designs):
            yield ("ok", [(position, result.to_dict())
                          for position, result in pairs])
    except GeneratorExit:
        raise
    except BaseException:
        # Worker fault (job-level failures became error rows inside
        # run_job/run_sweep already): report it so the parent recycles
        # this worker and retries the job the fault struck.
        yield ("dead", traceback.format_exc(limit=6))

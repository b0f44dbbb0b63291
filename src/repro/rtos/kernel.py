"""A small deterministic real-time kernel (simulation).

This reproduces the substrate of the paper's asynchronous rows in
Table 1: "three source files, implemented as separate tasks under
control of a simple real-time kernel" [1, the POLIS RTOS].  The kernel
is event-driven and priority-scheduled:

* each task owns slot-indexed carriers for its input signals (event
  flag / one-place mailbox semantics, see :mod:`repro.rtos.tasks`);
* posting to a task's input makes it *ready*; the scheduler always runs
  the highest-priority ready task (FIFO among equals);
* one dispatch = one synchronous reaction of the task's module over the
  inputs pending at that moment;
* emitted outputs are posted to consumer tasks (or to the environment),
  possibly readying them — the cascade runs until no task is ready
  ("run to completion" between environment events);
* a reaction that pauses on ECL's ``await()`` requests a *self trigger*
  (paper, footnote 3) so the task is rescheduled without a new event.

The dispatch cascade is batched: signal routing is a table precomputed
at ``start()`` (network signal -> consumer tasks), the ready scan walks
a priority-sorted task order, and a dispatched task keeps running in a
run-to-completion *burst* for as long as it stays ready and nothing of
higher scan priority woke — the scheduler is not re-entered per event.
The accounting is exactly what the naive pick-dispatch loop would
produce: every dispatch decision (including burst continuations) counts
one scheduler invocation, so cycle reports are engine-independent.

Every kernel operation is counted; :mod:`repro.cost` turns the counts
into MIPS-R3000-style cycles so that task time and RTOS time can be
reported separately, as Table 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RtosError


@dataclass
class KernelStats:
    """Raw operation counts accumulated by the kernel."""

    dispatches: int = 0
    context_switches: int = 0
    scheduler_invocations: int = 0
    posts: int = 0
    self_triggers: int = 0
    idle_transitions: int = 0
    lost_events: int = 0

    def as_dict(self):
        return dict(self.__dict__)


class RtosKernel:
    """Priority scheduler over :class:`~repro.rtos.tasks.RtosTask`s."""

    def __init__(self, name="rtos"):
        self.name = name
        self.tasks = []
        self._by_name = {}
        self.stats = KernelStats()
        self._current = None
        self._started = False
        #: tasks sorted by (-priority, registration) — the scan order.
        self._order = []
        #: network signal -> tuple of consumer tasks.
        self._routes = {}

    # ------------------------------------------------------------------

    def add_task(self, task):
        if self._started:
            raise RtosError("cannot add task %r after started" % task.name)
        if task.name in self._by_name:
            raise RtosError("task %r already registered" % task.name)
        task.kernel = self
        self.tasks.append(task)
        self._by_name[task.name] = task
        return task

    def task(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise RtosError("no task named %r" % name)

    def _bind(self):
        """Freeze the scan order and the signal routing table."""
        order = sorted(self.tasks, key=lambda t: -t.priority)
        self._order = order
        for position, task in enumerate(order):
            task._order_pos = position
        routes = {}
        for task in self.tasks:
            for signal in task.consumed_signals():
                routes.setdefault(signal, []).append(task)
        self._routes = {
            signal: tuple(consumers)
            for signal, consumers in routes.items()
        }

    def start(self):
        """Initial dispatch: every task runs its start-up reaction (so
        modules reach their first await, as the synchronous start-up
        instant does)."""
        if self._started:
            raise RtosError("kernel already started")
        self._started = True
        self._bind()
        for task in self._order:
            task.ready = True
        self.run_until_idle()

    # ------------------------------------------------------------------

    def post_input(self, signal, value=None):
        """Environment event: deliver to every task consuming ``signal``."""
        if not self._started:
            raise RtosError("kernel not started")
        consumers = self._routes.get(signal)
        if not consumers:
            raise RtosError(
                "no task consumes signal %r (consumed signals: %s)"
                % (signal, ", ".join(self.input_signals()) or "none"))
        for task in consumers:
            task.deliver(signal, value)
        self.stats.posts += 1

    def input_signals(self):
        """Network signal names some task consumes (sorted) — the
        kernel's environment-facing input alphabet."""
        names = set()
        for task in self.tasks:
            names.update(task.consumed_signals())
        return sorted(names)

    def run_until_idle(self, max_dispatches=100000):
        """Run ready tasks (highest priority first) to quiescence.

        Returns the signals emitted to the environment during the
        cascade, as ``{signal: last value or None}``.
        """
        external = {}
        budget = max_dispatches
        stats = self.stats
        order = self._order
        task_count = len(order)
        while True:
            stats.scheduler_invocations += 1
            candidate = None
            position = 0
            while position < task_count:
                task = order[position]
                if task.ready:
                    candidate = task
                    break
                position += 1
            if candidate is None:
                stats.idle_transitions += 1
                return external
            # Run-to-completion burst: this task keeps dispatching for
            # as long as it stays ready (await() self triggers) and no
            # task of higher scan priority woke during routing.
            while True:
                if budget <= 0:
                    raise RtosError(
                        "scheduler exceeded %d dispatches (livelock? an "
                        "await() self-trigger loop never sleeps)"
                        % max_dispatches)
                budget -= 1
                if candidate is not self._current:
                    stats.context_switches += 1
                    self._current = candidate
                stats.dispatches += 1
                emitted = candidate.dispatch()
                woke = task_count
                if emitted:
                    woke = self._route_many(candidate, emitted, external)
                if not candidate.ready or woke < position:
                    break
                stats.scheduler_invocations += 1

    def _route_many(self, producer, emitted, external):
        """Deliver every emitted signal; returns the smallest scan
        position readied (task_count when none woke)."""
        routes = self._routes
        stats = self.stats
        woke = len(self._order)
        for signal, value in emitted.items():
            stats.posts += 1
            consumed = False
            for task in routes.get(signal, ()):
                if task is producer:
                    continue
                task.deliver(signal, value)
                consumed = True
                if task._order_pos < woke:
                    woke = task._order_pos
            if not consumed:
                external[signal] = value
        return woke

    def note_self_trigger(self):
        self.stats.self_triggers += 1

    # ------------------------------------------------------------------

    def total_lost_events(self):
        return sum(task.lost_events() for task in self.tasks) + self.stats.lost_events

    def stats_dict(self):
        """The raw counters plus the network-wide lost-event total —
        the payload :class:`~repro.farm.jobs.SimResult` carries."""
        stats = self.stats.as_dict()
        stats["lost_events"] = self.total_lost_events()
        return stats

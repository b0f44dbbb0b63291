"""AsyncNetwork: the asynchronous counterpart of
:class:`repro.runtime.network.SyncNetwork`.

Same construction API (``add_node`` with formal->network signal
bindings), but execution goes through the RTOS: each node is a
prioritized task, internal signals travel through event flags /
one-place mailboxes, and one :meth:`step` = post the environment events
and run the dispatch cascade to quiescence.  This is the "processes
communicating via signals" composition of the paper's Figure 4
discussion, packaged for exploration code that wants to swap the two
composition styles behind one interface.
"""

from __future__ import annotations

from ..errors import RtosError
from .kernel import RtosKernel
from .tasks import RtosTask


class AsyncNetwork:
    """RTOS-backed composition with the SyncNetwork surface."""

    def __init__(self, name="async-net"):
        self.kernel = RtosKernel(name)
        self._started = False
        self._next_priority = 100

    # ------------------------------------------------------------------
    # Construction

    def add_node(self, name, reactor, bindings=None, priority=None):
        """Register ``reactor`` as a task.

        Without an explicit ``priority``, registration order decides:
        earlier nodes get higher priority.  Registering a consumer
        before its producer therefore arms the consumer's ``await``
        first, so it sees an event its producer posts in the same
        cascade.
        """
        if self._started:
            raise RtosError("cannot add nodes after the network started")
        if priority is None:
            priority = self._next_priority
            self._next_priority -= 1
        self.kernel.add_task(
            RtosTask(name, reactor, priority=priority, bindings=bindings))
        return self

    # ------------------------------------------------------------------
    # Execution

    def start(self):
        """Run every task's start-up reaction (modules reach their first
        await).  Called implicitly by the first :meth:`step`."""
        if not self._started:
            self._started = True
            self.kernel.start()
        return self

    def step(self, inputs=None, values=None):
        """Post environment events, run to quiescence, return the
        signals that escaped to the environment
        (``{name: value-or-None}``)."""
        self.start()
        external = {}
        for name in set(inputs or ()):
            self.kernel.post_input(name)
            external.update(self.kernel.run_until_idle())
        for name, value in (values or {}).items():
            self.kernel.post_input(name, value)
            external.update(self.kernel.run_until_idle())
        if not inputs and not values:
            external.update(self.kernel.run_until_idle())
        return external

    # ------------------------------------------------------------------

    def node(self, name):
        return self.kernel.task(name).reactor

    @property
    def node_names(self):
        return [task.name for task in self.kernel.tasks]

    @property
    def stats(self):
        return self.kernel.stats

    def stats_dict(self):
        """The kernel's counters plus the network lost-event total."""
        return self.kernel.stats_dict()

    def lost_events(self):
        return self.kernel.total_lost_events()

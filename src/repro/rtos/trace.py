"""Execution tracing for the simulated RTOS.

Records every scheduling decision — dispatches, context switches, event
posts, self triggers — with a logical timestamp, and renders a textual
task timeline (a poor man's Gantt chart) plus per-task statistics.
Attach with :meth:`TraceRecorder.attach` before ``kernel.start()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class TraceEvent:
    """One scheduler-visible occurrence."""

    time: int
    kind: str            # dispatch | post | self_trigger | idle
    task: Optional[str] = None
    signal: Optional[str] = None
    emitted: tuple = ()

    def describe(self):
        if self.kind == "dispatch":
            extra = " -> %s" % "+".join(self.emitted) if self.emitted else ""
            return "t%04d dispatch %s%s" % (self.time, self.task, extra)
        if self.kind == "post":
            return "t%04d post %s -> %s" % (self.time, self.signal,
                                            self.task or "<env>")
        if self.kind == "self_trigger":
            return "t%04d self-trigger %s" % (self.time, self.task)
        return "t%04d %s" % (self.time, self.kind)


class TraceRecorder:
    """Wraps a kernel's tasks to log their dispatches."""

    def __init__(self):
        self.events: List[TraceEvent] = []
        self.time = 0
        self._kernel = None

    def attach(self, kernel):
        """Instrument every task of ``kernel`` (call before start())."""
        if self._kernel is not None:
            raise RuntimeError("recorder already attached")
        self._kernel = kernel
        for task in kernel.tasks:
            task.dispatch = self._wrap_dispatch(task, task.dispatch)
            task.deliver = self._wrap_deliver(task, task.deliver)
        return self

    def _wrap_dispatch(self, task, original):
        def dispatch():
            emitted = original()
            self.events.append(TraceEvent(
                time=self.time, kind="dispatch", task=task.name,
                emitted=tuple(sorted(emitted))))
            self.time += 1
            if task.ready:
                self.events.append(TraceEvent(
                    time=self.time, kind="self_trigger", task=task.name))
            return emitted
        return dispatch

    def _wrap_deliver(self, task, original):
        def deliver(network_signal, value=None):
            self.events.append(TraceEvent(
                time=self.time, kind="post", task=task.name,
                signal=network_signal))
            return original(network_signal, value)
        return deliver

    # ------------------------------------------------------------------

    def dispatches(self, task_name=None):
        return [e for e in self.events if e.kind == "dispatch"
                and (task_name is None or e.task == task_name)]

    def per_task_counts(self):
        counts: Dict[str, int] = {}
        for event in self.dispatches():
            counts[event.task] = counts.get(event.task, 0) + 1
        return counts

    def timeline(self, width=64):
        """Text Gantt: one row per task, one column per dispatch slot."""
        dispatches = self.dispatches()
        if not dispatches:
            return "(no dispatches recorded)"
        tasks = sorted({e.task for e in dispatches})
        slots = dispatches[-width:]
        rows = []
        for task in tasks:
            cells = "".join("#" if event.task == task else "." for event in slots)
            rows.append("%-12s |%s|" % (task, cells))
        return "\n".join(rows)

    def log(self, limit=None):
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(event.describe() for event in events)

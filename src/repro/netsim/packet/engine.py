"""The discrete-event scheduler every packet simulation runs.

:class:`EventScheduler` is a binary heap of ``(time, sequence,
callback)`` tuples; the sequence number breaks ties so that events
scheduled earlier run earlier and comparison never falls through to the
(non-comparable) callback.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

__all__ = ["EventScheduler", "CalendarScheduler"]


class EventScheduler:
    """A simple discrete-event scheduler backed by a binary heap.

    Every :class:`~repro.netsim.packet.network.Network` builds one.

    Example
    -------
    >>> sched = EventScheduler()
    >>> fired = []
    >>> sched.schedule(1.0, lambda: fired.append("a"))
    >>> sched.schedule(0.5, lambda: fired.append("b"))
    >>> sched.run(until=2.0)
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        #: Current simulation time in seconds.  A plain attribute, read
        #: on every hot-path callback; only :meth:`run` advances it.
        self.now = 0.0
        #: Lifetime count of callbacks executed (the events/sec numerator
        #: of the performance model; see ``docs/performance.md``).
        self.events_processed = 0
        #: Lifetime count of events ever inserted (processed + still
        #: pending); reported in :class:`repro.obs.metrics.EngineCounters`.
        #: An event's count at insertion is its tie-break sequence number.
        self.events_scheduled = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute ``time``.

        A time before :attr:`now`, or NaN, raises ``ValueError``: a NaN
        entry at the head of the heap would block every later event.  An
        infinite time is accepted and never fires.
        """
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule an event at {time}: event times must be "
                f"numbers no earlier than the current time {self.now}"
            )
        sequence = self.events_scheduled
        heapq.heappush(self._heap, (float(time), sequence, callback))
        self.events_scheduled = sequence + 1

    def run(self, until: float) -> None:
        """Run events in time order until the clock reaches ``until``.

        An event at exactly ``until`` runs; a later one waits for the
        next call.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while heap and heap[0][0] <= until:
                time, _, callback = pop(heap)
                self.now = time
                processed += 1
                callback()
        finally:
            self.events_processed = processed
        if until > self.now:
            self.now = until


class CalendarScheduler(EventScheduler):
    """The heap under a second name, defining nothing of its own.

    No network builds it.  ``perfbench/tracing.py`` imports it and
    patches its ``schedule`` and ``run``; the benchmark change that
    removes that patch (ROADMAP item 4) deletes this class with it.  It
    is a subclass rather than an alias so that the patch, which wraps
    both names in turn, does not wrap ``EventScheduler.schedule`` twice.
    """

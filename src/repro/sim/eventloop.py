"""Deterministic discrete-event loop (virtual time).

Events are ordered by (time, sequence-number) so two runs with the same
inputs produce byte-identical traces.  This loop drives every test and
virtual-clock experiment in the repository; real sockets run on
:class:`~repro.transport.scheduler.AsyncioScheduler` instead.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import ClockMonotonicityError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import CancelHandle, Scheduler


class ScheduledEvent:
    """A pending callback inside the :class:`EventLoop` heap."""

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent t={self.when:.6f} seq={self.seq}{flag}>"


class EventLoop(Scheduler):
    """A deterministic discrete-event scheduler over a virtual clock.

    Usage::

        loop = EventLoop()
        loop.call_later(1.5, lambda: print("fired at", loop.now()))
        loop.run_until(10.0)
    """

    def __init__(self, clock: VirtualClock | None = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._running = False
        self._executed = 0
        #: Optional hook called with each event as it is popped (before
        #: its callback runs).  The simulation fuzzer records the
        #: (time, sequence) of every scheduler decision through this so
        #: a replayed seed can be compared step by step.
        self.observer: Callable[[ScheduledEvent], None] | None = None

    # -- Scheduler interface -------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    def call_later(self, delay: float, callback: Callable[[], None]) -> CancelHandle:
        event = self.schedule(delay, callback)
        return CancelHandle(event.cancel)

    def after_work(self, modelled: float, callback: Callable[[], None]) -> CancelHandle:
        """Virtual time stands still while Python runs: charge the model."""
        return self.call_later(modelled, callback)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ClockMonotonicityError(self.now(), self.now() + delay)
        return self.schedule_at(self.now() + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.now():
            raise ClockMonotonicityError(self.now(), when)
        event = ScheduledEvent(when, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return event

    # -- execution -----------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def executed_count(self) -> int:
        """Total number of callbacks executed so far."""
        return self._executed

    def peek_time(self) -> float | None:
        """Virtual time of the next live event, or None if idle."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].when

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain."""
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.when)
        self._executed += 1
        if self.observer is not None:
            self.observer(event)
        event.callback()
        return True

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain.  Returns number executed.

        ``max_events`` guards against runaway self-rescheduling loops
        (periodic synchronization reschedules itself forever, so
        benchmark drivers should prefer :meth:`run_until`).
        """
        if self._running:
            raise SimulationError("event loop is not re-entrant")
        self._running = True
        executed = 0
        try:
            while executed < max_events and self.step():
                executed += 1
        finally:
            self._running = False
        if executed >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}; likely a livelock")
        return executed

    def run_until(self, deadline: float) -> int:
        """Run events with time <= deadline; clock ends exactly at deadline."""
        if deadline < self.now():
            raise ClockMonotonicityError(self.now(), deadline)
        if self._running:
            raise SimulationError("event loop is not re-entrant")
        self._running = True
        executed = 0
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time > deadline:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        self.clock.advance_to(deadline)
        return executed

    def run_while(self, predicate: Callable[[], bool], deadline: float) -> int:
        """Run events while ``predicate()`` holds, up to ``deadline``."""
        executed = 0
        while predicate():
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
            executed += 1
        return executed

    # -- internal ------------------------------------------------------------

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

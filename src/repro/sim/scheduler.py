"""Abstract scheduler interface.

The synchronizer, meshes and workload drivers are written against
:class:`Scheduler` so they can run unmodified on virtual time (the
:class:`~repro.sim.eventloop.EventLoop`) or wall-clock time
(:class:`~repro.transport.scheduler.AsyncioScheduler`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable


class CancelHandle:
    """Handle returned by :meth:`Scheduler.call_later`; cancellable."""

    __slots__ = ("_cancel", "_cancelled")

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self._cancelled = False

    def cancel(self) -> None:
        """Cancel the scheduled call if it has not fired yet."""
        if not self._cancelled:
            self._cancelled = True
            self._cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Scheduler(ABC):
    """Minimal scheduling interface used by every time-driven component."""

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""

    @abstractmethod
    def call_later(self, delay: float, callback: Callable[[], None]) -> CancelHandle:
        """Run ``callback`` after ``delay`` seconds; returns a cancel handle."""

    def call_soon(self, callback: Callable[[], None]) -> CancelHandle:
        """Run ``callback`` as soon as possible (delay 0)."""
        return self.call_later(0.0, callback)

    def after_work(self, modelled: float, callback: Callable[[], None]) -> CancelHandle:
        """Run ``callback`` once ``modelled`` seconds of CPU work are paid for.

        The caller has just *done* the work the cost model prices.  On a
        wall clock that already took its time, so the callback runs on
        the next tick — never synchronously: whatever the caller does
        after this call still precedes it, the order the virtual clock
        gives.  :class:`~repro.sim.eventloop.EventLoop`, whose clock
        does not move while Python runs, charges ``modelled`` instead.
        """
        return self.call_soon(callback)

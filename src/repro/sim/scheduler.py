"""Abstract scheduler interface plus a wall-clock implementation.

The synchronizer, meshes and workload drivers are written against
:class:`Scheduler` so they can run unmodified on virtual time (the
:class:`~repro.sim.eventloop.EventLoop`) or wall-clock time
(:class:`RealTimeScheduler`).
"""

from __future__ import annotations

import threading
import time
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


class RealTimeScheduler(Scheduler):
    """Wall-clock scheduler backed by a single timer thread.

    Callbacks run on the timer thread, serialized by an internal lock so
    the callback-driven synchronizer state machines never race.  Used by
    the real-time examples; tests and benchmarks use the deterministic
    :class:`~repro.sim.eventloop.EventLoop` instead.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._timers: set[threading.Timer] = set()
        self._closed = False

    def now(self) -> float:
        return time.monotonic()

    def call_later(self, delay: float, callback: Callable[[], None]) -> CancelHandle:
        if delay < 0:
            raise ValueError("delay must be >= 0")

        timer_box: list[threading.Timer] = []

        def run() -> None:
            with self._lock:
                self._timers.discard(timer_box[0])
                if self._closed:
                    return
                callback()

        timer = threading.Timer(delay, run)
        timer.daemon = True
        timer_box.append(timer)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._timers.add(timer)
        timer.start()

        def cancel() -> None:
            timer.cancel()
            with self._lock:
                self._timers.discard(timer)

        return CancelHandle(cancel)

    def run_locked(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` holding the callback lock (for external threads)."""
        with self._lock:
            fn()

    def close(self) -> None:
        """Cancel all outstanding timers and refuse further scheduling."""
        with self._lock:
            self._closed = True
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()

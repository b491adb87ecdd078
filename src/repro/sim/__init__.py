"""Discrete-event simulation kernel.

The GUESSTIMATE runtime is written against the small scheduler interface
defined here, so the same synchronizer code runs on the deterministic
virtual-time loop used by tests and the paper's figures and on the
asyncio wall-clock scheduler (:mod:`repro.transport.scheduler`) that
the daemon, the gateway and ``bench/`` run on.

Public classes:

* :class:`~repro.sim.clock.VirtualClock` — monotonically advancing
  simulated time.
* :class:`~repro.sim.eventloop.EventLoop` — deterministic discrete-event
  scheduler (the heart of every benchmark).
* :class:`~repro.sim.eventloop.ScheduledEvent` — cancellable handle.
* :class:`~repro.sim.scheduler.Scheduler` — the abstract interface.
* :class:`~repro.sim.rand.SeededSource` — seeded random streams, one
  sub-stream per named component.
"""

from repro.sim.clock import VirtualClock
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.sim.rand import SeededSource
from repro.sim.scheduler import Scheduler

__all__ = [
    "EventLoop",
    "ScheduledEvent",
    "Scheduler",
    "SeededSource",
    "VirtualClock",
]

"""Shared-object classes and builders used across the test suite.

Defined once here because :func:`repro.core.serialization.shared_type`
keeps a global name registry — two test modules redefining a ``Counter``
class would collide.
"""

from __future__ import annotations

from repro.core.serialization import shared_type
from repro.core.shared_object import GSharedObject
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem
from repro.spec import modifies


@shared_type
class Counter(GSharedObject):
    """Increment-up-to-a-limit counter; the canonical conflict object."""

    def __init__(self):
        self.value = 0

    def copy_from(self, src: "Counter") -> None:
        self.value = src.value

    def increment(self, limit: int) -> bool:
        if self.value >= limit:
            return False
        self.value += 1
        return True

    def add(self, amount: int, limit: int) -> bool:
        if amount <= 0 or self.value + amount > limit:
            return False
        self.value += amount
        return True


@shared_type
class Register(GSharedObject):
    """Compare-and-set register; conflicts on every concurrent write."""

    def __init__(self):
        self.value = 0

    def copy_from(self, src: "Register") -> None:
        self.value = src.value

    def set_if(self, expected: int, value: int) -> bool:
        if self.value != expected:
            return False
        self.value = value
        return True

    def always_set(self, value: int) -> bool:
        self.value = value
        return True


@shared_type
class Ledger(GSharedObject):
    """Append-only log plus a balance; exercises multi-field state."""

    def __init__(self):
        self.balance = 0
        self.log: list[str] = []

    def copy_from(self, src: "Ledger") -> None:
        self.balance = src.balance
        self.log = list(src.log)

    def deposit(self, amount: int, note: str) -> bool:
        if amount <= 0:
            return False
        self.balance += amount
        self.log.append(f"+{amount}:{note}")
        return True

    def withdraw(self, amount: int, note: str) -> bool:
        if amount <= 0 or amount > self.balance:
            return False
        self.balance -= amount
        self.log.append(f"-{amount}:{note}")
        return True


@shared_type
class Toggle(GSharedObject):
    """A flag that can only be claimed once; minimal conflict object."""

    def __init__(self):
        self.owner: str | None = None

    def copy_from(self, src: "Toggle") -> None:
        self.owner = src.owner

    def claim(self, who: str) -> bool:
        if self.owner is not None:
            return False
        self.owner = who
        return True

    def release(self, who: str) -> bool:
        if self.owner != who:
            return False
        self.owner = None
        return True


@shared_type
class LeakyLog(GSharedObject):
    """One framed operation next to a deliberately frameless mutator.

    ``sneak_record`` is the canonical dirty-tracking leak: it mutates
    ``self.entries`` without a ``@modifies`` frame, so calling it
    directly on a replica is invisible to ``mark_dirty``.  glint's
    GL002 flags it statically and the ``refresh_oracle`` catches the
    resulting ``[P](sc) != sg`` divergence at runtime — the agreement
    between the two is pinned by a test.
    """

    def __init__(self):
        self.entries: list[str] = []

    def copy_from(self, src: "LeakyLog") -> None:
        self.entries = list(src.entries)

    @modifies("entries")
    def record(self, entry: str) -> bool:
        self.entries.append(entry)
        return True

    def sneak_record(self, entry: str) -> None:
        # No @modifies, mutates shared state: the GL002 hazard.
        self.entries.append(entry)


class BadCopy(GSharedObject):
    """Deliberately missing copy_from — for validation tests.

    NOT registered with @shared_type (it would fail validation).
    """

    def __init__(self):
        self.x = 0


def quick_system(
    n: int = 3,
    seed: int = 0,
    faults=None,
    latency=None,
    sync_interval: float = 0.5,
    tracing: bool = False,
    **config_kwargs,
) -> DistributedSystem:
    """A small started system with fast rounds for unit tests."""
    config = RuntimeConfig(
        sync_interval=sync_interval, tracing=tracing, **config_kwargs
    )
    system = DistributedSystem(
        n_machines=n, seed=seed, faults=faults, latency=latency, config=config
    )
    system.start(first_sync_delay=0.1)
    return system


def shared_counter(system: DistributedSystem, limit_unused: int = 0):
    """Create a Counter on machine 1 and join it everywhere; returns
    (replicas by machine id, unique id)."""
    apis = system.apis()
    counter = apis[0].create_instance(Counter)
    system.run_until_quiesced()
    replicas = {
        system.machine_ids()[index]: api.join_instance(counter.unique_id)
        for index, api in enumerate(apis)
    }
    return replicas, counter.unique_id


def work_at(system: DistributedSystem, delay: float) -> None:
    """Have the master issue one operation ``delay`` seconds from now.

    An idle concurrent cluster runs no round, and only a round notices
    a lost signal or a crashed or cut-off slave: a fault test puts work
    inside its fault window with this.
    """

    def issue() -> None:
        system.master_node.api.create_instance(Counter)

    system.loop.call_later(delay, issue)

"""Broadcast meshes — the PeerChannel substitute.

A :class:`Mesh` is a named broadcast channel on the simulator's
scheduler: each delivery that survives the fault injector arrives after
its own sampled latency.  The GUESSTIMATE runtime uses two meshes (as
the paper does): ``signals`` for protocol control messages and
``operations`` for shipped operations.
"""

from __future__ import annotations

import random

from repro.net.faults import FaultInjector
from repro.net.interface import BroadcastChannel, ChannelPair
from repro.net.latency import ConstantLatency, LatencyModel
from repro.sim.rand import seeded_stream
from repro.sim.scheduler import Scheduler


class Mesh(BroadcastChannel):
    """A broadcast channel with per-delivery latency and fault injection."""

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        rng: random.Random | None = None,
    ):
        # The fallback stream is derived from the mesh name so two
        # meshes never share a default sequence and replay from a seed
        # stays bit-identical (see repro.sim.rand).
        if rng is None:
            rng = seeded_stream(f"mesh:{name}")
        super().__init__(name, scheduler, faults, rng)
        self.latency = latency if latency is not None else ConstantLatency(0.0)

    def _carrier(self, sender: str, payload: object, sent_at: float):
        def carry(recipient: str) -> None:
            self.scheduler.call_later(
                self.latency.sample(self.rng),
                lambda: self._arrive(sender, recipient, payload, sent_at),
            )

        return carry


class MeshPair(ChannelPair):
    """``signals`` and ``operations`` meshes sharing one scheduler,
    latency model, fault injector and random stream."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        rng: random.Random | None = None,
    ):
        super().__init__(lambda name: Mesh(name, scheduler, latency, faults, rng))

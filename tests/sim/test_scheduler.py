"""``Scheduler.after_work`` on both schedulers."""

import asyncio
import time

from repro.sim.eventloop import EventLoop
from repro.transport.scheduler import AsyncioScheduler


class TestAfterWork:
    """Modelled CPU is charged where the clock is virtual, and only there."""

    def test_event_loop_charges_the_model_exactly_like_call_later(self):
        popped = {}
        for name in ("call_later", "after_work"):
            loop = EventLoop()
            loop.call_later(1.0, lambda: None)  # same history on both loops
            loop.run_until(1.5)
            fired = []
            events = []
            loop.observer = lambda event: events.append((event.when, event.seq))
            getattr(loop, name)(0.25, lambda: fired.append(loop.now()))
            loop.run()
            assert fired == [1.75]
            popped[name] = events
        assert popped["after_work"] == popped["call_later"]
        assert len(popped["after_work"]) == 1

    def test_asyncio_scheduler_runs_it_on_the_next_tick(self):
        async def main():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            order = []
            done = asyncio.Event()

            def callback():
                order.append("callback")
                done.set()

            started = time.monotonic()
            scheduler.after_work(5.0, callback)
            order.append("caller")  # what follows the call still precedes it
            await asyncio.wait_for(done.wait(), timeout=2.0)
            assert order == ["caller", "callback"]
            assert time.monotonic() - started < 0.5
            assert scheduler.errors == []

        asyncio.run(main())

"""RealTimeScheduler tests (kept fast: tiny delays), and ``after_work``
on all three schedulers."""

import asyncio
import threading
import time

import pytest

from repro.sim.eventloop import EventLoop
from repro.sim.scheduler import RealTimeScheduler
from repro.transport.scheduler import AsyncioScheduler


class TestRealTimeScheduler:
    def test_callback_fires(self):
        scheduler = RealTimeScheduler()
        done = threading.Event()
        scheduler.call_later(0.01, done.set)
        assert done.wait(timeout=2.0)
        scheduler.close()

    def test_cancel_prevents_firing(self):
        scheduler = RealTimeScheduler()
        fired = []
        handle = scheduler.call_later(0.05, lambda: fired.append(1))
        handle.cancel()
        time.sleep(0.15)
        assert fired == []
        scheduler.close()

    def test_callbacks_serialized_by_lock(self):
        scheduler = RealTimeScheduler()
        counters = {"in_flight": 0, "max_in_flight": 0, "done": 0}
        done = threading.Event()

        def cb():
            counters["in_flight"] += 1
            counters["max_in_flight"] = max(
                counters["max_in_flight"], counters["in_flight"]
            )
            time.sleep(0.01)
            counters["in_flight"] -= 1
            counters["done"] += 1
            if counters["done"] == 5:
                done.set()

        for _ in range(5):
            scheduler.call_later(0.01, cb)
        assert done.wait(timeout=5.0)
        assert counters["max_in_flight"] == 1  # never concurrent
        scheduler.close()

    def test_now_is_monotonic(self):
        scheduler = RealTimeScheduler()
        first = scheduler.now()
        second = scheduler.now()
        assert second >= first
        scheduler.close()

    def test_close_stops_future_callbacks(self):
        scheduler = RealTimeScheduler()
        fired = []
        scheduler.call_later(0.05, lambda: fired.append(1))
        scheduler.close()
        time.sleep(0.15)
        assert fired == []

    def test_schedule_after_close_raises(self):
        scheduler = RealTimeScheduler()
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.call_later(0.01, lambda: None)

    def test_negative_delay_rejected(self):
        scheduler = RealTimeScheduler()
        with pytest.raises(ValueError):
            scheduler.call_later(-1.0, lambda: None)
        scheduler.close()


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

    def test_real_time_scheduler_runs_it_after_the_caller(self):
        scheduler = RealTimeScheduler()
        order = []
        done = threading.Event()

        def callback():
            order.append("callback")
            done.set()

        def caller():
            scheduler.after_work(5.0, callback)
            order.append("caller")

        started = time.monotonic()
        scheduler.run_locked(caller)  # callbacks hold this lock: as if in one
        assert done.wait(timeout=2.0)
        assert order == ["caller", "callback"]
        assert time.monotonic() - started < 0.5
        scheduler.close()

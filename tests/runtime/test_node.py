"""GuesstimateNode unit-ish tests: windows, deferral, metrics hooks."""

import pytest

from repro.errors import NodeCrashedError
from repro.runtime.tracing import Tracer
from tests.helpers import Counter, quick_system, shared_counter


class TestWindows:
    def test_window_nesting(self):
        system = quick_system(2)
        node = system.node("m01")
        node.enter_window("flush")
        node.enter_window("update")
        node.exit_window("update")
        assert node.active_window() is not None
        node.exit_window("flush")
        assert node.active_window() is None

    def test_deferred_run_in_order_on_close(self):
        system = quick_system(2)
        node = system.node("m01")
        ran = []
        node.enter_window("flush")
        node.defer(lambda: ran.append(1))
        node.defer(lambda: ran.append(2))
        assert ran == []
        node.exit_window("flush")
        assert ran == [1, 2]

    def test_thunk_reopening_a_window_keeps_the_rest_for_the_next_close(self):
        system = quick_system(2)
        node = system.node("m01")
        ran = []

        def reopen():
            ran.append(1)
            node.enter_window("update")
            node.defer(lambda: ran.append(4))  # deferred meanwhile: goes last

        node.enter_window("flush")
        node.defer(reopen)
        node.defer(lambda: ran.append(2))
        node.defer(lambda: ran.append(3))
        node.exit_window("flush")
        assert ran == [1]  # the window is open again: nothing may issue
        node.exit_window("update")
        assert ran == [1, 2, 3, 4]

    def test_deferral_delay_metered(self):
        system = quick_system(2)
        node = system.node("m01")
        node.enter_window("flush")
        node.defer(lambda: None)
        system.loop.call_later(0.5, lambda: node.exit_window("flush"))
        system.run_for(1.0)
        assert node.metrics.deferral_delay_total == pytest.approx(0.5)

    def test_stopped_node_raises_on_window_query(self):
        system = quick_system(2)
        node = system.node("m02")
        node.halt()
        with pytest.raises(NodeCrashedError):
            node.active_window()


class TestMetricsHooks:
    def test_rejected_issue_counted_and_traced(self):
        system = quick_system(2, tracing=True)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        # Counter already at limit 0 → guard fails.
        assert not api.issue_operation(
            api.create_operation(replicas["m01"], "increment", 0)
        )
        assert system.metrics.node("m01").ops_rejected_at_issue == 1
        assert system.tracer.of_kind(Tracer.ISSUE_REJECTED)

    def test_rejected_ticket_counted(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m02")
        ticket = api.issue_when_possible(
            api.create_operation(replicas["m02"], "increment", 0)
        )
        assert ticket.status == "rejected"
        assert system.metrics.node("m02").ops_rejected_at_issue == 1

    def test_commit_latency_recorded(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        metrics = system.metrics.node("m01")
        assert metrics.commit_latency_count >= 1
        assert metrics.mean_commit_latency > 0


class TestHalt:
    def test_halted_node_ignores_messages(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        node = system.node("m03")
        node.halt()
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_for(10.0)
        assert node.model.committed.get(uid).value == 0

    def test_halting_a_slave_triggers_master_recovery(self):
        system = quick_system(3, stall_timeout=1.5)
        node = system.node("m02")
        node.halt()
        system.run_for(15.0)
        removed = [r for r in system.metrics.sync_records if r.removals]
        assert removed
        assert "m02" not in system.master_node.master.participants

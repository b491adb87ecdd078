"""Synchronizer protocol behaviour, observed via traces and metrics."""

from repro.runtime import config as runtime_config
from repro.runtime.tracing import Tracer
from tests.helpers import Counter, quick_system, shared_counter


class TestRoundStructure:
    def test_rounds_happen_periodically(self):
        system = quick_system(3, sync_interval=0.5)
        system.run_for(5.0)
        # Roughly one round per (interval + round time).
        assert 6 <= len(system.metrics.sync_records) <= 10

    def test_round_records_have_sane_durations(self):
        system = quick_system(4)
        system.run_for(5.0)
        for record in system.metrics.sync_records:
            assert 0 < record.duration < 1.0
            assert record.participants == 4

    def test_ops_committed_counted_per_round(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 9))
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 9))
        before = len(system.metrics.sync_records)
        system.run_until_quiesced()
        new_records = system.metrics.sync_records[before:]
        assert sum(record.ops_committed for record in new_records) == 2

    def test_empty_rounds_commit_nothing(self):
        system = quick_system(2)
        system.run_for(3.0)
        assert all(
            record.ops_committed == 0 for record in system.metrics.sync_records
        )


class TestExecutionBound:
    def test_ops_execute_at_most_three_times(self):
        system = quick_system(3)
        replicas, _uid = shared_counter(system)
        import random

        rng = random.Random(0)
        for _ in range(60):
            machine_id = rng.choice(list(replicas))
            api = system.api(machine_id)
            try:
                api.issue_operation(
                    api.create_operation(replicas[machine_id], "increment", 1000)
                )
            except Exception:
                pass
            system.run_for(rng.random() * 0.3)
        system.run_until_quiesced()
        histogram = system.metrics.execution_histogram()
        assert histogram
        assert max(histogram) <= 3

    def test_idle_issue_executes_exactly_twice(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        system.run_until_quiesced()
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 9))
        entry_key = api.model.pending[-1].key
        system.run_until_quiesced()
        assert system.metrics.node("m01").executions[entry_key] == 2


class TestWindows:
    def test_issue_during_flush_window_is_deferred(self, monkeypatch):
        # Schedule an issue precisely inside a flush window by issuing
        # a big batch (wide window) and firing during it.
        monkeypatch.setattr(runtime_config, "FLUSH_CPU_BASE", 0.05)
        monkeypatch.setattr(runtime_config, "UPDATE_CPU_BASE", 0.05)
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        for _ in range(5):
            api.issue_operation(
                api.create_operation(replicas["m01"], "increment", 1000)
            )
        node = system.node("m01")
        deferred_results = []

        def try_issue_mid_window():
            ticket = api.issue_when_possible(
                api.create_operation(replicas["m01"], "increment", 1000)
            )
            deferred_results.append(ticket)

        # The next round starts at ~0.1s (quick_system first delay) —
        # the flush window lasts 0.05s from the round start.
        fired = {"window_seen": False}

        def probe():
            if node.active_window() is not None and not fired["window_seen"]:
                fired["window_seen"] = True
                try_issue_mid_window()
            elif not fired["window_seen"]:
                system.loop.call_later(0.005, probe)

        system.loop.call_later(0.1, probe)
        system.run_until_quiesced()
        assert fired["window_seen"]
        assert deferred_results[0].done
        assert system.metrics.node("m01").deferred_issues >= 1

    def test_window_closes_after_round(self):
        system = quick_system(2)
        system.run_until_quiesced()
        assert system.node("m01").active_window() is None
        assert system.node("m02").active_window() is None


class TestTracing:
    def test_trace_records_protocol_milestones(self):
        system = quick_system(2, tracing=True)
        replicas, _uid = shared_counter(system)
        api = system.api("m02")
        api.issue_operation(api.create_operation(replicas["m02"], "increment", 9))
        system.run_until_quiesced()
        kinds = {event.kind for event in system.tracer.events}
        assert Tracer.ISSUE in kinds
        assert Tracer.COMMIT in kinds
        assert Tracer.REFRESH in kinds
        assert Tracer.SYNC_START in kinds
        assert Tracer.SYNC_DONE in kinds
        assert Tracer.FLUSH in kinds

    def test_commit_events_identical_across_machines(self):
        system = quick_system(3, tracing=True)
        replicas, _uid = shared_counter(system)
        for machine_id, replica in replicas.items():
            api = system.api(machine_id)
            api.issue_operation(api.create_operation(replica, "increment", 10))
        system.run_until_quiesced()
        sequences = {}
        for machine_id in system.machine_ids():
            sequences[machine_id] = [
                event.detail["key"]
                for event in system.tracer.for_machine(machine_id)
                if event.kind == Tracer.COMMIT
            ]
        reference = sequences["m01"]
        assert all(seq == reference for seq in sequences.values())

"""Guesstimate facade edge cases not covered by the main suites."""

import pytest

from repro.core.guesstimate import Guesstimate, LocalHost
from repro.core.machine import MachineModel
from repro.errors import SharedObjectError
from tests.helpers import BadCopy, Counter, Ledger, quick_system


def make_api():
    return Guesstimate(MachineModel("m01"))


class TestAvailableObjects:
    def test_includes_pending_creates_and_committed(self):
        api = make_api()
        local = api.create_instance(Counter)  # pending, guess-only
        api.model.committed.create("remote:1", Ledger, None)
        listed = api.available_objects()
        assert local.unique_id in listed
        assert "remote:1" in listed

    def test_sorted_and_deduplicated(self):
        api = make_api()
        counter = api.create_instance(Counter)
        api.model.committed.create(counter.unique_id, Counter, None)
        listed = api.available_objects()
        assert listed.count(counter.unique_id) == 1
        assert listed == sorted(listed)


class TestGetType:
    def test_falls_back_to_committed_store(self):
        api = make_api()
        api.model.committed.create("c:1", Ledger, None)
        assert api.get_type("c:1") is Ledger


class TestCreateInstanceValidation:
    def test_invalid_shared_class_rejected(self):
        api = make_api()
        with pytest.raises(SharedObjectError):
            api.create_instance(BadCopy)

    def test_init_state_does_not_alias_caller_dict(self):
        api = make_api()
        seed = {"value": 3}
        counter = api.create_instance(Counter, init_state=seed)
        seed["value"] = 99
        assert counter.value == 3


class TestTicketLifecycleOverRuntime:
    def test_ticket_key_matches_committed_entry(self):
        system = quick_system(2)
        api = system.apis()[0]
        counter = api.create_instance(Counter)
        system.run_until_quiesced()
        ticket = api.issue_when_possible(
            api.create_operation(counter, "increment", 5)
        )
        assert ticket.key is not None
        system.run_until_quiesced()
        committed_keys = [e.key for e in system.node("m01").model.completed]
        assert ticket.key in committed_keys
        assert ticket.status == "committed"

    def test_wait_returns_immediately_when_done(self):
        system = quick_system(2)
        api = system.apis()[0]
        counter = api.create_instance(Counter)
        system.run_until_quiesced()
        ticket = api.issue_when_possible(
            api.create_operation(counter, "increment", 5)
        )
        system.run_until_quiesced()
        assert ticket.wait(timeout=0.01)  # already committed; no block


class TestTicketWait:
    """``wait()`` is the blocking pattern's primitive (paper section 5);
    tickets share one condition, so each must still wake on its own
    resolution and must stay cheap to retain."""

    def waiter(self, ticket):
        import threading

        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(ticket.wait(timeout=5.0))
        )
        thread.start()
        return thread, outcome

    def resolve_from_main_thread(self, ticket, resolve):
        thread, outcome = self.waiter(ticket)
        assert not ticket.wait(timeout=0.05)  # still unresolved: times out
        resolve()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome == [True]
        assert ticket.done
        assert ticket.wait(timeout=0.01)  # resolved: returns, never blocks

    def test_second_thread_wakes_on_commit(self):
        api = make_api()
        counter = api.create_instance(Counter)
        ticket = api.invoke(counter, "increment", 5)
        assert ticket.status == "issued" and not ticket.done
        entry = api.model.pending[-1]
        self.resolve_from_main_thread(ticket, lambda: entry.completion(True))
        assert ticket.status == "committed" and ticket.commit_result is True

    def test_second_thread_wakes_on_rejection(self):
        from repro.core.guesstimate import IssueTicket

        ticket = IssueTicket()
        self.resolve_from_main_thread(ticket, ticket._mark_rejected)
        assert ticket.status == "rejected" and not ticket

    def test_another_tickets_resolution_does_not_release_a_waiter(self):
        from repro.core.guesstimate import IssueTicket

        waiting, other = IssueTicket(), IssueTicket()
        thread, outcome = self.waiter(waiting)
        other._mark_committed(True)
        thread.join(timeout=0.1)
        assert thread.is_alive() and outcome == []
        waiting._mark_committed(False)
        thread.join(timeout=5.0)
        assert outcome == [True]

    def test_no_wakeup_is_lost_with_more_waiters_than_cores(self):
        import sys

        from repro.core.guesstimate import IssueTicket

        tickets = [IssueTicket() for _ in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            waiters = [self.waiter(ticket) for ticket in tickets]
            for index, ticket in enumerate(tickets):
                if index % 2:
                    ticket._mark_rejected()
                else:
                    ticket._mark_committed(True)
            for thread, _outcome in waiters:
                thread.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread, _ in waiters)
        assert all(outcome == [True] for _, outcome in waiters)

    def test_a_retained_ticket_stays_under_300_bytes(self):
        """A gateway keeps every ticket for the life of the daemon."""
        import tracemalloc

        from repro.core.guesstimate import IssueTicket
        from repro.core.operations import OpKey

        count = 5000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tickets = []
            for number in range(count):
                ticket = IssueTicket()
                ticket._mark_issued(OpKey("m01", number))
                ticket._mark_committed(True)
                tickets.append(ticket)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (after - before) / count < 300

"""End-to-end tests for the batch synchronizer + ticket API.

Every scenario here runs under BOTH collection modes (sequential
token-passing and concurrent flush) — the redesign's contract is that
collection mode changes latency, never semantics: tickets resolve the
same way, the committed sequence is identical, and all paper
invariants hold.
"""

import random

import pytest

from repro.core.guesstimate import IssueTicket
from repro.runtime.config import SyncConfig
from tests.helpers import Counter, Register, quick_system, shared_counter

BOTH_MODES = pytest.mark.parametrize("mode", ["sequential", "concurrent"])


def mode_system(mode, n=3, seed=0, **kwargs):
    sync = kwargs.pop("sync", None) or SyncConfig(collection=mode)
    return quick_system(n=n, seed=seed, sync=sync, **kwargs)


class TestTicketResolution:
    @BOTH_MODES
    def test_committed_op_resolves_ticket(self, mode):
        system = mode_system(mode)
        replicas, _uid = shared_counter(system)
        api = system.api("m02")
        ticket = api.invoke(replicas["m02"], "increment", 10)
        assert ticket.status == IssueTicket.ISSUED
        assert ticket and not ticket.done
        system.run_until_quiesced()
        assert ticket.status == IssueTicket.COMMITTED
        assert ticket.commit_result is True
        assert ticket.done
        system.check_all_invariants()

    @BOTH_MODES
    def test_locally_rejected_op_resolves_immediately(self, mode):
        system = mode_system(mode)
        replicas, _uid = shared_counter(system)
        # limit 0 fails on the guesstimated state right away.
        ticket = system.api("m02").invoke(replicas["m02"], "increment", 0)
        assert ticket.status == IssueTicket.REJECTED
        assert not ticket
        assert ticket.done and ticket.commit_result is None

    @BOTH_MODES
    def test_conflicting_op_commits_false_for_loser(self, mode):
        system = mode_system(mode)
        apis = system.apis()
        register = apis[0].create_instance(Register)
        system.run_until_quiesced()
        rep_a = apis[0].join_instance(register.unique_id)
        rep_b = apis[1].join_instance(register.unique_id)
        # Both CAS from 0; each succeeds on its own guesstimate, but the
        # global order lets only one through.
        ticket_a = apis[0].invoke(rep_a, "set_if", 0, 111)
        ticket_b = apis[1].invoke(rep_b, "set_if", 0, 222)
        assert ticket_a and ticket_b  # both issued locally
        system.run_until_quiesced()
        results = sorted([ticket_a.commit_result, ticket_b.commit_result])
        assert results == [False, True]
        assert ticket_a.done and ticket_b.done
        assert rep_a.value == rep_b.value
        system.check_all_invariants()

    @BOTH_MODES
    def test_atomic_ticket_all_or_nothing(self, mode):
        system = mode_system(mode)
        replicas, _uid = shared_counter(system)
        api = system.api("m03")
        extra = api.create_operation(replicas["m03"], "increment", 10)
        ticket = api.invoke(
            replicas["m03"], "increment", 10, atomic_with=extra
        )
        system.run_until_quiesced()
        assert ticket.status == IssueTicket.COMMITTED
        assert ticket.commit_result is True
        assert all(rep.value == 2 for rep in replicas.values())
        system.check_all_invariants()

    @BOTH_MODES
    def test_atomic_conflict_rolls_back_whole_block(self, mode):
        system = mode_system(mode)
        apis = system.apis()
        register = apis[0].create_instance(Register)
        system.run_until_quiesced()
        rep_a = apis[0].join_instance(register.unique_id)
        rep_b = apis[1].join_instance(register.unique_id)
        winner = apis[0].invoke(rep_a, "set_if", 0, 111)
        # Loser's atomic pairs a CAS that will fail at commit with an
        # always-true write — neither may land.
        extra = apis[1].create_operation(rep_b, "always_set", 999)
        loser = apis[1].invoke(rep_b, "set_if", 0, 222, atomic_with=extra)
        assert winner and loser
        system.run_until_quiesced()
        assert winner.commit_result is True
        assert loser.commit_result is False
        assert all(api.join_instance(register.unique_id).value == 111
                   for api in apis)
        system.check_all_invariants()

    @BOTH_MODES
    def test_or_else_ticket_takes_fallback(self, mode):
        system = mode_system(mode)
        apis = system.apis()
        register = apis[0].create_instance(Register)
        system.run_until_quiesced()
        rep = apis[1].join_instance(register.unique_id)
        api = apis[1]
        primary = api.create_operation(rep, "set_if", 5, 50)  # fails: value 0
        fallback = api.create_operation(rep, "set_if", 0, 40)
        ticket = api.issue_when_possible(api.create_or_else(primary, fallback))
        assert isinstance(ticket, IssueTicket)
        assert ticket.status == IssueTicket.ISSUED
        assert rep.value == 40  # fallback ran on the guesstimate
        system.run_until_quiesced()
        assert ticket.commit_result is True
        assert all(api.join_instance(register.unique_id).value == 40
                   for api in apis)
        system.check_all_invariants()

    @BOTH_MODES
    def test_completion_fires_exactly_once_per_op(self, mode):
        system = mode_system(mode)
        replicas, _uid = shared_counter(system)
        seen: list[bool] = []
        tickets = [
            system.api("m01").invoke(
                replicas["m01"], "increment", 100, completion=seen.append
            )
            for _ in range(5)
        ]
        system.run_until_quiesced()
        assert seen == [True] * 5
        assert all(t.status == IssueTicket.COMMITTED for t in tickets)


class TestOpBatching:
    @BOTH_MODES
    def test_burst_splits_into_capped_batches(self, mode):
        system = mode_system(
            mode, sync=SyncConfig(collection=mode, batch_max_ops=2)
        )
        replicas, _uid = shared_counter(system)
        tickets = [
            system.api("m02").invoke(replicas["m02"], "increment", 100)
            for _ in range(9)
        ]
        system.run_until_quiesced()
        assert all(t.commit_result is True for t in tickets)
        assert all(rep.value == 9 for rep in replicas.values())
        # 9 pending entries with cap 2 cannot ride in fewer than 5 frames.
        assert system.metrics.node_metrics["m02"].op_batches_sent >= 5
        payloads = system.meshes.operations.stats.payload_counts
        assert payloads.get("OpBatch", 0) >= 5
        system.check_all_invariants()

    @BOTH_MODES
    def test_empty_flush_sends_no_batches(self, mode):
        system = mode_system(mode)
        system.run_for(3.0)  # idle: sequential rounds stay periodic
        payloads = system.meshes.operations.stats.payload_counts
        assert payloads.get("OpBatch", 0) == 0
        rounds = len(system.metrics.sync_records)
        # A concurrent master runs its boot round and then waits for work.
        assert rounds == 1 if mode == "concurrent" else rounds >= 2


class TestBackToBackRounds:
    def test_tickets_resolve_in_issue_order(self):
        from repro.net.latency import lan_profile

        # A saturated regime: the sync interval is shorter than a
        # round's apply/ack latency, so rounds run back to back.
        system = mode_system(
            "concurrent",
            seed=11,
            sync_interval=0.05,
            latency=lan_profile(scale=5.0),
        )
        replicas, _uid = shared_counter(system)

        # Keep every machine issuing so consecutive rounds have traffic.
        def tick(machine_id):
            system.api(machine_id).invoke(
                replicas[machine_id], "increment", 10**6
            )
            if system.loop.now() < 12.0:
                system.loop.call_later(0.15, lambda: tick(machine_id))

        for machine_id in system.machine_ids():
            tick(machine_id)
        system.run_for(12.0)
        system.run_until_quiesced()
        order: list[int] = []
        tickets = [
            system.api("m01").invoke(
                replicas["m01"], "increment", 10**6,
                completion=lambda _ok, i=i: order.append(i),
            )
            for i in range(6)
        ]
        system.run_until_quiesced()
        assert all(t.commit_result is True for t in tickets)
        assert order == sorted(order)
        system.check_all_invariants()


class TestModeConfigResolution:
    def test_sync_records_tag_collection_mode(self):
        for mode in ("sequential", "concurrent"):
            system = mode_system(mode, n=2, seed=3)
            system.run_for(2.0)
            records = system.metrics.sync_records
            assert records and all(r.collection == mode for r in records)

    def test_default_mode_ignores_environment(self, monkeypatch):
        """The retired ``GUESSTIMATE_COLLECTION`` variable changes nothing:
        the default is concurrent, and only an explicit ``SyncConfig``
        selects the paper's sequential strategy."""
        from repro.runtime.config import RuntimeConfig

        monkeypatch.setenv("GUESSTIMATE_COLLECTION", "sequential")
        assert RuntimeConfig().sync.collection == "concurrent"
        system = quick_system(n=2, seed=3)
        system.run_for(2.0)
        records = system.metrics.sync_records
        assert records and all(r.collection == "concurrent" for r in records)


class TestStrategiesCommitTheSameSequence:
    @staticmethod
    def _scripted_run(**config_kwargs):
        """Seeded bursts from random machines, each burst issued on an
        idle cluster so both strategies collect it in one round."""
        system = quick_system(n=4, seed=5, **config_kwargs)
        replicas, _uid = shared_counter(system)
        rng = random.Random(7)
        for _ in range(6):
            for machine_id in rng.sample(sorted(replicas), 3):
                for _ in range(rng.randint(1, 3)):
                    # limit 14: late increments lose at commit time
                    system.api(machine_id).invoke(replicas[machine_id], "increment", 14)
            system.run_until_quiesced()
        system.check_all_invariants()
        completed = {
            machine_id: [(str(e.key), e.result) for e in node.model.completed]
            for machine_id, node in system.nodes.items()
        }
        return completed, {r.collection for r in system.metrics.sync_records}

    def test_default_and_paper_strategy_agree_on_every_node(self):
        default, default_modes = self._scripted_run()
        paper, paper_modes = self._scripted_run(
            sync=SyncConfig(collection="sequential")
        )
        assert default_modes == {"concurrent"} and paper_modes == {"sequential"}
        assert default == paper
        reference = default["m01"]
        assert any(not ok for _key, ok in reference)  # conflicts exercised
        assert all(sequence == reference for sequence in default.values())

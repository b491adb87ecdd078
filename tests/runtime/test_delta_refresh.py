"""End-to-end tests for the versioned-store delta guess-refresh.

The contract under test: switching the ApplyUpdatesFromMesh copy from
the paper's full O(total state) refresh to the delta O(touched state)
refresh changes *cost only* — every observable (committed sequences,
guesstimates, invariants, crash recovery) is identical, and the
refresh metrics prove the cost actually dropped.
"""

import pytest

from repro.core.guesstimate import Guesstimate
from repro.net.faults import CommitCrashPlan, ScheduledFaults
from tests.helpers import Counter, quick_system, shared_counter


def _refresh_totals(system):
    nodes = system.metrics.node_metrics.values()
    return (
        sum(m.refresh_objects_copied for m in nodes),
        sum(m.refresh_rounds for m in nodes),
    )


def _populate(system, n_objects):
    api = system.apis()[0]
    uids = [api.create_instance(Counter).unique_id for _ in range(n_objects)]
    system.run_until_quiesced()
    return uids


class TestDeltaRefreshEndToEnd:
    def test_rounds_copy_touched_not_total(self):
        system = quick_system(n=3, refresh_oracle=True)
        uids = _populate(system, 50)
        copied_base, refreshes_base = _refresh_totals(system)
        # Each round touches exactly one of the 50 objects.
        for turn in range(6):
            system.api("m02").invoke(uids[turn], "increment", 10**9)
            system.run_until_quiesced()
        copied, refreshes = _refresh_totals(system)
        workload_copied = copied - copied_base
        assert workload_copied > 0
        # The naive copy would have moved all 50 objects on every
        # refresh of every machine; the delta moves roughly one.
        assert workload_copied * 10 < len(uids) * (refreshes - refreshes_base)
        system.check_all_invariants()

    def test_oracle_accepts_conflict_heavy_workload(self):
        """Conflicting ops (pending replays, failed commits) are where
        a wrong delta would diverge; the per-round oracle must stay
        silent."""
        system = quick_system(n=4, refresh_oracle=True)
        replicas, _uid = shared_counter(system)
        for machine_id, replica in replicas.items():
            # limit 2: most of these lose at commit time
            system.api(machine_id).invoke(replica, "increment", 2)
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_oracle_detects_unreported_mutation(self):
        """Mutating committed state behind the store's back (no
        mark_dirty, no touched id) is exactly the bug class the oracle
        exists to catch."""
        from repro.errors import RuntimeFailure

        system = quick_system(n=2, refresh_oracle=True)
        uids = _populate(system, 2)
        node = system.node("m01")
        # Corrupt an object the next round does NOT touch: the delta
        # refresh has no reason to re-copy it, so sg keeps the old
        # value while the shadow rebuild sees the corruption.
        node.model.committed.get(uids[0]).value = 999
        system.api("m02").invoke(uids[1], "increment", 10**9)
        with pytest.raises(RuntimeFailure, match="divergence"):
            system.run_until_quiesced()


class TestCrashRecoveryVersioning:
    def test_recovered_node_resyncs_with_coherent_versions(self):
        """_rebuild_from_storage starts from fresh stores; the rebuilt
        version bookkeeping must keep the delta refresh (and its
        oracle) exact through recovery and catch-up."""
        faults = ScheduledFaults(commit_crashes=[CommitCrashPlan("m03")])
        system = quick_system(
            n=3,
            faults=faults,
            stall_timeout=2.0,
            durability="memory",
            snapshot_interval=2,
            refresh_oracle=True,
        )
        uids = _populate(system, 20)
        system.api("m01").invoke(uids[0], "increment", 10**9)
        system.run_for(8.0)  # crash at commit + stall + removal
        assert system.node("m03").state == "stopped"
        for uid in uids[:4]:
            system.api("m01").invoke(uid, "increment", 10**9)
        system.run_for(4.0)
        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        for uid in uids[4:8]:
            system.api("m02").invoke(uid, "increment", 10**9)
        system.run_until_quiesced()
        system.check_all_invariants()
        # The rebuilt store's snapshot cache must serve current state.
        committed = system.node("m03").model.committed
        for uid, (_type, state) in committed.snapshot_states().items():
            assert state == committed.get(uid).get_state()

    def test_welcome_snapshot_uses_cache_on_rejoin(self):
        """The master serializes its committed store for every Welcome
        and WAL snapshot; unchanged objects must come from the
        version-keyed cache instead of being re-deep-copied."""
        system = quick_system(
            n=3, durability="memory", snapshot_interval=2, refresh_oracle=True
        )
        uids = _populate(system, 30)
        for turn in range(6):
            system.api("m02").invoke(uids[turn % 3], "increment", 10**9)
            system.run_until_quiesced()
        master = system.node("m01").model.committed
        # WAL snapshots ran repeatedly over a mostly-unchanged store.
        assert master.snapshot_cache_hits > master.snapshot_cache_misses
        system.check_all_invariants()


class TestDecodeCache:
    def test_issuer_reuses_in_flight_op(self):
        system = quick_system(n=3)
        replicas, _uid = shared_counter(system)
        base_hits = system.metrics.total_decode_cache_hits()
        for _ in range(4):
            system.api("m02").invoke(replicas["m02"], "increment", 10**9)
        system.run_until_quiesced()
        # m02 applies its own ops from the in-flight entry (no decode);
        # the other machines must decode them (misses).
        assert system.metrics.total_decode_cache_hits() > base_hits
        assert system.metrics.total_decode_cache_misses() > 0
        assert system.metrics.node("m02").decode_cache_hits >= 4
        system.check_all_invariants()

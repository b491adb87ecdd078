"""Protocol-order conformance, verified from the trace log.

These tests inspect the structured trace of full runs and assert the
stage ordering the paper's section 4 describes: per round, flushes
strictly follow the turn order (serial mode); every commit happens
between a machine's flush and its refresh; refresh follows commit.
"""

from repro.runtime.tracing import Tracer
from tests.helpers import Counter, quick_system, shared_counter


def run_traced_session(parallel=False, users=3):
    from repro.runtime.config import RuntimeConfig, SyncConfig
    from repro.runtime.system import DistributedSystem

    # Pin the collection mode: these tests assert mode-specific stage
    # ordering.
    config = RuntimeConfig(
        sync_interval=0.5,
        tracing=True,
        sync=SyncConfig(collection="concurrent" if parallel else "sequential"),
    )
    system = DistributedSystem(n_machines=users, seed=8, config=config)
    system.start(first_sync_delay=0.1)
    replicas, uid = shared_counter(system)
    import random

    rng = random.Random(3)
    for _ in range(12):
        machine_id = rng.choice(list(replicas))
        api = system.api(machine_id)
        api.issue_when_possible(
            api.create_operation(replicas[machine_id], "increment", 100)
        )
        system.run_for(rng.random())
    system.run_until_quiesced()
    return system


class TestSerialStageOrder:
    def test_flushes_follow_turn_order_within_each_round(self):
        system = run_traced_session(parallel=False)
        machine_order = system.machine_ids()
        flushes_by_round: dict[int, list[str]] = {}
        for event in system.tracer.of_kind(Tracer.FLUSH):
            flushes_by_round.setdefault(event.detail["round"], []).append(
                event.machine_id
            )
        assert flushes_by_round
        for round_id, flushers in flushes_by_round.items():
            # Serial protocol: flush order == participant order.
            expected = [m for m in machine_order if m in flushers]
            assert flushers == expected, f"round {round_id}"

    def test_each_machine_refreshes_once_per_round(self):
        system = run_traced_session(parallel=False)
        refreshes: dict[tuple[int, str], int] = {}
        for event in system.tracer.of_kind(Tracer.REFRESH):
            key = (event.detail["round"], event.machine_id)
            refreshes[key] = refreshes.get(key, 0) + 1
        assert refreshes
        assert all(count == 1 for count in refreshes.values())

    def test_commits_precede_refresh_within_round(self):
        system = run_traced_session(parallel=False)
        for machine_id in system.machine_ids():
            events = system.tracer.for_machine(machine_id)
            last_commit_time: dict[int, float] = {}
            refresh_time: dict[int, float] = {}
            current_round = None
            for event in events:
                if event.kind == Tracer.FLUSH:
                    current_round = event.detail["round"]
                elif event.kind == Tracer.COMMIT and current_round is not None:
                    last_commit_time[current_round] = event.time
                elif event.kind == Tracer.REFRESH:
                    refresh_time[event.detail["round"]] = event.time
            for round_id, at in refresh_time.items():
                if round_id in last_commit_time:
                    assert last_commit_time[round_id] <= at

    def test_sync_done_after_all_acks(self):
        system = run_traced_session(parallel=False)
        done_times = {
            event.detail["round"]: event.time
            for event in system.tracer.of_kind(Tracer.SYNC_DONE)
        }
        start_times = {
            event.detail["round"]: event.time
            for event in system.tracer.of_kind(Tracer.SYNC_START)
        }
        assert done_times
        for round_id, finished in done_times.items():
            assert finished > start_times[round_id]


class TestParallelStageOrder:
    def test_flushes_overlap_in_parallel_mode(self):
        system = run_traced_session(parallel=True)
        flush_times: dict[int, list[float]] = {}
        for event in system.tracer.of_kind(Tracer.FLUSH):
            flush_times.setdefault(event.detail["round"], []).append(event.time)
        multi = [times for times in flush_times.values() if len(times) >= 3]
        assert multi
        # In parallel mode all flushes of a round land within ~one
        # network delay of each other, not spread across serial turns.
        for times in multi:
            assert max(times) - min(times) < 0.1

    def test_commit_sequences_identical_in_parallel_mode(self):
        system = run_traced_session(parallel=True)
        sequences = {}
        for machine_id in system.machine_ids():
            sequences[machine_id] = [
                event.detail["key"]
                for event in system.tracer.for_machine(machine_id)
                if event.kind == Tracer.COMMIT
            ]
        reference = sequences[system.machine_ids()[0]]
        assert reference
        assert all(seq == reference for seq in sequences.values())

"""The CPU cost model is virtual time: charged on the simulator, never slept.

``RuntimeConfig.{flush,apply,update}_cpu_*`` give the simulator's issue
windows their width.  The same configuration on sockets must cost
nothing: the work already took its wall-clock time when it ran.
"""

from __future__ import annotations

import time

from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem
from repro.runtime.tracing import Tracer
from repro.transport.loopback import LoopbackCluster
from tests.helpers import Counter, shared_counter

#: Two *seconds* per phase — four before a completion can fire if slept.
COSTLY = RuntimeConfig(
    sync_interval=0.05,
    tracing=True,
    flush_cpu_base=2.0,
    apply_cpu_base=2.0,
    update_cpu_base=2.0,
)


def test_sockets_commit_at_once_under_a_two_second_cost_model():
    cluster = LoopbackCluster(3, config=COSTLY)
    try:
        cluster.boot()
        cluster.start(first_sync_delay=0.05)
        counter = cluster.api("m01").create_instance(Counter)
        cluster.run_until_quiesced(max_time=30.0)
        api = cluster.api("m02")
        replica = api.join_instance(counter.unique_id)

        completed = []
        started = time.monotonic()
        ticket = api.invoke(replica, "increment", 100, completion=completed.append)
        while not ticket.done and time.monotonic() - started < 10.0:
            cluster.run_for(0.01)
        elapsed = time.monotonic() - started

        assert ticket.status == "committed" and completed == [True]
        assert elapsed < 1.0
        cluster.run_until_quiesced(max_time=30.0)
        cluster.check_all_invariants()
        assert cluster.committed_states_equal()
        assert cluster.loop.errors == []
    finally:
        cluster.shutdown()


def test_simulator_still_charges_it():
    system = DistributedSystem(n_machines=3, seed=0, config=COSTLY)
    system.start(first_sync_delay=0.1)
    replicas, _uid = shared_counter(system)
    system.tracer.clear()
    system.api("m02").invoke(replicas["m02"], "increment", 100)
    system.run_until_quiesced()

    (completion,) = system.tracer.of_kind(Tracer.COMPLETION)
    flush = next(
        event
        for event in system.tracer.of_kind(Tracer.FLUSH)
        if event.machine_id == "m02" and event.detail["count"] == 1
    )
    round_start = next(
        event.time
        for event in system.tracer.of_kind(Tracer.SYNC_START)
        if event.detail["round"] == flush.detail["round"]
    )
    # flush_cpu, then apply_cpu, before ack_and_update fires completions.
    assert completion.time - round_start >= 4.0
    system.check_all_invariants()

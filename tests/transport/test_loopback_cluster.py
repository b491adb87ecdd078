"""Loopback harness tests: the simulator as the socket stack's twin.

The same scripted workload runs on the deterministic simulator
(:class:`DistributedSystem`) and on :class:`LoopbackCluster` (real TCP
on 127.0.0.1), and must land in the same place: every issued operation
committed, identical final committed state, committed-prefix agreement
across nodes in both worlds — "identical to the in-process mesh" in
miniature.  ``TestScenarioRunner`` then runs simfuzz scenarios over
sockets through the one runner, under the simulator's full probe set,
and checks planted mutations are caught there too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.guesstimate import Guesstimate
from repro.errors import SimulationError
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem
from repro.simtest.fuzz import run_seeds
from repro.simtest.probes import checkpoint_probe, storage_probe
from repro.simtest.runner import run_scenario, scale_scenario
from repro.simtest.scenario import ScenarioSpec, generate_scenario
from repro.transport.loopback import LoopbackCluster
from tests.helpers import Counter

INCREMENTS = {0: 3, 1: 2, 2: 1}  # per-machine-index issue counts


def drive_workload(harness, quiesce) -> dict:
    """Issue the scripted Counter workload on either harness.

    ``harness`` is a DistributedSystem or a LoopbackCluster — the twin
    surface (machine_ids/api/run_until_quiesced/invariants) is the same.
    Returns the outcome facts the twins must agree on.
    """
    machine_ids = harness.machine_ids()
    counter = harness.api(machine_ids[0]).create_instance(Counter)
    quiesce()
    replicas = {
        machine_id: harness.api(machine_id).join_instance(counter.unique_id)
        for machine_id in machine_ids
    }
    results = []
    for index, machine_id in enumerate(machine_ids):
        for _ in range(INCREMENTS[index]):
            ticket = harness.api(machine_id).invoke(
                replicas[machine_id], "increment", 100
            )
            results.append(ticket)
    quiesce()

    harness.check_all_invariants()
    assert harness.committed_states_equal()
    assert harness.completed_sequences_equal()
    assert checkpoint_probe(harness) == []
    assert storage_probe(harness) == []
    assert all(t.status == "committed" and t.commit_result for t in results)

    master = harness.master_node
    return {
        "value": master.model.committed.get(counter.unique_id).value,
        "committed": master.completed_offset + master.model.completed_count,
    }


class TestTwinAgreement:
    def test_same_workload_same_outcome_on_both_transports(self):
        config = RuntimeConfig(sync_interval=0.1)

        system = DistributedSystem(n_machines=3, seed=0, config=config)
        system.start(first_sync_delay=0.1)
        sim_outcome = drive_workload(system, system.run_until_quiesced)
        system.stop()

        Guesstimate._reset_id_counter()
        cluster = LoopbackCluster(3, config=config)
        try:
            cluster.boot()
            cluster.start(first_sync_delay=0.05)
            loop_outcome = drive_workload(
                cluster, lambda: cluster.run_until_quiesced(max_time=30.0)
            )
        finally:
            cluster.shutdown()

        assert sim_outcome == loop_outcome
        assert sim_outcome["value"] == sum(INCREMENTS.values())


class TestLoopbackCluster:
    def test_boot_forms_full_membership(self):
        cluster = LoopbackCluster(3, config=RuntimeConfig(sync_interval=0.1))
        try:
            cluster.boot()
            assert cluster.machine_ids() == ["m01", "m02", "m03"]
            master = cluster.master_node.master
            assert master is not None
            assert sorted(master.participants) == ["m01", "m02", "m03"]
            assert len(cluster.active_nodes()) == 3
        finally:
            cluster.shutdown()

    def test_default_config_commits_without_a_single_your_turn(self):
        """A bare ``RuntimeConfig()`` is the concurrent strategy: every
        node's operation commits and no ``YourTurn`` crosses a socket."""
        cluster = LoopbackCluster(5, config=RuntimeConfig())
        try:
            cluster.boot()
            cluster.start(first_sync_delay=0.05)
            counter = cluster.api("m01").create_instance(Counter)
            cluster.run_until_quiesced(max_time=30.0)
            tickets = [
                cluster.api(machine_id).invoke(
                    cluster.api(machine_id).join_instance(counter.unique_id),
                    "increment",
                    100,
                )
                for machine_id in cluster.machine_ids()
            ]
            cluster.run_until_quiesced(max_time=30.0)
            assert all(t.status == "committed" and t.commit_result for t in tickets)
            assert cluster.completed_sequences_equal()
            for node in cluster.nodes.values():
                assert node.model.committed.get(counter.unique_id).value == 5
                sent = node.signals_mesh.stats.payload_counts
                assert "YourTurn" not in sent
            assert cluster.master_node.signals_mesh.stats.payload_counts["StartSync"] > 0
        finally:
            cluster.shutdown()

    def test_run_until_quiesced_times_out_cleanly(self):
        cluster = LoopbackCluster(2, config=RuntimeConfig(sync_interval=0.1))
        try:
            cluster.boot()
            cluster.start(first_sync_delay=0.05)
            counter = cluster.api("m01").create_instance(Counter)
            cluster.run_until_quiesced(max_time=15.0)
            assert cluster.master_node.model.committed.has(counter.unique_id)
            with pytest.raises(SimulationError):
                # An impossible deadline must raise, not hang.
                cluster.api("m01").invoke(counter, "increment", 100)
                cluster.run_until_quiesced(max_time=0.0)
        finally:
            cluster.shutdown()

    def test_scale_scenario_clears_faults_and_bounds_duration(self):
        spec = generate_scenario(1)
        scaled = scale_scenario(spec)
        assert scaled.duration <= 2.5
        assert scaled.drops == () and scaled.crashes == ()
        assert scaled.partitions == () and scaled.churn == ()
        assert scaled.sync_interval >= 0.05

    def test_seed_zero_scenario_passes_simulator_probes(self):
        result = run_scenario(generate_scenario(0), transport="loopback")
        assert result.violations == []
        assert result.committed_total > 0
        assert result.trace is None  # only the simulator records a trace


class TestScenarioRunner:
    @pytest.mark.parametrize(
        "mutation, seed",
        [
            ("commit_order", 0),
            # Caught only by footprint_probe, a final effect probe.
            ("footprint", 5),
        ],
    )
    def test_planted_mutation_is_caught_over_sockets(self, mutation, seed, tmp_path):
        report = run_seeds(
            1, start=seed, transport="loopback", mutation=mutation,
            trace_dir=str(tmp_path),
        )
        assert [outcome.seed for outcome in report.failures] == [seed]
        artifact = json.loads((tmp_path / f"seed-{seed}.json").read_text())
        assert artifact["transport"] == "loopback"
        spec = generate_scenario(seed)
        assert ScenarioSpec.from_dict(artifact["spec"]) == spec
        assert ScenarioSpec.from_dict(artifact["scaled_spec"]) == scale_scenario(spec)

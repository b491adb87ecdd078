"""Scenario generation: determinism, bounds, and fault-plan hygiene."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.simtest import scenario
from repro.simtest.scenario import (
    WORKLOADS,
    ScenarioSpec,
    build_faults,
    generate_scenario,
    machine_name,
)

#: sha256[:12] of each seed's spec (seeds 0-99, canonical JSON) with
#: every retired knob left out of the hash: the three hot-path levers,
#: whose draws were dropped from the end of the ``sync`` stream, and
#: ``pipeline_depth``, whose draw is still consumed and discarded.
#: Every field that survives must keep the value it was generated with
#: before either retirement.
PRE_RETIREMENT_SPEC_FINGERPRINTS = """
    cd57cea0bed3 66c023e26866 7801e3fb3d1c 0f174e812aba 37b4ea75ac82
    3d1fc7026970 0f89c2a1f25d 40f1241190c8 f4c9a066f34a 0148568210ad
    f68bbdf60503 4529208a9b6f 7f89f93e801b af783bc5bccc 436aa959f440
    0cdc98ca24b8 0de9305861ca 276a305a032e 09987d5ddf07 b199e24b8867
    1060a12ddc73 3d62c0159d2b 2f5e08ca9836 77871a4a1639 01bad179fa65
    c7b7a01261fb 059c4b3a9169 394a8caeb893 ee88e10b3d18 d7aac5866e3a
    b64c8279d636 a46af0e5ee3e dfcc95062b33 3f73278f166d 3a5002984399
    649a3e53313b 8716097888ca 07dc055f11a4 e144eb386196 a34300848615
    f8ec80ecdde5 37c63b3abed8 e679a73343d6 d4ba6ed44958 cec1af34dcda
    745d1978862a 478eb9bddf9f 731b379804df e0485eac4ca6 945e2d83f15b
    3d2ac4d58a94 b01703d3ad3f 5d883a050812 12c0293cc10b 874b95fc6934
    ecdad8d5afaa 3fe5e71d1116 5b7c4774fdc8 ff416d2f6ee5 a3a9496800cf
    ec69658c49e6 93502d21c289 a76dd0810eb4 2b7c9c45cbcb 1d79f936adf6
    857c122f3603 be60dd6a8439 caf60a2fe5c0 2483a25b6a45 7bc13e37abf7
    f242e6014dfe d2d996c2c09b b27bc84121d0 2081a4a3eb44 19f9602c29ae
    002d2113652c 67b9101a23fc ddbee33b6d76 017d44ac9de4 e16076d37d6e
    25b15e767e91 50106c4463b5 68aea1c67a32 1d055a332bea f7fda39f9b47
    10ba6c815c20 2e32b6b4e4cd ffc9b69831e3 8a89d5d584d5 9e31b5f4c8be
    69c91f22c791 7854f80b15bb 1f39c1e03c66 139700ee0ccd 95a6d0504c5e
    caa579b7eeb5 25b88ce8e99d 51c1e8b58421 bfe6998c7421 11b8be98e969
""".split()


class TestGeneration:
    def test_same_seed_same_spec(self):
        for seed in range(30):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_different_seeds_differ(self):
        specs = {generate_scenario(seed) for seed in range(30)}
        assert len(specs) > 1

    def test_bounds(self):
        for seed in range(50):
            spec = generate_scenario(seed)
            assert 2 <= spec.n_machines <= 5
            assert spec.collection in ("sequential", "concurrent")
            assert spec.batch_max_ops >= 1
            assert spec.sync_interval > 0
            assert spec.stall_timeout > spec.sync_interval
            assert spec.duration >= 30.0
            assert spec.workload in WORKLOADS

    def test_retiring_the_lever_draws_moved_no_other_field(self, monkeypatch):
        # The deliberate changes to the draws since the capture: the
        # payloads appended to the droppable ones.  Left out here,
        # every field must still hash to the captured value.
        appended = ("ApplyAck", "StartSync", "WorkReady")
        monkeypatch.setattr(
            scenario,
            "DROPPABLE_PAYLOADS",
            tuple(p for p in scenario.DROPPABLE_PAYLOADS if p not in appended),
        )
        assert "pipeline_depth" not in generate_scenario(0).to_dict()
        for seed, expected in enumerate(PRE_RETIREMENT_SPEC_FINGERPRINTS):
            canonical = json.dumps(generate_scenario(seed).to_dict(), sort_keys=True)
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
            assert digest == expected, f"seed {seed} generates a different scenario"

    def test_sweep_targets_every_round_signal_a_master_waits_for(self):
        dropped = {
            drop.payload_type
            for seed in range(100)
            for drop in generate_scenario(seed).drops
        }
        assert {"FlushDone", "ApplyAck", "YourTurn", "BeginApply"} <= dropped
        # ...and the two that start a round: the collect signal and the
        # wake of an idle concurrent master.
        assert {"StartSync", "WorkReady"} <= dropped

    def test_sweep_spreads_over_both_collection_strategies(self):
        specs = [generate_scenario(seed) for seed in range(100)]
        assert {s.collection for s in specs} == {"sequential", "concurrent"}

    def test_seed_range_covers_every_workload(self):
        drawn = {generate_scenario(seed).workload for seed in range(60)}
        assert drawn == set(WORKLOADS)

    def test_forced_workload(self):
        for workload in WORKLOADS:
            spec = generate_scenario(11, workload=workload)
            assert spec.workload == workload
            assert spec == generate_scenario(11, workload=workload)
        with pytest.raises(ValueError):
            generate_scenario(11, workload="kitchen-sink")

    def test_master_is_never_faulted(self):
        """m01 runs the master; the fuzzer exercises slave failures."""
        for seed in range(50):
            spec = generate_scenario(seed)
            for crash in spec.crashes:
                assert crash.machine != "m01"
            for commit_crash in spec.commit_crashes:
                assert commit_crash.machine != "m01"
            for churn in spec.churn:
                assert churn.machine != "m01"
            for partition in spec.partitions:
                # The master stays in the majority group.
                assert "m01" in partition.groups[0]

    def test_fault_targets_are_cluster_members(self):
        for seed in range(50):
            spec = generate_scenario(seed)
            members = {machine_name(i + 1) for i in range(spec.n_machines)}
            for crash in spec.crashes:
                assert crash.machine in members
            for commit_crash in spec.commit_crashes:
                assert commit_crash.machine in members
            for churn in spec.churn:
                if churn.kind != "join":
                    assert churn.machine in members


class TestSpecRoundTrip:
    def test_to_dict_from_dict(self):
        for seed in range(20):
            spec = generate_scenario(seed)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_artifact_with_retired_lever_keys_still_loads(self):
        """Committed ``seed-<n>.json`` artifacts predate the removal of
        the three hot-path levers and of round pipelining; their extra
        keys are ignored."""
        spec = generate_scenario(7)
        old_shaped = dict(
            spec.to_dict(),
            scheduled_rounds=True,
            speculative_apply=False,
            compact_flush=True,
            pipeline_depth=2,
        )
        assert ScenarioSpec.from_dict(old_shaped) == spec


class TestBuildFaults:
    def test_offset_shifts_windows(self):
        spec = None
        for seed in range(50):
            candidate = generate_scenario(seed)
            if candidate.crashes:
                spec = candidate
                break
        assert spec is not None, "no generated scenario had a crash window"
        base = build_faults(spec, offset=0.0)
        shifted = build_faults(spec, offset=10.0)
        assert shifted.crashes[0].start == base.crashes[0].start + 10.0
        assert shifted.crashes[0].end == base.crashes[0].end + 10.0

    def test_deterministic_for_same_spec(self):
        spec = generate_scenario(3)
        first = build_faults(spec, offset=5.0)
        second = build_faults(spec, offset=5.0)
        assert len(first.drops) == len(second.drops)
        assert [c.machine for c in first.crashes] == [
            c.machine for c in second.crashes
        ]

    def test_shrunk_spec_still_builds(self):
        spec = generate_scenario(4)
        smaller = replace(spec, drops=(), crashes=(), partitions=())
        build_faults(smaller, offset=0.0)

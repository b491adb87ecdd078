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

#: sha256[:12] of each seed's spec (seeds 0-99, canonical JSON), captured
#: before the three hot-path lever draws were retired from the end of
#: the ``sync`` stream — with the lever keys left out of the hash, so
#: every field that survives must still hash to the same value.
PRE_RETIREMENT_SPEC_FINGERPRINTS = """
    59a295d7bce7 26e1e1c56b40 56eeb7d29596 8d03effff629 a438e4a63188
    59f05ef63331 7b3a9121d032 1fdba3987de8 2f9347d89118 22a82d5cc9ca
    c6fbd344e00d 4ce2fd273968 0440663453d1 b0b6996e313d e4afdbc723e5
    90a4e93ab167 da5e77445b9b 69b3cf6346c7 1182a7a88527 7bf89cec367c
    4c53c22967a1 d030544fd690 91cd7ba5a5e1 8da564c5c65a 0500fe2fef46
    e7918607d39d fdca188cacda dcdf0e713a57 5e1f5632b79f ad3f9a8de225
    0602b89388bb c9eddfc1fd9e 85aa20e97854 7039ec259257 e2baa89d57ae
    6c28e4c155be d3c7901230a3 d405992b8f17 cad9398dc366 67d626887008
    7b01cb9ffa15 d2154df406d6 4b748fd6a50b 78b2a1a31b69 d7301bb959b9
    994c7397e27d 4b64fda71ff3 59bfa8d5561e b6231b33ac95 2fff928e9b8d
    a11bb3de507f a6455e9d9089 c6a561837f04 a75a6185bdd8 f976d72564f5
    a2d418c92453 dfa045d004ef 15770411f7f2 961a4ce540f5 37a58ccc146c
    fe1b5536940b b1850cfffd57 e2364f791d94 011a21f0332e 9e045f9deaac
    03a124456af9 1fae45996fed 8e214b661221 35a99fc9571c 10bde8e64b73
    ed323fa30826 d27bec4bf870 cc48801e76e6 5aae9a2ec076 97a2df214cb2
    294dd80e9579 f87f5db35fee 810407466187 f3bfd1fc9789 e4dc579ec6e5
    2b46bc9a10c2 53c5bed52612 640ecbba182a 528a84b3191d 2f2a24b1e928
    fbee4e070252 12c18a07bf8d 5683b593e78f a152c4c4f21a 826936f16bc5
    438d4162425a 42f5c17039e0 6d7947a6133e b0f8fa3987e7 17161a221e38
    d30d550e99a9 6a0ce211ad94 3cefa4448e3f bc46e60a21d3 81addc5f0511
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
            assert spec.pipeline_depth >= 1
            assert spec.sync_interval > 0
            assert spec.stall_timeout > spec.sync_interval
            assert spec.duration >= 30.0
            assert spec.workload in WORKLOADS

    def test_retiring_the_lever_draws_moved_no_other_field(self, monkeypatch):
        # One deliberate change to the draws since the capture: PR 23
        # appended "ApplyAck" to the droppable payloads.  Left out here,
        # every field must still hash to the captured value.
        monkeypatch.setattr(
            scenario,
            "DROPPABLE_PAYLOADS",
            tuple(p for p in scenario.DROPPABLE_PAYLOADS if p != "ApplyAck"),
        )
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

    def test_sweep_spreads_over_six_round_protocol_configurations(self):
        specs = [generate_scenario(seed) for seed in range(100)]
        assert len({(s.collection, s.pipeline_depth) for s in specs}) == 6

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
        the three hot-path levers; their extra keys are ignored."""
        spec = generate_scenario(7)
        old_shaped = dict(
            spec.to_dict(),
            scheduled_rounds=True,
            speculative_apply=False,
            compact_flush=True,
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

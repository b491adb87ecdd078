"""End-to-end fuzzer pipeline: sweeps, replay determinism, mutation catch."""

import json
from dataclasses import replace

import pytest

from repro.simtest.fuzz import replay, run_seeds
from repro.simtest.runner import run_scenario
from repro.simtest.scenario import (
    ChurnSpec,
    CrashSpec,
    DropSpec,
    PartitionSpec,
    generate_scenario,
)
from repro.simtest.shrink import _without_machine, shrink


class TestRunScenario:
    def test_clean_seed_has_no_violations(self):
        result = run_scenario(generate_scenario(7), record_trace=True)
        assert result.violations == []
        assert result.committed_total > 0
        assert result.trace is not None
        assert len(result.trace) > 0

    def test_trace_is_bit_identical_across_runs(self):
        report = replay(7)
        assert report.identical, f"diverged at record {report.first_divergence}"
        assert report.violations == []


class TestMutationCatch:
    def test_commit_order_mutation_is_caught(self):
        """The selftest mutation must produce violations on an early seed."""
        caught = None
        for seed in range(5):
            result = run_scenario(
                generate_scenario(seed), record_trace=False, mutation="commit_order"
            )
            if result.violations:
                caught = seed
                break
        assert caught is not None
        # The failure replays deterministically under the same mutation.
        report = replay(caught, mutation="commit_order")
        assert report.identical
        assert report.violations

    def test_shrink_reduces_failing_scenario(self):
        spec = None
        for seed in range(5):
            candidate = generate_scenario(seed)
            result = run_scenario(candidate, record_trace=False, mutation="commit_order")
            if result.violations:
                spec = candidate
                break
        assert spec is not None
        shrunk = shrink(spec, mutation="commit_order", max_runs=30)
        assert shrunk.violations
        assert shrunk.minimized.n_machines <= spec.n_machines
        assert shrunk.minimized.duration <= spec.duration
        # Every intermediate spec is replayable; the minimum still fails.
        final = run_scenario(shrunk.minimized, record_trace=False, mutation="commit_order")
        assert final.violations

    def test_dropping_an_inner_machine_renumbers_the_ones_above(self):
        spec = replace(
            generate_scenario(1),
            n_machines=4,
            crashes=(CrashSpec("m04", 1.0, 2.0), CrashSpec("m03", 3.0, 4.0)),
            drops=(DropSpec(1.0, 2.0, recipient="m04"),),
            partitions=(PartitionSpec((("m01", "m04"), ("m02",)), 5.0, 6.0),),
            commit_crashes=(),
            churn=(ChurnSpec("join", 7.0),),
        )
        smaller = _without_machine(spec, 3)
        assert smaller.n_machines == 3
        assert smaller.crashes == (CrashSpec("m03", 1.0, 2.0),)
        assert smaller.drops == (DropSpec(1.0, 2.0, recipient="m03"),)
        assert smaller.partitions[0].groups == (("m01", "m03"), ("m02",))
        assert smaller.churn == spec.churn

    def test_shrink_requires_failing_start(self):
        with pytest.raises(ValueError):
            shrink(generate_scenario(7))


class TestRunSeeds:
    def test_sweep_reports_outcomes(self):
        report = run_seeds(2, start=7, record_traces=False)
        assert report.seeds_run == 2
        assert report.ok
        assert [outcome.seed for outcome in report.outcomes] == [7, 8]

    def test_failure_artifacts_written(self, tmp_path):
        trace_dir = tmp_path / "artifacts"
        report = run_seeds(
            1, start=0, mutation="commit_order", trace_dir=str(trace_dir)
        )
        # commit_order corrupts the consolidated order, so seed 0 fails.
        assert not report.ok
        seed = report.failures[0].seed
        spec_file = trace_dir / f"seed-{seed}.json"
        trace_file = trace_dir / f"seed-{seed}.trace.jsonl"
        assert spec_file.exists() and trace_file.exists()
        payload = json.loads(spec_file.read_text())
        assert payload["seed"] == seed
        assert payload["violations"]
        # The artifact's spec round-trips into the exact failing scenario.
        from repro.simtest.scenario import ScenarioSpec

        assert ScenarioSpec.from_dict(payload["spec"]) == generate_scenario(seed)

    def test_max_time_budget_stops_early(self):
        report = run_seeds(50, start=0, max_time=0.0, record_traces=False)
        assert report.stopped_early or report.seeds_run == 50

    def test_mutation_none_matches_default(self):
        spec = replace(generate_scenario(7), duration=30.0)
        plain = run_scenario(spec, record_trace=True)
        explicit = run_scenario(spec, record_trace=True, mutation=None)
        assert plain.trace is not None and explicit.trace is not None
        assert plain.trace.digest() == explicit.trace.digest()

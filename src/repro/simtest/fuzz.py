"""The fuzzer's top-level verbs: sweep seeds, replay one, self-test.

``run_seeds`` is the one sweep driver, on the simulator or over
loopback sockets (``transport``, see
:func:`repro.simtest.runner.run_scenario`): generate-and-run a range
of seeds, collect violations, and (optionally) write each failing
seed's scenario spec — plus, on the simulator, its full JSONL trace —
as artifacts a colleague can replay.  ``replay`` runs one seed twice
and insists the traces are byte-identical — the determinism guarantee
the whole subsystem rests on.  ``selftest`` is the fuzzer fuzzing
itself: inject a known protocol mutation, check a violation is
reported, the failing seed replays bit-identically, and the shrinker
cuts the scenario down.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.simtest.runner import RunResult, run_scenario, scale_scenario
from repro.simtest.scenario import generate_scenario
from repro.simtest.shrink import ShrinkResult, shrink


@dataclass
class SeedOutcome:
    seed: int
    violations: list[str]
    committed_total: int
    actions: int
    virtual_end: float
    trace_digest: str | None = None


@dataclass
class FuzzReport:
    """What a seed sweep found."""

    seeds_run: int = 0
    failures: list[SeedOutcome] = field(default_factory=list)
    outcomes: list[SeedOutcome] = field(default_factory=list)
    stopped_early: bool = False  # wall-clock budget exhausted

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ReplayReport:
    """Two runs of one seed, compared record by record."""

    seed: int
    identical: bool
    digest: str
    first_divergence: int | None
    violations: list[str]


def _write_failure_artifacts(
    trace_dir: str, outcome: SeedOutcome, result: RunResult, transport: str
) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    base = os.path.join(trace_dir, f"seed-{outcome.seed}")
    artifact = {
        "seed": outcome.seed,
        "transport": transport,
        "spec": result.spec.to_dict(),
        "violations": outcome.violations,
        "trace_digest": outcome.trace_digest,
    }
    if transport == "loopback":
        artifact["scaled_spec"] = scale_scenario(result.spec).to_dict()
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    if result.trace is not None:
        with open(base + ".trace.jsonl", "w", encoding="utf-8") as handle:
            handle.write(result.trace.to_jsonl())


def run_seeds(
    n_seeds: int,
    start: int = 0,
    max_time: float | None = None,
    mutation: str | None = None,
    trace_dir: str | None = None,
    record_traces: bool = True,
    progress=None,
    workload: str | None = None,
    transport: str = "sim",
) -> FuzzReport:
    """Fuzz seeds ``start .. start+n_seeds-1`` on ``transport``.

    ``max_time`` bounds *wall-clock* seconds (for CI smoke jobs); the
    sweep stops cleanly after the scenario that crosses the budget.
    Failing seeds get ``seed-<n>.json`` (+ ``seed-<n>.trace.jsonl`` on
    the simulator) artifacts under ``trace_dir`` if one is given.
    ``workload`` pins every scenario to one workload (zoo coverage
    sweeps).
    """
    report = FuzzReport()
    clock_start = time.monotonic()
    for seed in range(start, start + n_seeds):
        if max_time is not None and time.monotonic() - clock_start > max_time:
            report.stopped_early = True
            break
        spec = generate_scenario(seed, workload=workload)
        result = run_scenario(
            spec, record_trace=record_traces, mutation=mutation, transport=transport
        )
        outcome = SeedOutcome(
            seed=seed,
            violations=result.violations,
            committed_total=result.committed_total,
            actions=result.actions,
            virtual_end=result.virtual_end,
            trace_digest=result.trace.digest() if result.trace is not None else None,
        )
        report.seeds_run += 1
        report.outcomes.append(outcome)
        if result.violations:
            report.failures.append(outcome)
            if trace_dir is not None:
                _write_failure_artifacts(trace_dir, outcome, result, transport)
        if progress is not None:
            progress(outcome)
    return report


def replay(
    seed: int, mutation: str | None = None, workload: str | None = None
) -> ReplayReport:
    """Run ``seed`` twice; identical traces or it's a determinism bug."""
    spec = generate_scenario(seed, workload=workload)
    first = run_scenario(spec, record_trace=True, mutation=mutation)
    second = run_scenario(spec, record_trace=True, mutation=mutation)
    assert first.trace is not None and second.trace is not None
    divergence = first.trace.first_divergence(second.trace)
    return ReplayReport(
        seed=seed,
        identical=divergence is None,
        digest=first.trace.digest(),
        first_divergence=divergence,
        violations=first.violations,
    )


@dataclass
class SelftestReport:
    """Evidence the fuzzer can actually catch a protocol bug."""

    mutation: str
    caught_seed: int | None
    violations: list[str]
    replay_identical: bool
    shrink: ShrinkResult | None

    @property
    def ok(self) -> bool:
        return (
            self.caught_seed is not None
            and self.replay_identical
            and self.shrink is not None
            and self.shrink.minimized.n_machines <= 3
        )


def selftest(
    mutation: str = "commit_order",
    max_seeds: int = 20,
    workload: str | None = None,
) -> SelftestReport:
    """Inject ``mutation`` and prove the pipeline catches it end to end."""
    caught: int | None = None
    violations: list[str] = []
    for seed in range(max_seeds):
        result = run_scenario(
            generate_scenario(seed, workload=workload),
            record_trace=False,
            mutation=mutation,
        )
        if result.violations:
            caught = seed
            violations = result.violations
            break
    if caught is None:
        return SelftestReport(mutation, None, [], False, None)
    replay_report = replay(caught, mutation=mutation, workload=workload)
    shrunk = shrink(generate_scenario(caught, workload=workload), mutation=mutation)
    return SelftestReport(
        mutation=mutation,
        caught_seed=caught,
        violations=violations,
        replay_identical=replay_report.identical,
        shrink=shrunk,
    )

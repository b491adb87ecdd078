"""Per-workload conflict and completion report (``BENCH_workloads.json``).

The workload zoo (:mod:`repro.simtest.workload`) exists because
different applications stress GUESSTIMATE's guess-then-commit model in
different ways: Sudoku conflicts on cells, the marketplace loses whole
Atomic settlements, the hostile profile is mostly rejected at issue.
This experiment makes those profiles *measurable*: every workload runs
the same faultless scenario shape (same cluster, same sync round shape,
same duration), and the report shows per workload how attempted work
splits into

* **rejected at issue** — the guess already said no (free: nothing hits
  the wire);
* **conflicts/overrides** — succeeded on the guess, failed at commit
  (the cost of optimism: the issuing user saw a tentative state that
  did not survive serialization);
* **committed ok** — survived both.

It doubles as the zoo's convergence gate: every run executes under the
full probe set (refresh oracle, committed-prefix agreement, the
convergence probes), and any violation fails the experiment.

::

    python -m repro.cli zoo --quick   # prints the report
    python -m repro.cli zoo           # full sweep + BENCH_workloads.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.simtest.runner import run_scenario
from repro.simtest.scenario import WORKLOADS, ScenarioSpec

#: Zoo members measured side by side (all of them).
ZOO = tuple(WORKLOADS)

#: Per-workload (think_mean, n_grids) for comparable sessions.
_PROFILE = {
    "sudoku": (2.0, 1),
    "board": (1.5, 3),
    "listdoc": (1.5, 2),
    "counters": (1.2, 3),
    "market": (1.5, 2),
    "hostile": (1.0, 1),
}


def _faultless_spec(workload: str, seed: int, duration: float) -> ScenarioSpec:
    """One comparable scenario: fixed cluster and round shape, no faults —
    conflicts in this report come from *concurrency*, not from chaos."""
    think_mean, n_grids = _PROFILE[workload]
    return ScenarioSpec(
        seed=seed,
        n_machines=4,
        collection="concurrent",
        batch_max_ops=8,
        sync_interval=0.5,
        stall_timeout=2.5,
        snapshot_interval=4,
        workload=workload,
        think_mean=think_mean,
        n_grids=n_grids,
        duration=duration,
    )


@dataclass
class WorkloadPoint:
    """Aggregated counters for one workload across its seeds."""

    workload: str
    seeds: int = 0
    actions: int = 0
    issued: int = 0
    rejected_at_issue: int = 0
    committed_ok: int = 0
    committed_failed: int = 0
    conflicts: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        """Everything users tried: ``issued`` counts only ops the guess
        accepted (``notify_issued`` fires after the guess-execution
        succeeds), so issue-time rejections are *additional* attempts,
        not a subset of ``issued``."""
        return self.issued + self.rejected_at_issue

    @property
    def reject_rate(self) -> float:
        return self.rejected_at_issue / self.attempts if self.attempts else 0.0

    @property
    def conflict_rate(self) -> float:
        """Overrides per issued op: the optimism tax."""
        return self.conflicts / self.issued if self.issued else 0.0

    @property
    def completion_rate(self) -> float:
        """Issued ops that survived commit; the remainder either lost a
        conflict or was still in flight when the run ended."""
        return self.committed_ok / self.issued if self.issued else 0.0


@dataclass
class ZooResult:
    duration: float
    seeds_per_workload: int
    points: list[WorkloadPoint] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(not p.violations for p in self.points)

    def point(self, workload: str) -> WorkloadPoint:
        return next(p for p in self.points if p.workload == workload)


def run(seeds_per_workload: int = 3, duration: float = 45.0) -> ZooResult:
    result = ZooResult(duration=duration, seeds_per_workload=seeds_per_workload)
    for workload in ZOO:
        point = WorkloadPoint(workload=workload)
        for seed in range(seeds_per_workload):
            spec = _faultless_spec(workload, seed, duration)
            outcome = run_scenario(spec, record_trace=False)
            point.seeds += 1
            point.actions += outcome.actions
            point.issued += outcome.op_metrics.get("issued", 0)
            point.rejected_at_issue += outcome.op_metrics.get(
                "rejected_at_issue", 0
            )
            point.committed_ok += outcome.op_metrics.get("committed_ok", 0)
            point.committed_failed += outcome.op_metrics.get(
                "committed_failed", 0
            )
            point.conflicts += outcome.op_metrics.get("conflicts", 0)
            point.violations.extend(
                f"seed {seed}: {violation}" for violation in outcome.violations
            )
        result.points.append(point)
    return result


def to_bench_json(result: ZooResult) -> dict:
    """The ``BENCH_workloads.json`` payload (stable schema)."""
    return {
        "benchmark": "workload_zoo",
        "config": {
            "seeds_per_workload": result.seeds_per_workload,
            "duration_s": result.duration,
        },
        "workloads": {
            point.workload: {
                "actions": point.actions,
                "attempts": point.attempts,
                "ops_issued": point.issued,
                "rejected_at_issue": point.rejected_at_issue,
                "committed_ok": point.committed_ok,
                "committed_failed": point.committed_failed,
                "conflicts": point.conflicts,
                "reject_rate": round(point.reject_rate, 4),
                "conflict_rate": round(point.conflict_rate, 4),
                "completion_rate": round(point.completion_rate, 4),
                "violations": list(point.violations),
            }
            for point in result.points
        },
        "clean": result.clean,
    }


def write_bench_json(result: ZooResult, path: str = "BENCH_workloads.json") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_bench_json(result), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_report(result: ZooResult) -> str:
    lines = [
        "Workload zoo — per-workload conflict/override/completion profile",
        f"  ({result.seeds_per_workload} seed(s) x {result.duration:.0f}s "
        "virtual each; 4 machines, concurrent collection, no faults)",
        f"  {'workload':>9} | {'issued':>6} | {'rej@issue':>9} | "
        f"{'conflicts':>9} | {'ok':>6} | {'conflict%':>9} | {'complete%':>9}",
        "  " + "-" * 72,
    ]
    for point in result.points:
        lines.append(
            f"  {point.workload:>9} | {point.issued:>6} | "
            f"{point.rejected_at_issue:>9} | {point.conflicts:>9} | "
            f"{point.committed_ok:>6} | {point.conflict_rate * 100:>8.1f}% | "
            f"{point.completion_rate * 100:>8.1f}%"
        )
    lines.append("")
    if result.clean:
        lines.append("  all runs converged: no probe violations")
    else:  # pragma: no cover - failure path
        for point in result.points:
            for violation in point.violations:
                lines.append(f"  VIOLATION [{point.workload}] {violation}")
    return "\n".join(lines)

"""Greedy scenario minimization.

A failing fuzz scenario is rarely a good bug report: five machines,
a dozen faults, ninety virtual seconds.  The shrinker repeatedly tries
structural simplifications — drop one fault/churn event, remove a
machine (the highest-numbered first), halve the duration, simplify the
knobs, shrink the workload — re-running the scenario after each
candidate and keeping it only if it *still fails*.  Like delta debugging, this loops
to a fixpoint; unlike Hypothesis-style shrinking it works on the
declarative :class:`~repro.simtest.scenario.ScenarioSpec`, so every
intermediate candidate is a valid, directly replayable scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.simtest.runner import run_scenario
from repro.simtest.scenario import ScenarioSpec, machine_name


@dataclass
class ShrinkResult:
    """The minimized scenario plus how much work it took."""

    original: ScenarioSpec
    minimized: ScenarioSpec
    violations: list[str]
    runs: int


def _without_index(items: tuple, index: int) -> tuple:
    return items[:index] + items[index + 1 :]


def _drop_one_fault(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Every spec with exactly one fault/churn element removed."""
    for fault_field in ("churn", "commit_crashes", "partitions", "crashes", "drops"):
        items = getattr(spec, fault_field)
        for index in range(len(items)):
            yield replace(spec, **{fault_field: _without_index(items, index)})


def _references(spec_item, machine: str) -> bool:
    groups = getattr(spec_item, "groups", None)
    if groups is not None:
        return any(machine in group for group in groups)
    return getattr(spec_item, "machine", None) == machine or getattr(
        spec_item, "recipient", None
    ) == machine


def _without_machine(spec: ScenarioSpec, index: int) -> ScenarioSpec:
    """``spec`` minus machine ``index`` and every fault naming it; the
    machines numbered above it move down one."""
    victim = machine_name(index)

    def move(name: str) -> str:
        return machine_name(int(name[1:]) - 1) if name > victim else name

    def renumbered(items: tuple) -> tuple:
        kept = []
        for item in items:
            if _references(item, victim):
                continue
            changes = {
                field: move(getattr(item, field))
                for field in ("machine", "recipient")
                if getattr(item, field, None)
            }
            if getattr(item, "groups", None) is not None:
                changes["groups"] = tuple(
                    tuple(move(name) for name in group) for group in item.groups
                )
            kept.append(replace(item, **changes))
        return tuple(kept)

    return replace(
        spec,
        n_machines=spec.n_machines - 1,
        drops=renumbered(spec.drops),
        crashes=renumbered(spec.crashes),
        partitions=renumbered(spec.partitions),
        commit_crashes=renumbered(spec.commit_crashes),
        churn=renumbered(spec.churn),
    )


def _drop_machine(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Remove one slave, the highest-numbered first: a fault on the
    highest machine can carry the failure."""
    if spec.n_machines > 2:
        for index in range(spec.n_machines, 1, -1):
            yield _without_machine(spec, index)


def _shorten(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Halve the duration, discarding faults that no longer fit."""
    if spec.duration <= 10.0:
        return
    duration = round(max(10.0, spec.duration / 2.0), 2)
    margin = duration - 5.0
    yield replace(
        spec,
        duration=duration,
        drops=tuple(d for d in spec.drops if d.end <= margin),
        crashes=tuple(c for c in spec.crashes if c.end <= margin),
        partitions=tuple(p for p in spec.partitions if p.end <= margin),
        commit_crashes=tuple(
            c for c in spec.commit_crashes if c.recover_at <= margin
        ),
        churn=tuple(c for c in spec.churn if c.at + c.duration <= margin),
    )


def _simplify_knobs(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    if spec.n_grids > 1:
        yield replace(spec, n_grids=1)
    if spec.snapshot_interval != 0:
        yield replace(spec, snapshot_interval=0)
    if spec.batch_max_ops != 64:
        yield replace(spec, batch_max_ops=64)


#: Candidate generators, coarsest first (big cuts before knob tweaks).
PASSES: tuple[Callable[[ScenarioSpec], Iterator[ScenarioSpec]], ...] = (
    _drop_machine,
    _shorten,
    _drop_one_fault,
    _simplify_knobs,
)


def shrink(
    spec: ScenarioSpec,
    mutation: str | None = None,
    max_runs: int = 150,
) -> ShrinkResult:
    """Minimize ``spec`` while it keeps producing violations.

    ``spec`` must already fail (under ``mutation``, if given); the
    result is a local minimum — no single candidate simplification of
    the minimized spec still fails — or wherever the ``max_runs``
    budget ran out.
    """
    current = spec
    violations = run_scenario(current, record_trace=False, mutation=mutation).violations
    if not violations:
        raise ValueError("shrink() needs a failing scenario to start from")
    runs = 1
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate_pass in PASSES:
            for candidate in candidate_pass(current):
                if runs >= max_runs:
                    break
                attempt = run_scenario(candidate, record_trace=False, mutation=mutation)
                runs += 1
                if attempt.violations:
                    current = candidate
                    violations = attempt.violations
                    improved = True
                    break  # restart passes from the new, smaller spec
            if improved:
                break
    return ShrinkResult(
        original=spec, minimized=current, violations=violations, runs=runs
    )

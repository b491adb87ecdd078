"""Operation conformance checking (paper section 3).

A shared operation ``s`` *conforms* to its specification φs ⊆ S×S when
for any shared states s1, s2:

1. if ``s(s1) = (s2, True)`` then ``(s1, s2) ∈ φs``;
2. if ``s(s1) = (s2, False)`` then ``s1 = s2``.

:func:`check_conformance` tests both clauses for a concrete operation
over a domain of states.  It is the dynamic-analysis sibling of the
:class:`~repro.spec.verifier.Verifier` (which works from declared
contract clauses); use it when the specification is easier to state as
a single relation — e.g. the car-pool paper example
``φ_GetRide = "the user ends up with a ride on some vehicle"``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.spec.contracts import set_checking, state_of
from repro.spec.domains import Domain

#: A specification φs ⊆ S×S, given old and new state dicts plus args.
SpecRelation = Callable[[dict, dict, tuple], bool]


@dataclass
class ConformanceReport:
    """Outcome of a conformance check."""

    operation: str
    cases: int = 0
    successes: int = 0
    failures: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def conforms(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        verdict = "conforms" if self.conforms else "VIOLATES"
        return (
            f"{self.operation}: {verdict} over {self.cases} cases "
            f"({self.successes} succeeded, {self.failures} failed)"
        )


def check_conformance(
    method_name: str,
    states: Domain,
    args: Domain,
    spec: SpecRelation,
    budget: int = 1000,
    seed: int = 0,
) -> ConformanceReport:
    """Check clauses (1) and (2) for ``method_name`` over the domains.

    ``states`` yields fresh shared objects; ``args`` yields argument
    tuples.  The method is looked up on each state object, so the same
    check works for any shared class.
    """
    rng = random.Random(seed)
    report = ConformanceReport(method_name)
    arg_pool = list(args.iterate(rng, max(1, budget // 10)))
    if not arg_pool:
        return report
    previous = set_checking(False)  # judge raw semantics, not the checks
    try:
        _run_conformance_cases(method_name, states, rng, budget, arg_pool, spec, report)
    finally:
        set_checking(previous)
    return report


def _run_conformance_cases(method_name, states, rng, budget, arg_pool, spec, report):
    for obj in states.iterate(rng, budget):
        call_args = tuple(arg_pool[report.cases % len(arg_pool)])
        report.cases += 1
        before = state_of(obj)
        method = getattr(obj, method_name)
        try:
            result = method(*call_args)
        except Exception as exc:
            report.violations.append(
                f"case {report.cases}: raised {type(exc).__name__}: {exc} "
                f"(state={before}, args={call_args})"
            )
            continue
        after = state_of(obj)
        if result:
            report.successes += 1
            if not spec(before, after, call_args):
                report.violations.append(
                    f"case {report.cases}: returned True but (s1, s2) not in "
                    f"the specification (state={before}, args={call_args})"
                )
        else:
            report.failures += 1
            if after != before:
                report.violations.append(
                    f"case {report.cases}: returned False but changed state "
                    f"(state={before}, args={call_args})"
                )
    return report


def or_else_preserves_spec(
    first_name: str,
    second_name: str,
    states: Domain,
    args: Domain,
    spec: SpecRelation,
    budget: int = 1000,
    seed: int = 0,
) -> ConformanceReport:
    """Check the paper's OrElse design-pattern lemma.

    "If operations s and t both conform to a specification φ, the
    operation s OrElse t also conforms to φ."  This checks the combined
    behaviour directly: try ``first``; on failure roll back (the copy
    here stands in for copy-on-write) and try ``second``.
    """
    rng = random.Random(seed)
    report = ConformanceReport(f"{first_name} OrElse {second_name}")
    arg_pool = list(args.iterate(rng, max(1, budget // 10)))
    if not arg_pool:
        return report
    previous = set_checking(False)
    try:
        _run_or_else_cases(
            first_name, second_name, states, rng, budget, arg_pool, spec, report
        )
    finally:
        set_checking(previous)
    return report


def _run_or_else_cases(
    first_name, second_name, states, rng, budget, arg_pool, spec, report
):
    for obj in states.iterate(rng, budget):
        call_args = tuple(arg_pool[report.cases % len(arg_pool)])
        report.cases += 1
        before = state_of(obj)
        attempt = copy.deepcopy(obj)
        result = getattr(attempt, first_name)(*call_args)
        if not result:
            attempt = copy.deepcopy(obj)
            result = getattr(attempt, second_name)(*call_args)
        after = state_of(attempt)
        if result:
            report.successes += 1
            if not spec(before, after, call_args):
                report.violations.append(
                    f"case {report.cases}: OrElse returned True outside the "
                    f"specification (state={before}, args={call_args})"
                )
        else:
            report.failures += 1
            if after != before:
                report.violations.append(
                    f"case {report.cases}: OrElse returned False but changed "
                    f"state (state={before}, args={call_args})"
                )
    return report

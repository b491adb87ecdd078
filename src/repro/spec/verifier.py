"""Boogie-lite: bounded-exhaustive verification of contract assertions.

For every assertion declared on a shared class the verifier quantifies
over a *state domain* (freshly-built candidate objects) and per-method
*argument domains*, and checks the assertion's proof obligation:

* ``requires`` — defensiveness: on inputs where the precondition
  fails, the method must return False and leave the state unchanged
  (GUESSTIMATE operations reject, they do not crash or corrupt).
* ``ensures`` — on inputs satisfying every precondition, a successful
  call's (old, new, result, args) must satisfy the predicate.
* conformance (implicit, every contracted method) — a False return
  leaves the shared state unchanged.
* ``modifies`` — fields outside the frame never change.
* ``invariant`` — holds on every domain state, and is preserved by
  every contracted method.

Classification follows Boogie's taxonomy: if the whole domain was
enumerated and no case failed, the assertion is **VERIFIED**; a failing
case makes it **REFUTED** (with the counterexample); a domain too large
to exhaust within the budget leaves it a **RUNTIME_CHECK**.
"""

from __future__ import annotations

import copy
import itertools
import random
from typing import Any, Callable

from repro.errors import SpecError
from repro.spec.contracts import set_checking, state_of
from repro.spec.domains import Domain, product
from repro.spec.report import AssertionOutcome, AssertionResult, VerificationReport


class Verifier:
    """Quantifies contract assertions over finite domains."""

    def __init__(self, budget: int = 2000, seed: int = 0):
        if budget < 1:
            raise SpecError("budget must be positive")
        self.budget = budget
        self.seed = seed

    # -- public API -------------------------------------------------------------

    def verify_class(
        self,
        cls: type,
        states: Domain,
        args: dict[str, Domain] | None = None,
    ) -> VerificationReport:
        """Verify every assertion on ``cls``.

        ``states`` must yield freshly-constructed instances of ``cls``
        (they are mutated during checking).  ``args`` maps method name
        to a domain of argument tuples; contracted methods without an
        entry cannot be quantified and their assertions become runtime
        checks.
        """
        args = args or {}
        report = VerificationReport(cls.__name__)
        previous = set_checking(False)
        try:
            self._verify_invariant_validity(cls, states, report)
            for name in _contracted_members(cls):
                member = getattr(cls, name)
                spec = getattr(member, "__gspec__", None)
                if spec is None:  # pragma: no cover - filtered already
                    continue
                raw = getattr(member, "__gspec_raw__", member)
                if name in args:
                    domain = product(states, args[name], name=f"{name}-cases")
                    self._verify_method(cls, name, raw, spec, domain, report)
                else:
                    self._defer_method(cls, name, spec, report)
        finally:
            set_checking(previous)
        return report

    # -- invariant validity + preservation ------------------------------------------

    def _verify_invariant_validity(
        self, cls: type, states: Domain, report: VerificationReport
    ) -> None:
        for clause in getattr(cls, "__ginvariants__", ()):
            outcome, cases, counterexample = self._quantify(
                states,
                lambda obj, c=clause: bool(c.predicate(obj)),
            )
            report.results.append(
                AssertionResult(
                    kind="invariant",
                    subject=cls.__name__,
                    description=f"{clause.description} (domain validity)",
                    outcome=outcome,
                    cases_checked=cases,
                    counterexample=counterexample,
                )
            )

    # -- per-method obligations ----------------------------------------------------

    def _verify_method(
        self,
        cls: type,
        name: str,
        raw: Callable,
        spec: Any,
        cases: Domain,
        report: VerificationReport,
    ) -> None:
        subject = f"{cls.__name__}.{name}"
        requires = list(spec.requires)

        def preconditions_hold(obj: Any, call_args: tuple) -> bool:
            return all(
                self._safe_pred(clause.predicate, obj, *call_args)
                for clause in requires
            )

        # requires: defensive rejection of bad inputs.
        for clause in requires:
            def defensive(case: tuple, clause=clause) -> bool:
                obj, call_args = case
                obj = copy.deepcopy(obj)  # product() reuses state objects
                if self._safe_pred(clause.predicate, obj, *call_args):
                    return True  # precondition holds; nothing to refute here
                before = state_of(obj)
                try:
                    result = raw(obj, *call_args)
                except Exception:
                    return False  # crashed on bad input
                return result is False and state_of(obj) == before

            outcome, count, cex = self._quantify(cases, defensive)
            report.results.append(
                AssertionResult(
                    "requires", subject, clause.description, outcome, count, cex
                )
            )

        # ensures: success implies the postcondition relation.
        for clause in spec.ensures:
            def established(case: tuple, clause=clause) -> bool:
                obj, call_args = case
                obj = copy.deepcopy(obj)
                if not preconditions_hold(obj, call_args):
                    return True
                before = state_of(obj)
                result = raw(obj, *call_args)
                return bool(clause.predicate(before, obj, result, *call_args))

            outcome, count, cex = self._quantify(cases, established)
            report.results.append(
                AssertionResult(
                    "ensures", subject, clause.description, outcome, count, cex
                )
            )

        # conformance: False implies unchanged (every contracted method).
        def conformant(case: tuple) -> bool:
            obj, call_args = case
            obj = copy.deepcopy(obj)
            if not preconditions_hold(obj, call_args):
                return True
            before = state_of(obj)
            result = raw(obj, *call_args)
            return result is not False or state_of(obj) == before

        outcome, count, cex = self._quantify(cases, conformant)
        report.results.append(
            AssertionResult(
                "conformance",
                subject,
                "returns False implies shared state unchanged",
                outcome,
                count,
                cex,
            )
        )

        # modifies: the frame, one assertion per protected field.
        if spec.modifies is not None:
            probe = cls()
            frame_fields = [
                field_name
                for field_name in vars(probe)
                if not field_name.startswith("_g_")
                and field_name not in spec.modifies
            ]
            for field_name in frame_fields:
                def framed(case: tuple, field_name=field_name) -> bool:
                    obj, call_args = case
                    obj = copy.deepcopy(obj)
                    if not preconditions_hold(obj, call_args):
                        return True
                    before = copy.deepcopy(getattr(obj, field_name, None))
                    raw(obj, *call_args)
                    return getattr(obj, field_name, None) == before

                outcome, count, cex = self._quantify(cases, framed)
                report.results.append(
                    AssertionResult(
                        "modifies",
                        subject,
                        f"field {field_name!r} is never written",
                        outcome,
                        count,
                        cex,
                    )
                )

        # invariant preservation, one assertion per (invariant, method).
        for clause in getattr(cls, "__ginvariants__", ()):
            def preserved(case: tuple, clause=clause) -> bool:
                obj, call_args = case
                obj = copy.deepcopy(obj)
                if not self._safe_pred(clause.predicate, obj):
                    return True  # entry state outside the invariant
                if not preconditions_hold(obj, call_args):
                    return True
                raw(obj, *call_args)
                return bool(clause.predicate(obj))

            outcome, count, cex = self._quantify(cases, preserved)
            report.results.append(
                AssertionResult(
                    "invariant",
                    subject,
                    f"{clause.description} (preserved)",
                    outcome,
                    count,
                    cex,
                )
            )

    def _defer_method(
        self, cls: type, name: str, spec: Any, report: VerificationReport
    ) -> None:
        """No argument domain: every obligation stays a runtime check."""
        subject = f"{cls.__name__}.{name}"
        clauses: list[tuple[str, str]] = []
        clauses += [("requires", c.description) for c in spec.requires]
        clauses += [("ensures", c.description) for c in spec.ensures]
        clauses.append(
            ("conformance", "returns False implies shared state unchanged")
        )
        if spec.modifies is not None:
            probe = cls()
            for field_name in vars(probe):
                if not field_name.startswith("_g_") and field_name not in spec.modifies:
                    clauses.append(
                        ("modifies", f"field {field_name!r} is never written")
                    )
        for clause in getattr(cls, "__ginvariants__", ()):
            clauses.append(("invariant", f"{clause.description} (preserved)"))
        for kind, description in clauses:
            report.results.append(
                AssertionResult(
                    kind, subject, description, AssertionOutcome.RUNTIME_CHECK, 0
                )
            )

    # -- quantification core ------------------------------------------------------------

    def _quantify(
        self, domain: Domain, obligation: Callable[[Any], bool]
    ) -> tuple[AssertionOutcome, int, Any]:
        """Check ``obligation`` over the domain within the budget."""
        rng = random.Random(self.seed)
        checked = 0
        exhausted = True
        iterator = domain.iterate(rng, self.budget + 1)
        for case in itertools.islice(iterator, self.budget + 1):
            if checked == self.budget:
                exhausted = False  # more cases exist beyond the budget
                break
            checked += 1
            if not obligation(case):
                return AssertionOutcome.REFUTED, checked, _describe_case(case)
        if exhausted and domain.exhaustive:
            return AssertionOutcome.VERIFIED, checked, None
        return AssertionOutcome.RUNTIME_CHECK, checked, None

    @staticmethod
    def _safe_pred(predicate: Callable, *args: Any) -> bool:
        try:
            return bool(predicate(*args))
        except Exception:
            return False


def _contracted_members(cls: type) -> list[str]:
    """Names of contracted methods anywhere in the MRO (most-derived wins)."""
    names: set[str] = set()
    for klass in cls.__mro__:
        for name, member in vars(klass).items():
            if getattr(member, "__gspec__", None) is not None:
                names.add(name)
    return sorted(names)


def _describe_case(case: Any) -> Any:
    if isinstance(case, tuple) and len(case) == 2:
        obj, call_args = case
        get_state = getattr(obj, "get_state", None)
        state = get_state() if callable(get_state) else repr(obj)
        return {"state": state, "args": call_args}
    return repr(case)

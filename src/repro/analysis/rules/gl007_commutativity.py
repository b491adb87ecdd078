"""GL007 — ``@commutative`` markers must be provable.

The commutativity-aware synchronizer the ROADMAP plans will commit
``@commutative`` operations without the paper's global round order —
so a wrong marker is not a style issue, it is a future divergence bug
minted in advance.  This rule certifies each marker against the
effect engine: the marked operation must be **disjoint from, or
algebraically commuting with, every operation of its class, itself
included** (two clients can issue the same op concurrently).

Certification is the pairwise verdict of :func:`pair_verdict`:

* ``disjoint`` — no write on either side overlaps the other's reads
  or writes;
* ``commutes`` — every overlapping attribute is written on both sides
  with the identical certifiable algebra (``counter-inc``,
  ``set-add``, ``put-const:<v>``).  ``append`` is deliberately not
  certifiable: list order is observable committed state, so two
  appends executed in different orders produce different states.

Anything else — including operations whose footprints the engine
could not fully resolve — leaves the marker uncertified and flagged.
The full op x op matrix (not just the marked rows) is
``EffectEngine.interference_matrix``.
"""

from __future__ import annotations

from repro.analysis.context import LIFECYCLE_METHODS, ProjectContext
from repro.analysis.effects import conflicting_attrs, effect_engine, pair_verdict
from repro.analysis.loader import SourceModule
from repro.analysis.report import Finding
from repro.analysis.rules.base import Rule, register


@register
class CommutativityRule(Rule):
    id = "GL007"
    title = "@commutative marker fails interference certification"
    rationale = (
        "a commutativity-aware commit reorders marked ops; an "
        "uncertifiable marker is a committed-state divergence waiting "
        "for the synchronizer that trusts it"
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> list[Finding]:
        findings: list[Finding] = []
        engine = effect_engine(context)
        for info in context.shared_classes.values():
            if info.module is not module:
                continue
            marked = {
                name: method
                for name, method in sorted(info.methods.items())
                if method.commutative
            }
            if not marked:
                continue
            footprints = engine.operation_footprints(info)
            for name, method in marked.items():
                anchor = method.commutative_node or method.node
                symbol = f"{info.name}.{name}"
                if method.modifies is None or name in LIFECYCLE_METHODS:
                    findings.append(
                        self.finding(
                            module,
                            anchor,
                            symbol,
                            "@commutative requires a declared @modifies "
                            "frame on a shared operation — there is no "
                            "footprint to certify against",
                        )
                    )
                    continue
                mine = footprints[name]
                conflicts: list[str] = []
                for other, theirs in footprints.items():
                    if pair_verdict(mine, theirs) == "interferes":
                        attrs = ", ".join(conflicting_attrs(mine, theirs))
                        conflicts.append(f"{other} (on {attrs})")
                if not mine.trusted:
                    findings.append(
                        self.finding(
                            module,
                            anchor,
                            symbol,
                            "@commutative cannot be certified: the write "
                            "footprint could not be fully inferred",
                        )
                    )
                elif conflicts:
                    findings.append(
                        self.finding(
                            module,
                            anchor,
                            symbol,
                            f"@commutative is not certified: interferes "
                            f"with {'; '.join(conflicts)}",
                        )
                    )
        return findings

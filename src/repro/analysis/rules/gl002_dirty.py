"""GL002 — every in-place mutation of shared state must be tracked.

Since the versioned object stores (PR 4), commit rounds copy only
objects the runtime knows were touched: ``ObjectStore.run`` — the one
call that executes an operation, at issue, commit and pending replay —
stamps every operation's may-touch set via ``mark_dirty``.  That
bookkeeping is driven entirely by the repo's conventions for *where
mutations are allowed to happen*:

* inside a shared class, only methods carrying a ``@modifies`` frame
  mutate — the runtime marks their objects dirty when they are issued
  and applied as operations, and the contract checker enforces the
  frame dynamically;
* everywhere else (clients, drivers, demos), shared replicas are
  **read-only**: mutations go through ``api.invoke(...)`` so they ride
  the commit stream and the dirty-tracking.

A mutation outside those channels — a frameless method, a write to an
attribute missing from the frame, a mutation inside a read-only
``reading()`` block, or a direct poke at a replica obtained from
``create_instance``/``join_instance`` — is invisible to ``mark_dirty``:
the delta refresh skips the object and the guesstimate silently
diverges from ``[P](sc)``.  That is exactly the hazard the PR 4
``refresh_oracle`` exists to catch at runtime; this rule catches the
whole class before any run.
"""

from __future__ import annotations

import ast

from repro.analysis.context import (
    ProjectContext,
    ScopeScanner,
    SharedClassInfo,
    LIFECYCLE_METHODS,
    reading_blocks,
    replica_name_roots,
)
from repro.analysis.loader import SourceModule
from repro.analysis.report import Finding
from repro.analysis.rules.base import Rule, register


@register
class DirtyTrackingRule(Rule):
    id = "GL002"
    title = "in-place mutations must be visible to dirty-tracking"
    rationale = (
        "versioned stores (PR 4): delta guess-refresh copies only "
        "mark_dirty-reported objects; an untracked mutation diverges "
        "sg from [P](sc) — the refresh_oracle's runtime hazard, "
        "caught statically"
    )

    def check(
        self, module: SourceModule, context: ProjectContext
    ) -> list[Finding]:
        findings: list[Finding] = []
        for info in context.shared_classes.values():
            if info.module is module:
                findings.extend(self._check_shared_class(module, info))
        findings.extend(self._check_reading_blocks(module))
        findings.extend(self._check_replica_names(module, context))
        return findings

    # -- shared-class methods vs their @modifies frames ----------------------

    def _check_shared_class(
        self, module: SourceModule, info: SharedClassInfo
    ) -> list[Finding]:
        findings: list[Finding] = []
        for method in info.methods.values():
            if method.name in LIFECYCLE_METHODS or (
                method.name.startswith("__") and method.name.endswith("__")
            ):
                continue
            scanner = ScopeScanner(any_self_attr=True)
            scanner.scan(method.node.body)
            symbol = f"{info.name}.{method.name}"
            for mutation in scanner.mutations:
                attr = mutation.root.removeprefix("self.")
                if method.modifies is None:
                    findings.append(
                        self.finding(
                            module,
                            mutation.node,
                            symbol,
                            f"mutates self.{attr} ({mutation.target_text}) "
                            "but declares no @modifies frame: called "
                            "outside the operation path, this write is "
                            "invisible to mark_dirty and the delta "
                            "refresh will not propagate it",
                            extra_pragma_lines=(method.node.lineno,),
                        )
                    )
                elif attr not in method.modifies:
                    findings.append(
                        self.finding(
                            module,
                            mutation.node,
                            symbol,
                            f"mutates self.{attr} ({mutation.target_text}) "
                            f"outside its @modifies frame {method.modifies!r}",
                            extra_pragma_lines=(method.node.lineno,),
                        )
                    )
        return findings

    # -- mutations inside read-only reading() blocks -------------------------

    def _check_reading_blocks(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for with_node, name in reading_blocks(module.tree):
            scanner = ScopeScanner(names={name: name})
            scanner.scan(with_node.body)
            for mutation in scanner.mutations:
                findings.append(
                    self.finding(
                        module,
                        mutation.node,
                        f"<reading {name}>",
                        f"mutates {mutation.target_text} inside a "
                        "read-only api.reading() block; reads must not "
                        "write — issue an operation instead",
                        extra_pragma_lines=(with_node.lineno,),
                    )
                )
        return findings

    # -- direct pokes at replicas bound from the lifecycle API ---------------

    def _check_replica_names(
        self, module: SourceModule, context: ProjectContext
    ) -> list[Finding]:
        findings: list[Finding] = []
        scopes: list[tuple[ast.AST, str]] = [(module.tree, "<module>")]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, node.name))
        for scope, scope_name in scopes:
            roots = replica_name_roots(scope)
            if not roots:
                continue
            body = scope.body if isinstance(scope, ast.Module) else scope.body
            scanner = ScopeScanner(names=roots)
            scanner.scan(body)
            for mutation in scanner.mutations:
                findings.append(
                    self.finding(
                        module,
                        mutation.node,
                        scope_name,
                        f"mutates {mutation.target_text} directly on a "
                        f"shared replica ({mutation.root} came from "
                        "create_instance/join_instance); the write "
                        "bypasses mark_dirty and the commit stream — "
                        "issue an operation via api.invoke instead",
                    )
                )
        return findings

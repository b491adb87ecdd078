"""Interprocedural effect inference for shared-class operations.

Where :mod:`repro.analysis.context` answers "did this statement mutate
a tracked root?", this module answers the whole-operation question the
commutativity roadmap item needs: *what is the true read/write
footprint of one shared operation*, at (attribute, access-kind)
granularity, with self-method calls resolved through the project index
and helper-parameter aliases mapped back to the caller's arguments.

The result per method is a :class:`Footprint`:

* ``writes``: attribute -> set of access kinds.  Kinds distinguish a
  whole-attribute ``rebind`` from a container-interior ``setitem`` /
  ``delitem`` / ``aug`` / ``mutate:<method>`` — the difference between
  "replaces the delta-refresh unit" and "touches one cell of it".
* ``reads``: every attribute the operation observes, and the subset of
  ``stray_reads`` that are *not* structurally part of a write (a guard,
  a computed result, an arbitrary right-hand side).  Stray reads are
  what break commutativity certification: an op whose effect depends
  on prior state does not commute even if its write looks algebraic.
* ``algebra``: attribute -> certified algebra class, for attributes
  whose every write is the same commuting operation — ``counter-inc``
  (``+=``/``-=`` of a state-independent amount, including the
  ``d[k] = d.get(k, 0) + c`` idiom), ``set-add`` (``s.add(x)``), or
  ``put-const:<v>`` (``d[k] = <literal>``).  ``append`` is recognized
  but never certifiable: list order is observable committed state, so
  two appends do not commute under state equality.
* ``complete``: False when inference had to give up (a call to a
  method outside the analyzed class, variadic helper signatures,
  ``*args`` at a call site).  Incomplete footprints are never used to
  accuse (GL006 skips them) and never used to certify (GL007 treats
  them as interfering) — soundness over coverage in both directions.
* ``opaque``: True when some mutation went through a local the alias
  tracker could not resolve *and* could not prove fresh (built from a
  literal/copy inside the method).  Such a footprint may under-count
  writes, so it is not ``trusted`` as an upper bound: GL006 suppresses
  the over-declared arm, GL007 refuses to certify, and the runtime
  footprint probe skips the method.

``pair_verdict`` reduces two footprints to the three-valued outcome
GL007 certifies against: ``disjoint`` (no write on
either side overlaps the other's reads or writes), ``commutes`` (every
overlapping attribute is written on both sides with the identical
certifiable algebra), or ``interferes``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.context import (
    LIFECYCLE_METHODS,
    MUTATING_METHODS,
    PASSTHROUGH_METHODS,
    ProjectContext,
    ScopeScanner,
    SharedClassInfo,
    _expr_text,
    function_params,
)

#: algebra classes whose writes provably commute under state equality
CERTIFIABLE_PREFIXES = ("counter-inc", "set-add", "put-const:")

#: builtins whose result is a *view-preserving* rearrangement of their
#: first argument: the returned container is fresh, but its elements
#: are the argument's interior objects, so mutating an element mutates
#: the original.  ``sorted(self.vehicles.items())`` and friends.
INTERIOR_BUILTINS = {
    "sorted", "list", "tuple", "reversed", "enumerate", "dict", "set",
    "frozenset",
}

#: root-label prefix for effects charged to a helper parameter
_PARAM = "param:"
_SELF = "self."


def is_certifiable(algebra: str | None) -> bool:
    """True for algebra classes GL007 may certify as commuting."""
    return algebra is not None and algebra.startswith(CERTIFIABLE_PREFIXES)


# ---------------------------------------------------------------------------
# per-method scanning (one function body, aliases resolved linearly)


class _EffectScanner(ScopeScanner):
    """ScopeScanner extended with reads, access kinds, and algebra.

    Roots are labelled ``self.<attr>`` for receiver attributes and
    ``param:<name>`` for the method's own parameters, so a helper's
    effects on its parameters can later be mapped through the caller's
    argument aliases.
    """

    def __init__(self, params: list[str]):
        super().__init__(names={p: _PARAM + p for p in params}, any_self_attr=True)
        #: root -> access kinds
        self.writes: dict[str, set[str]] = {}
        #: root -> algebra class (or None) per write access
        self.algebra: dict[str, set[str | None]] = {}
        #: root -> first write anchor node
        self.anchors: dict[str, ast.AST] = {}
        #: (root, node) for every observed read
        self.reads: list[tuple[str, ast.AST]] = []
        #: ``self.<method>(...)`` call sites with pre-resolved arg roots
        self.self_calls: list[tuple[ast.Call, list[str | None], dict[str, str | None]]] = []
        #: ids of read nodes that are structurally part of a write
        self._absorbed: set[int] = set()
        #: locals assigned a definitely-fresh value (literal, copy, ...)
        self.fresh: set[str] = set()
        #: mutation sites through unresolvable, not-provably-fresh
        #: receivers — the footprint may under-count writes
        self.opaque: list[ast.AST] = []

    # -- root resolution (engine-specific extensions) -------------------------

    def _resolve(self, node: ast.expr) -> str | None:
        """Base resolution plus two interior-view rules the effect
        engine needs: view-preserving builtins (``sorted``/``list``/…
        over a tracked container still expose its interior) and
        comprehensions whose element carries a loop variable drawn from
        a tracked iterable (``[(k, v) for k, v in self.d.items()]``)."""
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in PASSTHROUGH_METHODS
                ):
                    node = func.value
                elif (
                    isinstance(func, ast.Name)
                    and func.id in INTERIOR_BUILTINS
                    and node.args
                    and not isinstance(node.args[0], ast.Starred)
                ):
                    node = node.args[0]
                else:
                    return None
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                interior = self._comp_interior(node)
                if interior is None:
                    return None
                node = interior
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    attr = node.attr
                    if self.any_self_attr or attr in self.self_attrs:
                        return f"self.{attr}"
                    return None
                node = node.value
            elif isinstance(node, ast.Name):
                if node.id in self.names:
                    return self.names[node.id]
                return self.aliases.get(node.id)
            else:
                return None

    def _comp_interior(self, comp: ast.expr) -> ast.expr | None:
        """The iterable a comprehension's elements are views *into*.

        ``[(vid, v) for vid, v in sorted(self.d.items())]`` yields
        tuples holding interior objects of ``self.d`` — mutating an
        element mutates the attribute.  Conservatively: if the element
        expression carries any loop variable as a bare name, the value
        is an interior view of the first generator's iterable."""
        targets: set[str] = set()
        for generator in comp.generators:  # type: ignore[attr-defined]
            for node in ast.walk(generator.target):
                if isinstance(node, ast.Name):
                    targets.add(node.id)
        elt = comp.elt  # type: ignore[attr-defined]
        carries = any(
            isinstance(node, ast.Name) and node.id in targets
            for node in ast.walk(elt)
        )
        if not carries:
            return None
        return comp.generators[0].iter  # type: ignore[attr-defined]

    def _is_fresh(self, value: ast.expr) -> bool:
        """Is ``value`` definitely a brand-new object (or a view into
        one) — i.e. provably *not* an alias of tracked state?"""
        node = value
        while True:
            if isinstance(
                node,
                (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.Constant,
                 ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                 ast.JoinedStr),
            ):
                # A comprehension is fresh only when it does not expose
                # interior views of tracked state (checked by _resolve
                # before freshness is consulted).
                return True
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    return False
                node = node.value
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    node = func.value  # method result: fresh iff receiver is
                elif (
                    isinstance(func, ast.Name)
                    and func.id in INTERIOR_BUILTINS
                    and node.args
                    and not isinstance(node.args[0], ast.Starred)
                ):
                    node = node.args[0]
                else:
                    return False
            elif isinstance(node, ast.Name):
                return node.id in self.fresh
            else:
                return False

    def _note_opacity(self, target: ast.expr) -> None:
        if self._resolve(target) is None and not self._is_fresh(target):
            self.opaque.append(target)

    # -- write classification ------------------------------------------------

    def _record(self, node: ast.AST, root: str, kind: str, target: ast.AST) -> None:
        super()._record(node, root, kind, target)
        access_kind, algebra, absorb = self._classify(node, root, kind, target)
        self.writes.setdefault(root, set()).add(access_kind)
        self.algebra.setdefault(root, set()).add(algebra)
        self.anchors.setdefault(root, node)
        # Reads that only exist to express this write are not "stray":
        # the receiver of a mutating call, and the same-cell read of a
        # certified read-modify-write.  Everything else on the
        # right-hand side stays a stray read — state feeding the write
        # is exactly what pairwise interference must see.
        if kind.startswith("call:") and isinstance(node, ast.Call):
            self._absorb(node.func)
        if absorb is not None:
            self._absorb(absorb)

    def _absorb(self, node: ast.AST) -> None:
        self._absorbed.update(id(sub) for sub in ast.walk(node))

    def _classify(
        self, node: ast.AST, root: str, kind: str, target: ast.AST
    ) -> tuple[str, str | None, ast.AST | None]:
        if kind == "assign":
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return "rebind", None, None
            if isinstance(target, ast.Subscript) and isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Constant):
                    return "setitem", f"put-const:{_expr_text(node.value)}", None
                same_cell = self._counter_inc_read(target, node.value, root)
                if same_cell is not None:
                    return "setitem", "counter-inc", same_cell
            return "setitem", None, None
        if kind == "augassign":
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                return "aug", "counter-inc", None
            return "aug", None, None
        if kind == "delete":
            return "delitem", None, None
        method = kind.split(":", 1)[1]
        algebra = None
        if method == "add":
            algebra = "set-add"
        elif method == "append":
            algebra = "append"  # recognized, never certifiable
        return f"mutate:{method}", algebra, None

    def _reads_tracked(self, expr: ast.AST) -> bool:
        """Does ``expr`` observe any tracked root (self state, params,
        aliases)?  State-dependent operands disqualify an algebra."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                return True
            if isinstance(node, ast.Name) and (
                node.id == "self"
                or node.id in self.names
                or node.id in self.aliases
            ):
                return True
        return False

    def _counter_inc_read(
        self, target: ast.Subscript, value: ast.expr, root: str
    ) -> ast.AST | None:
        """The same-cell read of a ``d[k] = d[k] + c`` /
        ``d[k] = d.get(k, 0) + c`` read-modify-write, or None.  The
        amount ``c`` may be any expression: if it reads state, that
        read stays stray and decertifies or interferes as usual."""
        if not isinstance(value, ast.BinOp) or not isinstance(
            value.op, (ast.Add, ast.Sub)
        ):
            return None
        key_text = _expr_text(target.slice)
        if isinstance(value.op, ast.Add):
            candidates = (value.left, value.right)
        else:
            candidates = (value.left,)
        for read in candidates:
            if self._same_cell(read, root, key_text):
                return read
        return None

    def _same_cell(self, read: ast.expr, root: str, key_text: str) -> bool:
        if isinstance(read, ast.Subscript):
            return (
                self._resolve(read) == root
                and _expr_text(read.slice) == key_text
            )
        if (
            isinstance(read, ast.Call)
            and isinstance(read.func, ast.Attribute)
            and read.func.attr == "get"
            and read.args
        ):
            if self._resolve(read.func.value) != root:
                return False
            if _expr_text(read.args[0]) != key_text:
                return False
            default = read.args[1] if len(read.args) > 1 else None
            return default is None or not self._reads_tracked(default)
        return False

    # -- reads and self-call collection --------------------------------------

    def _bind_alias(self, name: str, value: ast.expr) -> None:
        # Rebinding a parameter makes it an ordinary local: drop the
        # param root so later mutations charge the new alias (if any),
        # not the caller's argument.
        self.names.pop(name, None)
        super()._bind_alias(name, value)
        if name not in self.aliases and self._is_fresh(value):
            self.fresh.add(name)
        else:
            self.fresh.discard(name)

    def _bind_target(self, target: ast.expr, value: ast.expr | None) -> None:
        super()._bind_target(target, value)
        if isinstance(target, (ast.Tuple, ast.List)) and value is not None:
            fresh_value = (
                self._resolve(value) is None and self._is_fresh(value)
            )
            for element in target.elts:
                if isinstance(element, ast.Name):
                    if fresh_value:
                        self.fresh.add(element.id)
                    else:
                        self.fresh.discard(element.id)

    def _mutation_target(self, target: ast.expr, node: ast.AST, kind: str) -> None:
        super()._mutation_target(target, node, kind)
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            self._note_opacity(target)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, (ast.Subscript, ast.Attribute)
        ):
            self._note_opacity(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._note_opacity(target)
        super()._stmt(stmt)

    def _expr(self, expr: ast.expr) -> None:
        super()._expr(expr)
        # ``self.method(...)`` is a call, not a state read: the callee's
        # effects are folded in through self_calls instead.
        method_access = {
            id(node.func)
            for node in ast.walk(expr)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        }
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and id(node) not in method_access
            ):
                self.reads.append((_SELF + node.attr, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                root = self.names.get(node.id) or self.aliases.get(node.id)
                if root is not None:
                    self.reads.append((root, node))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr not in MUTATING_METHODS
                and node.func.attr not in PASSTHROUGH_METHODS
            ):
                arg_roots = [self._resolve(arg) for arg in node.args]
                kw_roots = {
                    kw.arg: self._resolve(kw.value)
                    for kw in node.keywords
                    if kw.arg is not None
                }
                self.self_calls.append((node, arg_roots, kw_roots))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                # A mutating call whose receiver cannot be resolved and
                # is not provably fresh may be hiding a state write.
                self._note_opacity(node.func.value)

    def read_roots(self) -> tuple[set[str], set[str]]:
        """(all read roots, stray read roots)."""
        all_roots = {root for root, _node in self.reads}
        stray = {
            root
            for root, node in self.reads
            if id(node) not in self._absorbed
        }
        return all_roots, stray


# ---------------------------------------------------------------------------
# resolved (interprocedural) effects


@dataclass
class _Resolved:
    """Effects of one method with self-calls folded in, still keyed by
    root label so helper-parameter effects can map further out."""

    reads: set[str] = field(default_factory=set)
    stray_reads: set[str] = field(default_factory=set)
    writes: dict[str, set[str]] = field(default_factory=dict)
    algebra: dict[str, set[str | None]] = field(default_factory=dict)
    anchors: dict[str, ast.AST] = field(default_factory=dict)
    complete: bool = True
    opaque: bool = False

    def merge_root(
        self,
        root: str,
        kinds: set[str],
        algebra: set[str | None],
        anchor: ast.AST,
    ) -> None:
        self.writes.setdefault(root, set()).update(kinds)
        self.algebra.setdefault(root, set()).update(algebra)
        self.anchors.setdefault(root, anchor)


@dataclass
class Footprint:
    """The public, attribute-level effect summary of one method."""

    reads: set[str] = field(default_factory=set)
    stray_reads: set[str] = field(default_factory=set)
    writes: dict[str, set[str]] = field(default_factory=dict)
    #: attribute -> certified algebra class, for written attributes only
    algebra: dict[str, str | None] = field(default_factory=dict)
    #: attribute -> AST node to anchor findings on (write site/call site)
    anchors: dict[str, ast.AST] = field(default_factory=dict)
    complete: bool = True
    #: True when some mutation went through an unresolvable local that
    #: is not provably fresh — writes may be under-counted, so the
    #: footprint is not trusted as an upper bound
    opaque: bool = False

    @property
    def trusted(self) -> bool:
        """Usable as an *upper bound* on writes (accuse/certify)."""
        return self.complete and not self.opaque


class EffectEngine:
    """Resolves footprints over one :class:`ProjectContext`.

    Memoized per (class, method); cycles through mutually recursive
    helpers resolve to their least fixpoint (effect union is monotone
    and idempotent, so treating an in-progress method as empty and
    refusing to cache any result whose computation hit a cycle gives
    the exact solution on re-query).
    """

    def __init__(self, context: ProjectContext):
        self.context = context
        self._cache: dict[tuple[str, str], _Resolved] = {}
        self._stack: list[tuple[str, str]] = []
        #: lowest stack index a cycle reached back into (inf = none)
        self._lowlink: float = float("inf")

    # -- public API ----------------------------------------------------------

    def footprint(self, cls_name: str, method_name: str) -> Footprint:
        resolved = self._resolve(cls_name, method_name)
        fp = Footprint(complete=resolved.complete, opaque=resolved.opaque)
        for root in resolved.reads:
            if root.startswith(_SELF):
                fp.reads.add(root[len(_SELF):])
        for root in resolved.stray_reads:
            if root.startswith(_SELF):
                fp.stray_reads.add(root[len(_SELF):])
        for root, kinds in resolved.writes.items():
            if not root.startswith(_SELF):
                continue
            attr = root[len(_SELF):]
            fp.writes[attr] = set(kinds)
            fp.anchors[attr] = resolved.anchors[root]
            classes = resolved.algebra.get(root, {None})
            if len(classes) == 1:
                (algebra,) = classes
            else:
                algebra = None
            # A stray read of the same attribute means the op's effect
            # depends on prior state beyond the algebraic cell: decertify.
            if attr in fp.stray_reads:
                algebra = None
            fp.algebra[attr] = algebra
        return fp

    def operation_footprints(self, info: SharedClassInfo) -> dict[str, Footprint]:
        """Footprints of every framed, non-lifecycle method."""
        return {
            name: self.footprint(info.name, name)
            for name, method in sorted(info.methods.items())
            if method.modifies is not None and name not in LIFECYCLE_METHODS
        }

    def interference_matrix(
        self, footprints: dict[str, Footprint]
    ) -> dict[str, str]:
        """Unordered pairwise verdicts, keyed ``"a|b"`` with a <= b.

        Self-pairs are included: an op must commute with *itself* to be
        certifiable (two clients issuing it concurrently)."""
        matrix: dict[str, str] = {}
        names = sorted(footprints)
        for i, a in enumerate(names):
            for b in names[i:]:
                matrix[f"{a}|{b}"] = pair_verdict(footprints[a], footprints[b])
        return matrix

    # -- resolution ----------------------------------------------------------

    def _resolve(self, cls_name: str, method_name: str) -> _Resolved:
        key = (cls_name, method_name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if key in self._stack:
            # Least-fixpoint seed for the cycle; remember how far back
            # it reached so interior members are not cached partially.
            self._lowlink = min(self._lowlink, self._stack.index(key))
            return _Resolved()
        depth = len(self._stack)
        self._stack.append(key)
        try:
            resolved = self._resolve_uncached(cls_name, method_name)
        finally:
            self._stack.pop()
        # The cycle head (and anything cycle-free) computed the full
        # union and may be cached; interior members saw a partial seed
        # and must recompute on their own top-level query.
        if self._lowlink >= depth:
            self._cache[key] = resolved
            self._lowlink = float("inf")
        return resolved

    def _resolve_uncached(self, cls_name: str, method_name: str) -> _Resolved:
        info = self.context.shared_classes.get(cls_name)
        resolved = _Resolved()
        method = info.methods.get(method_name) if info is not None else None
        if method is None:
            resolved.complete = False
            return resolved
        params = function_params(method.node)
        scanner = _EffectScanner(params[1:] if params else [])
        scanner.scan(method.node.body)
        resolved.opaque = bool(scanner.opaque)

        reads, stray = scanner.read_roots()
        resolved.reads |= reads
        resolved.stray_reads |= stray
        for root, kinds in scanner.writes.items():
            resolved.merge_root(
                root, kinds, scanner.algebra[root], scanner.anchors[root]
            )

        for call, arg_roots, kw_roots in scanner.self_calls:
            self._fold_call(resolved, info, call, arg_roots, kw_roots)
        return resolved

    def _fold_call(
        self,
        resolved: _Resolved,
        info: SharedClassInfo,
        call: ast.Call,
        arg_roots: list[str | None],
        kw_roots: dict[str, str | None],
    ) -> None:
        name = call.func.attr  # type: ignore[attr-defined]
        callee = info.methods.get(name)
        if (
            callee is None
            or name in LIFECYCLE_METHODS
            or any(isinstance(arg, ast.Starred) for arg in call.args)
        ):
            resolved.complete = False
            return
        callee_params = function_params(callee.node)
        if callee_params is None or not callee_params:
            resolved.complete = False  # variadic helper: unmappable args
            return
        child = self._resolve(info.name, name)
        resolved.complete = resolved.complete and child.complete
        resolved.opaque = resolved.opaque or child.opaque

        # Positional + keyword argument roots, by callee parameter name.
        mapping: dict[str, str | None] = dict(
            zip(callee_params[1:], arg_roots)
        )
        mapping.update(kw_roots)

        def remap(root: str) -> str | None:
            if root.startswith(_PARAM):
                return mapping.get(root[len(_PARAM):])
            return root  # self.<attr> roots pass through unchanged

        for root in child.reads:
            mapped = remap(root)
            if mapped is not None:
                resolved.reads.add(mapped)
        for root in child.stray_reads:
            mapped = remap(root)
            if mapped is not None:
                resolved.stray_reads.add(mapped)
        for root, kinds in child.writes.items():
            mapped = remap(root)
            if mapped is None:
                continue  # helper mutates a fresh local: not shared state
            resolved.merge_root(
                mapped, kinds, child.algebra.get(root, {None}), call
            )


# ---------------------------------------------------------------------------
# pairwise verdicts


def pair_verdict(fa: Footprint, fb: Footprint) -> str:
    """``disjoint`` | ``commutes`` | ``interferes`` for two footprints."""
    if not (fa.trusted and fb.trusted):
        return "interferes"  # unknown effects can never certify
    wa, wb = set(fa.writes), set(fb.writes)
    overlap = (wa & (wb | fb.reads)) | (wb & fa.reads)
    if not overlap:
        return "disjoint"
    for attr in overlap:
        if attr in wa and attr in wb:
            algebra = fa.algebra.get(attr)
            if (
                algebra is not None
                and algebra == fb.algebra.get(attr)
                and is_certifiable(algebra)
            ):
                continue
        return "interferes"
    return "commutes"


def conflicting_attrs(fa: Footprint, fb: Footprint) -> list[str]:
    """The attributes that make ``pair_verdict`` say ``interferes``."""
    if not (fa.trusted and fb.trusted):
        return sorted(set(fa.writes) | set(fb.writes))
    wa, wb = set(fa.writes), set(fb.writes)
    overlap = (wa & (wb | fb.reads)) | (wb & fa.reads)
    conflicts = []
    for attr in sorted(overlap):
        if attr in wa and attr in wb:
            algebra = fa.algebra.get(attr)
            if (
                algebra is not None
                and algebra == fb.algebra.get(attr)
                and is_certifiable(algebra)
            ):
                continue
        conflicts.append(attr)
    return conflicts


def effect_engine(context: ProjectContext) -> EffectEngine:
    """The per-context engine, cached on the context so the three
    effect rules share one resolution pass."""
    engine = getattr(context, "_effect_engine", None)
    if engine is None:
        engine = EffectEngine(context)
        context._effect_engine = engine  # type: ignore[attr-defined]
    return engine

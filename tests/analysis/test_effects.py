"""The interprocedural effect engine.

Unit tests pin the engine's verdicts on the in-tree apps (the same
classes the simfuzz effect probes trust at runtime), a property test
pins the interference matrix's symmetry, and a regression pin keeps
the apps GL006-clean.
"""

import keyword
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_paths
from repro.analysis.context import build_context
from repro.analysis.effects import (
    Footprint,
    effect_engine,
    is_certifiable,
    pair_verdict,
)
from repro.analysis.loader import load_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
APPS_DIR = REPO_ROOT / "src" / "repro" / "apps"
WORKLOADS_DIR = REPO_ROOT / "src" / "repro" / "workloads"


@pytest.fixture(scope="module")
def apps_engine():
    context = build_context(load_paths([APPS_DIR]))
    return context, effect_engine(context)


def _load_source(tmp: Path, source: str):
    path = tmp / "generated.py"
    path.write_text(source)
    context = build_context(load_paths([path]))
    return context, effect_engine(context)


class TestEngineOnApps:
    def test_leave_folds_helper_writes_into_events(self, apps_engine):
        # leave() routes part of its write through
        # _promote_from_waitlist(event) — the interprocedural fold
        # must land it on 'events' via the aliased parameter.
        _, engine = apps_engine
        fp = engine.footprint("EventPlanner", "leave")
        assert fp.complete and not fp.opaque
        assert set(fp.writes) == {"events"}

    def test_get_ride_sees_comprehension_aliases(self, apps_engine):
        # get_ride writes vehicles through a sorted()-comprehension
        # alias chain; the interior resolution must attribute it.
        _, engine = apps_engine
        fp = engine.footprint("CarPool", "get_ride")
        assert fp.trusted
        assert set(fp.writes) == {"vehicles"}

    def test_tally_is_certified_counter_inc(self, apps_engine):
        context, engine = apps_engine
        fp = engine.footprint("PresenceCounters", "tally")
        assert fp.trusted
        assert fp.algebra.get("sightings") == "counter-inc"
        info = context.shared_classes["PresenceCounters"]
        matrix = engine.interference_matrix(engine.operation_footprints(info))
        assert matrix["tally|tally"] == "commutes"

    def test_no_app_footprint_is_opaque_or_incomplete(self, apps_engine):
        # The simfuzz footprint probe only checks trusted footprints;
        # this pin keeps the whole app zoo under its coverage.
        context, engine = apps_engine
        from repro.analysis.context import LIFECYCLE_METHODS

        for name, info in context.shared_classes.items():
            for method in info.methods:
                if method in LIFECYCLE_METHODS:
                    continue
                fp = engine.footprint(name, method)
                assert fp.trusted, f"{name}.{method} is not trusted"


OPAQUE_SOURCE = '''
from repro.core.shared_object import GSharedObject
from repro.spec import modifies


class Box(GSharedObject):
    def __init__(self):
        self.items = {}

    def copy_from(self, src):
        self.items = dict(src.items)

    @modifies("items")
    def stash(self, key, bundle):
        holder = bundle or key
        holder.append(key)
        self.items[key] = True
        return True
'''

CYCLE_SOURCE = '''
from repro.core.shared_object import GSharedObject
from repro.spec import modifies


class Pair(GSharedObject):
    def __init__(self):
        self.left = {}
        self.right = {}

    def copy_from(self, src):
        self.left = dict(src.left)
        self.right = dict(src.right)

    def _ping(self, key, depth):
        self.left[key] = depth
        if depth:
            self._pong(key, depth - 1)

    def _pong(self, key, depth):
        self.right[key] = depth
        if depth:
            self._ping(key, depth - 1)

    @modifies("left", "right")
    def bounce(self, key):
        self._ping(key, 2)
        return True
'''

UNRESOLVED_SOURCE = '''
from repro.core.shared_object import GSharedObject
from repro.spec import modifies


class Fog(GSharedObject):
    def __init__(self):
        self.data = {}

    def copy_from(self, src):
        self.data = dict(src.data)

    @modifies("data")
    def churn(self, key):
        self.missing_helper(key)
        self.data[key] = True
        return True
'''


class TestEngineEdges:
    def test_mutation_through_unresolved_local_is_opaque(self, tmp_path):
        # `holder` may alias the caller's bundle — the engine cannot
        # bound the write, so the footprint is opaque, not trusted.
        _, engine = _load_source(tmp_path, OPAQUE_SOURCE)
        fp = engine.footprint("Box", "stash")
        assert fp.complete
        assert fp.opaque
        assert not fp.trusted

    def test_mutual_recursion_terminates_with_union_footprint(self, tmp_path):
        _, engine = _load_source(tmp_path, CYCLE_SOURCE)
        fp = engine.footprint("Pair", "bounce")
        assert fp.complete
        assert set(fp.writes) == {"left", "right"}

    def test_unresolvable_call_marks_incomplete(self, tmp_path):
        _, engine = _load_source(tmp_path, UNRESOLVED_SOURCE)
        fp = engine.footprint("Fog", "churn")
        assert not fp.complete
        assert not fp.trusted

    def test_pair_verdicts(self):
        inc_a = Footprint(
            writes={"a": {"aug"}}, algebra={"a": "counter-inc"}, reads=set()
        )
        inc_b = Footprint(
            writes={"b": {"aug"}}, algebra={"b": "counter-inc"}, reads=set()
        )
        rebind_a = Footprint(
            writes={"a": {"rebind"}}, algebra={"a": None}, reads=set()
        )
        append_a = Footprint(
            writes={"a": {"mutate:append"}}, algebra={"a": "append"}, reads=set()
        )
        assert pair_verdict(inc_a, inc_b) == "disjoint"
        assert pair_verdict(inc_a, inc_a) == "commutes"
        assert pair_verdict(inc_a, rebind_a) == "interferes"
        assert pair_verdict(append_a, append_a) == "interferes"
        assert not is_certifiable("append")
        assert is_certifiable("counter-inc")

    def test_untrusted_footprints_never_certify(self):
        inc_a = Footprint(
            writes={"a": {"aug"}}, algebra={"a": "counter-inc"}, reads=set()
        )
        hazy = Footprint(
            writes={"b": {"aug"}},
            algebra={"b": "counter-inc"},
            reads=set(),
            opaque=True,
        )
        assert pair_verdict(inc_a, hazy) == "interferes"


# ---------------------------------------------------------------------------
# property tests

_IDENT = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
)


def _counter_class_source(attrs: list[str]) -> str:
    lines = [
        "from repro.core.shared_object import GSharedObject",
        "from repro.spec import modifies",
        "",
        "",
        "class Generated(GSharedObject):",
        "    def __init__(self):",
    ]
    lines += [f"        self.{attr} = {{}}" for attr in attrs]
    lines += ["", "    def copy_from(self, src):"]
    lines += [f"        self.{attr} = dict(src.{attr})" for attr in attrs]
    for attr in attrs:
        lines += [
            "",
            f'    @modifies("{attr}")',
            f"    def inc_{attr}(self, key):",
            f"        self.{attr}[key] = self.{attr}.get(key, 0) + 1",
            "        return True",
        ]
    return "\n".join(lines) + "\n"


class TestManifestProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(attrs=st.lists(_IDENT, min_size=2, max_size=3, unique=True))
    def test_disjoint_counters_symmetric_in_matrix(self, attrs):
        source = _counter_class_source(attrs)
        with tempfile.TemporaryDirectory() as tmp:
            context, engine = _load_source(Path(tmp), source)
        footprints = engine.operation_footprints(context.shared_classes["Generated"])
        matrix = engine.interference_matrix(footprints)
        ops = [f"inc_{attr}" for attr in attrs]
        for op_a in ops:
            for op_b in ops:
                a, b = sorted((op_a, op_b))
                verdict = matrix[f"{a}|{b}"]  # one key per unordered pair
                assert verdict == pair_verdict(footprints[op_a], footprints[op_b])
                assert verdict == ("commutes" if op_a == op_b else "disjoint")


# ---------------------------------------------------------------------------
# regression pins


class TestRegressionPins:
    def test_apps_and_workloads_are_gl006_clean(self):
        # Satellite of the GL006 audit: every in-tree frame was found
        # genuinely correct; keep it that way.
        report = analyze_paths(
            [APPS_DIR, WORKLOADS_DIR],
            rule_ids=["GL006", "GL007", "GL008"],
            root=REPO_ROOT,
        )
        assert report.findings == []

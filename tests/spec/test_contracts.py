"""Contract decorator tests: runtime checking semantics."""

import copy
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps  # noqa: F401 - registers every app's shared types
from repro.core.serialization import registered_type_names, resolve_shared_type
from repro.core.shared_object import GSharedObject
from repro.errors import ContractViolation
from repro.spec import contracts
from repro.spec.contracts import (
    contract_assertions,
    ensures,
    invariant,
    modifies,
    requires,
    set_checking,
)
from repro.spec.verifier import _contracted_members


@invariant(lambda self: self.level >= 0, "level is non-negative")
class Tank(GSharedObject):
    def __init__(self):
        self.level = 0
        self.label = "tank"

    def copy_from(self, src):
        self.level = src.level
        self.label = src.label

    @requires(lambda self, n: isinstance(n, int), "n is an int")
    @ensures(
        lambda old, self, result, n: (not result) or self.level == old["level"] + n,
        "level grows by n on success",
    )
    @modifies("level")
    def fill(self, n):
        if not isinstance(n, int) or n <= 0:
            return False
        self.level += n
        return True

    @modifies("level")
    def leak_without_reporting(self, n):
        # BUG on purpose: returns False after mutating.
        self.level += n
        return False

    @modifies("level")
    def sneaky_rename(self, n):
        # BUG on purpose: writes outside the frame.
        self.label = "renamed"
        return True

    @ensures(lambda old, self, result, n: self.level == old["level"] * n, "wrong spec")
    @modifies("level")
    def mislabeled(self, n):
        self.level += n
        return True


class TestRequires:
    def test_violation_raises(self):
        with pytest.raises(ContractViolation, match="requires"):
            Tank().fill("three")

    def test_satisfied_precondition_passes(self):
        tank = Tank()
        assert tank.fill(3) is True
        assert tank.level == 3


class TestConformance:
    def test_false_with_mutation_detected(self):
        with pytest.raises(ContractViolation, match="conformance"):
            Tank().leak_without_reporting(5)

    def test_false_without_mutation_fine(self):
        tank = Tank()
        assert tank.fill(-1) is False


class TestModifies:
    def test_out_of_frame_write_detected(self):
        with pytest.raises(ContractViolation, match="modifies"):
            Tank().sneaky_rename(1)


    def test_created_field_outside_frame_detected(self):
        """The frame used to be checked over the *old* fields only, so a
        field the operation creates slipped through."""
        crate = Crate()
        with pytest.raises(ContractViolation, match="modifies.*'extra'"):
            crate.creates_field()

    def test_deleted_field_is_not_the_same_as_none(self):
        crate = Crate()
        assert crate.note is None
        with pytest.raises(ContractViolation, match="modifies.*'note'"):
            crate.deletes_field()


class TestEnsures:
    def test_wrong_postcondition_detected(self):
        with pytest.raises(ContractViolation, match="ensures"):
            Tank().mislabeled(3)


class TestInvariant:
    def test_broken_entry_invariant_detected(self):
        tank = Tank()
        tank.level = -5
        with pytest.raises(ContractViolation, match="invariant"):
            tank.fill(1)


class TestSwitch:
    def test_checking_disabled_skips_everything(self):
        previous = set_checking(False)
        try:
            tank = Tank()
            tank.leak_without_reporting(5)  # bug, but unchecked
            assert tank.level == 5
        finally:
            set_checking(previous)

    def test_set_checking_returns_previous(self):
        assert set_checking(True) is True
        assert set_checking(False) is True
        assert set_checking(True) is False


class TestAssertionInventory:
    def test_counts_all_clause_kinds(self):
        assertions = contract_assertions(Tank)
        kinds = [a.kind for a in assertions]
        assert kinds.count("invariant") == 1
        assert kinds.count("requires") == 1
        assert kinds.count("ensures") == 2
        assert kinds.count("conformance") == 4  # one per contracted method
        # modifies("level") on 4 methods, frame excludes 'label' only.
        assert kinds.count("modifies") == 4

    def test_descriptions_survive(self):
        descriptions = {a.description for a in contract_assertions(Tank)}
        assert "level is non-negative" in descriptions
        assert "n is an int" in descriptions


# -- one snapshot per checked call ------------------------------------------------


@invariant(lambda self: self.level >= 0, "level is non-negative")
class Crate(GSharedObject):
    """Planted violators (and two honest methods) over nested state."""

    def __init__(self):
        self.level = 0
        self.rows = [[0, 0], [0, 0]]
        self.note = None

    def copy_from(self, src):
        self.level = src.level
        self.rows = [row[:] for row in src.rows]
        self.note = src.note

    @modifies("rows")
    def false_after_nested_write(self):
        self.rows[1][0] = 7
        return False

    @modifies("level")
    def writes_outside_frame(self):
        self.rows[0].append(1)
        return True

    @ensures(lambda old, self, result: self.rows == old["rows"], "rows kept")
    @modifies("rows")
    def breaks_ensures_on_old(self):
        self.rows[0][0] += 1
        return True

    @modifies("level")
    def breaks_invariant_at_exit(self):
        self.level = -1
        return True

    @modifies("level")
    def creates_field(self):
        self.level += 1
        self.extra = 5
        return True

    @modifies("level")
    def deletes_field(self):
        del self.note
        return True

    @modifies("rows")
    def framed(self, ok):
        if ok:
            self.rows[0][0] += 1
        return ok

    @requires(lambda self, ok: isinstance(ok, bool), "ok is a bool")
    def unframed(self, ok):
        if ok:
            self.rows[0][0] += 1
        return ok


def _fields(obj):
    return {k: v for k, v in obj.__dict__.items() if not k.startswith("_g_")}


def oracle_checked(obj, name, *args):
    """The ``checked`` wrapper as it was before it took one snapshot: a
    ``deepcopy`` of every field for ``old``, another to test conformance,
    a third for the frame.  Kept as the reference the new one must agree
    with on every verdict."""
    method = getattr(type(obj), name)
    fn, spec = method.__gspec_raw__, method.__gspec__
    subject = f"{type(obj).__name__}.{name}"
    for clause in spec.requires:
        if not clause.predicate(obj, *args):
            raise ContractViolation("requires", clause.description, subject)
    contracts._check_invariants(obj, subject, "entry")
    old = copy.deepcopy(_fields(obj))
    result = fn(obj, *args)
    if result is False and copy.deepcopy(_fields(obj)) != old:
        raise ContractViolation("conformance", "False but modified", subject)
    if spec.modifies is not None:
        new = copy.deepcopy(_fields(obj))
        for field_name, old_value in old.items():
            if field_name not in spec.modifies and new.get(field_name) != old_value:
                raise ContractViolation("modifies", field_name, subject)
    for clause in spec.ensures:
        if not clause.predicate(old, obj, result, *args):
            raise ContractViolation("ensures", clause.description, subject)
    contracts._check_invariants(obj, subject, "exit")
    return result


def _outcome(call):
    try:
        return ("returned", call())
    except ContractViolation as violation:
        return ("violated", violation.kind)
    except Exception as crash:  # noqa: BLE001 - an app choking on an ill-typed
        return ("crashed", type(crash).__name__)  # argument must choke both ways


def _agree(new_obj, oracle_obj, name, args):
    new = _outcome(lambda: getattr(new_obj, name)(*args))
    old = _outcome(lambda: oracle_checked(oracle_obj, name, *args))
    assert new == old, (name, args)
    assert _fields(new_obj) == _fields(oracle_obj), (name, args)
    return new


APP_TYPES = [
    cls
    for cls in map(resolve_shared_type, registered_type_names())
    if cls.__module__.startswith("repro.apps.")
]

WORDS = st.sampled_from(["ada", "bob", "cleo", "party", "vase", "v1", "pot", ""])
NUMBERS = st.integers(-2, 9)
ODDITIES = st.sampled_from([None, True, 2.5, "7"])


def _argument(annotation):
    typed = WORDS if "str" in str(annotation) else NUMBERS
    return st.one_of(typed, typed, typed, ODDITIES)  # mostly well-typed


class TestSameVerdictsAsTripleSnapshot:
    def test_every_app_method_is_covered(self):
        methods = [(cls, name) for cls in APP_TYPES for name in _contracted_members(cls)]
        assert len(APP_TYPES) == 10 and len(methods) == 41
        framed = [m for cls, m in methods if getattr(cls, m).__gspec__.modifies is not None]
        assert len(framed) == 40

    @pytest.mark.parametrize("cls", APP_TYPES, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_apps_agree_with_the_oracle(self, cls, data):
        """Random call sequences from a fresh object: each prefix is a
        drawn state, each call a drawn method with drawn arguments."""
        new_obj, oracle_obj = cls(), cls()
        methods = _contracted_members(cls)
        for _ in range(data.draw(st.integers(1, 12))):
            name = data.draw(st.sampled_from(methods))
            params = list(
                inspect.signature(getattr(cls, name).__gspec_raw__).parameters.values()
            )[1:]
            args = [data.draw(_argument(param.annotation)) for param in params]
            _agree(new_obj, oracle_obj, name, args)
        restored = cls()
        restored.set_state(new_obj.get_state())
        assert restored.state_equal(new_obj)

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("false_after_nested_write", "conformance"),
            ("writes_outside_frame", "modifies"),
            ("breaks_ensures_on_old", "ensures"),
            ("breaks_invariant_at_exit", "invariant"),
        ],
    )
    def test_planted_violators_agree_with_the_oracle(self, name, kind):
        assert _agree(Crate(), Crate(), name, []) == ("violated", kind)

    def test_the_oracle_has_the_frame_bug_the_new_check_fixes(self):
        assert oracle_checked(Crate(), "creates_field") is True
        assert oracle_checked(Crate(), "deletes_field") is True


class TestOneStateCopyPerCheckedCall:
    @pytest.fixture
    def copies(self, monkeypatch):
        """Top-level calls of the copier (it recurses through its own
        module, so the wrapper sees one call per field) and of deepcopy."""
        seen = {"copier": 0, "deepcopy": 0}

        def count(key, real):
            def counting(*args):
                seen[key] += 1
                return real(*args)

            return counting

        monkeypatch.setattr(contracts, "copy_plain", count("copier", contracts.copy_plain))
        monkeypatch.setattr(copy, "deepcopy", count("deepcopy", copy.deepcopy))
        return seen

    @pytest.mark.parametrize("method", ["framed", "unframed"])
    @pytest.mark.parametrize("ok", [True, False])
    def test_exactly_one(self, copies, method, ok):
        crate = Crate()
        assert getattr(crate, method)(ok) is ok
        assert copies == {"copier": len(_fields(crate)), "deepcopy": 0}

    def test_none_when_checking_is_off(self, copies):
        previous = set_checking(False)
        try:
            Crate().framed(True)
        finally:
            set_checking(previous)
        assert copies == {"copier": 0, "deepcopy": 0}


class TestOldIsIndependent:
    def test_old_does_not_follow_later_writes(self):
        seen = []

        class Ledger(GSharedObject):
            def __init__(self):
                self.rows = [[1], [2]]

            def copy_from(self, src):
                self.rows = [row[:] for row in src.rows]

            @ensures(lambda old, self, result: seen.append(old) or True, "capture")
            @modifies("rows")
            def touch(self):
                self.rows[0].append(9)
                return True

        ledger = Ledger()
        ledger.touch()
        ledger.rows[1].append(9)
        assert seen == [{"rows": [[1], [2]]}]

    def test_fallback_values_are_copied_and_compared(self):
        class Odd(GSharedObject):
            def __init__(self):
                self.pair = (1, [2])
                self.tags = {"a"}
                self.level = 0

            def copy_from(self, src):
                self.__dict__.update(copy.deepcopy(src.__dict__))

            @modifies("level")
            def honest(self, ok):
                self.level += ok
                return ok

            @modifies("level")
            def grows_a_set(self):
                self.tags.add("b")
                return True

            @modifies("level")
            def writes_inside_a_tuple(self):
                self.pair[1].append(3)
                return False

        assert Odd().honest(True) is True
        assert Odd().honest(False) is False
        with pytest.raises(ContractViolation, match="modifies.*'tags'"):
            Odd().grows_a_set()
        with pytest.raises(ContractViolation, match="conformance"):
            Odd().writes_inside_a_tuple()

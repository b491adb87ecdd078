"""Property: every protocol message type survives encode -> decode.

Hypothesis builds arbitrary instances of each dataclass in
:mod:`repro.runtime.messages` (and the storage-layer ``CommitRecord``)
and asserts that the wire codec round-trips them exactly — same value,
same field types (tuples stay tuples), and deterministically (same value
twice gives the same bytes).  A final meta-test walks the messages
module so a newly added message type that nobody registered fails loudly
here rather than at the first crash recovery.
"""

import dataclasses
import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import messages
from repro.storage.codec import decode_line, encode_line, registered_wire_types
from repro.storage.store import CommitRecord

machine_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)
round_ids = st.integers(min_value=-1, max_value=10**9)
op_numbers = st.integers(min_value=0, max_value=10**6)
orders = st.lists(machine_ids, max_size=5).map(tuple)
counts = st.lists(
    st.tuples(machine_ids, st.integers(0, 100)), max_size=5
).map(tuple)

# Encoded op payloads are JSON-shaped dicts (str keys, scalar-ish values).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
payloads = st.dictionaries(
    st.text(max_size=10),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
    max_size=4,
)

snapshots = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.tuples(st.text(min_size=1, max_size=10), payloads),
    max_size=4,
)

backlog_entries = st.tuples(
    machine_ids,
    op_numbers,
    payloads,
    st.booleans(),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=32),
)
backlogs = st.lists(backlog_entries, max_size=4).map(tuple)

MESSAGE_STRATEGIES = {
    "StartSync": st.builds(
        messages.StartSync, round_ids, orders, st.booleans()
    ),
    "YourTurn": st.builds(messages.YourTurn, round_ids, machine_ids, orders),
    "FlushDone": st.builds(
        messages.FlushDone, round_ids, machine_ids, st.integers(0, 1000)
    ),
    "BeginApply": st.builds(messages.BeginApply, round_ids, orders, counts),
    "ApplyAck": st.builds(
        messages.ApplyAck, round_ids, machine_ids, st.booleans()
    ),
    "ResendOpsRequest": st.builds(
        messages.ResendOpsRequest,
        round_ids,
        machine_ids,
        st.lists(st.tuples(machine_ids, op_numbers), max_size=5).map(tuple),
    ),
    "SyncComplete": st.builds(messages.SyncComplete, round_ids, st.booleans()),
    "WorkReady": st.builds(messages.WorkReady, machine_ids),
    "Hello": st.builds(
        messages.Hello, machine_ids, st.one_of(st.none(), st.integers(0, 10**6))
    ),
    "Welcome": st.builds(
        messages.Welcome,
        machine_ids,
        machine_ids,
        snapshots,
        st.integers(0, 10**6),
        st.one_of(st.none(), st.integers(0, 10**6)),
        backlogs,
    ),
    "WelcomeAck": st.builds(messages.WelcomeAck, machine_ids),
    "Goodbye": st.builds(messages.Goodbye, machine_ids),
    "ParticipantRemoved": st.builds(
        messages.ParticipantRemoved, round_ids, machine_ids, st.booleans()
    ),
    "Restart": st.builds(messages.Restart, machine_ids),
    "OpBatch": st.builds(
        messages.OpBatch,
        round_ids,
        machine_ids,
        st.integers(0, 100),
        st.integers(1, 100),
        st.lists(st.tuples(op_numbers, payloads), max_size=5).map(tuple),
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())

commit_records = st.builds(
    CommitRecord, round_ids, backlogs, st.integers(0, 10**6)
)


@settings(max_examples=200, deadline=None)
@given(message=any_message)
def test_every_message_round_trips(message):
    rebuilt = decode_line(encode_line(message))
    assert rebuilt == message
    assert type(rebuilt) is type(message)
    # Field types survive too (JSON lists must come back as tuples).
    for field in dataclasses.fields(message):
        assert type(getattr(rebuilt, field.name)) is type(
            getattr(message, field.name)
        )


@settings(max_examples=100, deadline=None)
@given(record=commit_records)
def test_commit_records_round_trip(record):
    assert decode_line(encode_line(record)) == record


@settings(max_examples=100, deadline=None)
@given(message=any_message)
def test_encoding_is_deterministic(message):
    assert encode_line(message) == encode_line(message)


def test_strategy_coverage_matches_messages_module():
    """Every dataclass in runtime.messages is exercised above and is a
    registered wire type — adding a message without registering it (or
    without a strategy here) fails this test."""
    message_types = {
        name
        for name, obj in inspect.getmembers(messages, inspect.isclass)
        if dataclasses.is_dataclass(obj) and obj.__module__ == messages.__name__
    }
    assert message_types == set(MESSAGE_STRATEGIES)
    assert message_types <= set(registered_wire_types())

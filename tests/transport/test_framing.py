"""Wire framing tests: encode/decode identity across arbitrary chunkings.

TCP gives no message boundaries, so the property that matters is not
just "decode(encode(f)) == f" but that :class:`FrameDecoder` reassembles
any *chunking* of any concatenation of frames — split length prefixes,
partial bodies, several frames coalesced into one read.  Hypothesis
drives both the frames and the cut points.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, SerializationError
from repro.runtime import messages as msg
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    PREFIX_BYTES,
    FrameDecoder,
    WireFrame,
    encode_frame,
    encode_frame_with_payload,
    encode_payload,
)

machine_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)
channels = st.sampled_from(["signals", "operations"])
seqs = st.integers(min_value=1, max_value=10**9)
times = st.floats(min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False)

# Payloads must be registered wire types; cover a scalar-ish message, a
# tuple-reviving one, and one carrying a nested dict payload.
payloads = st.one_of(
    st.builds(msg.Hello, machine_id=machine_ids),
    st.builds(
        msg.FlushDone,
        round_id=st.integers(0, 10**6),
        machine_id=machine_ids,
        count=st.integers(0, 10**4),
    ),
    st.builds(
        msg.StartSync,
        round_id=st.integers(0, 10**6),
        order=st.lists(machine_ids, max_size=4).map(tuple),
        parallel=st.booleans(),
    ),
    st.builds(
        msg.OpBatch,
        round_id=st.integers(0, 10**6),
        machine_id=machine_ids,
        seq=st.integers(0, 100),
        total=st.integers(1, 100),
        ops=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.dictionaries(
                    st.text(max_size=8), st.integers(-100, 100), max_size=4
                ),
            ),
            max_size=3,
        ).map(tuple),
    ),
)

frames = st.builds(
    WireFrame,
    channel=channels,
    sender=machine_ids,
    recipient=machine_ids,
    seq=seqs,
    sent_at=times,
    payload=payloads,
)


class TestRoundTrip:
    @given(frame=frames)
    @settings(max_examples=100, deadline=None)
    def test_single_frame_identity(self, frame):
        decoded = FrameDecoder().feed(encode_frame(frame))
        assert decoded == [frame]

    @given(
        frame_list=st.lists(frames, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_reassembles(self, frame_list, data):
        stream = b"".join(encode_frame(f) for f in frame_list)
        # Random cut points: every byte may start a new feed() call.
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(stream)), max_size=8, unique=True
                )
            )
        )
        decoder = FrameDecoder()
        decoded: list[WireFrame] = []
        previous = 0
        for cut in cuts + [len(stream)]:
            decoded.extend(decoder.feed(stream[previous:cut]))
            previous = cut
        assert decoded == frame_list
        assert decoder.pending_bytes == 0

    def test_byte_at_a_time(self):
        frame = WireFrame("signals", "a", "b", 7, 1.5, msg.Hello("a"))
        stream = encode_frame(frame)
        decoder = FrameDecoder()
        decoded = []
        for index in range(len(stream)):
            decoded.extend(decoder.feed(stream[index : index + 1]))
        assert decoded == [frame]

    def test_coalesced_frames_in_one_feed(self):
        parts = [
            WireFrame("signals", "a", "b", i, 0.0, msg.Hello("a"))
            for i in range(1, 4)
        ]
        decoder = FrameDecoder()
        assert decoder.feed(b"".join(encode_frame(f) for f in parts)) == parts


class TestErrors:
    def test_oversize_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_malformed_body_rejected(self):
        body = b"not json at all"
        data = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError):
            FrameDecoder().feed(data)

    def test_unregistered_payload_rejected_at_encode(self):
        frame = WireFrame("signals", "a", "b", 1, 0.0, object())
        with pytest.raises(SerializationError):
            encode_frame(frame)

    def test_pending_bytes_tracks_partial_frame(self):
        stream = encode_frame(
            WireFrame("operations", "a", "b", 1, 0.0, msg.Hello("a"))
        )
        decoder = FrameDecoder()
        assert decoder.feed(stream[: PREFIX_BYTES + 3]) == []
        assert decoder.pending_bytes == PREFIX_BYTES + 3
        assert len(decoder.feed(stream[PREFIX_BYTES + 3 :])) == 1
        assert decoder.pending_bytes == 0


class TestEncodeOncePath:
    """The broadcast fan-out splits encoding into payload + envelope;
    the split must be invisible on the wire."""

    @given(frame=frames)
    @settings(max_examples=100, deadline=None)
    def test_split_encode_is_byte_identical(self, frame):
        payload_json = encode_payload(frame.payload)
        assembled = encode_frame_with_payload(
            frame.channel,
            frame.sender,
            frame.recipient,
            frame.seq,
            frame.sent_at,
            payload_json,
        )
        assert assembled == encode_frame(frame)
        assert FrameDecoder().feed(assembled) == [frame]

    def test_payload_encodes_once_per_broadcast(self):
        payload_json = encode_payload(msg.Hello("m01"))
        stamped = {
            peer: encode_frame_with_payload(
                "signals", "m01", peer, 9, 1.25, payload_json
            )
            for peer in ("m02", "m03", "m04")
        }
        for peer, data in stamped.items():
            assert FrameDecoder().feed(data) == [
                WireFrame("signals", "m01", peer, 9, 1.25, msg.Hello("m01"))
            ]

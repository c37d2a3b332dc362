"""Unit tests for packets, their wire frames and counted payload references."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerializationError
from repro.core.packet import (
    GLOBAL_PACKET_STATS,
    HEADER_FMT,
    Packet,
    PayloadRef,
    make_packet,
    total_nbytes,
)
from repro.core.serialization import pack_payload
from repro.telemetry.trace import TraceContext, TraceHop


class TestPacket:
    def test_values_accessible(self):
        p = make_packet(1, 100, "%d %s", 42, "hi")
        assert p.values == (42, "hi")
        assert p[0] == 42
        assert len(p) == 2
        assert p.unpack() == (42, "hi")

    def test_validation_at_construction(self):
        with pytest.raises(SerializationError):
            make_packet(1, 100, "%d", "not-an-int")

    def test_wire_roundtrip(self):
        p = Packet(3, 105, "%d %af %s", (7, np.array([1.0, 2.0]), "x"), src=9)
        q = Packet.from_bytes(p.to_bytes())
        assert q.stream_id == 3
        assert q.tag == 105
        assert q.src == 9
        assert q.fmt == "%d %af %s"
        assert q.values[0] == 7
        assert np.array_equal(q.values[1], [1.0, 2.0])
        assert q.values[2] == "x"

    def test_with_values_same_stream_tag(self):
        p = make_packet(2, 101, "%d", 1)
        q = p.with_values([5])
        assert (q.stream_id, q.tag, q.fmt) == (2, 101, "%d")
        assert q.values == (5,)

    def test_with_values_new_format(self):
        p = make_packet(2, 101, "%d", 1)
        q = p.with_values([1.5], fmt="%f")
        assert q.fmt == "%f"

    def test_hop_counts(self):
        p = make_packet(1, 100, "%d", 1)
        assert p.hops == 0
        p.hop()
        assert p.hops == 1

    def test_nbytes(self):
        p = make_packet(1, 100, "%ad", np.arange(10, dtype=np.int64))
        assert p.nbytes() == 4 + 80
        assert total_nbytes([p, p]) == 2 * (4 + 80)

    def test_seq_monotonic(self):
        a = make_packet(1, 100, "%d", 1)
        b = make_packet(1, 100, "%d", 1)
        assert b.seq > a.seq


class TestPayloadRef:
    def test_serialize_once(self):
        GLOBAL_PACKET_STATS.reset()
        p = make_packet(1, 100, "%af", np.arange(100, dtype=np.float64))
        ref = p.payload_ref()
        buf1 = ref.serialize()
        buf2 = ref.serialize()
        assert buf1 is buf2
        assert GLOBAL_PACKET_STATS.serializations == 1

    def test_multicast_shares_one_buffer(self):
        """A k-way multicast must serialize exactly once (zero-copy)."""
        GLOBAL_PACKET_STATS.reset()
        p = make_packet(1, 100, "%af", np.arange(64, dtype=np.float64))
        ref = p.payload_ref()
        k = 8
        ref.incref(k - 1)
        assert ref.refcount == k
        for _ in range(k):
            ref.serialize()
            ref.decref()
        assert GLOBAL_PACKET_STATS.serializations == 1
        assert GLOBAL_PACKET_STATS.max_refcount == k
        assert ref.refcount == 0

    def test_refcount_underflow_rejected(self):
        ref = PayloadRef("%d", (1,))
        ref.decref()
        with pytest.raises(SerializationError):
            ref.decref()

    def test_buffer_dropped_at_zero(self):
        ref = PayloadRef("%d", (1,))
        ref.serialize()
        ref.decref()
        assert ref._buffer is None

    def test_payload_ref_cached_on_packet(self):
        p = make_packet(1, 100, "%d", 1)
        assert p.payload_ref() is p.payload_ref()


# -- wire encode/decode: byte identity and fuzzing ------------------------------

_I64 = st.integers(-(2**63), 2**63 - 1)
_LEN32 = struct.Struct("<I")

#: One strategy per format directive, producing a value it accepts.
_DIRECTIVE_VALUES = {
    "c": st.characters(max_codepoint=0xFF),
    "b": st.booleans(),
    "d": _I64,
    "ud": st.integers(0, 2**64 - 1),
    "f": st.floats(allow_nan=False),
    "s": st.text(max_size=12),
    "ac": st.binary(max_size=12),
    "ad": st.lists(_I64, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    "aud": st.lists(st.integers(0, 2**64 - 1), max_size=4).map(
        lambda v: np.array(v, dtype=np.uint64)
    ),
    "ad32": st.lists(st.integers(-(2**31), 2**31 - 1), max_size=4).map(
        lambda v: np.array(v, dtype=np.int32)
    ),
    "af": st.lists(st.floats(allow_nan=False), max_size=4).map(
        lambda v: np.array(v, dtype=np.float64)
    ),
    "af32": st.lists(st.floats(width=32, allow_nan=False), max_size=4).map(
        lambda v: np.array(v, dtype=np.float32)
    ),
    "as": st.lists(st.text(max_size=6), max_size=3),
    "am": st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda rc: np.arange(rc[0] * rc[1], dtype=np.float64).reshape(rc)
    ),
    "o": st.dictionaries(st.text(max_size=4), st.integers(-5, 5), max_size=3),
}

_traces = st.lists(
    st.tuples(st.integers(-5, 5), st.floats(0, 1e6), st.text(max_size=6)),
    min_size=1,
    max_size=3,
).map(
    lambda hops: TraceContext(
        7, tuple(TraceHop(node, t, t, name) for node, t, name in hops)
    )
)


@st.composite
def packets(draw):
    codes = draw(st.lists(st.sampled_from(sorted(_DIRECTIVE_VALUES)), min_size=1, max_size=4))
    values = [draw(_DIRECTIVE_VALUES[c]) for c in codes]
    return Packet(
        draw(_I64),
        draw(_I64),
        " ".join("%" + c for c in codes),
        values,
        src=draw(_I64),
        hops=draw(_I64),
        trace=draw(st.none() | _traces),
    )


def reference_frame(p: Packet) -> bytes:
    """The frame as the generic interpreter builds it (docs/PROTOCOL.md §2)."""
    sections = [
        pack_payload(HEADER_FMT, (p.stream_id, p.tag, p.src, p.hops, p.fmt)),
        pack_payload(p.fmt, p.values),
    ]
    if p.trace is not None:
        sections.append(p.trace.to_bytes())
    return b"".join(_LEN32.pack(len(s)) + s for s in sections)


def decode_or_reject(data: bytes) -> None:
    """The only outcomes allowed on untrusted bytes: a packet or SerializationError."""
    try:
        Packet.from_bytes(data)
    except SerializationError:
        pass


class TestWireFormat:
    @settings(max_examples=300, deadline=None)
    @given(packets())
    def test_to_bytes_matches_generic_interpreter(self, p):
        frame = p.to_bytes()
        assert frame == reference_frame(p)
        q = Packet.from_bytes(frame)
        assert (q.stream_id, q.tag, q.src, q.hops, q.fmt) == (
            p.stream_id, p.tag, p.src, p.hops, p.fmt
        )
        assert q.to_bytes() == frame

    def test_hop_repacks_header_not_payload(self):
        GLOBAL_PACKET_STATS.reset()
        p = make_packet(1, 100, "%af", np.arange(8, dtype=np.float64))
        first = p.to_bytes()
        p.hop()
        second = p.to_bytes()
        assert first != second and second == reference_frame(p)
        assert GLOBAL_PACKET_STATS.serializations == 1

    def test_payload_ref_adopts_packed_payload(self):
        GLOBAL_PACKET_STATS.reset()
        p = make_packet(1, 100, "%d", 5)
        p.to_bytes()
        assert p.payload_ref().serialize() == pack_payload("%d", (5,))
        assert GLOBAL_PACKET_STATS.serializations == 1

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96))
    def test_random_bytes(self, data):
        decode_or_reject(data)

    @settings(max_examples=200, deadline=None)
    @given(packets(), st.data())
    def test_truncations_and_byte_mutations(self, p, data):
        frame = p.to_bytes()
        cut = data.draw(st.integers(0, len(frame) - 1))
        decode_or_reject(frame[:cut])
        pos = data.draw(st.integers(0, len(frame) - 1))
        mutated = bytearray(frame)
        mutated[pos] = data.draw(st.integers(0, 255))
        decode_or_reject(bytes(mutated))
        decode_or_reject(frame + data.draw(st.binary(min_size=1, max_size=8)))

    @pytest.mark.parametrize(
        "fmt,payload",
        [
            ("%s", _LEN32.pack(2) + b"\xff\xfe"),
            ("%as", _LEN32.pack(1) + _LEN32.pack(1) + b"\x80"),
            ("%d %s", struct.pack("<q", 1) + _LEN32.pack(1) + b"\xc3"),
            ("%b", b""),
            ("%c", b""),
            ("%d %s", struct.pack("<q", 1)),
        ],
    )
    def test_malformed_payload_is_serialization_error(self, fmt, payload):
        header = pack_payload(HEADER_FMT, (1, 100, -1, 0, fmt))
        frame = _LEN32.pack(len(header)) + header + _LEN32.pack(len(payload)) + payload
        with pytest.raises(SerializationError):
            Packet.from_bytes(frame)

    def test_format_string_not_utf8(self):
        frame = bytearray(make_packet(1, 100, "%d", 0).to_bytes())
        fmt_at = frame.index(b"%d")
        frame[fmt_at : fmt_at + 2] = b"\xff\xfe"
        with pytest.raises(SerializationError):
            Packet.from_bytes(bytes(frame))

    def test_malformed_trace_section(self):
        frame = make_packet(1, 100, "%d", 0).to_bytes()
        with pytest.raises(SerializationError):
            Packet.from_bytes(frame + _LEN32.pack(3) + b"\x01\x02\x03")

"""Application-level packets and counted payload references.

A :class:`Packet` is the unit of data flowing through a TBON: it names a
stream, carries an application *tag*, and holds a typed payload described
by an MRNet-style format string (see :mod:`repro.core.serialization`).

MRNet's high-performance communication layer "uses counted packet
references to place a single packet object into multiple outgoing packet
buffers and performs the requisite garbage collection when the packet is
no longer referenced".  :class:`PayloadRef` reproduces that design: when
an internal node multicasts a packet to *k* children, all *k* channel
entries share one serialized buffer; the buffer's serialization happens
at most once, and explicit reference counts (observable via
:class:`PacketStats`) let tests assert the single-copy property.  A
packet that is never multicast never creates one: its payload bytes are
memoized on the packet itself.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from threading import get_ident
from typing import Any, Iterable, Sequence

from ..analysis.locks import make_lock
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from ..telemetry.trace import TraceContext
from .errors import SerializationError
from .serialization import (
    pack_payload,
    payload_nbytes,
    unpack_payload,
    validate_values,
)

__all__ = ["Packet", "PayloadRef", "PacketStats", "make_packet"]

_packet_seq = itertools.count()

#: Wire format of the per-packet control header (see docs/PROTOCOL.md §2).
HEADER_FMT = "%d %d %d %d %s"

_LEN = struct.Struct("<I")

#: :data:`HEADER_FMT` compiled by hand: stream id, tag, src, hops, then
#: the byte length of the UTF-8 format string that follows.  One pack
#: gives the same bytes as ``pack_payload(HEADER_FMT, ...)``.
_HEADER = struct.Struct("<qqqqI")

_frame_cache_hits = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "hit"})
_frame_cache_misses = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "miss"})


@lru_cache(maxsize=1024)
def _fmt_to_wire(fmt: str) -> bytes:
    return fmt.encode("utf-8")


@lru_cache(maxsize=1024)
def _fmt_from_wire(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"packet format string is not UTF-8: {exc}") from exc


class PacketStats:
    """Counters for payload-buffer behaviour (zero-copy accounting).

    Attributes:
        serializations: number of times a payload was packed to bytes.
        max_refcount: the largest refcount ever observed on one buffer
            (``k`` after a k-way multicast that shared a single buffer).
    """

    def __init__(self) -> None:
        # Packs per thread id: every thread adds to its own entry, so the
        # per-packet count needs no lock (same scheme as the telemetry
        # counters).
        self._packs: dict[int, int] = {}
        self.max_refcount = 0
        self._lock = make_lock("packet_stats")

    @property
    def serializations(self) -> int:
        return sum(self._packs.values())

    def count_pack(self) -> None:
        packs = self._packs
        tid = get_ident()
        try:
            packs[tid] += 1
        except KeyError:
            packs[tid] = 1

    def reset(self) -> None:
        with self._lock:
            self._packs.clear()
            self.max_refcount = 0


#: Process-global stats instance; tests may reset it around a scenario.
GLOBAL_PACKET_STATS = PacketStats()


def _pack_counted(fmt: str, values: Sequence[Any]) -> bytes:
    """Pack one payload; the only place a payload is serialized."""
    buf = pack_payload(fmt, values)
    GLOBAL_PACKET_STATS.count_pack()
    return buf


class PayloadRef:
    """A reference-counted serialized payload buffer.

    The buffer is created lazily on first :meth:`serialize` (or handed
    over by a packet that already packed it) and shared by every holder;
    :meth:`incref`/:meth:`decref` track ownership the same way MRNet's
    counted packet references do.  When the count reaches zero the
    buffer is dropped (Python's GC would reclaim it anyway — the explicit
    count exists so the single-serialization invariant is observable and
    testable).
    """

    __slots__ = ("_fmt", "_values", "_buffer", "_refcount", "_lock")

    def __init__(
        self, fmt: str, values: tuple[Any, ...], buffer: bytes | None = None
    ) -> None:
        self._fmt = fmt
        self._values = values
        self._buffer: bytes | None = buffer  # tbon: lock=_lock
        self._refcount = 1  # tbon: lock=_lock
        self._lock = make_lock("payload_ref")

    @property
    def refcount(self) -> int:
        return self._refcount

    def incref(self, n: int = 1) -> "PayloadRef":
        with self._lock:
            self._refcount += n
            with GLOBAL_PACKET_STATS._lock:
                if self._refcount > GLOBAL_PACKET_STATS.max_refcount:
                    GLOBAL_PACKET_STATS.max_refcount = self._refcount
        return self

    def decref(self, n: int = 1) -> None:
        with self._lock:
            self._refcount -= n
            if self._refcount < 0:
                raise SerializationError("PayloadRef refcount went negative")
            if self._refcount == 0:
                self._buffer = None

    def serialize(self) -> bytes:
        """Pack the payload, caching the buffer so packing happens once."""
        with self._lock:
            if self._buffer is None:
                self._buffer = _pack_counted(self._fmt, self._values)
            return self._buffer


class Packet:
    """One application-level packet.

    Attributes:
        stream_id: id of the stream this packet belongs to.
        tag: application-defined integer tag (tags below
            :data:`repro.core.events.FIRST_APPLICATION_TAG` are reserved
            for the control plane).
        fmt: MRNet-style format string describing the payload.
        src: rank of the originating endpoint (-1 if unknown).
        hops: number of communication processes traversed so far.
    """

    __slots__ = (
        "stream_id",
        "tag",
        "fmt",
        "src",
        "hops",
        "seq",
        "trace",
        "_values",
        "_ref",
        "_payload",
        "_frame",
        "_frame_hops",
    )

    def __init__(
        self,
        stream_id: int,
        tag: int,
        fmt: str,
        values: Sequence[Any],
        *,
        src: int = -1,
        hops: int = 0,
        trace: TraceContext | None = None,
        _validated: bool = False,
    ) -> None:
        self.stream_id = int(stream_id)
        self.tag = int(tag)
        self.fmt = fmt
        self.src = int(src)
        self.hops = int(hops)
        self.seq = next(_packet_seq)
        self.trace = trace
        vals = tuple(values) if _validated else validate_values(fmt, values)
        self._values = vals
        self._ref: PayloadRef | None = None
        self._payload: bytes | None = None
        self._frame: bytes | None = None
        self._frame_hops = -1

    # -- payload access ------------------------------------------------
    @property
    def values(self) -> tuple[Any, ...]:
        """The typed payload values (coerced per the format string)."""
        return self._values

    def unpack(self) -> tuple[Any, ...]:
        """MRNet-flavoured alias for :attr:`values`."""
        return self._values

    def __getitem__(self, idx: int) -> Any:
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._values)

    # -- serialization ---------------------------------------------------
    def payload_ref(self) -> PayloadRef:
        """Return the shared counted payload reference, creating it lazily.

        Only a multicast asks for one; it adopts the payload bytes if this
        packet already packed them, and its buffer becomes this packet's
        payload memo otherwise, so the payload is still packed once.
        """
        if self._ref is None:
            self._ref = PayloadRef(self.fmt, self._values, self._payload)
        return self._ref

    def _payload_bytes(self) -> bytes:
        body = self._payload
        if body is None:
            ref = self._ref
            if ref is None:
                body = _pack_counted(self.fmt, self._values)
            else:
                body = ref.serialize()
            self._payload = body
        return body

    def nbytes(self) -> int:
        """Serialized payload size in bytes (without header)."""
        return payload_nbytes(self.fmt, self._values)

    def to_bytes(self) -> bytes:
        """Serialize header + payload to a transport frame body.

        The frame is memoized on the packet: everything below the header
        is immutable, and the only mutable header field is ``hops`` (via
        :meth:`hop`), so the cache is keyed by the hop count at
        serialization time.  A k-way multicast therefore serializes once
        and writes the identical buffer k times — MRNet's serialize-once
        contract, covering header bytes as well as the payload.  A new
        hop count re-packs only the header; the payload bytes are
        memoized separately.
        """
        frame = self._frame
        if frame is not None and self._frame_hops == self.hops:
            if _TEL.enabled:
                _frame_cache_hits.inc()
            return frame
        if _TEL.enabled:
            _frame_cache_misses.inc()
        fmt_raw = _fmt_to_wire(self.fmt)
        try:
            header = _HEADER.pack(
                self.stream_id, self.tag, self.src, self.hops, len(fmt_raw)
            )
        except struct.error as exc:
            raise SerializationError(f"packet header field out of range: {exc}") from exc
        body = self._payload_bytes()
        # Same bytes as pack_payload("%ac %ac", (header, body)), plus the
        # optional length-prefixed trace section.
        parts = [
            _LEN.pack(_HEADER.size + len(fmt_raw)),
            header,
            fmt_raw,
            _LEN.pack(len(body)),
            body,
        ]
        if self.trace is not None:
            tb = self.trace.to_bytes()
            parts += (_LEN.pack(len(tb)), tb)
        frame = b"".join(parts)
        self._frame = frame
        self._frame_hops = self.hops
        return frame

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "Packet":
        """Inverse of :meth:`to_bytes` (accepts any bytes-like buffer).

        The frame is two (untraced) or three (traced) length-prefixed
        sections.  The input is untrusted: every malformed frame —
        truncated, with trailing bytes, a header whose lengths disagree,
        a format string that is not UTF-8 or not a valid format, or a
        payload or trace section that does not decode — raises
        :class:`SerializationError` and nothing else.
        """
        mv = memoryview(data)
        total = len(mv)
        if total < 8 + _HEADER.size:
            raise SerializationError("truncated packet frame")
        (header_len,) = _LEN.unpack_from(mv, 0)
        stream_id, tag, src, hops, fmt_len = _HEADER.unpack_from(mv, 4)
        if header_len != _HEADER.size + fmt_len:
            raise SerializationError("packet header length does not match its fields")
        offset = 4 + header_len
        if offset + 4 > total:
            raise SerializationError("truncated packet frame")
        fmt = _fmt_from_wire(bytes(mv[4 + _HEADER.size : offset]))
        (length,) = _LEN.unpack_from(mv, offset)
        offset += 4
        end = offset + length
        if end > total:
            raise SerializationError("truncated packet frame")
        body = mv[offset:end]
        trace: TraceContext | None = None
        if end < total:
            if end + 4 > total:
                raise SerializationError("truncated packet frame")
            (length,) = _LEN.unpack_from(mv, end)
            offset = end + 4
            end = offset + length
            if end > total:
                raise SerializationError("truncated packet frame")
            trace = _trace_from_wire(bytes(mv[offset:end]))
        if end != total:
            raise SerializationError(
                f"{total - end} trailing byte(s) after packet frame"
            )
        values = unpack_payload(fmt, body)
        return cls(
            stream_id,
            tag,
            fmt,
            values,
            src=src,
            hops=hops,
            trace=trace,
            _validated=True,
        )

    # -- misc -------------------------------------------------------------
    def with_values(self, values: Sequence[Any], *, fmt: str | None = None) -> "Packet":
        """A new packet on the same stream/tag with a different payload.

        The trace context is deliberately *not* copied: the node event
        loop attaches the critical-path trace to transform outputs
        itself (one sanctioned :meth:`attach_trace` site), so a filter
        building packets with ``with_values`` cannot duplicate hops.
        """
        return Packet(
            self.stream_id,
            self.tag,
            self.fmt if fmt is None else fmt,
            values,
            src=self.src,
            hops=self.hops,
        )

    def hop(self) -> "Packet":
        """Record traversal of one communication process (in place)."""
        self.hops += 1
        return self

    def attach_trace(self, trace: TraceContext | None) -> "Packet":
        """Attach or replace the causal trace context (in place).

        Like :meth:`hop`, this is a sanctioned mutation: the memoized
        frame is invalidated so the trace section is re-serialized.
        Traced packets are sampled (rare), so the extra serialization
        does not affect the multicast fast path.  Outside this module,
        assigning ``.trace`` directly is flagged by tboncheck TB204 —
        use this method.
        """
        self.trace = trace
        self._frame = None
        self._frame_hops = -1
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vals = ", ".join(
            f"{v!r}" if not hasattr(v, "shape") else f"<array {getattr(v, 'shape')}>"
            for v in self._values[:4]
        )
        if len(self._values) > 4:
            vals += ", ..."
        return (
            f"Packet(stream={self.stream_id}, tag={self.tag}, fmt={self.fmt!r}, "
            f"src={self.src}, [{vals}])"
        )


def _trace_from_wire(raw: bytes) -> TraceContext:
    try:
        return TraceContext.from_bytes(raw)
    except (struct.error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise SerializationError(f"malformed trace section: {exc}") from exc


def make_packet(
    stream_id: int, tag: int, fmt: str, *values: Any, src: int = -1
) -> Packet:
    """Convenience constructor: ``make_packet(s, t, "%d %f", 3, 2.5)``."""
    return Packet(stream_id, tag, fmt, values, src=src)


def total_nbytes(packets: Iterable[Packet]) -> int:
    """Sum of serialized payload sizes for a batch of packets."""
    return sum(p.nbytes() for p in packets)

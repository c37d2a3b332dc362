"""TCP transport: the process tree over real localhost sockets.

The paper's TBONs "use network transport protocols, like TCP, to
implement data multicast, gather and reduction services"; this transport
runs the identical middleware over genuine TCP connections.  One
listening socket per rank, one connection per tree edge (established
child→parent at bind time), one reader thread per connection side.

Wire format per frame (all little-endian)::

    u32 length | u8 direction (0=up, 1=down) | i32 src rank | packet bytes

Packets are serialized with :meth:`repro.core.packet.Packet.to_bytes`,
which memoizes the whole wire frame (header + counted payload buffer):
:meth:`TCPTransport.multicast` calls ``to_bytes`` exactly once per
k-way multicast and writes the identical buffer to k sockets.  Sends use
scatter-gather ``socket.sendmsg([frame_header, body])`` so the 9-byte
transport header is never concatenated onto the packet bytes, and each
reader thread fills a reusable receive buffer with ``recv_into`` —
no per-chunk allocations on either side of a frame.

The transport binds 127.0.0.1 only; it demonstrates the real-socket data
path, not multi-host deployment (see DESIGN.md, out of scope).
"""

from __future__ import annotations

import logging
import random
import socket
import struct
import threading
import time
from typing import Any, Sequence

from ..analysis.locks import make_lock
from ..core.errors import ChannelClosedError, TransportError
from ..core.events import Direction, Envelope
from ..core.packet import Packet
from ..core.topology import Topology
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from .base import Inbox, Transport

__all__ = [
    "TCPTransport",
    "establish_edges",
    "connect_with_backoff",
    "send_rank_hello",
    "recv_rank_hello",
]

_LOG = logging.getLogger(__name__)

# Process-wide transport instruments (GLOBAL registry: sockets are shared
# process infrastructure, not per-node state).  Created once at import so
# the disabled hot path stays a single ``_TEL.enabled`` attribute check.
_m_tx_bytes = _TELEMETRY.counter(
    "tbon_transport_bytes_total", {"transport": "tcp", "direction": "sent"}
)
_m_rx_bytes = _TELEMETRY.counter(
    "tbon_transport_bytes_total", {"transport": "tcp", "direction": "received"}
)
_m_send_lat = _TELEMETRY.histogram(
    "tbon_transport_send_seconds", {"transport": "tcp"}
)
_m_recv_lat = _TELEMETRY.histogram(
    "tbon_transport_recv_seconds", {"transport": "tcp"}
)
# Recovery instruments shared by both socket transports (the Registry's
# get-or-create semantics make this the same counter object the reactor
# module and docs/RELIABILITY.md refer to).
_m_reconnects = _TELEMETRY.counter("tbon_recovery_reconnects_total")

_HDR = struct.Struct("<IBi")
_RANK_HELLO = struct.Struct("<i")

# Direction <-> u8 wire code; the codes themselves live on Direction so
# the threaded and reactor framers share one encoding.
_DIR_CODE = {d: d.wire_code for d in Direction}
_CODE_DIR = {d.wire_code: d for d in Direction}


def _recv_into_exact(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from the socket (no intermediate buffers)."""
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed")
        view = view[got:]


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Compatibility helper for fixed-size reads (handshake, tests)."""
    buf = bytearray(n)
    _recv_into_exact(sock, memoryview(buf))
    return bytes(buf)


def send_rank_hello(sock: socket.socket, rank: int) -> None:
    """Blocking half of the connect handshake: announce our rank.

    Lives here (not in the reactor module) because bind-time sockets are
    still blocking; the reactor package is forbidden from issuing direct
    blocking socket calls (tboncheck TB601).
    """
    sock.sendall(_RANK_HELLO.pack(rank))


def recv_rank_hello(sock: socket.socket) -> int:
    """Blocking accept half of the handshake: read the peer's rank."""
    (rank,) = _RANK_HELLO.unpack(_recv_exact(sock, _RANK_HELLO.size))
    return rank


def establish_edges(
    host: str,
    connect_timeout: float,
    topology: Topology,
    on_connection: Any,
) -> dict[int, socket.socket]:
    """Open every tree-edge socket pair and hand them to ``on_connection``.

    One listening socket per rank with children; children connect
    child→parent and announce themselves with the rank hello.  Each
    established socket (TCP_NODELAY set, still blocking) is passed to
    ``on_connection(owner_rank, peer_rank, sock)`` — once for the
    parent-side socket and once for the child-side socket of each edge.
    Accepting runs on transient per-listener threads so a wide flat
    topology binds in one round trip, not fanout round trips.

    Shared by the threaded and reactor transports; returns the listener
    sockets by rank (the caller owns closing them at shutdown).
    """
    listeners: dict[int, socket.socket] = {}
    ports: dict[int, int] = {}
    for rank in topology.ranks:
        if topology.children(rank):
            srv = socket.create_server((host, 0))
            srv.settimeout(connect_timeout)
            listeners[rank] = srv
            ports[rank] = srv.getsockname()[1]

    accept_errors: list[Exception] = []

    def accept_all(rank: int, srv: socket.socket, n: int) -> None:
        try:
            for _ in range(n):
                conn, _addr = srv.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                child = recv_rank_hello(conn)
                on_connection(rank, child, conn)
        except Exception as exc:  # surfaced after join
            accept_errors.append(exc)

    acceptors = []
    for rank, srv in listeners.items():
        t = threading.Thread(
            target=accept_all,
            args=(rank, srv, len(topology.children(rank))),
            name=f"tbon-tcp-accept-{rank}",
            daemon=True,
        )
        t.start()
        acceptors.append(t)

    for parent, child in topology.iter_edges():
        sock = socket.create_connection(
            (host, ports[parent]), timeout=connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_rank_hello(sock, child)
        on_connection(child, parent, sock)

    for t in acceptors:
        t.join(connect_timeout)
    if accept_errors:
        for srv in listeners.values():
            srv.close()
        raise TransportError(f"TCP accept failed: {accept_errors[0]}")
    return listeners


def connect_with_backoff(
    host: str,
    port: int,
    rank: int,
    *,
    connect_timeout: float,
    attempts: int = 6,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    rng: random.Random | None = None,
) -> socket.socket:
    """Connect to a listener and announce ``rank``, retrying with backoff.

    Recovery-path counterpart of the bind-time ``create_connection``:
    while an edge is being repaired the peer's accept thread may not be
    up yet, so connection refusals are retried with capped exponential
    backoff plus jitter (``delay = min(base * 2^n, cap) * U[0.5, 1.0)``
    — the jitter keeps k children re-parented onto one grandparent from
    hammering its listener in lockstep).  Raises
    :class:`TransportError` once the attempts are exhausted.
    """
    jitter = (rng or random).random
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_rank_hello(sock, rank)
            return sock
        except OSError as exc:
            last = exc
            delay = min(base_delay * (2**attempt), max_delay)
            time.sleep(delay * (0.5 + jitter() / 2))
    raise TransportError(
        f"rank {rank} could not reconnect to {host}:{port} "
        f"after {attempts} attempts: {last}"
    )


class _Connection:
    """One side of a TCP channel: framed writes plus a reader thread."""

    def __init__(
        self,
        sock: socket.socket,
        inbox: Inbox,
        owner_rank: int,
        closing: threading.Event | None = None,
    ):
        self.sock = sock
        self.inbox = inbox
        self.owner_rank = owner_rank
        self._wlock = make_lock("tcp_write")
        self._closed = threading.Event()
        # Per-edge teardown flag: recovery tears individual channels down
        # (dead-node disconnect, rebind dropping stale edges) while the
        # transport as a whole keeps running, so the reader needs an
        # edge-local analogue of the transport-wide flag below.
        self._expected = threading.Event()
        # Transport-wide teardown flag: during an orderly shutdown the
        # peer's FIN may beat our own close(), and that is not an error.
        self._transport_closing = closing or threading.Event()
        self.reader = threading.Thread(
            target=self._read_loop, name=f"tbon-tcp-read-{owner_rank}", daemon=True
        )
        self.reader.start()

    def expect_close(self) -> None:
        """Mark the coming teardown of this edge as orderly.

        Both sides of a recovered edge live in this process, so the
        peer's reader would otherwise observe our close as a peer crash
        and log a spurious termination warning.
        """
        self._expected.set()

    @property
    def _teardown(self) -> bool:
        return (
            self._closed.is_set()
            or self._expected.is_set()
            or self._transport_closing.is_set()
        )

    def _read_loop(self) -> None:
        # One reusable receive buffer per connection, grown to the
        # largest frame seen; recv_into writes socket data straight into
        # it and Packet.from_bytes parses a view over it, so a frame
        # costs zero transport-side copies beyond the kernel's.
        hdr_buf = bytearray(_HDR.size)
        hdr_view = memoryview(hdr_buf)
        body_buf = bytearray(65536)
        try:
            # Gate on the transport-wide closing flag *before* blocking in
            # recv, not only in the except clause below: at high fanout,
            # shutdown() closes hundreds of sockets while their readers
            # are parked mid-``recv_into``, and a reader that re-entered
            # the loop just before its socket died would otherwise race
            # past the post-hoc check and log a spurious "terminated".
            while not self._teardown:
                _recv_into_exact(self.sock, hdr_view)
                t0 = time.perf_counter() if _TEL.enabled else 0.0
                length, dir_code, src = _HDR.unpack(hdr_buf)
                if length > len(body_buf):
                    body_buf = bytearray(length)
                body_view = memoryview(body_buf)[:length]
                _recv_into_exact(self.sock, body_view)
                packet = Packet.from_bytes(body_view)
                self.inbox.put(
                    Envelope(src=src, direction=_CODE_DIR[dir_code], packet=packet)
                )
                if _TEL.enabled:
                    # Frame-processing latency: body recv + parse + enqueue
                    # (the header wait above is idle time, not work).
                    _m_recv_lat.observe(time.perf_counter() - t0)
                    _m_rx_bytes.inc(_HDR.size + length)
        except (ConnectionError, OSError, ChannelClosedError) as exc:
            # Expected when close() tore the connection down; anything
            # else (peer crash, malformed frame killing from_bytes) must
            # not vanish with the reader thread.
            if not self._teardown:
                _LOG.warning(
                    "tcp reader for rank %d terminated: %s", self.owner_rank, exc
                )

    def send(self, src: int, direction: Direction, packet: Packet) -> None:
        self.send_frame(src, direction, packet.to_bytes())

    def send_frame(self, src: int, direction: Direction, body: bytes) -> None:
        """Write one frame via scatter-gather (header and body uncopied)."""
        header = _HDR.pack(len(body), _DIR_CODE[direction], src)
        t0 = time.perf_counter() if _TEL.enabled else 0.0
        with self._wlock:
            try:
                sent = self.sock.sendmsg((header, body))
                total = len(header) + len(body)
                if sent < total:  # rare partial write: finish with sendall
                    rest = (header + body)[sent:]
                    self.sock.sendall(rest)
            except OSError as exc:
                raise ChannelClosedError(f"TCP send failed: {exc}") from exc
        if _TEL.enabled:
            _m_send_lat.observe(time.perf_counter() - t0)
            _m_tx_bytes.inc(len(header) + len(body))

    def close(self) -> None:
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class _EdgeRepairMixin:
    """Live-reconfiguration machinery shared by the socket transports.

    Both the threaded and reactor transports keep the same bookkeeping —
    ``_conns[(owner, peer)]``, ``_listeners[rank]``, ``_inboxes[rank]`` —
    so everything recovery needs (dropping the dead node's channels,
    re-listening, reconnecting re-parented children with backoff) is
    implementation-independent; subclasses supply only the two hooks
    that differ, :meth:`_attach` (wrap an established socket in their
    connection type) and :meth:`_drop_conn` (tear one channel down).

    The blocking accept/connect calls here run on the recovery caller's
    thread, never on a reactor event loop — which is also why this lives
    in the tcp module and not the reactor one (tboncheck TB601).
    """

    host: str
    connect_timeout: float
    _inboxes: dict[int, Inbox]
    _listeners: dict[int, socket.socket]
    _conns: dict[tuple[int, int], Any]
    topology: Topology | None

    def _attach(self, owner: int, peer: int, sock: socket.socket) -> None:
        raise NotImplementedError

    def _drop_conn(self, key: tuple[int, int], *, expected: bool = True) -> Any:
        raise NotImplementedError

    def _listener_for(self, rank: int) -> socket.socket:
        """The rank's listening socket, created lazily for new parents
        (a back-end promoted to carry re-parented children, or a rank
        whose listener died with the crash being repaired)."""
        srv = self._listeners.get(rank)
        if srv is None:
            srv = socket.create_server((self.host, 0))
            srv.settimeout(self.connect_timeout)
            self._listeners[rank] = srv
        return srv

    def _establish_missing(self, edges: Sequence[tuple[int, int]]) -> None:
        """Open sockets for ``edges`` (parent, child), hello-handshaken.

        Mirrors bind-time :func:`establish_edges` — transient accept
        thread per parent, child side connecting with
        :func:`connect_with_backoff` — but against the live transport's
        connection table.
        """
        if not edges:
            return
        by_parent: dict[int, list[int]] = {}
        for parent, child in edges:
            by_parent.setdefault(parent, []).append(child)
        errors: list[Exception] = []

        def accept_n(rank: int, srv: socket.socket, n: int) -> None:
            try:
                for _ in range(n):
                    sock, _addr = srv.accept()
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    child = recv_rank_hello(sock)
                    self._attach(rank, child, sock)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        acceptors = []
        ports: dict[int, int] = {}
        for parent, kids in by_parent.items():
            srv = self._listener_for(parent)
            ports[parent] = srv.getsockname()[1]
            t = threading.Thread(
                target=accept_n,
                args=(parent, srv, len(kids)),
                name=f"tbon-reaccept-{parent}",
                daemon=True,
            )
            t.start()
            acceptors.append(t)
        for parent, kids in by_parent.items():
            for child in kids:
                sock = connect_with_backoff(
                    self.host, ports[parent], child,
                    connect_timeout=self.connect_timeout,
                )
                self._attach(child, parent, sock)
        for t in acceptors:
            t.join(self.connect_timeout)
        if errors:
            raise TransportError(f"edge repair failed: {errors[0]}")
        still = [e for e in edges if e not in self._conns]
        if still:
            raise TransportError(f"edges failed to re-establish: {still}")
        if _TEL.enabled:
            _m_reconnects.inc(len(edges))

    #: True while :meth:`rebind` swaps edges — the new topology is
    #: visible before its connections exist, and senders (node event
    #: loops) use this to classify failures in that window as the
    #: documented reconfiguration loss, not node errors.
    rebinding = False

    def _mark_expected(self, keys: list[tuple[int, int]]) -> None:
        """Flag every channel in ``keys`` as expecting an orderly close.

        Must happen *before* the first socket of the batch is closed:
        closing one direction delivers EOF on its paired reverse channel,
        and the reader/reactor must already know that close is expected
        or it logs a spurious termination warning (the teardown race).
        """
        for key in keys:
            conn = self._conns.get(key)
            if conn is not None:
                conn.expect_close()

    def rebind(self, topology: Topology) -> None:
        """Adopt a reconfigured topology on live sockets.

        Surviving edges keep their connections (and any frames queued on
        them — no data loss on channels that did not break); channels to
        ranks that left the tree are closed orderly; edges the new tree
        introduces (children re-parented onto the grandparent, attached
        back-ends) are established with backoff, so a subsequent
        topology push can travel over the repaired channels themselves.
        """
        if self.topology is None:
            raise TransportError("transport is not bound")
        self.rebinding = True
        try:
            keep: set[tuple[int, int]] = set()
            for parent, child in topology.iter_edges():
                keep.add((parent, child))
                keep.add((child, parent))
            stale = [k for k in self._conns if k not in keep]
            self._mark_expected(stale)
            for key in stale:
                self._drop_conn(key)
            for rank in [r for r in self._listeners if r not in topology]:
                self._listeners.pop(rank).close()
            for rank in topology.ranks:
                self._inboxes.setdefault(rank, Inbox())
            self.topology = topology
            self._establish_missing(
                [e for e in topology.iter_edges() if e not in self._conns]
            )
        finally:
            self.rebinding = False

    def disconnect_rank(self, rank: int) -> None:
        """Sever every channel touching ``rank`` (crash semantics).

        Used by failure injection before the node's inbox closes: a
        crashed process takes its sockets with it.  Surviving peers'
        readers see the close as orderly (per-edge expected flag) — the
        recovery layer, not a log warning, is what reports the failure.
        """
        keys = [k for k in self._conns if rank in k]
        self._mark_expected(keys)
        for key in keys:
            self._drop_conn(key)
        srv = self._listeners.pop(rank, None)
        if srv is not None:
            srv.close()

    def reset_edge(self, a: int, b: int) -> None:
        """Tear down the channel pair of edge ``(a, b)`` mid-run.

        The chaos engine's connection-reset fault: frames queued on the
        edge are lost, subsequent sends raise
        :class:`ChannelClosedError` until :meth:`reconnect_edge`
        repairs it.
        """
        self._mark_expected([(a, b), (b, a)])
        found = False
        for key in ((a, b), (b, a)):
            if self._drop_conn(key) is not None:
                found = True
        if not found:
            raise TransportError(f"({a}, {b}) has no live connection to reset")

    def reconnect_edge(self, parent: int, child: int) -> None:
        """Re-establish one tree edge (the repair half of a reset)."""
        self._mark_expected([(parent, child), (child, parent)])
        for key in ((parent, child), (child, parent)):
            self._drop_conn(key)
        self._establish_missing([(parent, child)])


class TCPTransport(_EdgeRepairMixin, Transport):
    """Localhost-TCP channels for every edge of the tree."""

    def __init__(self, host: str = "127.0.0.1", connect_timeout: float = 10.0):
        super().__init__()
        self.host = host
        self.connect_timeout = connect_timeout
        self._inboxes: dict[int, Inbox] = {}
        # (owner_rank, peer_rank) -> connection used by owner to reach peer
        self._conns: dict[tuple[int, int], _Connection] = {}
        self._listeners: dict[int, socket.socket] = {}
        self._closing = threading.Event()

    @property
    def closing(self) -> bool:
        return self._closing.is_set()

    def _attach(self, owner: int, peer: int, sock: socket.socket) -> None:
        self._conns[(owner, peer)] = _Connection(
            sock, self._inboxes[owner], owner, closing=self._closing
        )

    def _drop_conn(
        self, key: tuple[int, int], *, expected: bool = True
    ) -> _Connection | None:
        conn = self._conns.pop(key, None)
        if conn is not None:
            if expected:
                conn.expect_close()
            conn.close()
        return conn

    def bind(self, topology: Topology) -> None:
        if self.topology is not None:
            raise TransportError("transport already bound")
        self.topology = topology
        self._inboxes = {rank: Inbox() for rank in topology.ranks}
        self._listeners = establish_edges(
            self.host, self.connect_timeout, topology, self._attach
        )
        missing = [
            e for e in topology.iter_edges() if (e[0], e[1]) not in self._conns
        ]
        if missing:
            raise TransportError(f"TCP edges failed to establish: {missing}")

    def inbox(self, rank: int) -> Inbox:
        try:
            return self._inboxes[rank]
        except KeyError:
            raise TransportError(f"rank {rank} has no inbox (not bound?)") from None

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        self._check_edge(src, dst)
        conn = self._conns.get((src, dst))
        if conn is None:
            raise ChannelClosedError(f"no TCP connection {src}->{dst}")
        conn.send(src, direction, packet)

    def multicast(
        self, src: int, dsts: Sequence[int], direction: Direction, packet: Any
    ) -> None:
        """Serialize-once multicast: one ``to_bytes``, k socket writes."""
        body = packet.to_bytes()
        for dst in dsts:
            self._check_edge(src, dst)
            conn = self._conns.get((src, dst))
            if conn is None:
                raise ChannelClosedError(f"no TCP connection {src}->{dst}")
            conn.send_frame(src, direction, body)

    def shutdown(self) -> None:
        self._closing.set()
        for conn in self._conns.values():
            conn.close()
        for srv in self._listeners.values():
            srv.close()
        for inbox in self._inboxes.values():
            inbox.close()
        # Closing wakes every reader; wait (bounded) until they have
        # exited, so no reader of this transport outlives its shutdown.
        deadline = time.monotonic() + self.connect_timeout
        for conn in self._conns.values():
            conn.reader.join(max(0.0, deadline - time.monotonic()))

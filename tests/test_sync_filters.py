"""Unit tests for MRNet's synchronization filters (with a fake clock)."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FilterError
from repro.core.filters import FilterContext
from repro.core.packet import Packet
from repro.core.sync_filters import NullSync, TimeOut, WaitForAll


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def mk_ctx(n_children, clock=None):
    return FilterContext(
        node_rank=1,
        stream_id=1,
        n_children=n_children,
        now=clock or FakeClock(),
    )


def pkt(v, src=0):
    return Packet(1, 100, "%d", (v,), src=src)


class TestWaitForAll:
    def test_holds_until_all_children(self):
        f = WaitForAll()
        c = mk_ctx(3)
        assert f.push(pkt(1, 10), 10, c) == []
        assert f.push(pkt(2, 11), 11, c) == []
        batches = f.push(pkt(3, 12), 12, c)
        assert len(batches) == 1
        assert sorted(p.values[0] for p in batches[0]) == [1, 2, 3]

    def test_wave_alignment(self):
        """The i-th packets from each child form the i-th batch."""
        f = WaitForAll()
        c = mk_ctx(2)
        # Child 10 races two waves ahead.
        assert f.push(pkt(1, 10), 10, c) == []
        assert f.push(pkt(2, 10), 10, c) == []
        b1 = f.push(pkt(100, 11), 11, c)
        assert [p.values[0] for p in b1[0]] == [1, 100]
        b2 = f.push(pkt(200, 11), 11, c)
        assert [p.values[0] for p in b2[0]] == [2, 200]

    def test_release_of_multiple_complete_waves(self):
        f = WaitForAll()
        c = mk_ctx(2)
        f.push(pkt(1), 10, c)
        f.push(pkt(2), 10, c)
        f.push(pkt(3), 11, c)  # completes wave 1 only
        batches = f.push(pkt(4), 11, c)
        assert len(batches) == 1

    def test_flush_releases_partial_waves(self):
        f = WaitForAll()
        c = mk_ctx(3)
        f.push(pkt(1), 10, c)
        f.push(pkt(2), 10, c)
        f.push(pkt(3), 11, c)
        batches = f.flush(c)
        assert [len(b) for b in batches] == [2, 1]
        assert f.pending_count() == 0

    def test_recheck_after_losing_child(self):
        """Recovery shrinks the covering set; held waves must release."""
        f = WaitForAll()
        c = mk_ctx(3)
        f.push(pkt(1), 10, c)
        f.push(pkt(2), 11, c)
        # Child 12 dies; covering is now (10, 11) and n_children 2.
        c.n_children = 2
        batches = f.recheck(c, (10, 11))
        assert len(batches) == 1
        assert sorted(p.values[0] for p in batches[0]) == [1, 2]

    def test_no_deadline(self):
        assert WaitForAll().next_deadline() is None


class NaiveWaitForAll:
    """Reference model: per-child FIFOs, every check scans every child."""

    def __init__(self):
        self.queues = {}

    def _waves(self, n_children):
        out = []
        while (
            self.queues
            and len(self.queues) >= n_children
            and all(self.queues.values())
        ):
            out.append([self.queues[c].popleft() for c in sorted(self.queues)])
        return out

    def push(self, packet, child, n_children):
        self.queues.setdefault(child, deque()).append(packet)
        return self._waves(n_children)

    def flush(self):
        out = []
        while any(self.queues.values()):
            out.append(
                [self.queues[c].popleft() for c in sorted(self.queues) if self.queues[c]]
            )
        return out

    def recheck(self, covering, n_children):
        for child in list(self.queues):
            if child not in covering:
                del self.queues[child]
        return self._waves(n_children)


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("flush"), st.just(())),
        st.tuples(
            st.just("recheck"),
            st.frozensets(st.integers(0, 5), max_size=6).map(lambda c: tuple(sorted(c))),
        ),
    ),
    max_size=60,
)


class TestWaitForAllModel:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), _ops)
    def test_matches_naive_per_child_fifo(self, n_children, ops):
        """Children appear late, flush releases partial waves, and recheck
        removes children (and shrinks the expected width, as recovery does)."""
        f = WaitForAll()
        model = NaiveWaitForAll()
        width = n_children
        for i, (op, arg) in enumerate(ops):
            if op == "push":
                p = pkt(i, arg)
                got = f.push(p, arg, mk_ctx(width))
                want = model.push(p, arg, width)
            elif op == "flush":
                got = f.flush(mk_ctx(width))
                want = model.flush()
            else:
                width = max(1, min(width, len(arg)))
                got = f.recheck(mk_ctx(width), arg)
                want = model.recheck(arg, width)
            assert [[p.seq for p in b] for b in got] == [[p.seq for p in b] for b in want]
            assert f.pending_count() == sum(len(q) for q in model.queues.values())


class TestTimeOut:
    def test_window_release_on_timer(self):
        clock = FakeClock()
        f = TimeOut(window=1.0)
        c = mk_ctx(3, clock)
        assert f.push(pkt(1), 10, c) == []
        assert f.next_deadline() == pytest.approx(1.0)
        clock.advance(0.5)
        assert f.on_timer(clock(), c) == []  # window still open
        clock.advance(0.6)
        batches = f.on_timer(clock(), c)
        assert len(batches) == 1 and len(batches[0]) == 1
        assert f.next_deadline() is None

    def test_early_release_when_all_children_report(self):
        clock = FakeClock()
        f = TimeOut(window=100.0)
        c = mk_ctx(2, clock)
        assert f.push(pkt(1), 10, c) == []
        batches = f.push(pkt(2), 11, c)
        assert len(batches) == 1 and len(batches[0]) == 2

    def test_window_reopens_for_next_batch(self):
        clock = FakeClock()
        f = TimeOut(window=1.0)
        c = mk_ctx(2, clock)
        f.push(pkt(1), 10, c)
        clock.advance(2.0)
        assert len(f.on_timer(clock(), c)) == 1
        # Next packet opens a new window anchored at the new now.
        f.push(pkt(2), 10, c)
        assert f.next_deadline() == pytest.approx(3.0)

    def test_flush(self):
        f = TimeOut(window=5.0)
        c = mk_ctx(3)
        f.push(pkt(1), 10, c)
        assert len(f.flush(c)) == 1
        assert f.pending_count() == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(FilterError):
            TimeOut(window=0.0)

    def test_straggler_lands_in_next_wave(self):
        """A packet arriving after the window closed joins the next wave."""
        clock = FakeClock()
        f = TimeOut(window=1.0)
        c = mk_ctx(3, clock)
        f.push(pkt(1), 10, c)
        f.push(pkt(2), 11, c)
        clock.advance(1.5)
        partial = f.on_timer(clock(), c)
        assert sorted(p.values[0] for p in partial[0]) == [1, 2]
        # Child 12's late packet opens a fresh window...
        assert f.push(pkt(3), 12, c) == []
        assert f.next_deadline() == pytest.approx(2.5)
        # ...and is released with the *next* wave, not lost.
        clock.advance(1.1)
        nxt = f.on_timer(clock(), c)
        assert [p.values[0] for p in nxt[0]] == [3]
        assert f.pending_count() == 0


class TestTimeOutLive:
    def test_lagging_backend_partial_wave_then_straggler(self):
        """Live network: a deliberately lagging back-end misses the window.

        The prompt back-ends' contributions are delivered as a partial
        wave when the timer fires; the straggler's packet is not dropped
        but surfaces as the following (singleton) wave.
        """
        import threading

        from repro.core.events import FIRST_APPLICATION_TAG
        from repro.core.network import Network
        from repro.core.topology import flat_topology

        release = threading.Event()
        with Network(flat_topology(3)) as net:
            s = net.new_stream(
                transform="sum", sync="time_out", sync_params={"window": 0.3}
            )

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                if be.rank == net.topology.backends[-1]:
                    # The lagging back-end: far beyond the sync window.
                    assert release.wait(30)
                    be.send(s.stream_id, FIRST_APPLICATION_TAG, "%d", 100)
                else:
                    be.send(s.stream_id, FIRST_APPLICATION_TAG, "%d", 1)

            threads = net.run_backends(leaf, join=False)
            partial = s.recv(timeout=30)
            assert partial.values == (2,)  # both prompt back-ends, no straggler
            release.set()
            straggler = s.recv(timeout=30)
            assert straggler.values == (100,)  # lands alone in the next wave
            for t in threads:
                t.join(30)
            assert not net.node_errors()


class TestNullSync:
    def test_immediate_delivery(self):
        f = NullSync()
        c = mk_ctx(5)
        batches = f.push(pkt(7), 10, c)
        assert batches == [[batches[0][0]]]
        assert batches[0][0].values == (7,)

    def test_no_state(self):
        f = NullSync()
        assert f.pending_count() == 0
        assert f.flush(mk_ctx(1)) == []

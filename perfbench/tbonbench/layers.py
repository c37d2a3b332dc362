"""Per-layer metrics: which callables are wrapped, and what is computed from them.

:data:`LAYER_METRICS` is the table the traced run reports, one row per
metric, each naming the layer (module) it measures and the end-to-end
metric and workload it should move.  The spans come from wrappers on the
callables in :func:`targets`; the reactor's counters come from the
process-wide telemetry registry (``repro.telemetry.GLOBAL``), which the
in-tree ``Network.telemetry_snapshot()`` gather does not include.
"""

from __future__ import annotations

import bisect
import statistics
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro import FIRST_APPLICATION_TAG, reliability
from repro.core.backend import BackEnd
from repro.core.filters import TransformationFilter
from repro.core.frontend import FrontEnd
from repro.core.network import Network
from repro.core.node import NodeRunner
from repro.core.packet import Packet
from repro.core.stream import Stream
from repro.core.sync_filters import WaitForAll
from repro.transport.base import Inbox
from repro.transport.reactor import ReactorTransport

from . import workloads
from .spans import Span, SpanRecorder, Target, self_times, snapshot_originals


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # "<end-to-end metric> / <workload>" it should move


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("backend.send_us", "us", "lower", "core.backend BackEnd.send",
                "lat_p50_ms, ops_per_s / up_sum, meanshift"),
    LayerMetric("backend.recv_wait_us", "us", "lower", "core.backend BackEnd.recv",
                "lat_p50_ms / down_bulk"),
    LayerMetric("stream.send_us", "us", "lower", "core.stream Stream.send",
                "ops_per_s / down_bulk"),
    LayerMetric("stream.recv_wait_us", "us", "lower", "core.stream Stream.recv",
                "lat_p50_ms / up_sum, meanshift"),
    LayerMetric("frontend.dispatch_us", "us", "lower", "core.frontend FrontEnd.dispatch",
                "lat_p50_ms / up_sum"),
    LayerMetric("packet.to_bytes_us", "us", "lower", "core.packet Packet.to_bytes",
                "ops_per_s / down_bulk, up_sum"),
    LayerMetric("packet.to_bytes_per_op", "count", "lower", "core.packet Packet.to_bytes",
                "ops_per_s / down_bulk (serialize-once: 1 per multicast), up_sum"),
    LayerMetric("packet.from_bytes_us", "us", "lower", "core.packet Packet.from_bytes",
                "ops_per_s / up_sum, down_bulk"),
    LayerMetric("packet.from_bytes_per_op", "count", "lower", "core.packet Packet.from_bytes",
                "ops_per_s / up_sum, down_bulk"),
    LayerMetric("packet.wire_bytes_per_op", "B", "lower",
                "core.packet len(to_bytes) per frame queued by the reactor",
                "ops_per_s / down_bulk, meanshift"),
    LayerMetric("reactor.send_us", "us", "lower", "transport.reactor ReactorTransport.send",
                "ops_per_s, cpu_us_per_op / up_sum"),
    LayerMetric("reactor.multicast_us", "us", "lower",
                "transport.reactor ReactorTransport.multicast", "ops_per_s / down_bulk"),
    LayerMetric("reactor.frames_per_sendmsg", "count", "higher",
                "telemetry tbon_reactor_frames_per_sendmsg (mean)", "ops_per_s / up_sum"),
    LayerMetric("reactor.stalls_per_op", "count", "lower",
                "telemetry tbon_reactor_backpressure_stalls_total", "lat_p90_ms / down_bulk"),
    LayerMetric("reactor.loop_iters_per_op", "count", "lower",
                "telemetry tbon_reactor_loop_iterations_total", "cpu_us_per_op / up_sum"),
    LayerMetric("inbox.wait_us_per_op", "us", "lower", "transport.base Inbox.get_batch",
                "ops_per_s / up_sum (high wait: the bottleneck is elsewhere)"),
    LayerMetric("inbox.batch_mean", "count", "higher", "transport.base Inbox.get_batch",
                "ops_per_s / up_sum"),
    LayerMetric("node.handle_self_us", "us", "lower",
                "core.node NodeRunner.handle minus nested wrapped calls",
                "ops_per_s, cpu_us_per_op / up_sum"),
    LayerMetric("sync.push_us", "us", "lower", "core.sync_filters WaitForAll.push",
                "ops_per_s / up_sum"),
    LayerMetric("sync.park_ms", "ms", "lower",
                "core.sync_filters: a wave's first push at a node to its release",
                "lat_p50_ms / up_sum, meanshift"),
    LayerMetric("filter.execute_us.sum", "us", "lower",
                "core.filters TransformationFilter.execute (sum)",
                "lat_p50_ms / meanshift; small on up_sum"),
    LayerMetric("filter.execute_ms.mean_shift", "ms", "lower",
                "core.filters TransformationFilter.execute (mean_shift)", "lat_p50_ms / meanshift"),
    LayerMetric("network.init_ms", "ms", "lower", "core.network Network.__init__",
                "setup_s / all, most on churn"),
    LayerMetric("network.new_stream_ms", "ms", "lower", "core.network Network.new_stream",
                "setup_s / all, most on churn"),
    LayerMetric("network.shutdown_ms", "ms", "lower", "core.network Network.shutdown",
                "teardown_s / all"),
    LayerMetric("reliability.kill_ms", "ms", "lower", "reliability FailureInjector.kill_node",
                "lat_p50_ms / churn"),
    LayerMetric("reliability.recover_ms", "ms", "lower", "reliability recover_from_failure",
                "lat_p50_ms / churn"),
    LayerMetric("reliability.converge_ms", "ms", "lower",
                "reliability: recover/attach return until every process routes on the new tree",
                "lat_p50_ms / churn"),
    LayerMetric("reliability.attach_ms", "ms", "lower", "core.network Network.attach_backend",
                "lat_p50_ms / churn"),
    LayerMetric("reliability.orphan_teardown_s", "s", "lower",
                "reliability + core.network: shutdown after one unrecovered kill on a 4x2 tree",
                "none in the repeated runs: the stall an epoch-based shutdown removes"),
    LayerMetric("trace.overhead_pct", "%", "lower", "this benchmark's wrappers",
                "none: traced vs untraced ops_per_s, must stay small"),
    LayerMetric("host.ref_loop_ms", "ms", "lower", "host: fixed pure-Python loop",
                "none: records host drift, never used to normalize"),
    LayerMetric("e2e.lat_p99_ms", "ms", "lower", "end to end, untraced latency samples",
                "p99 of the lat_p50_ms samples (0 below 1000 samples)"),
    LayerMetric("e2e.lat_samples", "count", "higher", "end to end, untraced latency samples",
                "sample count behind lat_p50_ms, lat_p90_ms, e2e.lat_p99_ms"),
)


def _tag_op(packet: Any) -> int | None:
    """The wave index a data packet carries in its tag (None for control)."""
    if packet is None or packet.stream_id == 0 or packet.tag < FIRST_APPLICATION_TAG:
        return None
    return packet.tag - FIRST_APPLICATION_TAG


def _arg_op(i: int) -> Callable[[tuple, Any], int | None]:
    def op(args: tuple, result: Any) -> int | None:
        tag = args[i].tag
        return tag - FIRST_APPLICATION_TAG if tag >= FIRST_APPLICATION_TAG else None

    return op


def _env_op(args: tuple, result: Any) -> int | None:
    tag = args[1].packet.tag
    return tag - FIRST_APPLICATION_TAG if tag >= FIRST_APPLICATION_TAG else None


def _result_op(args: tuple, result: Any) -> int | None:
    return _tag_op(result)


def _tag_arg_op(i: int) -> Callable[[tuple, Any], int | None]:
    def op(args: tuple, result: Any) -> int | None:
        tag = args[i]
        return tag - FIRST_APPLICATION_TAG if tag >= FIRST_APPLICATION_TAG else None

    return op


def _batch_op(args: tuple, result: Any) -> int | None:
    return _tag_op(result[0].packet) if result else None


def _len_result(args: tuple, result: Any) -> int | None:
    return None if result is None else len(result)


class _ParkTracker:
    """Times each wave from its first push at a node until its release.

    A pushed packet joins the pending wave whose index is the number of
    packets its child already has queued; when that index is past the
    last pending wave, the push opens a new one.  ``wait_for_all``
    releases waves in order, so each released batch closes the oldest.
    """

    def __init__(self) -> None:
        self._opened: "weakref.WeakKeyDictionary[WaitForAll, deque]" = weakref.WeakKeyDictionary()

    def wrap_push(self, rec: SpanRecorder, fn: Callable[..., Any]) -> Callable[..., Any]:
        opened = self._opened
        op_of = _arg_op(1)

        def push(self: WaitForAll, packet: Packet, child: int, ctx: Any) -> Any:
            pending = opened.setdefault(self, deque())
            queued = self._queues.get(child)
            if (len(queued) if queued else 0) >= len(pending):
                pending.append((rec.clock(), _tag_op(packet)))
            batches = rec.call("sync.push", fn, (self, packet, child, ctx), {}, op_of)
            t = rec.clock()
            for _ in batches:
                if pending:
                    t0, op = pending.popleft()
                    rec.add("sync.park", t0, t, op)
            return batches

        return push

    def wrap_recheck(self, rec: SpanRecorder, fn: Callable[..., Any]) -> Callable[..., Any]:
        opened = self._opened

        def recheck(self: WaitForAll, ctx: Any, covering: Any) -> Any:
            batches = fn(self, ctx, covering)
            pending = opened.setdefault(self, deque())
            t = rec.clock()
            for _ in batches:
                if pending:
                    t0, op = pending.popleft()
                    rec.add("sync.park", t0, t, op)
            if not self.pending_count():
                pending.clear()
            return batches

        return recheck


def targets() -> list[Target]:
    """Every callable the traced run wraps, with its span name."""
    park = _ParkTracker()
    return [
        Target(BackEnd, "send", "backend.send", _tag_arg_op(2)),
        Target(BackEnd, "recv", "backend.recv", _result_op),
        Target(Stream, "send", "stream.send", _tag_arg_op(1)),
        Target(Stream, "recv", "stream.recv", _result_op),
        Target(FrontEnd, "dispatch", "frontend.dispatch", _env_op),
        Target(Packet, "to_bytes", "packet.to_bytes", _arg_op(0), _len_result),
        Target(Packet, "from_bytes", "packet.from_bytes", _result_op),
        Target(ReactorTransport, "send", "reactor.send", _arg_op(4)),
        Target(ReactorTransport, "multicast", "reactor.multicast", _arg_op(4),
               lambda args, result: len(args[2])),
        Target(Inbox, "get_batch", "inbox.get_batch", _batch_op, _len_result),
        Target(NodeRunner, "handle", "node.handle", _env_op),
        Target(WaitForAll, "push", "sync.push", custom=park.wrap_push),
        Target(WaitForAll, "recheck", "sync.park", custom=park.wrap_recheck),
        Target(TransformationFilter, "execute",
               lambda args: f"filter.execute.{getattr(args[0], 'name', '')}",
               lambda args, result: _tag_op(args[1][0]) if args[1] else None),
        Target(Network, "__init__", "network.init"),
        Target(Network, "new_stream", "network.new_stream"),
        Target(Network, "shutdown", "network.shutdown"),
        Target(Network, "attach_backend", "reliability.attach"),
        Target(reliability.FailureInjector, "kill_node", "reliability.kill"),
        Target(reliability, "recover_from_failure", "reliability.recover"),
        Target(workloads, "wait_converged", "reliability.converge"),
    ]


#: The callables as imported, before anything could wrap them.
ORIGINALS = snapshot_originals(targets())


def _hist_mean(delta: dict, key: str) -> float | None:
    h = delta["histograms"].get(key)
    if not h or not h["count"]:
        return None
    return h["sum"] / h["count"]


def compute(
    spans: list[Span],
    windows: list[tuple[float, float]],
    ops: int,
    telemetry_delta: dict,
    extra: dict[str, float | None],
) -> tuple[dict[str, float], dict[str, str]]:
    """Every metric of :data:`LAYER_METRICS`, plus notes on those unmeasured.

    Per-call means and per-op ratios use the spans inside ``windows`` (the
    measured blocks), so set-up traffic does not dilute them; the
    ``network.*`` spans happen outside it and are taken from the whole
    pass.  A metric with nothing to measure on this workload reads 0 and
    gets a note.  ``extra`` supplies the metrics measured outside the
    spans.
    """
    starts = [w0 for w0, _ in windows]

    def measured(s: Span) -> bool:
        i = bisect.bisect_right(starts, s.t0) - 1
        return i >= 0 and s.t1 <= windows[i][1]

    inside = [s for s in spans if measured(s)]
    by_name: dict[str, list[Span]] = {}
    for s in inside:
        by_name.setdefault(s.name, []).append(s)
    whole: dict[str, list[Span]] = {}
    for s in spans:
        whole.setdefault(s.name, []).append(s)

    def mean_dur(name: str, scale: float, pool: dict[str, list[Span]] = by_name) -> float | None:
        got = pool.get(name)
        return statistics.fmean(s.t1 - s.t0 for s in got) * scale if got else None

    def per_op(count: float | None) -> float | None:
        return None if count is None or not ops else count / ops

    by_id = {s.sid: s for s in inside}
    wire = 0
    for s in by_name.get("packet.to_bytes", ()):
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "reactor.send":
            wire += s.n or 0
        elif parent is not None and parent.name == "reactor.multicast":
            wire += (s.n or 0) * (parent.n or 0)
    batches = by_name.get("inbox.get_batch", [])
    handle_self = self_times(inside, "node.handle")
    counters = telemetry_delta["counters"]
    values: dict[str, float | None] = {
        "backend.send_us": mean_dur("backend.send", 1e6),
        "backend.recv_wait_us": mean_dur("backend.recv", 1e6),
        "stream.send_us": mean_dur("stream.send", 1e6),
        "stream.recv_wait_us": mean_dur("stream.recv", 1e6),
        "frontend.dispatch_us": mean_dur("frontend.dispatch", 1e6),
        "packet.to_bytes_us": mean_dur("packet.to_bytes", 1e6),
        "packet.to_bytes_per_op": per_op(len(by_name.get("packet.to_bytes", ()))),
        "packet.from_bytes_us": mean_dur("packet.from_bytes", 1e6),
        "packet.from_bytes_per_op": per_op(len(by_name.get("packet.from_bytes", ()))),
        "packet.wire_bytes_per_op": per_op(wire) if wire else None,
        "reactor.send_us": mean_dur("reactor.send", 1e6),
        "reactor.multicast_us": mean_dur("reactor.multicast", 1e6),
        "reactor.frames_per_sendmsg": _hist_mean(
            telemetry_delta, "tbon_reactor_frames_per_sendmsg"
        ),
        "reactor.stalls_per_op": per_op(
            counters.get("tbon_reactor_backpressure_stalls_total", 0)
        ),
        "reactor.loop_iters_per_op": per_op(
            counters.get("tbon_reactor_loop_iterations_total") or None
        ),
        "inbox.wait_us_per_op": per_op(sum(s.t1 - s.t0 for s in batches) * 1e6)
        if batches else None,
        "inbox.batch_mean": statistics.fmean(s.n for s in batches if s.n is not None)
        if any(s.n is not None for s in batches) else None,
        "node.handle_self_us": statistics.fmean(handle_self) * 1e6 if handle_self else None,
        "sync.push_us": mean_dur("sync.push", 1e6),
        "sync.park_ms": mean_dur("sync.park", 1e3),
        "filter.execute_us.sum": mean_dur("filter.execute.sum", 1e6),
        "filter.execute_ms.mean_shift": mean_dur("filter.execute.mean_shift", 1e3),
        "network.init_ms": mean_dur("network.init", 1e3, whole),
        "network.new_stream_ms": mean_dur("network.new_stream", 1e3, whole),
        "network.shutdown_ms": mean_dur("network.shutdown", 1e3, whole),
        "reliability.kill_ms": mean_dur("reliability.kill", 1e3),
        "reliability.recover_ms": mean_dur("reliability.recover", 1e3),
        "reliability.converge_ms": mean_dur("reliability.converge", 1e3),
        "reliability.attach_ms": mean_dur("reliability.attach", 1e3),
        **extra,
    }
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    for m in LAYER_METRICS:
        v = values.get(m.name)
        if v is None:
            notes[m.name] = "not exercised by this workload (or too few samples); reported as 0"
            v = 0.0
        metrics[m.name] = float(v)
    return metrics, notes

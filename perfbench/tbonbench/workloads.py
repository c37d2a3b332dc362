"""The benchmark's four workloads, each a closed loop.

Every workload runs from one generator thread (the caller's) over the
default socket transport (``transport="tcp"``, the selector reactor) and
drives only the public API: :class:`repro.Network`, :class:`repro.Stream`,
:class:`repro.BackEnd`, :class:`repro.reliability.FailureInjector` and
:func:`repro.reliability.recover_from_failure`.  Inputs are generated from
the seed before anything is timed, and every op is checked.

``Network.run_backends`` is never used on a timed path: it starts one
thread per leaf per call, which would measure the thread scheduler.  The
generator calls ``BackEnd.send`` for every leaf itself.

The tag of every data packet is ``FIRST_APPLICATION_TAG + wave``.  Filters
keep the tag of a wave's first packet, so the wave index travels with the
op through every hop; the traced run uses it as the span's op id.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology
from repro import reliability
from repro.cluster import ClusterSpec, MEANSHIFT_FMT, leaf_dataset, leaf_mean_shift
from repro.cluster.meanshift_filter import MeanShiftFilter
from repro.core.filters import FilterContext
from repro.core.packet import Packet
from repro.core.topology import Topology

from .stats import min_samples_for

#: Seconds one op may take before it counts as failed.
OP_TIMEOUT_S = 10.0
#: Seconds the churn workload waits for every process to adopt a new tree.
CONVERGE_TIMEOUT_S = 5.0
#: Network set-ups per round of a wave workload; setup_s is their median.
SETUP_REPS = 3
#: Share of ``--seconds`` given to the one-wave-in-flight latency blocks;
#: the throughput blocks get the rest.
LATENCY_SHARE = 0.5
#: Seconds of measurement per round (see run_waves).
ROUND_S = 2.0
#: Latency percentiles are medians over chunks of this many consecutive
#: samples (see stats.chunked_percentile); the smallest chunk with p90.
#: A run takes at least one chunk.
MIN_LATENCY_SAMPLES = min_samples_for(90)
#: Hard cap on a pass's measurement, whatever the sample count, so that
#: a traced run (two passes) still ends within three minutes.
MAX_PHASE_S = 60.0


class OpFailed(Exception):
    """An op timed out or its membership change did not converge."""


class WrongResult(Exception):
    """An op completed with a result other than the expected one."""


class ConvergenceTimeout(OpFailed):
    """Some processes still route on the old tree after the deadline."""


@dataclass
class Outcome:
    """Everything one pass of a workload measured."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    node_errors: list[str] = field(default_factory=list)
    lat_ms: list[float] = field(default_factory=list)
    #: ops per second of each throughput block (or churn cycle)
    rates: list[float] = field(default_factory=list)
    #: process CPU seconds per op of the same blocks
    cpu_per_op: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    teardown_s: list[float] = field(default_factory=list)
    transport: str = ""
    #: perf_counter() intervals of the measured blocks, and their ops.
    measured: list[tuple[float, float]] = field(default_factory=list)
    measured_ops: int = 0

    def fail(self, exc: Exception, ops: int) -> None:
        self.failed += ops
        if isinstance(exc, WrongResult):
            self.wrong += ops
        self.errors.append(f"{type(exc).__name__}: {exc}")


def wait_converged(
    procs: Iterable[Any],
    topo: Topology,
    timeout: float = CONVERGE_TIMEOUT_S,
    *,
    poll_s: float = 0.0005,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Block until every process routes on ``topo``.

    ``recover_from_failure`` and ``attach_backend`` return before the
    processes have applied the new tree.  Each process (a ``BackEnd`` or a
    ``NodeRunner``) has converged when its own ``topology`` gives it the
    same parent rank as ``topo``.  Ranks are compared, not topology
    objects: over sockets the topology arrives unpickled, so identity
    never holds.

    Raises:
        ConvergenceTimeout: some process still disagrees after ``timeout``.
    """
    procs = list(procs)
    deadline = clock() + timeout
    while True:
        lagging = [p.rank for p in procs if p.topology.parent(p.rank) != topo.parent(p.rank)]
        if not lagging:
            return
        if clock() >= deadline:
            raise ConvergenceTimeout(f"ranks {lagging} still on the old tree after {timeout}s")
        sleep(poll_s)


def _open_network(topo: Topology, stream_kwargs: dict) -> tuple[Network, Any, float]:
    """Build the tree and one stream; the time is the workload's set-up."""
    t0 = time.perf_counter()
    net = Network(topo, transport="tcp")
    stream = net.new_stream(**stream_kwargs)
    for be in net.backends:
        be.wait_for_stream(stream.stream_id, timeout=OP_TIMEOUT_S)
    return net, stream, time.perf_counter() - t0


def _close_network(net: Network, out: Outcome) -> None:
    errors = net.node_errors()
    if errors:
        out.node_errors.extend(f"node {r}: {e!r}" for r, e in sorted(errors.items()))
    t0 = time.perf_counter()
    net.shutdown()
    out.teardown_s.append(time.perf_counter() - t0)


def _collect() -> None:
    """Free the networks just shut down, outside every timed region.

    A closed network is cyclic garbage of ~20 MB (8x2 tree); left to the
    collector, dozens pile up, the heap grows with the number of rounds
    and full collections land inside measured blocks.
    """
    gc.collect()


def _tag(wave: int) -> int:
    return FIRST_APPLICATION_TAG + wave


class WaveWorkload:
    """A workload whose op unit is a wave over one stream of a fixed tree.

    Subclasses set the tree, the stream and the throughput window, make
    their inputs in :meth:`prepare`, and implement :meth:`start_wave` and
    :meth:`finish_wave`; the latter waits for the wave and checks it.
    """

    name = ""
    fanout = 0
    depth = 0
    #: Waves in flight during the throughput blocks, chosen by measured
    #: steadiness: of 1, 2, 4, 8 and 16, 8 spread least between runs on
    #: the 8x2 tree; on the compute-bound 3x2 mean-shift tree, 2 did.
    window = 1
    stream_kwargs: dict = {}

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def bind(self, net: Network | None, stream: Any) -> None:
        """Point the workload at a network's stream; ``None`` releases it."""
        self.stream = stream
        self.backends = net.backends if net is not None else []

    def ops_per_wave(self) -> int:
        raise NotImplementedError

    def start_wave(self, wave: int) -> None:
        raise NotImplementedError

    def finish_wave(self, wave: int) -> None:
        raise NotImplementedError

    def topology(self) -> Topology:
        return balanced_topology(self.fanout, self.depth)


class UpSum(WaveWorkload):
    """64 leaves each send one ``%d``; the front-end checks the exact sum."""

    name = "up_sum"
    fanout, depth = 8, 2
    window = 8
    stream_kwargs = {"transform": "sum", "sync": "wait_for_all"}

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.base = {r: rng.randrange(1, 1 << 20) for r in self.topology().backends}

    def bind(self, net: Network | None, stream: Any) -> None:
        super().bind(net, stream)
        self.base_sum = sum(self.base[be.rank] for be in self.backends)

    def ops_per_wave(self) -> int:
        return len(self.topology().backends)

    def start_wave(self, wave: int) -> None:
        sid, tag = self.stream.stream_id, _tag(wave)
        for be in self.backends:
            be.send(sid, tag, "%d", self.base[be.rank] + wave)

    def finish_wave(self, wave: int) -> None:
        pkt = _recv_stream(self.stream)
        want = self.base_sum + len(self.backends) * wave
        if pkt.tag != _tag(wave) or pkt.values[0] != want:
            raise WrongResult(f"wave {wave}: got tag {pkt.tag} sum {pkt.values[0]}, want {want}")


class DownBulk(WaveWorkload):
    """The front-end multicasts ``%d %af`` (16 KiB array) to 64 leaves."""

    name = "down_bulk"
    fanout, depth = 8, 2
    window = 8
    stream_kwargs: dict = {}
    n_arrays = 8
    array_len = 2048  # float64: 16 KiB

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.arrays = [rng.standard_normal(self.array_len) for _ in range(self.n_arrays)]

    def ops_per_wave(self) -> int:
        return len(self.topology().backends)

    def start_wave(self, wave: int) -> None:
        self.stream.send(_tag(wave), "%d %af", wave, self.arrays[wave % self.n_arrays])

    def finish_wave(self, wave: int) -> None:
        sid, want = self.stream.stream_id, self.arrays[wave % self.n_arrays]
        for be in self.backends:
            try:
                pkt = be.recv(timeout=OP_TIMEOUT_S, stream_id=sid)
            except TimeoutError as exc:
                raise OpFailed(str(exc)) from None
            if pkt.tag != _tag(wave) or pkt.values[0] != wave:
                raise WrongResult(
                    f"leaf {be.rank}: got index {pkt.values[0]} tag {pkt.tag}, want {wave}"
                )
            if not np.array_equal(pkt.values[1], want):
                raise WrongResult(f"leaf {be.rank}: payload of multicast {wave} differs")


class MeanShift(WaveWorkload):
    """The paper's case study: 9 leaves merge mean-shift peaks up a 3x2 tree."""

    name = "meanshift"
    fanout, depth = 3, 2
    window = 2
    bandwidth = 50.0
    stream_kwargs = {
        "transform": "mean_shift",
        "sync": "wait_for_all",
        "transform_params": {"bandwidth": bandwidth},
    }

    def prepare(self, seed: int) -> None:
        topo = self.topology()
        spec = ClusterSpec()
        self.payloads = {}
        for i, rank in enumerate(topo.backends):
            data, weights, peaks, _ = leaf_mean_shift(
                leaf_dataset(i, spec, seed), bandwidth=self.bandwidth
            )
            self.payloads[rank] = (data, weights, peaks)
        self.ref_peaks = reference_peaks(topo, self.payloads, self.bandwidth)

    def ops_per_wave(self) -> int:
        return 1

    def start_wave(self, wave: int) -> None:
        sid, tag = self.stream.stream_id, _tag(wave)
        for be in self.backends:
            be.send(sid, tag, MEANSHIFT_FMT, *self.payloads[be.rank])

    def finish_wave(self, wave: int) -> None:
        pkt = _recv_stream(self.stream)
        if pkt.tag != _tag(wave) or not np.array_equal(pkt.values[2], self.ref_peaks):
            raise WrongResult(f"wave {wave}: peaks differ from the reference")


def reference_peaks(topo: Topology, payloads: dict, bandwidth: float) -> np.ndarray:
    """Run the mean-shift merge over ``topo`` in this thread.

    Children are merged in rank order, as ``wait_for_all`` releases them,
    so the tree's result must equal this one exactly.
    """

    def merged(rank: int) -> Packet:
        kids = topo.children(rank)
        if not kids:
            return Packet(1, FIRST_APPLICATION_TAG, MEANSHIFT_FMT, payloads[rank])
        ctx = FilterContext(
            node_rank=rank,
            n_children=len(kids),
            is_root=rank == topo.root,
            depth=topo.depth(rank),
            params={"bandwidth": bandwidth},
        )
        (out,) = MeanShiftFilter(bandwidth=bandwidth).execute(
            [merged(c) for c in sorted(kids)], ctx
        )
        return out

    return merged(topo.root).values[2]


def _recv_stream(stream: Any) -> Packet:
    try:
        return stream.recv(timeout=OP_TIMEOUT_S)
    except TimeoutError as exc:
        raise OpFailed(str(exc)) from None


Probe = Callable[[str], None]


def _no_probe(point: str) -> None:
    pass


def run_waves(
    wl: WaveWorkload, seconds: float, setup_reps: int = SETUP_REPS, probe: Probe = _no_probe
) -> Outcome:
    """Rounds of set-ups, then a latency block and a throughput block.

    The host's speed drifts over seconds, so the run is cut into rounds
    of about :data:`ROUND_S` seconds, each on a fresh network, and every
    metric is a median over samples drawn from all rounds.  A round times
    ``setup_reps`` set-ups and teardowns; its last network carries one
    latency block (one wave in flight) and one throughput block (a fixed
    window of waves in flight).  ``probe("start")`` and ``probe("end")``
    bracket each round's blocks.
    """
    out = Outcome()
    topo = wl.topology()
    per_wave = wl.ops_per_wave()
    rounds = max(1, round(seconds / ROUND_S))
    lat_s = seconds * LATENCY_SHARE / rounds
    tput_s = seconds * (1.0 - LATENCY_SHARE) / rounds
    t_cap = time.perf_counter() + MAX_PHASE_S
    wave = 0
    for k in range(rounds):
        for _ in range(setup_reps - 1):
            net, _stream, t = _open_network(topo, wl.stream_kwargs)
            out.setup_s.append(t)
            _close_network(net, out)
            del net, _stream
            _collect()
        net, stream, t = _open_network(topo, wl.stream_kwargs)
        out.setup_s.append(t)
        out.transport = f"{type(net.transport).__module__}.{type(net.transport).__name__}"
        wl.bind(net, stream)
        last = k == rounds - 1
        probe("start")
        t_round = time.perf_counter()
        try:
            # Latency: one wave in flight.  The last round runs on until
            # the run has enough samples for p90.
            t_end = t_round + lat_s
            while True:
                now = time.perf_counter()
                if now >= t_end and (
                    not last or len(out.lat_ms) >= MIN_LATENCY_SAMPLES or now >= t_cap
                ):
                    break
                out.attempted += per_wave
                t0 = time.perf_counter()
                wl.start_wave(wave)
                wl.finish_wave(wave)
                out.lat_ms.append((time.perf_counter() - t0) * 1000.0)
                out.measured_ops += per_wave
                wave += 1
            # Throughput: a fixed window of waves in flight.
            in_flight: list[int] = []
            ops = 0
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for _ in range(wl.window):
                out.attempted += per_wave
                wl.start_wave(wave)
                in_flight.append(wave)
                wave += 1
            while in_flight:
                wl.finish_wave(in_flight.pop(0))
                ops += per_wave
                if time.perf_counter() < t0 + tput_s:
                    out.attempted += per_wave
                    wl.start_wave(wave)
                    in_flight.append(wave)
                    wave += 1
            out.rates.append(ops / (time.perf_counter() - t0))
            out.cpu_per_op.append((time.process_time() - cpu0) / ops)
            out.measured_ops += ops
            out.measured.append((t_round, time.perf_counter()))
            probe("end")
        except (OpFailed, WrongResult) as exc:
            # The stream's waves are misaligned after a lost or wrong one,
            # so the rest of the run is not measured.
            out.fail(exc, out.attempted - out.measured_ops)
        finally:
            _close_network(net, out)
        wl.bind(None, None)
        del net, stream
        _collect()
        if out.failed:
            break
    return out


CHURN_FANOUT, CHURN_DEPTH = 4, 2
#: Churn cycles start at most this often.  A cycle opens ~40 localhost
#: connections, and each closed one sits in TIME_WAIT for 60 s.  Run
#: back to back, cycles pile up tens of thousands of them, connect()
#: then searches a crowded ephemeral-port range, and every cycle gets
#: slower than the last, and slower still after a previous run.
CHURN_CYCLE_S = 0.25


def run_churn(seed: int, seconds: float, probe: Probe = _no_probe) -> Outcome:
    """Build, kill every internal node in turn, attach a leaf, shut down; repeat.

    Each cycle is measured whole, set-up and shutdown included: they are
    part of churn's work.  ``ops_per_s`` and CPU per op are medians over
    cycles, latency is per membership change.  Cycles are paced by
    :data:`CHURN_CYCLE_S`; the idle time between them is not measured.
    """
    out = Outcome()
    rng = random.Random(seed)
    topo = balanced_topology(CHURN_FANOUT, CHURN_DEPTH)
    victims = [r for r in topo.internals if r != topo.root]
    probe("start")
    t_measure = time.perf_counter()
    t_end = t_measure + seconds
    t_cap = t_measure + MAX_PHASE_S
    wave = 0
    while True:
        now = time.perf_counter()
        if now >= t_cap or (now >= t_end and len(out.lat_ms) >= MIN_LATENCY_SAMPLES):
            break
        base = {r: rng.randrange(1, 1 << 20) for r in range(4 * len(topo))}
        cpu0 = time.process_time()
        t_cycle = time.perf_counter()
        net, stream, t = _open_network(topo, {"transform": "sum", "sync": "wait_for_all"})
        out.setup_s.append(t)
        out.transport = f"{type(net.transport).__module__}.{type(net.transport).__name__}"
        injector = reliability.FailureInjector(net)
        ops = 0
        try:
            for victim in victims:
                out.attempted += 1
                t0 = time.perf_counter()
                injector.kill_node(victim)
                new_topo = reliability.recover_from_failure(net, victim)
                wait_converged([*net.backends, *net.nodes.values()], new_topo)
                _churn_wave(net, stream, base, wave)
                out.lat_ms.append((time.perf_counter() - t0) * 1000.0)
                ops += 1
                wave += 1
            out.attempted += 1
            t0 = time.perf_counter()
            net.attach_backend(net.topology.root)
            wait_converged([*net.backends, *net.nodes.values()], net.topology)
            grown = net.new_stream(transform="sum", sync="wait_for_all")
            for be in net.backends:
                be.wait_for_stream(grown.stream_id, timeout=OP_TIMEOUT_S)
            _churn_wave(net, grown, base, wave)
            out.lat_ms.append((time.perf_counter() - t0) * 1000.0)
            ops += 1
            wave += 1
        except (OpFailed, WrongResult) as exc:
            out.fail(exc, 1)
        finally:
            _close_network(net, out)
        out.measured_ops += ops
        if out.failed:
            break
        out.rates.append(ops / (time.perf_counter() - t_cycle))
        out.cpu_per_op.append((time.process_time() - cpu0) / ops)
        del net, stream, injector
        _collect()
        time.sleep(max(0.0, t_cycle + CHURN_CYCLE_S - time.perf_counter()))
    out.measured.append((t_measure, time.perf_counter()))
    probe("end")
    return out


def _churn_wave(net: Network, stream: Any, base: dict, wave: int) -> None:
    """One wave from every member of ``stream``, checked by exact sum."""
    members = [net.backend(r) for r in stream.members]
    for be in members:
        be.send(stream.stream_id, _tag(wave), "%d", base[be.rank] + wave)
    pkt = _recv_stream(stream)
    want = sum(base[be.rank] for be in members) + len(members) * wave
    if pkt.tag != _tag(wave) or pkt.values[0] != want:
        raise WrongResult(f"churn wave {wave}: got {pkt.values[0]}, want {want}")


def orphan_teardown_s() -> float:
    """Shutdown time after one unrecovered kill on a 4x2 tree.

    Kept out of the repeated runs: one occurrence lasts tens of seconds
    and would set the run length.
    """
    net, _stream, _t = _open_network(
        balanced_topology(4, 2), {"transform": "sum", "sync": "wait_for_all"}
    )
    reliability.FailureInjector(net).kill_node(1)
    t0 = time.perf_counter()
    net.shutdown()
    return time.perf_counter() - t0


WAVE_WORKLOADS: dict[str, type[WaveWorkload]] = {
    cls.name: cls for cls in (UpSum, DownBulk, MeanShift)
}


def prepare(name: str, seed: int) -> Callable[..., Outcome]:
    """Make the workload's inputs; returns ``run(seconds, setup_reps, probe)``.

    Inputs are made once per process, outside every timed region, and
    reused by the untraced and the traced pass.
    """
    if name == "churn":
        return lambda seconds, setup_reps=SETUP_REPS, probe=_no_probe: run_churn(
            seed, seconds, probe
        )
    wl = WAVE_WORKLOADS[name]()
    wl.prepare(seed)
    return lambda seconds, setup_reps=SETUP_REPS, probe=_no_probe: run_waves(
        wl, seconds, setup_reps, probe
    )

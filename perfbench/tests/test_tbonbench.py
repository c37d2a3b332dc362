"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from repro import balanced_topology  # noqa: E402
import run  # noqa: E402
from tbonbench import layers, spans, stats, workloads  # noqa: E402


# -- percentiles --------------------------------------------------------------
def test_chunked_percentile_is_the_median_over_chunks():
    calm, slowed = [1.0] * 100, [9.0] * 100
    # One slowed stretch of three moves a percentile of all samples, not
    # the median over chunks.
    assert stats.percentile(calm + slowed + calm, 90) == 9.0
    assert stats.chunked_percentile(calm + slowed + calm, 90, 100) == 1.0
    # A tail shorter than a chunk joins the last chunk.
    assert stats.chunked_percentile(calm + slowed + calm + [5.0] * 50, 90, 100) == 5.0
    assert stats.chunked_percentile(calm[:99], 90, 100) is None


def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(list(reversed(range(100))), 90) == 89
    assert stats.min_samples_for(90) == 100


def test_p99_needs_a_thousand_samples():
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(1000), 99) == 989
    assert stats.min_samples_for(99) == 1000


def test_percentile_rejects_bounds_and_empty():
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)
    assert stats.percentile([], 50) is None


# -- spans --------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def leaf(dt):
        clock.t += dt

    def middle():
        clock.t += 1.0
        rec.call("leaf", leaf, (2.0,), {})
        clock.t += 0.5
        rec.call("leaf", leaf, (3.0,), {})

    def outer():
        clock.t += 4.0
        rec.call("middle", middle, (), {})

    rec.call("outer", outer, (), {})
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    # outer = 4 + middle(1 + 2 + 0.5 + 3); only its direct child is subtracted.
    assert [s.t1 - s.t0 for s in by_name["outer"]] == [10.5]
    assert spans.self_times(rec.spans, "outer") == [4.0]
    assert spans.self_times(rec.spans, "middle") == [1.5]
    assert spans.self_times(rec.spans, "leaf") == [2.0, 3.0]
    middle_span = by_name["middle"][0]
    assert all(s.parent == middle_span.sid for s in by_name["leaf"])


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(1, 0, "p", 0, 0.0, 10.0, None, None)
    kids = [
        spans.Span(2, 1, "c", 0, 1.0, 4.0, None, None),
        spans.Span(3, 1, "c", 0, 3.0, 6.0, None, None),  # overlaps the first
        spans.Span(4, 1, "c", 0, 9.0, 12.0, None, None),  # runs past the parent
    ]
    assert spans.self_times([parent, *kids], "p") == [10.0 - 5.0 - 1.0]


def test_ops_are_inherited_from_the_nearest_ancestor():
    rec = spans.SpanRecorder(FakeClock())
    rec.call("outer", lambda: rec.call("inner", lambda: None, (), {}), (), {},
             op_of=lambda args, result: 7)
    resolved = {s.name: s.op for s in rec.resolved()}
    assert resolved == {"outer": 7, "inner": 7}


def test_wrappers_restore_the_originals():
    targets = layers.targets()
    spans.assert_pristine(targets, layers.ORIGINALS)
    with spans.Instrumentation(spans.SpanRecorder(), targets):
        with pytest.raises(RuntimeError, match="BackEnd.send"):
            spans.assert_pristine(targets, layers.ORIGINALS)
        assert isinstance(
            layers.Packet.__dict__["from_bytes"], classmethod
        ), "a classmethod stays a classmethod when wrapped"
    spans.assert_pristine(targets, layers.ORIGINALS)


def test_park_runs_from_a_waves_first_push_to_its_release():
    from repro.core.filters import FilterContext
    from repro.core.packet import Packet
    from repro.core.sync_filters import WaitForAll

    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    ctx = FilterContext(n_children=2)

    def pkt(wave):
        return Packet(1, layers.FIRST_APPLICATION_TAG + wave, "%d", (wave,))

    with spans.Instrumentation(rec, [t for t in layers.targets() if t.owner is WaitForAll]):
        sync = WaitForAll()
        clock.t = 1.0
        assert sync.push(pkt(0), 1, ctx) == []  # opens wave 0
        clock.t = 2.0
        assert sync.push(pkt(1), 1, ctx) == []  # opens wave 1
        clock.t = 5.0
        assert len(sync.push(pkt(0), 2, ctx)) == 1  # releases wave 0
        clock.t = 9.0
        assert len(sync.push(pkt(1), 2, ctx)) == 1  # releases wave 1
    parks = [(s.op, s.t0, s.t1) for s in rec.spans if s.name == "sync.park"]
    assert parks == [(0, 1.0, 5.0), (1, 2.0, 9.0)]
    assert [s.op for s in rec.spans if s.name == "sync.push"] == [0, 1, 0, 1]


# -- churn convergence ---------------------------------------------------------
class Proc:
    def __init__(self, rank: int, topology) -> None:
        self.rank = rank
        self.topology = topology


def test_convergence_compares_parent_ranks_not_objects():
    topo = balanced_topology(2, 2)
    victim = topo.children(topo.root)[0]
    new_topo = topo.replace_subtree_parent(victim)
    # An equal tree built separately, as a process gets it over a socket.
    received = balanced_topology(2, 2).replace_subtree_parent(victim)
    assert received is not new_topo
    moved = [Proc(r, topo) for r in topo.children(victim)]
    stays = [Proc(r, received) for r in new_topo.backends if r not in topo.children(victim)]
    clock = FakeClock()
    polls = []

    def sleep(dt):
        polls.append(dt)
        clock.t += dt
        if len(polls) == 3:
            for p in moved:
                p.topology = received

    workloads.wait_converged([*moved, *stays], new_topo, 1.0, clock=clock, sleep=sleep)
    assert len(polls) == 3


def test_convergence_times_out_and_counts_as_a_failed_op():
    topo = balanced_topology(2, 2)
    victim = topo.children(topo.root)[0]
    new_topo = topo.replace_subtree_parent(victim)
    clock = FakeClock()

    def sleep(dt):
        clock.t += dt

    lagging = [Proc(r, topo) for r in topo.children(victim)]
    with pytest.raises(workloads.ConvergenceTimeout, match="still on the old tree"):
        workloads.wait_converged(lagging, new_topo, 0.01, poll_s=0.001, clock=clock, sleep=sleep)
    assert clock.t == pytest.approx(0.01, abs=0.002)
    out = workloads.Outcome()
    out.fail(workloads.ConvergenceTimeout("x"), 1)
    assert (out.failed, out.wrong) == (1, 0)


def test_churn_counts_a_convergence_timeout_as_failed(monkeypatch):
    def never(procs, topo, timeout=0.0, **kw):
        raise workloads.ConvergenceTimeout("never converges")

    monkeypatch.setattr(workloads, "wait_converged", never)
    out = workloads.run_churn(seed=1, seconds=0.0)
    assert (out.attempted, out.failed, out.wrong) == (1, 1, 0)
    assert out.lat_ms == [] and out.node_errors == []
    assert len(out.teardown_s) == 1


# -- BENCHMARK.json agrees with the code ------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) <= set(run.WORKLOAD_NAMES)
    for w in bench["workloads"]:
        cls = workloads.WAVE_WORKLOADS.get(w["name"])
        window = cls.window if cls else 1
        assert f"window {window}" in w["why"], w["name"]
    assert [m["name"] for m in bench["per_layer"]] == [m.name for m in layers.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        m.name: m.unit for m in layers.LAYER_METRICS
    }

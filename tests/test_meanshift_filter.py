"""Tests for the distributed mean-shift filter (the paper's case study)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology, flat_topology
from repro.cluster.datagen import ClusterSpec, full_dataset, leaf_dataset
from repro.cluster.meanshift import mean_shift
from repro.cluster.meanshift_filter import (
    MEANSHIFT_FMT,
    MeanShiftFilter,
    leaf_mean_shift,
)
from repro.core.errors import TBONError
from repro.core.filters import FilterContext
from repro.core.packet import Packet

TAG = FIRST_APPLICATION_TAG
SPEC = ClusterSpec(points_per_cluster=150)


def leaf_packet(i, seed=42, collapse=None):
    pts = leaf_dataset(i, SPEC, seed)
    d, w, pk, _res = leaf_mean_shift(pts, collapse_cell=collapse)
    return Packet(1, TAG, MEANSHIFT_FMT, (d, w, pk), src=100 + i)


class TestLeafStep:
    def test_leaf_output_is_reduced(self):
        pts = leaf_dataset(0, SPEC, 42)
        d, w, pk, res = leaf_mean_shift(pts)
        assert len(d) < len(pts)
        assert w.sum() == pytest.approx(len(pts))
        assert 1 <= len(pk) <= 8
        assert res.iterations > 0

    def test_collapse_disabled_forwards_raw(self):
        pts = leaf_dataset(0, SPEC, 42)
        d, w, _pk, _res = leaf_mean_shift(pts, collapse_cell=0)
        assert len(d) == len(pts)
        assert np.all(w == 1.0)


class TestFilterMerge:
    def test_merge_conserves_weight(self):
        f = MeanShiftFilter(bandwidth=50.0)
        batch = [leaf_packet(i) for i in range(3)]
        (out,) = f.execute(batch, FilterContext(n_children=3))
        total_in = sum(p.values[1].sum() for p in batch)
        assert out.values[1].sum() == pytest.approx(total_in)
        assert f.waves == 1
        assert f.total_iterations > 0

    def test_merged_peaks_match_single_node(self):
        """The distributed peaks track the single-node run's peaks."""
        f = MeanShiftFilter(bandwidth=50.0)
        batch = [leaf_packet(i) for i in range(4)]
        (out,) = f.execute(batch, FilterContext(n_children=4))
        dist_peaks = np.sort(out.values[2], axis=0)
        single = mean_shift(full_dataset(4, SPEC, 42))
        single_peaks = np.sort(single.peaks, axis=0)
        assert len(dist_peaks) == len(single_peaks)
        assert np.linalg.norm(dist_peaks - single_peaks, axis=1).max() < 10.0

    def test_output_stays_bounded_across_levels(self):
        """Re-merging merged outputs must not blow up (data reduction)."""
        f = MeanShiftFilter(bandwidth=50.0)
        ctx = FilterContext(n_children=2)
        level1 = [
            f.execute([leaf_packet(2 * i), leaf_packet(2 * i + 1)], ctx)[0]
            for i in range(2)
        ]
        (root,) = f.execute(level1, ctx)
        leaf_sizes = [len(leaf_packet(i).values[0]) for i in range(4)]
        assert len(root.values[0]) < sum(leaf_sizes)

    def test_empty_peaks_tolerated(self):
        f = MeanShiftFilter(bandwidth=50.0)
        empty = Packet(
            1, TAG, MEANSHIFT_FMT, (np.empty((0, 2)), np.empty(0), np.empty((0, 2)))
        )
        (out,) = f.execute([empty, leaf_packet(0)], FilterContext(n_children=2))
        assert len(out.values[2]) >= 1

    def test_nan_weight_rejected(self):
        """Merge data arrives over sockets: one NaN weight must not pass."""
        f = MeanShiftFilter(bandwidth=50.0)
        d, w, pk = leaf_packet(0).values
        w = w.copy()
        w[len(w) // 2] = np.nan
        bad = Packet(1, TAG, MEANSHIFT_FMT, (d, w, pk), src=100)
        with pytest.raises(TBONError, match="finite"):
            f.transform([bad, leaf_packet(1)], FilterContext(n_children=2))

    def test_collapse_off_grows_data(self):
        f = MeanShiftFilter(bandwidth=50.0, collapse_cell=0)
        batch = [leaf_packet(i, collapse=0) for i in range(2)]
        (out,) = f.execute(batch, FilterContext(n_children=2))
        assert len(out.values[0]) == sum(len(p.values[0]) for p in batch)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "topo_factory", [lambda: flat_topology(4), lambda: balanced_topology(2, 2)]
    )
    def test_distributed_equals_single_node_modes(self, topo_factory):
        topo = topo_factory()
        with Network(topo) as net:
            s = net.new_stream(
                transform="mean_shift",
                sync="wait_for_all",
                transform_params={"bandwidth": 50.0},
            )
            leaf_order = {r: i for i, r in enumerate(topo.backends)}

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                pts = leaf_dataset(leaf_order[be.rank], SPEC, 42)
                d, w, pk, _ = leaf_mean_shift(pts)
                be.send(s.stream_id, TAG, MEANSHIFT_FMT, d, w, pk)

            net.run_backends(leaf)
            pkt = s.recv(timeout=30)
            dist_peaks = np.sort(pkt.values[2], axis=0)
            single = mean_shift(full_dataset(4, SPEC, 42))
            single_peaks = np.sort(single.peaks, axis=0)
            assert len(dist_peaks) == len(single_peaks) == 4
            assert np.linalg.norm(dist_peaks - single_peaks, axis=1).max() < 10.0
            # Weight conservation across the whole tree.
            assert pkt.values[1].sum() == pytest.approx(4 * len(leaf_dataset(0, SPEC, 42)))
            assert net.node_errors() == {}

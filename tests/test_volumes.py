"""Windowing, flattening, multi-scale sampling, resize, normalization, stacking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stwnn import volumes as vol
from stwnn.errors import ConfigError, DimensionError, InsufficientDataError, ValidationError


def brute_force_starts(n_packets, window, overlap):
    """Every window start a direct scan would accept."""
    starts = []
    stride = window - overlap
    s = 0
    while s + window <= n_packets:
        starts.append(s)
        s += stride
    return starts


def random_signal(n_sub, n_packets, n_tx, n_rx, seed=0):
    return np.random.default_rng(seed).standard_normal((n_sub, n_packets, n_tx, n_rx))


class TestSegmentStream:
    def test_nine_overlapping_segments(self):
        cfg = vol.SegmentationConfig(window=20, overlap=10, scales=(1,))
        signal = random_signal(2, 100, 1, 1)
        segs = vol.segment_stream(signal, cfg)
        assert len(segs) == 9
        for k, seg in enumerate(segs):
            np.testing.assert_array_equal(seg, signal[:, 10 * k:10 * k + 20])

    def test_disjoint_tiling(self):
        cfg = vol.SegmentationConfig(window=20, overlap=0, scales=(1,))
        assert len(vol.segment_stream(random_signal(1, 100, 1, 1), cfg)) == 5

    def test_too_short_raises(self):
        cfg = vol.SegmentationConfig(window=20, overlap=5, scales=(1,))
        with pytest.raises(InsufficientDataError):
            vol.segment_stream(random_signal(1, 19, 1, 1), cfg)

    def test_degenerate_overlap_rejected(self):
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=20, overlap=20, scales=(1,))
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=20, overlap=25, scales=(1,))

    @given(n_packets=st.integers(1, 64), window=st.integers(1, 64),
           overlap=st.integers(0, 63))
    @settings(max_examples=300, deadline=None)
    def test_count_matches_brute_force(self, n_packets, window, overlap):
        if overlap >= window:
            return
        cfg = vol.SegmentationConfig(window=window, overlap=overlap, scales=(1,))
        signal = np.zeros((1, n_packets, 1, 1))
        expected = brute_force_starts(n_packets, window, overlap)
        if n_packets < window:
            with pytest.raises(InsufficientDataError):
                vol.segment_stream(signal, cfg)
        else:
            assert len(vol.segment_stream(signal, cfg)) == len(expected)


def one_window(segment, scales, target):
    """The config that cuts ``segment`` as exactly one window."""
    return vol.SegmentationConfig(window=segment.shape[1], overlap=0, scales=scales,
                                  target_shape=target)


def flat(segment):
    n_sub, w, n_tx, n_rx = segment.shape
    return segment.reshape(n_sub, w, n_tx * n_rx)


class TestBuildVolume:
    """Antenna-axis flattening inside ``segment_volumes`` (scale 1, no resize)."""

    def test_shape(self):
        seg = random_signal(30, 20, 3, 3)
        (v,) = vol.segment_volumes(seg, one_window(seg, (1,), (30, 20, 9)))
        assert v.data.shape == (30, 20, 9)

    def test_index_map_over_all_coordinates(self):
        n_sub, w, n_tx, n_rx = 3, 4, 2, 3
        cfg = vol.SegmentationConfig(window=w, overlap=0, scales=(1,),
                                     target_shape=(n_sub, w, n_tx * n_rx))
        for s in range(n_sub):
            for t in range(w):
                for tx in range(n_tx):
                    for rx in range(n_rx):
                        seg = np.zeros((n_sub, w, n_tx, n_rx))
                        seg[s, t, tx, rx] = 1.0
                        (v,) = vol.segment_volumes(seg, cfg)
                        expected = np.zeros((n_sub, w, n_tx * n_rx))
                        expected[s, t, tx * n_rx + rx] = 1.0
                        np.testing.assert_array_equal(v.data, vol.normalize(expected))

    def test_zeros(self):
        seg = np.zeros((2, 3, 2, 2))
        (v,) = vol.segment_volumes(seg, one_window(seg, (1,), (2, 3, 4)))
        assert not v.data.any()

    def test_value_preserving(self):
        seg = random_signal(4, 5, 2, 3, seed=5)
        (v,) = vol.segment_volumes(seg, one_window(seg, (1,), (4, 5, 6)))
        standardized = (seg - seg.mean()) / (seg.std() + 1e-8)
        np.testing.assert_allclose(np.sort(v.data, axis=None), np.sort(standardized, axis=None),
                                   atol=1e-12)


class TestMultiscale:
    """Temporal subsampling inside ``segment_volumes``."""

    def test_scale_one_is_identity(self):
        seg = random_signal(3, 8, 2, 2, seed=6)
        (v,) = vol.segment_volumes(seg, one_window(seg, (1,), (3, 8, 4)))
        np.testing.assert_array_equal(v.data, vol.normalize(flat(seg)))
        assert v.scale == 1

    def test_time_indices(self):
        seg = np.zeros((1, 20, 1, 1))
        seg[0, :, 0, 0] = np.arange(20)
        (v,) = vol.segment_volumes(seg, one_window(seg, (4,), (1, 5, 1)))
        kept = np.array([0.0, 4, 8, 12, 16])
        np.testing.assert_allclose(v.data[0, :, 0], (kept - kept.mean()) / (kept.std() + 1e-8),
                                   atol=1e-12)

    def test_three_scales_depths(self):
        seg = random_signal(2, 20, 1, 2, seed=7)
        out = vol.segment_volumes(seg, one_window(seg, (1, 2, 4), (2, 5, 2)))
        assert [v.scale for v in out] == [1, 2, 4]
        for s, depth in ((1, 20), (2, 10), (4, 5)):
            # a target of the subsampled depth leaves the time axis unresized
            (v,) = vol.segment_volumes(seg, one_window(seg, (s,), (2, depth, 2)))
            np.testing.assert_array_equal(v.data, vol.normalize(flat(seg[:, ::s])))

    def test_scale_larger_than_window(self):
        cfg = vol.SegmentationConfig(window=8, overlap=0, scales=(1, 5), target_shape=(1, 2, 1))
        with pytest.raises(ConfigError, match="exceeds segment length"):
            vol.segment_volumes(random_signal(1, 4, 1, 1), cfg)


def naive_trilinear(data, target):
    """Direct per-output-point interpolation with corner alignment."""
    def positions(n_src, n_dst):
        if n_dst == 1 or n_src == 1:
            return [0.0] * n_dst
        return [u * (n_src - 1) / (n_dst - 1) for u in range(n_dst)]

    src = data.shape
    pos = [positions(src[a], target[a]) for a in range(3)]
    out = np.zeros(target)
    for i in range(target[0]):
        for j in range(target[1]):
            for k in range(target[2]):
                acc = 0.0
                for a0, w0 in _corners(pos[0][i], src[0]):
                    for a1, w1 in _corners(pos[1][j], src[1]):
                        for a2, w2 in _corners(pos[2][k], src[2]):
                            acc += w0 * w1 * w2 * data[a0, a1, a2]
                out[i, j, k] = acc
    return out


def _corners(p, n):
    lo = int(np.floor(p))
    hi = min(lo + 1, n - 1)
    f = p - lo
    if lo == hi:
        return [(lo, 1.0)]
    return [(lo, 1.0 - f), (hi, f)]


class TestUpsample:
    def test_identity_resize(self):
        data = random_signal(3, 4, 1, 2, seed=8).reshape(3, 4, 2)
        np.testing.assert_array_equal(vol.upsample(data, (3, 4, 2)), data)

    def test_linear_midpoint(self):
        out = vol.upsample(np.array([0.0, 1.0]).reshape(1, 2, 1), (1, 3, 1))
        np.testing.assert_allclose(out[0, :, 0], [0.0, 0.5, 1.0], atol=1e-15)

    def test_matches_naive_trilinear(self):
        data = np.random.default_rng(9).standard_normal((4, 4, 4))
        out = vol.upsample(data, (7, 7, 7))
        np.testing.assert_allclose(out, naive_trilinear(data, (7, 7, 7)), atol=1e-12)

    def test_downsize_matches_naive(self):
        data = np.random.default_rng(10).standard_normal((5, 6, 4))
        out = vol.upsample(data, (3, 2, 2))
        np.testing.assert_allclose(out, naive_trilinear(data, (3, 2, 2)), atol=1e-12)

    def test_single_element_axis_broadcasts(self):
        out = vol.upsample(np.full((1, 2, 1), 3.0), (4, 2, 5))
        assert out.shape == (4, 2, 5)
        np.testing.assert_allclose(out, 3.0)

    def test_monotone_preserving(self):
        data = np.sort(np.random.default_rng(11).standard_normal((1, 9, 1)), axis=1)
        out = vol.upsample(data, (1, 17, 1))
        assert np.all(np.diff(out[0, :, 0]) >= -1e-15)

    def test_scale_one_then_upsample_is_identity(self):
        seg = random_signal(3, 6, 2, 2, seed=12)
        scale_one = flat(seg[:, ::1])
        out = vol.upsample(scale_one, scale_one.shape)
        np.testing.assert_allclose(out, flat(seg), atol=1e-12)
        assert out.flags.c_contiguous

    def test_strided_input_gives_contiguous_result(self):
        data = flat(random_signal(3, 8, 2, 2, seed=15)[:, ::2])
        assert not data.flags.c_contiguous
        for target in (data.shape, (3, 7, 4)):
            out = vol.upsample(data, target)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, vol.upsample(data.copy(), target))

    def test_bad_target_or_rank_rejected(self):
        with pytest.raises(ConfigError):
            vol.upsample(np.zeros((2, 2, 2)), (2, 0, 2))
        with pytest.raises(DimensionError):
            vol.upsample(np.zeros((2, 2)), (2, 2, 2))


class TestNormalize:
    def test_constant_maps_to_zeros(self):
        np.testing.assert_allclose(vol.normalize(np.full((2, 3, 2), 4.2)), np.zeros((2, 3, 2)),
                                   atol=1e-7)

    def test_two_point(self):
        out = vol.normalize(np.array([0.0, 2.0]).reshape(1, 2, 1))
        np.testing.assert_allclose(out[0, :, 0], [-1.0, 1.0], atol=1e-6)

    def test_random_standardized(self):
        out = vol.normalize(np.random.default_rng(13).standard_normal((5, 6, 4)))
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-6


def reference_segment_volumes(segment, scales, target):
    """Independent per-scale reference: index loops, naive resize, mean/std."""
    n_sub, w, n_tx, n_rx = segment.shape
    out = []
    for s in scales:
        times = list(range(0, w, s))
        data = np.zeros((n_sub, len(times), n_tx * n_rx))
        for ti, t in enumerate(times):
            for tx in range(n_tx):
                for rx in range(n_rx):
                    data[:, ti, tx * n_rx + rx] = segment[:, t, tx, rx]
        data = naive_trilinear(data, target)
        out.append((data - data.mean()) / (data.std() + 1e-8))
    return out


class TestSegmentVolumes:
    @pytest.mark.parametrize("shape, scales, target", [
        ((3, 12, 2, 3), (1, 2, 4), (4, 12, 6)),     # time upsized to the window
        ((2, 9, 3, 2), (1, 3), (3, 4, 5)),          # every axis resized, some downsized
        ((4, 7, 1, 1), (2, 7), (1, 5, 2)),          # odd depths, length-1 axes
        ((2, 16, 2, 2), (1, 2, 4, 8), (2, 16, 4)),  # identity resize at scale 1
    ])
    def test_values_match_reference(self, shape, scales, target):
        seg = np.random.default_rng(sum(shape)).standard_normal(shape) * 7.0 + 3.0
        cfg = vol.SegmentationConfig(window=shape[1], overlap=0, scales=scales,
                                     target_shape=target)
        out = vol.segment_volumes(seg, cfg, source_segment=5, label=2)
        expected = reference_segment_volumes(seg, scales, target)
        assert [v.scale for v in out] == list(scales)
        assert all(v.source_segment == 5 and v.label == 2 for v in out)
        for v, ref in zip(out, expected):
            np.testing.assert_allclose(v.data, ref, rtol=0, atol=1e-12)

    def test_rank_checked(self):
        cfg = vol.SegmentationConfig(window=4, overlap=0, scales=(1,), target_shape=(2, 4, 2))
        with pytest.raises(DimensionError):
            vol.segment_volumes(np.zeros((2, 4, 2)), cfg)

    def test_one_volume_construction_per_window_and_scale(self, monkeypatch):
        built = []
        check = vol.Volume3D.__post_init__
        monkeypatch.setattr(vol.Volume3D, "__post_init__",
                            lambda self: (built.append(self.scale), check(self)))
        cfg = vol.SegmentationConfig(window=20, overlap=10, scales=(1, 2, 4),
                                     target_shape=(4, 8, 2))
        out = vol.stream_volumes(random_signal(4, 100, 1, 2, seed=14), cfg)
        assert len(out) == 9 * 3
        assert built == [1, 2, 4] * 9


class TestPipelineHelpers:
    def test_stream_volumes_counts_and_tags(self):
        cfg = vol.SegmentationConfig(window=20, overlap=10, scales=(1, 2, 4),
                                     target_shape=(4, 8, 2))
        signal = random_signal(4, 100, 1, 2, seed=14)
        out = vol.stream_volumes(signal, cfg, label=1)
        assert len(out) == 9 * 3
        assert all(v.data.shape == (4, 8, 2) for v in out)
        assert all(v.label == 1 for v in out)
        groups = vol.group_by_segment(out)
        assert len(groups) == 9
        sample = vol.stack_channels(groups[0])
        assert sample.shape == (3, 4, 8, 2)

    def test_stack_channels_orders_by_scale(self):
        a = vol.Volume3D(data=np.zeros((1, 2, 1)), scale=4)
        b = vol.Volume3D(data=np.ones((1, 2, 1)), scale=1)
        stacked = vol.stack_channels([a, b])
        np.testing.assert_array_equal(stacked[0], b.data)

    def test_stack_empty_rejected(self):
        with pytest.raises(ValidationError):
            vol.stack_channels([])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=8, overlap=0, scales=())
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=8, overlap=0, scales=(2, 1))
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=8, overlap=0, scales=(1, 1))
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=8, overlap=0, scales=(1, 16))
        with pytest.raises(ConfigError):
            vol.SegmentationConfig(window=8, overlap=0, scales=(1,), target_shape=(0, 2, 2))

    def test_volume_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            vol.Volume3D(data=np.array([[[np.nan]]]), scale=1)

"""Channel model and synthetic stream generator."""

import dataclasses

import numpy as np
import pytest

from stwnn import csi
from stwnn.errors import DimensionError, ValidationError


def simple_spec(n_ant=9, **kwargs):
    defaults = dict(duration_s=1.0, noise_std=0.0, seed=3,
                    motion_components=(csi.MotionComponent(
                        doppler_hz=5.0, delay_weight=1.0, antenna_pattern=(1.0,) * n_ant),))
    defaults.update(kwargs)
    return csi.ActivitySpec(**defaults)


class TestSynthStream:
    def test_frame_count_and_shape(self):
        stream = csi.synth_stream(simple_spec(), 3, 3, 30, 100.0)
        assert len(stream) == 100
        assert stream.h.shape == (100, 3, 3, 30)
        assert (stream.n_tx, stream.n_rx, stream.n_sub) == (3, 3, 30)
        assert stream.sample_rate_hz == 100.0

    def test_static_channel_identical_frames(self):
        spec = simple_spec(motion_components=(csi.MotionComponent(
            doppler_hz=0.0, delay_weight=1.0, antenna_pattern=(1.0,) * 9),))
        stream = csi.synth_stream(spec, 3, 3, 10, 50.0)
        for packet in stream.h[1:]:
            np.testing.assert_array_equal(packet, stream.h[0])

    def test_deterministic(self):
        spec = simple_spec(noise_std=0.3)
        s1 = csi.synth_stream(spec, 3, 3, 30, 100.0)
        s2 = csi.synth_stream(spec, 3, 3, 30, 100.0)
        np.testing.assert_array_equal(s1.h, s2.h)

    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            csi.synth_stream(simple_spec(duration_s=0.001), 3, 3, 30, 100.0)

    def test_frame_count_floor(self):
        stream = csi.synth_stream(simple_spec(n_ant=1, duration_s=0.999), 1, 1, 2, 100.0)
        assert len(stream) == 99

    def test_pattern_length_checked(self):
        spec = simple_spec(motion_components=(csi.MotionComponent(
            doppler_hz=1.0, delay_weight=1.0, antenna_pattern=(1.0,) * 4),))
        with pytest.raises(DimensionError):
            csi.synth_stream(spec, 3, 3, 8, 100.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            simple_spec(seed=-1)

    def test_doppler_spec_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            csi.doppler_activity_spec(0, n_ant=9, seed=-1)
        assert csi.doppler_activity_spec(0, n_ant=9, seed=0).seed == 0


class TestAmplitude:
    def test_pythagorean(self):
        stream = csi.CsiStream(h=np.full((1, 1, 1, 1), 3.0 + 4.0j), sample_rate_hz=1.0)
        assert csi.amplitude(stream)[0, 0, 0, 0] == pytest.approx(5.0)

    def test_zero(self):
        stream = csi.CsiStream(h=np.zeros((1, 1, 1, 1), dtype=complex), sample_rate_hz=1.0)
        assert csi.amplitude(stream)[0, 0, 0, 0] == 0.0

    def test_matches_elementwise_oracle_and_layout(self):
        stream = csi.synth_stream(simple_spec(n_ant=6, noise_std=0.2, duration_s=0.07), 2, 3, 5, 100.0)
        out = csi.amplitude(stream)
        assert out.shape == (5, 7, 2, 3)
        for s in range(5):
            for i in range(7):
                for t in range(2):
                    for r in range(3):
                        z = stream.h[i, t, r, s]
                        ref = np.sqrt(z.real ** 2 + z.imag ** 2)
                        assert out[s, i, t, r] == pytest.approx(ref, rel=1e-12)
        assert np.all(out >= 0)

    def test_global_phase_invariance(self):
        stream = csi.synth_stream(simple_spec(n_ant=4, noise_std=0.1, duration_s=0.05), 2, 2, 6, 100.0)
        base = csi.amplitude(stream)
        phase = np.exp(1j * 1.234)
        rotated = csi.CsiStream(h=stream.h * phase, sample_rate_hz=100.0)
        np.testing.assert_allclose(csi.amplitude(rotated), base, rtol=1e-12)


class TestStreamInvariants:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            csi.CsiStream(h=np.ones((0, 1, 1, 1), dtype=complex), sample_rate_hz=1.0)
        with pytest.raises(ValidationError):
            csi.CsiStream(h=np.ones((2, 1, 0, 1), dtype=complex), sample_rate_hz=1.0)

    def test_shape_mismatch_rejected(self):
        for shape in [(1, 1, 2), (2, 1, 1, 2, 1), ()]:
            with pytest.raises(DimensionError):
                csi.CsiStream(h=np.ones(shape, dtype=complex), sample_rate_hz=1.0)

    def test_non_finite_frame_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            h = np.ones((3, 1, 1, 2), dtype=complex)
            h[1, 0, 0, 1] = bad
            with pytest.raises(ValidationError):
                csi.CsiStream(h=h, sample_rate_hz=1.0)

    @pytest.mark.parametrize("rate", [0.0, -100.0, np.nan, np.inf])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValidationError):
            csi.CsiStream(h=np.ones((1, 1, 1, 1), dtype=complex), sample_rate_hz=rate)

    def test_read_only_copy_of_callers_array(self):
        h = np.arange(12.0).reshape(3, 1, 2, 2) * (1 - 1j)
        before = h.copy()
        stream = csi.CsiStream(h=h, sample_rate_hz=10.0)
        assert not stream.h.flags.writeable
        with pytest.raises(ValueError):
            stream.h[0, 0, 0, 0] = 5.0
        assert h.flags.writeable
        assert not np.shares_memory(h, stream.h)
        h[0, 0, 0, 0] = 99.0
        np.testing.assert_array_equal(stream.h, before)
        assert stream.h.dtype == np.complex128

    def test_sizes_follow_the_array(self):
        stream = csi.CsiStream(h=np.ones((5, 2, 3, 4)), sample_rate_hz=10.0)
        assert (len(stream), stream.n_tx, stream.n_rx, stream.n_sub) == (5, 2, 3, 4)
        assert [f.name for f in dataclasses.fields(stream)] == ["h", "sample_rate_hz"]

    def test_activity_spec_validation(self):
        with pytest.raises(ValidationError):
            csi.ActivitySpec(duration_s=1.0, motion_components=())
        with pytest.raises(ValidationError):
            simple_spec(noise_std=-1.0)
        for duration in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="duration_s"):
                simple_spec(duration_s=duration)
        with pytest.raises(ValidationError):
            csi.MotionComponent(doppler_hz=1.0, delay_weight=-0.1, antenna_pattern=(1.0,))

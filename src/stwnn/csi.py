"""WiFi channel model and label-controlled synthetic CSI generation.

Channel state information (CSI) is the complex channel gain per packet,
antenna pair and subcarrier. Synthetic streams superpose a static channel
with Doppler-modulated motion components so that class identity is
controlled exactly by the component frequencies.

A recording is one validated, read-only (I, n_tx, n_rx, n_sub) complex128
array; packet i is row i, so its index and capture time follow from its
position and the stream's sample rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, ValidationError


def _check_rate(sample_rate_hz) -> None:
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValidationError(f"sample_rate_hz must be finite and > 0, got {sample_rate_hz}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class CsiStream:
    """One recording: a read-only (I, n_tx, n_rx, n_sub) complex128 array.

    Packet i is ``h[i]``, captured at ``i / sample_rate_hz`` seconds. The
    array is copied on construction, so the caller's array is never frozen
    or aliased.
    """

    h: np.ndarray
    sample_rate_hz: float
    label: Optional[int] = None

    def __post_init__(self):
        h = np.array(self.h, dtype=np.complex128)
        if h.ndim != 4:
            raise DimensionError(
                f"stream array must be 4-D (I, n_tx, n_rx, n_sub), got shape {h.shape}")
        if h.size == 0:
            raise ValidationError(f"a stream needs at least one non-empty frame, got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValidationError("CSI stream contains non-finite entries")
        _check_rate(self.sample_rate_hz)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]

    @property
    def n_rx(self) -> int:
        return self.h.shape[2]

    @property
    def n_sub(self) -> int:
        return self.h.shape[3]

    def __len__(self):
        return self.h.shape[0]


@dataclass(frozen=True)
class MotionComponent:
    """One Doppler-modulated contribution to the synthetic channel."""

    doppler_hz: float
    delay_weight: float
    antenna_pattern: tuple

    def __post_init__(self):
        if self.delay_weight < 0:
            raise ValidationError(f"delay_weight must be >= 0, got {self.delay_weight}")
        pattern = tuple(float(p) for p in self.antenna_pattern)
        if not all(math.isfinite(p) for p in pattern):
            raise ValidationError("antenna_pattern contains non-finite entries")
        object.__setattr__(self, "antenna_pattern", pattern)


@dataclass(frozen=True)
class ActivitySpec:
    """Recipe for one synthetic activity recording."""

    class_id: int
    duration_s: float
    motion_components: tuple
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ValidationError(f"duration_s must be finite and > 0, got {self.duration_s}")
        components = tuple(self.motion_components)
        if not components:
            raise ValidationError("an activity needs at least one motion component")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValidationError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        _check_seed(self.seed)
        object.__setattr__(self, "motion_components", components)


def synth_stream(spec: ActivitySpec, n_tx: int, n_rx: int, n_sub: int,
                 sample_rate_hz: float) -> CsiStream:
    """Generate a deterministic synthetic CSI stream for one activity.

    The channel at packet i is a static per-(antenna, subcarrier) draw plus,
    for every motion component, a complex sinusoid rotating at its Doppler
    frequency, scaled by the component weight and antenna pattern, with a
    per-subcarrier phase profile drawn once per component. Complex Gaussian
    noise of standard deviation ``spec.noise_std`` is added per entry.

    Identical (spec, shape, rate) inputs always produce identical streams.
    """
    if n_tx < 1 or n_rx < 1 or n_sub < 1:
        raise ValidationError(f"antenna/subcarrier counts must be >= 1, got {n_tx}/{n_rx}/{n_sub}")
    _check_rate(sample_rate_hz)
    span = spec.duration_s * sample_rate_hz
    if not math.isfinite(span):
        raise ValidationError(
            f"duration {spec.duration_s}s at {sample_rate_hz}Hz overflows the frame count")
    n_frames = int(math.floor(span))
    if n_frames < 1:
        raise ValidationError(
            f"duration {spec.duration_s}s at {sample_rate_hz}Hz yields a zero-length stream")

    n_ant = n_tx * n_rx
    for k, comp in enumerate(spec.motion_components):
        if len(comp.antenna_pattern) != n_ant:
            raise DimensionError(
                f"component {k} antenna_pattern has length {len(comp.antenna_pattern)}, "
                f"need n_tx*n_rx = {n_ant}")

    rng = np.random.default_rng(spec.seed)
    base = (rng.standard_normal((n_tx, n_rx, n_sub))
            + 1j * rng.standard_normal((n_tx, n_rx, n_sub))) / math.sqrt(2.0)

    t = np.arange(n_frames) / sample_rate_hz
    h = np.broadcast_to(base, (n_frames, n_tx, n_rx, n_sub)).copy()
    for comp in spec.motion_components:
        sub_phase = rng.uniform(0.0, 2.0 * math.pi, size=n_sub)
        pattern = np.asarray(comp.antenna_pattern).reshape(n_tx, n_rx)
        rotation = np.exp(1j * (2.0 * math.pi * comp.doppler_hz * t[:, None] + sub_phase[None, :]))
        h += comp.delay_weight * pattern[None, :, :, None] * rotation[:, None, None, :]

    if spec.noise_std > 0:
        shape = (n_frames, n_tx, n_rx, n_sub)
        h += (spec.noise_std / math.sqrt(2.0)) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return CsiStream(h=h, sample_rate_hz=sample_rate_hz, label=spec.class_id)


def amplitude(stream: CsiStream) -> np.ndarray:
    """Magnitude of every CSI entry, arranged as (n_sub, I, n_tx, n_rx)."""
    return np.ascontiguousarray(np.abs(stream.h).transpose(3, 0, 1, 2))


def doppler_activity_spec(class_id: int, *, n_ant: int, duration_s: float = 1.0,
                          doppler_base_hz: float = 4.0, doppler_step_hz: float = 6.0,
                          noise_std: float = 0.1, seed: int = 0) -> ActivitySpec:
    """Build an activity whose class identity is carried by its Doppler band.

    Class c gets a dominant component at ``doppler_base_hz + c * doppler_step_hz``
    plus a weaker component at 1.6x that frequency; antenna patterns are drawn
    from the seed so recordings of one class still vary.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    f = doppler_base_hz + doppler_step_hz * class_id
    components = (
        MotionComponent(doppler_hz=f, delay_weight=1.0,
                        antenna_pattern=tuple(rng.uniform(0.5, 1.5, size=n_ant))),
        MotionComponent(doppler_hz=1.6 * f, delay_weight=0.4,
                        antenna_pattern=tuple(rng.uniform(0.5, 1.5, size=n_ant))),
    )
    return ActivitySpec(class_id=class_id, duration_s=duration_s,
                        motion_components=components, noise_std=noise_std, seed=seed)

"""Turn 4-D CSI amplitude signals into fixed-size 3-D training volumes.

Per recording: slide an overlapping window along the packet axis; per window
and temporal scale s, keep time indices 0, s, 2s, ..., flatten the antenna
axes tx-major (pair tx * n_rx + rx), resize to the network input shape and
standardize, all on plain arrays; then tag each result once as a ``Volume3D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientDataError, ValidationError


@dataclass(frozen=True)
class SegmentationConfig:
    """Windowing and sizing parameters for volume generation.

    window: segment length in packets.
    overlap: packets shared by consecutive segments; must be < window.
    scales: temporal subsampling strides, ascending and distinct.
    target_shape: (d_sub, d_time, d_ant) every volume is resized to.
    """

    window: int
    overlap: int
    scales: tuple = (1, 2, 4)
    target_shape: tuple = (30, 32, 9)

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not 0 <= self.overlap < self.window:
            raise ConfigError(
                f"overlap must satisfy 0 <= overlap < window, got {self.overlap} vs {self.window}")
        scales = tuple(int(s) for s in self.scales)
        if not scales:
            raise ConfigError("scales must not be empty")
        if any(s < 1 for s in scales):
            raise ConfigError(f"scales must be >= 1, got {scales}")
        if list(scales) != sorted(set(scales)):
            raise ConfigError(f"scales must be ascending and distinct, got {scales}")
        if scales[-1] > self.window:
            raise ConfigError(f"scale {scales[-1]} exceeds window {self.window}")
        target = tuple(int(d) for d in self.target_shape)
        if len(target) != 3 or min(target) < 1:
            raise ConfigError(f"target_shape must be three positive ints, got {target}")
        if max(self.window, *target) >= 2**32:  # WGT1 stores them and the scales as u32
            raise ConfigError(f"window {self.window} and target {target} must be < 2**32")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "target_shape", target)


@dataclass
class Volume3D:
    """One 3-D training sample: (n_sub, time, antenna pairs)."""

    data: np.ndarray
    scale: int
    source_segment: int = 0
    label: Optional[int] = None

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise DimensionError(f"volume data must be 3-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("volume contains non-finite entries")
        self.data = data


def segment_stream(signal: np.ndarray, cfg: SegmentationConfig) -> list:
    """Cut a (n_sub, I, n_tx, n_rx) signal into overlapping windows.

    Segment k covers packets [k*(window-overlap), k*(window-overlap)+window).
    Trailing packets that do not fill a whole window are dropped.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 4:
        raise DimensionError(f"signal must be 4-D, got shape {signal.shape}")
    n_packets, w = signal.shape[1], cfg.window
    if n_packets < w:
        raise InsufficientDataError(
            f"stream has {n_packets} packets, need at least {w} for one window")
    stride = w - cfg.overlap
    count = (n_packets - w) // stride + 1
    return [signal[:, k * stride:k * stride + w].copy() for k in range(count)]


def _axis_positions(n_src: int, n_dst: int) -> np.ndarray:
    # corner-aligned resize; length-1 axes on either side pin to source index 0
    if n_dst == 1 or n_src == 1:
        return np.zeros(n_dst)
    pos = np.arange(n_dst) * (n_src - 1) / (n_dst - 1)
    return np.clip(pos, 0.0, n_src - 1)


def _interp_axis(data: np.ndarray, axis: int, n_dst: int) -> np.ndarray:
    n_src = data.shape[axis]
    if n_src == n_dst:
        return data
    pos = _axis_positions(n_src, n_dst)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_src - 1)
    frac = pos - lo
    moved = np.moveaxis(data, axis, 0)
    shape = (n_dst,) + (1,) * (moved.ndim - 1)
    out = moved[lo] * (1.0 - frac).reshape(shape) + moved[hi] * frac.reshape(shape)
    return np.moveaxis(out, 0, axis)


def upsample(data: np.ndarray, target) -> np.ndarray:
    """Trilinear corner-aligned resize to (d_sub, d_time, d_ant). C-contiguous, so normalize
    sums it in one order; ``data`` itself when it already has that shape and order."""
    target = tuple(int(d) for d in target)
    if len(target) != 3 or min(target) < 1:
        raise ConfigError(f"target must be three positive ints, got {target}")
    if data.ndim != 3:
        raise DimensionError(f"volume data must be 3-D, got shape {data.shape}")
    for axis in range(3):
        data = _interp_axis(data, axis, target[axis])
    return np.ascontiguousarray(data)


def normalize(data: np.ndarray) -> np.ndarray:
    """Per-volume standardization: zero mean, unit-ish std (epsilon-guarded)."""
    return (data - data.mean()) / (float(data.std()) + 1e-8)


def segment_volumes(segment: np.ndarray, cfg: SegmentationConfig, *,
                    source_segment: int = 0, label: Optional[int] = None) -> list:
    """One standardized volume per scale of a (n_sub, W, n_tx, n_rx) segment."""
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 4:
        raise DimensionError(f"segment must be 4-D, got shape {segment.shape}")
    n_sub, w, n_tx, n_rx = segment.shape
    if cfg.scales[-1] > w:
        raise ConfigError(f"scale {cfg.scales[-1]} exceeds segment length {w}")
    out = []
    for s in cfg.scales:
        data = upsample(segment[:, ::s].reshape(n_sub, -1, n_tx * n_rx), cfg.target_shape)
        out.append(Volume3D(data=normalize(data), scale=s,
                            source_segment=source_segment, label=label))
    return out


def stream_volumes(signal: np.ndarray, cfg: SegmentationConfig,
                   label: Optional[int] = None) -> list:
    """Full per-recording pipeline: window, multi-scale, resize, standardize."""
    out = []
    for k, seg in enumerate(segment_stream(signal, cfg)):
        out.extend(segment_volumes(seg, cfg, source_segment=k, label=label))
    return out


def stack_channels(volumes) -> np.ndarray:
    """Stack same-shape volumes (one per scale) into a (C, d_sub, d_time, d_ant) sample."""
    volumes = list(volumes)
    if not volumes:
        raise ValidationError("cannot stack an empty volume group")
    shape = volumes[0].data.shape
    for v in volumes[1:]:
        if v.data.shape != shape:
            raise DimensionError(f"volume shapes differ: {v.data.shape} vs {shape}")
    return np.stack([v.data for v in sorted(volumes, key=lambda v: v.scale)])


def group_by_segment(volumes) -> list:
    """Group a flat volume list into per-segment channel groups, ordered by segment."""
    groups = {}
    for v in volumes:
        groups.setdefault(v.source_segment, []).append(v)
    return [groups[k] for k in sorted(groups)]

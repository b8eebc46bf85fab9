"""On-disk formats: CSI streams, volume sets, model weights, and manifests.

All binary formats are little-endian with a 4-byte magic:

CSI1  stream file
    magic "CSI1"
    header: n_tx u32, n_rx u32, n_sub u32, frame_count u32, sample_rate f64
    body:   frame_count frames, each n_tx*n_rx*n_sub complex entries in
            (tx, rx, sub) row-major order, stored as interleaved f64 (re, im)

VOL1  volume set: one recording's samples, a K x C grid of volumes
    magic "VOL1"
    count u32, then per volume:
    d_sub u32, d_time u32, d_ant u32, scale u32, source_segment u32,
    label i32 (-1 means unlabeled), then d_sub*d_time*d_ant f64 row-major
    The grid: count >= 1; segments 0..K-1 in order, each holding segment 0's
    C scales, strictly ascending; every volume of volume 0's shape and label
    (-1 counts as a label). ``load_volumes`` rejects any other file.

WGT1  weight archive, the single source of a saved model
    magic "WGT1", format_version u32 (exactly 2; version 1 has no segmentation)
    config echo: n_classes u32, in_channels u32, block count u32 then
    channel u32 each, kernel u32 x3, feature vector count u32 (always the
    block count, checked on read), feature_dim u32, score_fn u8, variant u8,
    seed i64; an echo the network config rejects, or whose parameters need
    more bytes than the file has left, is a corrupt archive
    segmentation echo (how the training volumes were cut): window u32, overlap
    u32, scale count u32 (= in_channels), scale u32 each, target u32 x3
    tensor count u32, then per tensor: name length u16 + utf-8 name,
    ndim u8, dims u32 each, f64 values row-major (finite); the names are
    unique and are exactly the model's parameter names
    ``load_weights`` reads it in one pass: it checks the header, builds the
    model from the echo and fills each parameter by name.

Manifests are UTF-8 text: "#" starts a comment, entry lines are
"path<TAB>label<TAB>split" with split in {train, val, test}, and directives
(each once) are "@n_classes<TAB>n" and, in a volumes manifest,
"@segmentation<TAB>window<TAB>overlap<TAB>scales<TAB>target" (comma lists).

Tables (a manifest, and the CLI's history, metrics and shift files) are
written by ``write_table``: UTF-8 text, one row per line, fields tab-joined.

Every format or corruption error the four loaders raise starts with the path
of the file it is about.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csi import CsiStream
from .errors import ConfigError, CorruptionError, FormatError, UsageError, ValidationError
from .network import (SCORE_FNS, VARIANTS, Model, NetworkConfig, build_model,
                      parameter_count)
from .volumes import SegmentationConfig, Volume3D

_SPLITS = ("train", "val", "test")
WEIGHTS_VERSION = 2


def _names_path(load):
    """``load(path)``, whose format errors start with the path."""
    @functools.wraps(load)
    def named(path):
        try:
            return load(path)
        except (FormatError, CorruptionError, ValidationError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return named


def _read_exact(f, n: int, what: str) -> bytes:
    # a declared size is checked against the file before it is allocated
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CorruptionError(f"truncated file: expected {n} bytes for {what}, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise CorruptionError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def _read_struct(f, fmt: str, what: str):
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def _expect_magic(f, magic: bytes):
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")


def _expect_eof(f):
    if f.read(1):
        raise CorruptionError("trailing bytes after declared content")


# ---------------------------------------------------------------------------
# CSI streams
# ---------------------------------------------------------------------------

def save_stream(path, stream: CsiStream) -> None:
    with open(path, "wb") as f:
        f.write(b"CSI1")
        f.write(struct.pack("<IIII", stream.n_tx, stream.n_rx, stream.n_sub, len(stream)))
        f.write(struct.pack("<d", stream.sample_rate_hz))
        f.write(stream.h.astype("<c16", copy=False).tobytes())  # interleaved <f8 re, im


@_names_path
def load_stream(path) -> CsiStream:
    with open(path, "rb") as f:
        _expect_magic(f, b"CSI1")
        n_tx, n_rx, n_sub, n_frames = _read_struct(f, "<IIII", "stream header")
        (sample_rate,) = _read_struct(f, "<d", "sample rate")
        if n_frames < 1 or min(n_tx, n_rx, n_sub) < 1:
            raise CorruptionError(
                f"header declares empty stream: {n_tx}x{n_rx}x{n_sub}, {n_frames} frames")
        body = _read_exact(f, n_frames * n_tx * n_rx * n_sub * 16, "frame data")
        _expect_eof(f)
    h = np.frombuffer(body, dtype="<c16").reshape(n_frames, n_tx, n_rx, n_sub)
    try:
        return CsiStream(h=h, sample_rate_hz=sample_rate)
    except ValidationError as exc:  # non-finite or non-positive rate, non-finite entries
        raise CorruptionError(f"stream content: {exc}") from exc


# ---------------------------------------------------------------------------
# volume sets
# ---------------------------------------------------------------------------

def save_volumes(path, volumes) -> None:
    volumes = list(volumes)
    with open(path, "wb") as f:
        f.write(b"VOL1")
        f.write(struct.pack("<I", len(volumes)))
        for v in volumes:
            d_sub, d_time, d_ant = v.data.shape
            label = -1 if v.label is None else int(v.label)
            f.write(struct.pack("<IIIIIi", d_sub, d_time, d_ant,
                                v.scale, v.source_segment, label))
            f.write(np.ascontiguousarray(v.data, dtype="<f8").tobytes())


@_names_path
def load_volumes(path) -> list:
    with open(path, "rb") as f:
        _expect_magic(f, b"VOL1")
        (count,) = _read_struct(f, "<I", "volume count")
        if count < 1:
            raise CorruptionError("volume count is 0")
        out = []
        for i in range(count):
            d_sub, d_time, d_ant, scale, source_segment, label = _read_struct(
                f, "<IIIIIi", f"volume {i} header")
            if min(d_sub, d_time, d_ant) < 1 or scale < 1:
                raise CorruptionError(f"volume {i} header has invalid dims/scale")
            body = _read_exact(f, d_sub * d_time * d_ant * 8, f"volume {i} data")
            data = np.frombuffer(body, dtype="<f8").reshape(d_sub, d_time, d_ant)
            try:
                out.append(Volume3D(data=data.copy(), scale=scale,
                                    source_segment=source_segment,
                                    label=None if label < 0 else label))
            except ValidationError as exc:  # non-finite entries
                raise CorruptionError(f"volume {i} content: {exc}") from exc
        _expect_eof(f)
    first = out[0]
    scales = tuple(sorted({v.scale for v in out if v.source_segment == first.source_segment}))
    c = len(scales)
    for i, v in enumerate(out):
        have = (v.source_segment, v.scale, v.data.shape, v.label)
        want = (i // c, scales[i % c], first.data.shape, first.label)
        if have != want:
            raise CorruptionError(f"volume {i} has (segment, scale, shape, label) {have}, "
                                  f"the grid of volume 0 needs {want}")
    if count % c:
        raise CorruptionError(f"segment {count // c} lacks scales {scales[count % c:]}")
    return out


# ---------------------------------------------------------------------------
# weight archives
# ---------------------------------------------------------------------------

def _pack_config(cfg: NetworkConfig) -> bytes:
    n = len(cfg.block_channels)
    return struct.pack(f"<3I{n}I3I2IBBq", cfg.n_classes, cfg.in_channels, n,
                       *cfg.block_channels, *cfg.kernel, n, cfg.feature_dim,
                       SCORE_FNS.index(cfg.score_fn), VARIANTS.index(cfg.variant), cfg.seed)


def _unpack_config(f) -> NetworkConfig:
    n_classes, in_channels, n_blocks = _read_struct(f, "<III", "config header")
    if n_blocks < 1 or n_blocks > 10_000:
        raise CorruptionError(f"implausible block count {n_blocks}")
    channels = _read_struct(f, f"<{n_blocks}I", "block channels")
    kernel = _read_struct(f, "<III", "kernel dims")
    n_vec, feature_dim = _read_struct(f, "<II", "attention dims")
    score_code, variant_code, seed = _read_struct(f, "<BBq", "config tail")
    if score_code >= len(SCORE_FNS) or variant_code >= len(VARIANTS):
        raise CorruptionError("unknown score_fn or variant code")
    if n_vec != n_blocks:
        raise CorruptionError(f"feature vector count {n_vec} differs from block count {n_blocks}")
    try:
        return NetworkConfig(n_classes=n_classes, in_channels=in_channels,
                             block_channels=channels, kernel=kernel, feature_dim=feature_dim,
                             score_fn=SCORE_FNS[score_code],
                             variant=VARIANTS[variant_code], seed=seed)
    except ConfigError as exc:
        raise CorruptionError(f"config echo: {exc}") from exc


def _unpack_segmentation(f, in_channels: int) -> SegmentationConfig:
    window, overlap, n_scales = _read_struct(f, "<III", "segmentation header")
    if n_scales != in_channels:
        raise CorruptionError(f"segmentation echo has {n_scales} scales, the config echo "
                              f"{in_channels} input channels")
    values = _read_struct(f, f"<{n_scales + 3}I", "scales and target shape")
    try:
        return SegmentationConfig(window=window, overlap=overlap, scales=values[:-3],
                                  target_shape=values[-3:])
    except ConfigError as exc:
        raise CorruptionError(f"segmentation echo: {exc}") from exc


def save_weights(path, model: Model, seg: SegmentationConfig) -> None:
    """Write ``model`` and the segmentation its training volumes were cut with
    (one scale per input channel)."""
    if len(seg.scales) != model.config.in_channels:
        raise UsageError(f"segmentation has {len(seg.scales)} scales, the model takes "
                         f"{model.config.in_channels} input channels")
    params = model.parameters()
    with open(path, "wb") as f:
        f.write(b"WGT1")
        f.write(struct.pack("<I", WEIGHTS_VERSION))
        f.write(_pack_config(model.config))
        f.write(struct.pack(f"<3I{len(seg.scales)}I3I", seg.window, seg.overlap,
                            len(seg.scales), *seg.scales, *seg.target_shape))
        f.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", tensor.values.ndim))
            f.write(struct.pack(f"<{tensor.values.ndim}I", *tensor.values.shape))
            f.write(np.ascontiguousarray(tensor.values, dtype="<f8").tobytes())


@_names_path
def load_weights(path) -> tuple:
    """(model, segmentation): build the model an archive's config echo
    describes, fill its parameters and read the segmentation it was trained on."""
    with open(path, "rb") as f:
        _expect_magic(f, b"WGT1")
        (version,) = _read_struct(f, "<I", "format version")
        if version != WEIGHTS_VERSION:
            hint = " (it stores no segmentation; retrain the model)" if version == 1 else ""
            raise FormatError(f"unsupported weight format version {version}{hint}")
        cfg = _unpack_config(f)
        # the echo's size is checked against the file before the model is allocated
        n_values, left = parameter_count(cfg), os.fstat(f.fileno()).st_size - f.tell()
        if 8 * n_values > left:
            raise CorruptionError(
                f"config echo declares {n_values} parameters, only {left} bytes left")
        segmentation = _unpack_segmentation(f, cfg.in_channels)
        model = build_model(cfg)
        params = model.parameters()
        (count,) = _read_struct(f, "<I", "tensor count")
        if count != len(params):
            raise CorruptionError(f"archive has {count} tensors, model needs {len(params)}")
        for _ in range(count):
            (name_len,) = _read_struct(f, "<H", "tensor name length")
            raw_name = _read_exact(f, name_len, "tensor name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptionError(f"tensor name {raw_name!r} is not UTF-8") from exc
            (ndim,) = _read_struct(f, "<B", "tensor rank")
            shape = _read_struct(f, f"<{ndim}I", "tensor shape")
            body = _read_exact(f, math.prod(shape) * 8, f"tensor {name} data")
            # count == len(params), so unique known names fill every parameter
            target = params.pop(name, None)
            if target is None:
                raise CorruptionError(f"archive names unknown or repeated tensor {name!r}")
            if tuple(shape) != target.values.shape:
                raise CorruptionError(
                    f"tensor {name!r} has shape {tuple(shape)}, model expects "
                    f"{target.values.shape}")
            target.values = np.frombuffer(body, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(target.values).all():
                raise CorruptionError(f"tensor {name!r} holds non-finite values")
        _expect_eof(f)
    return model, segmentation


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    entries: list
    n_classes: int
    segmentation: Optional[SegmentationConfig] = None  # declared by volumes manifests

    def split(self, name: str) -> list:
        return [e for e in self.entries if e.split == name]


def _parse_directive(key: str, values: list):
    """A directive's value; a wrong field count is a ValueError."""
    if key == "n_classes":
        (n_classes,) = values
        return int(n_classes)
    if key != "segmentation":
        raise ValueError(f"unknown directive @{key}")
    window, overlap, scales, target = values
    return SegmentationConfig(window=int(window), overlap=int(overlap),
                              scales=tuple(int(v) for v in scales.split(",")),
                              target_shape=tuple(int(v) for v in target.split(",")))


@_names_path
def load_manifest(path) -> DatasetManifest:
    entries, directives, seen_at = [], {}, {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc.reason}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip("\n").strip()
        if not line:
            continue
        fields = line.split("\t")
        # a path or a directive may appear once
        if fields[0] in seen_at:
            raise ValidationError(f"line {lineno}: {fields[0]!r} repeats line "
                                  f"{seen_at[fields[0]]}")
        seen_at[fields[0]] = lineno
        if fields[0].startswith("@"):
            try:
                directives[fields[0][1:]] = _parse_directive(fields[0][1:], fields[1:])
            except (ValueError, ConfigError) as exc:
                raise ValidationError(f"line {lineno}: bad directive {line!r}: {exc}") from exc
            continue
        if len(fields) != 3:
            raise ValidationError(
                f"line {lineno}: expected 'path<TAB>label<TAB>split', got {line!r}")
        file_path, label_text, split = fields
        try:
            label = int(label_text)
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: label {label_text!r} is not an integer") from exc
        if label < 0:
            raise ValidationError(f"line {lineno}: label must be >= 0, got {label}")
        if split not in _SPLITS:
            raise ValidationError(
                f"line {lineno}: split must be one of {_SPLITS}, got {split!r}")
        entries.append(ManifestEntry(path=file_path, label=label, split=split))

    if not entries:
        raise ValidationError("no entries")
    n_classes = directives.get("n_classes", max(e.label for e in entries) + 1)
    for e in entries:
        if e.label >= n_classes:
            raise ValidationError(
                f"label {e.label} out of range for n_classes={n_classes} ({e.path})")
    for split_name in ("train", "test"):
        if not any(e.split == split_name for e in entries):
            raise ValidationError(f"manifest needs at least one {split_name} entry")
    return DatasetManifest(entries=entries, n_classes=n_classes,
                           segmentation=directives.get("segmentation"))


def write_table(path, rows) -> None:
    """Write each row as its fields' ``str`` joined by tabs, one row per line."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_manifest(path, manifest: DatasetManifest) -> None:
    rows = [("@n_classes", manifest.n_classes)]
    seg = manifest.segmentation
    if seg is not None:
        rows.append(("@segmentation", seg.window, seg.overlap, ",".join(map(str, seg.scales)),
                     ",".join(map(str, seg.target_shape))))
    write_table(path, rows + [(e.path, e.label, e.split) for e in manifest.entries])

"""Byte-mutation fuzz of every file format: truncations, bit flips and
overwritten u32 header fields of one valid CSI1, VOL1, WGT1 and volumes
manifest. A loader raises nothing but a ``StwnnError``, and ``stwnn train`` /
``stwnn eval`` on a mutated VOL1 / WGT1 exits 0, 1 or 2 without a traceback."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stwnn import cli, csi, dataio
from stwnn.errors import StwnnError
from stwnn.volumes import SegmentationConfig, Volume3D

SEG = SegmentationConfig(window=8, overlap=0, scales=(1, 2), target_shape=(4, 6, 3))
VOLUME_BYTES = 24 + 8 * 4 * 6 * 3  # one VOL1 volume: header and values
# u32 values written over a header field: zero, small, the i32 sign bit, the largest
FIELD_VALUES = st.sampled_from([0, 1, 2, 3, 7, 255, 2**16, 2**31 - 1, 2**31, 2**32 - 1])
TRAIN = ("--epochs", "1", "--batch-size", "4", "--blocks", "2", "--feature-dim", "4")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """{format: (path, header field offsets)} of one valid file per format; the
    volumes manifest names three VOL1 grids (2 segments x 2 scales) and a WGT1
    archive trained on them sits beside it."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(70)
    h = rng.standard_normal((3, 1, 2, 2)) + 1j * rng.standard_normal((3, 1, 2, 2))
    dataio.save_stream(root / "s.csi1", csi.CsiStream(h=h, sample_rate_hz=100.0))
    entries = []
    for name, label, split in (("a", 0, "train"), ("b", 1, "train"), ("t", 0, "test")):
        dataio.save_volumes(root / f"{name}.vol1", [
            Volume3D(data=rng.standard_normal(SEG.target_shape), scale=scale,
                     source_segment=k, label=label) for k in range(2) for scale in SEG.scales])
        entries.append(dataio.ManifestEntry(f"{name}.vol1", label, split))
    dataio.write_manifest(root / "manifest.tsv", dataio.DatasetManifest(
        entries=entries, n_classes=2, segmentation=SEG))
    assert cli.main(["train", "--manifest", str(root / "manifest.tsv"),
                     "--out", str(root / "m.wgt1"), *TRAIN]) == 0
    # VOL1: the count, then each volume's dims, scale, segment and label
    volume_fields = [4] + [8 + v * VOLUME_BYTES + 4 * j for v in range(4) for j in range(6)]
    # WGT1 with two blocks: version, the config echo's u32 fields, the segmentation
    # echo (window, overlap, scale count, scales, target) and the tensor count
    weight_fields = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44] + list(range(58, 94, 4))
    return {"csi1": (root / "s.csi1", [4, 8, 12, 16]),
            "vol1": (root / "a.vol1", volume_fields),
            "wgt1": (root / "m.wgt1", weight_fields),
            "manifest": (root / "manifest.tsv", []),
            "root": root}


def mutate(data, blob: bytes, fields) -> bytes:
    """``blob`` truncated, with up to four bits flipped, or with a u32 field overwritten."""
    kinds = ["truncate", "flip"] + (["field"] if fields else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1,
                                      max_size=4)):
            out[bit // 8] ^= 1 << (bit % 8)
    else:
        offset = data.draw(st.sampled_from(fields))
        out[offset:offset + 4] = struct.pack("<I", data.draw(FIELD_VALUES))
    return bytes(out)


LOADERS = {"csi1": dataio.load_stream, "vol1": dataio.load_volumes,
           "wgt1": dataio.load_weights, "manifest": dataio.load_manifest}


@pytest.mark.parametrize("fmt", list(LOADERS))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_loader_raises_only_typed_errors(files, fmt, data):
    source, fields = files[fmt]
    target = files["root"] / f"mutated_{source.name}"
    target.write_bytes(mutate(data, source.read_bytes(), fields))
    try:
        LOADERS[fmt](target)
    except StwnnError:
        pass


@pytest.mark.parametrize("fmt", ["vol1", "wgt1"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_cli_exits_with_a_code(files, fmt, data):
    source, fields = files[fmt]
    root = files["root"]
    mutated = mutate(data, source.read_bytes(), fields)
    if fmt == "vol1":  # a copy of the manifest whose first train file is mutated
        (root / "mutated.vol1").write_bytes(mutated)
        text = (root / "manifest.tsv").read_text().replace("a.vol1", "mutated.vol1")
        (root / "mutated.tsv").write_text(text)
        argv = ["train", "--manifest", str(root / "mutated.tsv"),
                "--out", str(root / "mutated.wgt1"), *TRAIN]
    else:
        (root / "mutated.wgt1").write_bytes(mutated)
        argv = ["eval", "--manifest", str(root / "manifest.tsv"),
                "--weights", str(root / "mutated.wgt1"),
                "--report", str(root / "r.txt"), "--metrics", str(root / "m.tsv")]
    assert cli.main(argv) in (0, 1, 2)

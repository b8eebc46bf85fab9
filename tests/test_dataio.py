"""Round-trips, corruption handling, and manifest parsing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stwnn import csi, dataio, network as net
from stwnn.errors import CorruptionError, FormatError, UsageError, ValidationError
from stwnn.volumes import SegmentationConfig

from helpers import write_grid


def random_stream(rng, n_tx=2, n_rx=2, n_sub=4, n_frames=5):
    h = rng.standard_normal((n_frames, n_tx, n_rx, n_sub)) \
        + 1j * rng.standard_normal((n_frames, n_tx, n_rx, n_sub))
    return csi.CsiStream(h=h, sample_rate_hz=100.0)


class TestStreamRoundTrip:
    def test_bit_identical(self, tmp_path):
        stream = random_stream(np.random.default_rng(40))
        path = tmp_path / "s.csi1"
        dataio.save_stream(path, stream)
        loaded = dataio.load_stream(path)
        np.testing.assert_array_equal(loaded.h, stream.h)
        assert (loaded.n_tx, loaded.n_rx, loaded.n_sub) == (2, 2, 4)
        assert loaded.sample_rate_hz == 100.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csi1"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(FormatError):
            dataio.load_stream(path)

    def test_truncated_body(self, tmp_path):
        stream = random_stream(np.random.default_rng(41), n_frames=10)
        path = tmp_path / "s.csi1"
        dataio.save_stream(path, stream)
        data = path.read_bytes()
        frame_bytes = 2 * 2 * 4 * 16
        path.write_bytes(data[:len(data) - frame_bytes])  # drop the last frame
        with pytest.raises(CorruptionError):
            dataio.load_stream(path)

    def test_trailing_garbage(self, tmp_path):
        stream = random_stream(np.random.default_rng(42))
        path = tmp_path / "s.csi1"
        dataio.save_stream(path, stream)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(CorruptionError):
            dataio.load_stream(path)

    @given(n_tx=st.integers(1, 3), n_rx=st.integers(1, 3), n_sub=st.integers(1, 8),
           n_frames=st.integers(1, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, n_tx, n_rx, n_sub, n_frames, seed):
        stream = random_stream(np.random.default_rng(seed), n_tx, n_rx, n_sub, n_frames)
        path = tmp_path_factory.mktemp("io") / "s.csi1"
        dataio.save_stream(path, stream)
        np.testing.assert_array_equal(dataio.load_stream(path).h, stream.h)

    def test_documented_layout(self, tmp_path):
        h = np.array([1.5 - 2j, -0.0 + 3j, 4.25 + 0j, -1e-300 - 7.5j,
                      2j, 6.0 + 1j]).reshape(3, 1, 1, 2)
        path = tmp_path / "s.csi1"
        dataio.save_stream(path, csi.CsiStream(h=h, sample_rate_hz=250.0))
        body = b"".join(struct.pack("<dd", z.real, z.imag) for z in h.reshape(-1))
        assert path.read_bytes() == b"CSI1" + struct.pack("<IIIId", 1, 1, 2, 3, 250.0) + body


def write_csi1(path, n_tx=1, n_rx=1, n_sub=2, n_frames=3, rate=100.0, values=None):
    """A CSI1 file written field by field from the documented layout."""
    count = n_tx * n_rx * n_sub * n_frames
    values = [0.5] * (2 * count) if values is None else values
    path.write_bytes(b"CSI1" + struct.pack("<IIIId", n_tx, n_rx, n_sub, n_frames, rate)
                     + struct.pack(f"<{len(values)}d", *values))
    return path


class TestStreamHeaderFaults:
    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
    def test_bad_sample_rate_is_corruption(self, tmp_path, rate):
        with pytest.raises(CorruptionError, match="sample_rate"):
            dataio.load_stream(write_csi1(tmp_path / "s.csi1", rate=rate))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_payload_is_corruption(self, tmp_path, bad):
        values = [0.5] * 12
        values[7] = bad
        with pytest.raises(CorruptionError, match="non-finite"):
            dataio.load_stream(write_csi1(tmp_path / "s.csi1", values=values))

    def test_huge_declared_stream_is_corruption(self, tmp_path):
        path = write_csi1(tmp_path / "s.csi1", n_tx=4000, n_rx=4000, n_sub=4000,
                          n_frames=4000, values=[0.5] * 12)
        with pytest.raises(CorruptionError, match="truncated"):
            dataio.load_stream(path)


# (segment, scale, label) rows of a small unlabeled VOL1 grid: 2 segments x 2 scales
GRID = [(k, scale, None) for k in range(2) for scale in (1, 2)]


class TestVolumeRoundTrip:
    def test_bit_identical_grid(self, tmp_path):
        path = tmp_path / "v.vol1"
        vols = write_grid(path, [(k, scale, 1) for k in range(3) for scale in (1, 2, 4)],
                          (2, 5, 3), np.random.default_rng(43))
        loaded = dataio.load_volumes(path)
        assert len(loaded) == 9
        for a, b in zip(loaded, vols):
            np.testing.assert_array_equal(a.data, b.data)
            assert (a.scale, a.source_segment, a.label) == (b.scale, b.source_segment, b.label)

    def test_empty_list(self, tmp_path):
        path = tmp_path / "v.vol1"
        dataio.save_volumes(path, [])
        with pytest.raises(CorruptionError, match="v.vol1: volume count is 0"):
            dataio.load_volumes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.vol1"
        path.write_bytes(b"VOLX" + b"\0" * 16)
        with pytest.raises(FormatError):
            dataio.load_volumes(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_grid(path, GRID, (3, 4, 2), np.random.default_rng(44))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(CorruptionError):
            dataio.load_volumes(path)

    def test_huge_declared_dims_are_corruption(self, tmp_path):
        path = tmp_path / "v.vol1"
        path.write_bytes(b"VOL1" + struct.pack("<I", 1)
                         + struct.pack("<IIIIIi", 2**31, 2**31, 2**31, 1, 0, -1)
                         + b"\0" * 64)
        with pytest.raises(CorruptionError, match="truncated"):
            dataio.load_volumes(path)

    def test_non_finite_payload_is_corruption(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_grid(path, GRID, (3, 4, 2), np.random.default_rng(47))
        data = bytearray(path.read_bytes())
        data[32:40] = struct.pack("<d", float("inf"))  # first value of volume 0
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="volume 0"):
            dataio.load_volumes(path)

    def test_count_overstates_content(self, tmp_path):
        path = tmp_path / "v.vol1"
        write_grid(path, GRID[:2], (3, 4, 2), np.random.default_rng(45))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 3)  # claim one more volume than stored
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            dataio.load_volumes(path)


class TestWeightsRoundTrip:
    CFG = dict(n_classes=3, in_channels=2, block_channels=(2, 3), feature_dim=4, seed=11)
    SEG = SegmentationConfig(window=20, overlap=5, scales=(1, 4), target_shape=(12, 16, 9))

    def saved(self, tmp_path, **overrides):
        model = net.build_model(net.NetworkConfig(**{**self.CFG, **overrides}))
        path = tmp_path / "m.wgt1"
        dataio.save_weights(path, model, self.SEG)
        return model, path

    def corrupted(self, path, offset, raw):
        data = bytearray(path.read_bytes())
        data[offset:offset + len(raw)] = raw
        path.write_bytes(bytes(data))
        return path

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = net.build_model(net.NetworkConfig(**self.CFG))
        for p in model.parameters().values():
            p.values = p.values + 1.0  # away from the seeded init, so loading must restore
        x = np.random.default_rng(46).standard_normal((2, 5, 6, 9))
        before = net.forward(model, x)
        path = tmp_path / "m.wgt1"
        dataio.save_weights(path, model, self.SEG)

        loaded, seg = dataio.load_weights(path)
        assert seg == self.SEG
        after = net.forward(loaded, x)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_unsupported_version_names_it(self, tmp_path):
        _, path = self.saved(tmp_path)
        self.corrupted(path, 4, struct.pack("<I", 9))
        with pytest.raises(FormatError, match="9"):
            dataio.load_weights(path)

    def test_version_zero_is_unsupported(self, tmp_path):
        _, path = self.saved(tmp_path)
        self.corrupted(path, 4, struct.pack("<I", 0))
        with pytest.raises(FormatError, match="version 0"):
            dataio.load_weights(path)

    def test_version_one_says_retrain(self, tmp_path):
        _, path = self.saved(tmp_path)
        self.corrupted(path, 4, struct.pack("<I", 1))
        with pytest.raises(FormatError, match=r"version 1 \(it stores no segmentation; retrain"):
            dataio.load_weights(path)

    def test_config_echo_rebuilds_model(self, tmp_path):
        model, path = self.saved(tmp_path)
        assert dataio.load_weights(path)[0].config == model.config

    # segmentation echo offsets after the 58-byte config echo of two blocks: window @58,
    # overlap @62, scale count @66, the two scales @70 and @74, the target @78
    def test_segmentation_echo_layout(self, tmp_path):
        _, path = self.saved(tmp_path)
        assert struct.unpack("<8I", path.read_bytes()[58:90]) == (20, 5, 2, 1, 4, 12, 16, 9)

    @pytest.mark.parametrize("offset, value, message", [
        (62, 20, "overlap must satisfy"),      # overlap == window
        (74, 1, "ascending and distinct"),     # scales (1, 1)
        (74, 21, "exceeds window"),            # scale 21 > window 20
        (82, 0, "target_shape"),               # a zero target dim
    ])
    def test_rejected_segmentation_echo_is_corruption(self, tmp_path, offset, value, message):
        _, path = self.saved(tmp_path)
        self.corrupted(path, offset, struct.pack("<I", value))
        with pytest.raises(CorruptionError, match=f"segmentation echo: .*{message}"):
            dataio.load_weights(path)

    @pytest.mark.parametrize("count", [1, 3, 2**32 - 1])
    def test_scale_count_must_be_in_channels(self, tmp_path, count):
        _, path = self.saved(tmp_path)
        self.corrupted(path, 66, struct.pack("<I", count))
        with pytest.raises(CorruptionError, match=f"{count} scales, the config echo 2 input"):
            dataio.load_weights(path)

    def test_save_needs_one_scale_per_input_channel(self, tmp_path):
        model = net.build_model(net.NetworkConfig(**self.CFG))
        seg = SegmentationConfig(window=20, overlap=5, scales=(1,), target_shape=(12, 16, 9))
        with pytest.raises(UsageError, match="1 scales, the model takes 2"):
            dataio.save_weights(tmp_path / "m.wgt1", model, seg)
        assert not (tmp_path / "m.wgt1").exists()

    # config echo offsets for two blocks: magic, version, n_classes @8, in_channels @12,
    # block count, two channels, three kernel dims, feature vector count @40
    def test_feature_vector_slot_is_the_block_count(self, tmp_path):
        _, path = self.saved(tmp_path)
        assert struct.unpack("<I", path.read_bytes()[40:44]) == (2,)
        self.corrupted(path, 40, struct.pack("<I", 5))
        with pytest.raises(CorruptionError, match="block count"):
            dataio.load_weights(path)

    @pytest.mark.parametrize("offset, value", [(8, 0), (32, 2)])  # n_classes, a kernel dim
    def test_rejected_config_echo_is_corruption(self, tmp_path, offset, value):
        _, path = self.saved(tmp_path)
        self.corrupted(path, offset, struct.pack("<I", value))
        with pytest.raises(CorruptionError, match="config echo"):
            dataio.load_weights(path)

    def test_negative_seed_echo_is_corruption(self, tmp_path):
        _, path = self.saved(tmp_path)
        assert struct.unpack("<q", path.read_bytes()[50:58]) == (11,)  # after the codes @48
        self.corrupted(path, 50, struct.pack("<q", -1))
        with pytest.raises(CorruptionError, match="config echo: seed"):
            dataio.load_weights(path)

    @pytest.mark.parametrize("offset, value", [(12, 2**31), (8, 2**31), (44, 2**31 - 1)])
    def test_echo_larger_than_file_is_corruption(self, tmp_path, offset, value):
        # in_channels, n_classes, feature_dim: each sizes a weight past what the file holds
        _, path = self.saved(tmp_path)
        self.corrupted(path, offset, struct.pack("<I", value))
        with pytest.raises(CorruptionError, match="parameters"):
            dataio.load_weights(path)

    def test_huge_planar_kernel_is_corruption(self, tmp_path):
        # the planar kernel side is found in closed form, not by a search over the volume
        _, path = self.saved(tmp_path, variant="wnn2d")
        self.corrupted(path, 28, struct.pack("<III", *[2**32 - 1] * 3))
        with pytest.raises(CorruptionError, match="parameters"):
            dataio.load_weights(path)

    def test_repeated_tensor_name_is_corruption(self, tmp_path):
        _, path = self.saved(tmp_path)
        data = path.read_bytes()
        assert data.count(b"block0.conv2.bias") == 1
        path.write_bytes(data.replace(b"block0.conv2.bias", b"block0.conv1.bias"))
        with pytest.raises(CorruptionError, match="block0.conv1.bias"):
            dataio.load_weights(path)

    def test_non_utf8_tensor_name_is_corruption(self, tmp_path):
        _, path = self.saved(tmp_path)
        self.corrupted(path, path.read_bytes().index(b"block0.conv1.weight"), b"\xff")
        with pytest.raises(CorruptionError, match="UTF-8"):
            dataio.load_weights(path)

    def test_huge_declared_tensor_is_corruption(self, tmp_path):
        _, path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        name = b"block0.conv1.weight"
        at = data.index(name) + len(name)  # then ndim u8 and the dims
        ndim = data[at]
        self.corrupted(path, at + 1, struct.pack(f"<{ndim}I", *[2**32 - 1] * ndim))
        with pytest.raises(CorruptionError, match="truncated"):
            dataio.load_weights(path)

    @pytest.mark.parametrize("name", [b"block0.conv1.weight", b"gate.bias"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tensor_is_corruption(self, tmp_path, name, value):
        _, path = self.saved(tmp_path)
        data = path.read_bytes()
        at = data.index(name) + len(name)  # then ndim u8, the dims and the values
        self.corrupted(path, at + 1 + 4 * data[at], struct.pack("<d", value))
        with pytest.raises(CorruptionError, match=f"tensor '{name.decode()}' holds non-finite"):
            dataio.load_weights(path)

    def test_truncated_tensor_data(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(CorruptionError):
            dataio.load_weights(path)


@pytest.mark.parametrize("loader, blob, error", [
    (dataio.load_stream, b"XXXX" + bytes(40), FormatError),
    (dataio.load_volumes, b"VOL1" + struct.pack("<I", 1) + bytes(10), CorruptionError),
    (dataio.load_weights, b"WGT1" + struct.pack("<I", 2) + bytes(22), CorruptionError),
    (dataio.load_manifest, b"a.csi1\t0\n", ValidationError),
], ids=["stream", "volumes", "weights", "manifest"])
def test_errors_start_with_the_path(tmp_path, loader, blob, error):
    path = tmp_path / "f.bin"
    path.write_bytes(blob)
    with pytest.raises(error) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")


class TestManifest:
    def write(self, tmp_path, text):
        path = tmp_path / "manifest.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_line_manifest(self, tmp_path):
        path = self.write(tmp_path, "a.csi1\t0\ttrain\nb.csi1\t1\ttest\n")
        manifest = dataio.load_manifest(path)
        assert len(manifest.entries) == 2
        assert manifest.n_classes == 2
        assert manifest.entries[0] == dataio.ManifestEntry("a.csi1", 0, "train")

    def test_unknown_split_cites_line(self, tmp_path):
        path = self.write(tmp_path, "a.csi1\t0\ttrain\nb.csi1\t0\ttst\n")
        with pytest.raises(ValidationError, match="line 2"):
            dataio.load_manifest(path)

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"a.csi1\t0\ttrain\nb\xff.csi1\t1\ttest\n")
        with pytest.raises(ValidationError, match="manifest.tsv"):
            dataio.load_manifest(path)

    def test_comment_only_file(self, tmp_path):
        path = self.write(tmp_path, "# nothing here\n# still nothing\n")
        with pytest.raises(ValidationError, match="no entries"):
            dataio.load_manifest(path)

    def test_duplicate_path_cites_line(self, tmp_path):
        path = self.write(tmp_path, "a.csi1\t0\ttrain\na.csi1\t1\ttest\n")
        with pytest.raises(ValidationError, match="line 2"):
            dataio.load_manifest(path)

    def test_label_out_of_declared_range(self, tmp_path):
        path = self.write(tmp_path, "@n_classes\t2\na.csi1\t0\ttrain\nb.csi1\t5\ttest\n")
        with pytest.raises(ValidationError, match="out of range"):
            dataio.load_manifest(path)

    def test_directives_parsed(self, tmp_path):
        path = self.write(tmp_path,
                          "@n_classes\t3\n@segmentation\t32\t8\t1,2\t12,16,9\n"
                          "a.vol1\t0\ttrain\nb.vol1\t2\ttest\n")
        manifest = dataio.load_manifest(path)
        assert manifest.n_classes == 3
        assert manifest.segmentation == SegmentationConfig(
            window=32, overlap=8, scales=(1, 2), target_shape=(12, 16, 9))

    def test_streams_manifest_has_no_segmentation(self, tmp_path):
        path = self.write(tmp_path, "@n_classes\t2\na.csi1\t0\ttrain\nb.csi1\t1\ttest\n")
        assert dataio.load_manifest(path).segmentation is None

    ENTRIES = "a.vol1\t0\ttrain\nb.vol1\t1\ttest\n"

    @pytest.mark.parametrize("lines, message", [
        # an extra field, then a repeat: once loaded as 3 classes
        (["@n_classes\t2\t9", "@n_classes\t3"], "line 1: bad directive"),
        # repeated: the second line names the first
        (["@n_classes\t2", "# again", "@n_classes\t3"], "line 3: '@n_classes' repeats line 1"),
        (["@segmentation\t32\t8\t1,2\t12,16,9", "@segmentation\t32\t8\t1,4\t12,16,9"],
         "line 2: '@segmentation' repeats line 1"),
        # wrong field count
        (["@n_classes"], "line 1: bad directive .*not enough values"),
        (["@n_classes\t2\t9"], "line 1: bad directive .*too many values"),
        (["@segmentation\t32\t8\t1,2"], "line 1: bad directive .*not enough values"),
        (["@segmentation\t32\t8\t1,2\t12,16,9\tx"], "line 1: bad directive .*too many"),
        # rejected values
        (["@n_classes\tx"], "line 1: bad directive .*invalid literal"),
        (["@segmentation\t32\t8\t2,1\t12,16,9"], "line 1: bad directive .*ascending"),
        (["@segmentation\t32\t32\t1,2\t12,16,9"], "line 1: bad directive .*overlap"),
        (["@segmentation\t32\t8\t1,2\t12,16"], "line 1: bad directive .*three positive"),
        (["@segmentation\t32\t8\t1,,2\t12,16,9"], "line 1: bad directive .*invalid literal"),
        # the directives written before the segmentation one
        (["@shape\t3\t3\t30"], "line 1: bad directive .*unknown directive @shape"),
        (["@sample_rate_hz\t100.0"], "line 1: bad directive .*unknown directive"),
    ])
    def test_bad_or_repeated_directive(self, tmp_path, lines, message):
        path = self.write(tmp_path, "\n".join(lines) + "\n" + self.ENTRIES)
        with pytest.raises(ValidationError, match=message):
            dataio.load_manifest(path)

    def test_needs_train_and_test(self, tmp_path):
        path = self.write(tmp_path, "a.csi1\t0\ttrain\nb.csi1\t0\tval\n")
        with pytest.raises(ValidationError, match="test"):
            dataio.load_manifest(path)

    def test_write_then_load(self, tmp_path):
        manifest = dataio.DatasetManifest(
            entries=[dataio.ManifestEntry("a.vol1", 0, "train"),
                     dataio.ManifestEntry("b.vol1", 1, "test")],
            n_classes=2, segmentation=SegmentationConfig(
                window=32, overlap=8, scales=(1, 2), target_shape=(12, 16, 9)))
        path = tmp_path / "manifest.tsv"
        dataio.write_manifest(path, manifest)
        assert path.read_text().splitlines()[:2] == ["@n_classes\t2",
                                                     "@segmentation\t32\t8\t1,2\t12,16,9"]
        assert dataio.load_manifest(path) == manifest

    def test_written_bytes(self, tmp_path):
        manifest = dataio.DatasetManifest(
            entries=[dataio.ManifestEntry("a.vol1", 0, "train"),
                     dataio.ManifestEntry("sub/b.vol1", 1, "val"),
                     dataio.ManifestEntry("c.vol1", 2, "test")],
            n_classes=3, segmentation=SegmentationConfig(
                window=32, overlap=8, scales=(1, 2, 4), target_shape=(30, 32, 9)))
        path = tmp_path / "manifest.tsv"
        dataio.write_manifest(path, manifest)
        assert path.read_bytes() == (b"@n_classes\t3\n"
                                     b"@segmentation\t32\t8\t1,2,4\t30,32,9\n"
                                     b"a.vol1\t0\ttrain\n"
                                     b"sub/b.vol1\t1\tval\n"
                                     b"c.vol1\t2\ttest\n")


class TestWriteTable:
    def test_written_bytes(self, tmp_path):
        path = tmp_path / "t.tsv"
        dataio.write_table(path, [("name", "n"), ("caf\u00e9", 3), (-1, "x,y")])
        assert path.read_bytes() == b"name\tn\ncaf\xc3\xa9\t3\n-1\tx,y\n"

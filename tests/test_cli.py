"""Command-line pipeline: flags, exit codes, determinism, file outputs."""

import contextlib
import filecmp
import logging
import os
import shutil
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from stwnn import cli, dataio, network, training
from stwnn.volumes import SegmentationConfig

from helpers import write_grid


def run(*argv):
    return cli.main(list(argv))


def synth_small(out_dir, seed="7", per_class="2", classes="2", duration="0.8"):
    return run("synth", "--out", str(out_dir), "--classes", classes,
               "--per-class", per_class, "--val-per-class", "1",
               "--test-per-class", "1", "--duration", duration, "--seed", seed)


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert synth_small(d1) == 0
        assert synth_small(d2) == 0
        files1 = sorted(os.listdir(d1))
        assert files1 == sorted(os.listdir(d2))
        for name in files1:
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "x"
        assert run("synth", "--out", str(out), "--seed", "-1") == 2
        assert not out.exists()

    def test_zero_per_class_is_usage_error(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "x"), "--per-class", "0") == 2

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_is_usage_error(self, tmp_path, duration):
        assert synth_small(tmp_path / "x", duration=duration) == 2

    def test_overflowing_frame_count_is_usage_error(self, tmp_path):
        # 1e307 s at 100 Hz is a finite duration whose frame count overflows
        assert synth_small(tmp_path / "x", duration="1e307") == 2

    @pytest.mark.parametrize("flags", [("--duration", "nan"), ("--rate", "0")])
    def test_rejected_spec_leaves_no_directory(self, tmp_path, flags):
        out = tmp_path / "x"
        assert run("synth", "--out", str(out), *flags) == 2
        assert not out.exists()

    def test_default_shape_constants(self, tmp_path):
        out = tmp_path / "d"
        assert synth_small(out) == 0
        manifest = dataio.load_manifest(out / "manifest.tsv")
        stream = dataio.load_stream(out / manifest.entries[0].path)
        assert stream.h.shape == (80, 3, 3, 30)
        assert stream.sample_rate_hz == 100.0

    def test_split_counts(self, tmp_path):
        out = tmp_path / "d"
        assert synth_small(out, per_class="3") == 0
        manifest = dataio.load_manifest(out / "manifest.tsv")
        assert len(manifest.split("train")) == 6
        assert len(manifest.split("val")) == 2
        assert len(manifest.split("test")) == 2


class TestSegment:
    def test_volume_counts_logged(self, tmp_path, capsys):
        out = tmp_path / "d"
        synth_small(out, duration="1.0", per_class="1")
        vol_dir = tmp_path / "v"
        code = run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(vol_dir), "--window", "20", "--overlap", "10",
                   "--scales", "1,2", "--target", "30,16,9")
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "segments=" in l]
        assert all("segments=9" in l and "volumes=18" in l for l in lines)
        manifest = dataio.load_manifest(vol_dir / "manifest.tsv")
        vols = dataio.load_volumes(vol_dir / manifest.entries[0].path)
        assert len(vols) == 18

    def test_overlap_equal_window_is_config_error(self, tmp_path):
        out = tmp_path / "d"
        synth_small(out)
        assert run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(tmp_path / "v"), "--window", "20",
                   "--overlap", "20") == 2

    def test_single_scale_single_channel(self, tmp_path):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        vol_dir = tmp_path / "v"
        assert run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(vol_dir), "--window", "32", "--overlap", "0",
                   "--scales", "1", "--target", "30,32,9") == 0
        manifest = dataio.load_manifest(vol_dir / "manifest.tsv")
        vols = dataio.load_volumes(vol_dir / manifest.entries[0].path)
        assert {v.scale for v in vols} == {1}

    def test_too_short_streams_warn_then_fail_if_all(self, tmp_path):
        out = tmp_path / "d"
        synth_small(out, duration="0.2")  # 20 packets < window 32
        assert run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(tmp_path / "v"), "--window", "32",
                   "--overlap", "0") == 2

    def test_two_streams_sharing_a_stem_are_refused(self, tmp_path, capsys):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        manifest = out / "manifest.tsv"
        first = dataio.load_manifest(manifest).entries[0]
        (out / "a").mkdir()
        (out / "a" / first.path).write_bytes((out / first.path).read_bytes())
        with open(manifest, "a", encoding="utf-8") as f:
            f.write(f"a/{first.path}\t{first.label}\t{first.split}\n")
        vols = tmp_path / "v"
        assert run("segment", "--manifest", str(manifest), "--out", str(vols),
                   "--window", "32", "--overlap", "0") == 2
        name = first.path.replace(".csi1", ".vol1")
        assert (f"streams {first.path!r} and 'a/{first.path}' would both be written "
                f"to {name!r}") in capsys.readouterr().err
        assert not vols.exists()

    def test_a_split_left_without_volumes_is_refused(self, tmp_path, capsys):
        """Every train stream shorter than the window: a manifest of the other
        splits alone is one that train refuses, so none is written."""
        out, short = tmp_path / "d", tmp_path / "short"
        synth_small(out, per_class="1")
        synth_small(short, per_class="1", duration="0.2")  # 20 packets < window 32
        for e in dataio.load_manifest(out / "manifest.tsv").split("train"):
            (out / e.path).write_bytes((short / e.path).read_bytes())
        vols = tmp_path / "v"
        assert run("segment", "--manifest", str(out / "manifest.tsv"), "--out", str(vols),
                   "--window", "32", "--overlap", "0") == 2
        assert "no train stream produced any volume" in capsys.readouterr().err
        assert not (vols / "manifest.tsv").exists()
        assert list(vols.iterdir()) == []

    def test_a_corrupt_later_stream_leaves_no_volume(self, tmp_path, capsys):
        """A corrupt last stream: exit 1, no VOL1 of this run in --out, and one
        left there by an earlier run keeps its bytes."""
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        last = dataio.load_manifest(out / "manifest.tsv").entries[-1]
        (out / last.path).write_bytes(b"CSI1")
        vols = tmp_path / "v"
        vols.mkdir()
        earlier = vols / last.path.replace(".csi1", ".vol1")
        earlier.write_bytes(b"kept")
        assert run("segment", "--manifest", str(out / "manifest.tsv"), "--out", str(vols),
                   "--window", "32", "--overlap", "0") == 1
        assert last.path in capsys.readouterr().err
        assert [p.name for p in vols.iterdir()] == [earlier.name]
        assert earlier.read_bytes() == b"kept"

    @pytest.mark.parametrize("clash", ["manifest.tsv", "s.vol1"])
    def test_output_onto_an_input_is_refused(self, tmp_path, capsys, clash):
        """``--out`` the streams directory: manifest.tsv would replace the input
        manifest or, with the manifest renamed, a VOL1 would replace a stream
        whose file name ends in .vol1."""
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        manifest = out / "manifest.tsv"
        if clash == "s.vol1":
            first = dataio.load_manifest(manifest).entries[0]
            (out / first.path).rename(out / "s.vol1")
            text = manifest.read_text().replace(first.path, "s.vol1")
            manifest.unlink()
            manifest = out / "streams.tsv"
            manifest.write_text(text)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run("segment", "--manifest", str(manifest), "--out", str(out),
                   "--window", "32", "--overlap", "0") == 2
        assert f"{out / clash} would overwrite the input" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_metrics_table_bytes(tmp_path):
    metrics = training.Metrics(per_class_accuracy=np.array([0.5, 2 / 3]),
                               overall_accuracy=0.6, confusion=np.array([[1, 1], [1, 2]]))
    table = tmp_path / "metrics.tsv"
    cli._write_metrics(metrics, tmp_path / "report.txt", table)
    assert table.read_bytes() == (b"metric\tclass\tvalue\n"
                                  b"oa\t-\t0.6\n"
                                  b"class_accuracy\t0\t0.5\n"
                                  b"class_accuracy\t1\t0.666666666667\n"
                                  b"confusion\t0,0\t1\n"
                                  b"confusion\t0,1\t1\n"
                                  b"confusion\t1,0\t1\n"
                                  b"confusion\t1,1\t2\n")


def huge_value_copy(vols_dir, tmp_path):
    """A copy of ``vols_dir`` whose first train value is 1e300: finite but huge
    (a possible bit flip), it overflows the first training step."""
    vols = tmp_path / "vols"
    vols.mkdir()
    for path in vols_dir.iterdir():
        (vols / path.name).write_bytes(path.read_bytes())
    victim = vols / dataio.load_manifest(vols / "manifest.tsv").split("train")[0].path
    data = bytearray(victim.read_bytes())
    data[32:40] = struct.pack("<d", 1e300)  # first value of the first volume
    victim.write_bytes(bytes(data))
    return vols


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):    # gone, or reaped while read
        return False


def _worker_ready(pid):
    """Whether pool worker ``pid`` ignores SIGINT and leaves SIGTERM to its
    default action, as ``training._worker_init`` sets them (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    ignored, caught = int(fields["SigIgn"], 16), int(fields["SigCgt"], 16)
    return bool(ignored >> (signal.SIGINT - 1) & 1) and not caught >> (signal.SIGTERM - 1) & 1


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """synth + segment + short train, shared by train/eval/shift tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    vols = root / "vols"
    weights = root / "model.wgt1"
    assert synth_small(data, per_class="2", duration="0.8") == 0
    assert run("segment", "--manifest", str(data / "manifest.tsv"), "--out", str(vols),
               "--window", "32", "--overlap", "8", "--scales", "1,2",
               "--target", "12,16,9") == 0
    assert run("train", "--manifest", str(vols / "manifest.tsv"), "--out", str(weights),
               "--epochs", "2", "--batch-size", "4", "--lr", "0.01",
               "--blocks", "2,3", "--feature-dim", "4", "--seed", "3") == 0
    return dict(root=root, data=data, vols=vols, weights=weights)


class TestTrainEvalShift:
    def test_history_written(self, small_pipeline):
        history = small_pipeline["weights"].with_suffix(".history.tsv")
        lines = history.read_text().strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_oa"
        assert len(lines) == 3

    def test_eval_writes_metrics(self, small_pipeline, capsys):
        vols = small_pipeline["vols"]
        weights = small_pipeline["weights"]
        report = small_pipeline["root"] / "report.txt"
        table = small_pipeline["root"] / "metrics.tsv"
        assert run("eval", "--manifest", str(vols / "manifest.tsv"), "--weights",
                   str(weights), "--report", str(report), "--metrics", str(table)) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out
        body = table.read_text()
        assert body.startswith("metric\tclass\tvalue\n")
        assert "oa\t-\t" in body
        assert "confusion\t0,0\t" in body
        assert "overall accuracy" in report.read_text()

    def test_shift_zero_agreement_is_one(self, small_pipeline):
        data = small_pipeline["data"]
        weights = small_pipeline["weights"]
        out = small_pipeline["root"] / "shift.tsv"
        assert run("shift", "--manifest", str(data / "manifest.tsv"), "--weights",
                   str(weights), "--max-shift", "0", "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert rows
        assert all(float(r.split("\t")[1]) == 1.0 for r in rows)

    @pytest.mark.parametrize("command, flag, victim", [
        ("train", "--out", "vols/manifest.tsv"),
        ("eval", "--report", "model.wgt1"),
        ("eval", "--metrics", "vols/manifest.tsv"),
        ("shift", "--out", "data/manifest.tsv"),
    ])
    def test_output_onto_an_input_is_refused(self, small_pipeline, tmp_path, capsys,
                                             command, flag, victim):
        root = tmp_path / "copy"
        for name in ("data", "vols"):
            shutil.copytree(small_pipeline[name], root / name)
        shutil.copy(small_pipeline["weights"], root / "model.wgt1")
        manifest = root / ("data" if command == "shift" else "vols") / "manifest.tsv"
        argv = [command, "--manifest", str(manifest), flag, str(root / victim)]
        if command == "train":
            argv += ["--epochs", "1", "--blocks", "2", "--feature-dim", "4"]
        else:
            argv += ["--weights", str(root / "model.wgt1")]
        before = (root / victim).read_bytes()
        assert run(*argv) == 2
        assert f"{root / victim} would overwrite the input" in capsys.readouterr().err
        assert (root / victim).read_bytes() == before

    def test_eval_report_and_metrics_on_one_path_are_refused(self, small_pipeline, tmp_path,
                                                              capsys):
        both = tmp_path / "out.tsv"
        assert run("eval", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--weights", str(small_pipeline["weights"]),
                   "--report", str(both), "--metrics", str(both)) == 2
        assert ("outputs 'report' and 'metrics' would both be written to 'out.tsv'"
                in capsys.readouterr().err)
        assert not both.exists()

    def test_eval_mismatched_weights_is_usage_error(self, small_pipeline, tmp_path):
        # weights trained for 2 classes, manifest declaring 3
        vols3 = tmp_path / "vols3"
        vols3.mkdir()
        src = small_pipeline["vols"]
        manifest = dataio.load_manifest(src / "manifest.tsv")
        for e in manifest.entries:
            (vols3 / e.path).write_bytes((src / e.path).read_bytes())
        text = (src / "manifest.tsv").read_text().replace("@n_classes\t2", "@n_classes\t3")
        (vols3 / "manifest.tsv").write_text(text)
        assert run("eval", "--manifest", str(vols3 / "manifest.tsv"),
                   "--weights", str(small_pipeline["weights"])) == 2

    def test_non_finite_volume_is_runtime_failure(self, small_pipeline, tmp_path):
        vols = tmp_path / "vols"
        vols.mkdir()
        src = small_pipeline["vols"]
        for path in src.iterdir():
            (vols / path.name).write_bytes(path.read_bytes())
        victim = vols / dataio.load_manifest(vols / "manifest.tsv").entries[0].path
        data = bytearray(victim.read_bytes())
        data[32:40] = struct.pack("<d", float("nan"))  # first value of the first volume
        victim.write_bytes(bytes(data))
        assert run("train", "--manifest", str(vols / "manifest.tsv"),
                   "--out", str(tmp_path / "m.wgt1"), "--epochs", "1") == 1

    def test_training_that_goes_non_finite_writes_no_weights(self, small_pipeline, tmp_path,
                                                              capsys):
        vols = huge_value_copy(small_pipeline["vols"], tmp_path)
        weights = tmp_path / "m.wgt1"
        assert run("train", "--manifest", str(vols / "manifest.tsv"), "--out", str(weights),
                   "--epochs", "1", "--blocks", "2,4") == 1
        assert ("training went non-finite at epoch 0, batch 0: parameter "
                "'block0.conv1.weight' holds non-finite values") in capsys.readouterr().err
        assert not weights.exists() and not weights.with_suffix(".history.tsv").exists()

    @pytest.mark.parametrize("level", ["info", "quiet"])
    def test_numpy_warnings_go_through_the_log(self, small_pipeline, tmp_path, level):
        # a process of its own, so the forked workers' stderr is the one read
        vols = huge_value_copy(small_pipeline["vols"], tmp_path)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, STWNN_LOG=level, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stwnn.cli", "train", "--manifest",
             str(vols / "manifest.tsv"), "--out", str(tmp_path / "m.wgt1"),
             "--epochs", "1", "--blocks", "2,4"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        error = ("ERROR stwnn: training went non-finite at epoch 0, batch 0: parameter "
                 "'block0.conv1.weight' holds non-finite values")
        if level == "quiet":
            assert lines == [error]
        else:
            warned = [line for line in lines if "RuntimeWarning" in line]
            assert warned and all(line.startswith("WARNING py.warnings: ") for line in warned)
            assert lines[-1] == error

    def _stop_training(self, small_pipeline, tmp_path, sig, group):
        """Start ``stwnn train`` in a session of its own, send ``sig`` once its
        two workers run and have set their signals (to the whole process group
        with ``group``, as a terminal's Ctrl-C does), and require both workers
        gone within 5 s. Returns the exit status and the stderr lines
        (``STWNN_LOG=quiet``: errors only, so a worker's line would show)."""
        if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
            pytest.skip("reads the workers from /proc")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("train forks no worker on one core")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "stwnn.cli", "train", "--manifest",
             str(small_pipeline["vols"] / "manifest.tsv"), "--out", str(tmp_path / "m.wgt1"),
             "--epochs", "100000", "--batch-size", "2", "--blocks", "2", "--feature-dim", "4"],
            env=dict(os.environ, PYTHONPATH=src, STWNN_LOG="quiet"), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            # a shell's background job ignores SIGINT, and a child would inherit that
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not (len(workers) == 2 and all(map(_worker_ready, workers))) \
                    and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.05)
                with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                    workers = [int(pid) for pid in fh.read().split()]
            assert len(workers) == 2 and all(map(_worker_ready, workers)), \
                f"workers {workers}, exit {proc.poll()}"
            if group:
                os.killpg(proc.pid, sig)
            else:
                proc.send_signal(sig)
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
            _, err = proc.communicate(timeout=10)
        finally:
            for pid in (proc.pid, *workers):
                if _running(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=10)
        return proc.returncode, err.splitlines()

    def test_sigterm_leaves_no_worker(self, small_pipeline, tmp_path):
        code, err = self._stop_training(small_pipeline, tmp_path, signal.SIGTERM, group=False)
        assert (code, err) == (143, ["ERROR stwnn: stopped by SIGTERM"])

    def test_sigint_leaves_no_worker_and_no_traceback(self, small_pipeline, tmp_path):
        code, err = self._stop_training(small_pipeline, tmp_path, signal.SIGINT, group=True)
        assert (code, err) == (130, ["ERROR stwnn: stopped by SIGINT"])

    def test_truncated_volume_file_is_named(self, small_pipeline, tmp_path, capsys):
        vols = tmp_path / "vols"
        vols.mkdir()
        for path in small_pipeline["vols"].iterdir():
            (vols / path.name).write_bytes(path.read_bytes())
        victim = vols / dataio.load_manifest(vols / "manifest.tsv").split("train")[0].path
        victim.write_bytes(victim.read_bytes()[:3000])
        assert run("train", "--manifest", str(vols / "manifest.tsv"),
                   "--out", str(tmp_path / "m.wgt1"), "--epochs", "1") == 1
        assert f"{victim}: truncated file" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_is_runtime_failure(self, small_pipeline, tmp_path, capsys,
                                                  value):
        weights = tmp_path / "m.wgt1"
        data = small_pipeline["weights"].read_bytes()
        weights.write_bytes(data[:-8] + struct.pack("<d", value))  # the last gate.bias value
        assert run("eval", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--weights", str(weights)) == 1
        assert f"{weights}: tensor 'gate.bias' holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value", [(8, 0), (40, 5)])  # n_classes, vector count
    def test_rejected_config_echo_is_runtime_failure(self, small_pipeline, tmp_path,
                                                     offset, value):
        weights = tmp_path / "m.wgt1"
        data = bytearray(small_pipeline["weights"].read_bytes())
        data[offset:offset + 4] = struct.pack("<I", value)
        weights.write_bytes(bytes(data))
        assert run("eval", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--weights", str(weights)) == 1

    @pytest.mark.parametrize("command", ["eval", "shift"])
    def test_echo_larger_than_file_is_runtime_failure(self, small_pipeline, tmp_path,
                                                      command, capsys):
        weights = tmp_path / "m.wgt1"
        data = bytearray(small_pipeline["weights"].read_bytes())
        data[12:16] = struct.pack("<I", 2**31)  # in_channels
        weights.write_bytes(bytes(data))
        manifest = small_pipeline["vols" if command == "eval" else "data"] / "manifest.tsv"
        assert run(command, "--manifest", str(manifest), "--weights", str(weights)) == 1
        assert "bytes left" in capsys.readouterr().err

    def test_non_utf8_tensor_name_is_runtime_failure(self, small_pipeline, tmp_path):
        weights = tmp_path / "m.wgt1"
        data = bytearray(small_pipeline["weights"].read_bytes())
        data[data.index(b"gate.bias")] = 0xFF
        weights.write_bytes(bytes(data))
        assert run("eval", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--weights", str(weights)) == 1

    @pytest.mark.parametrize("flags", [("--seed", "-1"), ("--net-seed", "-1"),
                                       ("--net-seed", str(2**63))])
    def test_out_of_range_seed_is_usage_error(self, small_pipeline, tmp_path, flags):
        weights = tmp_path / "m.wgt1"
        assert run("train", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--out", str(weights), "--epochs", "1", *flags) == 2
        assert not weights.exists()

    @staticmethod
    def volume_files(root, scale_rows, splits, label=0, scales=(1,)):
        """One VOL1 file per entry of ``scale_rows`` (a list of per-segment scale
        tuples) in the given splits, a well-formed test file, and their manifest,
        which declares ``scales``; every entry is class 0 and every volume is
        stored with ``label``."""
        rng = np.random.default_rng(60)
        root.mkdir()
        entries = []
        for i, (rows, split) in enumerate(zip([*scale_rows, [(1,)]], [*splits, "test"])):
            write_grid(root / f"f{i}.vol1", [(segment, scale, label) for segment, scales
                                             in enumerate(rows) for scale in scales],
                       (12, 16, 9), rng)
            entries.append(dataio.ManifestEntry(f"f{i}.vol1", 0, split))
        seg = SegmentationConfig(window=16, overlap=0, scales=scales, target_shape=(12, 16, 9))
        dataio.write_manifest(root / "manifest.tsv", dataio.DatasetManifest(
            entries=entries, n_classes=2, segmentation=seg))
        return root / "manifest.tsv"

    @pytest.mark.parametrize("rows", [[(1, 1), (1, 1)], [(1, 2), (1, 4)], [(1,), (1, 2)]])
    def test_irregular_scales_in_a_file_are_corruption(self, tmp_path, rows, capsys):
        manifest = self.volume_files(tmp_path / "v", [rows], ["train"])
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert "f0.vol1: volume " in err and "the grid of volume 0 needs" in err, err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_files_with_other_scales_are_not_mixed(self, tmp_path, split, capsys):
        manifest = self.volume_files(tmp_path / "v", [[(1, 2)], [(1, 4)]], ["train", split],
                                     scales=(1, 2))
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 2
        assert "f1.vol1: scales (1, 4) differ from the manifest's (1, 2)" in capsys.readouterr().err

    def test_segment_with_a_volume_off_the_target_is_named(self, tmp_path, capsys):
        manifest = self.volume_files(tmp_path / "v", [[(1, 2)]], ["train"], scales=(1, 2))
        write_grid(manifest.parent / "f0.vol1", [(0, 1, None), (0, 2, None)],
                   [(12, 16, 9), (12, 8, 9)], np.random.default_rng(61))
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 1
        assert ("f0.vol1: volume 1 has (segment, scale, shape, label) (0, 2, (12, 8, 9), None), "
                "the grid of volume 0 needs (0, 2, (12, 16, 9), None)" in capsys.readouterr().err)

    # (segment, scale, label) per volume, all 12x16x9, and the message naming the first break
    @pytest.mark.parametrize("volumes, message", [
        ([], "volume count is 0"),
        ([(0, 1, 0), (2, 1, 0)], "volume 1 has (segment, scale, shape, label) (2, 1, "),
        ([(1, 1, 0), (0, 1, 0)], "volume 0 has (segment, scale, shape, label) (1, 1, "),
        ([(0, 1, 0), (0, 2, 0), (1, 1, 0)], "segment 1 lacks scales (2,)"),
        ([(0, 1, 0), (1, 1, 1)], "volume 1 has (segment, scale, shape, label) (1, 1, (12, 16, "
                                 "9), 1), the grid of volume 0 needs (1, 1, (12, 16, 9), 0)"),
        ([(0, 1, None), (1, 1, 0)], "volume 1 has (segment, scale, shape, label) (1, 1, (12, 16, "
                                    "9), 0), the grid of volume 0 needs (1, 1, (12, 16, 9), None)"),
    ], ids=["count_0", "segments_0_2", "segments_out_of_order", "last_segment_short",
            "mixed_labels", "unlabeled_then_labeled"])
    def test_file_off_the_grid_is_corruption(self, tmp_path, capsys, volumes, message):
        manifest = self.volume_files(tmp_path / "v", [[(1,)]], ["train"])
        victim = manifest.parent / "f0.vol1"
        write_grid(victim, volumes, (12, 16, 9), np.random.default_rng(62))
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert f"{victim}: {message}" in err, err
        assert not (tmp_path / "m.wgt1").exists()

    def test_stored_label_must_match_manifest(self, tmp_path, capsys):
        manifest = self.volume_files(tmp_path / "v", [[(1,), (1,)]], ["train"], label=1)
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 2
        assert ("f0.vol1: stored labels 1 differ from the manifest's 0"
                in capsys.readouterr().err)

    def test_unlabeled_volumes_load(self, tmp_path):
        manifest = self.volume_files(tmp_path / "v", [[(1,)]], ["train"], label=None)
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1", "--blocks", "2", "--feature-dim", "4") == 0

    def test_non_finite_lr_is_usage_error(self, small_pipeline, tmp_path):
        weights = tmp_path / "nan.wgt1"
        assert run("train", "--manifest", str(small_pipeline["vols"] / "manifest.tsv"),
                   "--out", str(weights), "--epochs", "1", "--lr", "nan") == 2
        assert not weights.exists()

    def test_lambda_zero_history_matches_library_train(self, small_pipeline, tmp_path):
        vols = small_pipeline["vols"]
        weights2 = tmp_path / "m2.wgt1"
        assert run("train", "--manifest", str(vols / "manifest.tsv"), "--out",
                   str(weights2), "--epochs", "2", "--batch-size", "4", "--lr", "0.01",
                   "--lambda", "0", "--blocks", "2,3", "--feature-dim", "4",
                   "--seed", "3") == 0
        history = weights2.with_suffix(".history.tsv").read_text().strip().splitlines()[1:]
        cli_losses = [float(line.split("\t")[1]) for line in history]

        train_set, _ = cli._load_samples(vols / "manifest.tsv", "train")
        val_set, _ = cli._load_samples(vols / "manifest.tsv", "val")
        cfg = training.TrainConfig(epochs=2, batch_size=4, mix=0.0, lr=0.01,
                                   momentum=0.9, seed=3)
        model = network.build_model(network.NetworkConfig(
            n_classes=2, in_channels=2, block_channels=(2, 3), feature_dim=4, seed=0))
        _, lib_history = training.train(model, train_set, val_set or train_set, cfg)
        lib_losses = [h.train_loss for h in lib_history]
        np.testing.assert_allclose(cli_losses, lib_losses, rtol=1e-9)


@pytest.mark.parametrize("command, reuses", [("synth", False), ("segment", False),
                                              ("train", False), ("eval", True),
                                              ("shift", True)])
def test_only_the_forward_commands_keep_freed_heap(small_pipeline, tmp_path, monkeypatch,
                                                    command, reuses):
    """eval and shift raise malloc's thresholds for their forwards; synth,
    segment and train leave the calling process's allocator as it was."""
    calls = []
    monkeypatch.setattr(training, "_reuse_freed_heap", lambda: calls.append(command))
    data, vols = small_pipeline["data"], small_pipeline["vols"]
    weights = ["--weights", str(small_pipeline["weights"])]
    argv = {
        "synth": ["--out", str(tmp_path / "data"), "--classes", "2", "--per-class", "1",
                  "--val-per-class", "1", "--test-per-class", "1", "--duration", "0.4"],
        "segment": ["--manifest", str(data / "manifest.tsv"), "--out", str(tmp_path / "v"),
                    "--window", "32", "--overlap", "8", "--scales", "1,2",
                    "--target", "12,16,9"],
        "train": ["--manifest", str(vols / "manifest.tsv"), "--out", str(tmp_path / "m.wgt1"),
                  "--epochs", "1", "--blocks", "2", "--feature-dim", "4"],
        "eval": ["--manifest", str(vols / "manifest.tsv"), *weights,
                 "--report", str(tmp_path / "r.txt"), "--metrics", str(tmp_path / "m.tsv")],
        "shift": ["--manifest", str(data / "manifest.tsv"), *weights, "--max-shift", "1",
                  "--out", str(tmp_path / "s.tsv")],
    }[command]
    assert run(command, *argv) == 0
    assert calls == ([command] if reuses else [])


class TestSegmentationChosenOnce:
    """segment declares the segmentation, train copies it into the weights,
    eval refuses volumes cut another way and shift cuts windows as it says."""

    DECLARED = SegmentationConfig(window=32, overlap=8, scales=(1, 2), target_shape=(12, 16, 9))

    def resegment(self, small_pipeline, tmp_path, *flags):
        """The pipeline's streams cut as the pipeline did, but for ``flags``."""
        vols = tmp_path / "recut"
        cut = {"--window": "32", "--overlap": "8", "--scales": "1,2", "--target": "12,16,9",
               **dict(zip(flags[::2], flags[1::2]))}
        assert run("segment", "--manifest", str(small_pipeline["data"] / "manifest.tsv"),
                   "--out", str(vols), *(x for kv in cut.items() for x in kv)) == 0
        return vols / "manifest.tsv"

    def test_segment_declares_and_train_copies(self, small_pipeline):
        manifest = dataio.load_manifest(small_pipeline["vols"] / "manifest.tsv")
        assert manifest.segmentation == self.DECLARED
        model, seg = dataio.load_weights(small_pipeline["weights"])
        assert seg == self.DECLARED and model.config.in_channels == 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--scales", "1,4", ["scales (1, 4)", "the weights (1, 2)"]),
        ("--target", "12,8,9", ["target_shape (12, 8, 9)", "the weights (12, 16, 9)"]),
        ("--window", "24", ["window 24", "the weights 32"]),
    ])
    def test_eval_on_another_cut_is_usage_error(self, small_pipeline, tmp_path, capsys,
                                                flag, value, named):
        manifest = self.resegment(small_pipeline, tmp_path, flag, value)
        capsys.readouterr()
        assert run("eval", "--manifest", str(manifest),
                   "--weights", str(small_pipeline["weights"])) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in named), err

    def test_eval_on_another_overlap_runs(self, small_pipeline, tmp_path):
        manifest = self.resegment(small_pipeline, tmp_path, "--overlap", "0")
        assert run("eval", "--manifest", str(manifest), "--weights",
                   str(small_pipeline["weights"]), "--report", str(tmp_path / "r.txt"),
                   "--metrics", str(tmp_path / "m.tsv")) == 0

    def test_manifest_without_segmentation_is_usage_error(self, small_pipeline, tmp_path,
                                                          capsys):
        manifest = self.resegment(small_pipeline, tmp_path)
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(l for l in lines if not l.startswith("@segmentation")))
        assert run("train", "--manifest", str(manifest), "--out", str(tmp_path / "m.wgt1"),
                   "--epochs", "1") == 2
        assert "has no @segmentation" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_volumes_off_the_declared_target_are_usage_error(self, small_pipeline, tmp_path,
                                                             capsys, command):
        manifest = self.resegment(small_pipeline, tmp_path)
        text = manifest.read_text()
        assert "\t1,2\t12,16,9\n" in text
        manifest.write_text(text.replace("\t1,2\t12,16,9\n", "\t1,2\t12,8,9\n"))
        capsys.readouterr()
        out = ["--out", str(tmp_path / "m.wgt1")] if command == "train" else [
            "--weights", str(small_pipeline["weights"])]
        assert run(command, "--manifest", str(manifest), *out) == 2
        err = capsys.readouterr().err
        assert "volume shapes (12, 16, 9) differ from the manifest's (12, 8, 9)" in err, err
        assert not (tmp_path / "m.wgt1").exists()

    @pytest.mark.parametrize("flag, value", [("--scales", "1,2"), ("--window", "32"),
                                             ("--overlap", "8"), ("--target", "12,16,9")])
    def test_shift_takes_no_segment_flag(self, small_pipeline, flag, value):
        assert run("shift", "--manifest", str(small_pipeline["data"] / "manifest.tsv"),
                   "--weights", str(small_pipeline["weights"]), flag, value) == 2

    def test_shift_cuts_as_the_weights_say(self, small_pipeline, tmp_path, monkeypatch):
        from stwnn import training

        seen = []

        def spy(model, stream, cfg, max_shift):
            seen.append(cfg)
            return real(model, stream, cfg, max_shift)

        real = training.shift_consistency
        monkeypatch.setattr(training, "shift_consistency", spy)
        assert run("shift", "--manifest", str(small_pipeline["data"] / "manifest.tsv"),
                   "--weights", str(small_pipeline["weights"]), "--max-shift", "2",
                   "--out", str(tmp_path / "shift.tsv")) == 0
        assert seen and all(cfg == self.DECLARED for cfg in seen)

    @pytest.mark.parametrize("command", ["eval", "shift"])
    def test_version_one_archive_is_runtime_failure(self, small_pipeline, tmp_path,
                                                    command, capsys):
        weights = tmp_path / "m.wgt1"
        data = bytearray(small_pipeline["weights"].read_bytes())
        data[4:8] = struct.pack("<I", 1)
        weights.write_bytes(bytes(data))
        manifest = small_pipeline["vols" if command == "eval" else "data"] / "manifest.tsv"
        assert run(command, "--manifest", str(manifest), "--weights", str(weights)) == 1
        assert "version 1 (it stores no segmentation; retrain" in capsys.readouterr().err


class TestExitCodesAndLogging:
    def test_missing_weights_is_runtime_failure(self, tmp_path):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        vols = tmp_path / "v"
        assert run("segment", "--manifest", str(out / "manifest.tsv"), "--out", str(vols),
                   "--window", "32", "--overlap", "0", "--scales", "1",
                   "--target", "12,16,9") == 0
        assert run("eval", "--manifest", str(vols / "manifest.tsv"),
                   "--weights", str(tmp_path / "nope.wgt1")) == 1

    def test_corrupt_stream_is_runtime_failure(self, tmp_path):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        manifest = dataio.load_manifest(out / "manifest.tsv")
        victim = out / manifest.entries[0].path
        victim.write_bytes(victim.read_bytes()[:40])
        assert run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(tmp_path / "v"), "--window", "32",
                   "--overlap", "0") == 1

    def test_non_utf8_manifest_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        manifest = out / "manifest.tsv"
        manifest.write_bytes(manifest.read_bytes() + b"# r\xe9sum\xe9\n")
        assert run("segment", "--manifest", str(manifest), "--out", str(tmp_path / "v"),
                   "--window", "32", "--overlap", "0") == 2
        assert f"{manifest}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan")])
    def test_bad_sample_rate_is_runtime_failure(self, tmp_path, rate):
        out = tmp_path / "d"
        synth_small(out, per_class="1")
        manifest = dataio.load_manifest(out / "manifest.tsv")
        victim = out / manifest.entries[0].path
        data = bytearray(victim.read_bytes())
        data[20:28] = struct.pack("<d", rate)  # after magic and four u32 sizes
        victim.write_bytes(bytes(data))
        assert run("segment", "--manifest", str(out / "manifest.tsv"),
                   "--out", str(tmp_path / "v"), "--window", "32",
                   "--overlap", "0") == 1

    def test_out_of_memory_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        from stwnn import csi

        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.96 TiB for an array")

        monkeypatch.setattr(csi, "synth_stream", allocate)
        assert synth_small(tmp_path / "d") == 1
        err = capsys.readouterr().err
        assert "out of memory: Unable to allocate 1.96 TiB for an array" in err
        assert "Traceback" not in err

    def test_log_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STWNN_LOG", "quiet")
        assert synth_small(tmp_path / "q") == 0
        assert "config" not in capsys.readouterr().err
        monkeypatch.setenv("STWNN_LOG", "debug")
        assert synth_small(tmp_path / "v") == 0
        assert "config synth.seed = 7" in capsys.readouterr().err


# Every config key's flag and default, pinned so that a change to either shows.
SETTINGS = {
    "synth.out": ("--out", "data"),
    "synth.classes": ("--classes", 3),
    "synth.per_class": ("--per-class", 30),
    "synth.val_per_class": ("--val-per-class", 3),
    "synth.test_per_class": ("--test-per-class", 10),
    "synth.duration": ("--duration", 1.0),
    "synth.rate": ("--rate", 100.0),
    "synth.tx": ("--tx", 3),
    "synth.rx": ("--rx", 3),
    "synth.subcarriers": ("--subcarriers", 30),
    "synth.noise_std": ("--noise-std", 0.1),
    "synth.seed": ("--seed", 0),
    "segment.out": ("--out", "volumes"),
    "segment.window": ("--window", 32),
    "segment.overlap": ("--overlap", 16),
    "segment.scales": ("--scales", (1, 2, 4)),
    "segment.target": ("--target", (30, 32, 9)),
    "train.epochs": ("--epochs", 10),
    "train.batch_size": ("--batch-size", 16),
    "train.lambda": ("--lambda", 0.5),
    "train.lr": ("--lr", 0.01),
    "train.momentum": ("--momentum", 0.9),
    "train.seed": ("--seed", 0),
    "net.blocks": ("--blocks", (8, 16, 32)),
    "net.kernel": ("--kernel", (3, 3, 3)),
    "net.feature_dim": ("--feature-dim", 32),
    "net.score_fn": ("--score-fn", "tanh"),
    "net.variant": ("--variant", "stwnn"),
    "net.seed": ("--net-seed", 0),
}
# The flags each subcommand requires besides its settings; none is read
# before the settings resolve.
REQUIRED = {
    "synth": [],
    "segment": ["--manifest", "m.tsv"],
    "shift": ["--manifest", "m.tsv", "--weights", "w.wgt1"],
    "train": ["--manifest", "m.tsv", "--out", "w.wgt1"],
    "eval": ["--manifest", "m.tsv", "--weights", "w.wgt1"],
}
COMMAND_KEYS = {
    "synth": [k for k in SETTINGS if k.startswith("synth.")],
    "segment": [k for k in SETTINGS if k.startswith("segment.")],
    "shift": [],
    "train": [k for k in SETTINGS if k.startswith(("train.", "net."))],
    "eval": [],
}


def sample_texts(default):
    """(file text, its value, flag text, its value, unparseable text or None)."""
    if isinstance(default, tuple):
        return "4,5", (4, 5), "6,7", (6, 7), "4,x"
    if isinstance(default, float):
        return "0.25", 0.25, "0.75", 0.75, "x"
    if isinstance(default, int):
        return "7", 7, "9", 9, "x"
    return "abc", "abc", "xyz", "xyz", None  # any text is a valid string


def resolve(*argv):
    return cli._settings(cli._build_parser().parse_args(list(argv)))


class TestSettingsTable:
    def test_table_matches_pinned_settings(self):
        assert {key: (flag, default) for key, flag, _, default in cli.SETTINGS} == SETTINGS
        assert len(cli.SETTINGS) == len(SETTINGS) == 29

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_flag_over_file_over_default(self, key, tmp_path, capsys, monkeypatch):
        flag, default = SETTINGS[key]
        command = next(c for c, keys in COMMAND_KEYS.items() if key in keys)
        required = REQUIRED[command]
        file_text, file_value, flag_text, flag_value, bad_text = sample_texts(default)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {file_text}\n")

        value = resolve(command, "--config", str(cfg), *required)[key]
        assert value == file_value and type(value) is type(file_value)
        value = resolve(command, "--config", str(cfg), flag, flag_text, *required)[key]
        assert value == flag_value and type(value) is type(flag_value)
        value = resolve(command, *required)[key]
        assert value == default and type(value) is type(default)
        if bad_text is not None:
            cfg.write_text(f"{key} = {bad_text}\n")
            assert run(command, "--config", str(cfg), *required) == 2
            assert f"config key {key!r}: cannot parse" in capsys.readouterr().err

        monkeypatch.setenv("COLUMNS", "200")
        assert run(command, "--help") == 0
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        assert f"{flag} {key.upper()} config key {key}, default {shown}" in " ".join(
            capsys.readouterr().out.split())

    @pytest.mark.parametrize("command", list(COMMAND_KEYS))
    def test_echo_is_one_sorted_line_per_key(self, command, caplog):
        caplog.set_level(logging.INFO, logger="stwnn")
        settings = resolve(command, *REQUIRED[command])
        echoed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("config")]
        assert echoed == [f"config {key} = {settings[key]}" for key in sorted(settings)]
        assert sorted(settings) == sorted(COMMAND_KEYS[command])
        if command == "segment":
            assert "config segment.scales = (1, 2, 4)" in echoed


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.classes = 2\nsynth.per_class = 1\n"
                       "synth.val_per_class = 0\nsynth.test_per_class = 1\n"
                       "synth.duration = 0.4\nsynth.seed = 5\n"
                       f"synth.out = {tmp_path / 'from_file'}\n")
        assert run("synth", "--config", str(cfg)) == 0
        manifest = dataio.load_manifest(tmp_path / "from_file" / "manifest.tsv")
        assert len(manifest.split("train")) == 2

        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "flag"),
                   "--per-class", "2") == 0
        manifest = dataio.load_manifest(tmp_path / "flag" / "manifest.tsv")
        assert len(manifest.split("train")) == 4  # flag wins over file

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 1\ntrain.epoch = 5\n")
        assert run("train", "--config", str(cfg), *REQUIRED["train"]) == 2
        assert f"{cfg}:2: unknown config key 'train.epoch'" in capsys.readouterr().err

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 1\n# again\ntrain.epochs = 3\n")
        assert run("train", "--config", str(cfg), *REQUIRED["train"]) == 2
        assert (f"{cfg}:3: config key 'train.epochs' repeats line 1"
                in capsys.readouterr().err)

    def test_one_file_serves_every_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        data, vols = tmp_path / "d", tmp_path / "v"
        cfg.write_text("synth.classes = 2\nsynth.per_class = 1\nsynth.val_per_class = 0\n"
                       f"synth.test_per_class = 1\nsynth.duration = 0.4\nsynth.out = {data}\n"
                       "segment.window = 20\nsegment.overlap = 0\nsegment.scales = 1\n"
                       f"segment.target = 12,16,9\nsegment.out = {vols}\n"
                       "train.epochs = 1\nnet.blocks = 2\nnet.feature_dim = 4\n")
        assert run("synth", "--config", str(cfg)) == 0
        assert run("segment", "--config", str(cfg),
                   "--manifest", str(data / "manifest.tsv")) == 0
        assert run("train", "--config", str(cfg), "--manifest", str(vols / "manifest.tsv"),
                   "--out", str(tmp_path / "m.wgt1")) == 0
        assert len((tmp_path / "m.history.tsv").read_text().splitlines()) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"synth.classes = 2 # \xe9t\xe9\n")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert f"config file {cfg} is not UTF-8" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.classes 2\n")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run("explode") == 2

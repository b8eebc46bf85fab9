"""The three benchmark workloads: train, infer and prep.

Each workload builds its inputs from the seed alone (``setup``), checks its
outputs outside the timed region, and runs a closed loop of timed items for a
fixed number of seconds (``loop``). An item is one public call whose wall time
is recorded on its own; ``rate`` items give the workload's throughput and
``latency`` items its latency percentiles.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from stwnn import autodiff, cli, csi, dataio, network, training, volumes
from stwnn.errors import StwnnError

N_CLASSES = 3
N_TX = N_RX = 3
N_SUB = 30
RATE_HZ = 100.0
MAX_SHIFT = 2
GRAD_COORDS = 1          # sampled coordinates per parameter tensor


@dataclass(frozen=True)
class Size:
    """Input sizes. ``PAPER`` is what the benchmark measures; ``TINY`` exists
    so the benchmark's own test runs in seconds."""

    blocks: tuple
    target: tuple            # (d_sub, d_time, d_ant) of every volume
    stream_s: float          # recording length for train/infer inputs
    train_samples: int       # samples per training.train call; PAPER: one batch
    heldout_samples: int     # distinct inputs cycled through network.forward
    shift_streams: int       # distinct recordings cycled through shift_consistency
    min_forward_calls: int   # forward calls per run, so p95 has ten beyond it
    prep_per_class: int      # train streams per class written by `stwnn synth`
    prep_stream_s: float     # recording length for prep


PAPER = Size(blocks=(8, 16, 32), target=(30, 32, 9), stream_s=1.0, train_samples=16,
             heldout_samples=24, shift_streams=8, min_forward_calls=200,
             prep_per_class=2, prep_stream_s=4.0)
TINY = Size(blocks=(2, 4, 8), target=(6, 8, 9), stream_s=0.6, train_samples=6,
            heldout_samples=3, shift_streams=2, min_forward_calls=4,
            prep_per_class=1, prep_stream_s=0.6)
SIZES = {"paper": PAPER, "tiny": TINY}


def _seg_config(size: Size) -> volumes.SegmentationConfig:
    return volumes.SegmentationConfig(window=32, overlap=15, scales=(1, 2, 4),
                                      target_shape=size.target)


def _stream(seed, purpose, class_id, k, duration_s):
    stream_seed = int(np.random.default_rng([seed, purpose, class_id, k]).integers(2**32))
    spec = csi.doppler_activity_spec(class_id, n_ant=N_TX * N_RX, duration_s=duration_s,
                                     seed=stream_seed)
    return csi.synth_stream(spec, N_TX, N_RX, N_SUB, RATE_HZ)


def _samples(seed, purpose, total, size: Size) -> list:
    """``total`` (sample, label) pairs, classes as even as the count allows,
    cut from fresh recordings of each class."""
    seg = _seg_config(size)
    out = []
    for class_id in range(N_CLASSES):
        want = total // N_CLASSES + (class_id < total % N_CLASSES)
        got, k = [], 0
        while len(got) < want:
            signal = csi.amplitude(_stream(seed, purpose, class_id, k, size.stream_s))
            for group in volumes.group_by_segment(
                    volumes.stream_volumes(signal, seg, label=class_id)):
                got.append((volumes.stack_channels(group), class_id))
            k += 1
        out += got[:want]
    return out


def _build_model(seed, size: Size) -> network.Model:
    return network.build_model(network.NetworkConfig(
        n_classes=N_CLASSES, in_channels=3, block_channels=size.blocks, seed=seed))


def _time_major(sample: np.ndarray) -> np.ndarray:
    """(C, sub, time, ant) sample -> the (C, time, sub, ant) layout the graph takes."""
    return np.ascontiguousarray(sample.transpose(0, 2, 1, 3))


class Loop:
    """Wall times of one closed loop of items, plus the items that failed.

    With a ``switch`` (a callable taking on/off), tracing is switched on for
    every other item, so traced and untraced items share the host's state
    and ``latency_traced`` tells them apart. An item is a callable of no
    arguments, so the functions it calls are looked up after the switch."""

    def __init__(self, switch=None):
        self.latency_s = []
        self.latency_traced = []
        self.rate_s = []
        self.units_per_rate_item = 1
        self.attempted = 0
        self.failed = 0
        self.traced_items = 0
        self._switch = switch
        self._traced = False

    def timed(self, item):
        """Run ``item()``; returns (result, seconds) or (None, None) on a typed failure."""
        if self._switch is not None:
            self._traced = self.attempted % 2 == 1
            self._switch(self._traced)
            self.traced_items += self._traced
        self.attempted += 1
        start = perf_counter()
        try:
            result = item()
        except StwnnError:
            self.failed += 1
            return None, None
        return result, perf_counter() - start

    def add_latency(self, seconds):
        self.latency_s.append(seconds)
        self.latency_traced.append(self._traced)


def _until(start, seconds, done, minimum):
    return perf_counter() - start < seconds or done < minimum


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    name = "train"
    why = ("training.train at the paper shape: conv forward and backward, graph build, "
           "backward and SGD dominate; dataio and cli are bypassed")
    # one item is one training.train call over one 16-sample batch, so a
    # 30 s run holds enough calls for its latency percentiles
    rate_unit = "training.train calls"
    latency_unit = "training.train calls"
    min_items = 2

    def __init__(self, seed, size: Size, root: Path):
        self.seed, self.size = seed, size
        self.cfg = training.TrainConfig(epochs=1, batch_size=16, mix=0.5, lr=0.02,
                                        momentum=0.9, seed=seed)

    def setup(self):
        self.train_set = _samples(self.seed, 0, self.size.train_samples, self.size)
        self.val_set = _samples(self.seed, 1, N_CLASSES, self.size)
        self.model = _build_model(self.seed, self.size)
        self.params = self.model.parameters()
        self.initial = {name: p.values.copy() for name, p in self.params.items()}

    def pre_checks(self):
        """Central differences of sample_loss_graph on sampled coordinates of
        every parameter tensor, against the graph's own gradient."""
        sample, label = self.train_set[0]
        x = _time_major(sample)

        def loss_fn():
            return training.sample_loss_graph(self.model, x, label, self.cfg.mix)

        for p in self.params.values():
            p.grad = None
        autodiff.backward(loss_fn())
        rng = np.random.default_rng([self.seed, 99])
        coords = {name: rng.choice(p.size, size=GRAD_COORDS, replace=False)
                  for name, p in self.params.items()}
        analytic = {name: (np.zeros(len(idx)) if self.params[name].grad is None
                           else self.params[name].grad.reshape(-1)[idx])
                    for name, idx in coords.items()}
        for p in self.params.values():
            p.grad = None
        numeric = checks.numeric_gradients(loss_fn, self.params, coords)
        return {"gradients": checks.check_gradients(analytic, numeric)}

    def loop(self, seconds, min_items, switch=None):
        run = Loop(switch)
        run.units_per_rate_item = len(self.train_set) * self.cfg.epochs
        self.histories = []
        start = perf_counter()
        while _until(start, seconds, len(run.latency_s) + run.failed, min_items):
            for name, p in self.params.items():
                p.values = self.initial[name].copy()
            out, dt = run.timed(lambda: training.train(self.model, self.train_set,
                                                       self.val_set, self.cfg))
            if dt is not None:
                run.add_latency(dt)
                self.histories.append([s.train_loss for s in out[1]])
        run.rate_s = run.latency_s
        return run

    def post_checks(self):
        return {"loss_history": checks.check_loss_histories(self.histories)}

    def summary(self):
        return {"train_loss": self.histories[0][0] if self.histories else None,
                "loss_history": self.histories[0] if self.histories else None}


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

class Infer:
    name = "infer"
    why = ("network.forward per held-out sample plus shift_consistency: the same conv "
           "kernels forward-only, so a conv-backward change predicts no move here")
    rate_unit = "shift_consistency calls"
    latency_unit = "network.forward calls"
    # forward and shift calls alternate so both cover the whole run
    FORWARDS_PER_SHIFT = 6

    def __init__(self, seed, size: Size, root: Path):
        self.seed, self.size = seed, size
        self.seg = _seg_config(size)
        self.min_items = size.min_forward_calls

    def setup(self):
        self.heldout = [s for s, _ in _samples(self.seed, 2, self.size.heldout_samples,
                                               self.size)]
        self.streams = [_stream(self.seed, 3, k % N_CLASSES, k, self.size.stream_s)
                        for k in range(self.size.shift_streams)]
        self.model = _build_model(self.seed, self.size)

    def pre_checks(self):
        """Logits of a few samples against the einsum reference."""
        picked = self.heldout[:3]
        got = [network.forward(self.model, s)[0] for s in picked]
        ref = [checks.reference_logits(self.model, _time_major(s)) for s in picked]
        return {"reference_logits": checks.check_logits(got, ref)}

    def loop(self, seconds, min_items, switch=None):
        run = Loop(switch)
        self.logits = {}
        self.agreements = {}
        start = perf_counter()
        n_fwd = n_shift = 0
        while _until(start, seconds, n_fwd, min_items) or n_shift < len(self.streams):
            for _ in range(self.FORWARDS_PER_SHIFT):
                k = n_fwd % len(self.heldout)
                out, dt = run.timed(lambda: network.forward(self.model, self.heldout[k]))
                n_fwd += 1
                if dt is not None:
                    run.add_latency(dt)
                    self.logits.setdefault(k, []).append(out[0])
            k = n_shift % len(self.streams)
            agreement, dt = run.timed(lambda: training.shift_consistency(
                self.model, self.streams[k], self.seg, MAX_SHIFT))
            n_shift += 1
            if dt is not None:
                run.rate_s.append(dt)
                self.agreements.setdefault(k, []).append(agreement)
        return run

    def post_checks(self):
        return {"repeatable_logits": checks.check_repeatable(self.logits),
                "shift_agreements": checks.check_agreements(self.agreements,
                                                            2 * MAX_SHIFT + 1)}

    def summary(self):
        return {}


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------

class Prep:
    name = "prep"
    why = ("stwnn synth then segment on multi-second streams, then CSI1/VOL1 read-back: "
           "writes beside reads; the network is never touched")
    rate_unit = "synth+segment+read-back passes"
    latency_unit = "synth+segment+read-back passes"
    min_items = 2

    def __init__(self, seed, size: Size, root: Path):
        self.seed, self.size = seed, size
        self.workdir = root / ".perfbench_tmp" / f"prep-{os.getpid()}"
        self.n_streams = N_CLASSES * (size.prep_per_class + 1)
        self.codes = []
        self.digests = []
        self.passes = 0
        os.environ["STWNN_LOG"] = "quiet"

    def _pass(self):
        """One synth -> segment -> read-back pass into a fresh directory."""
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        data, vols = out / "data", out / "vols"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["synth", "--out", str(data), "--classes", str(N_CLASSES),
                          "--per-class", str(self.size.prep_per_class),
                          "--val-per-class", "0", "--test-per-class", "1",
                          "--duration", str(self.size.prep_stream_s),
                          "--seed", str(self.seed)]),
                cli.main(["segment", "--manifest", str(data / "manifest.tsv"),
                          "--out", str(vols), "--window", "32", "--overlap", "15",
                          "--scales", "1,2,4",
                          "--target", ",".join(str(d) for d in self.size.target)])]
        self.codes += codes
        if any(codes):
            raise StwnnError(f"CLI exit codes {codes}")
        for e in dataio.load_manifest(data / "manifest.tsv").entries:
            dataio.load_stream(data / e.path)
        for e in dataio.load_manifest(vols / "manifest.tsv").entries:
            dataio.load_volumes(vols / e.path)
        return out

    def _finish(self, out):
        self.digests.append(checks.tree_digest(out))
        shutil.rmtree(out)

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.last = self._pass()

    def pre_checks(self):
        """Every CSI1/VOL1 file re-saves byte-identical after loading."""
        pairs = []
        scratch = self.workdir / "resaved"
        for path in sorted(self.last.rglob("*.csi1")):
            dataio.save_stream(scratch, dataio.load_stream(path))
            pairs.append((path.name, path.read_bytes(), scratch.read_bytes()))
        for path in sorted(self.last.rglob("*.vol1")):
            dataio.save_volumes(scratch, dataio.load_volumes(path))
            pairs.append((path.name, path.read_bytes(), scratch.read_bytes()))
        scratch.unlink(missing_ok=True)
        self._finish(self.last)
        return {"round_trips": checks.check_round_trips(pairs)}

    def loop(self, seconds, min_items, switch=None):
        run = Loop(switch)
        run.units_per_rate_item = self.n_streams
        start = perf_counter()
        while _until(start, seconds, len(run.latency_s) + run.failed, min_items):
            out, dt = run.timed(self._pass)
            if dt is not None:
                run.add_latency(dt)
                self._finish(out)
        run.rate_s = run.latency_s
        return run

    def post_checks(self):
        return {"exit_codes": checks.check_exit_codes(self.codes),
                "digest": checks.check_digests(self.digests)}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def summary(self):
        return {"digest": self.digests[0] if self.digests else None}


WORKLOADS = {w.name: w for w in (Train, Infer, Prep)}

"""Training loop, combined loss, SGD with momentum, and evaluation metrics.

The loss mixes two cross-entropy terms: one on the plain class probabilities
and one on probabilities after the logits are modulated by a gate computed
from the attention mask. ``masked_probs`` and ``combined_loss`` build that
loss as autodiff graph nodes, on ``Tensor``s only, and ``sample_loss_graph``
is the one sample's graph the trainer differentiates. Evaluation always uses
the plain branch.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .autodiff import Tensor
from .csi import amplitude
from .errors import ConfigError, StwnnError, UsageError, ValidationError
from .volumes import SegmentationConfig, segment_volumes, stack_channels


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. ``mix`` weights the gated loss term."""

    epochs: int
    batch_size: int = 16
    mix: float = 0.5
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.mix <= 1.0:
            raise ConfigError(f"mix must be in [0, 1], got {self.mix}")
        # lr == 0 is allowed so a no-op optimizer stays expressible
        if not math.isfinite(self.lr) or self.lr < 0:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Metrics:
    per_class_accuracy: np.ndarray
    overall_accuracy: float
    confusion: np.ndarray


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def one_hot(label: int, n_classes: int) -> np.ndarray:
    label = int(label)
    if not 0 <= label < n_classes:
        raise ValidationError(f"label {label} out of range for {n_classes} classes")
    g = np.zeros(n_classes)
    g[label] = 1.0
    return g


def combined_loss(g: Tensor, probs_o: Tensor, probs_m: Tensor, mix: float) -> Tensor:
    """mix * CE(g, probs_m) + (1 - mix) * CE(g, probs_o) for one one-hot row
    ``g``, with log arguments clamped at 1e-12."""
    ce_o = ad.mul_const(ad.scalar_sum(ad.mul_elementwise(g, ad.clamped_log(probs_o))), -1.0)
    ce_m = ad.mul_const(ad.scalar_sum(ad.mul_elementwise(g, ad.clamped_log(probs_m))), -1.0)
    return ad.add(ad.mul_const(ce_m, mix), ad.mul_const(ce_o, 1.0 - mix))


def masked_probs(logits: Tensor, mask: Tensor, gate_w: Tensor, gate_b: Tensor) -> Tensor:
    """softmax(logits * (gate_w @ mask + gate_b))."""
    return ad.softmax(ad.mul_elementwise(logits, ad.linear(mask, gate_w, gate_b)))


class SgdMomentum:
    """Keeps one velocity buffer per parameter tensor."""

    def __init__(self, params, lr: float, momentum: float):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        """In place: velocity = momentum*velocity - lr*grad; param += velocity."""
        for p, v in zip(self.params, self.velocities):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.values += v


def sample_loss_graph(model: net.Model, x: np.ndarray, label: int, mix: float) -> Tensor:
    """Differentiable combined loss for one (C, time, sub, ant) sample."""
    logits, mask = net.forward_graph(model, Tensor(x))
    probs_m = masked_probs(logits, mask, model.gate.weight, model.gate.bias)
    g = Tensor(one_hot(label, model.config.n_classes))
    return combined_loss(g, ad.softmax(logits), probs_m, mix)


def _check_dataset(dataset, config: net.NetworkConfig, what: str):
    """Refuse an empty set, a label out of range or a sample ``_sample_to_array`` refuses."""
    if not dataset:
        raise UsageError(f"{what} dataset is empty")
    for sample, label in dataset:
        if not 0 <= int(label) < config.n_classes:
            raise ValidationError(f"label {label} out of range for {config.n_classes} classes")
        net._sample_to_array(sample, config.in_channels)


# (model, train_set, mix, val_set) of the running ``train`` call, the caller's own
# sets. Forked workers inherit it copy-on-write, so a task sends only a sample index
# (and 1/batch).
_SHARED = None

# glibc mallopt parameters; see ``_reuse_freed_heap``
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _worker_count(batch_size: int, n_samples: int) -> int:
    """One training worker per core this process may run on, at most one per
    sample of a batch; one (in-process) where ``fork`` is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, batch_size, n_samples)


def _reuse_freed_heap():
    """Raise malloc's thresholds (the training pool's initializer). A sample's
    graph frees tens of MB at once; glibc would hand that back to the kernel and
    fault it in again on the next sample, so the process keeps up to 64 MiB of
    freed heap and serves blocks under 32 MiB from it (a no-op without glibc)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _sample_grad(idx: int, inv: float):
    """(loss, gradient per parameter) of sample ``idx`` of the shared training
    set, its loss scaled by ``inv`` (one over the batch size) before backward."""
    model, train_set, mix, _ = _SHARED
    sample, label = train_set[idx]
    params = list(model.parameters().values())
    for p in params:
        p.grad = None
    x = net._sample_to_array(sample, model.config.in_channels)
    loss = ad.mul_const(sample_loss_graph(model, x, label, mix), inv)
    ad.backward(loss)
    return float(loss.values[0]), [p.grad for p in params]


def _val_pred(idx: int) -> int:
    """Plain-branch class index of sample ``idx`` of the shared validation set."""
    model, _, _, val_set = _SHARED
    _, probs, _ = net.forward(model, val_set[idx][0])
    return int(np.argmax(probs))


def _share_parameters(params):
    """Move each ``p.values`` into a float64 view of one anonymous shared
    mapping, which forked workers inherit, so values are never pickled."""
    sizes = [p.values.size for p in params]
    buf = mmap.mmap(-1, 8 * sum(sizes))
    offsets = np.cumsum([0] + sizes)
    for p, n, off in zip(params, sizes, offsets):
        view = np.frombuffer(buf, dtype=np.float64, count=n, offset=8 * int(off)).reshape(p.shape)
        np.copyto(view, p.values)
        p.values = view


def train(model: net.Model, train_set, val_set, cfg: TrainConfig):
    """Optimize in place; returns (model restored to best validation OA, history).

    Datasets are sequences of (sample, label); each sample is one stored
    (C, sub, time, ant) ndarray, as ``volumes.stack_channels`` returns. Both
    are checked whole before the first step, so a bad one leaves the model
    untouched. Each task reads its sample from the caller's set; the set is
    never copied. Shuffling is reseeded per epoch from the config seed, so
    identical inputs give identical histories.

    Per-sample gradients run on one forked worker per available core (see
    ``_worker_count``), one task per sample. For the whole call the parameters
    live in one anonymous shared buffer that the workers inherit and SGD steps
    in place. The parent adds each sample's gradients into one running sum as
    they arrive, in batch order, exactly as one ``autodiff.backward`` per
    sample would. So parameters and history do not depend on the core count,
    and memory is bounded by one sample per worker, not by the batch. With one
    worker the same per-sample function runs in this process. The returned
    model's parameters are plain arrays, not views of the buffer. Each epoch's
    validation forwards run on the same workers, one task per sample, and
    their predictions are scored in the parent.

    BLAS runs on one thread for the whole call (``autodiff._one_blas_thread``),
    set before the pool forks, so no worker restarts OpenBLAS's helper threads;
    the caller's thread count comes back on return.

    A worker's ``StwnnError`` reaches the caller with its own type; a worker
    that dies becomes a ``StwnnError``, and so does a parameter that turns
    non-finite after an SGD step (naming the epoch, the batch and the first
    such parameter in ``parameters()`` order).
    """
    global _SHARED
    # imported here, so that commands which never train do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _check_dataset(train_set, model.config, "train")
    _check_dataset(val_set, model.config, "validation")

    params = model.parameters()
    opt = SgdMomentum(params.values(), cfg.lr, cfg.momentum)
    workers = _worker_count(cfg.batch_size, len(train_set))
    _share_parameters(opt.params)

    history = []
    best_oa = -1.0
    val_labels = [int(label) for _, label in val_set]
    _SHARED = (model, train_set, cfg.mix, val_set)
    try:
        # fork, not spawn: a spawned worker would import the package again and
        # receive the whole dataset by pickle on every ``train`` call
        with ad._one_blas_thread(), \
                (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_reuse_freed_heap)
                 if workers > 1 else contextlib.nullcontext()) as pool:
            run = pool.map if pool else map
            for epoch in range(cfg.epochs):
                rng = np.random.default_rng([cfg.seed, epoch])
                order = rng.permutation(len(train_set))
                total_loss = 0.0
                for b, start in enumerate(range(0, len(order), cfg.batch_size)):
                    batch = order[start:start + cfg.batch_size]
                    summed = None
                    for loss, grads in run(_sample_grad, batch.tolist(),
                                           [1.0 / len(batch)] * len(batch)):
                        total_loss += loss * len(batch)
                        if summed is None:
                            summed = grads
                            continue
                        for s, g in zip(summed, grads):
                            s += g
                        grads.clear()   # the next sample runs without this one's arrays
                    for p, s in zip(opt.params, summed):
                        p.grad = s
                    opt.step()
                    bad = next((name for name, p in params.items()
                                if not np.isfinite(p.values).all()), None)
                    if bad is not None:
                        raise StwnnError(
                            f"training went non-finite at epoch {epoch}, batch {b}: "
                            f"parameter {bad!r} holds non-finite values")
                val_metrics = confusion_metrics(
                    val_labels, list(run(_val_pred, range(len(val_set)))),
                    model.config.n_classes)
                stats = EpochStats(epoch=epoch,
                                   train_loss=total_loss / len(train_set),
                                   val_accuracy=val_metrics.overall_accuracy)
                history.append(stats)
                if stats.val_accuracy > best_oa:
                    best_oa = stats.val_accuracy
                    best_state = {name: p.values.copy() for name, p in params.items()}
    except BrokenProcessPool as exc:
        raise StwnnError(f"a training worker process died: {exc}") from exc
    finally:
        _SHARED = None

    for name, p in params.items():
        p.values = best_state[name]
    return model, history


def predict(model: net.Model, samples) -> np.ndarray:
    """Class index per sample via the plain probability branch."""
    preds = []
    for sample in samples:
        _, probs, _ = net.forward(model, sample)
        preds.append(int(np.argmax(probs)))
    return np.array(preds, dtype=np.int64)


def confusion_metrics(y_true, y_pred, n_classes: int) -> Metrics:
    """Confusion matrix (rows = true class), per-class accuracy, and OA."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValidationError("y_true and y_pred must be equal-length non-empty vectors")
    for name, labels in (("true", y_true), ("predicted", y_pred)):
        bad = labels[(labels < 0) | (labels >= n_classes)]
        if bad.size:
            raise ValidationError(
                f"{name} label {bad[0]} out of range for {n_classes} classes")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    row_totals = confusion.sum(axis=1)
    per_class = np.where(row_totals > 0, np.diag(confusion) / np.maximum(row_totals, 1), 0.0)
    overall = float(np.trace(confusion) / confusion.sum())
    return Metrics(per_class_accuracy=per_class, overall_accuracy=overall, confusion=confusion)


def evaluate(model: net.Model, test_set) -> Metrics:
    """Metrics over (sample, label) pairs using argmax of the plain branch."""
    if not test_set:
        raise UsageError("test set is empty")
    y_true = np.array([int(label) for _, label in test_set], dtype=np.int64)
    y_pred = predict(model, [sample for sample, _ in test_set])
    return confusion_metrics(y_true, y_pred, model.config.n_classes)


def shift_consistency(model: net.Model, stream, cfg: SegmentationConfig,
                      max_shift: int) -> float:
    """Fraction of window offsets in [-max_shift, +max_shift] whose prediction
    matches the unshifted one, for one recording."""
    if max_shift < 0:
        raise UsageError(f"max_shift must be >= 0, got {max_shift}")
    signal = amplitude(stream)
    n_packets = signal.shape[1]
    if n_packets < cfg.window + 2 * max_shift:
        raise UsageError(
            f"stream has {n_packets} packets, need {cfg.window + 2 * max_shift} "
            f"for shifts up to {max_shift}")

    windows = (signal[:, start:start + cfg.window] for start in range(2 * max_shift + 1))
    preds = predict(model, (stack_channels(segment_volumes(w, cfg)) for w in windows))
    return float(np.mean(preds == preds[max_shift]))

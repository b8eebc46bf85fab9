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
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .autodiff import Tensor
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
        """velocity' = momentum*velocity - lr*grad; param' = param + velocity'."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.velocities[i] = self.momentum * self.velocities[i] - self.lr * p.grad
            p.values = p.values + self.velocities[i]


def sample_loss_graph(model: net.Model, x: np.ndarray, label: int, mix: float) -> Tensor:
    """Differentiable combined loss for one (C, time, sub, ant) sample."""
    logits, mask = net.forward_graph(model, Tensor(x))
    probs_m = masked_probs(logits, mask, model.gate.weight, model.gate.bias)
    g = Tensor(one_hot(label, model.config.n_classes))
    return combined_loss(g, ad.softmax(logits), probs_m, mix)


def _check_dataset(dataset, n_classes: int, what: str):
    if not dataset:
        raise UsageError(f"{what} dataset is empty")
    for _, label in dataset:
        if not 0 <= int(label) < n_classes:
            raise ValidationError(f"label {label} out of range for {n_classes} classes")


# (model, xs, labels, mix) of the running ``train`` call. Forked workers
# inherit it copy-on-write, so only parameters, indices and gradients are sent.
_SHARED = None


def _worker_count(batch_size: int, n_samples: int) -> int:
    """One training worker per core this process may run on, at most one per
    sample of a batch; one (in-process) where ``fork`` is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, batch_size, n_samples)


def _sample_grads(values, indices, inv: float):
    """(loss, gradient per parameter) of each sample in ``indices``, in order,
    with the shared model's parameters set to ``values``. Each loss is scaled
    by ``inv`` (one over the batch size) before its own backward."""
    model, xs, labels, mix = _SHARED
    params = list(model.parameters().values())
    for p, v in zip(params, values):
        p.values = v
    out = []
    for idx in indices:
        for p in params:
            p.grad = None
        loss = ad.mul_const(sample_loss_graph(model, xs[idx], labels[idx], mix), inv)
        ad.backward(loss)
        out.append((float(loss.values[0]), [p.grad for p in params]))
    return out


def train(model: net.Model, train_set, val_set, cfg: TrainConfig):
    """Optimize in place; returns (model restored to best validation OA, history).

    Datasets are sequences of (sample, label); each sample is one stored
    (C, sub, time, ant) ndarray, as ``volumes.stack_channels`` returns.
    Shuffling is reseeded per epoch from the config seed, so identical inputs
    give identical histories.

    Per-sample gradients run on one forked worker per available core (see
    ``_worker_count``), each on a contiguous slice of the batch. The parent
    adds them up in batch order, exactly as one ``autodiff.backward`` per
    sample would, so parameters and history do not depend on the core count.
    A worker's ``StwnnError`` reaches the caller with its own type; a worker
    that dies becomes a ``StwnnError``.
    """
    global _SHARED
    # imported here, so that commands which never train do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    n_classes = model.config.n_classes
    _check_dataset(train_set, n_classes, "train")
    _check_dataset(val_set, n_classes, "validation")

    xs = [net._sample_to_array(sample, model.config.in_channels) for sample, _ in train_set]
    labels = [int(label) for _, label in train_set]
    params = model.parameters()
    opt = SgdMomentum(params.values(), cfg.lr, cfg.momentum)
    workers = _worker_count(cfg.batch_size, len(xs))

    history = []
    best_oa = -1.0
    best_state = None
    _SHARED = (model, xs, labels, cfg.mix)
    try:
        # fork, not spawn: a spawned worker would import the package again and
        # receive the whole dataset by pickle on every ``train`` call
        with (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
              if workers > 1 else contextlib.nullcontext()) as pool:
            run = pool.map if pool else map
            for epoch in range(cfg.epochs):
                rng = np.random.default_rng([cfg.seed, epoch])
                order = rng.permutation(len(xs))
                total_loss = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    parts = np.array_split(batch, min(workers, len(batch)))
                    values = [p.values for p in opt.params]
                    # collected in full before the sum: in-process, _sample_grads
                    # sets the grads of these very tensors
                    results = list(run(_sample_grads, [values] * len(parts), parts,
                                       [1.0 / len(batch)] * len(parts)))
                    for p in opt.params:
                        p.grad = None
                    for loss, grads in (r for part in results for r in part):
                        total_loss += loss * len(batch)
                        for p, g in zip(opt.params, grads):
                            if g is not None:
                                p.grad = g.copy() if p.grad is None else p.grad + g
                    opt.step()
                val_metrics = evaluate(model, val_set)
                stats = EpochStats(epoch=epoch,
                                   train_loss=total_loss / len(xs),
                                   val_accuracy=val_metrics.overall_accuracy)
                history.append(stats)
                if stats.val_accuracy > best_oa:
                    best_oa = stats.val_accuracy
                    best_state = {name: p.values.copy() for name, p in params.items()}
    except BrokenProcessPool as exc:
        raise StwnnError(f"a training worker process died: {exc}") from exc
    finally:
        _SHARED = None

    if best_state is not None:
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
    from .csi import amplitude

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

"""3-D residual network with feature self-attention, plus its planar ablation.

The trunk is a stack of residual blocks (conv, relu, conv, shortcut add,
relu), each followed by stride-2 subsampling of the time axis. Global
average pooling after every block yields one feature vector per block;
a shared scoring head turns those into softmax weights whose convex
combination is the attention mask. A dense classifier maps the pooled
trunk output to class logits, and a gate head maps the mask to per-logit
factors for the mask-modulated prediction branch.

Network tensors are laid out (channels, time, subcarrier, antenna); the
first kernel dimension is therefore the temporal extent, and the planar
variant ("wnn2d") collapses it to 1 while widening the spatial kernel to
keep the parameter count within 10%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, UsageError

SCORE_FNS = ("tanh", "relu", "linear")
VARIANTS = ("stwnn", "wnn2d")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; construction is deterministic per seed."""

    n_classes: int
    in_channels: int = 3
    block_channels: tuple = (8, 16, 32)
    kernel: tuple = (3, 3, 3)
    feature_dim: int = 32
    score_fn: str = "tanh"
    variant: str = "stwnn"
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        blocks = tuple(int(c) for c in self.block_channels)
        if not blocks or min(blocks) < 1:
            raise ConfigError(f"block_channels must be positive, got {blocks}")
        kernel = tuple(int(k) for k in self.kernel)
        if len(kernel) != 3 or min(kernel) < 1:
            raise ConfigError(f"kernel must be three positive ints, got {kernel}")
        if any(k % 2 == 0 for k in kernel):
            # blocks pad by k // 2, which keeps the shape for odd k only
            raise ConfigError(f"kernel sizes must be odd, got {kernel}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.score_fn not in SCORE_FNS:
            raise ConfigError(f"score_fn must be one of {SCORE_FNS}, got {self.score_fn!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "block_channels", blocks)
        object.__setattr__(self, "kernel", kernel)


@dataclass
class BlockParams:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    proj_w: Optional[Tensor] = None
    proj_b: Optional[Tensor] = None


@dataclass
class AttentionParams:
    """Shared scoring head: score_i = score_fn(weight . feature_i + bias)."""

    weight: Tensor
    bias: Tensor


@dataclass
class GateHead:
    """Dense map from the attention mask to one multiplicative factor per logit."""

    weight: Tensor
    bias: Tensor


@dataclass
class Model:
    config: NetworkConfig
    blocks: list
    tap_weights: list
    tap_biases: list
    attention: AttentionParams
    clf_w: Tensor
    clf_b: Tensor
    gate: GateHead
    kernel_dims: tuple = (3, 3, 3)

    def parameters(self) -> dict:
        """Named parameter tensors in a stable order."""
        params = {}
        for i, blk in enumerate(self.blocks):
            params[f"block{i}.conv1.weight"] = blk.conv1_w
            params[f"block{i}.conv1.bias"] = blk.conv1_b
            params[f"block{i}.conv2.weight"] = blk.conv2_w
            params[f"block{i}.conv2.bias"] = blk.conv2_b
            if blk.proj_w is not None:
                params[f"block{i}.proj.weight"] = blk.proj_w
                params[f"block{i}.proj.bias"] = blk.proj_b
        for i, (w, b) in enumerate(zip(self.tap_weights, self.tap_biases)):
            params[f"tap{i}.weight"] = w
            params[f"tap{i}.bias"] = b
        params["attention.weight"] = self.attention.weight
        params["attention.bias"] = self.attention.bias
        params["classifier.weight"] = self.clf_w
        params["classifier.bias"] = self.clf_b
        params["gate.weight"] = self.gate.weight
        params["gate.bias"] = self.gate.bias
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())


def _planar_kernel(kernel) -> tuple:
    """Collapse the temporal kernel extent, widening the spatial square to
    keep the per-kernel weight count as close as possible."""
    volume = kernel[0] * kernel[1] * kernel[2]
    best = 1
    for k in range(1, volume + 2, 2):
        if abs(k * k - volume) < abs(best * best - volume):
            best = k
    return (1, best, best)


def _glorot(rng, shape, fan_in, fan_out) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def build_model(config: NetworkConfig) -> Model:
    """Construct a model with seeded Glorot-uniform weights and zero biases.

    The gate bias starts at one so the mask-modulated branch initially
    reproduces the plain branch.
    """
    rng = np.random.default_rng(config.seed)
    kernel = config.kernel if config.variant == "stwnn" else _planar_kernel(config.kernel)
    kd, kh, kw = kernel
    k_volume = kd * kh * kw

    blocks = []
    c_prev = config.in_channels
    for c_out in config.block_channels:
        conv1_w = _glorot(rng, (c_out, c_prev, kd, kh, kw),
                          c_prev * k_volume, c_out * k_volume)
        conv2_w = _glorot(rng, (c_out, c_out, kd, kh, kw),
                          c_out * k_volume, c_out * k_volume)
        blk = BlockParams(conv1_w=conv1_w, conv1_b=_zeros(c_out),
                          conv2_w=conv2_w, conv2_b=_zeros(c_out))
        if c_prev != c_out:
            blk.proj_w = _glorot(rng, (c_out, c_prev, 1, 1, 1), c_prev, c_out)
            blk.proj_b = _zeros(c_out)
        blocks.append(blk)
        c_prev = c_out

    tap_weights, tap_biases = [], []
    for c_out in config.block_channels:
        tap_weights.append(_glorot(rng, (config.feature_dim, c_out),
                                   c_out, config.feature_dim))
        tap_biases.append(_zeros(config.feature_dim))

    attention = AttentionParams(
        weight=_glorot(rng, (config.feature_dim,), config.feature_dim, 1),
        bias=_zeros(1))
    clf_w = _glorot(rng, (config.n_classes, config.block_channels[-1]),
                    config.block_channels[-1], config.n_classes)
    clf_b = _zeros(config.n_classes)
    gate = GateHead(
        weight=_glorot(rng, (config.n_classes, config.feature_dim),
                       config.feature_dim, config.n_classes),
        bias=Tensor(np.ones(config.n_classes), requires_grad=True))

    return Model(config=config, blocks=blocks, tap_weights=tap_weights,
                 tap_biases=tap_biases, attention=attention,
                 clf_w=clf_w, clf_b=clf_b, gate=gate, kernel_dims=kernel)


def residual_block_forward(x: Tensor, params: BlockParams, kernel=(3, 3, 3)) -> Tensor:
    """relu(conv2(relu(conv1(x))) + shortcut(x)); identity shortcut when the
    channel counts match, 1x1x1 projection otherwise."""
    pad = tuple(k // 2 for k in kernel)
    h = ad.relu(ad.conv3d(x, params.conv1_w, params.conv1_b, stride=1, padding=pad))
    h = ad.conv3d(h, params.conv2_w, params.conv2_b, stride=1, padding=pad)
    if params.proj_w is None:
        if x.shape[0] != params.conv2_w.shape[0]:
            raise DimensionError(
                f"identity shortcut needs matching channels, got {x.shape[0]} "
                f"vs {params.conv2_w.shape[0]}")
        shortcut = x
    else:
        shortcut = ad.conv3d(x, params.proj_w, params.proj_b, stride=1, padding=0)
    return ad.relu(ad.add(h, shortcut))


def _apply_score_fn(t: Tensor, score_fn: str) -> Tensor:
    if score_fn == "tanh":
        return ad.tanh_act(t)
    if score_fn == "relu":
        return ad.relu(t)
    if score_fn == "linear":
        return t
    raise ConfigError(f"unknown score_fn {score_fn!r}")


def attention_forward(features, params: AttentionParams, score_fn: str = "tanh"):
    """Score, softmax-normalize and convexly combine a list of feature vectors.

    Returns (mask tensor of length feature_dim, weight vector of length n).
    """
    features = list(features)
    w_row = ad.reshape(params.weight, (1, params.weight.size))
    scores = [_apply_score_fn(ad.linear(f, w_row, params.bias), score_fn) for f in features]
    weights = ad.softmax(ad.concat(scores))
    mask = ad.weighted_sum(weights, features)
    return mask, weights.values.copy()


def forward_graph(model: Model, x: Tensor):
    """Differentiable forward pass on one (C, time, sub, ant) tensor.

    Returns (logits, mask) tensors; probabilities and the gated branch are
    built on top by the caller.
    """
    if x.values.ndim != 4:
        raise DimensionError(f"network input must be 4-D, got shape {x.shape}")
    if x.shape[0] != model.config.in_channels:
        raise DimensionError(
            f"input has {x.shape[0]} channels, model expects {model.config.in_channels}")
    taps = []
    h = x
    for blk in model.blocks:
        h = residual_block_forward(h, blk, kernel=model.kernel_dims)
        taps.append(ad.global_avg_pool(h))
        h = ad.temporal_subsample(h, 2)
    pooled = ad.global_avg_pool(h)
    alphas = [ad.linear(t, w, b)
              for t, w, b in zip(taps, model.tap_weights, model.tap_biases)]
    mask, _ = attention_forward(alphas, model.attention, model.config.score_fn)
    logits = ad.linear(pooled, model.clf_w, model.clf_b)
    return logits, mask


def _sample_to_array(sample, in_channels: int) -> np.ndarray:
    """Check one stored (C, sub, time, ant) sample and return it time-major."""
    if not isinstance(sample, np.ndarray):
        raise UsageError(f"a sample must be an ndarray, got {type(sample).__name__}")
    if sample.ndim != 4:
        raise DimensionError(f"sample must be 4-D (C, sub, time, ant), got shape {sample.shape}")
    if sample.shape[0] != in_channels:
        raise DimensionError(
            f"sample has {sample.shape[0]} channels, model expects {in_channels}")
    # stored volumes are (sub, time, ant); the network runs time-major
    return np.ascontiguousarray(sample.transpose(0, 2, 1, 3), dtype=np.float64)


def _forward_one(model: Model, sample):
    x = Tensor(_sample_to_array(sample, model.config.in_channels))
    logits_t, mask_t = forward_graph(model, x)
    probs_t = ad.softmax(logits_t)
    return logits_t.values.copy(), probs_t.values.copy(), mask_t.values.copy()


def forward(model: Model, inputs):
    """Inference pass returning (logits, probs, mask) numpy arrays.

    One (C, sub, time, ant) ndarray yields 1-D outputs; a list or tuple of
    them yields row-stacked 2-D outputs.
    """
    if not isinstance(inputs, (list, tuple)):
        return _forward_one(model, inputs)
    if not inputs:
        raise UsageError("empty input")
    rows = [_forward_one(model, sample) for sample in inputs]
    return tuple(np.stack(column) for column in zip(*rows))

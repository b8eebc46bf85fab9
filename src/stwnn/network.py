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
from dataclasses import dataclass, field
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
        if not 0 <= self.seed < 2**63:
            # WGT1 stores the seed as an i64
            raise ConfigError(f"seed must be in [0, 2**63 - 1], got {self.seed}")
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
class Dense:
    """A dense head, ``linear(x, weight, bias)``: a block's tap, the shared
    scoring head (weight (f,): score_i = score_fn(weight . feature_i + bias))
    or the gate from the attention mask to one factor per logit."""

    weight: Tensor
    bias: Tensor


@dataclass
class Model:
    """``table`` maps every parameter name to its tensor, in ``_parameter_shapes``
    order; the other fields are views of those very tensors."""

    config: NetworkConfig
    table: dict
    blocks: list = field(init=False)
    taps: list = field(init=False)
    attention: Dense = field(init=False)
    clf_w: Tensor = field(init=False)
    clf_b: Tensor = field(init=False)
    gate: Dense = field(init=False)

    def __post_init__(self):
        p, ids = self.table, range(len(self.config.block_channels))
        parts = ("conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias",
                 "proj.weight", "proj.bias")  # BlockParams field order; no proj -> None
        self.blocks = [BlockParams(*(p.get(f"block{i}.{x}") for x in parts)) for i in ids]
        self.taps = [Dense(p[f"tap{i}.weight"], p[f"tap{i}.bias"]) for i in ids]
        self.attention = Dense(p["attention.weight"], p["attention.bias"])
        self.clf_w, self.clf_b = p["classifier.weight"], p["classifier.bias"]
        self.gate = Dense(p["gate.weight"], p["gate.bias"])

    @property
    def kernel_dims(self) -> tuple:
        return _block_kernel(self.config)

    def parameters(self) -> dict:
        """A new name -> tensor dict over the table, which popping leaves whole."""
        return dict(self.table)


def _block_kernel(config: NetworkConfig) -> tuple:
    """The conv kernel of the variant. The planar one collapses the temporal
    extent and widens the spatial square to the odd side whose area is
    nearest the full kernel's volume, the smaller side on a tie."""
    if config.variant == "stwnn":
        return config.kernel
    volume = math.prod(config.kernel)
    lo = math.isqrt(volume)
    lo -= 1 - lo % 2  # the largest odd side at or below sqrt(volume)
    side = lo if volume - lo * lo <= (lo + 2) ** 2 - volume else lo + 2
    return (1, side, side)


def _parameter_shapes(config: NetworkConfig) -> dict:
    """Name -> shape of every parameter: the one place that names them and
    fixes their order, which ``build_model`` and ``Model.parameters`` follow."""
    kernel, f, n = _block_kernel(config), config.feature_dim, config.n_classes
    shapes, c_prev = {}, config.in_channels
    for i, c in enumerate(config.block_channels):
        shapes[f"block{i}.conv1.weight"] = (c, c_prev, *kernel)
        shapes[f"block{i}.conv1.bias"] = (c,)
        shapes[f"block{i}.conv2.weight"] = (c, c, *kernel)
        shapes[f"block{i}.conv2.bias"] = (c,)
        if c_prev != c:
            shapes[f"block{i}.proj.weight"] = (c, c_prev, 1, 1, 1)
            shapes[f"block{i}.proj.bias"] = (c,)
        c_prev = c
    for i, c in enumerate(config.block_channels):
        shapes[f"tap{i}.weight"], shapes[f"tap{i}.bias"] = (f, c), (f,)
    shapes.update({"attention.weight": (f,), "attention.bias": (1,),
                   "classifier.weight": (n, c_prev), "classifier.bias": (n,),
                   "gate.weight": (n, f), "gate.bias": (n,)})
    return shapes


def parameter_count(config: NetworkConfig) -> int:
    """Number of values ``build_model(config)`` allocates, from the config alone."""
    return sum(math.prod(shape) for shape in _parameter_shapes(config).values())


def build_model(config: NetworkConfig) -> Model:
    """Construct a model with seeded Glorot-uniform weights and zero biases.

    Weights are drawn in ``_parameter_shapes`` order. A weight of shape
    (out, in, *kernel) has fan-in in * kernel volume and fan-out out * kernel
    volume; the attention weight (f,) counts as (1, f). The gate bias starts
    at one so the mask-modulated branch initially reproduces the plain branch.
    """
    rng = np.random.default_rng(config.seed)
    p = {}
    for name, shape in _parameter_shapes(config).items():
        if name.endswith(".bias"):
            values = np.ones(shape) if name == "gate.bias" else np.zeros(shape)
        else:
            fan_out, fan_in = (1, shape[0]) if len(shape) == 1 else shape[:2]
            k_volume = math.prod(shape[2:])
            limit = math.sqrt(6.0 / (fan_in * k_volume + fan_out * k_volume))
            values = rng.uniform(-limit, limit, size=shape)
        p[name] = Tensor(values, requires_grad=True)
    return Model(config, p)


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


def attention_forward(features, params: Dense, score_fn: str = "tanh"):
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
    alphas = []
    h = x
    for blk, tap in zip(model.blocks, model.taps):
        h = residual_block_forward(h, blk, kernel=model.kernel_dims)
        alphas.append(ad.linear(ad.global_avg_pool(h), tap.weight, tap.bias))
        h = ad.temporal_subsample(h, 2)
    pooled = ad.global_avg_pool(h)
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


def forward(model: Model, sample) -> tuple:
    """Inference pass on one (C, sub, time, ant) ndarray, returning the 1-D
    (logits, probs, mask) arrays; ``training.predict`` maps it over samples.
    It records no graph (``autodiff.no_graph``)."""
    x = Tensor(_sample_to_array(sample, model.config.in_channels))
    with ad.no_graph():
        logits_t, mask_t = forward_graph(model, x)
        probs_t = ad.softmax(logits_t)
    return logits_t.values.copy(), probs_t.values.copy(), mask_t.values.copy()

"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps a C-contiguous numpy array plus an optional gradient buffer.
The graph is made of nodes, not values: an op result points to a ``_Node``
holding its parents and its backward closure, and a leaf (a parameter or an
input) is its own node. A node keeps no array, so an op result's values are
freed once the caller drops them, unless a backward closure saved them (a
conv saves its padded input, a relu its mask). ``backward`` walks the graph
once in reverse topological order and stores gradients on leaves only,
accumulating until reset to None. Inside ``no_graph()`` no graph is recorded,
so inference holds no intermediate longer than the op that reads it.

Everything runs in double precision. There is no broadcasting except the
bias term of ``linear``/``conv3d`` and the per-vector weights of
``weighted_sum``.

``conv3d`` pads its input once into a flat buffer and adds one GEMM per
kernel tap, each reading a copy-free shifted view of that buffer; no patch
matrix is built. Each tap after the first is one ``dgemm`` of the OpenBLAS
bundled in numpy's wheels, called with beta = 1, so it adds its product
straight into the output grid and no per-tap product is stored
(``_add_taps``; with any other BLAS numpy adds them). The graph keeps only
the padded buffer. The kernel gradient is one GEMM per tap against the same
views, and the input gradient is the same tap-GEMM correlation of the output
gradient with flipped kernels (the transposed-convolution identity). Strides
keep every s-th position of the stride-1 result. These GEMMs run on one BLAS
thread (``_one_blas_thread``).

OpenBLAS stops its helper threads before every ``fork``, in the parent and in
the child, and the next call that sets its thread count starts them again; a
restarted helper spins for about 0.1 s before it sleeps. So a process that
forks workers should hold the count at 1 across the fork (``training.train``
enters ``_one_blas_thread`` around its pool): a conv then sets no count in the
workers, and the pool restarts once, in the parent, when the caller's count
comes back.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os

import numpy as np

from .errors import DimensionError, UsageError


class _Node:
    """An op result's place in the graph: its parents (nodes of op results,
    leaf Tensors as themselves) and its backward closure; no values."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True     # only results with a grad-requiring parent get one

    def __init__(self, parents, backward_fn):
        self._parents = parents
        self._backward = backward_fn


class Tensor:
    """N-dimensional float64 array participating in the gradient graph."""

    __slots__ = ("values", "requires_grad", "grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None    # a _Node on a recorded op result; None on a leaf

    # the node's fields seen from its result, for code that walks or wraps the graph
    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


# False inside ``no_graph``: op results then record no graph at all
_RECORDING = True


@contextlib.contextmanager
def no_graph():
    """Run the block without recording the graph: op results keep no parents
    and no backward closure, so each intermediate is freed as soon as it is
    dropped. Values are the same as with recording on; for inference."""
    global _RECORDING
    saved, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = saved


def _result(values, parents, backward_fn):
    """Wrap an op result, recording the graph only when a parent needs grads."""
    out = Tensor(values)
    if _RECORDING and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p if p._node is None else p._node for p in parents),
                          backward_fn)
    return out


def _as_triple(v, name):
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise DimensionError(f"{name} must be an int or a triple, got {v!r}")
    return t


# ---------------------------------------------------------------------------
# elementwise arithmetic and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _result(a.values + b.values, (a, b), lambda g: (g, g))


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul_elementwise shapes differ: {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    return _result(av * bv, (a, b), lambda g: (g * bv, g * av))


def mul_const(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.values * c, (a,), lambda g: (g * c,))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    src_shape = a.shape
    return _result(a.values.reshape(shape), (a,), lambda g: (g.reshape(src_shape),))


def concat(tensors) -> Tensor:
    """Concatenate 1-D tensors into one vector."""
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat needs at least one tensor")
    for t in tensors:
        if t.values.ndim != 1:
            raise DimensionError(f"concat expects 1-D tensors, got shape {t.shape}")
    sizes = [t.size for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _result(np.concatenate([t.values for t in tensors]), tensors, backward)


def weighted_sum(weights: Tensor, vectors) -> Tensor:
    """sum_i weights[i] * vectors[i] for a 1-D weight tensor and equal-length 1-D vectors."""
    vectors = list(vectors)
    if not vectors:
        raise UsageError("weighted_sum needs at least one vector")
    if weights.values.ndim != 1 or weights.size != len(vectors):
        raise DimensionError(
            f"weighted_sum needs one weight per vector, got {weights.shape} for {len(vectors)}")
    for v in vectors:
        if v.values.ndim != 1 or v.size != vectors[0].size:
            raise DimensionError("weighted_sum vectors must be 1-D of equal length")
    wv = weights.values
    stacked = np.stack([v.values for v in vectors])

    def backward(g):
        return ((stacked * g).sum(axis=1),) + tuple(g * wv[i] for i in range(len(vectors)))

    return _result((wv[:, None] * stacked).sum(axis=0), [weights] + vectors, backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    """max(x, 0): -0.0 gives +0.0 and NaN stays NaN. The subgradient at exactly
    0 is 0, and at NaN it is 0 too."""
    mask = a.values > 0.0
    return _result(np.maximum(a.values, 0.0), (a,), lambda g: (g * mask,))


def tanh_act(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _result(out, (a,), lambda g: (g * (1.0 - out * out),))


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over a 1-D tensor."""
    if a.values.ndim != 1:
        raise DimensionError(f"softmax expects a 1-D tensor, got shape {a.shape}")
    shifted = a.values - np.max(a.values)
    e = np.exp(shifted)
    out = e / np.sum(e)

    def backward(g):
        return (out * (g - np.dot(g, out)),)

    return _result(out, (a,), backward)


def clamped_log(a: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)); gradient is zero where the clamp is active."""
    av = a.values
    out = np.log(np.maximum(av, floor))

    def backward(g):
        return (np.where(av > floor, g / np.maximum(av, floor), 0.0),)

    return _result(out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and layers
# ---------------------------------------------------------------------------

def scalar_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def backward(g):
        return (np.full(shape, g[0]),)

    return _result(np.array([np.sum(a.values)]), (a,), backward)


def global_avg_pool(a: Tensor) -> Tensor:
    """[C, D, H, W] -> per-channel spatial mean [C]."""
    if a.values.ndim != 4:
        raise DimensionError(f"global_avg_pool expects 4-D input, got shape {a.shape}")
    c, d, h, w = a.shape
    n = d * h * w

    def backward(g):
        return (np.broadcast_to(g.reshape(c, 1, 1, 1) / n, (c, d, h, w)).copy(),)

    return _result(a.values.reshape(c, n).mean(axis=1), (a,), backward)


def temporal_subsample(a: Tensor, stride: int) -> Tensor:
    """Keep every stride-th slice of the first spatial axis of [C, D, H, W]."""
    if a.values.ndim != 4:
        raise DimensionError(f"temporal_subsample expects 4-D input, got shape {a.shape}")
    stride = int(stride)
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    shape = a.shape

    def backward(g):
        ga = np.zeros(shape)
        ga[:, ::stride] = g
        return (ga,)

    return _result(a.values[:, ::stride].copy(), (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """[n] x [m, n] + [m] -> [m]."""
    if x.values.ndim != 1 or weight.values.ndim != 2 or bias.values.ndim != 1:
        raise DimensionError(
            f"linear expects vector/matrix/vector, got {x.shape}/{weight.shape}/{bias.shape}")
    m, n = weight.shape
    if x.size != n or bias.size != m:
        raise DimensionError(
            f"linear dims disagree: x {x.shape}, weight {weight.shape}, bias {bias.shape}")
    xv, wv = x.values, weight.values

    def backward(g):
        return wv.T @ g, np.outer(g, xv), g

    return _result(wv @ xv + bias.values, (x, weight, bias), backward)


def _openblas():
    """The OpenBLAS bundled in numpy's wheels, as ((get, set) of its thread
    count, its ILP64 ``cblas_dgemm``), or (None, None) where numpy links some
    other BLAS. numpy 2 wheels prefix every symbol with ``scipy_``."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in map(ctypes.CDLL, libs):
        for prefix in ("scipy_", ""):
            if not hasattr(lib, prefix + "openblas_get_num_threads64_"):
                continue
            get = getattr(lib, prefix + "openblas_get_num_threads64_")
            set_ = getattr(lib, prefix + "openblas_set_num_threads64_")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            dgemm = getattr(lib, prefix + "cblas_dgemm64_", None)
            if dgemm is not None:
                i64, ptr = ctypes.c_int64, ctypes.c_void_p
                dgemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [
                    ctypes.c_double, ptr, i64, ptr, i64, ctypes.c_double, ptr, i64]
                dgemm.restype = None
            return (get, set_), dgemm
    return None, None


_OPENBLAS_THREADS, _DGEMM = _openblas()
_ROW_MAJOR, _NO_TRANS = 101, 111     # CBLAS enum values


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block, then restore the thread count.

    A conv's tap GEMMs are small (M = C_out, K = C_in): a second OpenBLAS
    thread makes them under 10% faster on an idle 2-core host, but each call
    waits for it, so when another process holds that core a conv runs up to
    2.5x slower and its time follows the host's load.

    With the count already 1 it sets nothing: every set restarts the helper
    threads a ``fork`` stopped, so a forked worker that inherits a count of 1
    never starts them. The caller's count comes back on exit, which in a
    process that forked starts its helpers once."""
    get, set_ = _OPENBLAS_THREADS or (lambda: 1, lambda n: None)
    before = get()
    if before == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _add_taps(grid, taps, flat, offsets):
    """``grid += taps[t] @ flat[:, off:off + n]`` for every tap t >= 1, where
    off = offsets[t] and grid is [C_out, n].

    Through the bundled OpenBLAS each tap is one ``dgemm`` with beta = 1,
    which adds the product straight into ``grid``: no per-tap temporary and
    no second pass over it. The operands are checked before any pointer
    leaves Python, so a bad shape is a ``DimensionError``, never an
    out-of-bounds read."""
    c_out, n = grid.shape
    c = flat.shape[0]
    if not all(a.dtype == np.float64 and a.flags.c_contiguous for a in (grid, taps, flat)):
        raise DimensionError("tap GEMM operands must be C-contiguous float64")
    if taps.shape != (len(offsets), c_out, c) or min(offsets) < 0 \
            or max(offsets) + n > flat.shape[1]:
        raise DimensionError(
            f"tap GEMM operands disagree: taps {taps.shape}, buffer {flat.shape}, "
            f"grid {grid.shape}, offsets {min(offsets)}..{max(offsets)}")
    if _DGEMM is None:
        for tap, off in zip(taps[1:], offsets[1:]):
            grid += tap @ flat[:, off:off + n]
        return
    tap_ptr, flat_ptr, grid_ptr = taps.ctypes.data, flat.ctypes.data, grid.ctypes.data
    tap_bytes, ld = c_out * c * taps.itemsize, flat.shape[1]
    for t in range(1, len(offsets)):
        _DGEMM(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, c_out, n, c,
               1.0, tap_ptr + t * tap_bytes, c, flat_ptr + offsets[t] * flat.itemsize, ld,
               1.0, grid_ptr, n)


@_one_blas_thread()
def _tap_gemm(weights, values, pad):
    """Stride-1 correlation of [C, D, H, W] ``values``, zero-padded by ``pad``,
    with [C_out, C, kd, kh, kw] ``weights``, as one GEMM per kernel tap.

    The padded input is flattened once, with a zero tail, into ``flat``; tap
    (i, j, l) reads the copy-free view ``flat[:, off:off + n]`` at
    ``off = (i*Hp + j)*Wp + l``. The result fills a [C_out, Dp-kd+1, Hp, Wp]
    grid whose last kh-1 rows and kw-1 columns of each plane are junk.
    Returns the grid, ``flat`` and the tap offsets in kernel order."""
    c, d, h, w = values.shape
    c_out, _, kd, kh, kw = weights.shape
    pd, ph, pw = pad
    dp, hp, wp = d + 2 * pd, h + 2 * ph, w + 2 * pw
    flat = np.zeros((c, dp * hp * wp + (kh - 1) * wp + kw - 1))
    flat[:, :dp * hp * wp].reshape(c, dp, hp, wp)[:, pd:pd + d, ph:ph + h, pw:pw + w] = values
    n = (dp - kd + 1) * hp * wp
    offsets = [(i * hp + j) * wp + l for i in range(kd) for j in range(kh) for l in range(kw)]
    # tap-major [taps, C_out, C], so each tap is one contiguous GEMM operand
    taps = np.ascontiguousarray(weights.transpose(2, 3, 4, 0, 1).reshape(-1, c_out, c))
    grid = taps[0] @ flat[:, :n]
    if len(offsets) > 1:     # a 1x1x1 kernel has no tap to add
        _add_taps(grid, taps, flat, offsets)
    return grid.reshape(c_out, dp - kd + 1, hp, wp), flat, offsets


def conv3d(x: Tensor, kernels: Tensor, bias: Tensor, stride=1, padding=0) -> Tensor:
    """Cross-correlation of [C_in, D, H, W] with [C_out, C_in, kd, kh, kw] kernels."""
    if x.values.ndim != 4:
        raise DimensionError(f"conv3d input must be 4-D, got shape {x.shape}")
    if kernels.values.ndim != 5:
        raise DimensionError(f"conv3d kernels must be 5-D, got shape {kernels.shape}")
    stride = _as_triple(stride, "stride")
    padding = _as_triple(padding, "padding")
    if min(stride) < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if min(padding) < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")

    c_in, d, h, w = x.shape
    c_out, kc, kd, kh, kw = kernels.shape
    if kc != c_in:
        raise DimensionError(f"kernel expects {kc} input channels, input has {c_in}")
    if bias.values.ndim != 1 or bias.size != c_out:
        raise DimensionError(f"bias must have shape ({c_out},), got {bias.shape}")
    ks = (kd, kh, kw)
    for size, k, p in zip((d, h, w), ks, padding):
        if size + 2 * p < k:
            raise DimensionError(f"kernel dim {k} exceeds padded input dim {size + 2 * p}")

    kv = kernels.values
    grid, flat, offsets = _tap_gemm(kv, x.values, padding)
    grid_shape = grid.shape
    n = grid.size // c_out
    # stride-1 positions: the grid without its junk rows and columns
    valid = np.s_[:, :, :grid_shape[2] - kh + 1, :grid_shape[3] - kw + 1]
    strided = np.s_[:, ::stride[0], ::stride[1], ::stride[2]]
    out = grid[valid][strided] + bias.values[:, None, None, None]
    need_x, need_k, need_b = x.requires_grad, kernels.requires_grad, bias.requires_grad

    @_one_blas_thread()
    def backward(g):
        g_grid = np.zeros(grid_shape)
        g_grid[valid][strided] = g
        g_flat = g_grid.reshape(c_out, n)
        g_kernels = None
        if need_k:
            g_kernels = np.empty((c_out, c_in, len(offsets)))
            for t, off in enumerate(offsets):
                g_kernels[:, :, t] = g_flat @ flat[:, off:off + n].T
            g_kernels = g_kernels.reshape(kv.shape)
        g_bias = g.reshape(c_out, -1).sum(axis=1) if need_b else None
        g_x = None
        if need_x:
            flipped = kv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            g_pad = tuple(max(k - 1 - p, 0) for k, p in zip(ks, padding))
            g_x, _, _ = _tap_gemm(flipped, g_grid[valid], g_pad)
            # padding >= kernel: crop the p-k+1 extra positions on each side
            crop = [max(p - k + 1, 0) for k, p in zip(ks, padding)]
            g_x = g_x[:, crop[0]:crop[0] + d, crop[1]:crop[1] + h, crop[2]:crop[2] + w]
        return g_x, g_kernels, g_bias

    return _result(out, (x, kernels, bias), backward)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf (a parameter or input, not
    an op result) reachable from ``loss``; calls accumulate into existing grads.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")

    start = loss if loss._node is None else loss._node
    topo = []
    visited = set()
    stack = [(start, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    pending = {id(start): np.ones_like(loss.values)}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = np.asarray(pg, dtype=np.float64)


def grad_check(f, point: Tensor, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued ``f`` against central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |numeric|).
    ``f`` must be a pure function of its tensor argument.
    """
    x = Tensor(point.values.copy(), requires_grad=True)
    out = f(x)
    if out.size != 1:
        raise UsageError("grad_check expects a scalar-valued function")
    backward(out)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad

    flat = point.values.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += eps
        f_plus = float(f(Tensor(bumped.reshape(point.shape))).values.reshape(()))
        bumped[i] -= 2 * eps
        f_minus = float(f(Tensor(bumped.reshape(point.shape))).values.reshape(()))
        numeric = (f_plus - f_minus) / (2 * eps)
        err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst

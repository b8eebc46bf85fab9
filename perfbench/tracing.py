"""In-memory span tracing of the stwnn layers, installed from outside the package.

``install`` replaces public functions of each stwnn module with wrappers that
record one span per call: name, start, end and the index of the enclosing
span. Each name is patched where its caller looks it up, so calls made inside
the package are seen too (``training`` binds ``segment_volumes`` and
``stack_channels`` at import, so those are patched in ``training`` as well as
in ``volumes``). The backward closure of every ``conv3d`` result is wrapped
too, which gives each convolution its own backward span. ``switch`` turns
the wrappers on and off between benchmark items.

Spans stay in memory until ``write`` dumps them at the end of a run.
``per_layer_metrics`` turns them into the per-layer figures named in
``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from time import perf_counter

from stwnn import autodiff, cli, csi, dataio, network, training, volumes
from stwnn.errors import StwnnError

LAYERS = ("csi", "volumes", "dataio", "autodiff", "network", "training", "cli")
CONVS = tuple(f"b{i}.{c}" for i in range(3) for c in ("conv1", "conv2", "proj"))

# (owner, attribute, span name); a name appears once per place a caller
# looks it up.
_PATCHES = (
    (csi, "synth_stream", "csi.synth_stream"),
    (csi, "amplitude", "csi.amplitude"),
    (volumes, "stream_volumes", "volumes.stream_volumes"),
    (volumes, "segment_volumes", "volumes.segment_volumes"),
    (volumes, "stack_channels", "volumes.stack_channels"),
    (training, "segment_volumes", "volumes.segment_volumes"),
    (training, "stack_channels", "volumes.stack_channels"),
    (dataio, "save_stream", "dataio.save_stream"),
    (dataio, "load_stream", "dataio.load_stream"),
    (dataio, "save_volumes", "dataio.save_volumes"),
    (dataio, "load_volumes", "dataio.load_volumes"),
    (network, "forward", "network.forward"),
    (network, "forward_graph", "network.forward_graph"),
    (network, "attention_forward", "network.attention_forward"),
    (training, "sample_loss_graph", "training.sample_loss_graph"),
    (training, "evaluate", "training.evaluate"),
    (training, "shift_consistency", "training.shift_consistency"),
    (training, "train", "training.train"),
    (training.SgdMomentum, "step", "training.SgdMomentum.step"),
)


def _per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for conv in CONVS:
        base = f"autodiff.conv3d.{conv}"
        out += [(f"{base}.fwd_ms", "ms", "lower"),
                (f"{base}.bwd_ms", "ms", "lower"),
                (f"{base}.gflops", "GFLOP/s", "higher"),
                (f"{base}.mflop_computed", "MFLOP", "lower"),
                (f"{base}.im2col_mb_computed", "MB", "lower"),
                (f"{base}.col2im_mb_computed", "MB", "lower")]
    out += [("autodiff.backward.ms", "ms", "lower"),
            ("autodiff.backward.self_ms", "ms", "lower"),
            ("autodiff.graph_nodes", "count", "lower"),
            ("network.forward.ms", "ms", "lower"),
            ("network.forward_graph.ms", "ms", "lower"),
            ("network.attention_forward.ms", "ms", "lower")]
    out += [(f"network.residual_block_forward.b{i}.ms", "ms", "lower") for i in range(3)]
    out += [("training.sample_loss_graph.ms", "ms", "lower"),
            ("training.SgdMomentum.step.ms", "ms", "lower"),
            ("training.evaluate.ms", "ms", "lower"),
            ("training.shift_consistency.ms", "ms", "lower"),
            ("training.train.loss", "loss", "lower"),
            ("volumes.segment_volumes.ms", "ms", "lower"),
            ("volumes.stream_volumes.ms", "ms", "lower"),
            ("csi.synth_stream.ms", "ms", "lower"),
            ("csi.amplitude.ms", "ms", "lower")]
    out += [(f"dataio.{op}_{kind}.ms", "ms", "lower")
            for op in ("save", "load") for kind in ("stream", "volumes")]
    out += [("dataio.bytes_written", "bytes", "lower"),
            ("dataio.bytes_read", "bytes", "lower"),
            ("cli.synth.s", "s", "lower"),
            ("cli.segment.s", "s", "lower"),
            ("cli.self_s", "s", "lower")]
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS if layer != "cli"]
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out += [("trace.overhead_pct", "%", "lower"),
            ("trace.spans_per_item", "count", "lower")]
    return out


PER_LAYER = _per_layer_names()


class Tracer:
    """Span store for one traced run. ``spans`` rows are
    [name, start, end, parent index or -1]."""

    def __init__(self, model=None):
        self.spans = []
        self.counts = {}
        self.conv_shapes = {}
        self.graph_nodes = []
        self._open = []
        self._conv_names = {}
        self._block_names = {}
        if model is not None:
            for i, blk in enumerate(model.blocks):
                self._block_names[id(blk)] = f"b{i}"
                for conv, weight in (("conv1", blk.conv1_w), ("conv2", blk.conv2_w),
                                     ("proj", blk.proj_w)):
                    if weight is not None:
                        self._conv_names[id(weight)] = f"b{i}.{conv}"

    def begin(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def count(self, key, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name, fn, args, kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        except StwnnError:
            self.count(name.split(".", 1)[0] + ".errors")
            raise
        finally:
            self.end(index)

    def write(self, path) -> None:
        """Dump every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"counts": self.counts, "spans": self.spans}, f)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _graph_size(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer):
    """Patch the stwnn modules to record spans into ``tracer``; returns the
    function that restores the originals."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for module, attr, name in _PATCHES:
        patch(module, attr, _wrap(tracer, name, getattr(module, attr)))

    orig_conv3d = autodiff.conv3d

    def conv3d(x, kernels, bias, stride=1, padding=0):
        conv = tracer._conv_names.get(id(kernels), "other")
        name = f"autodiff.conv3d.{conv}"
        out = tracer.call(f"{name}.fwd", orig_conv3d, (x, kernels, bias, stride, padding), {})
        tracer.conv_shapes.setdefault(conv, (x.shape, kernels.shape, out.shape,
                                             x.requires_grad))
        if out._backward is not None:
            out._backward = _wrap(tracer, f"{name}.bwd", out._backward)
        return out

    patch(autodiff, "conv3d", conv3d)

    orig_backward = autodiff.backward

    def backward(loss):
        tracer.graph_nodes.append(_graph_size(loss))
        return tracer.call("autodiff.backward", orig_backward, (loss,), {})

    patch(autodiff, "backward", backward)

    orig_block = network.residual_block_forward

    def residual_block_forward(x, params, kernel=(3, 3, 3)):
        block = tracer._block_names.get(id(params), "other")
        return tracer.call(f"network.residual_block_forward.{block}", orig_block,
                           (x, params, kernel), {})

    patch(network, "residual_block_forward", residual_block_forward)

    for attr, kind in (("save_stream", "written"), ("save_volumes", "written"),
                       ("load_stream", "read"), ("load_volumes", "read")):
        inner = getattr(dataio, attr)

        def sized(path, *args, _inner=inner, _kind=kind, **kwargs):
            if _kind == "read":
                tracer.count("dataio.bytes_read", os.path.getsize(path))
            result = _inner(path, *args, **kwargs)
            if _kind == "written":
                tracer.count("dataio.bytes_written", os.path.getsize(path))
            return result

        patch(dataio, attr, sized)

    orig_main = cli.main

    def main(argv=None):
        command = argv[0] if argv else "none"
        code = tracer.call(f"cli.{command}", orig_main, (argv,), {})
        if code != 0:
            tracer.count("cli.errors")
        return code

    patch(cli, "main", main)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def switch(tracer: Tracer):
    """A callable that installs (True) or removes (False) the tracing wrappers."""
    state = {"uninstall": None}

    def set_tracing(on: bool) -> None:
        if on and state["uninstall"] is None:
            state["uninstall"] = install(tracer)
        elif not on and state["uninstall"] is not None:
            state["uninstall"]()
            state["uninstall"] = None

    return set_tracing


# ---------------------------------------------------------------------------
# turning spans into per-layer metrics
# ---------------------------------------------------------------------------

def conv_counts(shapes) -> dict:
    """Work per call of one convolution, computed from its shapes, not measured.

    With K = C_in*kd*kh*kw gathered rows and N output voxels:
    forward is one [C_out, K] x [K, N] GEMM (2*C_out*K*N flop); backward is the
    kernel-gradient GEMM of the same size plus, when the input needs a
    gradient, a second one for the column gradient. im2col writes the K x N
    column matrix and reads as many input elements (2*8*K*N bytes); col2im
    reads the K x N column gradient and read-modify-writes the padded input
    gradient (3*8*K*N bytes), and is skipped when the input needs no gradient.
    """
    (c_in, _, _, _), (c_out, _, kd, kh, kw), (_, od, oh, ow), input_grad = shapes
    k = c_in * kd * kh * kw
    n = od * oh * ow
    gemm = 2.0 * c_out * k * n
    return {"fwd_flop": gemm, "bwd_flop": gemm * (2 if input_grad else 1),
            "im2col_bytes": 16.0 * k * n, "col2im_bytes": 24.0 * k * n if input_grad else 0.0}


def self_times(spans) -> list:
    """Per span: its duration minus the part covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def per_layer_metrics(tracer: Tracer, items: int, overhead_pct: float, train_loss) -> dict:
    """Every metric of ``PER_LAYER`` from one traced run with ``items`` traced
    items of every kind (on infer, forward and shift_consistency calls alike).

    ``<layer>.self_ms``, ``cli.self_s``, the dataio byte counts and
    ``trace.spans_per_item`` are totals over the traced items divided by
    ``items``, i.e. per traced item; the ``.ms``/``.s`` figures of single
    functions are medians per call. A layer the workload never calls reads
    0, as does ``train_loss`` (None) on a workload that does not train."""
    spans = tracer.spans
    selfs = self_times(spans)
    durations, self_by_name, self_by_layer = {}, {}, {}
    for (name, start, end, _), own in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_by_name.setdefault(name, []).append(own)
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own

    def median_ms(name):
        return 1e3 * statistics.median(durations[name]) if name in durations else 0.0

    per_item = 1.0 / max(items, 1)
    m = {}
    for conv in CONVS:
        base = f"autodiff.conv3d.{conv}"
        m[f"{base}.fwd_ms"] = median_ms(f"{base}.fwd")
        m[f"{base}.bwd_ms"] = median_ms(f"{base}.bwd")
        counts = conv_counts(tracer.conv_shapes[conv]) if conv in tracer.conv_shapes else None
        fwd, bwd = durations.get(f"{base}.fwd", []), durations.get(f"{base}.bwd", [])
        busy = sum(fwd) + sum(bwd)
        if counts and busy > 0:
            flop = counts["fwd_flop"] * len(fwd) + counts["bwd_flop"] * len(bwd)
            m[f"{base}.gflops"] = flop / busy / 1e9
        else:
            m[f"{base}.gflops"] = 0.0
        m[f"{base}.mflop_computed"] = counts["fwd_flop"] / 1e6 if counts else 0.0
        m[f"{base}.im2col_mb_computed"] = counts["im2col_bytes"] / 1e6 if counts else 0.0
        m[f"{base}.col2im_mb_computed"] = counts["col2im_bytes"] / 1e6 if counts else 0.0

    for name in ("autodiff.backward", "network.forward", "network.forward_graph",
                 "network.attention_forward", "training.sample_loss_graph",
                 "training.SgdMomentum.step", "training.evaluate",
                 "training.shift_consistency", "volumes.segment_volumes",
                 "volumes.stream_volumes", "csi.synth_stream", "csi.amplitude",
                 "dataio.save_stream", "dataio.load_stream", "dataio.save_volumes",
                 "dataio.load_volumes"):
        m[f"{name}.ms"] = median_ms(name)
    for i in range(3):
        name = f"network.residual_block_forward.b{i}"
        m[f"{name}.ms"] = median_ms(name)
    backward_self = self_by_name.get("autodiff.backward")
    m["autodiff.backward.self_ms"] = 1e3 * statistics.median(backward_self) if backward_self else 0.0
    m["autodiff.graph_nodes"] = statistics.median(tracer.graph_nodes) if tracer.graph_nodes else 0
    m["training.train.loss"] = train_loss if train_loss is not None else 0.0

    m["dataio.bytes_written"] = tracer.counts.get("dataio.bytes_written", 0) * per_item
    m["dataio.bytes_read"] = tracer.counts.get("dataio.bytes_read", 0) * per_item
    m["cli.synth.s"] = median_ms("cli.synth") / 1e3
    m["cli.segment.s"] = median_ms("cli.segment") / 1e3
    m["cli.self_s"] = self_by_layer.get("cli", 0.0) * per_item
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_ms"] = 1e3 * self_by_layer.get(layer, 0.0) * per_item
        m[f"{layer}.errors"] = tracer.counts.get(f"{layer}.errors", 0)
    m["trace.overhead_pct"] = overhead_pct
    m["trace.spans_per_item"] = len(spans) * per_item
    return {name: m[name] for name, _, _ in PER_LAYER}

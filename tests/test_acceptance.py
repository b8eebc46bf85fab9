"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavy classification experiments (criteria 6 to 8) share one trained model
via module-scoped fixtures.
"""

import itertools
import time

import numpy as np
import pytest

from stwnn import autodiff as ad
from stwnn import csi, dataio, network as net, training as tr, volumes as vol
from stwnn.autodiff import Tensor
from stwnn.errors import CorruptionError, FormatError, StwnnError


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _away_from(x, margin):
    return np.where(np.abs(x) < margin, np.sign(x) * margin + x, x)


def _op_cases(rng):
    """(name, f, point factory) for every differentiable operation."""
    probe5 = Tensor(rng.standard_normal(5))
    probe2 = Tensor(rng.standard_normal(2))
    probe3 = Tensor(rng.standard_normal(3))
    w = Tensor(rng.standard_normal((3, 5)))
    b = Tensor(rng.standard_normal(3))
    xv = Tensor(rng.standard_normal(5))
    kconv = Tensor(rng.standard_normal((2, 2, 3, 3, 3)))
    bconv = Tensor(rng.standard_normal(2))
    xconv = Tensor(rng.standard_normal((2, 4, 4, 4)))
    probe_conv = Tensor(rng.standard_normal((2, 2, 2, 2)))
    other = Tensor(rng.standard_normal(5))
    mix_w = Tensor(np.array([1.3, -0.6]))

    def dot(t, probe):
        return ad.scalar_sum(ad.mul_elementwise(t, probe))

    return [
        ("add", lambda x: dot(ad.add(x, other), probe5),
         lambda: rng.standard_normal(5)),
        ("mul_elementwise", lambda x: dot(ad.mul_elementwise(x, other), probe5),
         lambda: rng.standard_normal(5)),
        ("mul_const", lambda x: dot(ad.mul_const(x, -1.7), probe5),
         lambda: rng.standard_normal(5)),
        ("weighted_sum_weights", lambda a: dot(ad.weighted_sum(a, [other, xv]), probe5),
         lambda: rng.standard_normal(2)),
        ("weighted_sum_vector", lambda x: dot(ad.weighted_sum(mix_w, [other, x]), probe5),
         lambda: rng.standard_normal(5)),
        ("concat", lambda x: dot(ad.concat([x, other]),
                                 Tensor(np.arange(10.0) - 4.5)),
         lambda: rng.standard_normal(5)),
        ("reshape", lambda x: dot(ad.reshape(x, (5, 2)),
                                  Tensor(np.arange(10.0).reshape(5, 2))),
         lambda: rng.standard_normal(10)),
        ("relu", lambda x: dot(ad.relu(x), probe5),
         lambda: _away_from(rng.standard_normal(5), 0.2)),
        ("tanh_act", lambda x: dot(ad.tanh_act(x), probe5),
         lambda: rng.standard_normal(5)),
        ("softmax", lambda x: dot(ad.softmax(x), probe5),
         lambda: rng.standard_normal(5)),
        ("clamped_log", lambda x: dot(ad.clamped_log(x), probe5),
         lambda: np.abs(rng.standard_normal(5)) + 0.3),
        ("scalar_sum", lambda x: ad.scalar_sum(x), lambda: rng.standard_normal((2, 3))),
        ("global_avg_pool", lambda x: dot(ad.global_avg_pool(x), probe2),
         lambda: rng.standard_normal((2, 3, 2, 2))),
        ("temporal_subsample", lambda x: ad.scalar_sum(ad.temporal_subsample(x, 2)),
         lambda: rng.standard_normal((2, 5, 2, 2))),
        ("linear_x", lambda x: dot(ad.linear(x, w, b), probe3),
         lambda: rng.standard_normal(5)),
        ("linear_w", lambda wv: dot(ad.linear(xv, wv, b), probe3),
         lambda: rng.standard_normal((3, 5))),
        ("linear_b", lambda bv: dot(ad.linear(xv, w, bv), probe3),
         lambda: rng.standard_normal(3)),
        ("conv3d_x", lambda x: dot(ad.conv3d(x, kconv, bconv, stride=2, padding=1),
                                   probe_conv),
         lambda: rng.standard_normal((2, 4, 4, 4))),
        ("conv3d_k", lambda k: dot(ad.conv3d(xconv, k, bconv, stride=2, padding=1),
                                   probe_conv),
         lambda: rng.standard_normal((2, 2, 3, 3, 3))),
        ("conv3d_b", lambda bv: dot(ad.conv3d(xconv, kconv, bv, stride=2, padding=1),
                                    probe_conv),
         lambda: rng.standard_normal(2)),
    ]


def test_c01_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_by_op = {}
    for name, f, point_factory in _op_cases(rng):
        worst = max(ad.grad_check(f, Tensor(point_factory()), eps=1e-5)
                    for _ in range(10))
        worst_by_op[name] = worst
    op_worst = max(worst_by_op.values())

    # end-to-end combined loss on a tiny model: every parameter coordinate
    model = net.build_model(net.NetworkConfig(
        n_classes=2, in_channels=2, block_channels=(2,), feature_dim=3, seed=5))
    x = np.random.default_rng(29).standard_normal((2, 6, 4, 9))
    params = model.parameters()
    loss = tr.sample_loss_graph(model, x, 1, 0.5)
    ad.backward(loss)
    eps = 1e-5
    e2e_worst = 0.0
    for name, p in params.items():
        analytic = np.zeros_like(p.values) if p.grad is None else p.grad
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = tr.sample_loss_graph(model, x, 1, 0.5).values[0]
            flat[i] = orig - eps
            down = tr.sample_loss_graph(model, x, 1, 0.5).values[0]
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            e2e_worst = max(e2e_worst, err)
    elapsed = time.time() - start
    ok = op_worst < 1e-4 and e2e_worst < 1e-3 and elapsed < 120
    _report("C1 gradient suite", ok,
            f"ops max rel err {op_worst:.2e} (<1e-4), end-to-end {e2e_worst:.2e} "
            f"(<1e-3), {elapsed:.0f}s (<120s)")


# ---------------------------------------------------------------------------
# criterion 2: segmentation oracle
# ---------------------------------------------------------------------------

def test_c02_segmentation_matches_brute_force():
    mismatches = 0
    checked = 0
    for n_packets in range(1, 65):
        signal = np.arange(n_packets, dtype=float).reshape(1, n_packets, 1, 1)
        for window in range(1, n_packets + 1):
            for overlap in range(0, window):
                stride = window - overlap
                expected_starts = list(range(0, n_packets - window + 1, stride))
                cfg = vol.SegmentationConfig(window=window, overlap=overlap, scales=(1,))
                segments = vol.segment_stream(signal, cfg)
                got_starts = [int(seg[0, 0, 0, 0]) for seg in segments]
                lengths_ok = all(seg.shape[1] == window for seg in segments)
                contiguous_ok = all(
                    np.array_equal(seg[0, :, 0, 0], np.arange(s, s + window))
                    for s, seg in zip(got_starts, segments))
                if got_starts != expected_starts or not lengths_ok or not contiguous_ok:
                    mismatches += 1
                checked += 1
    _report("C2 segmentation oracle", mismatches == 0,
            f"{checked} (packets, window, overlap) combinations, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# criterion 3: convolution oracle
# ---------------------------------------------------------------------------

def _naive_conv3d(xv, kv, bv, stride, pad):
    c_in, d, h, w = xv.shape
    c_out, _, kd, kh, kw = kv.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    xp = np.pad(xv, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, od, oh, ow))
    for co in range(c_out):
        for i in range(od):
            for j in range(oh):
                for l in range(ow):
                    acc = bv[co]
                    for a in range(kd):
                        for b in range(kh):
                            for c in range(kw):
                                for ci in range(c_in):
                                    acc += (kv[co, ci, a, b, c]
                                            * xp[ci, i * sd + a, j * sh + b, l * sw + c])
                    out[co, i, j, l] = acc
    return out


def test_c03_convolution_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    for (d, h, w) in itertools.product((1, 2, 4, 6), repeat=3):
        for (kd, kh, kw) in itertools.product((1, 2, 3), repeat=3):
            for s in (1, 2):
                for p in (0, 1):
                    if kd > d + 2 * p or kh > h + 2 * p or kw > w + 2 * p:
                        continue
                    xv = rng.standard_normal((2, d, h, w))
                    kv = rng.standard_normal((2, 2, kd, kh, kw))
                    bv = rng.standard_normal(2)
                    out = ad.conv3d(Tensor(xv), Tensor(kv), Tensor(bv),
                                    stride=s, padding=p)
                    ref = _naive_conv3d(xv, kv, bv, (s, s, s), (p, p, p))
                    worst = max(worst, float(np.abs(out.values - ref).max()))
                    checked += 1
    _report("C3 convolution oracle", worst < 1e-10,
            f"{checked} shape/stride/padding combinations, max abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: attention invariants
# ---------------------------------------------------------------------------

def test_c04_attention_invariants():
    rng = np.random.default_rng(104)
    sum_worst = hull_worst = shift_worst = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 9))
        score_fn = ("tanh", "relu", "linear")[case % 3]
        feats = [Tensor(rng.standard_normal(dim) * 3.0) for _ in range(n)]
        params = net.Dense(weight=Tensor(rng.standard_normal(dim)),
                           bias=Tensor(rng.standard_normal(1)))
        mask, weights = net.attention_forward(feats, params, score_fn)

        sum_worst = max(sum_worst, abs(float(weights.sum()) - 1.0))
        stacked = np.stack([f.values for f in feats])
        hull_worst = max(hull_worst,
                         float(np.max(stacked.min(axis=0) - mask.values, initial=0.0)),
                         float(np.max(mask.values - stacked.max(axis=0), initial=0.0)))

        # adding a constant to every score must not change the weights
        scores = np.array([
            float(params.weight.values @ f.values + params.bias.values[0])
            for f in feats])
        if score_fn == "tanh":
            scores = np.tanh(scores)
        elif score_fn == "relu":
            scores = np.maximum(scores, 0.0)
        shift = float(rng.uniform(-20, 20))
        w_base = ad.softmax(Tensor(scores)).values
        w_shifted = ad.softmax(Tensor(scores + shift)).values
        shift_worst = max(shift_worst, float(np.abs(w_base - w_shifted).max()))
        np.testing.assert_allclose(w_base, weights, atol=1e-12)

        if score_fn == "linear":
            shifted_params = net.Dense(
                weight=params.weight, bias=Tensor(params.bias.values + shift))
            _, w_api = net.attention_forward(feats, shifted_params, "linear")
            shift_worst = max(shift_worst, float(np.abs(w_api - weights).max()))
    ok = sum_worst < 1e-9 and hull_worst <= 1e-9 and shift_worst < 1e-12
    _report("C4 attention invariants", ok,
            f"1000 cases: sum dev {sum_worst:.1e} (<1e-9), hull dev {hull_worst:.1e}, "
            f"shift dev {shift_worst:.1e} (<1e-12)")


# ---------------------------------------------------------------------------
# criterion 5: loss boundary and linearity
# ---------------------------------------------------------------------------

def test_c05_loss_boundary():
    rng = np.random.default_rng(105)
    boundary_worst = linear_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        g = tr.one_hot(int(rng.integers(n)), n)

        def loss(mix):
            return float(tr.combined_loss(Tensor(g), Tensor(p), Tensor(q), mix).values[0])

        plain_ce = float(-np.sum(g * np.log(np.maximum(p, 1e-12))))
        boundary_worst = max(boundary_worst, abs(loss(0.0) - plain_ce))
        at0 = loss(0.0)
        at1 = loss(1.0)
        lam = float(rng.uniform())
        linear_worst = max(linear_worst, abs(loss(lam) - (lam * at1 + (1 - lam) * at0)))
    ok = boundary_worst < 1e-12 and linear_worst < 1e-12
    _report("C5 loss boundary", ok,
            f"mix-0 dev {boundary_worst:.1e} (<1e-12), linearity dev "
            f"{linear_worst:.1e} (<1e-12)")


# ---------------------------------------------------------------------------
# criteria 6 and 8: synthetic classification and shift consistency
# ---------------------------------------------------------------------------

SEG_CFG = vol.SegmentationConfig(window=32, overlap=15, scales=(1, 2, 4),
                                 target_shape=(30, 32, 9))


def _doppler_streams(n_per_class, seed_base):
    """(stream, class) pairs."""
    streams = []
    for c in range(3):
        for k in range(n_per_class):
            spec = csi.doppler_activity_spec(
                c, n_ant=9, duration_s=1.0, noise_std=0.1,
                doppler_base_hz=4.0, doppler_step_hz=8.0,
                seed=seed_base + 1000 * c + k)
            streams.append((csi.synth_stream(spec, 3, 3, 30, 100.0), c))
    return streams


def _streams_to_samples(streams):
    data = []
    for stream, label in streams:
        signal = csi.amplitude(stream)
        for group in vol.group_by_segment(
                vol.stream_volumes(signal, SEG_CFG, label=label)):
            data.append((vol.stack_channels(group), label))
    return data


@pytest.fixture(scope="module")
def doppler_experiment():
    start = time.time()
    train_set = _streams_to_samples(_doppler_streams(30, 0))    # 150 per class
    val_set = _streams_to_samples(_doppler_streams(3, 500))
    test_streams = _doppler_streams(10, 900)
    test_set = _streams_to_samples(test_streams)                # 50 per class
    assert len(train_set) == 450 and len(test_set) == 150

    model = net.build_model(net.NetworkConfig(n_classes=3, in_channels=3, seed=7))
    cfg = tr.TrainConfig(epochs=8, batch_size=16, mix=0.5, lr=0.02, momentum=0.9, seed=0)
    model, history = tr.train(model, train_set, val_set, cfg)
    metrics = tr.evaluate(model, test_set)
    return dict(model=model, metrics=metrics, history=history, epochs=cfg.epochs,
                test_streams=[stream for stream, _ in test_streams],
                elapsed=time.time() - start)


def test_c06_synthetic_classification(doppler_experiment):
    exp = doppler_experiment
    oa = exp["metrics"].overall_accuracy
    ok = oa >= 0.90 and exp["epochs"] <= 30 and exp["elapsed"] <= 900
    _report("C6 synthetic classification", ok,
            f"test OA {oa:.3f} (>=0.90), {exp['epochs']} epochs (<=30), "
            f"{exp['elapsed']:.0f}s (<=900s)")


def test_c08_shift_consistency(doppler_experiment):
    exp = doppler_experiment
    agreements = [tr.shift_consistency(exp["model"], stream, SEG_CFG, max_shift=2)
                  for stream in exp["test_streams"]]
    mean_agreement = float(np.mean(agreements))
    _report("C8 shift consistency", mean_agreement >= 0.90,
            f"mean agreement {mean_agreement:.3f} (>=0.90) over "
            f"{len(agreements)} streams, shifts -2..+2")


# ---------------------------------------------------------------------------
# criterion 7: temporal-order sensitivity
# ---------------------------------------------------------------------------

def _order_half(doppler_hz, seed):
    spec = csi.ActivitySpec(
        duration_s=0.16, noise_std=0.05, seed=seed,
        motion_components=(csi.MotionComponent(
            doppler_hz=doppler_hz, delay_weight=1.0,
            antenna_pattern=tuple(np.random.default_rng(seed).uniform(0.5, 1.5, 9))),))
    return csi.amplitude(csi.synth_stream(spec, 3, 3, 30, 100.0))


def _order_sample(class_id, seed):
    slow = _order_half(10.0, seed * 2 + 1)
    fast = _order_half(25.0, seed * 2 + 2)
    halves = [slow, fast] if class_id == 0 else [fast, slow]
    signal = np.concatenate(halves, axis=1)  # 32 packets, one window
    (segment,) = vol.segment_stream(signal, SEG_CFG)
    return vol.stack_channels(vol.segment_volumes(segment, SEG_CFG))


def _order_dataset(n_per_class, seed_base):
    return [(_order_sample(c, seed_base + 1000 * c + k), c)
            for c in range(2) for k in range(n_per_class)]


def test_c07_temporal_order_sensitivity():
    train_set = _order_dataset(60, 0)
    val_set = _order_dataset(10, 5000)
    test_set = _order_dataset(50, 9000)

    model = net.build_model(net.NetworkConfig(n_classes=2, in_channels=3, seed=7))
    cfg = tr.TrainConfig(epochs=10, batch_size=16, mix=0.5, lr=0.02, momentum=0.9, seed=0)
    model, _ = tr.train(model, train_set, val_set, cfg)

    ordered_oa = tr.evaluate(model, test_set).overall_accuracy
    rng = np.random.default_rng(123)
    shuffled = [(x[:, :, rng.permutation(x.shape[2]), :], y) for x, y in test_set]
    shuffled_oa = tr.evaluate(model, shuffled).overall_accuracy
    ok = ordered_oa >= 0.85 and shuffled_oa <= 0.65
    _report("C7 temporal-order sensitivity", ok,
            f"ordered OA {ordered_oa:.3f} (>=0.85), time-shuffled OA "
            f"{shuffled_oa:.3f} (<=0.65)")


# ---------------------------------------------------------------------------
# criterion 9: persistence
# ---------------------------------------------------------------------------

def _random_stream(rng):
    n_tx, n_rx, n_sub = (int(v) for v in rng.integers(1, 4, size=3))
    n_frames = int(rng.integers(1, 7))
    h = rng.standard_normal((n_frames, n_tx, n_rx, n_sub)) \
        + 1j * rng.standard_normal((n_frames, n_tx, n_rx, n_sub))
    return csi.CsiStream(h=h, sample_rate_hz=float(rng.uniform(10, 1000)))


def test_c09_persistence(tmp_path):
    rng = np.random.default_rng(109)
    failures = []

    for i in range(34):  # streams
        stream = _random_stream(rng)
        path = tmp_path / f"s{i}.csi1"
        dataio.save_stream(path, stream)
        loaded = dataio.load_stream(path)
        if not (np.array_equal(loaded.h, stream.h)
                and loaded.sample_rate_hz == stream.sample_rate_hz):
            failures.append(f"stream {i}")

    grid_rng = np.random.default_rng(309)  # apart from rng, as seg_rng below is
    for i in range(33):  # volume sets: VOL1 holds a K x C grid of one shape and one label
        scales = sorted(int(s) for s in grid_rng.choice(
            np.arange(1, 9), size=int(grid_rng.integers(1, 4)), replace=False))
        shape = tuple(int(v) for v in grid_rng.integers(1, 6, size=3))
        label = None if grid_rng.uniform() < 0.3 else int(grid_rng.integers(0, 5))
        vols = [vol.Volume3D(data=grid_rng.standard_normal(shape), scale=scale,
                             source_segment=k, label=label)
                for k in range(int(grid_rng.integers(1, 5))) for scale in scales]
        path = tmp_path / f"v{i}.vol1"
        dataio.save_volumes(path, vols)
        loaded = dataio.load_volumes(path)
        same = len(loaded) == len(vols) and all(
            np.array_equal(a.data, b.data)
            and (a.scale, a.source_segment, a.label) == (b.scale, b.source_segment, b.label)
            for a, b in zip(loaded, vols))
        if not same:
            failures.append(f"volumes {i}")

    seg_rng = np.random.default_rng(209)  # apart from rng: the configs do not depend on it
    for i in range(33):  # weight archives
        cfg = net.NetworkConfig(
            n_classes=int(rng.integers(2, 5)), in_channels=int(rng.integers(1, 4)),
            block_channels=tuple(int(v) for v in rng.integers(1, 5,
                                                              size=int(rng.integers(1, 4)))),
            feature_dim=int(rng.integers(1, 6)), seed=int(rng.integers(1000)))
        model = net.build_model(cfg)
        for p in model.parameters().values():
            p.values = p.values + 1.0  # away from the seeded init, so loading must restore
        window = int(seg_rng.integers(3, 64))
        seg = vol.SegmentationConfig(
            window=window, overlap=int(seg_rng.integers(0, window)),
            scales=tuple(sorted(int(s) for s in seg_rng.choice(
                np.arange(1, window + 1), size=cfg.in_channels, replace=False))),
            target_shape=tuple(int(v) for v in seg_rng.integers(1, 50, size=3)))
        path = tmp_path / f"m{i}.wgt1"
        dataio.save_weights(path, model, seg)
        loaded, loaded_seg = dataio.load_weights(path)
        same = loaded_seg == seg and loaded.config == cfg and all(
            np.array_equal(a.values, b.values)
            for a, b in zip(model.parameters().values(), loaded.parameters().values()))
        if not same:
            failures.append(f"weights {i}")

    # adversarial truncation must always raise a typed error
    stream_path = tmp_path / "s0.csi1"
    vol_path = tmp_path / "v1.vol1"
    weight_path = tmp_path / "m0.wgt1"
    truncation_checks = 0
    for source, loader in ((stream_path, dataio.load_stream),
                           (vol_path, dataio.load_volumes),
                           (weight_path, dataio.load_weights)):
        blob = source.read_bytes()
        cut_points = sorted(set(list(range(0, min(len(blob), 40))) + [
            len(blob) // 3, len(blob) // 2, len(blob) - 1]))
        for cut in cut_points:
            target = tmp_path / "cut.bin"
            target.write_bytes(blob[:cut])
            try:
                loader(target)
                failures.append(f"truncation {source.name}@{cut} not detected")
            except (FormatError, CorruptionError):
                truncation_checks += 1
            except StwnnError as exc:  # any typed error is acceptable, crash is not
                truncation_checks += 1

    # corrupted magic and overstated counts
    for path, loader in ((stream_path, dataio.load_stream), (vol_path, dataio.load_volumes)):
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"ZZZZ"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        try:
            loader(bad)
            failures.append(f"bad magic {path.name} not detected")
        except FormatError:
            pass

    _report("C9 persistence", not failures,
            f"100 round-trips bit-exact, {truncation_checks} truncations typed; "
            + ("; ".join(failures) if failures else "no failures"))


# ---------------------------------------------------------------------------
# criterion 10: pipeline determinism
# ---------------------------------------------------------------------------

def _run_pipeline(root):
    from stwnn import cli

    data = root / "data"
    vols = root / "vols"
    weights = root / "model.wgt1"
    metrics = root / "metrics.tsv"
    report = root / "report.txt"
    assert cli.main(["synth", "--out", str(data), "--classes", "2", "--per-class", "2",
                     "--val-per-class", "1", "--test-per-class", "1",
                     "--duration", "0.8", "--seed", "11"]) == 0
    assert cli.main(["segment", "--manifest", str(data / "manifest.tsv"),
                     "--out", str(vols), "--window", "32", "--overlap", "8",
                     "--scales", "1,2", "--target", "12,16,9"]) == 0
    assert cli.main(["train", "--manifest", str(vols / "manifest.tsv"),
                     "--out", str(weights), "--epochs", "2", "--batch-size", "4",
                     "--lr", "0.01", "--blocks", "2,3", "--feature-dim", "4",
                     "--seed", "3"]) == 0
    assert cli.main(["eval", "--manifest", str(vols / "manifest.tsv"),
                     "--weights", str(weights), "--report", str(report),
                     "--metrics", str(metrics)]) == 0
    return dict(weights=weights.read_bytes(),
                history=weights.with_suffix(".history.tsv").read_bytes(),
                metrics=metrics.read_bytes(),
                report=report.read_bytes())


def test_c10_pipeline_determinism(tmp_path):
    run1 = _run_pipeline(tmp_path / "run1")
    run2 = _run_pipeline(tmp_path / "run2")
    diffs = [name for name in run1 if run1[name] != run2[name]]
    _report("C10 pipeline determinism", not diffs,
            "synth/segment/train/eval outputs byte-identical across two runs"
            + (f"; differing: {diffs}" if diffs else ""))

"""Loss, optimizer, training loop, metrics, and the shift probe."""

import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest

from stwnn import autodiff as ad, cli, csi, network as net, training as tr, volumes as vol
from stwnn.autodiff import Tensor
from stwnn.errors import (ConfigError, DimensionError, StwnnError, UsageError,
                          ValidationError)

TINY = dict(n_classes=2, in_channels=2, block_channels=(2,), feature_dim=3, seed=5)


def tiny_model(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return net.build_model(net.NetworkConfig(**kwargs))


def loss(g, p, q, mix):
    """The graph ``combined_loss`` builds, on numpy rows, as a float."""
    return tr.combined_loss(Tensor(g), Tensor(p), Tensor(q), mix).values[0]


def gated(logits, mask, w, b):
    return tr.masked_probs(Tensor(logits), Tensor(mask), Tensor(w), Tensor(b)).values


class TestCombinedLoss:
    def test_mix_zero_is_plain_cross_entropy(self):
        g = tr.one_hot(1, 2)
        value = loss(g, np.array([0.5, 0.5]), np.array([0.9, 0.1]), mix=0.0)
        assert value == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_mix_one_uses_masked_branch_only(self):
        g = tr.one_hot(0, 2)
        value = loss(g, np.array([0.5, 0.5]), np.array([0.25, 0.75]), mix=1.0)
        assert value == pytest.approx(-np.log(0.25), abs=1e-12)

    def test_uniform_four_classes(self):
        g = tr.one_hot(2, 4)
        u = np.full(4, 0.25)
        assert loss(g, u, u, mix=0.5) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_cross_entropy_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            label = int(rng.integers(n))
            g = tr.one_hot(label, n)
            plain = -np.log(max(p[label], 1e-12))
            assert loss(g, p, q, mix=0.0) == pytest.approx(plain, abs=1e-12)

    def test_linearity_in_mix(self):
        rng = np.random.default_rng(32)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        g = tr.one_hot(3, 5)
        at0 = loss(g, p, q, mix=0.0)
        at1 = loss(g, p, q, mix=1.0)
        for mix in (0.2, 0.5, 0.77):
            expected = mix * at1 + (1 - mix) * at0
            assert loss(g, p, q, mix=mix) == pytest.approx(expected, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert loss(tr.one_hot(0, 4), p, q, mix=float(rng.uniform())) >= 0

    def test_returns_a_scalar_tensor(self):
        u = np.array([0.5, 0.5])
        out = tr.combined_loss(Tensor(tr.one_hot(0, 2)), Tensor(u), Tensor(u), 0.5)
        assert isinstance(out, Tensor) and out.values.shape == (1,)


class TestMaskedProbs:
    def test_neutral_gate(self):
        logits = np.array([1.0, -2.0, 0.5])
        out = gated(logits, np.zeros(4), np.zeros((3, 4)), np.ones(3))
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(out, e / e.sum(), atol=1e-12)

    def test_zero_gate_gives_uniform(self):
        out = gated(np.array([3.0, -1.0]), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(34)
        logits = rng.standard_normal(4)
        mask = rng.standard_normal(6)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        out = gated(logits, mask, w, b)
        factor = [sum(w[j, k] * mask[k] for k in range(6)) + b[j] for j in range(4)]
        z = [logits[j] * factor[j] for j in range(4)]
        mx = max(z)
        e = [np.exp(v - mx) for v in z]
        ref = np.array(e) / sum(e)
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestLossGraphLink:
    """The trainer's loss is the paper's combined loss written in numpy from
    ``forward``'s outputs, bit for bit, and attention's mix is the
    left-to-right weighted sum."""

    def test_numpy_loss_equals_trained_loss_exactly(self):
        model = tiny_model(block_channels=(2, 3, 2))
        sample = np.random.default_rng(35).standard_normal((2, 4, 8, 9))
        x = np.ascontiguousarray(sample.transpose(0, 2, 1, 3))  # time-major, as train uses
        logits, probs, mask = net.forward(model, sample)
        z = logits * (model.gate.weight.values @ mask + model.gate.bias.values)
        e = np.exp(z - z.max())
        q = e / e.sum()
        for label in range(2):
            plain = -np.log(max(probs[label], 1e-12))
            masked = -np.log(max(q[label], 1e-12))
            for mix in (0.0, 0.3, 1.0):
                assert (tr.sample_loss_graph(model, x, label, mix).values[0]
                        == mix * masked + (1 - mix) * plain)

    def test_attention_mask_is_left_to_right_sum(self):
        model = tiny_model(block_channels=(2, 3, 2))
        f = np.random.default_rng(36).standard_normal((3, 3))
        mask, a = net.attention_forward([Tensor(v) for v in f], model.attention)
        assert np.array_equal(mask.values, a[0] * f[0] + a[1] * f[1] + a[2] * f[2])


def test_paper_shape_sample_memory_peak():
    """One paper-shape sample's loss graph and backward allocate at most 50 MB
    at once (the tap-GEMM convolution keeps only its padded input per conv;
    an im2col one kept 27x column matrices, about 100 MB)."""
    model = net.build_model(net.NetworkConfig(n_classes=6, in_channels=3,
                                              block_channels=(8, 16, 32), seed=1))
    x = np.random.default_rng(2).standard_normal((3, 32, 30, 9))
    ad.backward(tr.sample_loss_graph(model, x, 2, 0.5))
    tracemalloc.start()
    try:
        ad.backward(tr.sample_loss_graph(model, x, 2, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


def sgd_step(param, grad, velocity, lr, mu):
    """One ``SgdMomentum.step`` on a parameter Tensor; returns (param, velocity)."""
    p = Tensor(np.array(param, dtype=np.float64))
    p.grad = np.array(grad, dtype=np.float64)
    opt = tr.SgdMomentum([p], lr=lr, momentum=mu)
    opt.velocities[0] = np.array(velocity, dtype=np.float64)
    opt.step()
    return p.values, opt.velocities[0]


class TestSgdMomentum:
    def test_first_step(self):
        p, v = sgd_step([1.0], [1.0], [0.0], lr=0.1, mu=0.9)
        assert v[0] == pytest.approx(-0.1)
        assert p[0] == pytest.approx(0.9)

    def test_second_step_accumulates(self):
        p, v = sgd_step([0.9], [1.0], [-0.1], lr=0.1, mu=0.9)
        assert v[0] == pytest.approx(-0.19)
        assert p[0] == pytest.approx(0.71)

    def test_zero_gradient_fixed_point(self):
        p, v = sgd_step([2.0], [0.0], [0.0], lr=0.1, mu=0.9)
        assert p[0] == 2.0 and v[0] == 0.0

    def test_no_momentum_is_vanilla_descent(self):
        rng = np.random.default_rng(35)
        param, grad = rng.standard_normal(4), rng.standard_normal(4)
        p, _ = sgd_step(param, grad, np.zeros(4), lr=0.05, mu=0.0)
        np.testing.assert_allclose(p, param - 0.05 * grad, atol=1e-15)

    def test_parameter_without_gradient_is_skipped(self):
        p = Tensor(np.array([1.5]))
        opt = tr.SgdMomentum([p], lr=0.1, momentum=0.9)
        opt.step()
        assert p.values[0] == 1.5 and opt.velocities[0][0] == 0.0


def tiny_dataset(n_per_class, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for c in range(2):
        for _ in range(n_per_class):
            x = rng.standard_normal((2, 4, 6, 9)) + (2.0 * c)
            data.append((x, c))
    return data


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = tiny_model()
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        data = tiny_dataset(2)
        cfg = tr.TrainConfig(epochs=3, batch_size=2, lr=0.0, momentum=0.9, seed=0)
        model, _ = tr.train(model, data, data, cfg)
        for k, p in model.parameters().items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_memorizes_single_sample(self):
        model = tiny_model()
        data = [tiny_dataset(1)[0]]
        cfg = tr.TrainConfig(epochs=200, batch_size=1, lr=0.05, momentum=0.9, seed=0)
        model, history = tr.train(model, data, data, cfg)
        assert min(h.train_loss for h in history) < 0.01

    def test_identical_seeds_identical_history(self):
        data = tiny_dataset(3)
        cfg = tr.TrainConfig(epochs=3, batch_size=2, lr=0.01, momentum=0.9, seed=9)
        _, h1 = tr.train(tiny_model(), data, data, cfg)
        _, h2 = tr.train(tiny_model(), data, data, cfg)
        assert h1 == h2

    def test_empty_dataset_rejected(self):
        cfg = tr.TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(UsageError):
            tr.train(tiny_model(), [], tiny_dataset(1), cfg)
        with pytest.raises(UsageError):
            tr.train(tiny_model(), tiny_dataset(1), [], cfg)

    def test_label_out_of_range_rejected(self):
        cfg = tr.TrainConfig(epochs=1, batch_size=1)
        bad = [(np.zeros((2, 4, 6, 9)), 7)]
        with pytest.raises(ValidationError):
            tr.train(tiny_model(), bad, bad, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=1, mix=1.2)
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=1, momentum=1.0)
        for lr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lr"):
                tr.TrainConfig(epochs=1, lr=lr)
        with pytest.raises(ConfigError, match="seed"):
            tr.TrainConfig(epochs=1, seed=-1)


_SAMPLE_GRADS = tr._sample_grads


def _first_part_finishes_last(values, indices, inv):
    """``_sample_grads`` that holds back the larger, first part of a batch, so
    its worker finishes after the one with the batch's tail."""
    if len(indices) == 3:
        time.sleep(0.5)
    return _SAMPLE_GRADS(values, indices, inv)


def _raise_dimension_error(*args):
    raise DimensionError("bad sample")


def _die(*args):
    os._exit(1)


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="sample-parallel training forks its workers")
class TestTrainWorkers:
    def _train(self, monkeypatch, workers, epochs=2):
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: workers)
        data = tiny_dataset(3)          # 6 samples: batches of 5 (split 3 + 2) and 1
        cfg = tr.TrainConfig(epochs=epochs, batch_size=5, lr=0.05, momentum=0.9, seed=4)
        return tr.train(tiny_model(), data, data[:2], cfg)

    def test_two_workers_are_bit_identical_to_one(self, monkeypatch):
        monkeypatch.setattr(tr, "_sample_grads", _first_part_finishes_last)
        serial, h1 = self._train(monkeypatch, 1)
        forked, h2 = self._train(monkeypatch, 2)
        assert h1 == h2
        for name, p in serial.parameters().items():
            assert np.array_equal(p.values, forked.parameters()[name].values), name
        assert multiprocessing.active_children() == []

    def test_worker_error_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(tr, "sample_loss_graph", _raise_dimension_error)
        with pytest.raises(DimensionError, match="bad sample"):
            self._train(monkeypatch, 2, epochs=1)
        assert multiprocessing.active_children() == []
        assert tr._SHARED is None

    def test_dead_worker_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(tr, "sample_loss_graph", _die)
        with pytest.raises(StwnnError, match="worker") as exc:
            self._train(monkeypatch, 2, epochs=1)
        assert not isinstance(exc.value, cli._USAGE_ERRORS)    # the CLI exits 1
        assert multiprocessing.active_children() == []
        assert tr._SHARED is None


class TestEvaluate:
    def test_hand_confusion(self):
        y_true = [0] * 4 + [1] * 4
        y_pred = [0, 0, 0, 1, 1, 1, 1, 1]
        m = tr.confusion_metrics(y_true, y_pred, 2)
        np.testing.assert_array_equal(m.confusion, [[3, 1], [0, 4]])
        assert m.overall_accuracy == pytest.approx(7 / 8)
        np.testing.assert_allclose(m.per_class_accuracy, [0.75, 1.0])

    def test_oa_equals_trace_over_total(self):
        rng = np.random.default_rng(36)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        m = tr.confusion_metrics(y_true, y_pred, 4)
        assert m.overall_accuracy == pytest.approx(np.trace(m.confusion) / m.confusion.sum())
        np.testing.assert_array_equal(m.confusion.sum(axis=1),
                                      np.bincount(y_true, minlength=4))

    def test_uniform_random_predictor_is_chance_level(self):
        rng = np.random.default_rng(37)
        y_true = np.repeat(np.arange(6), 100)
        y_pred = rng.integers(0, 6, size=600)
        m = tr.confusion_metrics(y_true, y_pred, 6)
        assert 0.10 <= m.overall_accuracy <= 0.24

    def test_out_of_range_labels_rejected(self):
        for y_true, y_pred in (([-1, 0], [0, 0]), ([0, 3], [0, 0]),
                               ([0, 0], [0, -1]), ([0, 1], [3, 1])):
            with pytest.raises(ValidationError, match="out of range"):
                tr.confusion_metrics(y_true, y_pred, 3)
        assert tr.confusion_metrics([2, 0], [2, 1], 3).overall_accuracy == 0.5

    def test_empty_labels_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            tr.confusion_metrics([], [], 3)

    def test_perfect_model_after_memorization(self):
        model = tiny_model()
        data = tiny_dataset(2)
        cfg = tr.TrainConfig(epochs=60, batch_size=4, lr=0.05, momentum=0.9, seed=1)
        model, _ = tr.train(model, data, data, cfg)
        m = tr.evaluate(model, data)
        assert m.overall_accuracy == 1.0
        assert np.all(m.confusion == np.diag(np.diag(m.confusion)))

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            tr.evaluate(tiny_model(), [])


def order_stream(seed):
    spec = csi.ActivitySpec(
        class_id=0, duration_s=0.6, seed=seed, noise_std=0.05,
        motion_components=(csi.MotionComponent(
            doppler_hz=8.0, delay_weight=1.0, antenna_pattern=(1.0,) * 9),))
    return csi.synth_stream(spec, 3, 3, 30, 100.0)


class TestShiftConsistency:
    def setup_method(self):
        self.cfg = vol.SegmentationConfig(window=32, overlap=16, scales=(1, 2),
                                          target_shape=(30, 16, 9))
        self.model = net.build_model(net.NetworkConfig(
            n_classes=2, in_channels=2, block_channels=(2,), feature_dim=3, seed=5))

    def test_zero_shift_is_one(self):
        assert tr.shift_consistency(self.model, order_stream(1), self.cfg, 0) == 1.0

    def test_constant_model_is_one(self):
        self.model.clf_w.values = np.zeros_like(self.model.clf_w.values)
        self.model.clf_b.values = np.zeros_like(self.model.clf_b.values)
        assert tr.shift_consistency(self.model, order_stream(2), self.cfg, 3) == 1.0

    def test_matches_enumeration_oracle(self):
        stream = order_stream(3)
        max_shift = 2
        agreement = tr.shift_consistency(self.model, stream, self.cfg, max_shift)
        signal = csi.amplitude(stream)
        preds = []
        for delta in range(-max_shift, max_shift + 1):
            start = max_shift + delta
            window = signal[:, start:start + self.cfg.window]
            sample = vol.stack_channels(vol.segment_volumes(window, self.cfg))
            _, probs, _ = net.forward(self.model, sample)
            preds.append(int(np.argmax(probs)))
        ref = sum(1 for p in preds if p == preds[max_shift]) / len(preds)
        assert agreement == pytest.approx(ref)

    def test_stream_too_short(self):
        cfg = vol.SegmentationConfig(window=58, overlap=0, scales=(1,),
                                     target_shape=(30, 16, 9))
        with pytest.raises(UsageError):
            tr.shift_consistency(self.model, order_stream(4), cfg, 2)

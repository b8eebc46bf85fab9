"""Loss, optimizer, training loop, metrics, and the shift probe."""

import contextlib
import mmap
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from stwnn import autodiff as ad, cli, csi, network as net, training as tr, volumes as vol
from stwnn.autodiff import Tensor
from stwnn.errors import (ConfigError, DimensionError, StwnnError, UsageError,
                          ValidationError)

from helpers import tiny_model


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
    """One paper-shape sample's loss graph holds under 8 MB, and with backward
    allocates under 14 MB at once: the graph keeps what backward reads (each
    conv's padded input, each relu mask), not the op results' values."""
    model = net.build_model(net.NetworkConfig(n_classes=6, in_channels=3,
                                              block_channels=(8, 16, 32), seed=1))
    x = np.random.default_rng(2).standard_normal((3, 32, 30, 9))
    ad.backward(tr.sample_loss_graph(model, x, 2, 0.5))
    tracemalloc.start()
    try:
        loss = tr.sample_loss_graph(model, x, 2, 0.5)
        held = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 8e6, f"graph holds {held / 1e6:.1f} MB"
    assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"


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

    @pytest.mark.parametrize("mu, sign", [(0.9, 1.0), (0.0, -1.0)])
    def test_step_is_in_place_and_exact(self, mu, sign):
        """Each parameter and velocity array is updated in place, to the same
        bits as p + (mu*v - lr*g); a parameter without a gradient is left alone."""
        rng = np.random.default_rng(37)
        param, grad = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        v0 = sign * np.abs(rng.standard_normal((2, 3)))
        p, skipped = Tensor(param.copy()), Tensor(rng.standard_normal(4))
        p.grad = grad
        opt = tr.SgdMomentum([p, skipped], lr=0.05, momentum=mu)
        opt.velocities[0][...] = v0
        arrays = [p.values, skipped.values, *opt.velocities]
        before = skipped.values.copy()
        opt.step()
        assert all(a is b for a, b in zip(arrays, [p.values, skipped.values, *opt.velocities]))
        velocity = mu * v0 - 0.05 * grad
        assert np.array_equal(opt.velocities[0], velocity)
        assert np.array_equal(p.values, param + velocity)
        assert np.array_equal(skipped.values, before) and not opt.velocities[1].any()


def _mapping(a):
    """The ``mmap`` that array ``a`` is a view of, or None."""
    while isinstance(a, np.ndarray):
        a = a.base
    if isinstance(a, memoryview):
        a = a.obj
    return a if isinstance(a, mmap.mmap) else None


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

    def test_memory_does_not_grow_with_the_batch(self, monkeypatch):
        """One in-process epoch over 16 samples peaks as high at batch 16 as at
        batch 2, within one set of parameter-sized arrays: gradients are summed
        per sample as they arrive, not held for the whole batch."""
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: 1)
        data = tiny_dataset(8)
        wide = dict(block_channels=(24, 24))    # parameters outweigh a sample's graph

        def peak(batch_size):
            cfg = tr.TrainConfig(epochs=1, batch_size=batch_size, lr=0.01, seed=1)
            model = tiny_model(**wide)
            tracemalloc.start()
            try:
                tr.train(model, data, data[:2], cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        param_bytes = sum(p.values.nbytes for p in tiny_model(**wide).parameters().values())
        peak(2)                         # one-time allocations out of the way
        small, large = peak(2), peak(16)
        assert large < small + param_bytes, (
            f"batch 16 peaked at {large / 1e6:.2f} MB, batch 2 at {small / 1e6:.2f} MB")

    def test_one_worker_trains_on_the_shared_mapping(self, monkeypatch):
        """In-process training builds its graphs on views of one shared mapping,
        the same parameter path the forked workers take."""
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: 1)
        seen = []

        def spy(idx, inv):
            seen.append({_mapping(p.values) for p in tr._SHARED[0].parameters().values()})
            return _SAMPLE_GRAD(idx, inv)

        monkeypatch.setattr(tr, "_sample_grad", spy)
        data = tiny_dataset(2)
        tr.train(tiny_model(), data, data, tr.TrainConfig(epochs=2, batch_size=3, seed=0))
        assert len(seen) == 8
        assert all(len(maps) == 1 and None not in maps for maps in seen)
        assert len({id(m) for maps in seen for m in maps}) == 1

    def test_training_set_is_not_copied(self, monkeypatch):
        """An in-process call peaks below half the training set's bytes: each
        task reads its sample from the caller's list, which is never copied."""
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: 1)
        rng = np.random.default_rng(0)
        data = [(rng.standard_normal((2, 8, 16, 9)), k % 2) for k in range(64)]
        cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=0)
        tr.train(tiny_model(), data[:2], data[:2], cfg)     # one-time allocations out of the way
        model = tiny_model()
        tracemalloc.start()
        try:
            tr.train(model, data, data[:2], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data_bytes = sum(x.nbytes for x, _ in data)
        assert peak < data_bytes / 2, (
            f"peaked at {peak / 1e6:.2f} MB over a {data_bytes / 1e6:.2f} MB training set")

    def test_bad_validation_sample_rejected_before_any_step(self):
        model = tiny_model()
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        data = tiny_dataset(2)
        val = [data[0], (np.zeros((3, 4, 6, 9)), 1)]
        with pytest.raises(DimensionError, match="sample has 3 channels, model expects 2"):
            tr.train(model, data, val, tr.TrainConfig(epochs=1, batch_size=2, lr=0.1))
        for k, p in model.parameters().items():
            assert np.array_equal(p.values, before[k]), k

    def test_non_finite_parameter_stops_training(self, monkeypatch):
        data = tiny_dataset(2)
        data[1][0][0, 0, 0, 0] = 1e300
        model = tiny_model()
        # per SGD step, the first parameter in ``parameters()`` order it left non-finite
        step, broken = tr.SgdMomentum.step, []

        def spy(opt):
            step(opt)
            broken.append(next((name for name, p in model.parameters().items()
                                if not np.isfinite(p.values).all()), None))

        monkeypatch.setattr(tr.SgdMomentum, "step", spy)
        cfg = tr.TrainConfig(epochs=2, batch_size=2, lr=0.01, seed=0)
        with pytest.raises(StwnnError, match="non-finite") as exc:
            tr.train(model, data, data, cfg)
        assert not isinstance(exc.value, cli._USAGE_ERRORS)    # the CLI exits 1
        # train stopped right after the step that broke the parameters
        order = np.random.default_rng([0, 0]).permutation(4)
        batch = list(order).index(1) // 2
        assert len(broken) == batch + 1
        assert str(exc.value) == (f"training went non-finite at epoch 0, batch {batch}: "
                                  f"parameter {broken[-1]!r} holds non-finite values")
        assert tr._SHARED is None

    def test_failed_training_gives_the_model_back_as_it_was(self):
        data = tiny_dataset(2)
        data[1][0][0, 0, 0, 0] = 1e300
        model = tiny_model()
        given = {name: p.values for name, p in model.parameters().items()}
        before = {name: values.copy() for name, values in given.items()}
        with pytest.raises(StwnnError, match="non-finite"):
            tr.train(model, data, data, tr.TrainConfig(epochs=2, batch_size=2, lr=0.01))
        for name, p in model.parameters().items():
            assert p.values is given[name], name
            assert np.array_equal(p.values, before[name]), name

    @pytest.mark.parametrize("finite", [True, False])
    def test_blas_count_is_set_once_and_handed_back(self, monkeypatch, finite):
        """One BLAS thread for the whole call, so no conv inside it sets the
        count; the caller's count comes back, also when training goes
        non-finite."""
        count, calls = [4], []

        def set_threads(n):
            calls.append(n)
            count[0] = n

        monkeypatch.setattr(ad, "_OPENBLAS_THREADS", (lambda: count[0], set_threads))
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: 1)
        data = tiny_dataset(2)
        if not finite:
            data[1][0][0, 0, 0, 0] = 1e300
        cfg = tr.TrainConfig(epochs=2, batch_size=2, lr=0.01, seed=0)
        with (contextlib.nullcontext() if finite
              else pytest.raises(StwnnError, match="non-finite")):
            tr.train(tiny_model(), data, data, cfg)
        assert calls == [1, 4]
        assert count == [4]

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


_SAMPLE_GRAD = tr._sample_grad
# TestTrainWorkers trains 6 samples at batch 5 and seed 4 for 2 epochs; the
# first sample of each epoch's 5-sample batch
_BATCH_HEADS = {int(np.random.default_rng([4, epoch]).permutation(6)[0]) for epoch in range(2)}


def _first_sample_finishes_last(idx, inv):
    """``_sample_grad`` that holds back the first sample of each 5-sample
    batch, so it finishes after the samples behind it."""
    if inv == 1 / 5 and idx in _BATCH_HEADS:
        time.sleep(0.5)
    return _SAMPLE_GRAD(idx, inv)


def _raise_dimension_error(*args):
    raise DimensionError("bad sample")


def _die(*args):
    os._exit(1)


def _sample_grad_on_one_thread(idx, inv):
    """``_sample_grad`` that fails unless its process runs a single thread
    after the sample's forward and backward."""
    out = _SAMPLE_GRAD(idx, inv)
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise DimensionError(f"worker {os.getpid()} runs {threads} threads")
    return out


def _evaluate_is_not_called(*args):
    raise AssertionError("validation ran in the parent through training.evaluate")


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="sample-parallel training forks its workers")
class TestTrainWorkers:
    def _train(self, monkeypatch, workers, epochs=2):
        monkeypatch.setattr(tr, "_worker_count", lambda batch_size, n_samples: workers)
        data = tiny_dataset(3)          # 6 samples: batches of 5 and 1
        cfg = tr.TrainConfig(epochs=epochs, batch_size=5, lr=0.05, momentum=0.9, seed=4)
        return tr.train(tiny_model(), data, data[:2], cfg)

    def test_two_workers_are_bit_identical_to_one(self, monkeypatch):
        monkeypatch.setattr(tr, "_sample_grad", _first_sample_finishes_last)
        serial, h1 = self._train(monkeypatch, 1)
        forked, h2 = self._train(monkeypatch, 2)
        assert h1 == h2
        for name, p in serial.parameters().items():
            assert np.array_equal(p.values, forked.parameters()[name].values), name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_returned_parameters_do_not_alias_the_mapping(self, monkeypatch, workers):
        model, _ = self._train(monkeypatch, workers, epochs=1)
        for name, p in model.parameters().items():
            assert _mapping(p.values) is None, name

    def test_worker_error_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(tr, "sample_loss_graph", _raise_dimension_error)
        with pytest.raises(DimensionError, match="bad sample"):
            self._train(monkeypatch, 2, epochs=1)
        assert multiprocessing.active_children() == []
        assert tr._SHARED is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or ad._OPENBLAS_THREADS is None,
                        reason="needs /proc and the OpenBLAS bundled in numpy's wheel")
    def test_a_forked_worker_runs_one_thread(self, monkeypatch):
        """The workers inherit one BLAS thread, so none restarts the OpenBLAS
        helper threads that the fork stopped; two threads in the caller make
        the test independent of the host's core count."""
        get, set_ = ad._OPENBLAS_THREADS
        before = get()
        set_(2)
        try:
            monkeypatch.setattr(tr, "_sample_grad", _sample_grad_on_one_thread)
            self._train(monkeypatch, 2, epochs=1)
            assert get() == 2
        finally:
            set_(before)

    def test_validation_runs_on_the_workers(self, monkeypatch):
        monkeypatch.setattr(tr, "evaluate", _evaluate_is_not_called)
        _, history = self._train(monkeypatch, 2)
        assert len(history) == 2

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


class TestPredict:
    """``predict`` shares its samples between the caller and helper threads."""

    def setup_method(self):
        self.model = tiny_model(n_classes=5, block_channels=(3,), seed=0)
        rng = np.random.default_rng(41)     # two classes predicted among these
        self.samples = [rng.standard_normal((2, 4, 6, 9)) * 3 + rng.standard_normal() * 3
                        for _ in range(8)]

    def _spy_forward(self, monkeypatch, workers, fail_on_helper=False):
        """Run ``predict`` on ``workers`` threads; with two, the caller's first
        forward waits until a helper has started one, so both take samples.
        Returns the (thread, sample index, logits) of every forward."""
        monkeypatch.setattr(tr, "_worker_count", lambda *limits: workers)
        real = net.forward
        calls = []
        helper_started = threading.Event()

        def spy(model, sample):
            index = next(i for i, s in enumerate(self.samples) if s is sample)
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper:
                helper_started.set()
                if fail_on_helper:
                    raise DimensionError(f"bad sample {index}")
            elif workers > 1 and not calls:
                assert helper_started.wait(10)
            out = real(model, sample)
            calls.append((on_helper, index, out[0]))
            return out

        monkeypatch.setattr(net, "forward", spy)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_to_a_serial_forward_loop_in_input_order(self, monkeypatch, workers):
        serial = [net.forward(self.model, s) for s in self.samples]
        want = np.array([np.argmax(probs) for _, probs, _ in serial])
        assert len(set(want)) > 1
        calls = self._spy_forward(monkeypatch, workers)
        got = tr.predict(self.model, iter(self.samples))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert sorted(i for _, i, _ in calls) == list(range(len(self.samples)))
        for _, i, logits in calls:
            assert np.array_equal(logits, serial[i][0]), i
        assert {on_helper for on_helper, _, _ in calls} == {False, workers > 1}

    def test_more_threads_than_cores_take_each_sample_once(self, monkeypatch):
        """Four threads and a 1 us switch interval: a sample taken twice or
        never, or a prediction written to another's slot, shows."""
        samples = [s.copy() for s in self.samples * 6]
        want = np.array([np.argmax(net.forward(self.model, s)[1]) for s in samples])
        monkeypatch.setattr(tr, "_worker_count", lambda *limits: 4)
        real, taken = net.forward, []

        def spy(model, sample):
            taken.append(next(i for i, s in enumerate(samples) if s is sample))
            return real(model, sample)

        monkeypatch.setattr(net, "forward", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = tr.predict(self.model, samples)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(len(samples)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_input(self, monkeypatch, workers):
        monkeypatch.setattr(tr, "_worker_count", lambda *limits: workers)
        got = tr.predict(self.model, [])
        assert got.shape == (0,) and got.dtype == np.int64

    def test_a_helper_error_keeps_its_type_and_the_helper_stops(self, monkeypatch):
        calls = self._spy_forward(monkeypatch, 2, fail_on_helper=True)
        with pytest.raises(DimensionError, match="bad sample"):
            tr.predict(self.model, self.samples)
        finished = len(calls)
        time.sleep(0.2)
        assert len(calls) == finished <= 2       # the caller stopped taking samples too
        assert all(not on_helper for on_helper, _, _ in calls)

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_helper_outlives_the_call(self, monkeypatch, fail):
        calls = self._spy_forward(monkeypatch, 2, fail_on_helper=fail)
        with pytest.raises(DimensionError) if fail else contextlib.nullcontext():
            tr.predict(self.model, self.samples)
        assert fail or {on_helper for on_helper, _, _ in calls} == {False, True}
        assert not [t for t in threading.enumerate() if t.name == "stwnn-predict"]

    def test_without_fork_predict_keeps_its_helper_and_train_runs_in_process(
            self, monkeypatch):
        """Only ``train``, which forks, falls back to the caller alone where
        ``os.fork`` is missing; ``predict`` still starts a helper thread."""
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real, threads = net.forward, []
        helper_ran = threading.Event()

        def spy(model, sample):
            if threading.current_thread() is threading.main_thread():
                if not threads:
                    helper_ran.wait(10)     # so that a helper, if any, takes a sample
            else:
                helper_ran.set()
            threads.append(threading.current_thread().name)
            return real(model, sample)

        monkeypatch.setattr(net, "forward", spy)
        tr.predict(self.model, self.samples)
        assert "stwnn-predict" in threads
        monkeypatch.setattr(net, "forward", real)
        real_grad, pids = tr._sample_grad, []
        monkeypatch.setattr(tr, "_sample_grad",
                            lambda idx, inv: pids.append(os.getpid()) or real_grad(idx, inv))
        data = tiny_dataset(2)
        tr.train(tiny_model(), data, data[:2], tr.TrainConfig(epochs=1, batch_size=4))
        assert pids and set(pids) == {os.getpid()}
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_after_a_call_predicts(self, monkeypatch):
        """A child forked after a threaded call has none of the parent's
        threads, and starts its own."""
        monkeypatch.setattr(tr, "_worker_count", lambda *limits: 2)
        want = tr.predict(self.model, self.samples)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                os.write(write_end, tr.predict(self.model, self.samples).tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 30
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's predict did not finish")
            time.sleep(0.05)
        with os.fdopen(read_end, "rb") as f:
            assert np.array_equal(np.frombuffer(f.read(), dtype=np.int64), want)

    def test_blas_count_is_held_at_one_across_the_threads(self, monkeypatch):
        """Set once for the whole fan-out, so no conv on either thread sets
        the process-wide count under the other's GEMMs."""
        count, sets = [4], []

        def set_threads(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(ad, "_OPENBLAS_THREADS", (lambda: count[0], set_threads))
        calls = self._spy_forward(monkeypatch, 2)
        tr.predict(self.model, self.samples)
        assert {on_helper for on_helper, _, _ in calls} == {False, True}
        assert sets == [1, 4] and count == [4]

    def test_the_caller_still_records_a_graph(self, monkeypatch):
        self._spy_forward(monkeypatch, 2)
        tr.predict(self.model, self.samples)
        x = Tensor(np.zeros(3), requires_grad=True)
        assert ad.relu(x)._parents == (x,)


def order_stream(seed):
    spec = csi.ActivitySpec(
        duration_s=0.6, seed=seed, noise_std=0.05,
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

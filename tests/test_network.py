"""Model construction, residual blocks, attention, and the forward pass."""

import itertools
import math

import numpy as np
import pytest

from stwnn import autodiff as ad
from stwnn import network as net
from stwnn.autodiff import Tensor
from stwnn.errors import ConfigError, DimensionError, UsageError
from stwnn.volumes import Volume3D

TINY = dict(n_classes=2, in_channels=2, block_channels=(2,), feature_dim=3, seed=5)


def tiny_model(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return net.build_model(net.NetworkConfig(**kwargs))


class TestBuildModel:
    def test_deterministic_construction(self):
        cfg = net.NetworkConfig(n_classes=3, seed=42)
        m1, m2 = net.build_model(cfg), net.build_model(cfg)
        for (n1, p1), (n2, p2) in zip(m1.parameters().items(), m2.parameters().items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)

    def test_planar_variant_has_no_temporal_extent(self):
        model = net.build_model(net.NetworkConfig(n_classes=3, variant="wnn2d", seed=0))
        for name, p in model.parameters().items():
            if "conv" in name and name.endswith("weight"):
                assert p.values.shape[2] == 1, name
        assert model.kernel_dims == (1, 5, 5)

    def test_variant_parameter_counts_close(self):
        full = net.parameter_count(net.NetworkConfig(n_classes=3, seed=0))
        planar = net.parameter_count(net.NetworkConfig(n_classes=3, variant="wnn2d", seed=0))
        assert abs(full - planar) / full < 0.10

    @pytest.mark.parametrize("variant", ["stwnn", "wnn2d"])
    @pytest.mark.parametrize("cfg", [dict(n_classes=3), dict(
        n_classes=4, in_channels=2, block_channels=(3, 3, 5), kernel=(5, 3, 1), feature_dim=6)])
    def test_parameter_count_matches_built_model(self, variant, cfg):
        config = net.NetworkConfig(**cfg, variant=variant)
        model = net.build_model(config)
        assert net.parameter_count(config) == sum(p.size for p in model.parameters().values())

    @pytest.mark.parametrize("variant", ["stwnn", "wnn2d"])
    def test_parameters_are_the_one_table_the_views_share(self, variant):
        # block1 has an identity shortcut; the others a projection
        config = net.NetworkConfig(n_classes=3, block_channels=(4, 4, 6), variant=variant)
        model = net.build_model(config)
        params = model.parameters()
        assert list(params) == list(net._parameter_shapes(config))
        views = {"attention": model.attention, "gate": model.gate,
                 "classifier": net.Dense(model.clf_w, model.clf_b),
                 **{f"tap{i}": tap for i, tap in enumerate(model.taps)}}
        for i, blk in enumerate(model.blocks):
            for part in ("conv1", "conv2", "proj"):
                views[f"block{i}.{part}"] = net.Dense(getattr(blk, f"{part}_w"),
                                                      getattr(blk, f"{part}_b"))
        assert sum(t is not None for v in views.values() for t in (v.weight, v.bias)) == len(params)
        for name, tensor in params.items():
            head, kind = name.rsplit(".", 1)
            assert tensor is getattr(views[head], kind), name
        for name in list(params):
            params.pop(name)
        assert list(model.parameters()) == list(net._parameter_shapes(config))

    def test_planar_kernel_side_is_nearest_odd_square(self):
        for kernel in itertools.product(range(1, 16, 2), repeat=3):
            volume = math.prod(kernel)
            side = net.build_model(net.NetworkConfig(
                n_classes=2, in_channels=1, block_channels=(1,), kernel=kernel,
                feature_dim=1, variant="wnn2d")).kernel_dims[1]
            best = min(range(1, volume + 2, 2), key=lambda k: (abs(k * k - volume), k))
            assert side == best, kernel

    def test_default_shape_propagation(self):
        model = net.build_model(net.NetworkConfig(n_classes=4, in_channels=3, seed=1))
        sample = np.stack([np.random.default_rng(s).standard_normal((30, 32, 9))
                           for s in range(3)])
        logits, probs, mask = net.forward(model, sample)
        assert logits.shape == (4,)
        assert probs.shape == (4,)
        assert mask.shape == (model.config.feature_dim,)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            net.NetworkConfig(n_classes=1)
        with pytest.raises(ConfigError):
            net.NetworkConfig(n_classes=2, score_fn="sigmoid")
        with pytest.raises(ConfigError):
            net.NetworkConfig(n_classes=2, variant="rnn")
        with pytest.raises(ConfigError):
            net.NetworkConfig(n_classes=2, block_channels=())
        for seed in (-1, 2**63):  # WGT1 stores the seed as an i64
            with pytest.raises(ConfigError, match="seed"):
                net.NetworkConfig(n_classes=2, seed=seed)
        assert net.NetworkConfig(n_classes=2, seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize("kernel", [(2, 2, 2), (3, 4, 3), (1, 1, 2)])
    def test_even_kernel_rejected(self, kernel):
        # residual blocks pad by k // 2, which keeps the shape only for odd k
        with pytest.raises(ConfigError, match="kernel"):
            net.NetworkConfig(n_classes=2, kernel=kernel)


class TestResidualBlock:
    def test_zero_convs_reduce_to_relu(self):
        rng = np.random.default_rng(2)
        params = net.BlockParams(
            conv1_w=Tensor(np.zeros((2, 2, 3, 3, 3))), conv1_b=Tensor(np.zeros(2)),
            conv2_w=Tensor(np.zeros((2, 2, 3, 3, 3))), conv2_b=Tensor(np.zeros(2)))
        x = Tensor(rng.standard_normal((2, 4, 4, 4)))
        out = net.residual_block_forward(x, params)
        np.testing.assert_allclose(out.values, np.maximum(x.values, 0.0), atol=1e-15)

    def test_zero_input_leaves_bias_path(self):
        rng = np.random.default_rng(3)
        params = net.BlockParams(
            conv1_w=Tensor(rng.standard_normal((2, 2, 3, 3, 3))),
            conv1_b=Tensor(rng.standard_normal(2)),
            conv2_w=Tensor(rng.standard_normal((2, 2, 3, 3, 3))),
            conv2_b=Tensor(rng.standard_normal(2)))
        x = Tensor(np.zeros((2, 4, 4, 4)))
        out = net.residual_block_forward(x, params)
        pad = (1, 1, 1)
        h = ad.relu(ad.conv3d(x, params.conv1_w, params.conv1_b, 1, pad))
        expected = ad.relu(ad.add(ad.conv3d(h, params.conv2_w, params.conv2_b, 1, pad), x))
        np.testing.assert_allclose(out.values, expected.values, atol=1e-15)

    def test_compositional_oracle(self):
        rng = np.random.default_rng(4)
        params = net.BlockParams(
            conv1_w=Tensor(rng.standard_normal((3, 2, 3, 3, 3)) * 0.2),
            conv1_b=Tensor(rng.standard_normal(3) * 0.1),
            conv2_w=Tensor(rng.standard_normal((3, 3, 3, 3, 3)) * 0.2),
            conv2_b=Tensor(rng.standard_normal(3) * 0.1),
            proj_w=Tensor(rng.standard_normal((3, 2, 1, 1, 1))),
            proj_b=Tensor(np.zeros(3)))
        x = Tensor(rng.standard_normal((2, 4, 5, 3)))
        out = net.residual_block_forward(x, params)
        pad = (1, 1, 1)
        step = ad.conv3d(x, params.conv1_w, params.conv1_b, 1, pad)
        step = ad.relu(step)
        step = ad.conv3d(step, params.conv2_w, params.conv2_b, 1, pad)
        shortcut = ad.conv3d(x, params.proj_w, params.proj_b, 1, 0)
        expected = ad.relu(ad.add(step, shortcut))
        np.testing.assert_allclose(out.values, expected.values, atol=1e-12)

    def test_identity_shortcut_requires_matching_channels(self):
        params = net.BlockParams(
            conv1_w=Tensor(np.zeros((3, 2, 1, 1, 1))), conv1_b=Tensor(np.zeros(3)),
            conv2_w=Tensor(np.zeros((3, 3, 1, 1, 1))), conv2_b=Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            net.residual_block_forward(Tensor(np.zeros((2, 2, 2, 2))), params,
                                       kernel=(1, 1, 1))


class TestAttention:
    def test_zero_weight_gives_uniform(self):
        params = net.Dense(weight=Tensor(np.zeros(4)),
                           bias=Tensor(np.array([0.7])))
        f1 = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        f2 = Tensor(np.array([5.0, 6.0, 7.0, 8.0]))
        mask, weights = net.attention_forward([f1, f2], params, "tanh")
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(mask.values, (f1.values + f2.values) / 2, atol=1e-12)

    def test_singleton(self):
        params = net.Dense(weight=Tensor(np.array([1.0, -1.0])),
                           bias=Tensor(np.array([0.3])))
        f = Tensor(np.array([2.0, 5.0]))
        mask, weights = net.attention_forward([f], params, "relu")
        np.testing.assert_allclose(weights, [1.0], atol=1e-15)
        np.testing.assert_array_equal(mask.values, f.values)

    def test_linear_score_matches_scalar_loop(self):
        rng = np.random.default_rng(21)
        dim, n = 5, 3
        feats = [rng.standard_normal(dim) for _ in range(n)]
        chi = rng.standard_normal(dim)
        b = 0.37
        params = net.Dense(weight=Tensor(chi), bias=Tensor(np.array([b])))
        mask, weights = net.attention_forward([Tensor(f) for f in feats], params, "linear")

        scores = [sum(chi[k] * f[k] for k in range(dim)) + b for f in feats]
        mx = max(scores)
        exps = [np.exp(s - mx) for s in scores]
        ref_w = [e / sum(exps) for e in exps]
        ref_mask = np.zeros(dim)
        for i in range(n):
            for k in range(dim):
                ref_mask[k] += ref_w[i] * feats[i][k]
        np.testing.assert_allclose(weights, ref_w, atol=1e-12)
        np.testing.assert_allclose(mask.values, ref_mask, atol=1e-12)

    @pytest.mark.parametrize("score_fn", ["tanh", "relu", "linear"])
    def test_weights_are_probability_and_mask_in_hull(self, score_fn):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 8))
            feats = [Tensor(rng.standard_normal(dim) * 3) for _ in range(n)]
            params = net.Dense(weight=Tensor(rng.standard_normal(dim)),
                               bias=Tensor(rng.standard_normal(1)))
            mask, weights = net.attention_forward(feats, params, score_fn)
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) < 1e-9
            stacked = np.stack([f.values for f in feats])
            assert np.all(mask.values >= stacked.min(axis=0) - 1e-9)
            assert np.all(mask.values <= stacked.max(axis=0) + 1e-9)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(23)
        feats = [Tensor(rng.standard_normal(4)) for _ in range(3)]
        chi = rng.standard_normal(4)
        m0, w0 = net.attention_forward(
            feats, net.Dense(weight=Tensor(chi), bias=Tensor(np.array([0.0]))),
            "linear")
        m1, w1 = net.attention_forward(
            feats, net.Dense(weight=Tensor(chi), bias=Tensor(np.array([5.0]))),
            "linear")
        np.testing.assert_allclose(w0, w1, atol=1e-12)
        np.testing.assert_allclose(m0.values, m1.values, atol=1e-12)

    def test_empty_features_rejected(self):
        params = net.Dense(weight=Tensor(np.zeros(2)), bias=Tensor(np.zeros(1)))
        with pytest.raises(UsageError):
            net.attention_forward([], params, "tanh")


class TestForward:
    def test_probs_sum_to_one(self):
        model = tiny_model()
        x = np.random.default_rng(24).standard_normal((2, 4, 6, 9))
        _, probs, _ = net.forward(model, x)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_zero_classifier_gives_uniform(self):
        model = tiny_model()
        model.clf_w.values = np.zeros_like(model.clf_w.values)
        model.clf_b.values = np.zeros_like(model.clf_b.values)
        x = np.random.default_rng(26).standard_normal((2, 4, 6, 9))
        _, probs, _ = net.forward(model, x)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_deterministic(self):
        model = tiny_model()
        x = np.random.default_rng(27).standard_normal((2, 4, 6, 9))
        out1 = net.forward(model, x)
        out2 = net.forward(model, x)
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a, b)

    def test_equals_the_recorded_graph(self):
        """``forward`` records no graph and still returns the very values of
        ``forward_graph`` + softmax on the same time-major input."""
        model = tiny_model(block_channels=(2, 3))
        x = np.random.default_rng(25).standard_normal((2, 4, 6, 9))
        logits, probs, mask = net.forward(model, x)
        logits_t, mask_t = net.forward_graph(model, Tensor(x.transpose(0, 2, 1, 3)))
        assert logits_t._parents                # the graph path records
        assert np.array_equal(logits, logits_t.values)
        assert np.array_equal(probs, ad.softmax(logits_t).values)
        assert np.array_equal(mask, mask_t.values)

    def test_channel_mismatch(self):
        model = tiny_model()
        with pytest.raises(DimensionError):
            net.forward(model, np.zeros((3, 4, 6, 9)))

    def test_single_volume_when_one_channel(self):
        model = tiny_model(in_channels=1)
        x = np.random.default_rng(28).standard_normal((1, 4, 6, 9))
        logits, probs, mask = net.forward(model, x)
        assert logits.shape == (2,)

    def test_only_sample_arrays_accepted(self):
        model = tiny_model()  # two input channels
        rng = np.random.default_rng(31)
        vols = [Volume3D(data=rng.standard_normal((4, 6, 9)), scale=s) for s in (1, 2)]
        with pytest.raises(UsageError):
            net.forward(model, vols)  # a channel group must be stacked first
        with pytest.raises(UsageError):
            net.forward(model, vols[0])
        with pytest.raises(UsageError):
            net.forward(model, [])
        with pytest.raises(UsageError):
            net.forward(model, [rng.standard_normal((2, 4, 6, 9))] * 2)  # no batch path
        with pytest.raises(DimensionError):
            net.forward(model, rng.standard_normal((4, 6, 9)))  # 3-D: no channel axis
        with pytest.raises(DimensionError):
            net.forward(tiny_model(in_channels=1), rng.standard_normal((4, 6, 9)))

    def test_end_to_end_gradcheck_tiny(self):
        # full-model gradient flow through attention, gate and both loss branches
        from stwnn.training import sample_loss_graph

        model = tiny_model()
        rng = np.random.default_rng(29)
        x = rng.standard_normal((2, 6, 4, 9))  # (C, time, sub, ant)
        params = model.parameters()

        for name in ("block0.conv1.weight", "attention.weight", "gate.weight",
                     "classifier.bias"):
            target = params[name]
            loss = sample_loss_graph(model, x, 1, 0.5)
            for p in params.values():
                p.grad = None
            ad.backward(loss)
            analytic = np.zeros_like(target.values) if target.grad is None else target.grad
            flat = target.values.reshape(-1)
            eps = 1e-5
            worst = 0.0
            idx = np.random.default_rng(30).permutation(flat.size)[:12]
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up = sample_loss_graph(model, x, 1, 0.5).values[0]
                flat[i] = orig - eps
                down = sample_loss_graph(model, x, 1, 0.5).values[0]
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(analytic.reshape(-1)[i] - numeric)
                            / max(1.0, abs(numeric)))
            assert worst < 1e-3, name

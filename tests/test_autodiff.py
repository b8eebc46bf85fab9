"""Tensor engine: forward semantics against loop oracles, gradients against
central finite differences."""

import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stwnn import autodiff as ad
from stwnn.autodiff import Tensor
from stwnn.errors import DimensionError, UsageError


def naive_conv3d(xv, kv, bv, stride, pad):
    """Direct correlation sum, looped over every output and kernel coordinate."""
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


class TestConv3d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1, 1)))
        out = ad.conv3d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)
        np.testing.assert_array_equal(out.values, x.values)

    def test_counting_kernel(self):
        x = Tensor(np.ones((1, 2, 2, 2)))
        k = Tensor(np.ones((1, 1, 2, 2, 2)))
        out = ad.conv3d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.values.reshape(()) == pytest.approx(8.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 5, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        out = ad.conv3d(x, k, b, stride=2, padding=1)
        ref = naive_conv3d(x.values, k.values, b.values, (2, 2, 2), (1, 1, 1))
        np.testing.assert_allclose(out.values, ref, atol=1e-10)

    @pytest.mark.parametrize("dims,kdims,stride,pad", [
        ((1, 1, 1), (1, 1, 1), 1, 0),
        ((4, 3, 2), (2, 2, 1), 1, 1),
        ((5, 4, 6), (3, 3, 3), 2, 1),
        ((6, 6, 6), (3, 1, 2), 2, 0),
        ((2, 5, 3), (1, 3, 3), 1, 1),
    ])
    def test_shape_formula_and_values(self, dims, kdims, stride, pad):
        rng = np.random.default_rng(hash((dims, kdims, stride, pad)) % 2**32)
        x = Tensor(rng.standard_normal((2,) + dims))
        k = Tensor(rng.standard_normal((2, 2) + kdims))
        b = Tensor(rng.standard_normal(2))
        out = ad.conv3d(x, k, b, stride=stride, padding=pad)
        ref = naive_conv3d(x.values, k.values, b.values, (stride,) * 3, (pad,) * 3)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.values, ref, atol=1e-10)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((2, 3, 3, 3)))
        k = Tensor(np.zeros((1, 3, 1, 1, 1)))
        with pytest.raises(DimensionError):
            ad.conv3d(x, k, Tensor(np.zeros(1)))

    def test_kernel_too_large_raises(self):
        x = Tensor(np.zeros((1, 2, 2, 2)))
        k = Tensor(np.zeros((1, 1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            ad.conv3d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)

    def test_gemms_run_on_one_blas_thread(self, monkeypatch):
        """Forward and backward each set one BLAS thread and hand the caller's
        count back, also when the block raises."""
        count, calls = [4], []

        def set_threads(n):
            calls.append(n)
            count[0] = n

        monkeypatch.setattr(ad, "_OPENBLAS_THREADS", (lambda: count[0], set_threads))
        x = Tensor(np.ones((2, 3, 3, 3)))
        k = Tensor(np.ones((2, 2, 3, 3, 3)), requires_grad=True)
        out = ad.conv3d(x, k, Tensor(np.zeros(2)), padding=1)
        assert calls == [1, 4]
        ad.backward(ad.scalar_sum(out))     # the kernel gradient only
        assert calls == [1, 4, 1, 4]
        with pytest.raises(RuntimeError), ad._one_blas_thread():
            raise RuntimeError
        assert count == [4]

    def test_one_blas_thread_already_set_is_left_alone(self, monkeypatch):
        """With the count already 1 a conv sets none: each set would restart
        the OpenBLAS helper threads that a fork stopped."""
        calls = []
        monkeypatch.setattr(ad, "_OPENBLAS_THREADS", (lambda: 1, calls.append))
        x = Tensor(np.ones((2, 3, 3, 3)), requires_grad=True)
        k = Tensor(np.ones((2, 2, 3, 3, 3)), requires_grad=True)
        ad.backward(ad.scalar_sum(ad.conv3d(x, k, Tensor(np.zeros(2)), padding=1)))
        assert calls == []

    def test_bundled_openblas_thread_count(self):
        if ad._OPENBLAS_THREADS is None:
            pytest.skip("numpy links no OpenBLAS bundled in its wheel")
        get, _ = ad._OPENBLAS_THREADS
        before = get()
        with ad._one_blas_thread():
            assert get() == 1
        assert get() == before


@ad._one_blas_thread()
def looped_tap_gemm(weights, values, pad):
    """Reference tap GEMM: each tap's product is written by ``np.matmul`` into
    a temporary, which is then added into the grid, tap by tap in kernel order.
    It runs on one BLAS thread like ``_tap_gemm``: how the BLAS splits the
    work between threads can change the bits."""
    c, d, h, w = values.shape
    c_out, _, kd, kh, kw = weights.shape
    pd, ph, pw = pad
    dp, hp, wp = d + 2 * pd, h + 2 * ph, w + 2 * pw
    flat = np.zeros((c, dp * hp * wp + (kh - 1) * wp + kw - 1))
    flat[:, :dp * hp * wp].reshape(c, dp, hp, wp)[:, pd:pd + d, ph:ph + h, pw:pw + w] = values
    n = (dp - kd + 1) * hp * wp
    offsets = [(i * hp + j) * wp + l for i in range(kd) for j in range(kh) for l in range(kw)]
    taps = weights.reshape(c_out, c, len(offsets))
    grid = taps[:, :, 0] @ flat[:, :n]
    part = np.empty_like(grid)
    for t in range(1, len(offsets)):
        grid += np.matmul(taps[:, :, t], flat[:, offsets[t]:offsets[t] + n], out=part)
    return grid.reshape(c_out, dp - kd + 1, hp, wp), flat, offsets


# (C_in, D, H, W) input and (C_out, k) of the nine convs at the paper shape:
# conv1, conv2 and the 1x1x1 projection of each of the three blocks
PAPER_CONVS = [((3, 32, 30, 9), 8, 3), ((8, 32, 30, 9), 8, 3), ((3, 32, 30, 9), 8, 1),
               ((8, 16, 30, 9), 16, 3), ((16, 16, 30, 9), 16, 3), ((8, 16, 30, 9), 16, 1),
               ((16, 8, 30, 9), 32, 3), ((32, 8, 30, 9), 32, 3), ((16, 8, 30, 9), 32, 1)]


def conv_with_grads(x, k, b, stride, pad):
    """conv3d's output, then the input, kernel and bias gradients of a fixed
    random projection of it."""
    xt, kt, bt = (Tensor(v, requires_grad=True) for v in (x, k, b))
    out = ad.conv3d(xt, kt, bt, stride=stride, padding=pad)
    probe = Tensor(np.random.default_rng(7).standard_normal(out.shape))
    ad.backward(ad.scalar_sum(ad.mul_elementwise(out, probe)))
    return out.values, xt.grad, kt.grad, bt.grad


class TestTapAccumulate:
    """The taps accumulate into the grid inside BLAS, bit-identical to adding
    each tap's product from a temporary."""

    @pytest.mark.parametrize("in_shape,c_out,k", PAPER_CONVS)
    def test_paper_convs_equal_looped_reference(self, in_shape, c_out, k):
        rng = np.random.default_rng(sum(in_shape) + c_out + k)
        p = k // 2
        x = rng.standard_normal(in_shape)
        kv = rng.standard_normal((c_out, in_shape[0]) + (k,) * 3)
        got, ref = ad._tap_gemm(kv, x, (p,) * 3)[0], looped_tap_gemm(kv, x, (p,) * 3)[0]
        np.testing.assert_array_equal(got, ref)
        # the input gradient: flipped kernels over the output-gradient grid
        g = rng.standard_normal((c_out,) + in_shape[1:])
        flipped = kv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        g_pad = (k - 1 - p,) * 3
        np.testing.assert_array_equal(ad._tap_gemm(flipped, g, g_pad)[0],
                                      looped_tap_gemm(flipped, g, g_pad)[0])

    @given(st.integers(1, 3), st.integers(1, 4), st.tuples(*[st.integers(1, 5)] * 3),
           st.tuples(*[st.integers(1, 3)] * 3), st.integers(1, 3), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_small_shapes_match_looped_reference(self, c_in, c_out, dims, kdims, stride,
                                                 pad, seed):
        dims = tuple(max(s, k - 2 * pad) for s, k in zip(dims, kdims))
        rng = np.random.default_rng(seed)
        args = (rng.standard_normal((c_in,) + dims),
                rng.standard_normal((c_out, c_in) + kdims), rng.standard_normal(c_out))
        got = conv_with_grads(*args, stride, pad)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_tap_gemm", looped_tap_gemm)
            ref = conv_with_grads(*args, stride, pad)
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)

    def test_numpy_fallback_is_bit_identical(self, monkeypatch):
        """Without the BLAS binding the taps add through numpy, to the same bits."""
        rng = np.random.default_rng(5)
        args = (rng.standard_normal((8, 16, 30, 9)), rng.standard_normal((16, 8, 3, 3, 3)),
                rng.standard_normal(16))
        blas = conv_with_grads(*args, 1, 1)
        monkeypatch.setattr(ad, "_DGEMM", None)
        for a, b in zip(blas, conv_with_grads(*args, 1, 1)):
            np.testing.assert_array_equal(a, b)

    def test_bundled_openblas_has_dgemm(self):
        if ad._OPENBLAS_THREADS is None:
            pytest.skip("numpy links no OpenBLAS bundled in its wheel")
        assert ad._DGEMM is not None

    @pytest.mark.parametrize("fault", ["short", "float32", "strided"])
    def test_bad_operands_are_dimension_errors(self, fault):
        """Operands are checked before any pointer reaches BLAS."""
        c, c_out, n, offsets = 2, 3, 10, [0, 1, 4]
        grid, taps = np.zeros((c_out, n)), np.ones((len(offsets), c_out, c))
        flat = np.ones((c, offsets[-1] + n - (fault == "short")))
        if fault == "float32":
            taps = taps.astype(np.float32)
        if fault == "strided":
            flat = np.ones((c, 2 * flat.shape[1]))[:, ::2]
        with pytest.raises(DimensionError):
            ad._add_taps(grid, taps, flat, offsets)
        assert not grid.any()


class TestLinear:
    def test_identity(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        out = ad.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.values, x.values)

    def test_hand_sum(self):
        out = ad.linear(Tensor(np.array([2.0, 3.0])),
                        Tensor(np.array([[1.0, 1.0]])),
                        Tensor(np.array([0.5])))
        assert out.values[0] == pytest.approx(5.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal(8))
        w = Tensor(rng.standard_normal((4, 8)))
        b = Tensor(rng.standard_normal(4))
        out = ad.linear(x, w, b)
        ref = np.array([sum(w.values[j, k] * x.values[k] for k in range(8)) + b.values[j]
                        for j in range(4)])
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestActivations:
    def test_softmax_uniform(self):
        out = ad.softmax(Tensor(np.array([3.3, 3.3, 3.3])))
        np.testing.assert_allclose(out.values, [1 / 3] * 3, atol=1e-12)

    def test_relu(self):
        out = ad.relu(Tensor(np.array([1.0, -1.0])))
        np.testing.assert_array_equal(out.values, [1.0, 0.0])

    def test_relu_keeps_nan_and_gives_positive_zero(self):
        out = ad.relu(Tensor(np.array([np.nan, -0.0, -1.0, 2.0]))).values
        np.testing.assert_array_equal(out, [np.nan, 0.0, 0.0, 2.0])
        assert not np.signbit(out[1])

    def test_softmax_no_overflow(self):
        out = ad.softmax(Tensor(np.array([1000.0, 0.0])))
        assert np.all(np.isfinite(out.values))
        assert out.values[0] == pytest.approx(1.0)
        assert out.values.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_softmax_is_probability(self, xs):
        out = ad.softmax(Tensor(np.array(xs)))
        assert np.all(out.values >= 0)
        assert abs(out.values.sum() - 1.0) < 1e-9

    def test_tanh(self):
        x = np.array([-2.0, 0.0, 0.5])
        np.testing.assert_allclose(ad.tanh_act(Tensor(x)).values, np.tanh(x), atol=1e-15)


class TestArithmetic:
    def test_add_zeros(self):
        x = Tensor(np.random.default_rng(3).standard_normal((2, 3)))
        out = ad.add(x, Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.values, x.values)

    def test_gap_constant(self):
        out = ad.global_avg_pool(Tensor(np.full((3, 2, 2, 2), 7.5)))
        np.testing.assert_allclose(out.values, [7.5] * 3, atol=1e-12)

    def test_mul_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        out = ad.mul_elementwise(Tensor(a), Tensor(b))
        ref = np.array([[a[i, j] * b[i, j] for j in range(6)] for i in range(2)])
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_concat_weighted_sum(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0]))
        c = ad.concat([a, b])
        np.testing.assert_array_equal(c.values, [1.0, 2.0, 3.0])
        out = ad.weighted_sum(Tensor(np.array([2.0, -1.0])), [a, Tensor(np.array([0.5, 4.0]))])
        np.testing.assert_array_equal(out.values, [1.5, 0.0])

    def test_weighted_sum_shape_errors(self):
        a, b = Tensor(np.zeros(2)), Tensor(np.zeros(2))
        with pytest.raises(DimensionError):
            ad.weighted_sum(Tensor(np.ones(3)), [a, b])
        with pytest.raises(DimensionError):
            ad.weighted_sum(Tensor(np.ones(2)), [a, Tensor(np.zeros(3))])

    def test_reshape(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.reshape(x, (3, 2)).shape == (3, 2)
        with pytest.raises(DimensionError):
            ad.reshape(x, (4, 2))

    def test_temporal_subsample(self):
        x = Tensor(np.arange(2 * 5 * 1 * 1.0).reshape(2, 5, 1, 1))
        out = ad.temporal_subsample(x, 2)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_array_equal(out.values[0, :, 0, 0], [0.0, 2.0, 4.0])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(5).standard_normal((3, 4)), requires_grad=True)
        ad.backward(ad.scalar_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_relu_subgradient(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        ad.backward(ad.scalar_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])

    def test_two_losses_add_linearly(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(5)
        w = rng.standard_normal(5)

        def grads_of(build):
            x = Tensor(v.copy(), requires_grad=True)
            ad.backward(build(x))
            return x.grad

        g1 = grads_of(lambda x: ad.scalar_sum(ad.mul_elementwise(x, Tensor(w))))
        g2 = grads_of(lambda x: ad.scalar_sum(ad.relu(x)))
        g_sum = grads_of(lambda x: ad.add(
            ad.scalar_sum(ad.mul_elementwise(x, Tensor(w))),
            ad.scalar_sum(ad.relu(x))))
        np.testing.assert_allclose(g_sum, g1 + g2, atol=1e-12)

    def test_backward_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = ad.scalar_sum(x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_grads_stored_on_leaves_only(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        hidden = ad.relu(ad.mul_const(x, 3.0))
        loss = ad.scalar_sum(hidden)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 0.0])
        assert hidden.grad is None and loss.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(UsageError):
            ad.backward(ad.relu(x))

    def test_branching_graph(self):
        # gradient through a node consumed twice: d/dx sum(x*x + x) = 2x + 1
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        ad.backward(ad.add(ad.scalar_sum(ad.mul_elementwise(x, x)), ad.scalar_sum(x)))
        np.testing.assert_allclose(x.grad, 2 * x.values + 1, atol=1e-12)

    def test_graph_keeps_no_result_values(self):
        # conv -> relu -> conv -> sum: backward reads the padded inputs and the
        # mask, so the first conv's output is freed once the caller drops it
        rng = np.random.default_rng(12)
        xv = rng.standard_normal((2, 4, 5, 3))
        k1, k2 = rng.standard_normal((3, 2, 3, 3, 3)), rng.standard_normal((2, 3, 3, 3, 3))

        def grads(drop):
            x = Tensor(xv, requires_grad=True)
            kt1, kt2 = Tensor(k1, requires_grad=True), Tensor(k2, requires_grad=True)
            hidden = ad.conv3d(x, kt1, Tensor(np.zeros(3)), padding=1)
            ref = weakref.ref(hidden.values)
            loss = ad.scalar_sum(
                ad.conv3d(ad.relu(hidden), kt2, Tensor(np.zeros(2)), padding=1))
            if drop:
                del hidden
                assert ref() is None
            ad.backward(loss)
            return x.grad, kt1.grad, kt2.grad

        for kept, dropped in zip(grads(drop=False), grads(drop=True)):
            np.testing.assert_array_equal(kept, dropped)

    def test_tracer_hooks(self):
        # a profiler may wrap a conv result's ``_backward`` and count the graph
        # by walking ``_parents`` from the loss down to the leaves
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((1, 3, 4, 2)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 1, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        y = ad.conv3d(x, k, b, padding=1)
        inner, calls = y._backward, []

        def wrapped(g):
            calls.append(g.shape)
            return inner(g)

        y._backward = wrapped
        assert y._backward is wrapped
        loss = ad.scalar_sum(y)
        ad.backward(loss)
        assert calls == [y.shape]
        seen, stack, ends = {id(loss)}, [loss], []
        while stack:
            node = stack.pop()
            if not node._parents:
                ends.append(node)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(seen) == 5                   # loss, the conv and three leaves
        assert sorted(map(id, ends)) == sorted(map(id, (x, k, b)))
        np.testing.assert_array_equal(b.grad, np.full(2, y.size // 2))


class TestNoGraph:
    def test_results_keep_no_parents(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with ad.no_graph():
            y = ad.scalar_sum(ad.relu(ad.mul_const(x, 3.0)))
        assert y._parents == () and y._backward is None and not y.requires_grad
        np.testing.assert_array_equal(y.values, [3.0])
        recorded = ad.scalar_sum(ad.relu(ad.mul_const(x, 3.0)))
        assert recorded._parents and recorded.requires_grad

    def test_flag_restored_after_an_exception(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(DimensionError):
            with ad.no_graph():
                ad.add(x, Tensor(np.zeros(2)))
        assert ad.relu(x)._parents == (x,)

    def test_nested_blocks_restore_the_outer_setting(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with ad.no_graph():
            with ad.no_graph():
                pass
            assert ad.relu(x)._parents == ()
        assert ad.relu(x)._parents == (x,)


class TestGradCheck:
    def test_sum_of_squares(self):
        point = Tensor(np.random.default_rng(7).standard_normal(6))
        err = ad.grad_check(lambda x: ad.scalar_sum(ad.mul_elementwise(x, x)), point)
        assert err < 1e-8

    def test_linear_layer(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.standard_normal((4, 6)))
        b = Tensor(rng.standard_normal(4))
        point = Tensor(rng.standard_normal(6))
        err = ad.grad_check(lambda x: ad.scalar_sum(ad.linear(x, w, b)), point)
        assert err < 1e-9

    def test_constant_function(self):
        c = Tensor(np.array([4.0]))
        err = ad.grad_check(lambda x: ad.mul_const(c, 2.0), Tensor(np.ones(3)))
        assert err == 0.0

    @staticmethod
    def _probe(rng, n):
        fixed = Tensor(rng.standard_normal(n))
        return lambda t: ad.scalar_sum(ad.mul_elementwise(t, fixed))

    @pytest.mark.parametrize("name,builder,point_shape,away_from_zero", [
        ("relu", lambda r, p: lambda x: ad.scalar_sum(ad.relu(x)), (7,), True),
        ("tanh", lambda r, p: lambda x: ad.scalar_sum(ad.tanh_act(x)), (7,), False),
        ("softmax", lambda r, p: lambda x: p(ad.softmax(x)), (5,), False),
        ("clamped_log", lambda r, p: lambda x: ad.scalar_sum(ad.clamped_log(x)),
         (6,), "positive"),
        ("gap", lambda r, p: lambda x: p(ad.global_avg_pool(x)), (2, 3, 2, 2), False),
        ("subsample", lambda r, p: lambda x: ad.scalar_sum(ad.temporal_subsample(x, 2)),
         (2, 5, 2, 2), False),
        ("weighted_sum", lambda r, p: lambda x: ad.scalar_sum(ad.weighted_sum(
            Tensor(np.array([1.7, -0.4])), [x, ad.tanh_act(x)])), (5,), False),
        ("concat", lambda r, p: lambda x: p(ad.concat([x, x])), (4,), False),
        ("mul_const", lambda r, p: lambda x: ad.scalar_sum(ad.mul_const(x, -2.5)), (5,), False),
    ])
    def test_op_gradients(self, name, builder, point_shape, away_from_zero):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        probe_size = {"softmax": 5, "gap": 2, "concat": 8}.get(name, 1)
        f = builder(rng, self._probe(rng, probe_size))
        for trial in range(3):
            sample = rng.standard_normal(point_shape)
            if away_from_zero == "positive":
                sample = np.abs(sample) + 0.5
            elif away_from_zero:
                sample = np.where(np.abs(sample) < 0.2, np.sign(sample) + 0.5, sample)
            assert ad.grad_check(f, Tensor(sample)) < 1e-4, f"{name} trial {trial}"

    def test_conv3d_gradients_all_arguments(self):
        rng = np.random.default_rng(9)
        xv = rng.standard_normal((2, 4, 3, 3))
        kv = rng.standard_normal((2, 2, 3, 3, 3))
        bv = rng.standard_normal(2)
        probe = Tensor(rng.standard_normal((2, 2, 2, 2)))

        def out_sum(x, k, b):
            return ad.scalar_sum(ad.mul_elementwise(
                ad.conv3d(x, k, b, stride=2, padding=1), probe))

        assert ad.grad_check(lambda x: out_sum(x, Tensor(kv), Tensor(bv)), Tensor(xv)) < 1e-4
        assert ad.grad_check(lambda k: out_sum(Tensor(xv), k, Tensor(bv)), Tensor(kv)) < 1e-4
        assert ad.grad_check(lambda b: out_sum(Tensor(xv), Tensor(kv), b), Tensor(bv)) < 1e-4

    @pytest.mark.parametrize("dims,kdims,stride,pad", [
        ((4, 5, 3), (3, 3, 3), 1, 1),    # the network's 3x3x3 convs
        ((4, 5, 3), (1, 1, 1), 1, 0),    # the network's projection
        ((3, 2, 4), (1, 1, 1), 1, 1),    # padding >= kernel: the input gradient is cropped
        ((3, 4, 2), (2, 3, 1), 1, 2),    # cropped on two axes, padded on one
        ((5, 6, 7), (2, 3, 2), 2, 1),    # (n + 2p - k) % s != 0 on every axis
        ((7, 5, 8), (2, 3, 3), 3, 0),
        ((4, 4, 4), (3, 3, 3), (2, 3, 1), (0, 1, 2)),
    ])
    def test_conv3d_cases_all_arguments(self, dims, kdims, stride, pad):
        rng = np.random.default_rng(zlib.crc32(repr((dims, kdims, stride, pad)).encode()))
        xv = rng.standard_normal((2,) + dims)
        kv = rng.standard_normal((3, 2) + kdims)
        bv = rng.standard_normal(3)
        triple = lambda v: (v,) * 3 if isinstance(v, int) else v
        ref = naive_conv3d(xv, kv, bv, triple(stride), triple(pad))
        out = ad.conv3d(Tensor(xv), Tensor(kv), Tensor(bv), stride=stride, padding=pad)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.values, ref, atol=1e-10)
        probe = Tensor(rng.standard_normal(ref.shape))

        def out_sum(x, k, b):
            return ad.scalar_sum(ad.mul_elementwise(
                ad.conv3d(x, k, b, stride=stride, padding=pad), probe))

        assert ad.grad_check(lambda x: out_sum(x, Tensor(kv), Tensor(bv)), Tensor(xv)) < 1e-6
        assert ad.grad_check(lambda k: out_sum(Tensor(xv), k, Tensor(bv)), Tensor(kv)) < 1e-6
        assert ad.grad_check(lambda b: out_sum(Tensor(xv), Tensor(kv), b), Tensor(bv)) < 1e-6

    def test_linear_gradients_all_arguments(self):
        rng = np.random.default_rng(10)
        xv, wv, bv = rng.standard_normal(5), rng.standard_normal((3, 5)), rng.standard_normal(3)
        probe = Tensor(rng.standard_normal(3))

        def out_sum(x, w, b):
            return ad.scalar_sum(ad.mul_elementwise(ad.linear(x, w, b), probe))

        assert ad.grad_check(lambda x: out_sum(x, Tensor(wv), Tensor(bv)), Tensor(xv)) < 1e-9
        assert ad.grad_check(lambda w: out_sum(Tensor(xv), w, Tensor(bv)), Tensor(wv)) < 1e-9
        assert ad.grad_check(lambda b: out_sum(Tensor(xv), Tensor(wv), b), Tensor(bv)) < 1e-9

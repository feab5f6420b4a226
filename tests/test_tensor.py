import numpy as np
import pytest

import memvo.tensor as T


def conv2d_reference(x, kernel, bias, stride=1, padding=0):
    """Definitional nested-loop convolution, the oracle for the fast path."""
    c, h, w = x.shape
    o, _, k, _ = kernel.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    out = np.zeros((o, h_out, w_out))
    for oc in range(o):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for ic in range(c):
                    for di in range(k):
                        for dj in range(k):
                            acc += kernel[oc, ic, di, dj] * xp[ic, i * stride + di, j * stride + dj]
                out[oc, i, j] = acc
        out[oc] += bias[oc]
    return out



def conv2d_tensordot(x, kernel, bias, stride=1, padding=0, channels=None):
    """The conv2d op the matmul form replaced: np.pad, then one tensordot over
    the strided im2col view; the oracle for values and gradients. A
    (C,B,H,W) batch runs as B lone calls. channels (lo, hi) convolves with a
    copy of kernel[:, lo:hi] and returns a full-size kernel gradient, zero
    outside the block; bias None adds none."""
    if x.data.ndim == 4:
        return T.stack_batch([conv2d_tensordot(T.take_batch(x, i), kernel, bias, stride, padding,
                                               channels)
                              for i in range(x.data.shape[1])])
    lo, hi = channels or (0, kernel.data.shape[1])
    weight = kernel.data[:, lo:hi].copy()
    bias = T.Tensor(np.zeros(len(weight))) if bias is None else T._as_tensor(bias)
    c, h, w = x.data.shape
    o, _, k, _ = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out, w_out = (hp - k) // stride + 1, (wp - k) // stride + 1
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2 = xp.strides
    cols = np.lib.stride_tricks.as_strided(xp, shape=(c, k, k, h_out, w_out),
                                           strides=(s0, s1, s2, stride * s1, stride * s2),
                                           writeable=False)
    out_data = np.tensordot(weight, cols, axes=([1, 2, 3], [0, 1, 2])) + bias.data[:, None, None]

    def backward_fn(g):
        dk = np.zeros_like(kernel.data)
        dk[:, lo:hi] = np.tensordot(g, cols, axes=([1, 2], [3, 4]))
        dcols = np.tensordot(weight, g, axes=([0], [0]))
        dxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                dxp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride] += dcols[:, di, dj]
        return dxp[:, padding:hp - padding, padding:wp - padding], dk, g.sum(axis=(1, 2))

    return T._make(out_data, (x, kernel, bias), backward_fn)


class TestArithmetic:
    def test_add_mul_forward(self):
        a = T.Tensor([1.0, 2.0, 3.0])
        b = T.Tensor([4.0, 5.0, 6.0])
        assert np.array_equal(T.add(a, b).data, [5.0, 7.0, 9.0])
        assert np.array_equal(T.mul(a, b).data, [4.0, 10.0, 18.0])

    def test_scalar_broadcast(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        s = T.Tensor(2.0)
        assert np.array_equal(T.mul(a, s).data, [[2.0, 4.0], [6.0, 8.0]])
        assert np.array_equal(T.add(a, 1.0).data, [[2.0, 3.0], [4.0, 5.0]])

    def test_shape_mismatch_rejected(self):
        a = T.Tensor(np.zeros(3))
        b = T.Tensor(np.zeros(4))
        with pytest.raises(ValueError):
            T.add(a, b)
        with pytest.raises(ValueError):
            T.mul(a, b)

    def test_div_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            T.div(T.Tensor(1.0), T.Tensor(0.0))

    def test_grad_accumulates_on_reuse(self):
        x = T.Tensor(3.0, requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1 = 7
        y.backward()
        assert np.allclose(x.grad, 7.0)

    def test_first_gradient_is_a_copy(self):
        # add hands the same g to both parents; a kept reference would make a
        # later accumulation into one leak into the other
        a = T.Tensor(np.ones(3), requires_grad=True)
        b = T.Tensor(np.ones(3), requires_grad=True)
        T.tsum(T.add(T.add(a, b), a)).backward()
        assert a.grad is not b.grad
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_backward_needs_scalar_root(self):
        x = T.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            T.mul(x, 2.0).backward()

    def test_scalar_broadcast_gradient(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        s = T.Tensor(1.7, requires_grad=True)
        T.tsum(T.mul(a, s)).backward()
        assert np.allclose(a.grad, 1.7)
        assert np.allclose(s.grad, np.sum(a.data))

    def test_detach_cuts_graph(self):
        x = T.Tensor(2.0, requires_grad=True)
        y = T.mul(x, 3.0).detach()
        assert not y.requires_grad
        z = T.mul(T.mul(x, y), 1.0)
        z.backward()
        assert np.allclose(x.grad, 6.0)  # y treated as the constant 6


class TestActivations:
    def test_known_values(self):
        z = T.Tensor([0.0])
        assert T.sigmoid(z).data.item() == 0.5
        assert T.tanh(z).data.item() == 0.0

    def test_sigmoid_saturation_stable(self):
        v = T.sigmoid(T.Tensor([-1000.0, 1000.0])).data
        assert v[0] == 0.0 and v[1] == 1.0

    def test_sigmoid_bit_exact_against_three_exp_expression(self):
        # the expression sigmoid used before it computed exp(-|x|) once
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(scale=3.0, size=200), rng.uniform(20.0, 800.0, 50),
                            -rng.uniform(20.0, 800.0, 50), [0.0, -0.0, 745.0, -745.0]])
        want = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert T.sigmoid(T.Tensor(x)).data.tobytes() == want.tobytes()

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        for fn in (T.sigmoid, T.tanh):
            x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            err = T.finite_diff_check(lambda t: T.tsum(fn(t)), x)
            assert err < 1e-8

    def test_sqrt_gradient_and_guard(self):
        x = T.Tensor([4.0], requires_grad=True)
        T.tsum(T.sqrt(x)).backward()
        assert np.allclose(x.grad, 0.25)
        z = T.Tensor([0.0], requires_grad=True)
        T.tsum(T.sqrt(z)).backward()
        assert np.allclose(z.grad, 0.0)
        with pytest.raises(ValueError):
            T.sqrt(T.Tensor([-1.0]))


class TestConv:
    def test_matches_reference_forward(self):
        rng = np.random.default_rng(2)
        cases = [
            (1, 1, 3, 5, 5, 1, 0), (2, 3, 3, 6, 6, 1, 1), (3, 4, 5, 9, 7, 2, 2),
            (2, 2, 7, 12, 10, 2, 3), (4, 2, 3, 8, 8, 3, 1), (1, 5, 1, 4, 4, 1, 0),
        ]
        for c, o, k, h, w, stride, pad in cases:
            x = rng.normal(size=(c, h, w))
            kern = rng.normal(size=(o, c, k, k))
            bias = rng.normal(size=o)
            got = T.conv2d(T.Tensor(x), T.Tensor(kern), T.Tensor(bias),
                           stride=stride, padding=pad).data
            want = conv2d_reference(x, kern, bias, stride, pad)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    # (C, O, k, H, W, stride, padding): the desk encoder's layer shapes, the
    # fused ConvLSTM gate conv, unpadded cases, strides larger than k (the
    # scatter leaves gaps), H != W at stride 3, and one input channel
    TENSORDOT_CASES = [
        (6, 8, 7, 64, 64, 2, 3), (8, 8, 5, 32, 32, 2, 2), (8, 16, 3, 16, 16, 2, 1),
        (16, 16, 3, 8, 8, 1, 1), (16, 32, 3, 8, 8, 2, 1), (128, 256, 3, 4, 4, 1, 1),
        (3, 4, 3, 9, 7, 1, 0), (2, 3, 3, 7, 8, 2, 0),
        (3, 4, 1, 9, 9, 2, 0), (2, 3, 2, 10, 9, 3, 1), (1, 2, 3, 11, 7, 3, 2),
    ]

    def test_matches_tensordot_conv_values_and_gradients(self):
        rng = np.random.default_rng(12)
        for c, o, k, h, w, stride, pad in self.TENSORDOT_CASES:
            arrays = [rng.normal(size=(c, h, w)), rng.normal(size=(o, c, k, k)),
                      rng.normal(size=o)]
            h_out, w_out = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
            weights = T.Tensor(rng.normal(size=(o, h_out, w_out)))
            results = []
            for conv in (T.conv2d, conv2d_tensordot):
                x, kern, bias = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = conv(x, kern, bias, stride=stride, padding=pad)
                T.tsum(T.mul(out, weights)).backward()
                results.append((out.data, x.grad, kern.grad, bias.grad))
            for got, want in zip(*results):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-12, (c, o, k, stride, pad)
            # the input gradient adds each entry's terms in the loop's (di, dj) order
            assert np.array_equal(results[0][1], results[1][1]), (c, o, k, stride, pad)

    def test_col2im_index_is_each_entrys_padded_position(self):
        # (C, B, hp, wp, k, stride), two of them of equal index size
        for c, b, hp, wp, k, stride in [(2, 1, 6, 8, 3, 1), (2, 1, 8, 6, 3, 1), (3, 1, 9, 9, 1, 2),
                                        (1, 1, 11, 7, 3, 3), (2, 3, 6, 8, 3, 1), (3, 2, 9, 7, 3, 2)]:
            index = T._col2im_index(c, b, hp, wp, k, stride)
            h_out, w_out = (hp - k) // stride + 1, (wp - k) // stride + 1
            bi, ci, di, dj, i, j = np.indices((b, c, k, k, h_out, w_out))
            want = (((ci * b + bi) * hp + di + stride * i) * wp + dj + stride * j).reshape(-1)
            assert np.array_equal(index, want)
            assert index is T._col2im_index(c, b, hp, wp, k, stride)
            # the cached index is writeable; a conv2d forward and backward leaves it as built
            x = T.Tensor(np.ones((c, b, hp, wp) if b > 1 else (c, hp, wp)), requires_grad=True)
            kern = T.Tensor(np.ones((2, c, k, k)), requires_grad=True)
            T.tsum(T.conv2d(x, kern, T.Tensor(np.zeros(2)), stride=stride)).backward()
            assert index is T._col2im_index(c, b, hp, wp, k, stride)
            assert np.array_equal(index, T._col2im_index.__wrapped__(c, b, hp, wp, k, stride))
        wide, tall = T._col2im_index(2, 1, 6, 8, 3, 1), T._col2im_index(2, 1, 8, 6, 3, 1)
        assert wide.shape == tall.shape and not np.array_equal(wide, tall)

    # (C, O, H, W, B): the tiny ConvLSTM's (16x72)(72x4) gate GEMM and the
    # desk fuse conv's (64x576)(576x16) one, where a single GEMM over all B
    # entries' columns gives other bits than a lone call, and the desk
    # ConvLSTM's (256x1152)(1152x16)
    BATCH_CASES = [(8, 16, 2, 2, 10), (64, 64, 4, 4, 10), (128, 256, 4, 4, 3)]

    def test_batch_entries_match_lone_calls(self):
        rng = np.random.default_rng(16)
        for c, o, h, w, b in self.BATCH_CASES:
            x = T.Tensor(rng.normal(size=(c, b, h, w)), requires_grad=True)
            kern = T.Tensor(rng.normal(size=(o, c, 3, 3)), requires_grad=True)
            bias = T.Tensor(rng.normal(size=o), requires_grad=True)
            weights = rng.normal(size=(o, b, h, w))
            out = T.conv2d(x, kern, bias, padding=1)
            assert out.shape == (o, b, h, w)
            T.tsum(T.mul(out, weights)).backward()
            for i in range(b):
                xi = T.Tensor(x.data[:, i], requires_grad=True)
                lone = T.conv2d(xi, kern, bias, padding=1)
                assert np.array_equal(out.data[:, i], lone.data), (c, o, i)
                # the input gradient is per entry too
                T.tsum(T.mul(lone, weights[:, i])).backward()
                assert np.array_equal(x.grad[:, i], xi.grad), (c, o, i)

    @pytest.mark.parametrize("o", [2, 8])  # O <= H'*W' = 4 multiplies at once, O = 8 defers
    def test_batch_gradients_match_fd(self, o):
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(o, 3, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=o), requires_grad=True)
        weights = T.Tensor(rng.normal(size=(o, 2, 2, 2)))

        def f(_):
            return T.tsum(T.mul(T.tanh(T.conv2d(x, k, b, padding=1)), weights))

        for t in (x, k, b):
            assert T.finite_diff_check(f, t) < 1e-6
        # and the same gradients as B lone calls of the loop oracle
        k.zero_grad()
        f(None).backward()
        oracle = T.Tensor(k.data.copy(), requires_grad=True)
        T.tsum(T.mul(T.tanh(conv2d_tensordot(x, oracle, b, padding=1)), weights)).backward()
        assert np.max(np.abs(k.grad - oracle.grad)) < 1e-12

    # (C of the kernel, O, block, side, B): the tiny and desk ConvLSTM halves
    # and a middle block of a small kernel
    BLOCK_CASES = [(8, 16, (0, 4), 2, 3), (8, 16, (4, 8), 2, 1),
                   (128, 256, (0, 64), 4, 2), (128, 256, (64, 128), 4, 1), (6, 4, (2, 5), 5, 2)]

    def test_channel_block_matches_a_copied_kernel(self):
        rng = np.random.default_rng(18)
        for c, o, (lo, hi), side, b in self.BLOCK_CASES:
            kern = T.Tensor(rng.normal(size=(o, c, 3, 3)), requires_grad=True)
            copy = T.Tensor(kern.data[:, lo:hi].copy(), requires_grad=True)
            x, xc = (T.Tensor(a, requires_grad=True)
                     for a in [rng.normal(size=(hi - lo, b, side, side))] * 2)
            weights = rng.normal(size=(o, b, side, side))
            got = T.conv2d(x, kern, None, padding=1, channels=(lo, hi))
            want = T.conv2d(xc, copy, np.zeros(o), padding=1)
            assert np.array_equal(got.data, want.data), (c, lo)
            T.tsum(T.mul(got, weights)).backward()
            T.tsum(T.mul(want, weights)).backward()
            assert np.array_equal(x.grad, xc.grad)
            assert np.max(np.abs(kern.grad[:, lo:hi] - copy.grad)) < 1e-12
            outside = np.ones(c, dtype=bool)
            outside[lo:hi] = False
            assert np.all(kern.grad[:, outside] == 0.0)

    def test_no_bias(self):
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.normal(size=(3, 5, 5)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        out = T.conv2d(x, k, None, padding=1)
        assert out._parents == (x, k)
        assert np.array_equal(out.data, T.conv2d(x, k, np.zeros(2), padding=1).data)
        assert T.finite_diff_check(lambda _: T.tsum(T.tanh(T.conv2d(x, k, None, padding=1))),
                                   k) < 1e-6

    def test_channel_block_validation(self):
        x, k = T.Tensor(np.zeros((2, 4, 4))), T.Tensor(np.zeros((3, 4, 3, 3)))
        for block in ((2, 2), (-1, 1), (3, 5)):
            with pytest.raises(ValueError, match=r"^conv2d channels \[.*\] out of range for "
                               r"a kernel of 4$"):
                T.conv2d(x, k, None, channels=block)
        with pytest.raises(ValueError, match="channel mismatch: input 2 vs kernel 3"):
            T.conv2d(x, k, None, channels=(1, 4))

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 6, 7)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=3), requires_grad=True)

        def loss_wrt(which):
            def f(_):
                out = T.conv2d(x, k, b, stride=2, padding=1)
                return T.tsum(T.mul(out, out))
            return f

        for t in (x, k, b):
            assert T.finite_diff_check(loss_wrt(t), t) < 1e-6

    def test_shape_errors(self):
        x, b = T.Tensor(np.zeros((2, 5, 5))), T.Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            T.conv2d(x, T.Tensor(np.zeros((3, 4, 3, 3))), b)  # channel mismatch
        with pytest.raises(ValueError):
            T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 5))), b)  # non-square
        with pytest.raises(ValueError):
            T.conv2d(x, T.Tensor(np.zeros((3, 2, 9, 9))), b)  # kernel too large
        with pytest.raises(ValueError):
            T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 3))), b, stride=0)
        with pytest.raises(ValueError):
            T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 3))), T.Tensor(np.zeros(4)))

    def test_stride_padding_shape(self):
        x = T.Tensor(np.zeros((1, 11, 9)))
        k = T.Tensor(np.zeros((2, 1, 3, 3)))
        assert T.conv2d(x, k, np.zeros(2), stride=2, padding=1).data.shape == (2, 6, 5)


def recurrent_graph(conv, kernel, x0, weights, steps=10):
    """h <- tanh(conv(h, kernel)) for steps steps from x0: one kernel used at
    every step, as a ConvLSTM stage uses its gate kernel."""
    h, bias = x0, T.Tensor(np.zeros(kernel.shape[0]))
    for _ in range(steps):
        h = T.tanh(conv(h, kernel, bias, padding=1))
    return T.tsum(T.mul(h, weights))


TAPED_OPS = {"add", "mul", "div", "tsum", "sqrt", "sigmoid", "tanh", "conv2d", "concat_channels",
             "scale_channels", "weighted_sum", "_cosine", "global_avg_pool", "linear", "softmax",
             "stack", "slice1d", "stack_batch", "take_batch"}
# parent positions whose gradient an op skips when that parent is constant
GUARDED = {"conv2d": (0, 1), "_cosine": (1,), "scale_channels": (0,)}


def every_op_graph(seed):
    """A scalar loss through every taped op, each op of two or more operands
    taking a constant. Returns (loss, leaves). The first conv reads a
    constant input with a small kernel (O = 2 <= H'*W' = 4, multiplied at
    once); the second queues its kernel gradient (O = 8 > 4); the third has a
    constant kernel that would be queued if it were not constant."""
    rng = np.random.default_rng(seed)
    k_small, kernel, bias, weight = (T.Tensor(rng.normal(size=shape), requires_grad=True)
                                     for shape in ((2, 2, 3, 3), (8, 2, 3, 3), (8,), (6, 9)))
    mem = rng.normal(size=(4, 9, 2, 2))
    c0 = T.conv2d(rng.normal(size=(2, 4, 4)), k_small, np.zeros(2), stride=2, padding=1)
    c1 = T.conv2d(c0, kernel, np.zeros(8), padding=1)
    c1 = T.take_batch(T.stack_batch([rng.normal(size=(8, 2, 2)), c1]), 1)
    c2 = T.conv2d(T.tanh(c1), rng.normal(size=(8, 8, 1, 1)), bias)
    cat = T.concat_channels([T.sigmoid(c2), rng.normal(size=(1, 2, 2))])
    scaled = T.scale_channels(mem, T.softmax(T.channel_cosine(cat, mem)))
    pooled = T.global_avg_pool(T.weighted_sum(rng.normal(size=4), scaled))
    lin = T.linear(weight, pooled, rng.normal(size=6))
    terms = T.mul(T.stack([T.tsum(T.slice1d(lin, 1, 4)), T.tsum(T.cosine_similarity(cat, mem)),
                           T.Tensor(2.0)]), rng.normal(size=3))
    loss = T.div(T.sqrt(T.add(T.tsum(T.mul(terms, terms)), 1.0)), 3.0)
    return loss, (k_small, kernel, bias, weight)


class TestDeferredKernelGradient:
    # kernel (8,8,3,3) on (8,2,2) maps: O = 8 > H'*W' = 4, so conv2d defers
    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(8, 8, 3, 3)) * 0.3, rng.normal(size=(8, 2, 2)),
                T.Tensor(rng.normal(size=(8, 2, 2))))

    def grads(self, conv, kern, x0, weights, through=None, calls=1):
        k = T.Tensor(kern.copy(), requires_grad=True)
        x = T.Tensor(x0.copy(), requires_grad=True)
        used = k if through is None else through(k)
        for _ in range(calls):
            recurrent_graph(conv, used, x, weights).backward()
        return k.grad, x.grad

    def assert_match(self, monkeypatch, **kw):
        flushes = []
        flush = T.Tensor._flush
        monkeypatch.setattr(T.Tensor, "_flush", lambda t: (flushes.append(t), flush(t)))
        kern, x0, weights = self.arrays(40)
        got = self.grads(T.conv2d, kern, x0, weights, **kw)
        assert len(flushes) == kw.get("calls", 1)
        want = self.grads(conv2d_tensordot, kern, x0, weights, **kw)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_ten_uses_flush_as_one_gemm(self, monkeypatch):
        self.assert_match(monkeypatch)

    def test_non_leaf_kernel(self, monkeypatch):
        self.assert_match(monkeypatch, through=lambda k: T.mul(k, 2.0))

    def test_two_backward_calls_add_up(self, monkeypatch):
        self.assert_match(monkeypatch, calls=2)
        # twice on one graph: the same as one backward of twice the loss
        kern, x0, weights = self.arrays(41)
        k = T.Tensor(kern, requires_grad=True)
        loss = recurrent_graph(T.conv2d, k, T.Tensor(x0), weights)
        loss.backward()
        once = k.grad.copy()
        loss.backward()
        assert np.max(np.abs(k.grad - 2.0 * once)) < 1e-12

    def test_two_blocks_flush_as_one_gemm_each(self, monkeypatch):
        # a ConvLSTM's kernel: one batched call over the input block, then a
        # hidden-block call per step; one backward flushes each block once
        rng = np.random.default_rng(47)
        kern, x0 = rng.normal(size=(16, 8, 3, 3)) * 0.3, rng.normal(size=(4, 3, 2, 2))
        queued = []
        flush = T.Tensor._flush
        monkeypatch.setattr(T.Tensor, "_flush", lambda t: (
            queued.append({block: len(q) for block, q in t._deferred.items()}), flush(t)))

        def loss(conv, k):
            zx = conv(T.Tensor(x0), k, np.full(16, 0.1), padding=1, channels=(0, 4))
            h = None
            for t in range(3):
                z = T.take_batch(zx, t)
                if h is not None:
                    z = T.add(z, conv(h, k, None, padding=1, channels=(4, 8)))
                h = T.tanh(T.slice1d(z, 0, 4))
            return T.tsum(T.mul(h, h))

        got, want = (T.Tensor(kern.copy(), requires_grad=True) for _ in range(2))
        loss(T.conv2d, got).backward()
        assert queued == [{(0, 4): 3, (4, 8): 2}]
        loss(conv2d_tensordot, want).backward()
        assert np.max(np.abs(got.grad - want.grad)) < 1e-12

    def test_small_kernels_multiply_at_once(self, monkeypatch):
        # O = 2 <= H'*W' = 4: nothing is queued
        monkeypatch.setattr(T.Tensor, "_defer", None)
        k = T.Tensor(np.ones((2, 8, 3, 3)), requires_grad=True)
        T.tsum(T.conv2d(T.Tensor(np.ones((8, 2, 2))), k, np.zeros(2), padding=1)).backward()
        assert k.grad is not None

    def test_a_raising_backward_leaves_no_queue(self):
        kern, x0, weights = self.arrays(42)

        def raising(x):
            def backward_fn(g):
                raise RuntimeError("backward failed")
            return T._make(x.data, (x,), backward_fn)

        k = T.Tensor(kern.copy(), requires_grad=True)
        x = T.Tensor(x0, requires_grad=True)
        # the convs queue their kernel gradients before the walk reaches raising
        with pytest.raises(RuntimeError, match="backward failed"):
            recurrent_graph(T.conv2d, k, raising(x), weights).backward()
        assert k._deferred is None and k.grad is None
        recurrent_graph(T.conv2d, k, T.Tensor(x0), weights).backward()
        oracle = T.Tensor(kern.copy(), requires_grad=True)
        recurrent_graph(conv2d_tensordot, oracle, T.Tensor(x0), weights).backward()
        assert np.max(np.abs(k.grad - oracle.grad)) < 1e-12

    def test_zero_grad_drops_the_queue(self):
        kern, x0, _ = self.arrays(43)
        k = T.Tensor(kern, requires_grad=True)
        out = T.conv2d(T.Tensor(x0), k, np.zeros(8), padding=1)
        out._backward_fn(np.ones(out.shape))
        assert len(k._deferred) == 1
        k.zero_grad()
        assert k._deferred is None and k.grad is None

    def test_only_leaves_keep_gradients(self):
        kern, x0, weights = self.arrays(44)
        k = T.Tensor(kern, requires_grad=True)
        x = T.Tensor(x0, requires_grad=True)
        k2 = T.mul(k, 2.0)
        h = T.tanh(T.conv2d(x, k2, np.zeros(8), padding=1))
        loss = T.tsum(T.mul(h, weights))
        loss.backward()
        assert k.grad is not None and x.grad is not None
        assert k2.grad is None and h.grad is None and loss.grad is None
        assert weights.grad is None  # a constant never gets one
        # every op, each with a constant operand: only the leaves hold a .grad
        loss, leaves = every_op_graph(45)
        loss.backward()
        for node in T._topo_order(loss):
            assert (node.grad is not None) == any(node is leaf for leaf in leaves)


class TestStructuralOps:
    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(4)
        parts = [rng.normal(size=(c, 3, 4)) for c in (1, 2, 3)]
        cat = T.concat_channels([T.Tensor(p) for p in parts])
        assert cat.data.shape == (6, 3, 4)
        assert np.array_equal(cat.data[0:1], parts[0])
        assert np.array_equal(cat.data[1:3], parts[1])
        assert np.array_equal(cat.data[3:6], parts[2])

    def test_concat_gradient_routes_back(self):
        a = T.Tensor(np.ones((1, 2, 2)), requires_grad=True)
        b = T.Tensor(np.ones((2, 2, 2)), requires_grad=True)
        cat = T.concat_channels([a, b])
        T.tsum(T.mul(cat, T.Tensor(np.arange(12.0).reshape(3, 2, 2)))).backward()
        assert np.array_equal(a.grad, np.arange(4.0).reshape(1, 2, 2))
        assert np.array_equal(b.grad, np.arange(4.0, 12.0).reshape(2, 2, 2))

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.concat_channels([T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros((1, 3, 2)))])
        with pytest.raises(ValueError):  # a batch beside a lone map
            T.concat_channels([T.Tensor(np.zeros((1, 2, 2, 2))), T.Tensor(np.zeros((1, 2, 2)))])

    def test_concat_batches(self):
        rng = np.random.default_rng(18)
        parts = [rng.normal(size=(c, 3, 2, 2)) for c in (1, 2)]
        cat = T.concat_channels([T.Tensor(p) for p in parts])
        assert np.array_equal(cat.data, np.concatenate(parts))

    def test_stack_and_take_batch(self):
        rng = np.random.default_rng(19)
        maps = [T.Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True) for _ in range(3)]
        batch = T.stack_batch(maps)
        assert batch.shape == (2, 3, 3, 2)
        for i, m in enumerate(maps):
            assert np.array_equal(batch.data[:, i], m.data)
            assert np.array_equal(T.take_batch(batch, i).data, m.data)
        w = T.Tensor(rng.normal(size=(2, 3, 3, 2)))
        v = T.Tensor(rng.normal(size=(2, 3, 2)))
        for i in range(3):
            others = maps[:i] + [None] + maps[i + 1:]

            def stacked(t, i=i, others=others):
                return T.stack_batch(others[:i] + [t] + others[i + 1:])

            assert T.finite_diff_check(lambda t: T.tsum(T.mul(stacked(t), w)), maps[i]) < 1e-8
            # through both ops: only entry i reaches the loss
            assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.take_batch(stacked(t), i), v)),
                                       maps[i]) < 1e-8
        x = T.Tensor(batch.data.copy(), requires_grad=True)
        assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.take_batch(t, 2), v)), x) < 1e-8
        assert not np.any(x.grad[:, :2])
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="take_batch"):
                T.take_batch(batch, bad)
        with pytest.raises(ValueError):
            T.take_batch(maps[0], 0)  # no batch axis
        with pytest.raises(ValueError):
            T.stack_batch([])
        with pytest.raises(ValueError):
            T.stack_batch([maps[0], T.Tensor(np.zeros((2, 2, 2)))])

    def test_scale_channels(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 2))
        w = rng.normal(size=3)
        out = T.scale_channels(T.Tensor(x), T.Tensor(w)).data
        assert np.allclose(out, x * w[:, None, None])
        xt = T.Tensor(x, requires_grad=True)
        wt = T.Tensor(w, requires_grad=True)
        assert T.finite_diff_check(lambda t: T.tsum(T.scale_channels(t, wt)), xt) < 1e-8
        assert T.finite_diff_check(lambda t: T.tsum(T.scale_channels(xt, t)), wt) < 1e-8

    def test_scale_channels_slot_axis(self):
        # w (S,C) scales each channel of each slot of x (S,C,H,W)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4, 2, 2))
        w = rng.normal(size=(3, 4))
        out = T.scale_channels(T.Tensor(x), T.Tensor(w)).data
        for s_ in range(3):
            assert np.array_equal(out[s_], T.scale_channels(T.Tensor(x[s_]), T.Tensor(w[s_])).data)
        xt = T.Tensor(x, requires_grad=True)
        wt = T.Tensor(w, requires_grad=True)
        v = T.Tensor(rng.normal(size=x.shape))
        assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.scale_channels(t, wt), v)), xt) < 1e-8
        assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.scale_channels(xt, t), v)), wt) < 1e-8
        for bad in ((4,), (3, 2), (3, 4, 2, 2, 1)):
            with pytest.raises(ValueError):
                T.scale_channels(T.Tensor(x), T.Tensor(np.ones(bad)))

    def test_weighted_sum_matches_loop(self):
        rng = np.random.default_rng(14)
        for s_ in (1, 3, 10):
            w = rng.normal(size=s_)
            x = rng.normal(size=(s_, 3, 2, 2))
            got = T.weighted_sum(T.Tensor(w), T.Tensor(x)).data
            want = sum(wi * xi for wi, xi in zip(w, x))
            assert got.shape == (3, 2, 2)
            assert np.max(np.abs(got - want)) < 1e-12
            wt = T.Tensor(w, requires_grad=True)
            xt = T.Tensor(x, requires_grad=True)
            v = T.Tensor(rng.normal(size=(3, 2, 2)))
            assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.weighted_sum(t, xt), v)), wt) < 1e-8
            assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.weighted_sum(wt, t), v)), xt) < 1e-8
        with pytest.raises(ValueError):
            T.weighted_sum(T.Tensor(np.ones(2)), T.Tensor(np.ones((3, 2, 2))))
        with pytest.raises(ValueError):
            T.weighted_sum(T.Tensor(np.ones((2, 1))), T.Tensor(np.ones((2, 2, 2))))

    def test_global_avg_pool(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = T.global_avg_pool(T.Tensor(x)).data
        assert np.allclose(out, x.mean(axis=(1, 2)))
        xt = T.Tensor(x, requires_grad=True)
        T.tsum(T.global_avg_pool(xt)).backward()
        assert np.allclose(xt.grad, 1.0 / 12.0)

    def test_linear(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 5))
        x = rng.normal(size=5)
        b = rng.normal(size=4)
        out = T.linear(T.Tensor(w), T.Tensor(x), T.Tensor(b)).data
        assert np.allclose(out, w @ x + b)
        wt = T.Tensor(w, requires_grad=True)
        assert T.finite_diff_check(lambda t: T.tsum(T.linear(t, T.Tensor(x), T.Tensor(b))), wt) < 1e-8

    def test_stack_leading_axis(self):
        xs = [T.Tensor(float(i), requires_grad=True) for i in range(4)]
        v = T.stack(xs)
        assert np.array_equal(v.data, [0.0, 1.0, 2.0, 3.0])
        T.tsum(T.mul(v, T.Tensor([0.0, 0.0, 5.0, 0.0]))).backward()
        assert np.allclose(xs[2].grad, 5.0)
        assert np.allclose(xs[0].grad, 0.0)
        rng = np.random.default_rng(15)
        maps = [T.Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True) for _ in range(3)]
        memory = T.stack(maps)
        assert memory.data.shape == (3, 2, 3, 3)
        assert all(np.array_equal(memory.data[i], m.data) for i, m in enumerate(maps))
        weights = rng.normal(size=memory.data.shape)
        T.tsum(T.mul(memory, T.Tensor(weights))).backward()
        assert all(np.array_equal(m.grad, weights[i]) for i, m in enumerate(maps))
        with pytest.raises(ValueError):
            T.stack([T.Tensor(np.zeros((2, 3, 3))), T.Tensor(np.zeros((2, 3, 2)))])
        with pytest.raises(ValueError):
            T.stack([])

    def test_slice1d_leading_axis_of_a_map(self):
        rng = np.random.default_rng(13)
        z = T.Tensor(rng.normal(size=(8, 2, 3)), requires_grad=True)
        parts = [T.slice1d(z, k, k + 2) for k in range(0, 8, 2)]
        assert all(np.array_equal(p.data, z.data[k:k + 2]) for p, k in zip(parts, range(0, 8, 2)))
        weights = rng.normal(size=(4, 2, 2, 3))
        total = None
        for p, wk in zip(parts, weights):
            term = T.tsum(T.mul(p, T.Tensor(wk)))
            total = term if total is None else T.add(total, term)
        total.backward()
        assert np.array_equal(z.grad, weights.reshape(8, 2, 3))
        with pytest.raises(ValueError):
            T.slice1d(T.Tensor(1.0), 0, 1)

    def test_slice1d_bounds(self):
        v = T.Tensor(np.arange(4.0))
        with pytest.raises(ValueError):
            T.slice1d(v, 2, 2)
        with pytest.raises(ValueError):
            T.slice1d(v, 0, 5)


class TestSoftmax:
    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 12)) * 10
            s = T.softmax(T.Tensor(v)).data
            assert abs(s.sum() - 1.0) < 1e-12
            s2 = T.softmax(T.Tensor(v + 123.0)).data
            assert np.max(np.abs(s - s2)) < 1e-12

    def test_uniform_on_equal_scores(self):
        s = T.softmax(T.Tensor(np.zeros(8))).data
        assert np.array_equal(s, np.full(8, 0.125))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.normal(size=6), requires_grad=True)
        w = T.Tensor(rng.normal(size=6))
        err = T.finite_diff_check(lambda t: T.tsum(T.mul(T.softmax(t), w)), x)
        assert err < 1e-8

    def test_rows_of_2d_input(self):
        # (S,C): each row is the 1-D softmax of that row
        rng = np.random.default_rng(16)
        v = rng.normal(size=(5, 7)) * 10
        s = T.softmax(T.Tensor(v)).data
        for row, got in zip(v, s):
            assert np.array_equal(got, T.softmax(T.Tensor(row)).data)
        x = T.Tensor(v, requires_grad=True)
        w = T.Tensor(rng.normal(size=v.shape))
        assert T.finite_diff_check(lambda t: T.tsum(T.mul(T.softmax(t), w)), x) < 1e-8


def cosine_similarity_composed(a, b):
    """The composed cosine graph the fused op replaced: the oracle for it."""
    if float(np.sum(a.data * a.data)) == 0.0 or float(np.sum(b.data * b.data)) == 0.0:
        return T.Tensor(0.0)
    dot = T.tsum(T.mul(a, b))
    return T.div(dot, T.mul(T.sqrt(T.tsum(T.mul(a, a))), T.sqrt(T.tsum(T.mul(b, b)))))


def grad_of(t):
    return np.zeros_like(t.data) if t.grad is None else t.grad


def channel_mask(shape, c):
    mask = np.zeros(shape)
    mask[c] = 1.0
    return T.Tensor(mask)


class TestCosine:
    def test_matches_numpy(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(3, 4))
            got = float(T.cosine_similarity(T.Tensor(a), T.Tensor(b)).data)
            want = np.sum(a * b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(got - want) < 1e-12

    def test_zero_norm_gives_constant_zero(self):
        a = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        b = T.Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.cosine_similarity(a, b)
        assert float(out.data) == 0.0
        assert not out.requires_grad

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 3)))
        assert T.finite_diff_check(lambda t: T.cosine_similarity(t, b), a) < 1e-8

    def test_channel_cosine_matches_per_channel_loop(self):
        # fused op vs the composite definitional route, values and gradients;
        # masking every other channel to zero isolates channel c exactly
        rng = np.random.default_rng(11)
        for trial in range(10):
            a = rng.normal(size=(4, 3, 2))
            b = rng.normal(size=(4, 3, 2))
            if trial % 3 == 0:
                a[1] = 0.0  # exercise the dead-channel branch
            at1 = T.Tensor(a, requires_grad=True)
            bt1 = T.Tensor(b, requires_grad=True)
            fused = T.channel_cosine(at1, bt1)
            at2 = T.Tensor(a, requires_grad=True)
            bt2 = T.Tensor(b, requires_grad=True)
            looped = T.stack([cosine_similarity_composed(T.mul(at2, channel_mask(a.shape, c)),
                                                         T.mul(bt2, channel_mask(a.shape, c)))
                              for c in range(4)])
            assert np.max(np.abs(fused.data - looped.data)) < 1e-12
            w = T.Tensor(rng.normal(size=4))
            T.tsum(T.mul(fused, w)).backward()
            T.tsum(T.mul(looped, w)).backward()
            assert np.max(np.abs(at1.grad - at2.grad)) < 1e-12
            assert np.max(np.abs(bt1.grad - bt2.grad)) < 1e-12

    def test_matches_composed_graph(self):
        rng = np.random.default_rng(17)
        for shape in ((5,), (3, 4), (2, 3, 3)):
            a = T.Tensor(rng.normal(size=shape), requires_grad=True)
            b = T.Tensor(rng.normal(size=shape), requires_grad=True)
            a2 = T.Tensor(a.data.copy(), requires_grad=True)
            b2 = T.Tensor(b.data.copy(), requires_grad=True)
            fused = T.cosine_similarity(a, b)
            composed = cosine_similarity_composed(a2, b2)
            assert fused.data.shape == ()
            assert abs(float(fused.data) - float(composed.data)) < 1e-12
            fused.backward()
            composed.backward()
            assert np.max(np.abs(a.grad - a2.grad)) < 1e-12
            assert np.max(np.abs(b.grad - b2.grad)) < 1e-12

    def test_slot_axis_matches_per_slot(self):
        # (C,H,W) against (S,C,H,W): cosine gives (S,), channel_cosine (S,C),
        # each slot as if compared alone; a zero slot and a dead channel included
        rng = np.random.default_rng(18)
        for s_ in (1, 3, 10):
            a = rng.normal(size=(4, 3, 3))
            a[2] = 0.0
            m = rng.normal(size=(s_, 4, 3, 3))
            m[s_ // 2] = 0.0
            for op, out_shape in ((T.cosine_similarity, (s_,)), (T.channel_cosine, (s_, 4))):
                at = T.Tensor(a, requires_grad=True)
                mt = T.Tensor(m, requires_grad=True)
                out = op(at, mt)
                assert out.data.shape == out_shape
                w = rng.normal(size=out_shape)
                T.tsum(T.mul(out, T.Tensor(w))).backward()
                a_grad = np.zeros_like(a)
                for i in range(s_):
                    ai = T.Tensor(a, requires_grad=True)
                    mi = T.Tensor(m[i], requires_grad=True)
                    one = op(ai, mi)
                    assert np.max(np.abs(one.data - out.data[i])) < 1e-12
                    T.tsum(T.mul(one, T.Tensor(w[i]))).backward()
                    assert np.max(np.abs(grad_of(mi) - grad_of(mt)[i])) < 1e-12
                    a_grad += grad_of(ai)
                assert np.max(np.abs(a_grad - grad_of(at))) < 1e-12
                assert np.all(out.data[s_ // 2] == 0.0) and np.all(grad_of(mt)[s_ // 2] == 0.0)

    def test_slot_axis_shape_errors(self):
        a = T.Tensor(np.ones((2, 3, 3)))
        for bad in ((2, 3, 2), (4, 2, 3, 2), (2, 2, 2, 3, 3)):
            with pytest.raises(ValueError):
                T.cosine_similarity(a, T.Tensor(np.ones(bad)))
            with pytest.raises(ValueError):
                T.channel_cosine(a, T.Tensor(np.ones(bad)))

    def test_channel_cosine_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        a = T.Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 2, 2)))
        w = T.Tensor(rng.normal(size=3))
        err = T.finite_diff_check(lambda t: T.tsum(T.mul(T.channel_cosine(t, b), w)), a)
        assert err < 1e-8


class TestBackwardMachinery:
    def test_deep_chain_no_recursion_blowup(self):
        x = T.Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = T.add(y, 1.0)
        y.backward()
        assert np.allclose(x.grad, 1.0)

    def test_diamond_graph_grad(self):
        x = T.Tensor(2.0, requires_grad=True)
        a = T.mul(x, 3.0)
        b = T.mul(x, 4.0)
        T.mul(a, b).backward()  # 12 x^2, d/dx = 24 x = 48
        assert np.allclose(x.grad, 48.0)

    def test_each_backward_returns_one_gradient_per_parent(self):
        loss, (_, kernel, _, _) = every_op_graph(46)
        order = T._topo_order(loss)
        taped = [node for node in order if node._backward_fn is not None]
        ops = [node._backward_fn.__qualname__.split(".")[0] for node in taped]
        assert set(ops) == TAPED_OPS
        for node, op in zip(taped, ops):
            grads = node._backward_fn(np.ones(node.shape))
            assert len(grads) == len(node._parents)
            for i, (parent, g) in enumerate(zip(node._parents, grads)):
                if i in GUARDED.get(op, ()) and not parent.requires_grad:
                    assert g is None
                assert g is None or np.shape(g) == parent.shape
            # no call writes a .grad; only the big leaf kernel's queue grows
            assert all(n.grad is None for n in order)
        assert len(kernel._deferred) == 1
        assert all(n._deferred is None for n in order if n is not kernel)

    def test_finite_diff_check_flags_wrong_gradient(self):
        # a deliberately broken function: forward x^2 but we check against x^3's grad
        x = T.Tensor(np.array([1.5]), requires_grad=True)

        def f(t):
            return T.tsum(T.mul(T.mul(t, t), t))

        # correct analytic gradient passes
        assert T.finite_diff_check(f, x) < 1e-8

    def test_l2_norm(self):
        v = T.Tensor([3.0, 4.0], requires_grad=True)
        n = T.l2_norm(v)
        assert abs(float(n.data) - 5.0) < 1e-12
        n.backward()
        assert np.allclose(v.grad, [0.6, 0.8])


class TestNoGrad:
    def test_ops_inside_return_constants_with_the_same_values(self):
        x = T.Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
        taped = T.tanh(T.mul(x, x))
        with T.no_grad():
            const = T.tanh(T.mul(x, x))
        assert taped.requires_grad and taped._parents
        assert not const.requires_grad and const._parents == () and const._backward_fn is None
        assert np.array_equal(const.data, taped.data)

    def test_nests_and_restores_the_flag(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.mul(x, x).requires_grad
            assert not T.mul(x, x).requires_grad
        assert T._grad_enabled
        T.mul(x, x).backward()
        assert np.array_equal(x.grad, [4.0])

    def test_exception_restores_the_flag(self):
        x = T.Tensor([2.0], requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with T.no_grad():
                with T.no_grad():
                    T.div(x, 0.0)
        assert T._grad_enabled
        assert T.mul(x, x).requires_grad

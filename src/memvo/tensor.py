"""Reverse-mode autodiff on float64 numpy arrays.

Every op builds a closure graph; Tensor.backward() walks it in reverse
topological order, and inside a no_grad() block no op records one. Only the
broadcasting the ops below document is allowed, everything else is a shape
error. All math is float64 and single threaded, so repeated runs on the same
machine are bit identical.

An op's backward_fn(g) returns one gradient per parent, in parent order, or
None where it has nothing to add; it writes no .grad itself. The walk adds
each returned gradient into its parent's .grad, for parents that require one.
A conv2d kernel with more output channels than output pixels is the one
exception: its gradient is queued, not returned, and comes once per
backward, not once per use. Each use queues its (g, im2col columns) pair on
the kernel, and the walk multiplies the queue as one GEMM when it reaches
the kernel. The walk drops each interior node's .grad once that node's
backward has run, so afterwards only leaves hold one. conv2d's input gradient is one GEMM and one
np.bincount scatter-add (col2im), bit-identical to a k*k loop of strided adds.

conv2d also takes a channel-first batch (C,B,H,W), which stack_batch builds
from B (C,H,W) maps and take_batch undoes; the elementwise ops and slice1d
need nothing more. A batch runs one GEMM per entry inside one np.matmul
call, not one GEMM over all entries' columns side by side: OpenBLAS picks
its kernel and blocking by the column count, so at some shapes (the tiny
ConvLSTM's 16x72 by 72x4B, a 64x576 by 576x16B fuse conv) the wider product
gives other bits than B lone calls, while the per-entry form keeps them.
"""

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Every op inside the block returns a constant; blocks nest, and any exit restores the flag."""
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._deferred = None  # queued (g, cols) kernel-gradient pairs, see conv2d

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(shape=%s%s)" % (self.data.shape, flag)

    def detach(self):
        """Constant copy, cut out of the graph."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None
        self._deferred = None

    def _accum(self, g):
        if self.grad is None:
            # a copy, never g itself: add hands the same g to both parents
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def _defer(self, g, cols):
        if self._deferred is None:
            self._deferred = []
        self._deferred.append((g, cols))

    def _flush(self):
        # every queued g (O,H',W') and cols (C,k,k,H',W') side by side, then
        # one (O, sum N) @ (sum N, C*k*k) GEMM
        queue, self._deferred = self._deferred, None
        o = self.data.shape[0]
        widths = [g.shape[1] * g.shape[2] for g, _ in queue]
        gs = np.empty((o, sum(widths)))
        cs = np.empty((self.data[0].size, sum(widths)))
        at = 0
        for (g, cols), n in zip(queue, widths):
            gs[:, at:at + n] = g.reshape(o, n)
            # splitting both axes of a column slice is a view: cols is copied once
            cs[:, at:at + n].reshape(cols.shape)[...] = cols
            at += n
        grad = (gs @ cs.T).reshape(self.data.shape)
        if self.grad is None:
            self.grad = grad  # fresh and held by nothing else, so _accum's copy is not needed
        else:
            self.grad += grad

    def backward(self):
        """Backpropagate from a scalar root, adding into every leaf's .grad.

        Each node's backward_fn returns one gradient per parent, None where
        none is needed, and this loop alone adds them into the parents that
        require one. A large conv2d kernel's gradient is queued on it
        instead: in reverse topological order a node is reached only after
        every op that uses it, so there its queue is complete and is flushed
        as one GEMM, before its own backward runs. After that its .grad is
        dropped; leaves keep theirs, so two backward() calls add up. Any
        exit, also an exception, drops every queue and interior .grad of the
        graph, so none leaks into the next backward().
        """
        if self.data.size != 1:
            raise ValueError("backward() root must be a scalar, got shape %s" % (self.shape,))
        order = _topo_order(self)
        self._accum(np.ones_like(self.data))
        try:
            for node in reversed(order):
                if node._deferred:
                    node._flush()
                if node._backward_fn is not None and node.grad is not None:
                    grads = node._backward_fn(node.grad)
                    node.grad = None
                    for parent, g in zip(node._parents, grads):
                        if g is not None and parent.requires_grad:
                            parent._accum(g)
        finally:
            for node in order:
                node._deferred = None
                if node._backward_fn is not None:
                    node.grad = None


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _topo_order(root):
    # iterative post-order; graphs from long sequences overflow recursion
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data, parents, backward_fn):
    if not _grad_enabled or not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)


def _check_scalar_or_same(a, b, opname):
    # allowed: identical shapes, or one operand is a scalar (size 1)
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError("%s shape mismatch: %s vs %s" % (opname, a.data.shape, b.data.shape))


def _reduce_to(g, shape):
    # undo scalar broadcast
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_scalar_or_same(a, b, "add")
    out_data = a.data + b.data

    def backward_fn(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return _make(out_data, (a, b), backward_fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_scalar_or_same(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return _make(out_data, (a, b), backward_fn)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_scalar_or_same(a, b, "div")
    if np.any(b.data == 0.0):
        raise ZeroDivisionError("div by zero")
    out_data = a.data / b.data

    def backward_fn(g):
        return (_reduce_to(g / b.data, a.data.shape),
                _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def tsum(a):
    a = _as_tensor(a)

    def backward_fn(g):
        return (np.full_like(a.data, float(g)),)

    return _make(np.sum(a.data), (a,), backward_fn)


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt of negative value")
    out_data = np.sqrt(a.data)

    def backward_fn(g):
        # subgradient 0 at the origin kink
        safe = np.where(out_data > 0.0, out_data, 1.0)
        return (np.where(out_data > 0.0, g / (2.0 * safe), 0.0),)

    return _make(out_data, (a,), backward_fn)


def sigmoid(a):
    a = _as_tensor(a)
    # stable both tails: 1/(1+e) for x >= 0 and e/(1+e) below, e = exp(-|x|)
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0.0, 1.0, e)
    out_data /= 1.0 + e

    def backward_fn(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward_fn)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def backward_fn(g):
        return (g * (1.0 - out_data * out_data),)

    return _make(out_data, (a,), backward_fn)


def _im2col(xp, k, stride, h_out, w_out):
    # strided read-only view (B, C, k, k, h_out, w_out) of the padded (C, B, hp, wp) input
    c, b = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    shape = (b, c, k, k, h_out, w_out)
    strides = (s1, s0, s2, s3, stride * s2, stride * s3)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides, writeable=False)


@lru_cache(maxsize=64)
def _col2im_index(c, b, hp, wp, k, stride):
    # flat position in the padded (C, B, hp, wp) input of every (B, C, k, k, H', W')
    # im2col entry: where conv2d's backward scatters dcols. Only that backward
    # reads it; it stays writeable because np.bincount copies a read-only index
    h_out, w_out = (hp - k) // stride + 1, (wp - k) // stride + 1
    positions = np.arange(c * b * hp * wp).reshape(c, b, hp, wp)
    return _im2col(positions, k, stride, h_out, w_out).reshape(-1)  # a copy


def conv2d(x, kernel, bias, stride=1, padding=0):
    """2-D cross correlation: x (C,H,W) or a batch (C,B,H,W), kernel (O,C,k,k), bias (O,) or None.

    Zero padding on both spatial sides, square kernel, single stride for both
    axes. Output is (O, H', W'), or (O, B, H', W') for a batch, with
    H' = (H + 2*padding - k)//stride + 1. Forward is one np.matmul over the
    (B, C*k*k, H'*W') im2col stack: one GEMM per batch entry, each with the
    shapes and bits of a lone (C,H,W) call. Backward re-reads the strided
    im2col view instead of keeping it. When O > H'*W' the kernel gradient
    outsizes those columns, so backward queues each entry's (g, cols) on the
    kernel for Tensor.backward to multiply in one GEMM with the kernel's
    other uses. Otherwise it multiplies at once, summed over the batch. The
    input gradient is one GEMM per entry, kernel^T @ g, then one np.bincount
    over a cached per-geometry index (col2im). bincount adds each input
    entry's terms from 0.0 in (di, dj) order: bit-identical to a k*k loop of
    adds.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim not in (3, 4) or kernel.data.ndim != 4:
        raise ValueError("conv2d expects x (C,H,W) or (C,B,H,W) and kernel (O,C,k,k)")
    batched = x.data.ndim == 4
    x4 = x.data if batched else x.data[:, None]
    c, b, h, w = x4.shape
    o, ck, kh, kw = kernel.data.shape
    if ck != c:
        raise ValueError("conv2d channel mismatch: input %d vs kernel %d" % (c, ck))
    if kh != kw:
        raise ValueError("conv2d kernel must be square")
    k = kh
    if stride < 1 or padding < 0:
        raise ValueError("conv2d needs stride >= 1 and padding >= 0")
    hp, wp = h + 2 * padding, w + 2 * padding
    if k > hp or k > wp:
        raise ValueError("conv2d kernel %d exceeds padded input %dx%d" % (k, hp, wp))
    h_out = (hp - k) // stride + 1
    w_out = (wp - k) // stride + 1
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (o,):
            raise ValueError("conv2d bias must have shape (%d,)" % o)

    xp = np.zeros((c, b, hp, wp))
    xp[:, :, padding:padding + h, padding:padding + w] = x4
    cols = _im2col(xp, k, stride, h_out, w_out)
    matrix = kernel.data.reshape(o, -1)
    out_data = np.matmul(matrix, cols.reshape(b, c * k * k, -1))  # (B,O,H'*W')
    # back to channel-first; for a lone (C,H,W) input this reshape is a view
    lead = (b,) if batched else ()
    out_data = out_data.transpose(1, 0, 2).reshape((o,) + lead + (h_out, w_out))
    if bias is not None:
        out_data += bias.data.reshape((o,) + (1,) * (out_data.ndim - 1))

    def backward_fn(g):
        g4 = g if batched else g[:, None]
        dx = dk = None
        if kernel.requires_grad:
            if o > h_out * w_out:
                for i in range(b):
                    kernel._defer(g4[:, i], cols[i])
            else:
                # g (O,B,H',W') x cols (B,C,k,k,H',W') -> (O,C,k,k)
                dk = np.tensordot(g4, cols, axes=([1, 2, 3], [0, 4, 5]))
        if x.requires_grad:
            gb = np.ascontiguousarray(g4.transpose(1, 0, 2, 3)).reshape(b, o, -1)
            dcols = np.matmul(matrix.T, gb)  # (B, C*k*k, H'*W')
            index = _col2im_index(c, b, hp, wp, k, stride)
            dx = np.bincount(index, weights=dcols.reshape(-1), minlength=xp.size).reshape(xp.shape)
            dx = dx[:, :, padding:hp - padding, padding:wp - padding]
            if not batched:
                dx = dx[:, 0]
        db = None if bias is None else g.sum(axis=tuple(range(1, g.ndim)))
        return dx, dk, db

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out_data, parents, backward_fn)


def concat_channels(parts):
    """Concatenate (C_i, H, W) tensors, or (C_i, B, H, W) batches, along the channel axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    rest = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim not in (3, 4) or p.data.shape[1:] != rest:
            raise ValueError("concat_channels spatial mismatch")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    splits = np.cumsum([p.data.shape[0] for p in parts])[:-1]

    def backward_fn(g):
        return np.split(g, splits, axis=0)

    return _make(out_data, tuple(parts), backward_fn)


def stack_batch(parts):
    """B same-shape (C,H,W) tensors -> one (C,B,H,W) batch, entry i = parts[i]."""
    parts = [_as_tensor(p) for p in parts]
    if not parts or parts[0].data.ndim != 3:
        raise ValueError("stack_batch needs at least one (C,H,W) tensor")
    out_data = np.stack([p.data for p in parts], axis=1)  # ValueError on mixed shapes

    def backward_fn(g):
        return [g[:, i] for i in range(len(parts))]

    return _make(out_data, tuple(parts), backward_fn)


def take_batch(x, i):
    """Entry i of a (C,B,H,W) batch, as a (C,H,W) tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 4 or not 0 <= i < x.data.shape[1]:
        raise ValueError("take_batch: no entry %r in a batch of shape %s" % (i, x.data.shape))
    out_data = np.ascontiguousarray(x.data[:, i])  # laid out as a lone (C,H,W) map

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[:, i] = g
        return (full,)

    return _make(out_data, (x,), backward_fn)


def scale_channels(x, w):
    """Multiply x by w over x's trailing axes, w's shape a prefix of x's shape.

    x (C,H,W) by w (C,) scales channels; x (S,C,H,W) by w (S,C) each slot's.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.shape[:w.data.ndim] != w.data.shape:
        raise ValueError("scale_channels: w %s is no prefix of x %s" % (w.data.shape, x.data.shape))
    tail = tuple(range(w.data.ndim, x.data.ndim))
    wb = w.data.reshape(w.data.shape + (1,) * len(tail))
    out_data = x.data * wb

    def backward_fn(g):
        # x is the detached memory stack in training: skip its product
        return (g * wb if x.requires_grad else None), np.sum(g * x.data, axis=tail)

    return _make(out_data, (x, w), backward_fn)


def weighted_sum(w, x):
    """sum_s w[s] * x[s] over the leading axis: w (S,), x (S,C,H,W) -> (C,H,W).

    Products and np.sum, not BLAS, so the bits do not depend on the thread count.
    """
    w, x = _as_tensor(w), _as_tensor(x)
    if w.data.ndim != 1 or x.data.shape[:1] != w.data.shape:
        raise ValueError("weighted_sum expects w (S,) and x (S,...)")
    wb = w.data.reshape(w.data.shape + (1,) * (x.data.ndim - 1))
    out_data = np.sum(wb * x.data, axis=0)

    def backward_fn(g):
        return np.sum(g * x.data, axis=tuple(range(1, x.data.ndim))), wb * g

    return _make(out_data, (w, x), backward_fn)


def _cosine(a, b, reduce, op):
    # cosine over the last `reduce` axes; b is shaped like a or has one more,
    # leading slot axis. A zero norm scores exactly 0, with no gradient path.
    a, b = _as_tensor(a), _as_tensor(b)
    lead = b.data.ndim - a.data.ndim
    if lead not in (0, 1) or b.data.shape[lead:] != a.data.shape:
        raise ValueError("%s shape mismatch: %s vs %s" % (op, a.data.shape, b.data.shape))
    axes = tuple(range(-reduce, 0))
    dots = np.sum(a.data * b.data, axis=axes)
    na = np.sqrt(np.sum(a.data * a.data, axis=axes))
    nb = np.sqrt(np.sum(b.data * b.data, axis=axes))
    live = (na > 0.0) & (nb > 0.0)
    denom = np.where(live, na * nb, 1.0)
    out_data = np.where(live, dots / denom, 0.0)
    if not live.any():
        return Tensor(out_data)
    tail = out_data.shape + (1,) * reduce

    def backward_fn(g):
        gl = np.where(live, g, 0.0)
        coef = (gl / denom).reshape(tail)
        gout = gl * out_data
        da = coef * b.data - (gout / np.where(live, na * na, 1.0)).reshape(tail) * a.data
        db = None
        if b.requires_grad:  # b is the detached memory stack in training
            db = coef * a.data - (gout / np.where(live, nb * nb, 1.0)).reshape(tail) * b.data
        return (np.sum(da, axis=0) if lead else da), db

    return _make(out_data, (a, b), backward_fn)


def cosine_similarity(a, b):
    """Cosine over all of a's axes: b shaped like a -> scalar, b (S,C,H,W) -> (S,).

    A zero norm scores a constant 0 with no gradient path, which the
    attention fallbacks rely on: softmax over all-zero scores is uniform.
    """
    a = _as_tensor(a)
    return _cosine(a, b, a.data.ndim, "cosine_similarity")


def channel_cosine(a, b):
    """Per-channel cosine of a (C,H,W): b (C,H,W) -> (C,), b (S,C,H,W) -> (S,C).

    A channel where either side has zero norm scores 0, as in cosine_similarity.
    """
    a = _as_tensor(a)
    if a.data.ndim != 3:
        raise ValueError("channel_cosine expects a (C,H,W) first operand")
    return _cosine(a, b, 2, "channel_cosine")


def global_avg_pool(x):
    """(C,H,W) -> (C,) spatial mean."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ValueError("global_avg_pool expects (C,H,W)")
    c, h, w = x.data.shape
    out_data = x.data.mean(axis=(1, 2))

    def backward_fn(g):
        return (np.broadcast_to(g[:, None, None], x.data.shape) / (h * w),)

    return _make(out_data, (x,), backward_fn)


def linear(weight, x, bias):
    """weight (M,N) @ x (N,) + bias (M,)."""
    weight, x, bias = _as_tensor(weight), _as_tensor(x), _as_tensor(bias)
    if weight.data.ndim != 2 or x.data.ndim != 1 or weight.data.shape[1] != x.data.shape[0]:
        raise ValueError("linear shape mismatch: %s @ %s" % (weight.data.shape, x.data.shape))
    if bias.data.shape != (weight.data.shape[0],):
        raise ValueError("linear bias shape mismatch")
    out_data = weight.data @ x.data + bias.data

    def backward_fn(g):
        return np.outer(g, x.data), weight.data.T @ g, g

    return _make(out_data, (weight, x, bias), backward_fn)


def softmax(v):
    """Softmax along the last axis of v, (S,) or (S,C), max-shifted for stability."""
    v = _as_tensor(v)
    e = np.exp(v.data - np.max(v.data, axis=-1, keepdims=True))
    out_data = e / np.sum(e, axis=-1, keepdims=True)

    def backward_fn(g):
        return (out_data * (g - np.sum(g * out_data, axis=-1, keepdims=True)),)

    return _make(out_data, (v,), backward_fn)


def stack(parts):
    """Stack S same-shape tensors on a new leading axis: (C,H,W) -> (S,C,H,W), scalars -> (S,)."""
    parts = [_as_tensor(p) for p in parts]
    out_data = np.stack([p.data for p in parts])  # ValueError on no parts or mixed shapes

    def backward_fn(g):
        return list(g)

    return _make(out_data, tuple(parts), backward_fn)


def slice1d(v, start, stop):
    """v[start:stop] along the leading axis: a (6,) pose vector or a (4h,H,W) gate stack."""
    v = _as_tensor(v)
    if v.data.ndim < 1:
        raise ValueError("slice1d expects a tensor with at least one axis")
    n = v.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError("slice [%d:%d] out of range for length %d" % (start, stop, n))
    out_data = v.data[start:stop]

    def backward_fn(g):
        full = np.zeros_like(v.data)
        full[start:stop] = g
        return (full,)

    return _make(out_data, (v,), backward_fn)


def l2_norm(a):
    """Scalar euclidean norm of a tensor."""
    return sqrt(tsum(mul(a, a)))


def finite_diff_check(f, x, h=1e-5, coords=None):
    """Max relative error between analytic grad of f(x) and central differences.

    f maps a Tensor to a scalar Tensor. coords limits the sweep to the given
    flat indices of x (all coordinates when None). Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued f")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    aflat = analytic.reshape(-1)
    if coords is None:
        coords = range(x.data.size)
    worst = 0.0
    for i in coords:
        idx = np.unravel_index(i, x.data.shape)
        keep = x.data[idx]
        x.data[idx] = keep + h
        fp = f(x).data.item()
        x.data[idx] = keep - h
        fm = f(x).data.item()
        x.data[idx] = keep
        numeric = (fp - fm) / (2.0 * h)
        err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
        worst = max(worst, err)
    return worst

"""Reverse-mode autodiff on float64 numpy arrays.

Every op builds a closure graph; Tensor.backward() walks it in reverse
topological order, and inside a no_grad() block no op records one. Only the
broadcasting the ops below document is allowed, everything else is a shape
error. All math is float64 and single threaded, so repeated runs on the same
machine are bit identical.
"""

from contextlib import contextmanager

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

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, op=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(shape=%s%s)" % (self.data.shape, flag)

    def detach(self):
        """Constant copy, cut out of the graph."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self.grad is None:
            # a copy, never g itself: add hands the same g to both parents
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar root."""
        if self.data.size != 1:
            raise ValueError("backward() root must be a scalar, got shape %s" % (self.shape,))
        order = _topo_order(self)
        self._accum(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # operator sugar; constants may be python scalars
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


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


def _make(data, parents, backward_fn, op):
    if not _grad_enabled or not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn, op=op)


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
        if a.requires_grad:
            a._accum(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accum(_reduce_to(g, b.data.shape))

    return _make(out_data, (a, b), backward_fn, "add")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_scalar_or_same(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_reduce_to(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward_fn, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_scalar_or_same(a, b, "div")
    if np.any(b.data == 0.0):
        raise ZeroDivisionError("div by zero")
    out_data = a.data / b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_reduce_to(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward_fn, "div")


def tsum(a):
    a = _as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accum(np.full_like(a.data, float(g)))

    return _make(np.sum(a.data), (a,), backward_fn, "sum")


def tmean(a):
    a = _as_tensor(a)
    n = a.data.size

    def backward_fn(g):
        if a.requires_grad:
            a._accum(np.full_like(a.data, float(g) / n))

    return _make(np.mean(a.data), (a,), backward_fn, "mean")


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt of negative value")
    out_data = np.sqrt(a.data)

    def backward_fn(g):
        if a.requires_grad:
            # subgradient 0 at the origin kink
            safe = np.where(out_data > 0.0, out_data, 1.0)
            a._accum(np.where(out_data > 0.0, g / (2.0 * safe), 0.0))

    return _make(out_data, (a,), backward_fn, "sqrt")


def sigmoid(a):
    a = _as_tensor(a)
    # stable both tails
    out_data = np.where(a.data >= 0.0,
                        1.0 / (1.0 + np.exp(-np.abs(a.data))),
                        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def backward_fn(g):
        if a.requires_grad:
            a._accum(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward_fn, "sigmoid")


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accum(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward_fn, "tanh")


def _im2col(xp, k, stride, h_out, w_out):
    # strided read-only view (C, k, k, h_out, w_out) of the padded input
    c = xp.shape[0]
    s0, s1, s2 = xp.strides
    shape = (c, k, k, h_out, w_out)
    strides = (s0, s1, s2, stride * s1, stride * s2)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides, writeable=False)


def conv2d(x, kernel, bias=None, stride=1, padding=0):
    """2-D cross correlation: x (C,H,W), kernel (O,C,k,k), optional bias (O,).

    Zero padding on both spatial sides, square kernel, single stride for both
    axes. Output is (O, H', W') with H' = (H + 2*padding - k)//stride + 1.
    Forward is one matmul over the im2col matrix, a fixed deterministic
    reduction order; backward re-reads the strided im2col view instead of keeping it.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ValueError("conv2d expects x (C,H,W) and kernel (O,C,k,k)")
    c, h, w = x.data.shape
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

    xp = np.zeros((c, hp, wp))
    xp[:, padding:padding + h, padding:padding + w] = x.data
    cols = _im2col(xp, k, stride, h_out, w_out)
    out_data = (kernel.data.reshape(o, -1) @ cols.reshape(c * k * k, -1)).reshape(o, h_out, w_out)
    if bias is not None:
        out_data += bias.data[:, None, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward_fn(g):
        if kernel.requires_grad:
            # g (O,H',W') x cols (C,k,k,H',W') -> (O,C,k,k)
            kernel._accum(np.tensordot(g, cols, axes=([1, 2], [3, 4])))
        if x.requires_grad:
            dcols = np.tensordot(kernel.data, g, axes=([0], [0]))  # (C,k,k,H',W')
            dxp = np.zeros_like(xp)
            for di in range(k):
                for dj in range(k):
                    dxp[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride] += dcols[:, di, dj]
            if padding:
                dxp = dxp[:, padding:hp - padding, padding:wp - padding]
            x._accum(dxp)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(1, 2)))

    return _make(out_data, parents, backward_fn, "conv2d")


def concat_channels(parts):
    """Concatenate (C_i, H, W) tensors along the channel axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    hw = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim != 3 or p.data.shape[1:] != hw:
            raise ValueError("concat_channels spatial mismatch")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    splits = np.cumsum([p.data.shape[0] for p in parts])[:-1]

    def backward_fn(g):
        pieces = np.split(g, splits, axis=0)
        for p, piece in zip(parts, pieces):
            if p.requires_grad:
                p._accum(piece)

    return _make(out_data, tuple(parts), backward_fn, "concat")


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
        if x.requires_grad:
            x._accum(g * wb)
        if w.requires_grad:
            w._accum(np.sum(g * x.data, axis=tail))

    return _make(out_data, (x, w), backward_fn, "scale_channels")


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
        if w.requires_grad:
            w._accum(np.sum(g * x.data, axis=tuple(range(1, x.data.ndim))))
        if x.requires_grad:
            x._accum(wb * g)

    return _make(out_data, (w, x), backward_fn, "weighted_sum")


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
        if a.requires_grad:
            da = coef * b.data - (gout / np.where(live, na * na, 1.0)).reshape(tail) * a.data
            a._accum(np.sum(da, axis=0) if lead else da)
        if b.requires_grad:
            b._accum(coef * a.data - (gout / np.where(live, nb * nb, 1.0)).reshape(tail) * b.data)

    return _make(out_data, (a, b), backward_fn, op)


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
        if x.requires_grad:
            x._accum(np.broadcast_to(g[:, None, None], x.data.shape) / (h * w))

    return _make(out_data, (x,), backward_fn, "gap")


def linear(weight, x, bias=None):
    """weight (M,N) @ x (N,) + bias (M,)."""
    weight, x = _as_tensor(weight), _as_tensor(x)
    if weight.data.ndim != 2 or x.data.ndim != 1 or weight.data.shape[1] != x.data.shape[0]:
        raise ValueError("linear shape mismatch: %s @ %s" % (weight.data.shape, x.data.shape))
    out_data = weight.data @ x.data
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (weight.data.shape[0],):
            raise ValueError("linear bias shape mismatch")
        out_data = out_data + bias.data
    parents = (weight, x) if bias is None else (weight, x, bias)

    def backward_fn(g):
        if weight.requires_grad:
            weight._accum(np.outer(g, x.data))
        if x.requires_grad:
            x._accum(weight.data.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accum(g)

    return _make(out_data, parents, backward_fn, "linear")


def softmax(v):
    """Softmax along the last axis of v, (S,) or (S,C), max-shifted for stability."""
    v = _as_tensor(v)
    e = np.exp(v.data - np.max(v.data, axis=-1, keepdims=True))
    out_data = e / np.sum(e, axis=-1, keepdims=True)

    def backward_fn(g):
        if v.requires_grad:
            v._accum(out_data * (g - np.sum(g * out_data, axis=-1, keepdims=True)))

    return _make(out_data, (v,), backward_fn, "softmax")


def stack(parts):
    """Stack S same-shape tensors on a new leading axis: (C,H,W) -> (S,C,H,W), scalars -> (S,)."""
    parts = [_as_tensor(p) for p in parts]
    out_data = np.stack([p.data for p in parts])  # ValueError on no parts or mixed shapes

    def backward_fn(g):
        for p, piece in zip(parts, g):
            if p.requires_grad:
                p._accum(piece)

    return _make(out_data, tuple(parts), backward_fn, "stack")


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
        if v.requires_grad:
            full = np.zeros_like(v.data)
            full[start:stop] = g
            v._accum(full)

    return _make(out_data, (v,), backward_fn, "slice")


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

"""Dense tensors with reverse-mode automatic differentiation.

Every operation here is shape-explicit (no general broadcasting) and records
just enough of the forward pass to backpropagate a scalar loss to any leaf
with ``requires_grad``. float32 is the training precision; float64 runs the
same code path for tight gradient checking.
"""
from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TensorError(Exception):
    """Contract violation in a tensor operation."""


class ShapeMismatch(TensorError):
    """Operand shapes incompatible with the operation's contract."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise TensorError(f"item() requires a scalar, got shape {self.data.shape}")
        return float(self.data)

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op})"


def _records(parents):
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data, parents, op):
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._op = op
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _topo_order(root):
    # Iterative post-order DFS: parents always precede their consumers.
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root):
    """Backpropagate d(root)/d(leaf) into every reachable requires_grad leaf.

    Gradients accumulate additively: a tensor feeding two consumers receives
    the sum of both branch gradients, and repeated backward calls add up.
    """
    if root.data.size != 1:
        raise TensorError(f"backward requires a scalar root, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: shapes {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise TensorError(f"{op}: dtypes {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b):
    _check_same_shape(a, b, "add")
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
        out._backward = bwd
    return out


def sub(a, b):
    _check_same_shape(a, b, "sub")
    out = _node(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g)
            _accum(b, -g)
        out._backward = bwd
    return out


def mul(a, b):
    _check_same_shape(a, b, "mul")
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)
        out._backward = bwd
    return out


def scale(a, c):
    c = float(c)
    out = _node(a.data * np.asarray(c, dtype=a.data.dtype), (a,), "scale")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * np.asarray(c, dtype=a.data.dtype))
        out._backward = bwd
    return out


def sum_all(a):
    out = _node(a.data.sum(), (a,), "sum_all")
    if out.requires_grad:
        def bwd(g):
            _accum(a, np.broadcast_to(g, a.data.shape))
        out._backward = bwd
    return out


def sum_axis(a, axis):
    out = _node(a.data.sum(axis=axis), (a,), "sum_axis")
    if out.requires_grad:
        def bwd(g):
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))
        out._backward = bwd
    return out


def mean_axis(a, axis):
    n = a.data.shape[axis]
    out = _node(a.data.mean(axis=axis), (a,), "mean_axis")
    if out.requires_grad:
        def bwd(g):
            _accum(a, np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape))
        out._backward = bwd
    return out


def abs_pow(a, p):
    """Elementwise |x|^p for p >= 1; d/dx = p * sign(x) * |x|^(p-1)."""
    p = float(p)
    if p < 1:
        raise TensorError(f"abs_pow requires p >= 1, got {p}")
    ax = np.abs(a.data)
    out = _node(ax ** p, (a,), "abs_pow")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * p * np.sign(a.data) * ax ** (p - 1))
        out._backward = bwd
    return out


def l2_normalize_rows(a, eps=1e-8):
    """Divide each row of a 2-D tensor by (its L2 norm + eps)."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"l2_normalize_rows expects 2-D input, got {a.data.shape}")
    n = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    denom = n + np.asarray(eps, dtype=a.data.dtype)
    out = _node(a.data / denom, (a,), "l2norm")
    if out.requires_grad:
        # zero rows: the second term has a 0/0 limit of 0, guard the divisor
        n_safe = np.maximum(n, np.finfo(a.data.dtype).tiny)
        def bwd(g):
            dot = (g * a.data).sum(axis=1, keepdims=True)
            _accum(a, g / denom - a.data * dot / (n_safe * denom ** 2))
        out._backward = bwd
    return out


def reshape(a, shape):
    out = _node(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g.reshape(a.data.shape))
        out._backward = bwd
    return out


def flatten2d(a):
    """Collapse all trailing axes: (N, ...) -> (N, prod(...))."""
    return reshape(a, (a.data.shape[0], -1))


def slice_rows(a, start, stop):
    """Contiguous slice along axis 0; gradients scatter back into the rows."""
    out = _node(a.data[start:stop].copy(), (a,), "slice_rows")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                a.grad[start:stop] += g
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# image-batch ops (N, C, H, W)


def flip_w(a):
    """Mirror along the last (width) axis."""
    out = _node(a.data[..., ::-1].copy(), (a,), "flip_w")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g[..., ::-1])
        out._backward = bwd
    return out


def shift2d(a, dy, dx):
    """Translate spatially by (dy, dx) with zero fill; shape preserved."""
    if a.data.ndim != 4:
        raise ShapeMismatch(f"shift2d expects (N,C,H,W), got {a.data.shape}")
    dy, dx = int(dy), int(dx)
    _, _, h, w = a.data.shape
    y = np.zeros_like(a.data)
    r0, r1 = max(dy, 0), h + min(dy, 0)
    c0, c1 = max(dx, 0), w + min(dx, 0)
    if r1 > r0 and c1 > c0:
        y[:, :, r0:r1, c0:c1] = a.data[:, :, r0 - dy:r1 - dy, c0 - dx:c1 - dx]
    out = _node(y, (a,), "shift2d")
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                if r1 > r0 and c1 > c0:
                    a.grad[:, :, r0 - dy:r1 - dy, c0 - dx:c1 - dx] += g[:, :, r0:r1, c0:c1]
        out._backward = bwd
    return out


def apply_mask(a, mask):
    """Multiply by a constant (H, W) mask, broadcast over batch and channels."""
    m = np.asarray(mask, dtype=a.data.dtype)
    out = _node(a.data * m, (a,), "apply_mask")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * m)
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# network layers


def relu(a):
    out = _node(np.maximum(a.data, 0), (a,), "relu")
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * (a.data > 0))
        out._backward = bwd
    return out


def conv2d(x, w, pad=1):
    """3x3 cross-correlation with zero padding, stride 1, no bias.

    x: (N, Cin, H, W), w: (Cout, Cin, 3, 3) -> (N, Cout, H, W) for pad=1.
    Implemented as im2col + one GEMM per sample: the column buffer is
    (N, Cin*9, Ho*Wo), so ``W @ cols`` writes NCHW directly.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatch(f"conv2d: expected 4-D input/weight, got {x.data.shape}, {w.data.shape}")
    if w.data.shape[2:] != (3, 3):
        raise ShapeMismatch(f"conv2d: kernel must be 3x3, got {w.data.shape[2:]}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(
            f"conv2d: input channels {x.data.shape[1]} != weight channels {w.data.shape[1]}")
    n, cin, h, wd = x.data.shape
    cout = w.data.shape[0]
    hp, wp = h + 2 * pad, wd + 2 * pad
    ho, wo = hp - 2, wp - 2
    xp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.data
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (N, Cin, ho, wo, 3, 3)
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, cin * 9, ho * wo)
    del xp, win  # free the padded copy before the GEMM allocates its output
    wmat = w.data.reshape(cout, cin * 9)
    y = np.matmul(wmat, cols)
    out = _node(y.reshape(n, cout, ho, wo), (x, w), "conv2d")
    if out.requires_grad:
        wcols = cols if w.requires_grad else None  # only the weight gradient reads them

        def bwd(g):
            gm = g.reshape(n, cout, ho * wo)
            if w.requires_grad:
                _accum(w, np.matmul(gm, wcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
            if x.requires_grad:
                gcols = np.matmul(wmat.T, gm).reshape(n, cin, 3, 3, ho, wo)
                gxp = np.zeros((n, cin, hp, wp), dtype=gcols.dtype)
                for ki in range(3):
                    for kj in range(3):
                        gxp[:, :, ki:ki + ho, kj:kj + wo] += gcols[:, :, ki, kj]
                _accum(x, gxp[:, :, pad:pad + h, pad:pad + wd])
        out._backward = bwd
    return out


def instance_norm(x, gamma, beta, eps=1e-5):
    """Standardize each (sample, channel) plane, then scale/shift per channel."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"instance_norm expects (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeMismatch(
            f"instance_norm: affine shapes {gamma.data.shape}, {beta.data.shape} != ({c},)")
    m = h * w
    x3 = x.data.reshape(n, c, m)
    xc = x3 - x3.mean(axis=2, keepdims=True)
    var = np.einsum("ncp,ncp->nc", xc, xc) / m
    istd = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    a = gamma.data * istd  # (N, C): the per-plane factor applied to xc
    record = _records((x, gamma, beta))
    # Without a graph nothing reads xc again, so the output overwrites it.
    y = np.multiply(xc, a[:, :, None], out=None if record else xc)
    y += beta.data[:, None]
    out = _node(y.reshape(n, c, h, w), (x, gamma, beta), "instance_norm")
    if out.requires_grad:
        def bwd(g):
            g3 = g.reshape(n, c, m)
            gxc = np.einsum("ncp,ncp->nc", g3, xc)  # sum of g * xc per plane
            if gamma.requires_grad:
                _accum(gamma, (gxc * istd).sum(axis=0))
            if beta.requires_grad:
                _accum(beta, g3.sum(axis=(0, 2)))
            if x.requires_grad:
                # d/dx = a * (g - mean(g) - xhat * mean(g * xhat)), xhat = xc * istd
                gx = g3 * a[:, :, None]
                gx -= (a * g3.sum(axis=2) / m)[:, :, None]
                gx -= xc * (a * istd * istd * gxc / m)[:, :, None]
                _accum(x, gx.reshape(n, c, h, w))
        out._backward = bwd
    return out


def _tap3_stride2(a, axis):
    """Zero-padded 3-tap sums at stride 2 along ``axis``: entry i of the
    result is a[2i-1] + a[2i] + a[2i+1], and the length halves rounding up."""
    size = a.shape[axis]
    half, keep = size // 2, -(-size // 2)

    def at(*s):
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(*s)
        return tuple(idx)

    shape = list(a.shape)
    shape[axis] = keep
    y = np.empty(shape, dtype=a.dtype)
    np.add(a[at(0, 2 * half, 2)], a[at(1, None, 2)], out=y[at(0, half)])
    y[at(half, None)] = a[at(2 * half, None)]  # odd length: the last entry has no right tap
    y[at(1, None)] += a[at(1, 2 * keep - 2, 2)]
    return y


def avgpool(x):
    """3x3 average pooling, stride 2, zero padding 1, fixed divisor 9.

    (N, C, H, W) -> (N, C, ceil(H/2), ceil(W/2)); requires H, W >= 2.
    The window sum is separable: a 3-tap sum over rows, then over columns.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"avgpool expects (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h < 2 or w < 2:
        raise ShapeMismatch(f"avgpool requires spatial dims >= 2, got {h}x{w}")
    ninth = np.asarray(1.0 / 9.0, dtype=x.data.dtype)
    y = _tap3_stride2(_tap3_stride2(x.data, 2), 3)
    y *= ninth
    ho, wo = y.shape[2], y.shape[3]
    out = _node(y, (x,), "avgpool")
    if out.requires_grad:
        def bwd(g):
            gs = g * ninth
            gxp = np.zeros((n, c, h + 2, w + 2), dtype=gs.dtype)
            for ki in range(3):
                for kj in range(3):
                    gxp[:, :, ki:ki + 2 * ho - 1:2, kj:kj + 2 * wo - 1:2] += gs
            _accum(x, gxp[:, :, 1:1 + h, 1:1 + w])
        out._backward = bwd
    return out


def linear(x, w, b):
    """x @ w.T + b for x: (N, D), w: (K, D), b: (K,)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeMismatch(f"linear: expected 2-D input/weight, got {x.data.shape}, {w.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(f"linear: feature dims {x.data.shape[1]} != {w.data.shape[1]}")
    if b.data.shape != (w.data.shape[0],):
        raise ShapeMismatch(f"linear: bias shape {b.data.shape} != ({w.data.shape[0]},)")
    out = _node(x.data @ w.data.T + b.data, (x, w, b), "linear")
    if out.requires_grad:
        def bwd(g):
            if x.requires_grad:
                _accum(x, g @ w.data)
            if w.requires_grad:
                _accum(w, g.T @ x.data)
            if b.requires_grad:
                _accum(b, g.sum(axis=0))
        out._backward = bwd
    return out


def softmax_cross_entropy(logits, labels):
    """Mean of -log softmax(logits)[label] over the batch (max-stabilized)."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"softmax_cross_entropy expects (N,K) logits, got {logits.data.shape}")
    y = np.asarray(labels)
    n, k = logits.data.shape
    if y.shape != (n,):
        raise ShapeMismatch(f"softmax_cross_entropy: {n} logit rows vs {y.shape} labels")
    if y.min() < 0 or y.max() >= k:
        bad = int(y[(y < 0) | (y >= k)][0])
        raise TensorError(f"softmax_cross_entropy: label {bad} outside [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(n), y].mean()
    out = _node(np.asarray(loss, dtype=logits.data.dtype), (logits,), "softmax_xent")
    if out.requires_grad:
        def bwd(g):
            p = np.exp(logp)
            p[np.arange(n), y] -= 1
            _accum(logits, g * p / n)
        out._backward = bwd
    return out


def sgd_momentum_step(param, velocity, lr, momentum, weight_decay=0.0):
    """In-place SGD with momentum: v <- m*v + (grad + wd*p); p <- p - lr*v.

    Clears param.grad afterwards.
    """
    if param.grad is None:
        raise TensorError("sgd_momentum_step: parameter has no gradient")
    if velocity.data.shape != param.data.shape:
        raise ShapeMismatch(
            f"sgd_momentum_step: velocity {velocity.data.shape} vs param {param.data.shape}")
    g = param.grad
    if weight_decay:
        g = g + np.asarray(weight_decay, dtype=param.data.dtype) * param.data
    velocity.data *= np.asarray(momentum, dtype=param.data.dtype)
    velocity.data += g
    param.data -= np.asarray(lr, dtype=param.data.dtype) * velocity.data
    param.grad = None

"""Independent reference implementations used to check the fast paths.

The layer oracles are deliberately naive (nested loops, per-coordinate
finite differences) and share no code with the package. The one exception
is ``matching_loss``, the distillation objective that every gradient check
of the full loss differentiates.
"""
import numpy as np

from attndistill import losses, tensor as T
from attndistill.encoder import forward
from attndistill.tensor import Tensor


def naive_conv2d(x, w, pad=1):
    n, cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    ho, wo = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii, jj = i + ki - pad, j + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni, ci, ii, jj] * w[co, ci, ki, kj]
                    out[ni, co, i, j] = acc
    return out


def naive_conv2d_input_grad(g, w, pad=1):
    """Gradient of sum(g * naive_conv2d(x, w, pad)) with respect to x."""
    n, cout, ho, wo = g.shape
    _, cin, kh, kw = w.shape
    h, wd = ho - 2 * pad + kh - 1, wo - 2 * pad + kw - 1
    dx = np.zeros((n, cin, h, wd), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii, jj = i + ki - pad, j + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    dx[ni, ci, ii, jj] += g[ni, co, i, j] * w[co, ci, ki, kj]
    return dx


def naive_avgpool(x):
    """3x3 window, stride 2, zero pad 1, fixed divisor 9."""
    n, c, h, w = x.shape
    ho, wo = -(-h // 2), -(-w // 2)
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ki in range(3):
                        for kj in range(3):
                            ii, jj = 2 * i + ki - 1, 2 * j + kj - 1
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += x[ni, ci, ii, jj]
                    out[ni, ci, i, j] = acc / 9.0
    return out


def naive_instance_norm(x, gamma, beta, eps=1e-5):
    """Per-(sample, channel) standardization, then per-channel scale/shift."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    m = h * w
    for ni in range(n):
        for ci in range(c):
            mu = 0.0
            for i in range(h):
                for j in range(w):
                    mu += x[ni, ci, i, j]
            mu /= m
            var = 0.0
            for i in range(h):
                for j in range(w):
                    var += (x[ni, ci, i, j] - mu) ** 2
            var /= m
            inv = 1.0 / (var + eps) ** 0.5
            for i in range(h):
                for j in range(w):
                    out[ni, ci, i, j] = gamma[ci] * (x[ni, ci, i, j] - mu) * inv + beta[ci]
    return out


def naive_linear(x, w, b):
    n, d = x.shape
    k = w.shape[0]
    out = np.zeros((n, k), dtype=np.float64)
    for ni in range(n):
        for ko in range(k):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[ko, di]
            out[ni, ko] = acc + b[ko]
    return out


def naive_attention_pool(x, p):
    n, c, h, w = x.shape
    out = np.zeros((n, h, w), dtype=np.float64)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ci in range(c):
                    acc += abs(x[ni, ci, i, j]) ** p
                out[ni, i, j] = acc
    return out


def fd_gradient(f, x, h):
    """Central finite differences of a scalar function, one coordinate at a
    time. ``h`` may be a scalar or a per-coordinate array."""
    x = np.asarray(x, dtype=np.float64)
    hs = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += hs[i]
        xm = x.copy()
        xm[i] -= hs[i]
        g[i] = (f(xp) - f(xm)) / (2 * hs[i])
    return g


def max_rel_err(a, b, floor=None):
    """Largest |a - b| / max(|a|, |b|, floor) over all entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    if floor is None:
        floor = 1e-6 * scale
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def matching_loss(params, reals, pixels, p=4.0, lam=0.01):
    """The distillation objective over every layer, with the class loop of
    ``distill_step`` and no augmentation: class k matches the real batch
    ``reals[k]`` against synthetic image k of ``pixels`` (one image per
    class, in the precision of ``params``), and each class's gradient is
    taken on its own. Returns the loss summed over classes and the gradient
    with respect to the synthetic images."""
    dtype = params.fc_w.data.dtype
    shape = (len(reals),) + reals[0].data.shape[1:]
    syn = Tensor(np.asarray(pixels, dtype=dtype).reshape(shape), requires_grad=True)
    value = 0.0
    for k, real in enumerate(reals):
        with T.no_grad():
            target = losses.class_stats(forward(params, real), p)
        stats = losses.class_stats(forward(params, T.slice_rows(syn, k, k + 1)), p)
        sam, _ = losses.sam_loss(target, stats)
        total = losses.total_loss(sam, losses.mmd_loss(target, stats), lam)
        T.backward(total)
        value += total.item()
    return value, syn.grad

"""Dense tensors with reverse-mode automatic differentiation.

Every operation here is shape-explicit (no general broadcasting) and records
just enough of the forward pass to backpropagate a scalar loss to any leaf
with ``requires_grad``. float32 is the training precision; float64 runs the
same code path for tight gradient checking.
"""
from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TensorError(Exception):
    """Contract violation in a tensor operation."""


class ShapeMismatch(TensorError):
    """Operand shapes incompatible with the operation's contract."""


class _Node:
    """The graph record of one tensor that needs a gradient.

    A node holds the tensor's gradient slot, the nodes of the op's inputs
    that need gradients, the op's backward closure, the op's name and the
    tensor's shape and dtype; a leaf's node has no parents and no closure.
    It holds no array of its tensor's, and a closure captures only the
    arrays its backward reads, so a graph never references an op's output:
    that array lives only as long as the caller keeps its ``Tensor``.
    """

    __slots__ = ("grad", "parents", "backward", "op", "shape", "dtype")

    def __init__(self, shape, dtype, parents=(), op="leaf"):
        self.grad = None
        self.parents = parents
        self.backward = None
        self.op = op
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """N-dimensional float array with an optional graph node.

    ``node`` is None when the tensor needs no gradient. ``requires_grad``,
    ``grad`` and ``_backward`` read and write the node's fields. Only the
    tensor references ``data``: the graph holds the node, so an op's output
    is freed once the caller drops its tensor, even while the graph lives.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.node = _Node(arr.shape, arr.dtype) if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        if self.node is None:
            if value is not None:
                raise TensorError("cannot set the gradient of a tensor that needs none")
            return
        self.node.grad = value

    @property
    def _backward(self):
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

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

    def __repr__(self):
        op = "const" if self.node is None else self.node.op
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={op})"


def _node(data, parents, op):
    """The op's output tensor; it records a graph node exactly when an input has one."""
    out = Tensor(data)
    if any(p.node is not None for p in parents):
        out.node = _Node(out.data.shape, out.data.dtype,
                         tuple(p.node for p in parents if p.node is not None), op)
    return out


def _accum(node, g, owned=True):
    """Add gradient ``g`` into ``node.grad``; a None node needs none.

    The first gradient a node receives becomes its ``.grad``. An ``owned``
    array, one the backward closure has just allocated and nothing else
    references, is adopted as it is. A gradient that is not owned, the
    consumer's own ``.grad`` passed through or a view of it, is copied, so no
    two tensors ever share a gradient buffer; so is a numpy scalar or an array
    of another dtype than the node's. A copy is C-contiguous, as every array
    an op allocates (a broadcast gradient would otherwise keep its broadcast
    axis innermost). Later gradients are added in place.
    """
    if node is None:
        return
    if node.grad is None:
        if owned and isinstance(g, np.ndarray) and g.dtype == node.dtype:
            node.grad = g
        else:
            node.grad = np.empty(node.shape, dtype=node.dtype)
            np.copyto(node.grad, g)
    else:
        node.grad += g


_CONSUMED = object()
"""The ``backward`` of a node whose graph ``backward`` has walked."""


def _topo_order(root):
    """The nodes reachable from node ``root``, each after all its parents."""
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
        if node.backward is _CONSUMED:
            raise TensorError(f"backward reached a {node.op} node of a graph that an "
                              "earlier backward consumed; build the graph again")
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root):
    """Backpropagate d(root)/d(leaf) into every reachable requires_grad leaf.

    The walk runs over the graph's nodes, which hold no op's output array:
    each closure reads only what it captured in forward. Gradients
    accumulate additively: a tensor feeding two consumers receives the sum
    of both branch gradients, and a leaf that separate graphs share sums the
    gradients of the calls that walk them. The walk consumes the graph: once
    a node's backward has run, its ``.grad``, its backward closure (with the
    arrays it captured) and its parent links are dropped, so an intermediate
    gradient lives only until its parents have received theirs. Leaves keep
    their ``.grad``. A graph can be walked once; a later call that reaches
    one of its nodes raises TensorError.
    """
    if root.data.size != 1:
        raise TensorError(f"backward requires a scalar root, got shape {root.data.shape}")
    if root.node is None:
        return
    order = _topo_order(root.node)
    _accum(root.node, np.ones(root.data.shape, dtype=root.data.dtype))
    while order:  # popped, so no list holds the nodes already walked
        node = order.pop()
        if node.backward is None:
            continue
        grad, bwd = node.grad, node.backward
        node.grad, node.backward, node.parents = None, _CONSUMED, ()
        if grad is not None:
            bwd(grad)


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
        an, bn = a.node, b.node

        def bwd(g):
            _accum(an, g, owned=False)
            _accum(bn, g, owned=False)
        out._backward = bwd
    return out


def sub(a, b):
    _check_same_shape(a, b, "sub")
    out = _node(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        an, bn = a.node, b.node

        def bwd(g):
            _accum(an, g, owned=False)
            _accum(bn, -g)
        out._backward = bwd
    return out


def mul(a, b):
    _check_same_shape(a, b, "mul")
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        an, bn, ad, bd = a.node, b.node, a.data, b.data

        def bwd(g):
            _accum(an, g * bd)
            _accum(bn, g * ad)
        out._backward = bwd
    return out


def scale(a, c):
    c = np.asarray(float(c), dtype=a.data.dtype)
    out = _node(a.data * c, (a,), "scale")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, g * c)
        out._backward = bwd
    return out


def sum_all(a):
    out = _node(a.data.sum(), (a,), "sum_all")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, np.broadcast_to(g, an.shape), owned=False)
        out._backward = bwd
    return out


def sum_axis(a, axis):
    out = _node(a.data.sum(axis=axis), (a,), "sum_axis")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, np.broadcast_to(np.expand_dims(g, axis), an.shape), owned=False)
        out._backward = bwd
    return out


def mean_axis(a, axis):
    n = a.data.shape[axis]
    out = _node(a.data.mean(axis=axis), (a,), "mean_axis")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, np.broadcast_to(np.expand_dims(g / n, axis), an.shape), owned=False)
        out._backward = bwd
    return out


def abs_pow(a, p):
    """Elementwise |x|^p for p >= 1; d/dx = p * sign(x) * |x|^(p-1)."""
    p = float(p)
    if p < 1:
        raise TensorError(f"abs_pow requires p >= 1, got {p}")
    x = a.data
    y = np.empty_like(x)
    _over_samples(_abs_pow_rows, (x, y), p)
    out = _node(y, (a,), "abs_pow")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            gx = np.empty_like(x, dtype=np.result_type(g, x))
            _over_samples(_abs_pow_grad_rows, (g, x, gx), p)
            _accum(an, gx)
        out._backward = bwd
    return out


def _abs_pow_rows(x, y, p):
    np.abs(x, out=y)
    np.power(y, p, out=y)


def _abs_pow_grad_rows(g, x, gx, p):
    # backward keeps x alone and takes |x| again: abs is exact
    np.multiply(g, p, out=gx)
    gx *= np.sign(x)
    gx *= np.abs(x) ** (p - 1)


def l2_normalize_rows(a, eps=1e-8):
    """Divide each row of a 2-D tensor by (its L2 norm + eps)."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"l2_normalize_rows expects 2-D input, got {a.data.shape}")
    n = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True))
    denom = n + np.asarray(eps, dtype=a.data.dtype)
    out = _node(a.data / denom, (a,), "l2norm")
    if out.requires_grad:
        an, x = a.node, a.data
        # zero rows: the second term has a 0/0 limit of 0, guard the divisor
        n_safe = np.maximum(n, np.finfo(x.dtype).tiny)

        def bwd(g):
            dot = (g * x).sum(axis=1, keepdims=True)
            _accum(an, g / denom - x * dot / (n_safe * denom ** 2))
        out._backward = bwd
    return out


def reshape(a, shape):
    out = _node(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, g.reshape(an.shape), owned=False)
        out._backward = bwd
    return out


def flatten2d(a):
    """Collapse all trailing axes: (N, ...) -> (N, prod(...))."""
    return reshape(a, (a.data.shape[0], -1))


def concat_rows(parts):
    """Join tensors along axis 0; a single part is returned as it is. Each
    part's gradient is its own rows of the output's."""
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    if len({(p.data.shape[1:], p.data.dtype) for p in parts}) > 1:
        raise ShapeMismatch(f"concat_rows: parts {list(parts)}")
    out = _node(np.concatenate([p.data for p in parts]), parts, "concat_rows")
    if out.requires_grad:
        nodes = [p.node for p in parts]
        cuts = np.cumsum([0] + [len(p.data) for p in parts])

        def bwd(g):
            for pn, start, stop in zip(nodes, cuts, cuts[1:]):
                _accum(pn, g[start:stop], owned=False)
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# image-batch ops (N, C, H, W)


def flip_w(a):
    """Mirror along the last (width) axis."""
    out = _node(a.data[..., ::-1].copy(), (a,), "flip_w")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, g[..., ::-1], owned=False)
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
        an = a.node

        def bwd(g):
            if an.grad is None:
                an.grad = np.zeros(an.shape, dtype=an.dtype)
            if r1 > r0 and c1 > c0:
                an.grad[:, :, r0 - dy:r1 - dy, c0 - dx:c1 - dx] += g[:, :, r0:r1, c0:c1]
        out._backward = bwd
    return out


def apply_mask(a, mask):
    """Multiply by a constant (H, W) mask, broadcast over batch and channels."""
    m = np.asarray(mask, dtype=a.data.dtype)
    out = _node(a.data * m, (a,), "apply_mask")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            _accum(an, g * m)
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# scratch budget and sample splitting


GROUP_BUDGET = 1 << 20
"""Elements of the scratch buffers that one op call fills one sample group at
a time: the im2col columns of ``conv2d`` in forward and backward (unless it
keeps them whole for the weight gradient) and a term of ``instance_norm``'s
dX. A call split into parts gives each part an equal share."""

SPLIT_FLOOR = 1 << 18
"""Elements of an op call's largest array from which the call splits its
samples over the cores. In one process on a 2-CPU machine, with floors of
2**17, 2**18 and 2**19 taking turns over 10 rounds, the median step read:
CIFAR shape at ipc 10 (1 class, 256 real images, width 128) 507, 513 and
543 ms; 2 classes at ipc 50 with 32 real images 560, 543 and 600 ms; the toy
benchmark step (64 real images of 16 px at width 32, whose 524,288-element
real chunks split under all three) 54.1, 54.2 and 54.1 ms; and the toy step
with 16 real images, whose 131,072-element chunks split only under 2**17,
37.3, 37.5 and 36.9 ms. So 2**19, which keeps the ipc-10 block-2 (327,680
elements) and ipc-50 block-3 (409,600) ops whole, is slower, and 2**17 gains
nothing over 2**18."""


def _group_size(per_sample, budget):
    """Samples of ``per_sample`` scratch elements that fit ``budget``, a
    part's share of GROUP_BUDGET, at least one."""
    return max(1, budget // per_sample)


def _find_blas():
    """The set-thread-count function of numpy's bundled OpenBLAS, or None."""
    try:
        put = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    put.restype, put.argtypes = None, (ctypes.c_int,)
    return put


_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # usable CPUs
# The engine owns the cores from import. With two or more, OpenBLAS is pinned
# to one thread for the whole process, so that no GEMM, split or not, wakes
# BLAS helper threads that then compete with the parts for the cores. Without
# that symbol or with one usable CPU, BLAS keeps its count and no call splits.
_set_blas_threads = _find_blas()
if _set_blas_threads is None or _WORKERS < 2:
    _WORKERS = 1
else:
    _set_blas_threads(1)
# The threads that run all parts but the first; an executor starts none
# before its first submit.
_pool = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="tensor-part")


def _over_samples(fn, rows, *args, scratch=0):
    """Call ``fn(*rows, *args)``; ``rows`` are arrays with one entry per sample
    along their first axis, and ``scratch`` is the elements one sample takes
    in the buffers ``fn`` fills one sample group at a time (0 for none).
    With ``scratch``, ``fn`` is also passed ``budget``, its share of
    GROUP_BUDGET: the whole budget, or an equal share for each part.

    When the largest array of ``rows`` has at least SPLIT_FLOOR elements, the
    samples are cut into contiguous ranges, one per usable CPU but no more
    than there are samples, or than the shares of GROUP_BUDGET that hold one
    sample's ``scratch``. With two or more, ``fn`` runs on each range's slices
    of ``rows`` at the same time, the calling thread taking the first, so the
    parts' groups stay within GROUP_BUDGET in total. Otherwise it is one call
    on the whole arrays. A part runs numpy only and writes its own samples of
    arrays the op allocated before; the op keeps every reduction across
    samples. An error in a part is raised once every part has finished.
    """
    n = parts = 1
    if rows[0].ndim > 0 and max(r.size for r in rows) >= SPLIT_FLOOR:
        n = len(rows[0])
        parts = min(_WORKERS, n, GROUP_BUDGET // scratch if scratch else n)
    if scratch:
        fn = functools.partial(fn, budget=GROUP_BUDGET // max(parts, 1))
    if parts < 2:
        return fn(*rows, *args)
    cuts = [n * i // parts for i in range(parts + 1)]

    def part(i):
        return fn(*(r[cuts[i]:cuts[i + 1]] for r in rows), *args)
    rest = [_pool.submit(part, i) for i in range(1, parts)]
    try:
        part(0)
    finally:
        errors = [f.exception() for f in rest]  # waits for every part
    for err in errors:
        if err is not None:
            raise err


# ---------------------------------------------------------------------------
# network layers


def relu(a):
    """max(x, 0). A graph keeps only the bool mask y > 0, which equals
    x > 0 for every x, NaN and -0 included."""
    x = a.data
    y = np.empty_like(x)
    mask = np.empty(x.shape, dtype=bool)
    _over_samples(_relu_rows, (x, y, mask))
    out = _node(y, (a,), "relu")
    if out.requires_grad:
        an = a.node

        def bwd(g):
            gx = np.empty(an.shape, dtype=g.dtype)
            _over_samples(np.multiply, (g, mask, gx))
            _accum(an, gx)
        out._backward = bwd
    return out


def _relu_rows(x, y, mask=None):
    np.maximum(x, 0, out=y)
    if mask is not None:
        np.greater(y, 0, out=mask)


def _tap_spans(size):
    """Where each tap k of the same-padded 3x3 conv reads along an axis of
    ``size``: the output positions [o0, o1) and the input position o0 + k - 1
    they start at."""
    return [(1, size, 0), (0, size, 0), (0, size - 1, 1)]


def conv2d(x, w):
    """3x3 cross-correlation with zero padding 1, stride 1, no bias.

    x: (N, Cin, H, W), w: (Cout, Cin, 3, 3) -> (N, Cout, H, W).
    Implemented as im2col + one GEMM per sample: the column buffer is
    (N, Cin*9, H*W), so ``W @ cols`` writes NCHW directly. The columns are
    built whole only when the weight gradient keeps them; otherwise, and for
    the input gradient, in sample groups within GROUP_BUDGET. The weight
    gradient fills an (N, Cout, Cin*9) product, one GEMM per sample, in a
    call that may split, and sums it over the samples on the calling thread.
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
    k = cin * 9
    wmat = w.data.reshape(cout, k)
    y = np.empty((n, cout, h * wd), dtype=np.result_type(wmat, x.data))
    rows = (x.data, y)
    keep = w.requires_grad  # only the weight gradient reads the columns
    if keep:
        rows += (np.empty((n, cin, 3, 3, h, wd), dtype=x.data.dtype),)
    _over_samples(functools.partial(_conv2d_rows, wmat=wmat), rows,
                  scratch=0 if keep else k * h * wd)
    out = _node(y.reshape(n, cout, h, wd), (x, w), "conv2d")
    if out.requires_grad:
        xn, wn = x.node, w.node
        wcols = rows[2].reshape(n, k, h * wd) if keep else None

        def bwd(g):
            gm = g.reshape(n, cout, h * wd)
            if wn is not None:
                prod = np.empty((n, cout, k), dtype=np.result_type(gm, wcols))
                _over_samples(np.matmul, (gm, wcols.transpose(0, 2, 1), prod))
                _accum(wn, prod.sum(axis=0).reshape(wn.shape))
            if xn is not None:
                dx = np.zeros(xn.shape, dtype=np.result_type(wmat, gm))
                _over_samples(_conv2d_input_grad_rows, (gm, dx), wmat, scratch=k * h * wd)
                _accum(xn, dx)
        out._backward = bwd
    return out


def _conv2d_rows(x, y, cols=None, *, wmat, budget=None):
    """``y = W @ cols(x)``, with its own padded input buffer. Given ``cols``,
    (N, Cin, 3, 3, H, W), every sample's columns are built there in one
    group; otherwise in sample groups within ``budget``, in a buffer of its
    own."""
    n, cin, h, wd = x.shape
    k = cin * 9
    step = max(n, 1) if cols is not None else _group_size(k * h * wd, budget)
    xp = np.zeros((min(n, step), cin, h + 2, wd + 2), dtype=x.dtype)
    if cols is None:
        cols = np.empty((min(n, step), cin, 3, 3, h, wd), dtype=x.dtype)
    for s in range(0, n, step):
        m = min(step, n - s)
        xp[:m, :, 1:1 + h, 1:1 + wd] = x[s:s + m]  # the border stays zero
        win = sliding_window_view(xp[:m], (3, 3), axis=(2, 3))  # (m, Cin, h, wd, 3, 3)
        np.copyto(cols[:m], win.transpose(0, 1, 4, 5, 2, 3))
        np.matmul(wmat, cols[:m].reshape(m, k, h * wd), out=y[s:s + m])


def _conv2d_input_grad_rows(gm, dx, wmat, *, budget):
    """Add the dX of ``conv2d`` from the output gradient gm: (N, Cout, H*W)
    into dx. Per sample group, the columns W^T @ g are built and each of the
    nine taps is added, clipped to the image, straight into dX."""
    n, cin, h, wd = dx.shape
    step = _group_size(cin * 9 * h * wd, budget)
    gcols = np.empty((min(n, step), cin, 3, 3, h, wd), dtype=dx.dtype)
    row_spans, col_spans = _tap_spans(h), _tap_spans(wd)
    for s in range(0, n, step):
        m = min(step, n - s)
        gc = gcols[:m]
        np.matmul(wmat.T, gm[s:s + m], out=gc.reshape(m, cin * 9, h * wd))
        dg = dx[s:s + m]
        for ki, (r0, r1, i0) in enumerate(row_spans):
            for kj, (c0, c1, j0) in enumerate(col_spans):
                dg[:, :, i0:i0 + r1 - r0, j0:j0 + c1 - c0] += gc[:, :, ki, kj, r0:r1, c0:c1]


_NORM_EPS = 1e-5
"""The variance offset of instance norm, in ``instance_norm`` and ``conv_blocks``."""


def instance_norm(x, gamma, beta, eps=_NORM_EPS):
    """Standardize each (sample, channel) plane, then scale/shift per channel."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"instance_norm expects (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeMismatch(
            f"instance_norm: affine shapes {gamma.data.shape}, {beta.data.shape} != ({c},)")
    m = h * w
    x3 = x.data.reshape(n, c, m)
    eps = np.asarray(eps, dtype=x.data.dtype)
    xc = np.empty_like(x3)
    istd = np.empty((n, c), dtype=x.data.dtype)
    a = np.empty((n, c), dtype=np.result_type(gamma.data, istd))  # the factor applied to xc
    y = np.empty(x3.shape, dtype=np.result_type(xc, a))
    _over_samples(_instance_norm_rows, (x3, xc, istd, a, y), gamma.data, beta.data, eps)
    out = _node(y.reshape(n, c, h, w), (x, gamma, beta), "instance_norm")
    if out.requires_grad:
        xn, gn, bn = x.node, gamma.node, beta.node

        def bwd(g):
            g3 = g.reshape(n, c, m)
            gxc = np.empty((n, c), dtype=np.result_type(g3, xc))  # sum of g * xc per plane
            rows = (g3, xc, istd, a, gxc)
            if xn is not None:
                gx = np.empty(g3.shape, dtype=np.result_type(g3, a))
                rows += (gx,)
            _over_samples(_instance_norm_grad_rows, rows, scratch=0 if xn is None else c * m)
            if gn is not None:
                _accum(gn, (gxc * istd).sum(axis=0))
            if bn is not None:
                _accum(bn, g3.sum(axis=(0, 2)))
            if xn is not None:
                _accum(xn, gx.reshape(n, c, h, w))
        out._backward = bwd
    return out


def _instance_norm_rows(x3, xc, istd, a, y, gamma, beta, eps):
    np.subtract(x3, x3.mean(axis=2, keepdims=True), out=xc)
    var = np.einsum("ncp,ncp->nc", xc, xc) / x3.shape[2]
    np.divide(1.0, np.sqrt(var + eps), out=istd)
    np.multiply(gamma, istd, out=a)
    np.multiply(xc, a[:, :, None], out=y)
    y += beta[:, None]


def _instance_norm_grad_rows(g3, xc, istd, a, gxc, gx=None, *, budget=None):
    gxc[...] = np.einsum("ncp,ncp->nc", g3, xc)  # out= would cost more than this copy
    if gx is None:
        return
    # d/dx = a * (g - mean(g) - xhat * mean(g * xhat)), xhat = xc * istd,
    # formed in place one sample group at a time
    n, c, m = g3.shape
    s1 = a * g3.sum(axis=2) / m
    s2 = a * istd * istd * gxc / m
    step = _group_size(c * m, budget)
    xs2 = np.empty((min(n, step), c, m), dtype=gx.dtype)
    for s in range(0, n, step):
        k = min(step, n - s)
        d = gx[s:s + k]
        np.multiply(g3[s:s + k], a[s:s + k, :, None], out=d)
        d -= s1[s:s + k, :, None]
        np.multiply(xc[s:s + k], s2[s:s + k, :, None], out=xs2[:k])
        d -= xs2[:k]


def _axis_slice(ndim, axis, *s):
    """Index selecting ``slice(*s)`` along ``axis`` of an ``ndim``-D array."""
    idx = [slice(None)] * ndim
    idx[axis] = slice(*s)
    return tuple(idx)


def _tap3_stride2(a, axis, out=None):
    """Zero-padded 3-tap sums at stride 2 along ``axis``: entry i of the
    result is a[2i-1] + a[2i] + a[2i+1], and the length halves rounding up."""
    size = a.shape[axis]
    half, keep = size // 2, -(-size // 2)

    def at(*s):
        return _axis_slice(a.ndim, axis, *s)

    shape = list(a.shape)
    shape[axis] = keep
    y = np.empty(shape, dtype=a.dtype) if out is None else out
    np.add(a[at(0, 2 * half, 2)], a[at(1, None, 2)], out=y[at(0, half)])
    y[at(half, None)] = a[at(2 * half, None)]  # odd length: the last entry has no right tap
    y[at(1, None)] += a[at(1, 2 * keep - 2, 2)]
    return y


def _tap3_stride2_adjoint(g, axis, size, out=None):
    """Transpose of ``_tap3_stride2`` back to length ``size`` along ``axis``:
    entry 2i is g[i], entry 2i+1 is g[i] + g[i+1], or g[i] alone at the end of
    an even length."""
    keep = g.shape[axis]

    def at(*s):
        return _axis_slice(g.ndim, axis, *s)

    shape = list(g.shape)
    shape[axis] = size
    x = np.empty(shape, dtype=g.dtype) if out is None else out
    x[at(0, None, 2)] = g
    np.add(g[at(0, keep - 1)], g[at(1, None)], out=x[at(1, 2 * keep - 2, 2)])
    if size % 2 == 0:
        x[at(size - 1, None)] = g[at(keep - 1, None)]
    return x


def avgpool(x):
    """3x3 average pooling, stride 2, zero padding 1, fixed divisor 9.

    (N, C, H, W) -> (N, C, ceil(H/2), ceil(W/2)); requires H, W >= 2.
    The window sum is separable: a 3-tap sum over rows, then over columns.
    The backward pass is its adjoint: the transposed sum over columns, then
    over rows.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"avgpool expects (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h < 2 or w < 2:
        raise ShapeMismatch(f"avgpool requires spatial dims >= 2, got {h}x{w}")
    ninth = np.asarray(1.0 / 9.0, dtype=x.data.dtype)
    y = np.empty((n, c, -(-h // 2), -(-w // 2)), dtype=x.data.dtype)
    _over_samples(_avgpool_rows, (x.data, y), ninth)
    out = _node(y, (x,), "avgpool")
    if out.requires_grad:
        xn = x.node

        def bwd(g):
            gx = np.empty(xn.shape, dtype=np.result_type(g, ninth))
            _over_samples(_avgpool_grad_rows, (g, gx), ninth)
            _accum(xn, gx)
        out._backward = bwd
    return out


def _avgpool_rows(x, y, ninth):
    _tap3_stride2(_tap3_stride2(x, 2), 3, out=y)
    y *= ninth


def _avgpool_grad_rows(g, gx, ninth):
    h, w = gx.shape[2:]
    _tap3_stride2_adjoint(_tap3_stride2_adjoint(g * ninth, 3, w), 2, h, out=gx)


def conv_blocks(x, blocks):
    """The pooled output of every block of a graph-free encoder pass.

    ``blocks`` holds one (w, gamma, beta) triple of tensors per block; block
    i maps the previous output (x for the first) to
    ``avgpool(relu(instance_norm(conv2d(., w), gamma, beta)))``, and each
    output equals that chain of ops bit for bit. It records no graph, so it
    raises TensorError when any input needs a gradient. The blocks run in one
    ``_over_samples`` call: when it splits, each part takes its samples
    through every block, with one hand-off where the chain makes four per
    block. Per block, a part writes the conv into its rows of one scratch
    array that every block reuses, the norm and the ReLU over them in place,
    and the pool into its rows of the block's output. The op allocates these
    arrays once, for all samples, on the calling thread; the scratch array,
    the largest, decides whether the call splits.
    """
    if any(t.node is not None for t in (x, *(t for blk in blocks for t in blk))):
        raise TensorError("conv_blocks records no graph, but an input needs a gradient")
    if x.data.ndim != 4:
        raise ShapeMismatch(f"conv_blocks expects (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    dtype = x.data.dtype
    mats, outs, conv_size, cols_size = [], [], 0, 0
    for i, (wt, gamma, beta) in enumerate(blocks):
        if wt.data.ndim != 4 or wt.data.shape[1:] != (c, 3, 3):
            raise ShapeMismatch(f"conv_blocks: block {i} weight {wt.data.shape} "
                                f"for {c} input channels")
        c = wt.data.shape[0]
        if gamma.data.shape != (c,) or beta.data.shape != (c,):
            raise ShapeMismatch(f"conv_blocks: block {i} affine shapes "
                                f"{gamma.data.shape}, {beta.data.shape} != ({c},)")
        if h < 2 or w < 2:
            raise ShapeMismatch(f"conv_blocks: block {i} cannot pool a {h}x{w} map")
        dtype = np.result_type(wt.data, dtype)  # the conv's output type, kept by the rest
        conv_size = max(conv_size, c * h * w)
        cols_size = max(cols_size, wt.data.shape[1] * 9 * h * w)
        h, w = -(-h // 2), -(-w // 2)
        mats.append((wt.data.reshape(c, -1), gamma.data, beta.data))
        outs.append(np.empty((n, c, h, w), dtype=dtype))
    # The last block's type is the widest, so each block's conv fits a row.
    scratch = np.empty((n, conv_size), dtype=dtype)
    _over_samples(functools.partial(_conv_blocks_rows, blocks=mats), (x.data, scratch, *outs),
                  scratch=cols_size)
    return [Tensor(y) for y in outs]


def _conv_blocks_rows(x, scratch, *ys, blocks, budget=None):
    flat = scratch.reshape(-1)  # the part's rows are contiguous
    for (wmat, gamma, beta), y in zip(blocks, ys):
        n, _, h, w = x.shape
        c = len(wmat)
        z = flat.view(y.dtype)[:n * c * h * w].reshape(n, c, h * w)
        _conv2d_rows(x, z, wmat=wmat, budget=budget)
        istd = np.empty((n, c), dtype=z.dtype)
        a = np.empty((n, c), dtype=np.result_type(gamma, istd))
        _instance_norm_rows(z, z, istd, a, z, gamma, beta, np.asarray(_NORM_EPS, dtype=z.dtype))
        _relu_rows(z, z)
        _avgpool_rows(z.reshape(n, c, h, w), y, np.asarray(1.0 / 9.0, dtype=z.dtype))
        x = y


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
        xn, wn, bn = x.node, w.node, b.node
        xd = x.data if wn is not None else None  # only the weight gradient reads x
        wd = w.data if xn is not None else None

        def bwd(g):
            if xn is not None:
                _accum(xn, g @ wd)
            if wn is not None:
                _accum(wn, g.T @ xd)
            if bn is not None:
                _accum(bn, g.sum(axis=0))
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
        ln = logits.node

        def bwd(g):
            p = np.exp(logp)
            p[np.arange(n), y] -= 1
            _accum(ln, g * p / n)
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

"""Outside-in tracing of attndistill for the traced benchmark run.

Nothing here edits the program. ``instrument`` replaces module attributes
where the callers look them up (``attndistill.tensor.conv2d`` for every
``T.conv2d(...)`` call, ``attndistill.distill.forward`` for the encoder pass
inside ``distill_step``, and so on) with timing wrappers, and restores every
one of them on exit. Per-op backward time comes from wrapping the
``_backward`` closure on each tensor an op returns.

Spans (name, start, end, parent) are kept in memory by a ``Tracer`` and
summarised per unit of work (one distill step or one evaluated model) by
``unit_metrics``.
"""
from __future__ import annotations

import contextlib
import inspect
import statistics
import time
import tracemalloc

MIB = float(1 << 20)

# Ops reported one by one; every other public op of the tensor module is
# pooled as "other".
NAMED_OPS = ("conv2d", "instance_norm", "relu", "avgpool", "abs_pow",
             "l2_normalize_rows", "linear", "softmax_cross_entropy")
# Public functions of the tensor module that are not graph ops.
NON_OPS = {"no_grad", "backward", "sgd_momentum_step"}
# Spans whose peak traced allocation the memory pass records. An encoder
# pass learns its kind (grad or nograd) only when it returns.
MEM_SPANS = ("encoder.forward.nograd", "encoder.forward.grad", "tensor.backward")
_MEM_BEGIN = ("encoder.forward", "tensor.backward")


class Tracer:
    """In-memory span recorder.

    Each span is a list ``[name, start, end, parent, extra]``; ``parent`` is
    the index of the enclosing open span (-1 at the top) and ``extra`` holds
    per-span numbers such as output bytes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.mem = False  # set by instrument(mem=True)
        self.spans = []
        self._open = []
        self._op_depth = 0
        self._mem_base = {}

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        if self.mem and name in _MEM_BEGIN:
            tracemalloc.reset_peak()
            self._mem_base[idx] = tracemalloc.get_traced_memory()[0]
        self.spans.append([name, self.clock(), None, parent, None])
        self._open.append(idx)
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[2] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        base = self._mem_base.pop(idx, None)
        if base is not None:
            self.note(idx, peak_mb=(tracemalloc.get_traced_memory()[1] - base) / MIB)

    def note(self, idx, **values):
        span = self.spans[idx]
        if span[4] is None:
            span[4] = {}
        span[4].update(values)

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def rename(self, idx, name):
        self.spans[idx][0] = name


# ---------------------------------------------------------------------------
# span arithmetic


def children_map(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans, idx, kids=None):
    """Duration of a span minus the union of its children's intervals."""
    kids = children_map(spans) if kids is None else kids
    s = spans[idx]
    return (s[2] - s[1]) - union_length([(spans[k][1], spans[k][2]) for k in kids[idx]])


def check_nesting(spans):
    """Raise if a span is still open or a child extends past its parent."""
    for i, s in enumerate(spans):
        if s[2] is None or s[2] < s[1]:
            raise ValueError(f"span {i} ({s[0]}) is open or negative")
        if s[3] >= 0:
            p = spans[s[3]]
            if s[1] < p[1] or s[2] > p[2]:
                raise ValueError(f"span {i} ({s[0]}) extends past its parent {p[0]}")


# ---------------------------------------------------------------------------
# instrumentation


def _op_names(tensor_mod):
    return sorted(name for name, fn in vars(tensor_mod).items()
                  if inspect.isfunction(fn) and fn.__module__ == tensor_mod.__name__
                  and not name.startswith("_") and name not in NON_OPS)


def _conv_shapes(args, kwargs):
    x, w = args[0], args[1]
    pad = kwargs.get("pad", args[3] if len(args) > 3 else 1)
    n, cin, h, wd = x.data.shape
    ho, wo = h + 2 * pad - 2, wd + 2 * pad - 2
    rows, depth = n * ho * wo, cin * 9
    flop = 2.0 * rows * depth * w.data.shape[0]
    return flop, rows * depth * x.data.itemsize


def _wrap_op(tracer, op, fn):
    fwd_name = f"tensor.{op}"
    bwd_name = f"tensor.{op}.bwd"

    def wrapped(*args, **kwargs):
        # An op called from inside another op (flatten2d -> reshape) is part
        # of the outer op's time.
        if tracer._op_depth:
            return fn(*args, **kwargs)
        tracer._op_depth += 1
        idx = tracer.begin(fwd_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer._op_depth -= 1
            tracer.end(idx)
        data = getattr(out, "data", None)
        extra = {"bytes": getattr(data, "nbytes", 0)}
        if op == "conv2d":
            extra["flop"], extra["cols_bytes"] = _conv_shapes(args, kwargs)
        tracer.note(idx, **extra)
        if getattr(out, "_backward", None) is not None:
            out._backward = _wrap_span(tracer, bwd_name, out._backward)
        return out
    return wrapped


def _wrap_span(tracer, name, fn):
    def wrapped(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapped


def _wrap_forward(tracer, fn):
    def wrapped(*args, **kwargs):
        idx = tracer.begin("encoder.forward")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        # A pass that recorded no graph is the no-grad kind: the real-batch
        # targets in distillation and the scoring pass in evaluation.
        kind = "grad" if out.logits.requires_grad else "nograd"
        tracer.rename(idx, f"encoder.forward.{kind}")
        return out
    return wrapped


@contextlib.contextmanager
def instrument(tracer, mem=False):
    """Wrap the program's public functions at their lookup sites for the
    duration of the block, and restore every original on exit. With ``mem``
    the block runs under tracemalloc and the spans in MEM_SPANS record their
    peak traced allocation."""
    from attndistill import distill, evaluation, losses
    from attndistill import tensor as T

    patches = []

    def patch(mod, attr, new):
        patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    tracer.mem = mem
    try:
        for op in _op_names(T):
            patch(T, op, _wrap_op(tracer, op, getattr(T, op)))
        patch(T, "backward", _wrap_span(tracer, "tensor.backward", T.backward))
        patch(T, "sgd_momentum_step",
              _wrap_span(tracer, "tensor.sgd_momentum_step", T.sgd_momentum_step))
        for mod in (distill, evaluation):
            patch(mod, "forward", _wrap_forward(tracer, mod.forward))
            patch(mod, "sample_params",
                  _wrap_span(tracer, "encoder.sample_params", mod.sample_params))
        patch(distill, "siamese_augment",
              _wrap_span(tracer, "distill.siamese_augment", distill.siamese_augment))
        for fn in ("sam_loss", "mmd_loss", "total_loss"):
            patch(losses, fn, _wrap_span(tracer, f"losses.{fn}", getattr(losses, fn)))
        if mem:
            tracemalloc.start()
        yield
    finally:
        if mem:
            tracemalloc.stop()
        tracer.mem = False
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-unit summaries


def _descendants(kids, root):
    stack = list(kids[root])
    while stack:
        i = stack.pop()
        yield i
        stack.extend(kids[i])


def unit_metrics(spans, root, kids):
    """Per-layer sums over one unit of work (the subtree under ``root``)."""
    m = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    for i in _descendants(kids, root):
        name, start, end, _, extra = spans[i]
        dur = end - start
        if name.startswith("tensor.") and name not in (
                "tensor.backward", "tensor.sgd_momentum_step"):
            bwd = name.endswith(".bwd")
            op = name[len("tensor."):-len(".bwd") if bwd else None]
            op = op if op in NAMED_OPS else "other"
            if bwd:
                add(f"tensor.{op}.bwd_s", dur)
                continue
            add(f"tensor.{op}.fwd_s", dur)
            add(f"tensor.{op}.calls", 1)
            if op != "other":
                add(f"tensor.{op}.out_bytes", extra["bytes"])
            if op == "conv2d":
                add("tensor.conv2d.gflop", extra["flop"] / 1e9)
                m["tensor.conv2d.cols_mb"] = max(m.get("tensor.conv2d.cols_mb", 0.0),
                                                 extra["cols_bytes"] / MIB)
        elif name == "tensor.backward":
            add("tensor.backward.s", dur)
            add("tensor.backward.self_s", self_time(spans, i, kids))
        elif name == "tensor.sgd_momentum_step":
            add("tensor.sgd_momentum_step.calls", 1)
            add("tensor.sgd_momentum_step.s", dur)
        elif name.startswith("encoder.forward."):
            kind = name.rsplit(".", 1)[1]
            add(f"encoder.forward.{kind}_calls", 1)
            add(f"encoder.forward.{kind}_s", dur)
        elif name in ("encoder.sample_params", "distill.siamese_augment", "losses.sam_loss",
                      "losses.mmd_loss", "losses.total_loss",
                      "evaluation.train_classifier", "evaluation.test_accuracy"):
            add(f"{name}.s", dur)
    if spans[root][0] == "distill.step":
        m["distill.step.self_s"] = self_time(spans, root, kids)
    if "tensor.conv2d.fwd_s" in m:
        m["tensor.conv2d.fwd_gflop_per_s"] = m["tensor.conv2d.gflop"] / m["tensor.conv2d.fwd_s"]
    return m


def summarise(spans, root_name):
    """Median over every ``root_name`` unit of each per-unit metric."""
    check_nesting(spans)
    kids = children_map(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == root_name]
    per_unit = [unit_metrics(spans, r, kids) for r in roots]
    keys = sorted({k for u in per_unit for k in u})
    return {k: statistics.median(u.get(k, 0.0) for u in per_unit) for k in keys}


def peak_mb(spans):
    """Largest recorded peak for each span in MEM_SPANS."""
    peaks = {}
    for name, _, _, _, extra in spans:
        if extra and "peak_mb" in extra:
            peaks[name] = max(peaks.get(name, 0.0), extra["peak_mb"])
    return {f"mem.{n}.peak_mb": peaks.get(n, 0.0) for n in MEM_SPANS}

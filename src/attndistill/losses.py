"""Matching objectives between the real and synthetic images of one class.

Both terms compare batch-mean statistics under one random encoder draw: a
squared error between the batch means of per-sample L2-normalized spatial
attention maps on the intermediate layers, and a linear-kernel MMD (squared
distance of empirical mean vectors) on the vectorized last-layer features.
Error reduction is MSE over vector components; layer terms are summed. The
sum over classes is taken by the caller. The real side is a constant target,
so its statistics are accumulated chunk by chunk without a graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

NORM_EPS = 1e-8


@dataclass
class LossBreakdown:
    l_sam: float
    l_mmd: float
    total: float
    per_layer: list[float] = field(default_factory=list)


@dataclass
class ClassStats:
    """The statistics one class is matched on, under one encoder draw."""

    layers: list[int]        # 1-based intermediate layers, ascending
    attention: list[Tensor]  # mean unit attention map of each layer in ``layers``
    feature: Tensor          # mean vectorized last-layer feature


def attention_pool(feature, p):
    """Collapse (B, C, H, W) features to (B, H, W) attention: sum_c |f_c|^p."""
    if feature.data.ndim != 4:
        raise T.ShapeMismatch(f"attention_pool expects (B,C,H,W), got {feature.data.shape}")
    return T.sum_axis(T.abs_pow(feature, p), 1)


def _mse(a, b):
    d = T.sub(a, b)
    return T.scale(T.sum_all(T.mul(d, d)), 1.0 / d.size)


def _select_layers(depth, layers):
    layers = sorted(set(int(l) for l in (range(1, depth) if layers is None else layers)))
    if layers and (layers[0] < 1 or layers[-1] > depth - 1):
        raise ValueError(f"layers {layers} outside 1..{depth - 1}")
    return layers


def _sample_rows(trace, p, layers):
    """The per-sample rows a class's statistics average: the unit-normalized
    vectorized attention map of each layer in ``layers``, then the
    vectorized last-layer feature."""
    rows = [T.l2_normalize_rows(T.flatten2d(attention_pool(trace.features[l - 1], p)),
                                NORM_EPS)
            for l in layers]
    return rows + [T.flatten2d(trace.features[-1])]


def class_stats(trace, p, layers=None):
    """The statistics of one class's batch from its ForwardTrace.

    layers: 1-based block indices among 1..L-1 (None selects all of them).
    On the synthetic batch this records the graph back to the pixels.
    """
    layers = _select_layers(len(trace.features), layers)
    *attention, feature = [T.mean_axis(r, 0) for r in _sample_rows(trace, p, layers)]
    return ClassStats(layers=layers, attention=attention, feature=feature)


def target_stats(traces, p, layers=None):
    """The constant real-side statistics of one class, from the
    ForwardTraces of its batch's consecutive chunks (at least one; run them
    under ``T.no_grad()``).

    Only running sums are kept. Rows are added one sample at a time, in
    sample order and starting from zero, then divided by the batch size
    once. That is how ``mean_axis`` reduces rows of two or more elements, so
    the result equals ``class_stats`` of the whole batch bit for bit (a
    single column, e.g. a width-1 encoder's 1x1 feature, numpy sums
    pairwise, which may round differently).
    """
    sums, count = None, 0
    for trace in traces:
        chosen = _select_layers(len(trace.features), layers)
        rows = [r.data for r in _sample_rows(trace, p, chosen)]
        sums = sums or [np.zeros_like(r[0]) for r in rows]
        for total, r in zip(sums, rows):
            for row in r:
                total += row
        count += len(rows[-1])
    *attention, feature = [Tensor(total / count) for total in sums]
    return ClassStats(layers=chosen, attention=attention, feature=feature)


def sam_loss(real, syn):
    """Attention-matching loss of one class over the selected layers.

    Returns the scalar loss and the float term of each layer in
    ``real.layers``.
    """
    terms = [_mse(r, s) for r, s in zip(real.attention, syn.attention)]
    loss = Tensor(np.zeros((), dtype=real.feature.data.dtype))
    for term in terms:
        loss = T.add(loss, term)
    return loss, [t.item() for t in terms]


def mmd_loss(real, syn):
    """Linear-kernel MMD of one class: MSE between the real and synthetic
    mean last-layer feature vectors."""
    return _mse(real.feature, syn.feature)


def total_loss(sam, mmd, lam):
    """Combine the two terms: sam + lam * mmd."""
    if lam < 0:
        raise ValueError(f"task balance must be >= 0, got {lam}")
    return T.add(sam, T.scale(mmd, lam))

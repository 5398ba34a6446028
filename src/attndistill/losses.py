"""Matching objectives between the real and synthetic images of one class.

Both terms compare batch-mean statistics under one random encoder draw: a
squared error between the batch means of per-sample L2-normalized spatial
attention maps on the intermediate layers, and a linear-kernel MMD (squared
distance of empirical mean vectors) on the vectorized last-layer features.
Error reduction is MSE over vector components; layer terms are summed. The
sum over classes is taken by the caller. The real side is a constant target:
its chunks and the encoder draw need no gradient, so no op on them records a
graph.
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


def select_layers(depth, layers):
    """The sorted distinct 1-based layers that attention matches in an
    encoder of ``depth`` blocks (None: all of 1..depth-1); raises
    ``ValueError`` outside 1..depth-1."""
    layers = sorted(set(int(l) for l in (range(1, depth) if layers is None else layers)))
    if layers and (layers[0] < 1 or layers[-1] > depth - 1):
        raise ValueError(f"layers {layers} outside 1..{depth - 1}")
    return layers


def class_stats(traces, p, layers=None):
    """The statistics of one class's batch from the ForwardTraces of its
    consecutive chunks: ``[trace]`` for the synthetic batch, whose graph runs
    back to the pixels, or the real batch's chunks, whose features have none.

    layers: 1-based block indices among 1..L-1 (None selects all of them),
    selected once, by the first trace's depth. Each sample's rows, the
    unit-normalized vectorized attention map of each layer and the
    vectorized last-layer feature, are joined across chunks and averaged
    once, so the chunking does not change the result.
    """
    chunks = []
    for trace in traces:
        if not chunks:
            chosen = select_layers(len(trace.features), layers)
        chunks.append([T.l2_normalize_rows(T.flatten2d(attention_pool(trace.features[l - 1], p)),
                                           NORM_EPS)
                       for l in chosen] + [T.flatten2d(trace.features[-1])])
    *attention, feature = [T.mean_axis(T.concat_rows(rows), 0) for rows in zip(*chunks)]
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

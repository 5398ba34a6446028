"""Synthetic-set optimization loop.

Each iteration draws a fresh random encoder, samples a real mini-batch per
class, pairs it with that class's full synthetic slice under one shared
(siamese) augmentation draw, and takes an SGD-momentum step on the synthetic
pixels against the combined attention-matching + feature-mean objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses, tensor as T
from .augment import AugmentSpec, draw_augment, siamese_augment
from .data import DatasetIndex
from .encoder import EncoderConfig, forward, sample_params
from .losses import LossBreakdown
from .synfile import SyntheticSet
from .tensor import Tensor


class DistillError(RuntimeError):
    pass


def _derive_seeds(*key, count=1):
    ss = np.random.SeedSequence([int(k) for k in key])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class DistillConfig:
    ipc: int = 10
    iterations: int = 8000
    lr_images: float | None = None      # resolved: 1.0 for ipc <= 50 else 10.0
    image_momentum: float = 0.5
    weight_decay_images: float = 0.0
    lam: float = 0.01
    p: float = 4.0
    real_batch_per_class: int = 256
    seed: int = 0
    init: str = "random"                # random | kcenter | noise
    layers: tuple[int, ...] | None = None   # None = all intermediate layers
    use_sam: bool = True
    use_mmd: bool = True
    augment: AugmentSpec = field(default_factory=AugmentSpec)

    def __post_init__(self):
        if self.ipc < 1 or self.iterations < 0 or self.real_batch_per_class < 1:
            raise ValueError(f"counts must be positive: {self}")
        if self.init not in ("random", "kcenter", "noise"):
            raise ValueError(f"unknown init strategy {self.init!r}")
        _require_a_term(self, self.use_sam and (self.layers is None or len(self.layers) > 0))
        if self.lr_images is None:
            self.lr_images = 1.0 if self.ipc <= 50 else 10.0
        for name, meaning, floor in (("lr_images", "image learning rate", 0),
                                     ("image_momentum", "image momentum", 0),
                                     ("weight_decay_images", "image weight decay", 0),
                                     ("lam", "task balance", 0),
                                     ("p", "attention exponent", 1)):
            value = getattr(self, name)
            if not floor <= value < math.inf:
                raise ValueError(f"{name} ({meaning}) must be a finite number >= {floor}, "
                                 f"got {value}")


def _require_a_term(cfg, attention_on):
    if not (cfg.use_mmd or attention_on):
        raise ValueError("at least one of the attention and feature-mean terms must be on")


# ---------------------------------------------------------------------------
# synthetic set construction


def k_center(points, k):
    """Greedy k-center on row vectors: start at the point nearest the mean,
    then repeatedly take the point farthest from its nearest chosen center.
    Ties break toward the lowest index; never repeats an index."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k_center: k={k} exceeds {n} points")
    first = int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    chosen = [first]
    min_dist = np.linalg.norm(pts - pts[first], axis=1)
    min_dist[first] = -np.inf
    for _ in range(k - 1):
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pts - pts[nxt], axis=1))
        min_dist[nxt] = -np.inf
    return chosen


def init_synthetic(dataset, ipc, strategy, seed, dtype=np.float32):
    """Build the initial synthetic set: per-class real samples (random or
    greedy k-center) or i.i.d. standard-normal pixels."""
    k = dataset.num_classes
    c, h, w = dataset.image_shape
    rng = np.random.default_rng(np.random.PCG64(_derive_seeds(seed, 11)[0]))
    images = np.empty((k * ipc, c, h, w), dtype=dtype)
    if strategy == "noise":
        images[:] = rng.standard_normal(images.shape)
    else:
        for cls in range(k):
            idx = dataset.per_class[cls]
            if len(idx) < ipc:
                raise ValueError(
                    f"class {cls} has {len(idx)} samples, fewer than ipc={ipc}")
            if strategy == "random":
                pick = rng.choice(idx, size=ipc, replace=False)
            elif strategy == "kcenter":
                flat = dataset.images.data[idx].reshape(len(idx), -1)
                pick = [idx[j] for j in k_center(flat, ipc)]
            else:
                raise ValueError(f"unknown init strategy {strategy!r}")
            images[cls * ipc:(cls + 1) * ipc] = dataset.images.data[pick]
    labels = np.repeat(np.arange(k), ipc)
    return SyntheticSet(images=Tensor(images), labels=labels, ipc=ipc)


# ---------------------------------------------------------------------------
# the optimization loop


@dataclass
class DistillState:
    syn: SyntheticSet
    velocity: Tensor
    dataset: DatasetIndex
    config: DistillConfig
    encoder: EncoderConfig
    layers: list[int]  # the 1-based layers attention matches; empty without it


def make_state(config, encoder_cfg, dataset, dtype=np.float32):
    """The initial state of a run. Refuses, before any step, an objective
    the encoder's depth leaves with no term, and attention layers outside
    1..depth-1."""
    layers = losses.select_layers(encoder_cfg.depth, config.layers if config.use_sam else ())
    _require_a_term(config, len(layers) > 0)
    syn = init_synthetic(dataset, config.ipc, config.init, config.seed, dtype=dtype)
    return DistillState(
        syn=syn,
        velocity=Tensor(np.zeros_like(syn.images.data)),
        dataset=dataset,
        config=config,
        encoder=encoder_cfg,
        layers=layers,
    )


def distill_step(state, iteration):
    """One optimization step over all classes; returns the loss breakdown.

    Each class is matched against constant real-side targets: neither the
    real images nor the encoder draw need a gradient, so their chunks are
    embedded with no graph, and the class's loss reads only its own rows of
    the synthetic images, which enter the graph as a leaf of their own. Right
    after the class's backward its graph is released and those rows and
    their velocity take the SGD-momentum step, before the next class is
    embedded. The class loop runs in one ``T.parallel`` block, sized by the
    larger first-block activation of a real chunk and a class's synthetic
    batch: at ipc 1 and 10 the real chunk is the larger one.

    A ``DistillError`` at class k leaves classes 0..k-1 stepped; after a
    non-finite loss, class k's rows are as they were.
    """
    cfg = state.config
    syn = state.syn
    theta_seed, batch_seed, aug_seed = _derive_seeds(cfg.seed, 1, iteration, count=3)
    params = sample_params(state.encoder, theta_seed, dtype=syn.images.data.dtype)
    rng_batch = np.random.default_rng(np.random.PCG64(batch_seed))
    rng_aug = np.random.default_rng(np.random.PCG64(aug_seed))
    h, w = syn.images.data.shape[2], syn.images.data.shape[3]

    dtype = syn.images.data.dtype
    zero = Tensor(np.zeros((), dtype=dtype))
    chunk = state.encoder.nograd_chunk()
    l_sam = l_mmd = zero.data
    per_layer = [0.0] * (state.encoder.depth - 1)
    batch = max(min(chunk, cfg.real_batch_per_class), cfg.ipc)
    with T.parallel(batch * state.encoder.width * h * w):  # the largest first activation
        for cls in range(syn.num_classes):
            idx = state.dataset.per_class[cls]
            take = min(cfg.real_batch_per_class, len(idx))
            if take == 0:
                raise DistillError(f"class {cls} has no real images")
            pick = rng_batch.choice(idx, size=take, replace=False)
            real = Tensor(state.dataset.images.data[pick].astype(dtype, copy=False))
            rows = slice(cls * cfg.ipc, (cls + 1) * cfg.ipc)
            pixels = Tensor(syn.images.data[rows], requires_grad=True)  # a view: steps in place
            draw = draw_augment(cfg.augment, h, w, rng_aug)
            real_a, syn_a = siamese_augment(real, pixels, cfg.augment, draw)
            target = losses.class_stats(
                (forward(params, Tensor(real_a.data[i:i + chunk]))
                 for i in range(0, take, chunk)),
                cfg.p, state.layers)
            stats = losses.class_stats([forward(params, syn_a)], cfg.p, state.layers)
            sam = mmd = zero
            if cfg.use_sam:
                sam, layer_terms = losses.sam_loss(target, stats)
                for l, term in zip(target.layers, layer_terms):
                    per_layer[l - 1] += term
            if cfg.use_mmd:
                mmd = losses.mmd_loss(target, stats)
            if not (np.isfinite(sam.data) and np.isfinite(mmd.data)):
                raise DistillError(f"non-finite loss at iteration {iteration}, class {cls}")
            T.backward(losses.total_loss(sam, mmd, cfg.lam))
            l_sam = l_sam + sam.data
            l_mmd = l_mmd + mmd.data
            del stats, target, sam, mmd, syn_a, real_a, real
            T.sgd_momentum_step(pixels, Tensor(state.velocity.data[rows]), cfg.lr_images,
                                cfg.image_momentum, cfg.weight_decay_images)
            if not np.isfinite(pixels.data).all():
                raise DistillError(
                    f"non-finite synthetic pixels after iteration {iteration}, class {cls}")
    l_sam, l_mmd = float(l_sam), float(l_mmd)
    return LossBreakdown(l_sam=l_sam, l_mmd=l_mmd, total=l_sam + cfg.lam * l_mmd,
                         per_layer=per_layer)


def run_distillation(config, encoder_cfg, dataset, sink=None, dtype=np.float32):
    """Run the full loop; emits (iteration, LossBreakdown) to the sink and
    returns the final synthetic set."""
    state = make_state(config, encoder_cfg, dataset, dtype=dtype)
    for i in range(config.iterations):
        breakdown = distill_step(state, i)
        if sink is not None:
            sink(i, breakdown)
    return state.syn

"""Synthetic-set optimization loop.

Each iteration draws a fresh random encoder, samples a real mini-batch per
class, pairs it with that class's full synthetic slice under one shared
(siamese) augmentation draw, and takes an SGD-momentum step on the synthetic
pixels against the combined attention-matching + feature-mean objective.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, tensor as T
from .data import DatasetIndex
from .encoder import EncoderConfig, forward, sample_params
from .losses import LossBreakdown
from .tensor import Tensor


class DistillError(RuntimeError):
    pass


def _derive_seeds(*key, count=1):
    ss = np.random.SeedSequence([int(k) for k in key])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AugmentSpec:
    """Differentiable transforms applied identically to both batches of a
    class within one step (flip / shift-crop / cutout subset)."""

    flip: bool = True
    crop: bool = True
    cutout: bool = True
    flip_prob: float = 0.5
    crop_pad_ratio: float = 0.125
    cutout_ratio: float = 0.5

    @classmethod
    def none(cls):
        return cls(flip=False, crop=False, cutout=False)

    @property
    def enabled(self):
        return self.flip or self.crop or self.cutout


@dataclass(frozen=True)
class AugmentDraw:
    do_flip: bool = False
    dy: int = 0
    dx: int = 0
    cut_y: int = 0
    cut_x: int = 0


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
        if self.lam < 0 or self.p < 1 or self.image_momentum < 0 or self.weight_decay_images < 0:
            raise ValueError(f"rates out of range: {self}")
        if self.init not in ("random", "kcenter", "noise"):
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.lr_images is None:
            self.lr_images = 1.0 if self.ipc <= 50 else 10.0


# ---------------------------------------------------------------------------
# synthetic set construction


@dataclass
class SyntheticSet:
    """The learnable images plus their fixed class labels."""

    images: Tensor            # (K * ipc, C, H, W), requires_grad
    labels: np.ndarray        # (K * ipc,), class-major, never updated
    ipc: int

    @property
    def num_classes(self):
        return self.images.data.shape[0] // self.ipc

    def class_slice(self, k):
        return T.slice_rows(self.images, k * self.ipc, (k + 1) * self.ipc)


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
    return SyntheticSet(images=Tensor(images, requires_grad=True), labels=labels, ipc=ipc)


# ---------------------------------------------------------------------------
# augmentation


def draw_augment(spec, height, width, rng):
    """One shared random draw for a (real, synthetic) batch pair."""
    do_flip = bool(spec.flip and rng.random() < spec.flip_prob)
    dy = dx = 0
    if spec.crop:
        pad = round(spec.crop_pad_ratio * height)
        dy = int(rng.integers(-pad, pad + 1))
        dx = int(rng.integers(-pad, pad + 1))
    cut_y = cut_x = 0
    if spec.cutout:
        side = round(spec.cutout_ratio * height)
        cut_y = int(rng.integers(0, height - side + 1))
        cut_x = int(rng.integers(0, width - side + 1))
    return AugmentDraw(do_flip=do_flip, dy=dy, dx=dx, cut_y=cut_y, cut_x=cut_x)


def apply_augment(batch, spec, draw):
    """Apply one draw to a batch; mirror and shift are index permutations,
    cutout multiplies by a zero mask, so gradients pass through."""
    x = batch
    if spec.flip and draw.do_flip:
        x = T.flip_w(x)
    if spec.crop and (draw.dy or draw.dx):
        x = T.shift2d(x, draw.dy, draw.dx)
    if spec.cutout:
        h, w = x.data.shape[2], x.data.shape[3]
        side = round(spec.cutout_ratio * h)
        if side > 0:
            mask = np.ones((h, w), dtype=x.data.dtype)
            mask[draw.cut_y:draw.cut_y + side, draw.cut_x:draw.cut_x + side] = 0.0
            x = T.apply_mask(x, mask)
    return x


def siamese_augment(real_batch, syn_batch, spec, draw):
    """Apply the same draw to both batches of a class."""
    if real_batch.data.shape[2:] != syn_batch.data.shape[2:]:
        raise T.ShapeMismatch(
            f"siamese_augment: spatial dims {real_batch.data.shape[2:]} "
            f"vs {syn_batch.data.shape[2:]}")
    if not spec.enabled:
        return real_batch, syn_batch
    return apply_augment(real_batch, spec, draw), apply_augment(syn_batch, spec, draw)


# ---------------------------------------------------------------------------
# the optimization loop


@dataclass
class DistillState:
    syn: SyntheticSet
    velocity: Tensor
    dataset: DatasetIndex
    config: DistillConfig
    encoder: EncoderConfig


def make_state(config, encoder_cfg, dataset, dtype=np.float32):
    syn = init_synthetic(dataset, config.ipc, config.init, config.seed, dtype=dtype)
    return DistillState(
        syn=syn,
        velocity=Tensor(np.zeros_like(syn.images.data)),
        dataset=dataset,
        config=config,
        encoder=encoder_cfg,
    )


def distill_step(state, iteration):
    """One optimization step over all classes; returns the loss breakdown.

    Each class is matched against constant real-side targets, embedded in
    chunks with no graph, so its loss touches only its own slice of the
    synthetic images: its gradient is taken and its graph released before
    the next class is embedded.
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
    layers = cfg.layers if cfg.use_sam else ()
    chunk = state.encoder.nograd_chunk()
    l_sam = l_mmd = zero.data
    per_layer = [0.0] * (state.encoder.depth - 1)
    for cls in range(syn.num_classes):
        idx = state.dataset.per_class[cls]
        take = min(cfg.real_batch_per_class, len(idx))
        if take == 0:
            raise DistillError(f"class {cls} has no real images")
        pick = rng_batch.choice(idx, size=take, replace=False)
        real = Tensor(state.dataset.images.data[pick].astype(dtype, copy=False))
        draw = draw_augment(cfg.augment, h, w, rng_aug)
        real_a, syn_a = siamese_augment(real, syn.class_slice(cls), cfg.augment, draw)
        with T.no_grad():
            target = losses.target_stats(
                (forward(params, Tensor(real_a.data[i:i + chunk]))
                 for i in range(0, take, chunk)),
                cfg.p, layers)
        stats = losses.class_stats(forward(params, syn_a), cfg.p, layers)
        sam = mmd = zero
        if cfg.use_sam:
            sam, layer_terms = losses.sam_loss(target, stats)
            for l, term in zip(target.layers, layer_terms):
                per_layer[l - 1] += term
        if cfg.use_mmd:
            mmd = losses.mmd_loss(target, stats)
        if not (np.isfinite(sam.data) and np.isfinite(mmd.data)):
            syn.images.grad = None
            raise DistillError(f"non-finite loss at iteration {iteration}, class {cls}")
        T.backward(losses.total_loss(sam, mmd, cfg.lam))
        l_sam = l_sam + sam.data
        l_mmd = l_mmd + mmd.data

    if syn.images.grad is None:
        syn.images.grad = np.zeros_like(syn.images.data)
    T.sgd_momentum_step(syn.images, state.velocity, cfg.lr_images,
                        cfg.image_momentum, cfg.weight_decay_images)
    if not np.isfinite(syn.images.data).all():
        raise DistillError(f"non-finite synthetic pixels after iteration {iteration}")
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

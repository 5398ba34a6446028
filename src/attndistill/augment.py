"""Siamese differentiable augmentation (DSA: flip, shift-crop, cutout).

One random draw per (real, synthetic) batch pair is applied identically to
both batches, so the matching objective compares like with like; evaluation
applies a fresh draw to each training batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


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


@dataclass(frozen=True)
class AugmentDraw:
    do_flip: bool = False
    dy: int = 0
    dx: int = 0
    cut_y: int = 0
    cut_x: int = 0


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
    cutout multiplies by a zero mask, so gradients pass through. With every
    transform off the batch itself is returned."""
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
    return apply_augment(real_batch, spec, draw), apply_augment(syn_batch, spec, draw)

"""Randomly initialized convolutional encoder.

A stack of identical blocks (3x3 conv -> instance norm -> ReLU -> 3x3/2 avg
pool) followed by a linear classifier. During distillation the parameters are
drawn fresh per step and never trained; the evaluator reuses the same
architecture with trainable parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


def default_depth(input_size):
    """Block count by input resolution: 3 up to 32px, 4 up to 64, 5 beyond."""
    if input_size <= 32:
        return 3
    if input_size <= 64:
        return 4
    return 5


@dataclass(frozen=True)
class EncoderConfig:
    depth: int = 3
    width: int = 128
    input_channels: int = 3
    input_size: int = 32
    num_classes: int = 10

    def __post_init__(self):
        if min(self.depth, self.width, self.input_channels,
               self.input_size, self.num_classes) < 1:
            raise ValueError(f"encoder config fields must be >= 1: {self}")
        size = self.input_size
        for block in range(self.depth):
            if size < 2:
                raise ValueError(
                    f"depth {self.depth} too large for {self.input_size}px input: "
                    f"block {block + 1} would pool a {size}px map")
            size = -(-size // 2)

    def feature_sizes(self):
        """Spatial size of each block output (ceil-halved per block)."""
        sizes = []
        size = self.input_size
        for _ in range(self.depth):
            size = -(-size // 2)
            sizes.append(size)
        return sizes

    def classifier_in(self):
        return self.width * self.feature_sizes()[-1] ** 2

    def nograd_chunk(self):
        """Images per chunk of a no-grad pass: as many as keep the
        first-block activation within ``T.GROUP_BUDGET``, at least one. At
        width 128 and 32 px that is 8 images; the toy benchmark's 64-image
        class batch (width 32, 16 px) stays one chunk. Each chunk is one
        ``T.conv_blocks`` call, so inside ``T.parallel`` one hand-off to the
        part threads per chunk."""
        return max(1, T.GROUP_BUDGET // (self.width * self.input_size ** 2))


@dataclass
class BlockParams:
    conv_w: Tensor
    gamma: Tensor
    beta: Tensor


@dataclass
class EncoderParams:
    blocks: list[BlockParams]
    fc_w: Tensor
    fc_b: Tensor
    config: EncoderConfig = field(repr=False)

    def parameters(self):
        for blk in self.blocks:
            yield from (blk.conv_w, blk.gamma, blk.beta)
        yield self.fc_w
        yield self.fc_b

    def constant(self):
        """The same arrays in tensors that need no gradient: a ``forward``
        of constant images over them takes the ``T.conv_blocks`` path."""
        blocks = [BlockParams(*(Tensor(t.data) for t in (b.conv_w, b.gamma, b.beta)))
                  for b in self.blocks]
        return EncoderParams(blocks=blocks, fc_w=Tensor(self.fc_w.data),
                             fc_b=Tensor(self.fc_b.data), config=self.config)


@dataclass
class ForwardTrace:
    features: list[Tensor]
    logits: Tensor


def sample_params(config, seed, dtype=np.float32, trainable=False):
    """Draw encoder parameters: He-normal conv/fc weights, zero classifier
    bias, identity norm affine. Deterministic given the seed. The convs have
    no bias: instance norm subtracts each plane's mean, which cancels it."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    blocks = []
    cin = config.input_channels
    for _ in range(config.depth):
        fan_in = cin * 9
        std = math.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, std, size=(config.width, cin, 3, 3)).astype(dtype)
        blocks.append(BlockParams(
            conv_w=Tensor(w, requires_grad=trainable),
            gamma=Tensor(np.ones(config.width, dtype=dtype), requires_grad=trainable),
            beta=Tensor(np.zeros(config.width, dtype=dtype), requires_grad=trainable),
        ))
        cin = config.width
    d = config.classifier_in()
    fc_std = math.sqrt(2.0 / d)
    fc_w = rng.normal(0.0, fc_std, size=(config.num_classes, d)).astype(dtype)
    return EncoderParams(
        blocks=blocks,
        fc_w=Tensor(fc_w, requires_grad=trainable),
        fc_b=Tensor(np.zeros(config.num_classes, dtype=dtype), requires_grad=trainable),
        config=config,
    )


def forward(params, images):
    """Run a batch through the encoder, returning the post-pool feature map of
    every block plus classifier logits.

    When neither the images nor any parameter needs a gradient, no op
    records a graph, and the blocks run as one ``T.conv_blocks`` call: the
    real-side chunks of a distillation step and the scoring pass of an
    evaluation. Otherwise each block chains ``conv2d``, ``instance_norm``,
    ``relu`` and ``avgpool``, whose outputs ``conv_blocks`` equals bit for
    bit."""
    cfg = params.config
    shape = images.data.shape
    if len(shape) != 4 or shape[1] != cfg.input_channels or shape[2:] != (cfg.input_size,) * 2:
        raise T.ShapeMismatch(
            f"forward: images {shape} incompatible with "
            f"{cfg.input_channels}x{cfg.input_size}x{cfg.input_size} encoder")
    if images.requires_grad or any(p.requires_grad for p in params.parameters()):
        x = images
        features = []
        for blk in params.blocks:
            x = T.conv2d(x, blk.conv_w)
            x = T.instance_norm(x, blk.gamma, blk.beta)
            x = T.relu(x)
            x = T.avgpool(x)
            features.append(x)
    else:
        features = T.conv_blocks(images, [(b.conv_w, b.gamma, b.beta) for b in params.blocks])
    logits = T.linear(T.flatten2d(features[-1]), params.fc_w, params.fc_b)
    return ForwardTrace(features=features, logits=logits)

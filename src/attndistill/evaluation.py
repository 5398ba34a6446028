"""Downstream evaluation of a synthetic set.

Trains fresh classifiers (same encoder architecture, full parameter
gradients) from scratch on the synthetic images and reports test accuracy
mean and standard deviation over several random initializations.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import check_fields, tensor as T
from .augment import AugmentSpec, apply_augment, draw_augment
from .encoder import forward, sample_params
from .tensor import Tensor


class EvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvalConfig:
    num_models: int = 5
    epochs: int = 300
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    decay_rate: float = 0.5
    decay_every: int = 15
    batch_size: int = 256
    augment: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self, (("num_models", "models to train", 1, int),
                            ("epochs", "training epochs", 1, int),
                            ("decay_every", "epochs per learning-rate decay", 1, int),
                            ("batch_size", "training batch size", 1, int),
                            ("seed", "evaluation seed", 0, int),
                            ("lr", "learning rate", 0, float),
                            ("momentum", "SGD momentum", 0, float),
                            ("weight_decay", "weight decay", 0, float),
                            ("decay_rate", "learning-rate decay factor", 0, float)))

    def effective_lr(self, epoch):
        """Step decay: multiply by decay_rate after every decay_every epochs."""
        return self.lr * self.decay_rate ** (epoch // self.decay_every)


@dataclass
class EvalReport:
    accuracies: list[float]
    mean: float
    std: float
    config: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(
            {"accuracies": self.accuracies, "mean": self.mean, "std": self.std,
             "config": self.config},
            indent=2, sort_keys=True)


def train_classifier(syn, encoder_cfg, config, seed):
    """Train one classifier on the synthetic set; deterministic given seed."""
    if syn.images.data.shape[0] == 0:
        raise EvalError("cannot train on an empty synthetic set")
    params = sample_params(encoder_cfg, seed, dtype=syn.images.data.dtype, trainable=True)
    velocities = [Tensor(np.zeros_like(p.data)) for p in params.parameters()]
    rng = np.random.default_rng(np.random.PCG64(seed))
    images = syn.images.data
    labels = syn.labels
    n = images.shape[0]
    aug_spec = AugmentSpec()
    h, w = images.shape[2], images.shape[3]
    for epoch in range(config.epochs):
        lr = config.effective_lr(epoch)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = Tensor(images[idx])
            if config.augment:
                xb = apply_augment(xb, aug_spec, draw_augment(aug_spec, h, w, rng))
            trace = forward(params, xb)
            loss = T.softmax_cross_entropy(trace.logits, labels[idx])
            if not np.isfinite(loss.item()):
                raise EvalError(f"non-finite training loss at epoch {epoch}")
            T.backward(loss)
            for p, v in zip(params.parameters(), velocities):
                T.sgd_momentum_step(p, v, lr, config.momentum, config.weight_decay)
    return params


def test_accuracy(params, test_set):
    """Fraction of argmax-correct predictions; ties resolve to the lowest
    class index. Scored in chunks sized by the encoder's no-grad chunk rule,
    over a constant view of the parameters, which records no graph."""
    images = test_set.images.data
    labels = test_set.labels
    n = images.shape[0]
    if n == 0:
        raise EvalError("empty test set")
    params = params.constant()
    chunk = params.config.nograd_chunk()
    correct = 0
    for start in range(0, n, chunk):
        logits = forward(params, Tensor(images[start:start + chunk])).logits.data
        correct += int((logits.argmax(axis=1) == labels[start:start + chunk]).sum())
    return correct / n


def evaluate_synthetic(syn, encoder_cfg, test_set, config):
    """Train num_models classifiers with distinct seeds and aggregate."""
    seeds = np.random.SeedSequence([config.seed, 71]).generate_state(
        config.num_models, dtype=np.uint64)
    accuracies = []
    for s in seeds:
        model = train_classifier(syn, encoder_cfg, config, int(s))
        accuracies.append(test_accuracy(model, test_set))
    arr = np.asarray(accuracies, dtype=np.float64)
    return EvalReport(
        accuracies=[float(a) for a in accuracies],
        mean=float(arr.mean()),
        std=float(arr.std()),
        config=asdict(config),
    )

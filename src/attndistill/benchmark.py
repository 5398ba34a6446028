"""Desk-scale relational benchmark.

A fixed toy-dataset configuration on which the distilled set must beat the
selection baselines under one shared evaluation protocol. Used by the
acceptance suite and by scripts/run_toy_benchmark.py.

The substrate is deliberately harder than the quick-convergence toy used for
loss-trend checks: heavy pixel noise (sigma 2.0 on unit-scale templates) at
16x16 so that ten noisy real images per class train noticeably worse than an
optimized set, while the pinned evaluation protocol (lr 0.01, momentum 0.9,
weight decay 5e-4, halving every 15 epochs) still trains stably.
"""
from __future__ import annotations

from .data import ToySpec, gen_toy
from .distill import DistillConfig, init_synthetic, run_distillation
from .encoder import EncoderConfig
from .evaluation import EvalConfig, evaluate_synthetic

TOY_SPEC = ToySpec(num_classes=4, images_per_class=64, image_size=16,
                   channels=1, seed=0, noise_std=2.0)

ENCODER = EncoderConfig(depth=3, width=32, input_channels=1, input_size=16,
                        num_classes=4)

# Images move slowly under the stock lr=1.0 at this scale (the matching loss
# is a mean of squared mean-differences, so per-pixel gradients are tiny);
# the benchmark runs the same objective with a larger image step.
DISTILL_LR = 100.0
DISTILL_ITERATIONS = 800
IPC = 10

EVAL = EvalConfig(num_models=5, epochs=100, batch_size=8, augment=False, seed=0)


# The five pipelines: the joint objective and its two single-term ablations
# distill (their DistillConfig overrides), the two selection baselines only
# initialize (their init strategy).
PIPELINES = {
    "joint": dict(),
    "sam_only": dict(use_mmd=False),
    "mmd_only": dict(use_sam=False, lam=1.0),
    "coreset": "random",
    "noise": "noise",
}


def run_pipeline(name, train, test, sink=None, eval_config=EVAL,
                 iterations=DISTILL_ITERATIONS):
    """Distill (or select) the synthetic set of pipeline ``name`` and return
    its ``EvalReport`` under ``eval_config``."""
    what = PIPELINES[name]
    if isinstance(what, str):
        syn = init_synthetic(train, IPC, what, seed=0)
    else:
        config = DistillConfig(ipc=IPC, iterations=iterations, lr_images=DISTILL_LR,
                               seed=0, init="random", real_batch_per_class=64, **what)
        syn = run_distillation(config, ENCODER, train, sink=sink)
    return evaluate_synthetic(syn, ENCODER, test, eval_config)


def load_benchmark_data():
    return gen_toy(TOY_SPEC)

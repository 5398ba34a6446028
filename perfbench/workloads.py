"""The benchmark's workloads: inputs made from a seed, units of work, checks.

Every workload runs both halves of a user's pipeline, each at a pinned shape:
distillation steps (``distill.distill_step``) and evaluated models
(``evaluation.train_classifier`` then ``evaluation.test_accuracy``). One half
is the *primary* one and takes most of the time; after each primary unit a
few units of the other half run, so that every end-to-end metric exists on
every workload. The loop is closed: one caller, and the next unit starts
when the previous one ends. Every unit's result depends only on the seed and
the unit's index, never on how many units fit in the measured seconds:
distill steps run in cycles of ``STEP_CYCLE`` from the initial synthetic set,
and models cycle through ``MODEL_SEEDS`` seeds, so that every unit has a
committed reference value however fast the program runs.

All inputs are generated from the workload seed by ``attndistill.data.gen_toy``
(class template plus Gaussian pixel noise). The cost of the dense ops does
not depend on pixel values, so the CIFAR-shaped workloads need no download.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from attndistill import data, distill, encoder, evaluation, synfile


@dataclass(frozen=True)
class DistillPart:
    classes: int
    channels: int
    size: int
    width: int
    depth: int
    images_per_class: int
    real_per_class: int
    ipc: int
    noise_std: float
    lr_images: float | None = None


@dataclass(frozen=True)
class EvalPart:
    classes: int = 4
    channels: int = 1
    size: int = 16
    width: int = 32
    depth: int = 3
    images_per_class: int = 64
    ipc: int = 10
    noise_std: float = 2.0
    epochs: int = 100
    batch_size: int = 8


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str              # "distill" or "eval"
    distill: DistillPart
    eval: EvalPart
    secondary_per_round: int  # units of the other half after each primary unit


# The toy benchmark shape of the acceptance gate: 4 classes of 1x16x16,
# depth 3, width 32, 64 real images per class, ipc 10, image lr 100.
TOY_DISTILL = DistillPart(classes=4, channels=1, size=16, width=32, depth=3,
                          images_per_class=64, real_per_class=64, ipc=10,
                          noise_std=2.0, lr_images=100.0)
# The model half of the distill workloads: the same protocol cut to 10 epochs,
# so that the distill half dominates, on toy data with half the pixel noise,
# where 10 epochs reach ~98% accuracy on every seed instead of 60-75%.
SHORT_EVAL = EvalPart(epochs=10, noise_std=1.0)

# Models cycle through this many seeds, so eval_acc averages the same models
# however many fit in the measured seconds.
MODEL_SEEDS = 3
# Distill steps restart from the initial synthetic set after this many, so
# that each step index has a reference loss.
STEP_CYCLE = 8
# Tolerances of the reference comparison: losses are float32 sums whose order
# may change; an accuracy moves in steps of 1/256 when arithmetic does.
LOSS_RTOL = 1e-3
ACC_ATOL = 0.05
# Per-layer metrics that a workload's primary unit never reaches, by kind of
# unit: a distill step has no classifier loss, a model no feature loss.
NOT_MEASURED = {
    "distill": ("tensor.linear.bwd_s", "tensor.softmax_cross_entropy."),
    "eval": ("tensor.abs_pow.", "tensor.l2_normalize_rows."),
}

WORKLOADS = {
    w.name: w for w in (
        # The paper's default CIFAR-10 step: the no-grad forward of the real
        # batch is most of the work. One class, because a class costs ~3 s
        # per step on a 2-core machine and a run needs several steps.
        Workload(
            name="distill-cifar",
            primary="distill",
            distill=DistillPart(classes=1, channels=3, size=32, width=128, depth=3,
                                images_per_class=256, real_per_class=256, ipc=10,
                                noise_std=1.0),
            eval=SHORT_EVAL, secondary_per_round=1),
        # Synthetic images outnumber real ones: the synthetic forward and the
        # backward dominate, and every class graph stays alive until backward.
        Workload(
            name="distill-ipc50",
            primary="distill",
            distill=DistillPart(classes=2, channels=3, size=32, width=128, depth=3,
                                images_per_class=64, real_per_class=32, ipc=50,
                                noise_std=1.0),
            eval=SHORT_EVAL, secondary_per_round=1),
        # The acceptance gate's evaluation protocol: tiny cache-resident
        # batches with weight gradients expose per-call overhead, the backward
        # pass and the optimizer step.
        Workload(
            name="eval-toy",
            primary="eval",
            distill=TOY_DISTILL,
            eval=EvalPart(),
            secondary_per_round=2),
    )
}


def _toy_spec(part, seed):
    return data.ToySpec(num_classes=part.classes, images_per_class=part.images_per_class,
                        image_size=part.size, channels=part.channels, seed=seed,
                        noise_std=part.noise_std)


def _encoder_cfg(part):
    return encoder.EncoderConfig(depth=part.depth, width=part.width,
                                 input_channels=part.channels, input_size=part.size,
                                 num_classes=part.classes)


class Pipeline:
    """Set-up state of one workload for one seed, plus its units of work."""

    def __init__(self, workload, seed, scratch_dir):
        d, e = workload.distill, workload.eval

        train, _ = data.gen_toy(_toy_spec(d, seed))
        cfg = distill.DistillConfig(ipc=d.ipc, iterations=0, lr_images=d.lr_images,
                                    seed=seed, real_batch_per_class=d.real_per_class)
        self.state = distill.make_state(cfg, _encoder_cfg(d), train)
        self.initial_images = self.state.syn.images.data.copy()
        self.next_step = 0

        # The model half reads its synthetic set from a DDS file, as the
        # ``eval --syn`` command does.
        eval_train, self.test_set = data.gen_toy(_toy_spec(e, seed))
        coreset = distill.init_synthetic(eval_train, e.ipc, "random", seed)
        path = Path(scratch_dir) / f"{workload.name}-{seed}-{os.getpid()}.dds"
        try:
            synfile.write_synthetic(path, coreset, e.classes, {"seed": seed})
            self.syn, _ = synfile.read_synthetic(path)
        finally:
            path.unlink(missing_ok=True)
        self.eval_encoder = _encoder_cfg(e)
        self.eval_cfg = evaluation.EvalConfig(epochs=e.epochs, batch_size=e.batch_size,
                                              augment=False)
        self.model_seeds = [int(s) for s in np.random.SeedSequence([seed, 71]).generate_state(
            MODEL_SEEDS, dtype=np.uint64)]
        self.next_model = 0

    def warm_up(self):
        """One distill step and a one-epoch model, untimed; returns the
        step's result for checking."""
        result = self.step()
        one_epoch = dataclasses.replace(self.eval_cfg, epochs=1)
        params = evaluation.train_classifier(self.syn, self.eval_encoder, one_epoch,
                                             self.model_seeds[0])
        evaluation.test_accuracy(params, self.test_set)
        return result

    def step(self):
        """Run the next distill step; returns (step index, losses): total,
        SAM, MMD, then the SAM term of each layer. Every ``STEP_CYCLE``
        steps the synthetic set and its velocity start over."""
        i = self.next_step % STEP_CYCLE
        self.next_step += 1
        if i == 0:
            self.state.syn.images.data[...] = self.initial_images
            self.state.velocity.data[...] = 0
        b = distill.distill_step(self.state, i)
        return i, [b.total, b.l_sam, b.l_mmd] + list(b.per_layer)

    def model(self, tracer=None):
        """Train and score the next model; returns (seed slot, accuracy)."""
        slot = self.next_model % MODEL_SEEDS
        self.next_model += 1
        seed = self.model_seeds[slot]
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        with span("evaluation.train_classifier"):
            params = evaluation.train_classifier(self.syn, self.eval_encoder,
                                                 self.eval_cfg, seed)
        with span("evaluation.test_accuracy"):
            acc = evaluation.test_accuracy(params, self.test_set)
        return slot, acc

    def pixels_finite(self):
        return bool(np.isfinite(self.state.syn.images.data).all())


class Checker:
    """Output checks for one run; a unit that raises or fails a check is one
    failed op."""

    def __init__(self, reference):
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.checked_against_reference = 0
        self.errors = []
        self.accuracy_by_slot = {}

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def step(self, index, values, pixels_finite):
        self.attempted += 1
        if not all(math.isfinite(v) for v in values) or not pixels_finite:
            return self.fail(f"step {index}: non-finite loss or pixels")
        refs = self.ref["steps"]
        if index >= len(refs):
            return self.fail(f"step {index}: no reference loss")
        self.checked_against_reference += 1
        for got, want in zip(values[:3], refs[index]):
            if abs(got - want) > LOSS_RTOL * abs(want) + 1e-12:
                return self.fail(f"step {index}: loss {got!r} vs reference {want!r}")

    def model(self, slot, acc):
        self.attempted += 1
        if not (0.0 <= acc <= 1.0):
            return self.fail(f"model {slot}: accuracy {acc!r} outside [0, 1]")
        first = self.accuracy_by_slot.setdefault(slot, acc)
        if acc != first:
            return self.fail(f"model {slot}: accuracy {acc!r} != {first!r} on repeat")
        refs = self.ref["models"]
        if slot >= len(refs):
            return self.fail(f"model {slot}: no reference accuracy")
        self.checked_against_reference += 1
        if abs(acc - refs[slot]) > ACC_ATOL:
            return self.fail(f"model {slot}: accuracy {acc!r} vs reference {refs[slot]!r}")

    def error(self, what, exc):
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")

    @property
    def eval_acc(self):
        accs = list(self.accuracy_by_slot.values())
        return sum(accs) / len(accs) if accs else float("nan")

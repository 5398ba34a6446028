import dataclasses
import json

import numpy as np
import pytest

from attndistill import benchmark, evaluation
from attndistill import tensor as T
from attndistill.data import DatasetIndex, ToySpec, gen_toy
from attndistill.distill import init_synthetic
from attndistill.encoder import EncoderConfig, forward, sample_params
from attndistill.evaluation import (EvalConfig, EvalReport, evaluate_synthetic,
                                    train_classifier)
from attndistill.evaluation import test_accuracy as accuracy_on
from attndistill.tensor import Tensor


def toy_setup(noise=0.2, per_class=16, classes=2, seed=0):
    train, test = gen_toy(ToySpec(num_classes=classes, images_per_class=per_class,
                                  image_size=8, noise_std=noise, seed=seed))
    enc = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8,
                        num_classes=classes)
    return train, test, enc


def as_dataset(syn):
    per_class = [[] for _ in range(syn.num_classes)]
    for i, lab in enumerate(syn.labels):
        per_class[int(lab)].append(i)
    return DatasetIndex(images=Tensor(syn.images.data), labels=syn.labels,
                        per_class=per_class, mean=np.zeros(1, np.float32),
                        std=np.ones(1, np.float32))


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_is_a_fraction():
    _, test, enc = toy_setup()
    params = sample_params(enc, 0)
    acc = accuracy_on(params, test)
    assert 0.0 <= acc <= 1.0


def test_accuracy_tie_breaks_to_lowest_class():
    _, test, enc = toy_setup()
    params = sample_params(enc, 1)
    for p in params.parameters():
        p.data[:] = 0.0  # zero weights force equal logits
    acc = accuracy_on(params, test)
    frac0 = float((test.labels == 0).mean())
    assert acc == pytest.approx(frac0)


def test_accuracy_counts_three_of_four():
    enc = EncoderConfig(depth=1, width=2, input_channels=1, input_size=2, num_classes=2)
    params = sample_params(enc, 2)
    params.blocks[0].gamma.data[:] = 0.0
    params.blocks[0].beta.data[:] = 0.0
    images = np.zeros((4, 1, 2, 2), dtype=np.float32)
    labels = np.array([0, 0, 0, 1])
    ds = DatasetIndex(images=Tensor(images), labels=labels,
                      per_class=[[0, 1, 2], [3]],
                      mean=np.zeros(1, np.float32), std=np.ones(1, np.float32))
    # all logits equal -> everything predicted class 0 -> 3 of 4 correct
    assert accuracy_on(params, ds) == 0.75


def test_accuracy_invariant_to_ordering():
    train, test, enc = toy_setup()
    params = sample_params(enc, 3)
    base = accuracy_on(params, test)
    perm = np.random.default_rng(0).permutation(test.labels.size)
    shuffled = dataclasses.replace(
        test, images=Tensor(test.images.data[perm]), labels=test.labels[perm])
    assert accuracy_on(params, shuffled) == pytest.approx(base)


def test_accuracy_scores_in_budgeted_chunks_with_unchanged_predictions(monkeypatch):
    # 300 test images at width 8, 32 px: 8*32*32 elements each, 128 per chunk
    _, test = gen_toy(ToySpec(num_classes=3, images_per_class=100, image_size=32,
                              noise_std=1.0, seed=4))
    enc = EncoderConfig(depth=3, width=8, input_channels=1, input_size=32, num_classes=3)
    params = sample_params(enc, 5)
    # the former batching: one batch of up to 512 images
    whole = forward(params, Tensor(test.images.data)).logits.data
    chunks = []

    def spy(params, images):
        out = forward(params, images)
        chunks.append(out.logits.data)
        return out

    monkeypatch.setattr(evaluation, "forward", spy)
    acc = accuracy_on(params, test)
    assert [len(c) for c in chunks] == [128, 128, 44]
    assert np.array_equal(np.concatenate(chunks).argmax(axis=1), whole.argmax(axis=1))
    assert acc == float((whole.argmax(axis=1) == test.labels).mean())


def test_trained_model_scores_through_the_fused_pass_as_through_the_chain(monkeypatch):
    """A trained model's parameters need gradients; scoring reads the same
    arrays through ``conv_blocks``, records no graph and leaves them as
    they were. The chain, whose graph is never walked, gives the same logits."""
    train, test, enc = toy_setup(noise=1.0, per_class=40, classes=3)
    syn = init_synthetic(train, 4, "random", seed=2)
    params = train_classifier(syn, enc, EvalConfig(epochs=3, batch_size=4), seed=6)
    chained = forward(params, Tensor(test.images.data)).logits.data
    fused = []
    conv_blocks = T.conv_blocks
    monkeypatch.setattr(T, "conv_blocks", lambda *a: fused.append(1) or conv_blocks(*a))
    logits = []

    def spy(params, images):
        out = forward(params, images)
        logits.append(out.logits.data)
        return out

    monkeypatch.setattr(evaluation, "forward", spy)
    acc = accuracy_on(params, test)
    assert fused == [1] and np.array_equal(logits[0], chained)
    assert acc == float((chained.argmax(axis=1) == test.labels).mean())
    assert all(p.requires_grad and p.grad is None for p in params.parameters())


# ---------------------------------------------------------------------------
# training


def test_zero_lr_keeps_parameters():
    train, _, enc = toy_setup()
    syn = init_synthetic(train, 2, "random", seed=0)
    cfg = EvalConfig(num_models=1, epochs=2, lr=0.0, weight_decay=0.0, augment=False)
    params = train_classifier(syn, enc, cfg, seed=5)
    init = sample_params(enc, 5, trainable=True)
    for a, b in zip(params.parameters(), init.parameters()):
        assert np.array_equal(a.data, b.data)


def test_same_seed_identical_weights():
    train, _, enc = toy_setup()
    syn = init_synthetic(train, 2, "random", seed=0)
    cfg = EvalConfig(num_models=1, epochs=3)
    a = train_classifier(syn, enc, cfg, seed=11)
    b = train_classifier(syn, enc, cfg, seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_separable_toy_reaches_full_train_accuracy():
    train, _, enc = toy_setup(noise=0.1, per_class=8)
    syn = init_synthetic(train, 4, "random", seed=1)
    cfg = EvalConfig(num_models=1, epochs=50, augment=False)
    params = train_classifier(syn, enc, cfg, seed=7)
    assert accuracy_on(params, as_dataset(syn)) == 1.0


def test_scheduler_step_decay():
    cfg = EvalConfig(lr=0.01)
    assert cfg.effective_lr(0) == pytest.approx(0.01)
    assert cfg.effective_lr(14) == pytest.approx(0.01)
    assert cfg.effective_lr(15) == pytest.approx(0.005)
    assert cfg.effective_lr(29) == pytest.approx(0.005)
    assert cfg.effective_lr(30) == pytest.approx(0.0025)


# ---------------------------------------------------------------------------
# aggregation


def test_single_model_report_has_zero_std():
    train, test, enc = toy_setup()
    syn = init_synthetic(train, 1, "random", seed=2)
    report = evaluate_synthetic(syn, enc, test, EvalConfig(num_models=1, epochs=2))
    assert report.std == 0.0
    assert report.mean == report.accuracies[0]


def test_identical_seeds_give_identical_accuracy():
    train, test, enc = toy_setup()
    syn = init_synthetic(train, 1, "random", seed=2)
    cfg = EvalConfig(num_models=1, epochs=2)
    a = accuracy_on(train_classifier(syn, enc, cfg, seed=9), test)
    b = accuracy_on(train_classifier(syn, enc, cfg, seed=9), test)
    assert a == b
    assert float(np.std([a, b])) == 0.0


def test_report_round_trips_as_json():
    report = EvalReport(accuracies=[0.5, 0.75], mean=0.625, std=0.125,
                        config={"epochs": 3})
    parsed = EvalReport(**json.loads(report.to_json()))
    assert parsed == report


def test_report_config_echo():
    train, test, enc = toy_setup()
    syn = init_synthetic(train, 1, "random", seed=2)
    cfg = EvalConfig(num_models=2, epochs=2, seed=42)
    report = evaluate_synthetic(syn, enc, test, cfg)
    assert report.config["num_models"] == 2
    assert report.config["seed"] == 42
    assert len(report.accuracies) == 2
    arr = np.asarray(report.accuracies)
    assert report.mean == pytest.approx(arr.mean())
    assert report.std == pytest.approx(arr.std())


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("field", ["lr", "momentum", "weight_decay", "decay_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_config_refuses_a_rate_that_is_not_a_finite_number_in_range(field, value):
    with pytest.raises(ValueError, match=rf"^{field} \(.*finite"):
        EvalConfig(**{field: value})


def test_eval_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        benchmark.EVAL.num_models = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        EvalConfig().epochs = 3


def test_benchmark_pipeline_takes_its_eval_config():
    train, test = benchmark.load_benchmark_data()
    quick = dataclasses.replace(benchmark.EVAL, num_models=2, epochs=1)
    result = benchmark.run_pipeline("coreset", train, test, eval_config=quick)
    assert len(result.accuracies) == 2
    assert benchmark.EVAL.num_models == 5

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attndistill import augment, distill, losses, tensor as T
from attndistill.augment import AugmentDraw, AugmentSpec, apply_augment
from attndistill.data import ToySpec, gen_toy
from attndistill.distill import (DistillConfig, DistillError, distill_step, draw_augment,
                                 init_synthetic, k_center, make_state,
                                 run_distillation, siamese_augment)
from attndistill.encoder import EncoderConfig
from attndistill.tensor import Tensor


def toy_setup(noise=0.3, per_class=16, classes=2, seed=0):
    train, _ = gen_toy(ToySpec(num_classes=classes, images_per_class=per_class,
                               image_size=8, noise_std=noise, seed=seed))
    enc = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8,
                        num_classes=classes)
    return train, enc


def quick_config(**kw):
    base = dict(ipc=1, iterations=3, real_batch_per_class=8, seed=1)
    base.update(kw)
    return DistillConfig(**base)


# ---------------------------------------------------------------------------
# k-center selection


def test_k_center_hand_trace():
    # mean of {0, 1, 10} is ~3.67 -> nearest is 1; farthest from 1 is 10
    assert k_center([0.0, 1.0, 10.0], 2) == [1, 2]


def test_k_center_all_points():
    picks = k_center(np.random.default_rng(0).normal(size=(5, 3)), 5)
    assert sorted(picks) == list(range(5))


def test_k_center_duplicates_never_repeat():
    pts = np.zeros((4, 2))
    picks = k_center(pts, 4)
    assert sorted(picks) == [0, 1, 2, 3]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=12), st.data())
def test_k_center_indices_valid_and_unique(values, data):
    k = data.draw(st.integers(1, len(values)))
    picks = k_center(values, k)
    assert len(picks) == k == len(set(picks))
    assert all(0 <= i < len(values) for i in picks)


def test_k_center_rejects_oversized_k():
    with pytest.raises(ValueError):
        k_center([1.0, 2.0], 3)


# ---------------------------------------------------------------------------
# synthetic initialization


def test_init_noise_deterministic_and_balanced():
    train, _ = toy_setup()
    a = init_synthetic(train, 3, "noise", seed=7)
    b = init_synthetic(train, 3, "noise", seed=7)
    assert np.array_equal(a.images.data, b.images.data)
    assert list(a.labels) == [0, 0, 0, 1, 1, 1]
    assert not a.images.requires_grad  # a step wraps each class's rows in a leaf of its own


def test_init_random_selects_real_members():
    train, _ = toy_setup(per_class=8)
    syn = init_synthetic(train, 2, "random", seed=3)
    for i, lab in enumerate(syn.labels):
        pool = train.images.data[train.per_class[lab]]
        assert any(np.array_equal(syn.images.data[i], img) for img in pool)


def test_init_kcenter_on_line():
    # one class whose flattened pixels are {0, 1, 10} along a single axis
    train, _ = toy_setup(per_class=4)
    images = np.zeros((3, 1, 8, 8), dtype=np.float32)
    images[1, 0, 0, 0] = 1.0
    images[2, 0, 0, 0] = 10.0
    ds = dataclasses.replace(train, images=Tensor(images),
                             labels=np.zeros(3, dtype=np.int64),
                             per_class=[[0, 1, 2]])
    syn = init_synthetic(ds, 2, "kcenter", seed=0)
    assert sorted(syn.images.data[:, 0, 0, 0].tolist()) == [1.0, 10.0]


def test_init_insufficient_class_raises():
    train, _ = toy_setup(per_class=4)
    with pytest.raises(ValueError) as err:
        init_synthetic(train, 5, "random", seed=0)
    assert "class 0" in str(err.value)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_disabled_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32))
    y = Tensor(rng.normal(size=(3, 1, 8, 8)).astype(np.float32))
    spec = AugmentSpec.none()
    ra, sa = siamese_augment(x, y, spec, AugmentDraw())
    assert ra is x and sa is y


def test_flip_twice_is_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32))
    spec = AugmentSpec(flip=True, crop=False, cutout=False)
    draw = AugmentDraw(do_flip=True)
    once = apply_augment(x, spec, draw)
    twice = apply_augment(once, spec, draw)
    assert np.array_equal(twice.data, x.data)


def test_cutout_zeroes_half_side_square():
    spec = AugmentSpec(flip=False, crop=False, cutout=True)
    draw = AugmentDraw(cut_y=2, cut_x=3)
    x = Tensor(np.ones((2, 1, 8, 8), dtype=np.float32))
    y = Tensor(np.ones((5, 1, 8, 8), dtype=np.float32))
    ra, sa = siamese_augment(x, y, spec, draw)
    for out in (ra, sa):
        assert np.all(out.data[:, :, 2:6, 3:7] == 0.0)
        assert out.data.sum() == out.data.size - out.data.shape[0] * 16


def test_shared_draw_applied_to_both_batches():
    rng = np.random.default_rng(2)
    spec = AugmentSpec()
    draw = draw_augment(spec, 8, 8, rng)
    img = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
    a, b = siamese_augment(Tensor(img), Tensor(img.copy()), spec, draw)
    assert np.array_equal(a.data, b.data)


def test_draw_ranges():
    spec = AugmentSpec()
    rng = np.random.default_rng(3)
    pad = round(0.125 * 8)
    for _ in range(200):
        d = draw_augment(spec, 8, 8, rng)
        assert -pad <= d.dy <= pad and -pad <= d.dx <= pad
        assert 0 <= d.cut_y <= 4 and 0 <= d.cut_x <= 4


# ---------------------------------------------------------------------------
# the optimization step


def test_step_with_zero_lr_keeps_images():
    train, enc = toy_setup()
    state = make_state(quick_config(lr_images=0.0), enc, train)
    before = state.syn.images.data.copy()
    brk = distill_step(state, 0)
    assert np.array_equal(state.syn.images.data, before)
    assert np.isfinite(brk.total)


def test_step_changes_some_pixel_with_lr():
    train, enc = toy_setup()
    state = make_state(quick_config(), enc, train)
    before = state.syn.images.data.copy()
    distill_step(state, 0)
    assert not np.array_equal(state.syn.images.data, before)


def test_runs_are_deterministic():
    train, enc = toy_setup()
    cfg = quick_config(iterations=4)
    logs_a, logs_b = [], []
    syn_a = run_distillation(cfg, enc, train, sink=lambda i, b: logs_a.append(b.total))
    syn_b = run_distillation(cfg, enc, train, sink=lambda i, b: logs_b.append(b.total))
    assert logs_a == logs_b
    assert np.array_equal(syn_a.images.data, syn_b.images.data)


def test_labels_never_change():
    train, enc = toy_setup()
    state = make_state(quick_config(), enc, train)
    labels_before = state.syn.labels.copy()
    for i in range(3):
        distill_step(state, i)
    assert np.array_equal(state.syn.labels, labels_before)


def test_zero_objective_is_noop_on_images():
    train, enc = toy_setup()
    cfg = quick_config(lam=0.0, layers=(), use_mmd=True)
    state = make_state(cfg, enc, train)
    before = state.syn.images.data.copy()
    brk = distill_step(state, 0)
    assert brk.l_sam == 0.0 and brk.total == 0.0
    assert np.array_equal(state.syn.images.data, before)


@pytest.mark.parametrize("layers", [None, (2,)])
def test_breakdown_per_layer_bookkeeping(layers):
    train, enc = toy_setup(classes=3)
    state = make_state(quick_config(layers=layers), enc, train)
    brk = distill_step(state, 0)
    selected = set(range(1, enc.depth) if layers is None else layers)
    assert len(brk.per_layer) == enc.depth - 1
    for layer, term in enumerate(brk.per_layer, start=1):
        assert (term > 0.0) if layer in selected else (term == 0.0), (layer, term)
    # per_layer sums float32 terms in float64; l_sam sums them in float32
    assert sum(brk.per_layer) == pytest.approx(brk.l_sam, rel=1e-6)
    assert brk.total == brk.l_sam + state.config.lam * brk.l_mmd


def test_make_state_rejects_layers_outside_intermediate():
    train, enc = toy_setup()
    for layers in [(enc.depth,), (0, 1)]:
        with pytest.raises(ValueError, match=f"outside 1..{enc.depth - 1}"):
            make_state(quick_config(layers=layers), enc, train)
    make_state(quick_config(layers=(enc.depth,), use_sam=False), enc, train)  # not matched


def test_make_state_rejects_a_depth_that_leaves_no_term():
    """At depth 1 attention has no intermediate layer, so without MMD the
    objective is 0 and no pixel would get a gradient."""
    train, enc = toy_setup()
    enc = dataclasses.replace(enc, depth=1)
    with pytest.raises(ValueError, match="at least one of the attention and feature-mean"):
        make_state(quick_config(use_mmd=False), enc, train)
    assert distill_step(make_state(quick_config(), enc, train), 0).l_sam == 0.0


def test_no_attention_statistics_without_sam(monkeypatch):
    train, enc = toy_setup()
    pooled = []
    original = losses.attention_pool

    def spy(feature, p):
        pooled.append(feature.shape)
        return original(feature, p)

    monkeypatch.setattr(losses, "attention_pool", spy)
    state = make_state(quick_config(use_sam=False, lam=1.0), enc, train)
    brk = distill_step(state, 0)
    assert pooled == []
    assert brk.l_sam == 0.0 and brk.per_layer == [0.0, 0.0] and brk.l_mmd > 0.0


def test_real_batch_is_embedded_in_budgeted_chunks(monkeypatch):
    # width 128 at 32 px: 128*32*32 elements per image, 8 images per chunk
    train, _ = gen_toy(ToySpec(num_classes=2, images_per_class=20, image_size=32,
                               noise_std=0.3, seed=0))
    enc = EncoderConfig(depth=3, width=128, input_channels=1, input_size=32,
                        num_classes=2)
    calls = []
    original = distill.forward

    def spy(params, images):
        out = original(params, images)
        calls.append((images.data.shape[0], out.logits.requires_grad))
        return out

    monkeypatch.setattr(distill, "forward", spy)
    state = make_state(quick_config(real_batch_per_class=20), enc, train)
    distill_step(state, 0)
    per_class = [(8, False), (8, False), (4, False), (1, True)]
    assert calls == per_class * 2


def test_only_the_synthetic_side_records_a_graph(monkeypatch):
    """Neither the real chunks nor the encoder draw need a gradient, so no op
    on them records a graph; the synthetic batch's features and statistics
    run back to the pixels."""
    train, enc = toy_setup()
    monkeypatch.setattr(T, "GROUP_BUDGET", 3 * enc.width * enc.input_size ** 2)
    seen = []
    original = losses.class_stats

    def spy(traces, p, layers=None):
        traces = list(traces)
        stats = original(traces, p, layers)
        nodes = {f.node is not None for t in traces for f in t.features}
        nodes |= {s.node is not None for s in stats.attention + [stats.feature]}
        seen.append((len(traces), nodes))
        return stats

    monkeypatch.setattr(losses, "class_stats", spy)
    distill_step(make_state(quick_config(), enc, train), 0)
    assert seen == [(3, {False}), (1, {True})] * 2


def _step_peak(monkeypatch, k, ipc=1):
    """The ``tracemalloc`` peak of one ``distill_step`` over ``k`` classes
    (1x32x32, width 64, two real chunks per class's 8-image batch), with
    augmentation off so that every class allocates alike, and the bytes of
    one class's pixel rows and of its rows of the encoder's classifier,
    which each step draws anew."""
    width, size = 64, 32
    monkeypatch.setattr(T, "GROUP_BUDGET", 4 * width * size * size)
    enc = EncoderConfig(depth=2, width=width, input_channels=1, input_size=size,
                        num_classes=k)
    train, _ = gen_toy(ToySpec(num_classes=k, images_per_class=8, image_size=size,
                               noise_std=0.3, seed=0))
    state = make_state(quick_config(ipc=ipc, augment=AugmentSpec.none()), enc, train)
    distill_step(state, 0)  # first calls allocate caches
    tracemalloc.start()
    try:
        distill_step(state, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    itemsize = np.dtype(np.float32).itemsize
    return peak, ipc * size * size * itemsize, enc.classifier_in() * itemsize


def test_step_memory_does_not_grow_with_the_class_count(monkeypatch):
    """No class's joined real rows or synthetic graph outlive the class after
    it, so the peak of a step grows with K by at most three arrays of the
    pixels' shape and the encoder's classifier rows, plus SLACK bytes of
    Python bookkeeping."""
    SLACK = 16 << 10
    (peak2, pixels, classifier), (peak8, _, _) = (_step_peak(monkeypatch, 2),
                                                  _step_peak(monkeypatch, 8))
    assert peak8 - peak2 <= 6 * (3 * pixels + classifier) + SLACK


def test_step_holds_no_array_of_the_whole_set(monkeypatch):
    """Each class steps its own rows in place, so at ipc 4 a step takes no
    gradient or update temporary of all K x ipc pixels: six more classes add
    their classifier rows and less than half their pixel rows each. A
    whole-set gradient and ``lr * v`` would add two pixel rows a class."""
    (peak2, pixels, classifier), (peak8, _, _) = (_step_peak(monkeypatch, 2, ipc=4),
                                                  _step_peak(monkeypatch, 8, ipc=4))
    assert peak8 - peak2 <= 6 * (classifier + pixels / 2)


def test_a_class_is_released_before_the_next_is_embedded(monkeypatch):
    """A second class adds no more to the peak than its own rows and SLACK
    bytes: the first class's real batch and synthetic graph are gone before
    the second class's real chunks are embedded."""
    SLACK = 16 << 10
    (peak1, pixels, classifier), (peak2, _, _) = (_step_peak(monkeypatch, 1),
                                                  _step_peak(monkeypatch, 2))
    assert peak2 - peak1 <= 3 * pixels + classifier + SLACK


def test_non_finite_loss_names_the_class_after_the_classes_before_it_stepped():
    train, enc = toy_setup()
    state = make_state(quick_config(ipc=2, init="noise"), enc, train)
    state.syn.images.data[3, 0, 0, 0] = np.nan
    before = state.syn.images.data.copy()
    with pytest.raises(DistillError, match="non-finite loss at iteration 0, class 1"):
        distill_step(state, 0)
    after = state.syn.images.data
    assert not np.array_equal(after[:2], before[:2])
    assert np.array_equal(after[2:], before[2:], equal_nan=True)
    assert not state.velocity.data[2:].any()


def test_class_without_real_images_is_named():
    train, enc = toy_setup()
    train = dataclasses.replace(train, per_class=[train.per_class[0], []])
    state = make_state(quick_config(init="noise"), enc, train)
    with pytest.raises(DistillError, match="class 1 has no real images"):
        distill_step(state, 0)


def test_siamese_property_instrumented(monkeypatch):
    train, enc = toy_setup()
    drawn, applied = [], []
    draw_augment, apply_augment = distill.draw_augment, augment.apply_augment

    def draw_spy(*args):
        draw = draw_augment(*args)
        drawn.append(draw)
        return draw

    def apply_spy(batch, spec, draw):
        applied.append((id(draw), batch.data.shape[0]))
        return apply_augment(batch, spec, draw)

    monkeypatch.setattr(distill, "draw_augment", draw_spy)
    monkeypatch.setattr(augment, "apply_augment", apply_spy)
    state = make_state(quick_config(), enc, train)
    distill_step(state, 0)
    distill_step(state, 1)
    # one draw per (iteration, class), applied to the class's 8 real images
    # and then to its 1 synthetic image
    assert len(drawn) == 2 * 2
    assert applied == [(id(d), n) for d in drawn for n in (8, 1)]


def test_sink_receives_every_iteration():
    train, enc = toy_setup()
    records = []
    run_distillation(quick_config(iterations=5), enc, train,
                     sink=lambda i, b: records.append(i))
    assert records == list(range(5))


def test_zero_iterations_returns_initialization():
    train, enc = toy_setup()
    cfg = quick_config(iterations=0)
    syn = run_distillation(cfg, enc, train)
    ref = init_synthetic(train, cfg.ipc, cfg.init, cfg.seed)
    assert np.array_equal(syn.images.data, ref.images.data)


def test_one_iteration_equals_single_step():
    train, enc = toy_setup()
    cfg = quick_config(iterations=1)
    syn = run_distillation(cfg, enc, train)
    state = make_state(cfg, enc, train)
    distill_step(state, 0)
    assert np.array_equal(syn.images.data, state.syn.images.data)


def test_lr_default_resolution():
    assert DistillConfig(ipc=10).lr_images == 1.0
    assert DistillConfig(ipc=50).lr_images == 1.0
    assert DistillConfig(ipc=51).lr_images == 10.0
    assert DistillConfig(ipc=10, lr_images=0.5).lr_images == 0.5


@pytest.mark.parametrize("field", ["lr_images", "image_momentum", "weight_decay_images",
                                   "lam", "p"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_config_refuses_a_rate_that_is_not_a_finite_number_in_range(field, value):
    with pytest.raises(ValueError, match=rf"^{field} \(.*finite"):
        DistillConfig(ipc=1, **{field: value})


def test_attention_without_a_layer_and_no_mmd_is_rejected():
    """An objective whose only term matches no layer has no path to the
    pixels: it is refused like one with both terms off."""
    with pytest.raises(ValueError, match="at least one"):
        DistillConfig(ipc=1, use_sam=True, layers=(), use_mmd=False)

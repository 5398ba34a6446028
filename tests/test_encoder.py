import math
import tracemalloc

import numpy as np
import pytest

from attndistill import tensor as T
from attndistill.encoder import EncoderConfig, default_depth, forward, sample_params
from attndistill.losses import class_stats, mmd_loss, sam_loss
from attndistill.tensor import ShapeMismatch, Tensor

from oracles import fd_gradient, max_rel_err


def small_cfg(**kw):
    base = dict(depth=3, width=8, input_channels=1, input_size=8, num_classes=4)
    base.update(kw)
    return EncoderConfig(**base)


def test_same_seed_gives_bit_identical_params():
    cfg = small_cfg()
    a = sample_params(cfg, 123)
    b = sample_params(cfg, 123)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = sample_params(cfg, 124)
    assert not np.array_equal(next(a.parameters()).data, next(c.parameters()).data)


def test_default_conv_shapes_cifar_scale():
    cfg = EncoderConfig(depth=3, width=128, input_channels=3, input_size=32, num_classes=10)
    params = sample_params(cfg, 0)
    shapes = [blk.conv_w.data.shape for blk in params.blocks]
    assert shapes == [(128, 3, 3, 3), (128, 128, 3, 3), (128, 128, 3, 3)]
    assert all(np.all(blk.gamma.data == 1) and np.all(blk.beta.data == 0)
               for blk in params.blocks)


def test_first_layer_std_matches_he_normal():
    cfg = EncoderConfig(depth=1, width=128, input_channels=3, input_size=32, num_classes=10)
    draws = []
    seed = 0
    while len(draws) * 128 * 27 < 10 ** 5:
        draws.append(sample_params(cfg, seed).blocks[0].conv_w.data.ravel())
        seed += 1
    sample = np.concatenate(draws)[:10 ** 5]
    expect = math.sqrt(2.0 / 27.0)
    assert abs(sample.std() - expect) / expect < 0.05


def test_zero_images_give_finite_logits():
    cfg = small_cfg()
    params = sample_params(cfg, 5)
    trace = forward(params, Tensor(np.zeros((2, 1, 8, 8), dtype=np.float32)))
    assert np.isfinite(trace.logits.data).all()
    for f in trace.features:
        assert np.isfinite(f.data).all()


def test_feature_spatial_sizes_halve():
    cfg = EncoderConfig(depth=3, width=4, input_channels=3, input_size=32, num_classes=10)
    params = sample_params(cfg, 1)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
    trace = forward(params, x)
    assert [f.data.shape[2] for f in trace.features] == [16, 8, 4]
    assert cfg.feature_sizes() == [16, 8, 4]


def test_identical_images_get_identical_rows():
    cfg = small_cfg()
    params = sample_params(cfg, 9)
    img = np.random.default_rng(2).normal(size=(1, 1, 8, 8)).astype(np.float32)
    batch = Tensor(np.concatenate([img, img, img]))
    trace = forward(params, batch)
    assert np.array_equal(trace.logits.data[0], trace.logits.data[1])
    for f in trace.features:
        assert np.array_equal(f.data[0], f.data[2])


def test_batch_permutation_equivariance():
    cfg = small_cfg()
    params = sample_params(cfg, 3, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 1, 8, 8))
    perm = rng.permutation(5)
    t0 = forward(params, Tensor(x))
    t1 = forward(params, Tensor(x[perm]))
    assert np.allclose(t1.logits.data, t0.logits.data[perm], atol=1e-12)
    for f0, f1 in zip(t0.features, t1.features):
        assert np.allclose(f1.data, f0.data[perm], atol=1e-12)


def test_trace_shape_contract():
    cfg = small_cfg()
    params = sample_params(cfg, 7)
    trace = forward(params, Tensor(np.zeros((2, 1, 8, 8), dtype=np.float32)))
    assert len(trace.features) == cfg.depth
    last = trace.features[-1].data.shape
    assert last[1] * last[2] * last[3] == cfg.classifier_in()
    assert params.fc_w.data.shape == (cfg.num_classes, cfg.classifier_in())


def test_logit_gradient_matches_finite_differences():
    cfg = EncoderConfig(depth=2, width=4, input_channels=1, input_size=6, num_classes=3)
    params = sample_params(cfg, 11, dtype=np.float64)
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(2, 1, 6, 6))
    x = Tensor(x0, requires_grad=True)
    T.backward(T.sum_all(forward(params, x).logits))
    num = fd_gradient(
        lambda v: float(forward(params, Tensor(v)).logits.data.sum()), x0, 1e-5)
    assert max_rel_err(x.grad, num) < 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_values_do_not_depend_on_grad_mode(dtype):
    cfg = small_cfg(width=12)
    params = sample_params(cfg, 17, dtype=dtype)
    x0 = np.random.default_rng(18).normal(size=(4, 1, 8, 8)).astype(dtype)
    plain = forward(params, Tensor(x0))
    graph = forward(params, Tensor(x0.copy(), requires_grad=True))
    assert graph.logits.requires_grad and not plain.logits.requires_grad
    for fp, fg in zip(plain.features, graph.features):
        assert np.array_equal(fp.data, fg.data)
    assert np.array_equal(plain.logits.data, graph.logits.data)
    target, stats = class_stats([plain], 4.0), class_stats([graph], 4.0)
    s, per_layer = sam_loss(target, stats)
    assert s.item() == 0.0 and per_layer == [0.0] * (cfg.depth - 1)
    assert mmd_loss(target, stats).item() == 0.0


def test_wrong_image_shape_raises():
    cfg = small_cfg()
    params = sample_params(cfg, 15)
    with pytest.raises(ShapeMismatch):
        forward(params, Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
    with pytest.raises(ShapeMismatch):
        forward(params, Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32)))


def test_depth_validation():
    with pytest.raises(ValueError):
        EncoderConfig(depth=4, width=8, input_channels=1, input_size=8, num_classes=2)
    assert default_depth(32) == 3
    assert default_depth(64) == 4
    assert default_depth(128) == 5


def test_a_synthetic_class_graph_holds_about_two_first_block_activations():
    """After a grad forward and ``class_stats`` the graph holds what backward
    reads: block 1's centred plane (one activation), its ReLU mask and
    pooled features (a quarter each), and the smaller blocks' share. A graph
    that kept every op's output held about 6.2 activations."""
    cfg = EncoderConfig(depth=3, width=32, input_channels=3, input_size=32, num_classes=2)
    params = sample_params(cfg, 1)
    x = Tensor(np.random.default_rng(35).normal(size=(10, 3, 32, 32)).astype(np.float32),
               requires_grad=True)
    activation = 10 * 32 * 32 * 32 * 4
    tracemalloc.start()
    try:
        stats = class_stats([forward(params, x)], 4.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * activation
    assert stats.feature.requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_constant_inputs_take_the_fused_pass_with_the_chained_values(monkeypatch, dtype):
    """MNIST's 28 px at depth 3: the last block pools a 7 px map. The same
    arrays in trainable tensors take the chain, whose graph is never walked."""
    cfg = EncoderConfig(depth=3, width=6, input_channels=1, input_size=28, num_classes=3)
    trainable = sample_params(cfg, 21, dtype=dtype, trainable=True)
    x = Tensor(np.random.default_rng(22).normal(size=(3, 1, 28, 28)).astype(dtype))
    calls = []
    conv_blocks = T.conv_blocks
    monkeypatch.setattr(T, "conv_blocks", lambda *a: calls.append(1) or conv_blocks(*a))
    chained = forward(trainable, x)
    assert calls == [] and chained.logits.requires_grad
    fused = forward(trainable.constant(), x)
    assert calls == [1]
    assert not fused.logits.requires_grad
    assert [f.data.shape[2] for f in fused.features] == [14, 7, 4]
    for fc, ff in zip(chained.features, fused.features):
        assert fc.dtype == ff.dtype == dtype and np.array_equal(fc.data, ff.data)
    assert np.array_equal(chained.logits.data, fused.logits.data)
    for p, c in zip(trainable.parameters(), trainable.constant().parameters()):
        assert c.data is p.data and not c.requires_grad
